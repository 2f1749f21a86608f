"""Subset states and unnormalized measure oracles over subsets of a ground set.

All weights live in log domain; ``-inf`` is the first-class encoding of a
zero-weight set. The chain steppers only ever consume the ratio operations,
which measures may override with faster specializations.

A chain runs on ``measure.chain_oracle(S, stream)``, which answers those
ratios for one chain, and passes every step's outcome to its ``apply``. The
default oracle is the measure itself and ``apply`` does nothing; a measure
that keeps incremental per-chain state returns its own oracle (the
L-ensemble's inverse cache in :mod:`srmcmc.dpp`).
"""
from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")


def exp_ratio(log_diff):
    """exp of a log-weight difference; 0 for -inf, inf instead of overflow."""
    if log_diff == NEG_INF:
        return 0.0
    if log_diff > 700.0:
        return math.inf
    return math.exp(log_diff)


class SubsetState:
    """Subset S of [0, n) as a boolean membership vector plus cached cardinality."""

    __slots__ = ("membership", "cardinality")

    def __init__(self, membership):
        m = np.asarray(membership, dtype=bool)
        if m.ndim != 1:
            raise ValueError("membership must be a 1-d boolean vector")
        self.membership = m
        self.cardinality = int(m.sum())

    @classmethod
    def from_indices(cls, indices, n):
        m = np.zeros(n, dtype=bool)
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"element {i} outside ground set of size {n}")
            m[i] = True
        return cls(m)

    @classmethod
    def from_bitmask(cls, mask, n):
        m = np.zeros(n, dtype=bool)
        for i in range(n):
            if mask >> i & 1:
                m[i] = True
        return cls(m)

    @property
    def n(self):
        return self.membership.shape[0]

    def indices(self):
        return np.flatnonzero(self.membership)

    def contains(self, i):
        return bool(self.membership[i])

    def bitmask(self):
        mask = 0
        for i in np.flatnonzero(self.membership):
            mask |= 1 << int(i)
        return mask

    def with_added(self, t):
        if self.membership[t]:
            raise ValueError(f"element {t} already in set")
        m = self.membership.copy()
        m[t] = True
        return SubsetState(m)

    def with_deleted(self, s):
        if not self.membership[s]:
            raise ValueError(f"element {s} not in set")
        m = self.membership.copy()
        m[s] = False
        return SubsetState(m)

    def with_swapped(self, s, t):
        if not self.membership[s]:
            raise ValueError(f"element {s} not in set")
        if self.membership[t]:
            raise ValueError(f"element {t} already in set")
        m = self.membership.copy()
        m[s] = False
        m[t] = True
        return SubsetState(m)

    def __eq__(self, other):
        return isinstance(other, SubsetState) and np.array_equal(
            self.membership, other.membership
        )

    def __repr__(self):
        return f"SubsetState({sorted(int(i) for i in self.indices())}, n={self.n})"


class MeasureOracle:
    """Unnormalized subset measure exposing log weights and move ratios.

    Subclasses must set ``n`` (ground set size) and implement ``log_weight``.
    The ratio operations have a default two-evaluation implementation and may
    be overridden where a faster specialization exists.
    """

    n: int

    def log_weight(self, S: SubsetState) -> float:
        raise NotImplementedError

    def chain_oracle(self, S: SubsetState, stream=0) -> "MeasureOracle":
        """The oracle one chain starting at S runs on; the measure itself."""
        return self

    def apply(self, outcome):
        """Observe one step's outcome; a stateless oracle has nothing to do."""

    def singleton_log_weights(self) -> np.ndarray:
        """log pi({i}) for every element i."""
        n = self.n
        return np.array([self.log_weight(SubsetState.from_indices([i], n))
                         for i in range(n)], dtype=float)

    def _check(self, S):
        if S.n != self.n:
            raise ValueError(f"state has ground set size {S.n}, expected {self.n}")

    def _base_log_weight(self, S):
        self._check(S)
        lw = self.log_weight(S)
        if lw == NEG_INF:
            raise ValueError("ratio undefined: current set has zero weight")
        return lw

    def add_ratio(self, S: SubsetState, t: int) -> float:
        """pi(S + t) / pi(S); requires t not in S and pi(S) > 0."""
        lw = self._base_log_weight(S)
        lw_new = self.log_weight(S.with_added(t))
        return exp_ratio(lw_new - lw if lw_new != NEG_INF else NEG_INF)

    def delete_ratio(self, S: SubsetState, s: int) -> float:
        """pi(S - s) / pi(S); requires s in S and pi(S) > 0."""
        lw = self._base_log_weight(S)
        lw_new = self.log_weight(S.with_deleted(s))
        return exp_ratio(lw_new - lw if lw_new != NEG_INF else NEG_INF)

    def swap_ratio(self, S: SubsetState, s: int, t: int) -> float:
        """pi(S - s + t) / pi(S); requires s in S, t not in S, pi(S) > 0."""
        lw = self._base_log_weight(S)
        lw_new = self.log_weight(S.with_swapped(s, t))
        return exp_ratio(lw_new - lw if lw_new != NEG_INF else NEG_INF)


class ProductMeasure(MeasureOracle):
    """Independent inclusion probabilities: pi(S) = prod_{i in S} q_i prod_{j notin S} (1 - q_j)."""

    def __init__(self, q):
        q = np.asarray(q, dtype=float)
        if q.ndim != 1 or np.any(q < 0) or np.any(q > 1):
            raise ValueError("q must be a vector with entries in [0, 1]")
        self.q = q
        self.n = q.shape[0]
        with np.errstate(divide="ignore"):
            self._logq = np.log(q)
            self._log1mq = np.log1p(-q)

    def log_weight(self, S):
        self._check(S)
        m = S.membership
        return float(np.sum(np.where(m, self._logq, self._log1mq)))

    def add_ratio(self, S, t):
        self._base_log_weight(S)
        if S.membership[t]:
            raise ValueError(f"element {t} already in set")
        qt = self.q[t]
        if qt == 1.0:
            return math.inf
        return qt / (1.0 - qt)

    def delete_ratio(self, S, s):
        self._base_log_weight(S)
        if not S.membership[s]:
            raise ValueError(f"element {s} not in set")
        qs = self.q[s]
        if qs == 0.0:
            return math.inf
        return (1.0 - qs) / qs


class CardinalityConditionedMeasure(MeasureOracle):
    """Base measure conditioned on |S| = k; zero weight off the cardinality shell."""

    def __init__(self, base: MeasureOracle, k: int):
        if not 0 <= k <= base.n:
            raise ValueError(f"k={k} outside [0, {base.n}]")
        self.base = base
        self.k = k
        self.n = base.n

    def log_weight(self, S):
        self._check(S)
        if S.cardinality != self.k:
            return NEG_INF
        return self.base.log_weight(S)


class TableMeasure(MeasureOracle):
    """Explicit weight table indexed by subset bitmask. Test fixture; n <= 24."""

    MAX_N = 24

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=float)
        size = weights.shape[0]
        n = size.bit_length() - 1
        if size != 1 << n:
            raise ValueError("weights length must be a power of two")
        if n > self.MAX_N:
            raise ValueError(f"table measure capped at n <= {self.MAX_N}")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if not np.any(weights > 0):
            raise ValueError("at least one weight must be positive")
        self.n = n
        with np.errstate(divide="ignore"):
            self._logw = np.log(weights)

    def log_weight(self, S):
        self._check(S)
        return float(self._logw[S.bitmask()])


class SymmetricHomogenization(MeasureOracle):
    """N-homogeneous lift of a base measure onto 2N elements.

    Elements [N, 2N) are the shadow copy. For |R| = N the weight is
    pi(R & [0, N)) / C(N, |R & [0, N)|); otherwise zero. Marginalizing the
    shadow coordinates recovers the base measure.
    """

    def __init__(self, base: MeasureOracle):
        if base.n < 1:
            raise ValueError("base ground set must be nonempty")
        self.base = base
        self.base_n = base.n
        self.n = 2 * base.n

    def log_weight(self, R):
        self._check(R)
        nb = self.base_n
        if R.cardinality != nb:
            return NEG_INF
        real = SubsetState(R.membership[:nb])
        lw = self.base.log_weight(real)
        if lw == NEG_INF:
            return NEG_INF
        return lw - log_binomial(nb, real.cardinality)


def log_binomial(n, k):
    """log C(n, k) via log-gamma."""
    if not 0 <= k <= n:
        raise ValueError(f"binomial coefficient C({n},{k}) undefined")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
