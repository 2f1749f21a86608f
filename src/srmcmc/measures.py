"""Subset states and unnormalized measure oracles over subsets of a ground set.

All weights live in log domain; ``-inf`` is the first-class encoding of a
zero-weight set. The chain steppers only ever consume the ratio operations,
which share one default body and may be overridden by faster specializations.

A chain keeps one :class:`ChainState`, a :class:`SubsetState` that also
holds sorted lists of its members and of the other elements, so a proposal
reads its j-th member or non-member in O(1), and an accepted move changes
the state in place instead of copying it.

A chain runs on ``measure.chain_oracle(S)``, which answers those ratios for
one chain and applies each accepted move to the chain's state in place
(``move``). The default oracle is the measure itself; a measure that keeps
incremental per-chain state returns its own oracle, which updates that state
in ``move``: a product's running log weight, or the L-ensemble's inverse
cache in :mod:`srmcmc.dpp`, each recomputed every ``REBUILD_INTERVAL``
accepted moves. A cardinality-conditioned measure's per-chain oracle is the
same conditioning of its base's per-chain oracle, so a k-DPP reads its swap
ratios and its recorded weights from that cache, and a conditioned product
its weights from the running sum; adds and deletes leave the shell.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left, insort

import numpy as np

NEG_INF = float("-inf")
REBUILD_INTERVAL = 512


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
        self.cardinality = int(np.count_nonzero(m))

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
        """The set of the low n bits of the integer mask (bit i is element i)."""
        low = operator.index(mask) & ((1 << n) - 1)
        raw = np.frombuffer(low.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        return cls(np.unpackbits(raw, count=n, bitorder="little").view(bool))

    @property
    def n(self):
        return self.membership.shape[0]

    def indices(self):
        return self.membership.nonzero()[0]

    def contains(self, i):
        return bool(self.membership[i])

    def bitmask(self):
        """The integer with bit i set for each element i of the set."""
        packed = np.packbits(self.membership, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def _apply(self, kind, s, t):
        """Check the move "add" t, "delete" s, or "swap" s for t, then flip
        its membership bits and cardinality in place. An unknown kind or an
        illegal move raises ``ValueError`` and changes nothing."""
        if kind not in ("add", "delete", "swap"):
            raise ValueError(f"unknown move kind {kind!r}")
        m = self.membership
        if kind != "add" and not m[s]:
            raise ValueError(f"element {s} not in set")
        if kind != "delete" and m[t]:
            raise ValueError(f"element {t} already in set")
        if kind != "add":
            m[s] = False
        if kind != "delete":
            m[t] = True
        self.cardinality += (kind == "add") - (kind == "delete")
        return self

    def with_added(self, t):
        return SubsetState(self.membership.copy())._apply("add", None, t)

    def with_deleted(self, s):
        return SubsetState(self.membership.copy())._apply("delete", s, None)

    def with_swapped(self, s, t):
        return SubsetState(self.membership.copy())._apply("swap", s, t)

    def __eq__(self, other):
        return isinstance(other, SubsetState) and np.array_equal(
            self.membership, other.membership
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.indices().tolist()}, n={self.n})"


class ChainState(SubsetState):
    """The one mutable state of a running chain.

    Besides the membership vector and the cardinality it keeps ``members``
    and ``others``, the elements in and out of the set as ascending lists,
    in the order ``indices()`` lists them, and ``accepted_moves``, the
    number of moves applied to it. ``moved`` changes all of them in place,
    without a copy: ``_apply`` checks the move and flips its bits, and
    ``moved`` keeps both lists sorted by bisection.
    """

    __slots__ = ("members", "others", "accepted_moves")

    def __init__(self, membership):
        super().__init__(np.array(membership, dtype=bool))
        self.members = np.flatnonzero(self.membership).tolist()
        self.others = np.flatnonzero(~self.membership).tolist()
        self.accepted_moves = 0

    def moved(self, kind, s, t):
        """``_apply`` the move "add" t, "delete" s, or "swap" s for t, keep
        both lists sorted and return this state; a refused move changes
        nothing."""
        self._apply(kind, s, t)
        members, others = self.members, self.others
        if kind != "add":
            del members[bisect_left(members, s)]
            insort(others, s)
        if kind != "delete":
            del others[bisect_left(others, t)]
            insort(members, t)
        self.accepted_moves += 1
        return self


class MeasureOracle:
    """Unnormalized subset measure exposing log weights and move ratios.

    Subclasses must set ``n`` (ground set size) and implement ``log_weight``.
    The three ratio operations share one default two-evaluation body,
    ``_ratio``, and may be overridden where a faster specialization exists.
    """

    n: int

    def log_weight(self, S: SubsetState) -> float:
        raise NotImplementedError

    def chain_oracle(self, S: ChainState) -> "MeasureOracle":
        """The oracle one chain starting at S runs on; the measure itself."""
        return self

    def move(self, S: ChainState, kind, s, t) -> ChainState:
        """Apply an accepted move to the chain's state S in place and return
        it: "add" t, "delete" s, or "swap" s for t. ``S.moved`` checks and
        applies it first; an oracle with its own state then updates that."""
        return S.moved(kind, s, t)

    def singleton_log_weights(self) -> np.ndarray:
        """log pi({i}) for every element i."""
        n = self.n
        return np.array([self.log_weight(SubsetState.from_indices([i], n))
                         for i in range(n)], dtype=float)

    def _check(self, S):
        if S.n != self.n:
            raise ValueError(f"state has ground set size {S.n}, expected {self.n}")

    def _ratio(self, S, proposal):
        """pi(proposal) / pi(S) from two log weights; requires pi(S) > 0."""
        self._check(S)
        lw = self.log_weight(S)
        if lw == NEG_INF:
            raise ValueError("ratio undefined: current set has zero weight")
        lw_new = self.log_weight(proposal)
        return exp_ratio(lw_new - lw if lw_new != NEG_INF else NEG_INF)

    def add_ratio(self, S: SubsetState, t: int) -> float:
        """pi(S + t) / pi(S); requires t not in S and pi(S) > 0."""
        return self._ratio(S, S.with_added(t))

    def delete_ratio(self, S: SubsetState, s: int) -> float:
        """pi(S - s) / pi(S); requires s in S and pi(S) > 0."""
        return self._ratio(S, S.with_deleted(s))

    def swap_ratio(self, S: SubsetState, s: int, t: int) -> float:
        """pi(S - s + t) / pi(S); requires s in S, t not in S, pi(S) > 0."""
        return self._ratio(S, S.with_swapped(s, t))


class ProductMeasure(MeasureOracle):
    """Independent inclusion probabilities: pi(S) = prod_{i in S} q_i prod_{j notin S} (1 - q_j).

    A chain reads its log weights from its ``chain_oracle``'s running sum."""

    def __init__(self, q):
        q = np.asarray(q, dtype=float)
        if q.ndim != 1 or not np.all((q >= 0) & (q <= 1)):
            raise ValueError("q must be a vector in [0, 1]^n, without NaN")
        self.q = q
        self.n = q.shape[0]
        with np.errstate(divide="ignore"):
            self._logq = np.log(q)
            self._log1mq = np.log1p(-q)

    def log_weight(self, S):
        self._check(S)
        m = S.membership
        return float(np.add.reduce(np.where(m, self._logq, self._log1mq)))

    def chain_oracle(self, S: ChainState) -> "_RunningProductOracle":
        """An oracle with the same ratios whose ``log_weight`` is a running
        sum for the chain from S, not a sum of N terms per call."""
        return _RunningProductOracle(self, S)

    def singleton_log_weights(self):
        """log pi({i}) = log q_i + sum_{j != i} log(1 - q_j), in O(N)."""
        ones = self.q == 1.0
        log1mq = np.where(ones, 0.0, self._log1mq)
        rest = log1mq.sum() - log1mq
        # A singleton that leaves out an element with q_j = 1 has weight 0.
        rest[np.count_nonzero(ones) - ones > 0] = NEG_INF
        return self._logq + rest

    def add_ratio(self, S, t):
        """q_t / (1 - q_t). Raises ValueError if t is in S; pi(S) > 0 is
        required but not checked."""
        if S.membership[t]:
            raise ValueError(f"element {t} already in set")
        qt = self.q[t]
        if qt == 1.0:
            return math.inf
        return qt / (1.0 - qt)

    def delete_ratio(self, S, s):
        """(1 - q_s) / q_s. Raises ValueError if s is not in S; pi(S) > 0 is
        required but not checked."""
        if not S.membership[s]:
            raise ValueError(f"element {s} not in set")
        qs = self.q[s]
        if qs == 0.0:
            return math.inf
        return (1.0 - qs) / qs

    def swap_ratio(self, S, s, t):
        """q_t (1 - q_s) / (q_s (1 - q_t)); pi(S) > 0 gives q_s > 0, q_t < 1."""
        if not S.membership[s]:
            raise ValueError(f"element {s} not in set")
        if S.membership[t]:
            raise ValueError(f"element {t} already in set")
        return self.q[t] * (1.0 - self.q[s]) / (self.q[s] * (1.0 - self.q[t]))


class _RunningProductOracle(ProductMeasure):
    """A product's per-chain oracle: ``log_weight`` is the running log weight
    of the chain's state, whatever state it is passed. ``move`` adds the
    log-odds log q_t - log(1 - q_t) of an added t, subtracts those of a
    deleted s, and sums the N terms again every ``REBUILD_INTERVAL`` moves."""

    def __init__(self, measure: ProductMeasure, S: ChainState):
        self.q, self.n = measure.q, measure.n
        self._logq, self._log1mq = measure._logq, measure._log1mq
        self._log_odds = (self._logq - self._log1mq).tolist()
        self._lw = ProductMeasure.log_weight(self, S)

    def log_weight(self, S):
        return self._lw

    def move(self, S, kind, s, t):
        S.moved(kind, s, t)
        if S.accepted_moves % REBUILD_INTERVAL == 0:
            self._lw = ProductMeasure.log_weight(self, S)
            return S
        if kind != "delete":
            self._lw += self._log_odds[t]
        if kind != "add":
            self._lw -= self._log_odds[s]
        return S


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

    def chain_oracle(self, S: ChainState) -> "CardinalityConditionedMeasure":
        """The same conditioning of the base's per-chain oracle for S."""
        return CardinalityConditionedMeasure(self.base.chain_oracle(S), self.k)

    # With pi(S) > 0, an add or a delete leaves the shell and a swap stays
    # on it, so each answer below is exact for any base.
    def add_ratio(self, S, t):
        return 0.0

    def delete_ratio(self, S, s):
        return 0.0

    def swap_ratio(self, S, s, t):
        return self.base.swap_ratio(S, s, t)

    def move(self, S, kind, s, t):
        return self.base.move(S, kind, s, t)


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
        if not np.all((weights >= 0) & (weights < math.inf)):
            raise ValueError("weights must be finite and nonnegative")
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
