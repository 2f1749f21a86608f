"""Determinantal point process measures.

An L-ensemble assigns unnormalized weight pi(S) = det(L_S) to each subset S,
with pi(empty) = 1. The marginal kernel K = L(I+L)^{-1} gives inclusion
probabilities Pr(S subset T) = det(K_S). Acceptance ratios for the chains are
Schur complements, read in closed form from the inverse of L_S that
:class:`CholeskyCache` maintains incrementally; it factors L_S by Cholesky
only when it rebuilds. ``LEnsemble.chain_oracle`` gives each chain a
:class:`_CachedDppOracle`, which answers the ratios from its own cache and
applies every accepted move to it before returning the next state. A k-DPP,
``CardinalityConditionedMeasure(LEnsemble, k)``, runs its swaps on the same
oracle.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo
from scipy.linalg.lapack import dtrtri

from .measures import NEG_INF, MeasureOracle, SubsetState

SYMMETRY_TOL = 1e-10
EIG_TOL = 1e-8
JITTER = 1e-10


class KernelValidationError(ValueError):
    pass


def _check_symmetric(M, tol, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise KernelValidationError(f"{name} must be a square matrix")
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, refused below
        asym = float(np.max(np.abs(M - M.T))) if M.size else 0.0
    if not math.isfinite(asym):
        raise KernelValidationError(f"{name} has a NaN or infinite entry")
    if asym > tol:
        raise KernelValidationError(f"{name} asymmetric: max |M - M^T| = {asym:.3e}")
    return 0.5 * (M + M.T)


def validate_marginal_kernel(K):
    """Validate a DPP marginal kernel: symmetric with spectrum in [0, 1]."""
    K = _check_symmetric(K, SYMMETRY_TOL, "marginal kernel")
    if K.size:
        lo, hi = np.linalg.eigvalsh(K)[[0, -1]]
        if lo < -EIG_TOL or hi > 1.0 + EIG_TOL:
            raise KernelValidationError(
                f"marginal kernel spectrum [{lo:.6g}, {hi:.6g}] outside [0, 1]")
    return K


class LEnsemble(MeasureOracle):
    """Measure oracle with pi(S) = det(L_S) for a symmetric PSD matrix L."""

    def __init__(self, L):
        L = _check_symmetric(L, SYMMETRY_TOL, "L-ensemble kernel")
        if L.size:
            lo = float(np.linalg.eigvalsh(L)[0])
            if lo < -EIG_TOL:
                raise KernelValidationError(
                    f"L-ensemble eigenvalue {lo:.6g} below 0"
                )
        self.L = L
        self.n = L.shape[0]

    def log_weight(self, S):
        self._check(S)
        return dpp_log_weight(self.L, S)

    def chain_oracle(self, S: SubsetState) -> "_CachedDppOracle":
        """A per-chain oracle backed by a fresh inverse cache of L_S."""
        return _CachedDppOracle(self, S)

    def singleton_log_weights(self) -> np.ndarray:
        """log L_ii; -inf where L_ii <= 0."""
        d = np.diag(self.L)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(d > 0.0, np.log(d), NEG_INF)


def _cholesky(a):
    """Lower Cholesky factor of the float matrix ``a``, or a NaN diagonal
    where LAPACK cannot factor it.

    This is the gufunc that ``np.linalg.cholesky`` calls, so the factor is
    the same to the bit; the wrapper's shape and type checks and its
    ``LinAlgError`` are left out.
    """
    with np.errstate(all="ignore"):
        return cholesky_lo(a, signature="d->d")


def dpp_log_weight(L, S: SubsetState) -> float:
    """log det(L_S) for a matrix L; 0 for the empty set, -inf for a
    singular minor."""
    if S.cardinality == 0:
        return 0.0
    m = S.membership
    diag = _cholesky(L.compress(m, 0).compress(m, 1)).diagonal()
    if not np.minimum.reduce(diag) > 0.0:  # NaN: LAPACK could not factor
        return NEG_INF
    return float(2.0 * np.add.reduce(np.log(diag)))


def marginal_to_l(K) -> LEnsemble:
    """L = K(I-K)^{-1}. Fails if K has an eigenvalue at 1 (elementary direction)."""
    K = validate_marginal_kernel(K)
    evals, vecs = np.linalg.eigh(K)
    if evals.size and evals[-1] >= 1.0 - EIG_TOL:
        raise KernelValidationError(
            f"marginal kernel eigenvalue {evals[-1]:.6g} at 1: elementary "
            "direction; not representable as L-ensemble"
        )
    lam = np.clip(evals, 0.0, None)
    L = (vecs * (lam / (1.0 - lam))) @ vecs.T
    return LEnsemble(0.5 * (L + L.T))


def l_to_marginal(L) -> np.ndarray:
    """K = L(I+L)^{-1}; diagonal entries are the singleton inclusion probabilities."""
    L = getattr(L, "L", L)
    evals, vecs = np.linalg.eigh(L)
    lam = np.clip(evals, 0.0, None)
    K = (vecs * (lam / (1.0 + lam))) @ vecs.T
    return validate_marginal_kernel(0.5 * (K + K.T))


class CholeskyCache:
    """Incrementally maintained inverse of L_S for one chain.

    Keeps the active elements in the index array ``order``, the inverse
    ``inv = (L_S)^{-1}`` in that order, and the running log-determinant. Every
    ratio is a Schur complement read from ``inv`` with no solve (Kang 2013):
    with p the position of s and c = L[order, t], deleting s scales det(L_S)
    by inv[p, p], adding t by the pivot L_tt - c^T inv c, and swapping s for t
    by inv[p, p] (L_tt - c^T inv c) + (inv c)_p^2. Accepted moves update
    ``inv`` by rank-1 block-inverse formulas; a delete moves the last element
    into the freed position. A Cholesky factor of L_S is formed only at a
    rebuild: every ``REBUILD_INTERVAL`` accepted moves, or when an add pivot
    or a deleted inv[p, p] falls below ``PIVOT_TOL``. A rebuild that finds
    L_S numerically singular sets ``flagged`` and raises ``ArithmeticError``;
    the cache is not usable after that.
    """

    REBUILD_INTERVAL = 512
    PIVOT_TOL = 1e-12

    def __init__(self, L, indices=()):
        self.L = np.asarray(L, dtype=float)
        self._idx = np.empty(self.L.shape[0], dtype=np.intp)
        self._pos = {}
        self.size = 0
        self.order = self._idx[:0]
        for i in indices:
            self._push(int(i))
        self._rebuild()

    def _push(self, t):
        self._pending_add = None
        self._pos[t] = self.size
        self._idx[self.size] = t
        self.size += 1
        self.order = self._idx[:self.size]

    def _pop(self, s):
        """Drop s from the order, move the last element into its position
        and return that position."""
        self._pending_add = None
        p = self._pos.pop(s)
        self.size -= 1
        if p != self.size:
            last = int(self._idx[self.size])
            self._idx[p] = last
            self._pos[last] = p
        self.order = self._idx[:self.size]
        return p

    def _rebuild(self):
        self._accepted = 0
        self._pending_add = None
        self.inv = np.zeros((0, 0))
        self.log_det = 0.0
        self.flagged = False
        if self.size == 0:
            return
        chol = _cholesky(self.L.take(self.order, 0).take(self.order, 1))
        diag = chol.diagonal()
        if not np.minimum.reduce(diag) > 0.0:
            self.log_det = NEG_INF
            self.flagged = True
            raise ArithmeticError("DPP cache flagged: the rebuild found L_S "
                                  "numerically singular")
        chol_inv = dtrtri(chol, lower=1)[0]
        self.inv = chol_inv.T @ chol_inv
        self.log_det = float(2.0 * np.add.reduce(np.log(diag)))

    def add_ratio(self, t) -> float:
        """det(L_{S+t}) / det(L_S) = L_tt - c^T inv c, the Schur complement pivot."""
        if t in self._pos:
            raise ValueError(f"element {t} already active")
        c = self.L[t][self.order]
        w = self.inv.dot(c)
        pivot = float(self.L[t, t] - c.dot(w))
        self._pending_add = (t, w, pivot)
        return pivot if pivot > 0.0 else 0.0

    def delete_ratio(self, s) -> float:
        """det(L_{S-s}) / det(L_S) = inv[p, p]."""
        p = self._pos[s]
        return float(self.inv[p, p])

    def swap_ratio(self, s, t) -> float:
        """det(L_{S-s+t}) / det(L_S) = inv[p, p] (L_tt - c^T inv c) + (inv c)_p^2."""
        p = self._pos[s]
        c = self.L[t][self.order]
        w = self.inv.dot(c)
        r = float(self.inv[p, p] * (self.L[t, t] - c.dot(w)) + w[p] * w[p])
        return r if r > 0.0 else 0.0

    def apply_add(self, t):
        t = int(t)
        pending = self._pending_add
        if pending is None or pending[0] != t:
            self.add_ratio(t)
            pending = self._pending_add
        k = self.size
        self._push(t)
        if pending[2] < self.PIVOT_TOL:
            self._rebuild()
            return
        _, w, pivot = pending
        g = w / pivot
        inv = np.empty((k + 1, k + 1))
        inv[:k, :k] = self.inv + np.dot(w[:, None], g[None, :])
        inv[k, :k] = inv[:k, k] = -g
        inv[k, k] = 1.0 / pivot
        self.inv = inv
        self.log_det += math.log(pivot)
        self._bump()

    def apply_delete(self, s):
        k = self.size
        p = self._pop(int(s))
        # Emptying the set rebuilds, so the empty set's log_det is exactly 0.
        kp = 0.0 if k == 1 else self.inv[p, p]
        if kp < self.PIVOT_TOL:
            self._rebuild()
            return
        inv = self.inv
        inv -= np.dot(inv[p, :, None], inv[None, p] / kp)
        q = k - 1
        if p != q:
            inv[p] = inv[q]
            inv[:, p] = inv[:, q]
        self.inv = inv[:q, :q].copy()
        self.log_det += math.log(kp)
        self._bump()

    def apply_swap(self, s, t):
        self.apply_delete(s)
        self.apply_add(t)

    def _bump(self):
        self._accepted += 1
        if self._accepted >= self.REBUILD_INTERVAL:
            self._rebuild()


class _CachedDppOracle(MeasureOracle):
    """Per-chain oracle that answers ratios from its own :class:`CholeskyCache`.

    Like its ratios, ``log_weight`` answers for the chain's current state,
    whatever state it is passed: it returns the cache's running log det(L_S).
    ``move`` applies each accepted move to the cache, so a rebuild that finds
    L_S numerically singular raises ``ArithmeticError`` there.
    """

    def __init__(self, measure: LEnsemble, S: SubsetState):
        self.n = measure.n
        self.cache = CholeskyCache(measure.L, S.indices())

    def log_weight(self, S):
        return self.cache.log_det

    def add_ratio(self, S, t):
        return self.cache.add_ratio(t)

    def delete_ratio(self, S, s):
        return self.cache.delete_ratio(s)

    def swap_ratio(self, S, s, t):
        return self.cache.swap_ratio(s, t)

    def move(self, S, kind, s, t):
        if kind == "add":
            self.cache.apply_add(t)
        elif kind == "delete":
            self.cache.apply_delete(s)
        else:
            self.cache.apply_swap(s, t)
        return super().move(S, kind, s, t)


class SpectralSampler:
    """Exact i.i.d. DPP sampler from the eigendecomposition of L.

    Each draw keeps eigenvector v_m with probability lam_m / (1 + lam_m), then
    picks one element per kept vector from the projection kernel K = V V^T of
    the kept vectors V, in the sequential rank-1 form of Kulesza & Taskar
    2012, Alg. 1: with d the residual diagonal of K (the squared row norms of
    an orthonormal basis of what is left of span V), element i is picked
    with probability d_i / sum(d), and conditioning on i subtracts the
    rank-1 term c c^T, c = (K[i] - C^T C[:, i]) / sqrt(d_i), where the rows
    of C are the earlier terms. No basis is re-orthonormalized.
    """

    def __init__(self, L):
        L = np.asarray(getattr(L, "L", L), dtype=float)
        evals, vecs = np.linalg.eigh(L)
        lam = np.clip(evals, 0.0, None)
        self.n = L.shape[0]
        self.inclusion = lam / (1.0 + lam)
        self.vecs = vecs

    def sample(self, rng) -> SubsetState:
        chosen = rng.random(self.n) < self.inclusion
        V = self.vecs[:, chosen]
        k = V.shape[1]
        K = V @ V.T
        d = K.diagonal().copy()
        C = np.empty((k, self.n))
        picked = []
        for j in range(k):
            total = d.sum()
            if total <= 0.0:
                raise ArithmeticError("spectral sampler: degenerate projection")
            i = int(np.searchsorted(np.cumsum(d / total), rng.random()))
            i = min(i, self.n - 1)
            picked.append(i)
            if j == k - 1:
                break
            c = (K[i] - C[:j, i] @ C[:j]) / math.sqrt(d[i])
            C[j] = c
            d -= c * c
            d[i] = 0.0
            np.maximum(d, 0.0, out=d)
        return SubsetState.from_indices(picked, self.n)


def rbf_kernel(points, bandwidth) -> LEnsemble:
    """Gaussian similarity kernel L_ij = exp(-||x_i - x_j||^2 / (2 bw^2)) + jitter."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be an M x d matrix")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    sq = np.sum(points * points, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * points @ points.T
    np.maximum(d2, 0.0, out=d2)
    L = np.exp(-d2 / (2.0 * bandwidth**2))
    L[np.diag_indices_from(L)] += JITTER
    return LEnsemble(0.5 * (L + L.T))


def spectrum_step_kernel(n, k, hi, lo, rng) -> LEnsemble:
    """Kernel with a two-level spectrum: k eigenvalues at hi, n-k at lo."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside [0, {n}]")
    if hi <= 0 or lo <= 0:
        raise ValueError("hi and lo must be positive")
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    Q = Q * np.sign(np.diag(R))
    lam = np.concatenate([np.full(k, float(hi)), np.full(n - k, float(lo))])
    L = (Q * lam) @ Q.T
    return LEnsemble(0.5 * (L + L.T))
