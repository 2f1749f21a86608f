"""Determinantal point process measures.

An L-ensemble assigns unnormalized weight pi(S) = det(L_S) to each subset S,
with pi(empty) = 1. The marginal kernel K = L(I+L)^{-1} gives inclusion
probabilities Pr(S subset T) = det(K_S). Acceptance ratios for the chains are
Schur complements, read in closed form from the inverse of L_S that
:class:`CholeskyCache` maintains incrementally; it factors L_S by Cholesky
only when it rebuilds. ``LEnsemble.chain_oracle`` gives each chain a
:class:`_CachedDppOracle`, which answers the ratios from its own cache and
applies every accepted move to it before returning the next state. A k-DPP,
``CardinalityConditionedMeasure(LEnsemble, k)``, runs on the same
conditioning of that oracle, so its swaps and recorded weights come from the
cache too.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo, inv as _inv

from . import measures
from .measures import NEG_INF, ChainState, MeasureOracle, SubsetState

SYMMETRY_TOL = 1e-10
EIG_TOL = 1e-8
JITTER = 1e-10


class KernelValidationError(ValueError):
    pass


def _check_symmetric(M, name):
    """0.5 (M + M^T); a refusal names the worst entry of |M - M^T|, 1-based."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise KernelValidationError(f"{name} must be a square matrix")
    # One N x N buffer holds M - M^T, its abs, and then 0.5 (M + M^T).
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, refused below
        buf = np.subtract(M, M.T)
    asym = float(np.max(np.abs(buf, out=buf))) if M.size else 0.0
    if not math.isfinite(asym):
        raise KernelValidationError(f"{name} has a NaN or infinite entry")
    if asym > SYMMETRY_TOL:
        i, j = divmod(int(np.argmax(buf)), M.shape[0])
        raise KernelValidationError(f"{name} asymmetric at row {i + 1}, col "
                                    f"{j + 1} (|diff|={asym:.3e})")
    np.add(M, M.T, out=buf)
    buf *= 0.5
    return buf


def _factors(A, shift):
    """Whether A + shift I has a Cholesky factor; adds the shift to A's
    diagonal in place.

    A computed factor is the exact one of A + shift I + E with ||E|| of
    order n u ||A|| (u the unit roundoff), so it exists only if the smallest
    eigenvalue of A is above -shift - ||E||; a failure says nothing about
    how far below it lies. A failure is read from the NaN diagonal of
    ``_cholesky``, as ``_log_det`` reads it.
    """
    A.flat[::A.shape[0] + 1] += shift
    return not math.isnan(np.add.reduce(_cholesky(A).diagonal()))


def _check_marginal_spectrum(lo, hi):
    if lo < -EIG_TOL or hi > 1.0 + EIG_TOL:
        raise KernelValidationError(
            f"marginal kernel spectrum [{lo:.6g}, {hi:.6g}] outside [0, 1]")


def validate_marginal_kernel(K):
    """Validate a DPP marginal kernel: symmetric with spectrum in [0, 1].

    K is accepted when K + (EIG_TOL/2) I and (1 + EIG_TOL/2) I - K both have
    Cholesky factors. Only when one has none does ``np.linalg.eigvalsh`` run,
    and K is refused iff its spectrum reaches below -EIG_TOL or above
    1 + EIG_TOL.
    """
    K = _check_symmetric(K, "marginal kernel")
    half = 0.5 * EIG_TOL
    if K.size and not (_factors(K.copy(), half) and _factors(-K, 1.0 + half)):
        lo, hi = np.linalg.eigvalsh(K)[[0, -1]]
        _check_marginal_spectrum(lo, hi)
    return K


class LEnsemble(MeasureOracle):
    """Measure oracle with pi(S) = det(L_S) for a symmetric PSD matrix L.

    L is accepted when L + (EIG_TOL/2) I has a Cholesky factor. Only when it
    has none does ``np.linalg.eigvalsh`` run, and L is refused iff its
    smallest eigenvalue is below -EIG_TOL.
    """

    def __init__(self, L):
        L = _check_symmetric(L, "L-ensemble kernel")
        if L.size and not _factors(L.copy(), 0.5 * EIG_TOL):
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

    def chain_oracle(self, S: ChainState) -> "_CachedDppOracle":
        """A per-chain oracle backed by a fresh inverse cache of L_S."""
        return _CachedDppOracle(self, S)

    def singleton_log_weights(self) -> np.ndarray:
        """log L_ii; -inf where L_ii <= 0."""
        d = np.diag(self.L)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(d > 0.0, np.log(d), NEG_INF)


@np.errstate(all="ignore")
def _cholesky(a):
    """Lower Cholesky factor of the float matrix ``a``, or a NaN diagonal
    where LAPACK cannot factor it.

    This is the gufunc behind numpy's ``linalg.cholesky``, so the factor
    and the verdict are the same to the bit; the wrapper's shape and type
    checks and its ``LinAlgError`` are left out.
    """
    return cholesky_lo(a, signature="d->d")


def _log_det(chol):
    """log det of the matrix whose ``_cholesky`` factor is ``chol``; -inf
    for the all-NaN factor of a matrix LAPACK could not factor, read from
    the NaN sum (``np.log`` of NaN does not warn)."""
    log_det = float(2.0 * np.add.reduce(np.log(chol.diagonal())))
    return NEG_INF if math.isnan(log_det) else log_det


def dpp_log_weight(L, S: SubsetState) -> float:
    """log det(L_S) for a matrix L; 0 for the empty set, -inf for a
    singular minor."""
    if S.cardinality == 0:
        return 0.0
    m = S.membership
    return _log_det(_cholesky(L.compress(m, 0).compress(m, 1)))


def marginal_to_l(K) -> LEnsemble:
    """L = K(I-K)^{-1}. Fails if K has an eigenvalue at 1 (elementary direction).

    K's spectrum is checked against [0, 1] as ``validate_marginal_kernel``
    checks it, on the eigenvalues of the one ``eigh`` the conversion needs.
    """
    K = _check_symmetric(K, "marginal kernel")
    evals, vecs = np.linalg.eigh(K)
    if evals.size:
        _check_marginal_spectrum(evals[0], evals[-1])
        if evals[-1] >= 1.0 - EIG_TOL:
            raise KernelValidationError(
                f"marginal kernel eigenvalue {evals[-1]:.6g} at 1: elementary "
                "direction; not representable as L-ensemble"
            )
    lam = np.clip(evals, 0.0, None)
    L = (vecs * (lam / (1.0 - lam))) @ vecs.T
    return LEnsemble(0.5 * (L + L.T))


def l_to_marginal(ensemble: LEnsemble) -> np.ndarray:
    """K = L(I+L)^{-1}; diagonal entries are the singleton inclusion probabilities.

    K is read from :class:`SpectralSampler`'s spectrum lam / (1 + lam), in
    [0, 1) by construction, so it is not validated again; it is symmetrized.
    """
    spectrum = SpectralSampler(ensemble)
    K = (spectrum.vecs * spectrum.inclusion) @ spectrum.vecs.T
    return 0.5 * (K + K.T)


class CholeskyCache:
    """Incrementally maintained inverse of L_S for one chain.

    Keeps the active elements in the index array ``order``, the inverse
    ``inv = (L_S)^{-1}`` in that order, and the running log-determinant. Every
    ratio is a Schur complement read from ``inv`` with no solve (Kang 2013):
    with p the position of s, c = L[order, t] and w = inv c, deleting s scales
    det(L_S) by kp = inv[p, p], adding t by the pivot L_tt - c^T w, and
    swapping s for t by r = kp (L_tt - c^T w) + w_p^2.

    Accepted moves update ``inv`` without a solve. An add borders it by
    the pivot; a delete subtracts a a^T / kp, with a = inv[p], and moves the
    last element into the freed position. A swap puts t in s's position p
    and makes one rank-2 update: with pivot' = r / kp, the add pivot of t on
    S - s, and v = w - a (w_p / kp) but v_p = -1,
    inv <- inv - a a^T / kp + v v^T / pivot', and log det gains log r. An add
    or a swap reuses the w of the ratio just read for the same move.

    A Cholesky factor of L_S is formed only at a rebuild: every
    ``measures.REBUILD_INTERVAL`` accepted moves, or when an add pivot, a
    deleted inv[p, p], or a swap's kp or pivot' falls below ``PIVOT_TOL``. A
    rebuild that finds L_S numerically singular sets ``flagged`` and raises
    ``ArithmeticError``; the cache is not usable after that.
    """

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
        self._pending = None
        self._pos[t] = self.size
        self._idx[self.size] = t
        self.size += 1
        self.order = self._idx[:self.size]

    def _pop(self, s):
        """Drop s from the order, move the last element into its position
        and return that position."""
        self._pending = None
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
        self._pending = None
        self.inv = np.zeros((0, 0))
        self.log_det = 0.0
        self.flagged = False
        if self.size == 0:
            return
        chol = _cholesky(self.L.take(self.order, 0).take(self.order, 1))
        self.log_det = _log_det(chol)
        if self.log_det == NEG_INF:
            self.flagged = True
            raise ArithmeticError("DPP cache flagged: the rebuild found L_S "
                                  "numerically singular")
        # The gufunc behind np.linalg.inv: numpy's own LAPACK, no wrapper.
        chol_inv = _inv(chol, signature="d->d")
        self.inv = chol_inv.T @ chol_inv

    def _swap_terms(self, s, t):
        """Stash and return ((s, t), w, r) for swapping s for t."""
        if t in self._pos:
            raise ValueError(f"element {t} already active")
        p = self._pos[s]
        c = self.L[t][self.order]
        w = self.inv.dot(c)
        r = float(self.inv[p, p] * (self.L[t, t] - c.dot(w)) + w[p] * w[p])
        self._pending = ((s, t), w, r)
        return self._pending

    def add_ratio(self, t) -> float:
        """det(L_{S+t}) / det(L_S) = L_tt - c^T inv c, the Schur complement pivot."""
        if t in self._pos:
            raise ValueError(f"element {t} already active")
        c = self.L[t][self.order]
        w = self.inv.dot(c)
        pivot = float(self.L[t, t] - c.dot(w))
        self._pending = (t, w, pivot)
        return pivot if pivot > 0.0 else 0.0

    def delete_ratio(self, s) -> float:
        """det(L_{S-s}) / det(L_S) = inv[p, p]."""
        p = self._pos[s]
        return float(self.inv[p, p])

    def swap_ratio(self, s, t) -> float:
        """det(L_{S-s+t}) / det(L_S) = inv[p, p] (L_tt - c^T inv c) + (inv c)_p^2."""
        r = self._swap_terms(s, t)[2]
        return r if r > 0.0 else 0.0

    def apply_add(self, t):
        t = int(t)
        pending = self._pending
        if pending is None or pending[0] != t:
            self.add_ratio(t)
            pending = self._pending
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
        s, t = int(s), int(t)
        # A ratio read for another move, or none, leaves no usable w.
        pending = self._pending
        if pending is None or pending[0] != (s, t):
            pending = self._swap_terms(s, t)
        _, w, r = pending
        self._pending = None
        p = self._pos.pop(s)
        self._pos[t] = p
        self._idx[p] = t
        inv = self.inv
        kp = float(inv[p, p])
        if kp < self.PIVOT_TOL or r < self.PIVOT_TOL * kp:  # pivot' = r / kp
            self._rebuild()
            return
        a = inv[p]
        v = w - a * (w[p] / kp)
        v[p] = -1.0
        # inv - a a^T / kp + v v^T / pivot' as one product; U copies a
        # before inv changes.
        U = np.array([a, v])
        inv += U.T.dot(U / np.array([[-kp], [r / kp]]))
        self.log_det += math.log(r)
        self._bump()

    def _bump(self):
        self._accepted += 1
        if self._accepted >= measures.REBUILD_INTERVAL:
            self._rebuild()


class _CachedDppOracle(MeasureOracle):
    """Per-chain oracle that answers ratios from its own :class:`CholeskyCache`.

    Like its ratios, ``log_weight`` answers for the chain's current state,
    whatever state it is passed: it returns the cache's running log det(L_S).
    ``move`` moves the chain's state and then the cache, so a rebuild that
    finds L_S numerically singular raises ``ArithmeticError`` there.
    """

    def __init__(self, measure: LEnsemble, S: ChainState):
        self.n = measure.n
        self.cache = CholeskyCache(measure.L, S.members)

    def log_weight(self, S):
        return self.cache.log_det

    def add_ratio(self, S, t):
        return self.cache.add_ratio(t)

    def delete_ratio(self, S, s):
        return self.cache.delete_ratio(s)

    def swap_ratio(self, S, s, t):
        return self.cache.swap_ratio(s, t)

    def move(self, S, kind, s, t):
        S.moved(kind, s, t)
        if kind == "add":
            self.cache.apply_add(t)
        elif kind == "delete":
            self.cache.apply_delete(s)
        else:
            self.cache.apply_swap(s, t)
        return S


class SpectralSampler:
    """Exact i.i.d. DPP sampler from the eigendecomposition of L.

    Each draw keeps eigenvector v_m with probability lam_m / (1 + lam_m), then
    picks one element per kept vector from the projection kernel K = V V^T of
    the kept vectors V, in the sequential rank-1 form of Kulesza & Taskar
    2012, Alg. 1: with d the residual diagonal of K (the squared row norms of
    an orthonormal basis of what is left of span V), element i is picked
    with probability d_i / sum(d), and conditioning on i subtracts the
    rank-1 term c c^T, c = (K[i] - C^T C[:, i]) / sqrt(d_i), where the rows
    of C are the earlier terms. No basis is re-orthonormalized. A draw reads
    its n inclusion uniforms and then its k pick uniforms as two blocks; for
    PCG64 these are the doubles, and the end state, of n + k scalar reads.
    """

    def __init__(self, ensemble: LEnsemble):
        evals, vecs = np.linalg.eigh(ensemble.L)
        lam = np.clip(evals, 0.0, None)
        self.n = ensemble.n
        self.inclusion = lam / (1.0 + lam)
        self.vecs = vecs

    def sample(self, rng) -> SubsetState:
        chosen = rng.random(self.n) < self.inclusion
        V = self.vecs[:, chosen]
        k = V.shape[1]
        u = rng.random(k)
        K = V @ V.T
        d = K.diagonal().copy()
        C = np.empty((k, self.n))
        member = np.zeros(self.n, dtype=bool)
        for j in range(k):
            cum = d.cumsum()
            if cum[-1] <= 0.0:
                raise ArithmeticError("spectral sampler: degenerate projection")
            # u < 1, so u cum[-1] < cum[-1]; "right" skips spent elements.
            i = int(cum.searchsorted(u[j] * cum[-1], "right"))
            member[i] = True
            if j == k - 1:
                break
            c = C[j]
            np.subtract(K[i], C[:j, i] @ C[:j], out=c)
            c /= math.sqrt(d[i])
            d -= c * c
            d[i] = 0.0
            np.maximum(d, 0.0, out=d)
        return SubsetState(member)


def rbf_kernel(points, bandwidth) -> LEnsemble:
    """Gaussian similarity kernel L_ij = exp(-||x_i - x_j||^2 / (2 bw^2)) + jitter."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be an M x d matrix")
    if not 0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    sq = np.sum(points * points, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * points @ points.T
    np.maximum(d2, 0.0, out=d2)
    L = np.exp(-d2 / (2.0 * bandwidth**2))
    L[np.diag_indices_from(L)] += JITTER
    return LEnsemble(L)


def spectrum_step_kernel(n, k, hi, lo, rng) -> LEnsemble:
    """Kernel with a two-level spectrum: k eigenvalues at hi, n-k at lo."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside [0, {n}]")
    if not (0 < hi < math.inf and 0 < lo < math.inf):
        raise ValueError(f"hi and lo must be positive and finite, got "
                         f"hi={hi}, lo={lo}")
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    Q = Q * np.sign(np.diag(R))
    lam = np.concatenate([np.full(k, float(hi)), np.full(n - k, float(lo))])
    L = (Q * lam) @ Q.T
    return LEnsemble(0.5 * (L + L.T))
