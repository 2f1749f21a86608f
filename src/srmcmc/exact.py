"""Brute-force oracles for small ground sets.

Everything here enumerates subsets directly from ``log_weight``, one call per
subset, and never reuses the chains' ratio fast paths or any batched
determinant path of a particular measure, so these functions serve as
independent checks of stationarity, detailed balance, the exchange-chain
lumping argument, and total-variation mixing times. Only the bookkeeping
around those calls is vectorized (bitmask states, marginal sums).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .measures import (NEG_INF, MeasureOracle, SubsetState,
                       SymmetricHomogenization)

MAX_ENUM_N = 20


@dataclass
class ExactDistribution:
    """Normalized probabilities over all 2^n subsets, indexed by bitmask."""
    n: int
    probs: np.ndarray
    log_z: float

    def prob(self, mask):
        return float(self.probs[mask])

    def log_prob(self, mask):
        p = self.probs[mask]
        return math.log(p) if p > 0 else NEG_INF


@dataclass
class TransitionMatrix:
    """Row-stochastic one-step matrix over an explicit list of state bitmasks."""
    n: int
    states: list
    P: np.ndarray

    def index_of(self, mask):
        return self.states.index(mask)


def _log_weights(measure: MeasureOracle, n):
    lw = np.empty(1 << n)
    for mask in range(1 << n):
        lw[mask] = measure.log_weight(SubsetState.from_bitmask(mask, n))
    return lw


def enumerate_distribution(measure: MeasureOracle, n=None) -> ExactDistribution:
    """Exact normalized distribution by full enumeration; n <= 20."""
    n = measure.n if n is None else n
    if n > MAX_ENUM_N:
        raise ValueError(f"enumeration capped at n <= {MAX_ENUM_N}, got {n}")
    lw = _log_weights(measure, n)
    finite = np.isfinite(lw)
    if not finite.any():
        raise ValueError("measure assigns zero weight to every subset")
    top = lw[finite].max()
    w = np.where(finite, np.exp(lw - top), 0.0)
    z = w.sum()
    return ExactDistribution(n=n, probs=w / z, log_z=math.log(z) + top)


def exact_marginals(dist: ExactDistribution) -> np.ndarray:
    """Inclusion probability P(i in T) for each element i."""
    # Viewed as (2^(n-1-i), 2, 2^i), the middle index of probs is bit i.
    return np.array([dist.probs.reshape(-1, 2, 1 << i)[:, 1].sum()
                     for i in range(dist.n)], dtype=float)


def _ratio(lw_new, lw_cur):
    if lw_new == NEG_INF:
        return 0.0
    d = lw_new - lw_cur
    return math.inf if d > 700.0 else math.exp(d)


def _support(lw):
    return [mask for mask in range(lw.shape[0]) if np.isfinite(lw[mask])]


def transition_matrix(measure: MeasureOracle, chain_kind, cardinality=None,
                      paper_literal_delete=False) -> TransitionMatrix:
    """Exact one-step transition matrix of a chain, rows over positive-weight states.

    For the exchange chain, ``cardinality`` selects the shell the chain lives
    on; the other chains use the full positive-weight support. Rejected and
    lazy mass lands on the diagonal.
    """
    n = measure.n
    if n > 10:
        raise ValueError("exact transition matrices capped at n <= 10")
    lw = _log_weights(measure, n)
    if chain_kind == "exchange":
        if cardinality is None:
            raise ValueError("exchange matrix needs a cardinality shell")
        states = [m for m in _support(lw) if bin(m).count("1") == cardinality]
    else:
        states = _support(lw)
    if not states:
        raise ValueError("empty state space")
    pos = {m: i for i, m in enumerate(states)}
    P = np.zeros((len(states), len(states)))

    for m in states:
        i = pos[m]
        k = bin(m).count("1")
        inside = [e for e in range(n) if m >> e & 1]
        outside = [e for e in range(n) if not m >> e & 1]
        if chain_kind == "add-delete":
            for e in range(n):
                m2 = m ^ (1 << e)
                acc = min(1.0, _ratio(lw[m2], lw[m]))
                if m2 in pos:
                    P[i, pos[m2]] += 0.5 / n * acc
        elif chain_kind == "exchange":
            if 0 < k < n:
                for s in inside:
                    for t in outside:
                        m2 = m ^ (1 << s) ^ (1 << t)
                        acc = min(1.0, _ratio(lw[m2], lw[m]))
                        if m2 in pos:
                            P[i, pos[m2]] += 0.5 / (k * (n - k)) * acc
        elif chain_kind == "projection":
            # Per-target move probabilities: branch width / choices in branch.
            for t in outside:
                m2 = m | (1 << t)
                acc = min(1.0, _ratio(lw[m2], lw[m]) * (k + 1) / (n - k))
                if m2 in pos:
                    P[i, pos[m2]] += (n - k) / (2.0 * n * n) * acc
            for s in inside:
                for t in outside:
                    m2 = m ^ (1 << s) | (1 << t)
                    acc = min(1.0, _ratio(lw[m2], lw[m]))
                    if m2 in pos:
                        P[i, pos[m2]] += 1.0 / (2.0 * n * n) * acc
            for s in inside:
                m2 = m ^ (1 << s)
                if paper_literal_delete:
                    factor = k / (n - k + 1.0)
                else:
                    factor = (n - k + 1.0) / k
                acc = min(1.0, _ratio(lw[m2], lw[m]) * factor)
                if m2 in pos:
                    P[i, pos[m2]] += k / (2.0 * n * n) * acc
        else:
            raise ValueError(f"unknown chain kind {chain_kind!r}")
        P[i, i] += 1.0 - P[i].sum()
    return TransitionMatrix(n=n, states=states, P=P)


def restrict_distribution(dist: ExactDistribution, states) -> np.ndarray:
    """Probabilities of ``dist`` on a state list, renormalized."""
    p = np.array([dist.probs[m] for m in states])
    total = p.sum()
    if total <= 0:
        raise ValueError("distribution has zero mass on the given states")
    return p / total


def stationarity_check(tm: TransitionMatrix, dist: ExactDistribution) -> float:
    """max_S |(pi P)(S) - pi(S)| on the matrix's state list."""
    pi = restrict_distribution(dist, tm.states)
    return float(np.max(np.abs(pi @ tm.P - pi)))


def detailed_balance_check(tm: TransitionMatrix, dist: ExactDistribution) -> float:
    """max over pairs of |pi_i P_ij - pi_j P_ji|."""
    pi = restrict_distribution(dist, tm.states)
    F = pi[:, None] * tm.P
    return float(np.max(np.abs(F - F.T)))


def lumped_exchange_matrix(base: MeasureOracle, lump_tol=1e-12) -> TransitionMatrix:
    """Exchange chain on the symmetric homogenization, projected onto the base set.

    Builds the Gibbs exchange matrix over all size-N subsets R of the doubled
    ground set with positive homogenized weight, verifies that rows with the
    same projection S = R intersect V produce identical projected rows
    (lumpability, tolerance ``lump_tol`` absolute), and returns the lumped
    matrix over base subsets.
    """
    n = base.n
    if n > 6:
        raise ValueError("lumped exchange matrices capped at n <= 6")
    sh = SymmetricHomogenization(base)
    m2 = 2 * n

    base_lw = _log_weights(base, n)
    base_states = _support(base_lw)
    base_pos = {m: i for i, m in enumerate(base_states)}

    # All size-n subsets of [2n] with positive homogenized weight.
    r_states = []
    for combo in itertools.combinations(range(m2), n):
        mask = 0
        for e in combo:
            mask |= 1 << e
        if np.isfinite(base_lw[mask & ((1 << n) - 1)]):
            r_states.append(mask)
    r_pos = {m: i for i, m in enumerate(r_states)}
    r_lw = np.array([
        sh.log_weight(SubsetState.from_bitmask(m, m2)) for m in r_states
    ])

    P = np.zeros((len(r_states), len(r_states)))
    for m in r_states:
        i = r_pos[m]
        inside = [e for e in range(m2) if m >> e & 1]
        outside = [e for e in range(m2) if not m >> e & 1]
        for s in inside:
            for t in outside:
                mm = m ^ (1 << s) ^ (1 << t)
                j = r_pos.get(mm)
                if j is None:
                    continue
                acc = min(1.0, _ratio(r_lw[j], r_lw[i]))
                P[i, j] += 0.5 / (n * n) * acc
        P[i, i] += 1.0 - P[i].sum()

    # Project each row onto base subsets and verify lumpability.
    proj = np.array([m & ((1 << n) - 1) for m in r_states])
    lumped_rows = np.zeros((len(r_states), len(base_states)))
    for j, pm in enumerate(proj):
        lumped_rows[:, base_pos[pm]] += P[:, j]
    lumped = np.zeros((len(base_states), len(base_states)))
    for bm, bi in base_pos.items():
        members = np.flatnonzero(proj == bm)
        rows = lumped_rows[members]
        spread = float(np.max(np.abs(rows - rows[0]))) if len(rows) > 1 else 0.0
        if spread > lump_tol:
            raise ArithmeticError(
                f"lumpability violated for projection {bm:b}: row spread {spread:.3e}"
            )
        lumped[bi] = rows[0]
    return TransitionMatrix(n=n, states=base_states, P=lumped)


def total_variation(p, q):
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def tv_mixing_time(tm: TransitionMatrix, dist: ExactDistribution, s0_mask,
                   eps, max_steps=10**7):
    """Smallest t with TV(delta_{S0} P^t', pi) <= eps for all t' in [t, 10 t]."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    pi = restrict_distribution(dist, tm.states)
    p = np.zeros(len(tm.states))
    p[tm.index_of(s0_mask)] = 1.0
    tvs = [total_variation(p, pi)]
    first = 0 if tvs[0] <= eps else None
    t = 0
    while True:
        if first is not None and t >= 10 * max(first, 1):
            break
        if t >= max_steps:
            raise ArithmeticError(f"no TV crossing within {max_steps} steps")
        p = p @ tm.P
        t += 1
        tvs.append(total_variation(p, pi))
        if first is None and tvs[-1] <= eps:
            first = t
    # Last t after which TV stays below eps in the examined window.
    tvs = np.array(tvs)
    above = np.flatnonzero(tvs > eps)
    return int(above[-1] + 1) if above.size else 0


def tv_mixing_times_all(tm: TransitionMatrix, dist: ExactDistribution, eps_list,
                        max_steps=10**6):
    """First TV crossing for every start state and each eps, via matrix powers.

    Returns {eps: array of crossing times indexed like tm.states}. The chains
    here are lazy (hence have nonnegative spectrum), so TV is monotone and the
    first crossing is the mixing time.
    """
    pi = restrict_distribution(dist, tm.states)
    M = np.eye(len(tm.states))
    eps_list = sorted(eps_list, reverse=True)
    out = {eps: np.full(len(tm.states), -1, dtype=np.int64) for eps in eps_list}
    t = 0
    while True:
        tv = 0.5 * np.sum(np.abs(M - pi[None, :]), axis=1)
        for eps in eps_list:
            hit = (tv <= eps) & (out[eps] < 0)
            out[eps][hit] = t
        if all((out[eps] >= 0).all() for eps in eps_list):
            return out
        if t >= max_steps:
            raise ArithmeticError(f"no TV crossing within {max_steps} steps")
        M = M @ tm.P
        t += 1


def check_log_submodular(measure: MeasureOracle, n=None):
    """Exhaustive check of log pi(S) + log pi(T) >= log pi(S|T) + log pi(S&T).

    Scans all pairs with positive weights; returns (holds, worst_slack,
    witness) where worst_slack is the minimum of LHS - RHS and witness is a
    minimizing (S_mask, T_mask) pair.
    """
    n = measure.n if n is None else n
    if n > 12:
        raise ValueError("log-submodularity check capped at n <= 12")
    lw = _log_weights(measure, n)
    masks = np.arange(1 << n)
    finite = np.isfinite(lw)
    pos = masks[finite]
    worst = math.inf
    witness = None
    for s in pos:
        unions = s | pos
        inters = s & pos
        with np.errstate(invalid="ignore"):
            slack = (lw[s] + lw[pos]) - (lw[unions] + lw[inters])
        # RHS of -inf means the inequality holds trivially.
        slack = np.where(np.isnan(slack), math.inf, slack)
        j = int(np.argmin(slack))
        if slack[j] < worst:
            worst = float(slack[j])
            witness = (int(s), int(pos[j]))
    holds = worst >= -1e-9
    return holds, worst, witness
