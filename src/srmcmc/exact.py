"""Brute-force oracles for small ground sets.

Everything here enumerates subsets in one loop, ``_log_weights``, with one
``log_weight`` call per subset (for the symmetric homogenization, per subset
of its size-N shell, the only one with weight). It never reuses the chains'
ratio fast paths or any batched determinant path of a measure, so these
functions serve as independent checks of stationarity, detailed balance,
the exchange-chain lumping argument and total-variation mixing times. Only the
bookkeeping around those calls is vectorized. Each enumeration builds one
membership table, one ``unpackbits`` over the mask words, and passes row m
to ``log_weight`` as the state of mask m. Bitmask states, marginal sums and
one Metropolis builder turn each chain's table of XOR moves into its matrix.
The lumped matrix is the homogenization's exchange matrix, built the same
way and summed over projections. TV mixing times are first crossings, found
for every start at once by repeated squaring of the matrix and bisection
over its powers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import (NEG_INF, MeasureOracle, SubsetState,
                       SymmetricHomogenization)

MAX_ENUM_N = 20
MAX_MIX_STEPS = 2**20


@dataclass
class ExactDistribution:
    """Normalized probabilities over all 2^n subsets, indexed by bitmask."""
    n: int
    probs: np.ndarray
    log_z: float

    def log_prob(self, mask):
        p = self.probs[mask]
        return math.log(p) if p > 0 else NEG_INF


@dataclass
class TransitionMatrix:
    """Row-stochastic one-step matrix over an explicit list of state bitmasks."""
    n: int
    states: list
    P: np.ndarray


def _log_weights(measure: MeasureOracle, n, shell=None):
    """Log weight of every subset by bitmask, one ``log_weight`` call each;
    with ``shell``, only the subsets of that size, and -inf elsewhere."""
    # Row m of the membership table holds the bits of m, one byte per bit.
    words = np.arange(1 << n, dtype="<u4").view(np.uint8).reshape(-1, 4)
    table = np.unpackbits(words, axis=1, count=n, bitorder="little").view(bool)
    masks = range(1 << n) if shell is None else \
        np.flatnonzero(np.count_nonzero(table, axis=1) == shell).tolist()
    lw = np.full(1 << n, NEG_INF)
    for mask in masks:
        lw[mask] = measure.log_weight(SubsetState(table[mask]))
    return lw


def enumerate_distribution(measure: MeasureOracle) -> ExactDistribution:
    """Exact normalized distribution by full enumeration; n <= 20."""
    n = measure.n
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


def _metropolis_matrix(states, lw, moves):
    """Metropolis matrix over the bitmask array ``states``.

    ``lw`` holds the log weights of every bitmask. Each move is
    ``(xor_mask, valid_from, width, factor)``: from every state m where
    ``valid_from`` holds, the move proposes m ^ xor_mask with probability
    ``width`` and accepts it with probability min(1, factor pi(m ^ xor) / pi(m)).
    ``valid_from``, ``width`` and ``factor`` are scalars or arrays over
    ``states``. Targets outside ``states`` are dropped, and the rest of each
    row goes to the diagonal.
    """
    index = np.full(lw.shape[0], -1)
    index[states] = np.arange(states.size)
    rows = np.arange(states.size)
    P = np.zeros((states.size, states.size))
    for xor, valid_from, width, factor in moves:
        target = states ^ xor
        j = index[target]
        ok = (j >= 0) & valid_from
        with np.errstate(over="ignore"):
            acc = np.minimum(1.0, factor * np.exp(lw[target] - lw[states]))
        P[rows[ok], j[ok]] += (width * acc)[ok]
    P[rows, rows] += 1.0 - P.sum(axis=1)
    return P


def _states(lw, n, k=None):
    """Positive-weight bitmasks, on the k-shell when k is given, and their
    (states, n) table of 0/1 bits."""
    states = np.flatnonzero(np.isfinite(lw))
    bits = (states[:, None] >> np.arange(n)) & 1
    if k is not None:
        shell = bits.sum(axis=1) == k
        states, bits = states[shell], bits[shell]
    if not states.size:
        raise ValueError("empty state space")
    return states, bits


def _pair_flips(bits, width):
    """Swap moves: flip s and t together from every state holding one of them."""
    n = bits.shape[1]
    return (((1 << s) | (1 << t), bits[:, s] != bits[:, t], width, 1.0)
            for s in range(n) for t in range(s + 1, n))


def _exchange_moves(bits, k):
    """Exchange-chain moves on the k-shell: each swap at width 1/2k(N-k)."""
    n = bits.shape[1]
    return _pair_flips(bits, 0.5 / (k * (n - k))) if 0 < k < n else ()


def _projection_moves(bits, paper_literal_delete):
    """Projection-chain moves; each width is branch width / choices in branch.

    Flipping e adds it at width (N-k)/2N^2 with factor (k+1)/(N-k), or
    deletes it at width k/2N^2 with the delete factor; swaps have width 1/2N^2.
    """
    n = bits.shape[1]
    k = bits.sum(axis=1)
    n2 = 2.0 * n * n
    with np.errstate(divide="ignore"):
        add = (k + 1) / (n - k)
        delete = k / (n - k + 1.0) if paper_literal_delete \
            else (n - k + 1.0) / k
    for e in range(n):
        inside = bits[:, e] == 1
        yield (1 << e, True, np.where(inside, k, n - k) / n2,
               np.where(inside, delete, add))
    yield from _pair_flips(bits, 1.0 / n2)


def transition_matrix(measure: MeasureOracle, chain_kind, cardinality=None,
                      paper_literal_delete=False) -> TransitionMatrix:
    """Exact one-step transition matrix of a chain, rows over positive-weight states.

    For the exchange chain, ``cardinality`` selects the shell the chain lives
    on; the other chains use the full positive-weight support. Rejected and
    lazy mass lands on the diagonal.
    """
    n = measure.n
    if not 1 <= n <= 10:
        raise ValueError("exact transition matrices need a nonempty ground "
                         f"set of at most 10 elements, got n = {n}")
    if chain_kind not in ("add-delete", "exchange", "projection"):
        raise ValueError(f"unknown chain kind {chain_kind!r}")
    if chain_kind == "exchange" and cardinality is None:
        raise ValueError("exchange matrix needs a cardinality shell")
    lw = _log_weights(measure, n)
    states, bits = _states(lw, n, cardinality if chain_kind == "exchange"
                           else None)
    if chain_kind == "add-delete":
        moves = ((1 << e, True, 0.5 / n, 1.0) for e in range(n))
    elif chain_kind == "exchange":
        moves = _exchange_moves(bits, cardinality)
    else:
        moves = _projection_moves(bits, paper_literal_delete)
    return TransitionMatrix(n=n, states=states.tolist(),
                            P=_metropolis_matrix(states, lw, moves))


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

    Builds the Gibbs exchange matrix of ``SymmetricHomogenization(base)`` on
    its size-N shell (the subsets R of the doubled ground set with positive
    weight), verifies that rows with the same projection S = R intersect V
    produce identical projected rows (lumpability, tolerance ``lump_tol``
    absolute), and returns the lumped matrix over base subsets.
    """
    n = base.n
    if n > 6:
        raise ValueError("lumped exchange matrices capped at n <= 6")
    # The homogenization is zero off its size-N shell, so only the shell is
    # enumerated.
    lw = _log_weights(SymmetricHomogenization(base), 2 * n, shell=n)
    r_states, bits = _states(lw, 2 * n, n)

    # Sum each exchange row over the R with the same projection S, then
    # check that all R projecting to S give the same lumped row.
    proj = r_states & ((1 << n) - 1)
    base_states, first, col = np.unique(proj, return_index=True,
                                        return_inverse=True)
    lumped_rows = np.zeros((r_states.size, base_states.size))
    np.add.at(lumped_rows, (slice(None), col),
              _metropolis_matrix(r_states, lw, _exchange_moves(bits, n)))
    spread = np.max(np.abs(lumped_rows - lumped_rows[first[col]]), axis=1)
    worst = int(np.argmax(spread))
    if spread[worst] > lump_tol:
        raise ArithmeticError(
            f"lumpability violated for projection {proj[worst]:b}: "
            f"row spread {spread[worst]:.3e}"
        )
    return TransitionMatrix(n=n, states=base_states.tolist(),
                            P=lumped_rows[first])


def tv_mixing_times_all(tm: TransitionMatrix, dist: ExactDistribution,
                        eps_list):
    """First TV crossing for every start state and each eps.

    Returns {eps: int64 array of crossing times indexed like tm.states}; each
    eps must lie in (0, 1]. Because pi P = pi and a stochastic matrix
    contracts total variation, TV(delta_S P^t, pi) never rises with t, so the
    first crossing is the mixing time and can be found by bisection: square P
    until every row of P^(2^J) is within the smallest eps, then walk the bits
    of each crossing from the top down. Raises ArithmeticError if a crossing
    would need more than MAX_MIX_STEPS steps.
    """
    if any(not 0.0 < eps <= 1.0 for eps in eps_list):
        raise ValueError("eps must be in (0, 1]")
    if not eps_list:
        return {}
    pi = restrict_distribution(dist, tm.states)

    def tv(M):
        return 0.5 * np.sum(np.abs(M - pi[None, :]), axis=1)

    powers = [tm.P]
    while tv(powers[-1]).max() > min(eps_list):
        if 1 << len(powers) > MAX_MIX_STEPS:
            raise ArithmeticError(
                f"no TV crossing within {MAX_MIX_STEPS} steps")
        powers.append(powers[-1] @ powers[-1])
    start_tv = tv(np.eye(len(tm.states)))
    out = {}
    for eps in eps_list:
        # Largest t < 2^(J-1) with TV above eps, one bit at a time; the top
        # power is within every eps by construction.
        M = np.eye(len(tm.states))
        t = np.zeros(len(tm.states), dtype=np.int64)
        for j in range(len(powers) - 2, -1, -1):
            step = M @ powers[j]
            above = tv(step) > eps
            M[above] = step[above]
            t[above] += 1 << j
        out[eps] = np.where(start_tv <= eps, 0, t + 1)
    return out


def check_log_submodular(measure: MeasureOracle):
    """Exhaustive check of log pi(S) + log pi(T) >= log pi(S|T) + log pi(S&T).

    Scans all pairs with positive weights; returns (holds, worst_slack,
    witness) where worst_slack is the minimum of LHS - RHS and witness is a
    minimizing (S_mask, T_mask) pair.
    """
    n = measure.n
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
