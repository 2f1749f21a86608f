"""Markov chain steppers, the chain runner, and mixing-time bound calculators.

Three lazy chains over subsets: the add-delete Metropolis chain, the Gibbs
exchange chain for homogeneous measures, and the projection chain that mixes
add, delete, and exchange moves with cardinality-dependent branch widths.

The printed form of the projection chain's delete acceptance uses the factor
|S| / (N - |S| + 1); deriving the move from the exchange chain on the
symmetric homogenization gives the reciprocal (N - |S| + 1) / |S|, and only
the latter leaves the target measure stationary (see the exact-verification
tests). The corrected factor is the default; the literal variant stays
available behind ``paper_literal_delete`` for demonstration.

Every step is one Metropolis move: a stepper draws a proposal and its ratio
from the oracle, and :func:`_metropolis` accepts it with probability
min(1, ratio). :func:`run_chain` asks the measure for its per-chain oracle
(``MeasureOracle.chain_oracle``) and hands it every outcome (``apply``), so a
measure with incremental per-chain state, such as an L-ensemble's inverse
cache, keeps it in step without the chain loop knowing which measure it runs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .measures import NEG_INF, MeasureOracle, SubsetState, log_binomial

CHAIN_KINDS = ("add-delete", "exchange", "projection")
INIT_STRATEGIES = ("heaviest-singleton", "random-positive", "explicit-set")


@dataclass(frozen=True)
class ChainSpec:
    kind: str
    steps: int
    burn_in: int = 0
    thin: int = 1
    seed: int = 0
    init: str = "heaviest-singleton"
    init_set: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in CHAIN_KINDS:
            raise ValueError(f"unknown chain kind {self.kind!r}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.burn_in < 0 or self.thin < 1:
            raise ValueError("burn_in must be >= 0 and thin >= 1")
        if self.init not in INIT_STRATEGIES:
            raise ValueError(f"unknown init strategy {self.init!r}")
        if self.init == "explicit-set" and self.init_set is None:
            raise ValueError("explicit-set init requires init_set")


@dataclass(frozen=True)
class MoveOutcome:
    kind: str  # "add" | "delete" | "swap" | "hold"
    s: Optional[int] = None
    t: Optional[int] = None
    accepted: bool = True
    acceptance_prob: float = 1.0


HOLD = MoveOutcome("hold")


@dataclass
class Transcript:
    n: int
    chain_kind: str
    seed: int
    stream: int
    steps: list = field(default_factory=list)
    states: list = field(default_factory=list)  # sorted index tuples
    log_weights: list = field(default_factory=list)
    moves: list = field(default_factory=list)

    def __len__(self):
        return len(self.steps)

    def cardinalities(self):
        return np.fromiter(map(len, self.states), float, len(self.states))

    def indicator(self, i):
        return np.array([1.0 if i in s else 0.0 for s in self.states])


def chain_rng(seed, stream=0):
    """Deterministic per-chain generator derived from (master seed, stream index)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    )


def _metropolis(S: SubsetState, rng, kind, r, s=None, t=None):
    """Accept the proposed move with probability min(1, r): draw u, keep S
    when u >= min(1, r), otherwise apply the move. Returns (state, outcome)."""
    p = min(1.0, r)
    if rng.random() >= p:
        return S, MoveOutcome(kind, s=s, t=t, accepted=False, acceptance_prob=p)
    if kind == "add":
        S = S.with_added(t)
    elif kind == "delete":
        S = S.with_deleted(s)
    else:
        S = S.with_swapped(s, t)
    return S, MoveOutcome(kind, s=s, t=t, accepted=True, acceptance_prob=p)


def step_add_delete(measure: MeasureOracle, S: SubsetState, rng):
    """One lazy add-delete Metropolis step.

    With probability 1/2 hold; otherwise pick t uniformly from the ground set
    and add or delete it with probability min(1, weight ratio).
    """
    if rng.random() >= 0.5:
        return S, HOLD
    t = int(rng.integers(measure.n))
    if S.contains(t):
        return _metropolis(S, rng, "delete", measure.delete_ratio(S, t), s=t)
    return _metropolis(S, rng, "add", measure.add_ratio(S, t), t=t)


def step_exchange(measure: MeasureOracle, S: SubsetState, rng):
    """One lazy Gibbs exchange step: swap uniform s in S with uniform t not in S."""
    n = measure.n
    k = S.cardinality
    if k == 0 or k == n:
        return S, HOLD
    if rng.random() >= 0.5:
        return S, HOLD
    s = int(S.indices()[rng.integers(k)])
    t = int(np.flatnonzero(~S.membership)[rng.integers(n - k)])
    return _metropolis(S, rng, "swap", measure.swap_ratio(S, s, t), s=s, t=t)


def projection_branch_widths(n, k):
    """(add, exchange, delete) branch probabilities at cardinality k."""
    add = (n - k) ** 2 / (2.0 * n * n)
    exch = k * (n - k) / (2.0 * n * n)
    dele = k * k / (2.0 * n * n)
    return add, exch, dele


def step_projection(measure: MeasureOracle, S: SubsetState, rng,
                    paper_literal_delete=False):
    """One step of the projection chain.

    Draw q uniform, then only the elements the chosen branch needs, in the
    fixed order (q, then t, then s). Branch intervals at cardinality k:
    add on [0, (N-k)^2/2N^2), exchange up to (N-k)/2N, delete up to
    (k^2 + N(N-k))/2N^2, hold otherwise.
    """
    n = measure.n
    k = S.cardinality
    q = rng.random()
    n2 = 2.0 * n * n
    if q < (n - k) ** 2 / n2:
        t = int(np.flatnonzero(~S.membership)[rng.integers(n - k)])
        r = measure.add_ratio(S, t) * (k + 1) / (n - k)
        return _metropolis(S, rng, "add", r, t=t)
    if q < (n - k) / (2.0 * n):
        t = int(np.flatnonzero(~S.membership)[rng.integers(n - k)])
        s = int(S.indices()[rng.integers(k)])
        return _metropolis(S, rng, "swap", measure.swap_ratio(S, s, t),
                           s=s, t=t)
    if q < (k * k + n * (n - k)) / n2:
        s = int(S.indices()[rng.integers(k)])
        if paper_literal_delete:
            factor = k / (n - k + 1)
        else:
            factor = (n - k + 1) / k
        return _metropolis(S, rng, "delete",
                           measure.delete_ratio(S, s) * factor, s=s)
    return S, HOLD


def initial_state(measure: MeasureOracle, spec: ChainSpec, rng) -> SubsetState:
    n = measure.n
    if spec.init == "explicit-set":
        S = SubsetState.from_indices(spec.init_set, n)
        if measure.log_weight(S) == NEG_INF:
            raise ValueError("explicit init set has zero weight")
        return S
    if spec.init == "heaviest-singleton":
        lw = measure.singleton_log_weights()
        if not np.any(lw > NEG_INF):
            raise ValueError("no singleton has positive weight; "
                             "use random-positive or explicit-set init")
        return SubsetState.from_indices([int(np.argmax(lw))], n)
    for _ in range(n * n):
        S = SubsetState(rng.random(n) < 0.5)
        if measure.log_weight(S) > NEG_INF:
            return S
    raise ValueError(f"random-positive init failed after {n * n} attempts")


def run_chain(measure: MeasureOracle, spec: ChainSpec, stream=0,
              paper_literal_delete=False) -> Transcript:
    """Run one chain; deterministic given (spec.seed, stream).

    Applies ``burn_in`` steps, then records the state after every ``thin``-th
    of the remaining ``steps`` steps. With steps=0 the transcript holds only
    the post-burn-in initial state.
    """
    rng = chain_rng(spec.seed, stream)
    S = initial_state(measure, spec, rng)
    oracle = measure.chain_oracle(S, stream)
    # Chosen per call from the module globals, so that a stepper replaced at
    # run time (a tracer, a test double) is the one that runs.
    if spec.kind == "add-delete":
        step = step_add_delete
    elif spec.kind == "exchange":
        step = step_exchange
    else:
        step = functools.partial(step_projection,
                                 paper_literal_delete=paper_literal_delete)

    tr = Transcript(n=measure.n, chain_kind=spec.kind, seed=spec.seed,
                    stream=stream)

    def record(step_index, state, outcome):
        tr.steps.append(step_index)
        tr.states.append(tuple(state.indices().tolist()))
        tr.log_weights.append(float(oracle.log_weight(state)))
        tr.moves.append(outcome)

    for _ in range(spec.burn_in):
        S, out = step(oracle, S, rng)
        oracle.apply(out)
    if spec.steps == 0:
        record(0, S, HOLD)
        return tr
    for i in range(1, spec.steps + 1):
        S, out = step(oracle, S, rng)
        oracle.apply(out)
        if i % spec.thin == 0:
            record(i, S, out)
    return tr


def run_chains(measure, spec, n_chains, paper_literal_delete=False):
    """Run n_chains independent chains on per-chain streams of the same seed."""
    return [run_chain(measure, spec, stream=c,
                      paper_literal_delete=paper_literal_delete)
            for c in range(n_chains)]


def theorem_bound(n, s0_cardinality, log_pi_s0, eps):
    """Mixing-time upper bound 2 N^2 (log C(N, |S0|) + log 1/pi(S0) + log 1/eps).

    ``log_pi_s0`` is the log of the normalized probability of the start set.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must be in (0, 1]")
    if not math.isfinite(log_pi_s0):
        raise ValueError("start set must have positive probability")
    return 2.0 * n * n * (log_binomial(n, s0_cardinality) - log_pi_s0
                          + math.log(1.0 / eps))


def exchange_bound(k, m, log_pi_r0, eps):
    """Exchange-chain bound 2 k (M - k) (log 1/pi(R0) + log 1/eps) for a
    k-homogeneous measure on M elements; with M = 2N, k = N the prefactor
    is the same 2 N^2 as :func:`theorem_bound`."""
    if not 0 < k < m:
        raise ValueError("need 0 < k < m")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must be in (0, 1]")
    if not math.isfinite(log_pi_r0):
        raise ValueError("start set must have positive probability")
    return 2.0 * k * (m - k) * (-log_pi_r0 + math.log(1.0 / eps))
