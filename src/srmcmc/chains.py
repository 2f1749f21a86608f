"""Markov chain steppers, the chain runner, and the mixing-time bound.

Three lazy chains over subsets: the add-delete Metropolis chain, the Gibbs
exchange chain for homogeneous measures, and the projection chain that mixes
add, delete, and exchange moves with cardinality-dependent branch widths.

The printed form of the projection chain's delete acceptance uses the factor
|S| / (N - |S| + 1); deriving the move from the exchange chain on the
symmetric homogenization gives the reciprocal (N - |S| + 1) / |S|, and only
the latter leaves the target measure stationary, so the chain uses it. The
literal factor is kept only in the exact oracle, as a demonstration: the
literal-delete flag of ``exact.transition_matrix`` builds its matrix, and
``srmcmc check --paper-literal-delete`` shows that it is not stationary.

Every step is one Metropolis move: a stepper draws a proposal and its ratio
from the oracle, and :func:`_metropolis` accepts it with probability
min(1, ratio). :func:`run_chain` keeps one mutable
:class:`~srmcmc.measures.ChainState`, so a proposal reads its j-th member or
non-member from a sorted list in O(1) and an accepted move changes that
state in place. It runs on the measure's per-chain oracle
(``MeasureOracle.chain_oracle``), which applies each accepted move
(``move``), so a measure with incremental per-chain state, such as an
L-ensemble's inverse cache, keeps it in step without the chain loop knowing
which measure it runs. A step's outcome is a shared :class:`MoveOutcome`.
Past its start state, a chain draws raw PCG64 words, bit for bit (`_Stream`).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .measures import (NEG_INF, ChainState, MeasureOracle, SubsetState,
                       log_binomial)

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
        if 0 < self.steps < self.thin:
            raise ValueError(f"steps {self.steps} below thin {self.thin}: "
                             "no draw would be retained")
        if self.init not in INIT_STRATEGIES:
            raise ValueError(f"unknown init strategy {self.init!r}")
        if (self.init == "explicit-set") != (self.init_set is not None):
            raise ValueError("explicit-set init and init_set go together")


@dataclass(frozen=True)
class MoveOutcome:
    kind: str  # "add" | "delete" | "swap" | "hold"
    accepted: bool = True


HOLD = MoveOutcome("hold")
ACCEPTED = {kind: MoveOutcome(kind) for kind in ("add", "delete", "swap")}
REJECTED = {kind: MoveOutcome(kind, False) for kind in ACCEPTED}


@dataclass
class Transcript:
    n: int
    steps: list = field(default_factory=list)
    states: list = field(default_factory=list)  # sorted index tuples
    log_weights: list = field(default_factory=list)
    moves: list = field(default_factory=list)

    def __len__(self):
        return len(self.steps)

    def cardinalities(self):
        return np.fromiter(map(len, self.states), float, len(self.states))

    def indicator(self, i):
        runs, lengths = state_runs(self.states)
        hits = np.fromiter((i in s for s in runs), float, len(runs))
        return np.repeat(hits, lengths)


def state_runs(states):
    """(the first tuple of each run, the run lengths) for a list of recorded
    tuples, where a run is a stretch of one repeated tuple object: a hold or
    a rejection repeats the tuple before it."""
    new = [s is not p for s, p in zip(states, [None, *states[:-1]])]
    lengths = np.diff(np.flatnonzero(new), append=len(new))
    return list(itertools.compress(states, new)), lengths


def chain_rng(seed, stream=0):
    """Deterministic per-chain generator derived from (master seed, stream index)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    )


class _Stream:
    """A PCG64 ``Generator``'s ``random()``, (w >> 11) * 2**-53, and
    ``integers(k)``, numpy's Lemire rejection on 32-bit halves of words (low
    half first; k = 1 draws nothing), bit for bit, from an endless iterator
    of raw-word blocks. It reads ahead, so the generator is not used after."""

    def __init__(self, rng):
        state = rng.bit_generator.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        words = iter(lambda: rng.bit_generator.random_raw(1024).tolist(), None)
        self._word = itertools.chain.from_iterable(words).__next__

    def random(self):
        return (self._word() >> 11) * 2.0 ** -53

    def integers(self, k):
        if not 1 <= k <= 1 << 32:
            raise ValueError(f"integers({k}) outside [1, 2**32]")
        threshold = ((1 << 32) - k) % k
        while k > 1:
            x, self._half = self._half, None
            if x is None:
                w = self._word()
                x, self._half = w & 0xFFFFFFFF, w >> 32
            m = x * k
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32
        return 0


def _metropolis(oracle: MeasureOracle, S: ChainState, rng, kind, r,
                s=None, t=None):
    """Accept the proposed move with probability min(1, r): draw u, keep S
    when u >= min(1, r), otherwise have the oracle apply the move. Returns
    (state, outcome)."""
    if rng.random() >= min(1.0, r):
        return S, REJECTED[kind]
    return oracle.move(S, kind, s, t), ACCEPTED[kind]


def step_add_delete(measure: MeasureOracle, S: ChainState, rng):
    """One lazy add-delete Metropolis step.

    With probability 1/2 hold; otherwise pick t uniformly from the ground set
    and add or delete it with probability min(1, weight ratio).
    """
    if rng.random() >= 0.5:
        return S, HOLD
    t = int(rng.integers(measure.n))
    if S.contains(t):
        return _metropolis(measure, S, rng, "delete",
                           measure.delete_ratio(S, t), s=t)
    return _metropolis(measure, S, rng, "add", measure.add_ratio(S, t), t=t)


def step_exchange(measure: MeasureOracle, S: ChainState, rng):
    """One lazy Gibbs exchange step: swap uniform s in S with uniform t not in S."""
    n = measure.n
    k = S.cardinality
    if k == 0 or k == n or rng.random() >= 0.5:
        return S, HOLD
    s = S.members[rng.integers(k)]
    t = S.others[rng.integers(n - k)]
    return _metropolis(measure, S, rng, "swap", measure.swap_ratio(S, s, t),
                       s=s, t=t)


def step_projection(measure: MeasureOracle, S: ChainState, rng):
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
        t = S.others[rng.integers(n - k)]
        r = measure.add_ratio(S, t) * (k + 1) / (n - k)
        return _metropolis(measure, S, rng, "add", r, t=t)
    if q < (n - k) / (2.0 * n):
        t = S.others[rng.integers(n - k)]
        s = S.members[rng.integers(k)]
        return _metropolis(measure, S, rng, "swap",
                           measure.swap_ratio(S, s, t), s=s, t=t)
    if q < (k * k + n * (n - k)) / n2:
        s = S.members[rng.integers(k)]
        return _metropolis(measure, S, rng, "delete",
                           measure.delete_ratio(S, s) * ((n - k + 1) / k),
                           s=s)
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


def run_chain(measure: MeasureOracle, spec: ChainSpec, stream=0) -> Transcript:
    """Run one chain; deterministic given (spec.seed, stream).

    Applies ``burn_in`` steps, then records the state after every ``thin``-th
    of the remaining ``steps`` steps. With steps=0 the transcript holds only
    the post-burn-in initial state. Draws after ``initial_state`` come from
    the chain's raw PCG64 words, bit for bit. The chain keeps one
    :class:`ChainState`, built from the start state, which every accepted
    move changes in place; a retained draw with no accepted move since the
    previous one (the chain held or rejected) reuses that record's index
    tuple and log weight. An ``ArithmeticError`` from the oracle (a flagged
    DPP cache) is raised again with the stream named.
    """
    rng = chain_rng(spec.seed, stream)
    S = ChainState(initial_state(measure, spec, rng).membership)
    rng = _Stream(rng)
    # Chosen per call from the module globals, so that a stepper replaced at
    # run time (a tracer, a test double) is the one that runs.
    step = {"add-delete": step_add_delete, "exchange": step_exchange,
            "projection": step_projection}[spec.kind]
    tr = Transcript(n=measure.n)
    last = [-1, None, None]  # accepted moves at the last record, tuple, weight

    def record(step_index, outcome):
        if S.accepted_moves != last[0]:
            last[:] = (S.accepted_moves, tuple(S.members),
                       float(oracle.log_weight(S)))
        tr.steps.append(step_index)
        tr.states.append(last[1])
        tr.log_weights.append(last[2])
        tr.moves.append(outcome)

    try:
        oracle = measure.chain_oracle(S)
        for _ in range(spec.burn_in):
            step(oracle, S, rng)
        if spec.steps == 0:
            record(0, HOLD)
        for i in range(1, spec.steps + 1):
            out = step(oracle, S, rng)[1]
            if i % spec.thin == 0:
                record(i, out)
    except ArithmeticError as e:
        raise ArithmeticError(f"stream {stream}: {e}") from e
    return tr


def run_chains(measure, spec, n_chains):
    """Run n_chains independent chains on per-chain streams of the same seed."""
    return [run_chain(measure, spec, stream=c) for c in range(n_chains)]


def theorem_bound(n, s0_cardinality, log_pi_s0, eps):
    """Mixing-time upper bound 2 N^2 (log C(N, |S0|) + log 1/pi(S0) + log 1/eps).

    It is the exchange-chain bound on the symmetric homogenization, started
    at the lift of S0. ``log_pi_s0`` is the log of the normalized probability
    of the start set.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must be in (0, 1]")
    if not math.isfinite(log_pi_s0):
        raise ValueError("start set must have positive probability")
    if log_pi_s0 > 0.0:
        raise ValueError(f"log pi(S0) = {log_pi_s0} is above 0: not the log "
                         "of a probability")
    return 2.0 * n * n * (log_binomial(n, s0_cardinality) - log_pi_s0
                          + math.log(1.0 / eps))
