import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from srmcmc import (CardinalityConditionedMeasure, ChainSpec, LEnsemble,
                    ProductMeasure, SubsetState, TableMeasure, chain_rng,
                    chains, run_chain, step_add_delete, step_exchange,
                    step_projection, theorem_bound)
from srmcmc.chains import initial_state
from srmcmc.dpp import (CholeskyCache, dpp_log_weight, rbf_kernel,
                        spectrum_step_kernel)
from srmcmc.measures import (NEG_INF, REBUILD_INTERVAL, ChainState,
                             MeasureOracle)

from conftest import product_fixture, random_psd_fixture, uniform_table


def S(indices, n):
    return SubsetState.from_indices(indices, n)


class TestAddDeleteStep:
    def test_uniform_measure_neighbor_rates(self, rng):
        # All proposals accept, so each Hamming-1 neighbor is hit at 1/(2N).
        m = uniform_table(3)
        st = S([0], 3)
        reps = 60_000
        hits = Counter()
        for _ in range(reps):
            new, out = step_add_delete(m, ChainState(st.membership), rng)
            if out.kind != "hold":
                assert out.accepted
            hits[new.bitmask()] += 1
        for neighbor in (0b000, 0b011, 0b101):
            p = hits[neighbor] / reps
            se = math.sqrt((1 / 6) * (5 / 6) / reps)
            assert abs(p - 1 / 6) < 4 * se

    def test_diag_dpp_add_always_accepted_from_empty(self, rng,
                                                     metropolis_calls):
        m = LEnsemble(np.diag([2.0, 3.0]))
        st = S([], 2)
        for _ in range(200):
            _, out = step_add_delete(m, ChainState(st.membership), rng)
            if out.kind == "add":
                assert metropolis_calls[-1][:2] == ("add", 1.0)
                assert out.accepted

    def test_zero_weight_target_never_accepted(self, rng, metropolis_calls):
        m = CardinalityConditionedMeasure(ProductMeasure([0.5] * 3), 1)
        st = S([1], 3)
        for _ in range(300):
            new, out = step_add_delete(m, ChainState(st.membership), rng)
            if out.kind != "hold":
                assert metropolis_calls[-1][:2] == (out.kind, 0.0)
                assert not out.accepted
            assert new == st


class TestExchangeStep:
    def test_conditioned_uniform_swap_probability(self, rng):
        m = CardinalityConditionedMeasure(ProductMeasure([0.5, 0.5]), 1)
        st = S([0], 2)
        reps = 40_000
        moved = sum(step_exchange(m, ChainState(st.membership), rng)[0]
                    == S([1], 2) for _ in range(reps))
        p = moved / reps
        se = math.sqrt(0.25 / reps)
        assert abs(p - 0.5) < 4 * se

    def test_cardinality_invariant_along_trajectory(self, rng):
        m = CardinalityConditionedMeasure(ProductMeasure([0.3, 0.8, 0.5, 0.6]), 2)
        st = ChainState(S([0, 1], 4).membership)
        for _ in range(500):
            st, _ = step_exchange(m, st, rng)
            assert st.cardinality == 2

    def test_swap_to_zero_weight_rejected(self, rng, metropolis_calls):
        # masks 0b00, 0b01, 0b10, 0b11: only {0} has positive weight
        m = TableMeasure([0.0, 1.0, 0.0, 0.0])
        st = S([0], 2)
        for _ in range(100):
            new, out = step_exchange(m, ChainState(st.membership), rng)
            if out.kind == "swap":
                assert metropolis_calls[-1][:2] == ("swap", 0.0)
                assert not out.accepted
            assert new == st

    def test_full_or_empty_set_forced_hold(self, rng):
        m = uniform_table(2)
        for st in (S([], 2), S([0, 1], 2)):
            new, out = step_exchange(m, ChainState(st.membership), rng)
            assert out.kind == "hold" and new == st


class TestProjectionStep:
    @pytest.mark.slow
    def test_branch_frequencies_match_interval_widths(self, rng):
        # N=4, |S|=1: add 9/32, exchange 3/32, delete 1/32, hold 19/32.
        m = uniform_table(4)
        st = S([2], 4)
        reps = 1_000_000
        counts = Counter(
            step_projection(m, ChainState(st.membership), rng)[1].kind
            for _ in range(reps))
        widths = {"add": 9 / 32, "swap": 3 / 32, "delete": 1 / 32,
                  "hold": 19 / 32}
        for kind, w in widths.items():
            se = math.sqrt(w * (1 - w) / reps)
            assert abs(counts[kind] / reps - w) < 4 * se, kind

    def test_single_element_uniform_transition(self, rng):
        # Uniform base on one element: P(empty -> {0}) = 1/2.
        m = TableMeasure([0.5, 0.5])
        reps = 50_000
        moved = sum(step_projection(m, ChainState([False]), rng)[0].cardinality
                    for _ in range(reps))
        se = math.sqrt(0.25 / reps)
        assert abs(moved / reps - 0.5) < 4 * se

    def test_corrected_delete_factor_hand_case(self, rng, metropolis_calls):
        # diag(2,3): delete from {0} accepts with min{1, (1/2) * 2} = 1.
        m = LEnsemble(np.diag([2.0, 3.0]))
        st = S([0], 2)
        for _ in range(400):
            _, out = step_projection(m, ChainState(st.membership), rng)
            if out.kind == "delete":
                kind, p, _, _ = metropolis_calls[-1]
                assert kind == "delete" and p == pytest.approx(1.0)
                assert out.accepted


class TestRunChain:
    def test_zero_steps_records_initial_state(self):
        m = ProductMeasure([0.3, 0.8])
        spec = ChainSpec("add-delete", steps=0, seed=1)
        tr = run_chain(m, spec)
        assert len(tr) == 1 and tr.steps == [0]

    def test_same_seed_identical_transcripts(self):
        m = ProductMeasure([0.3, 0.8, 0.5, 0.6])
        spec = ChainSpec("projection", steps=2000, seed=99,
                         init="random-positive")
        t1, t2 = run_chain(m, spec), run_chain(m, spec)
        assert t1.states == t2.states
        assert t1.log_weights == t2.log_weights
        assert [m1.kind for m1 in t1.moves] == [m2.kind for m2 in t2.moves]

    def test_different_streams_differ(self):
        m = ProductMeasure([0.3, 0.8, 0.5, 0.6])
        spec = ChainSpec("projection", steps=2000, seed=99,
                         init="random-positive")
        assert run_chain(m, spec, stream=0).states != \
            run_chain(m, spec, stream=1).states

    @pytest.mark.parametrize("seed", [17, 18])
    def test_product_marginals_recovered(self, seed):
        n = 16
        q = np.array([0.3, 0.8, 0.5, 0.6] * 4)
        m = ProductMeasure(q)
        steps = 100_000
        spec = ChainSpec("add-delete", steps=steps, seed=seed,
                         init="random-positive")
        tr = run_chain(m, spec)
        counts = np.zeros(n)
        for state in tr.states:
            for i in state:
                counts[i] += 1
        est = counts / len(tr)
        # Effective samples: each element refreshes when proposed and
        # accepted, at rate >= (1/2n) min(q, 1-q), so tau <= 2n / min(q,1-q).
        tau = 2 * n / np.minimum(q, 1 - q)
        n_eff = steps / (2 * tau)
        se = np.sqrt(q * (1 - q) / n_eff)
        assert np.all(np.abs(est - q) < 3 * se)

    def test_thin_and_burn_in(self):
        m = ProductMeasure([0.3, 0.8])
        spec = ChainSpec("projection", steps=100, burn_in=50, thin=10, seed=4)
        tr = run_chain(m, spec)
        assert len(tr) == 10
        assert tr.steps == list(range(10, 101, 10))

    @pytest.mark.parametrize("steps, thin", [(5, 10), (1, 2)])
    def test_spec_refuses_steps_below_thin(self, steps, thin):
        with pytest.raises(ValueError, match="no draw would be retained"):
            ChainSpec("projection", steps=steps, thin=thin)

    @pytest.mark.parametrize("fields, word", [
        ({"kind": "gibbs"}, "unknown chain kind"),
        ({"steps": -1}, "steps must be >= 0"),
        ({"burn_in": -1}, "burn_in must be >= 0"),
        ({"thin": 0}, "thin >= 1"),
        ({"init": "empty"}, "unknown init strategy"),
    ], ids=["kind", "steps", "burn-in", "thin", "init"])
    def test_spec_refusals(self, fields, word):
        with pytest.raises(ValueError, match=word):
            ChainSpec(**{"kind": "projection", "steps": 10, **fields})

    def test_spec_keeps_steps_0_and_steps_equal_to_thin(self):
        m = ProductMeasure([0.5] * 3)
        for steps, records in ((0, 1), (10, 1), (25, 2)):
            assert len(run_chain(m, ChainSpec("projection", steps=steps,
                                              thin=10))) == records

    def test_init_errors(self):
        m = CardinalityConditionedMeasure(ProductMeasure([0.5] * 4), 2)
        with pytest.raises(ValueError):
            # no singleton has positive weight on the k=2 shell
            run_chain(m, ChainSpec("exchange", steps=1, seed=0))
        with pytest.raises(ValueError):
            run_chain(m, ChainSpec("exchange", steps=1, seed=0,
                                   init="explicit-set", init_set=(0,)))
        # random-positive works
        tr = run_chain(m, ChainSpec("exchange", steps=10, seed=0,
                                    init="random-positive"))
        assert all(len(s) == 2 for s in tr.states)

    @pytest.mark.parametrize("init,init_set", [
        ("explicit-set", None), ("heaviest-singleton", (0, 2)),
        ("random-positive", ()),
    ])
    def test_init_set_only_with_explicit_set(self, init, init_set):
        # An init_set beside another init would be silently ignored.
        with pytest.raises(ValueError, match="init_set"):
            ChainSpec("add-delete", steps=0, init=init, init_set=init_set)

    def test_heaviest_singleton_picks_argmax(self):
        m = ProductMeasure([0.3, 0.8, 0.5])
        st = initial_state(m, ChainSpec("add-delete", steps=1, seed=0),
                           chain_rng(0))
        assert list(st.indices()) == [1]


class _PlainOracle(MeasureOracle):
    """An L-ensemble's log weight behind the generic two-evaluation ratios."""

    def __init__(self, measure):
        self.measure = measure
        self.n = measure.n

    def log_weight(self, S):
        return self.measure.log_weight(S)


class TestCachedDppPath:
    @pytest.mark.parametrize("kind", ["add-delete", "projection"])
    def test_cache_matches_generic_ratios(self, kind):
        m = random_psd_fixture(12)
        spec = ChainSpec(kind, steps=5000, thin=5, seed=31,
                         init="random-positive")
        cached = run_chain(m, spec)
        generic = run_chain(_PlainOracle(m), spec)
        assert cached.states == generic.states
        assert len({len(s) for s in cached.states}) > 3
        np.testing.assert_allclose(cached.log_weights, generic.log_weights,
                                   rtol=1e-9)

    def test_flagged_cache_raises_naming_stream(self, singular_add_kernel):
        m = LEnsemble(singular_add_kernel)
        with pytest.raises(ArithmeticError, match="stream 3"):
            run_chain(m, ChainSpec("add-delete", steps=1000, seed=0),
                      stream=3)

    @pytest.mark.parametrize("seed", [31, 32, 33])
    @pytest.mark.parametrize("kind", ["exchange", "projection"])
    def test_kdpp_cache_matches_generic_ratios(self, kind, seed):
        # The k-DPP's swaps run on its base's cache; the plain base answers
        # them with two log-determinants.
        m = random_psd_fixture(12)
        spec = ChainSpec(kind, steps=5000, thin=5, seed=seed,
                         init="random-positive")
        cached = run_chain(CardinalityConditionedMeasure(m, 5), spec)
        generic = run_chain(CardinalityConditionedMeasure(_PlainOracle(m), 5),
                            spec)
        assert cached.states == generic.states
        assert cached.moves == generic.moves
        np.testing.assert_allclose(cached.log_weights, generic.log_weights,
                                   rtol=1e-9)
        assert len(set(cached.states)) > 20
        assert {(o.kind, o.accepted) for o in cached.moves} >= {
            ("swap", True), ("swap", False)}

    @pytest.mark.parametrize("kind", ["exchange", "projection"])
    def test_kdpp_weights_across_a_rebuild(self, kind):
        # The k-DPP records the cache's running log det. An accepted swap is
        # one cache update, so more than REBUILD_INTERVAL accepted swaps pass
        # at least one rebuild.
        m = random_psd_fixture(12)
        tr = run_chain(CardinalityConditionedMeasure(m, 5),
                       ChainSpec(kind, steps=10_000, seed=5,
                                 init="random-positive"))
        swaps = sum(o == chains.ACCEPTED["swap"] for o in tr.moves)
        assert swaps > REBUILD_INTERVAL
        for state, lw in zip(tr.states, tr.log_weights):
            ref = dpp_log_weight(m.L, S(state, m.n))
            assert lw == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_kdpp_swap_into_zero_row_raises_naming_stream(self,
                                                          monkeypatch):
        # Element 3 has a zero row, so L_{S-s+3} is singular; the swap ratio
        # into 3 is forced to 1, so the chain accepts that swap.
        original = CholeskyCache.swap_ratio
        monkeypatch.setattr(CholeskyCache, "swap_ratio",
                            lambda self, s, t: 1.0 if t == 3
                            else original(self, s, t))
        m = CardinalityConditionedMeasure(
            LEnsemble(np.diag([1.0, 2.0, 3.0, 0.0])), 2)
        with pytest.raises(ArithmeticError,
                           match="stream 2: DPP cache flagged"):
            run_chain(m, ChainSpec("exchange", steps=1000, seed=0,
                                   init="random-positive"), stream=2)


RECORDED_MEASURES = {
    "product": product_fixture,
    "l-ensemble": random_psd_fixture,
    "k-dpp": lambda n: CardinalityConditionedMeasure(random_psd_fixture(n),
                                                     n // 2 - 1),
}


class TestRecording:
    """``run_chain`` computes a retained state's tuple and log weight once
    per run of retained draws with no accepted move between them, each time
    on the chain's state after the last of those moves."""

    @staticmethod
    def _snapshot(state):
        return state.accepted_moves, tuple(np.flatnonzero(state.membership))

    @classmethod
    def _spy(cls, monkeypatch, measure):
        """Wrap the per-chain oracle's ``log_weight`` with a counter, and keep
        a snapshot (accepted moves, members) of the chain's state at the
        start and after every step, in order."""
        calls, states = [], []
        make = measure.chain_oracle

        def chain_oracle(S):
            states.append(cls._snapshot(S))
            oracle = make(S)
            weigh = oracle.log_weight

            def counted(state):
                calls.append(cls._snapshot(state))
                return weigh(state)

            oracle.log_weight = counted
            return oracle

        measure.chain_oracle = chain_oracle

        def keep(function):
            def spy(*args):
                out = function(*args)
                states.append(cls._snapshot(out[0]))
                return out
            return spy

        for name in ("step_add_delete", "step_exchange", "step_projection"):
            monkeypatch.setattr(chains, name, keep(getattr(chains, name)))
        return calls, states

    @pytest.mark.parametrize("name, kind, thin, burn_in, steps", [
        ("product", "add-delete", 1, 0, 3000),
        ("product", "add-delete", 1, 200, 3000),
        ("product", "add-delete", 1, 200, 0),
        ("l-ensemble", "add-delete", 1, 0, 3000),
        ("l-ensemble", "projection", 1, 100, 3000),
        ("l-ensemble", "projection", 3, 0, 3000),
        ("l-ensemble", "projection", 1, 100, 0),
        ("k-dpp", "exchange", 1, 0, 3000),
    ])
    def test_one_weight_per_state_object(self, monkeypatch, name, kind, thin,
                                         burn_in, steps):
        measure = RECORDED_MEASURES[name](12)
        # The product's weights are a running sum of log-odds, the
        # L-ensemble's and the k-DPP's the running log det of the cache.
        rtol = 1e-12 if name == "product" else 1e-9
        calls, states = self._spy(monkeypatch, measure)
        spec = ChainSpec(kind, steps=steps, burn_in=burn_in, thin=thin,
                         seed=7, init="random-positive")
        tr = run_chain(measure, spec)
        # states[0] is the start and states[j] the state after step j, so the
        # draw recorded at post-burn-in step i is states[burn_in + i].
        retained = [states[burn_in + i] for i in tr.steps]
        changed = [retained[0]] + [b for a, b in zip(retained, retained[1:])
                                   if b[0] != a[0]]
        assert calls == changed
        if steps:
            assert len(changed) < len(tr)
        n = measure.n
        reference = type(measure).log_weight
        for j, (state, lw) in enumerate(zip(tr.states, tr.log_weights)):
            assert state == retained[j][1]
            assert lw == pytest.approx(
                reference(measure, SubsetState.from_indices(state, n)),
                rel=rtol, abs=0.0)
            if j and retained[j][0] == retained[j - 1][0]:
                assert state is tr.states[j - 1]

    def test_product_k_records_product_weights(self):
        # The conditioned oracle wraps the product's per-chain oracle, so the
        # conditioned chain records the product's running log weights.
        base = product_fixture(8)
        m = CardinalityConditionedMeasure(base, 3)
        state = ChainState(S([1, 3, 6], 8).membership)
        oracle = m.chain_oracle(state)
        assert type(oracle.base).__name__ == "_RunningProductOracle"
        assert oracle.base.q is base.q
        tr = run_chain(m, ChainSpec("exchange", steps=2000, seed=5,
                                    init="random-positive"))
        assert len(set(tr.states)) > 20
        np.testing.assert_allclose(
            tr.log_weights,
            [ProductMeasure.log_weight(base, S(s, 8)) for s in tr.states],
            rtol=1e-12, atol=0.0)


class TestChainState:
    """A chain's one mutable state keeps its sorted member and non-member
    lists equal to the membership vector through every in-place move."""

    ORACLE_TYPES = {"product": "_RunningProductOracle",
                    "l-ensemble": "_CachedDppOracle",
                    "k-dpp": "CardinalityConditionedMeasure"}

    @staticmethod
    def _fields(state):
        return (state.membership.copy(), state.cardinality,
                list(state.members), list(state.others), state.accepted_moves)

    @staticmethod
    def _check(state):
        m = state.membership
        assert state.members == np.flatnonzero(m).tolist()
        assert state.others == np.flatnonzero(~m).tolist()
        assert state.cardinality == np.count_nonzero(m) == len(state.members)

    @pytest.mark.parametrize("n", [1, 8, 200])
    def test_random_walk_keeps_lists_sorted(self, n):
        rng = np.random.default_rng(n)
        state = ChainState(rng.random(n) < 0.5)
        self._check(state)
        expected = set(np.flatnonzero(state.membership).tolist())
        for step in range(10_000):
            kinds = [kind for kind, legal in (
                ("add", state.others), ("delete", state.members),
                ("swap", state.members and state.others)) if legal]
            kind = kinds[rng.integers(len(kinds))]
            s = t = None
            if kind != "add":
                s = state.members[rng.integers(len(state.members))]
                expected.remove(s)
            if kind != "delete":
                t = state.others[rng.integers(len(state.others))]
                expected.add(t)
            assert state.moved(kind, s, t) is state
            assert state.accepted_moves == step + 1
            self._check(state)
            assert state.members == sorted(expected)
            if step % 1000 == 0:
                # The j-th member and non-member are the ones the steppers
                # picked from a scan of the membership vector.
                plain = SubsetState(state.membership.copy())
                for j in range(len(state.members)):
                    assert state.members[j] == int(plain.indices()[j])
                for j in range(len(state.others)):
                    assert state.others[j] == int(
                        (~plain.membership).nonzero()[0][j])

    @pytest.mark.parametrize("kind, s, t", [
        ("add", None, 3), ("delete", 2, None), ("swap", 2, 4),
        ("swap", 1, 3), ("swap", 2, 0), ("hold", 3, 4),
    ])
    def test_illegal_move_raises_and_changes_nothing(self, kind, s, t):
        state = ChainState(S([1, 3, 6], 8).membership)
        state.moved("add", None, 5)
        before = self._fields(state)
        with pytest.raises(ValueError):
            state.moved(kind, s, t)
        after = self._fields(state)
        assert np.array_equal(after[0], before[0])
        assert after[1:] == before[1:]

    def test_start_state_is_copied(self):
        start = S([1, 3, 6], 8)
        state = ChainState(start.membership)
        state.moved("swap", 3, 5)
        assert tuple(start.indices()) == (1, 3, 6)
        assert state.members == [1, 5, 6] and state == S([1, 5, 6], 8)

    @pytest.mark.parametrize("name", list(RECORDED_MEASURES))
    @pytest.mark.parametrize("kind, s, t, after", [
        ("add", None, 5, [1, 3, 5, 6]),
        ("delete", 3, None, [1, 6]),
        ("swap", 3, 5, [1, 5, 6]),
    ])
    def test_oracle_moves_chain_state_in_place(self, name, kind, s, t, after):
        state = ChainState(S([1, 3, 6], 8).membership)
        oracle = RECORDED_MEASURES[name](8).chain_oracle(state)
        assert type(oracle).__name__ == self.ORACLE_TYPES[name]
        assert oracle.move(state, kind, s, t) is state
        assert state.members == after
        self._check(state)

    @pytest.mark.parametrize("name", list(RECORDED_MEASURES))
    def test_oracle_refuses_unknown_move_kind(self, name):
        measure = RECORDED_MEASURES[name](8)
        state = ChainState(S([1, 3, 6], 8).membership)
        oracle = measure.chain_oracle(state)
        before = self._fields(state)[1:], oracle.log_weight(state)
        with pytest.raises(ValueError, match="unknown move kind"):
            oracle.move(state, "hold", 3, 4)
        assert (self._fields(state)[1:], oracle.log_weight(state)) == before
        # The oracle's own state is untouched too, so a legal move after
        # the refused one still weighs the right set.
        oracle.move(state, "swap", 3, 4)
        assert oracle.log_weight(state) == pytest.approx(
            measure.log_weight(S([1, 4, 6], 8)), rel=1e-9)

    @pytest.mark.parametrize("name", list(RECORDED_MEASURES))
    @pytest.mark.parametrize("kind, s, t", [
        ("add", None, 3), ("delete", 2, None), ("swap", 2, 4),
        ("swap", 1, 3),
    ], ids=["add-member", "delete-other", "swap-other-out",
            "swap-member-in"])
    def test_oracle_refuses_illegal_move(self, name, kind, s, t):
        # The chain state checks every move before an oracle updates its
        # own state, so each oracle refuses an illegal one the same way.
        measure = RECORDED_MEASURES[name](8)
        state = ChainState(S([1, 3, 6], 8).membership)
        oracle = measure.chain_oracle(state)
        before = self._fields(state)[1:], oracle.log_weight(state)
        with pytest.raises(ValueError, match="in set"):
            oracle.move(state, kind, s, t)
        assert (self._fields(state)[1:], oracle.log_weight(state)) == before
        assert state == S([1, 3, 6], 8)
        oracle.move(state, "swap", 3, 4)
        assert oracle.log_weight(state) == pytest.approx(
            measure.log_weight(S([1, 4, 6], 8)), rel=1e-9)


class TestNoScanOrCopyInChainPath:
    """Once the start state is built, no chain step copies a state or scans
    the membership vector: ``SubsetState``'s copying moves and ``indices``
    raise, and every chain still runs."""

    @pytest.mark.parametrize("name", list(RECORDED_MEASURES))
    @pytest.mark.parametrize("kind", chains.CHAIN_KINDS)
    def test_chain_runs_without_state_copies(self, monkeypatch, name, kind):
        start = chains.initial_state

        def forbidden(attr):
            def fail(*args, **kwargs):
                raise AssertionError(f"SubsetState.{attr} called in a chain")
            return fail

        def guarded(*args):
            state = start(*args)
            for attr in ("with_added", "with_deleted", "with_swapped",
                         "indices"):
                monkeypatch.setattr(SubsetState, attr, forbidden(attr))
            return state

        monkeypatch.setattr(chains, "initial_state", guarded)
        tr = run_chain(RECORDED_MEASURES[name](40),
                       ChainSpec(kind, steps=3000, burn_in=100, thin=3,
                                 seed=11, init="random-positive"))
        accepted = sum(m.accepted and m.kind != "hold" for m in tr.moves)
        # A k-DPP's adds and deletes leave the shell and are all rejected.
        assert accepted > 0 or (name, kind) == ("k-dpp", "add-delete")


class TestIndicator:
    @pytest.mark.parametrize("measure, kind, moving", [
        # Full set: every exchange step is a forced hold.
        (CardinalityConditionedMeasure(product_fixture(6), 6), "exchange",
         False),
        # Adds and deletes leave the shell: every proposal is rejected.
        (CardinalityConditionedMeasure(product_fixture(6), 3), "add-delete",
         False),
        (product_fixture(6), "add-delete", True),
    ], ids=["held", "rejected", "moving"])
    def test_indicator_equals_tuple_walk(self, measure, kind, moving):
        start = tuple(range(getattr(measure, "k", 3)))
        tr = run_chain(measure, ChainSpec(kind, steps=500, seed=4,
                                          init="explicit-set",
                                          init_set=start))
        assert (len(set(tr.states)) > 1) == moving
        for i in range(measure.n):
            walk = np.array([1.0 if i in s else 0.0 for s in tr.states])
            assert np.array_equal(tr.indicator(i), walk)

    def test_empty_transcript(self):
        assert chains.Transcript(n=3).indicator(0).shape == (0,)


class TestHeaviestSingletonStart:
    KERNELS = {
        "rbf": lambda: rbf_kernel(np.random.default_rng(3).random((40, 3)),
                                  0.5),
        "spectrum-step": lambda: spectrum_step_kernel(
            30, 15, 500.0, 1.0 / 500.0, np.random.default_rng(4)),
        "random-psd": lambda: random_psd_fixture(20),
        "zero-entries": lambda: LEnsemble(np.diag([0.0, 2.0, 0.0, 2.0])),
    }

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_lensemble_start_matches_log_weight_loop(self, name):
        m = self.KERNELS[name]()
        loop = [m.log_weight(S([i], m.n)) for i in range(m.n)]
        np.testing.assert_allclose(m.singleton_log_weights(), loop,
                                   rtol=1e-12, atol=1e-15)
        spec = ChainSpec("add-delete", steps=1, seed=0)
        st = initial_state(m, spec, chain_rng(0))
        assert list(st.indices()) == [loop.index(max(loop))]
        assert st == initial_state(_PlainOracle(m), spec, chain_rng(0))

    PRODUCT_Q = {
        "random": np.random.default_rng(5).random(40),
        "zeros-and-a-one": np.array([0.0, 0.3, 1.0, 0.0, 0.6, 0.9]),
        "two-ones": np.array([1.0, 0.3, 1.0, 0.6]),
        "tied": np.random.default_rng(1).choice([0.2, 0.5, 0.85], 12),
    }

    @pytest.mark.parametrize("name", list(PRODUCT_Q))
    def test_product_start_matches_log_weight_loop(self, name):
        m = ProductMeasure(self.PRODUCT_Q[name])
        lw = m.singleton_log_weights()
        loop = np.array([m.log_weight(S([i], m.n)) for i in range(m.n)])
        assert np.array_equal(lw == NEG_INF, loop == NEG_INF)
        finite = loop > NEG_INF
        np.testing.assert_allclose(lw[finite], loop[finite], rtol=0,
                                   atol=1e-12)
        # Equal q give equal weights, so the start is the first heaviest
        # singleton. The loop's sums round differently for tied elements,
        # so its argmax among them is not compared.
        heaviest = m.q == m.q.max()
        assert len(set(lw[heaviest])) == 1
        assert np.argmax(lw) == np.argmax(m.q)
        if name != "tied":
            assert np.argmax(lw) == np.argmax(loop)

    def test_zero_diagonal_kernel_raises(self):
        with pytest.raises(ValueError, match="no singleton"):
            run_chain(LEnsemble(np.zeros((3, 3))),
                      ChainSpec("add-delete", steps=1, seed=0))


class TestRunningProductWeight:
    """A product chain records its weights from a running sum of log-odds,
    summed exactly again every ``REBUILD_INTERVAL`` accepted moves."""

    PRODUCT_Q = TestHeaviestSingletonStart.PRODUCT_Q

    @pytest.mark.parametrize("name", list(PRODUCT_Q))
    @pytest.mark.parametrize("kind", ["add-delete", "projection", "exchange"])
    def test_weights_match_exact_sum(self, monkeypatch, name, kind):
        q = self.PRODUCT_Q[name]
        base = ProductMeasure(q)
        # Start with every element of q = 1 and half of the free ones; the
        # exchange chain runs on the product conditioned on that size.
        free = np.flatnonzero((q > 0) & (q < 1))
        start = sorted([*np.flatnonzero(q == 1), *free[:len(free) // 2]])
        measure = (CardinalityConditionedMeasure(base, len(start))
                   if kind == "exchange" else base)
        exact, calls = ProductMeasure.log_weight, []

        def counted(self, S):
            calls.append(S)
            return exact(self, S)

        monkeypatch.setattr(ProductMeasure, "log_weight", counted)
        make, chain = measure.chain_oracle, []

        def chain_oracle(S):
            # Count from here: the chain's start check weighs S as well.
            calls.clear()
            chain.append(S)
            return make(S)

        monkeypatch.setattr(measure, "chain_oracle", chain_oracle)
        tr = run_chain(measure, ChainSpec(kind, steps=30_000, thin=5, seed=3,
                                          init="explicit-set",
                                          init_set=tuple(start)))
        accepted = chain[0].accepted_moves
        assert accepted > REBUILD_INTERVAL
        assert 1 <= len(calls) <= 1 + accepted // REBUILD_INTERVAL
        lw = np.array(tr.log_weights)
        assert np.all(np.isfinite(lw))
        np.testing.assert_allclose(
            lw, [exact(base, S(s, base.n)) for s in tr.states],
            rtol=1e-12, atol=0.0)


# Fingerprints of transcripts recorded with the chain layer at commit
# de6f216: sha256 of repr((steps, states, [(kind, accepted)])), then the sum
# and the position-weighted sum of the recorded log weights. Fixed seeds must
# keep producing these transcripts.
REPRO_MEASURES = {
    "product": lambda: product_fixture(8),
    "psd-dpp": lambda: random_psd_fixture(8),
    "k-product": lambda: CardinalityConditionedMeasure(product_fixture(8), 3),
    "k-dpp": lambda: CardinalityConditionedMeasure(random_psd_fixture(8), 3),
    "table": lambda: TableMeasure(np.r_[0.0, np.arange(1, 16) % 5]),
}
REPRO_FINGERPRINTS = {
    ("product", "add-delete"): (
        "dff6de5588f7b2a7c706a297a3fd55fbdf0a66a9ffbfbd50f633143f629532b4",
        -1452.4337366641366, -209377.65166718353),
    ("product", "projection"): (
        "cce3101d45f223f64dbb80e030dd2368a96582b797a3c232ed41e12d3d4c685e",
        -1484.5384871218257, -220241.95652110406),
    ("psd-dpp", "add-delete"): (
        "50fb564119449c473fcdd7250db95037e2853e0b9e582ea33248df772f095d57",
        -20.983057969915514, -5475.149189135047),
    ("psd-dpp", "projection"): (
        "66892cd0b699473b7630f866cc45538e003cb42edcae71cd7ad843e967a5b043",
        -22.344604702240737, -4103.674050621873),
    ("table", "add-delete"): (
        "0dbf9b3ad31765e4a54dcf509eb798583f48758a725a4244885c5d366453a0e3",
        296.1208193338841, 41062.67239714097),
    ("table", "projection"): (
        "c5ff4f770dac69d437ed415a0f1781792c39703315d9a9d0dc8ccf62c8fa7d7b",
        284.926232442647, 38943.421342610745),
    ("k-product", "exchange"): (
        "07308feecdb8372c18a360a5ee069d0b1ac0eefff84bb07b7bdb9643863aaff1",
        -1480.6903191662686, -213630.1474846212),
    # Recorded at commit d7b5ef2, which factored each recorded k-DPP state
    # again; the weights now come from the cache.
    ("k-dpp", "exchange"): (
        "46066944c5ca360d1a2812ea51d7aac8be5546be3f45f907eecc5638c2f40856",
        11.449947590084287, 1271.5028694151983),
    ("k-dpp", "projection"): (
        "2469a7535a41091b3a5ab4aa3f9b1f50a0db0f930bdd9f5e5e705be7217c00c6",
        43.51666192482692, 8902.820037482608),
}


@pytest.mark.parametrize("name, kind", list(REPRO_FINGERPRINTS))
def test_transcripts_reproduce_across_versions(name, kind):
    tr = run_chain(REPRO_MEASURES[name](),
                   ChainSpec(kind, steps=2000, thin=7, seed=2016,
                             init="random-positive"))
    digest, lw_sum, lw_weighted = REPRO_FINGERPRINTS[name, kind]
    moves = [(m.kind, m.accepted) for m in tr.moves]
    assert hashlib.sha256(repr((tr.steps, tr.states, moves)).encode()
                          ).hexdigest() == digest
    lw = np.asarray(tr.log_weights)
    assert lw.sum() == pytest.approx(lw_sum, rel=1e-12)
    assert np.arange(1, lw.size + 1) @ lw == pytest.approx(lw_weighted,
                                                           rel=1e-12)


class TestStream:
    """``run_chain`` draws through ``_Stream``, which must answer every
    ``random()`` and ``integers(k)`` bit for bit as the chain's PCG64
    ``Generator`` would. A numpy release that changes either algorithm
    fails here instead of shifting transcripts silently."""

    @staticmethod
    def _draws(rng, plan):
        return [rng.random() if k == 0 else int(rng.integers(k))
                for k in plan]

    @staticmethod
    def _assert_same(rng, plan):
        # A second generator of the same state, wrapped in the stream.
        twin = np.random.Generator(type(rng.bit_generator)())
        twin.bit_generator.state = rng.bit_generator.state
        want = TestStream._draws(rng, plan)
        got = TestStream._draws(chains._Stream(twin), plan)
        bad = [j for j, (g, w) in enumerate(zip(got, want)) if g != w]
        assert not bad, (f"draw {bad[0]} of {len(plan)} (k={plan[bad[0]]}): "
                         f"{got[bad[0]]!r} != {want[bad[0]]!r}")
        return got

    def test_interleaved_draws_match_generator(self):
        # 0 is a random() call, k > 0 an integers(k) call.
        plan_rng = np.random.default_rng(16)
        plan = np.where(plan_rng.random(120_000) < 0.5, 0,
                        plan_rng.integers(1, 5001, 120_000)).tolist()
        plan[::97] = [1] * len(plan[::97])
        got = self._assert_same(chain_rng(2016, 3), plan)
        assert all(type(x) is int for x, k in zip(got, plan) if k)

    @pytest.mark.parametrize("k", [1, 2, 2**31 + 1, 2**32 - 1, 2**32])
    def test_extreme_bounds_match_generator(self, k):
        # Just above 2**31, Lemire's rejection discards about half the draws.
        plan = [k, k, 0, k, 1, k, k, 0] * 2000
        self._assert_same(chain_rng(7, 1), plan)

    def test_starts_from_a_cached_half_word(self):
        rng = chain_rng(11)
        rng.integers(7)
        assert rng.bit_generator.state["has_uint32"] == 1
        self._assert_same(rng, [5, 0, 5, 5, 2**31 + 1, 0, 30] * 500)

    @pytest.mark.parametrize("k", [0, -3, 2**32 + 1])
    def test_bounds_outside_32_bits_raise(self, k):
        with pytest.raises(ValueError, match="outside"):
            chains._Stream(chain_rng(0)).integers(k)


class TestBounds:
    def test_theorem_bound_uniform_example(self):
        got = theorem_bound(2, 1, math.log(0.25), 0.05)
        want = 8 * (math.log(2) + math.log(4) + math.log(20))
        assert got == pytest.approx(want)
        assert got == pytest.approx(40.6014, abs=1e-3)

    def test_theorem_bound_degenerate_limit(self):
        assert theorem_bound(5, 0, 0.0, 1.0) == pytest.approx(0.0)

    def test_theorem_bound_large_instance(self):
        got = theorem_bound(200, 0, -10.0, 0.01)
        want = 2 * 200**2 * (10.0 + math.log(100))
        assert got == pytest.approx(want)
        assert got == pytest.approx(1.168e6, rel=1e-3)

    def test_theorem_bound_errors(self):
        with pytest.raises(ValueError):
            theorem_bound(4, 2, float("-inf"), 0.05)
        with pytest.raises(ValueError):
            theorem_bound(4, 2, -1.0, 0.0)

    def test_theorem_bound_refuses_a_log_probability_above_0(self):
        with pytest.raises(ValueError, match="above 0"):
            theorem_bound(3, 1, 3.0, 0.05)
