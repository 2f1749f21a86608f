import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from srmcmc import (CardinalityConditionedMeasure, ChainSpec, LEnsemble,
                    ProductMeasure, SubsetState, TableMeasure, chain_rng,
                    exchange_bound, run_chain, step_add_delete, step_exchange,
                    step_projection, theorem_bound)
from srmcmc.chains import initial_state
from srmcmc.dpp import rbf_kernel, spectrum_step_kernel
from srmcmc.measures import MeasureOracle, log_binomial

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
            new, out = step_add_delete(m, st, rng)
            if out.kind != "hold":
                assert out.accepted
            hits[new.bitmask()] += 1
        for neighbor in (0b000, 0b011, 0b101):
            p = hits[neighbor] / reps
            se = math.sqrt((1 / 6) * (5 / 6) / reps)
            assert abs(p - 1 / 6) < 4 * se

    def test_diag_dpp_add_always_accepted_from_empty(self, rng):
        m = LEnsemble(np.diag([2.0, 3.0]))
        st = S([], 2)
        for _ in range(200):
            _, out = step_add_delete(m, st, rng)
            if out.kind == "add":
                assert out.acceptance_prob == 1.0 and out.accepted

    def test_zero_weight_target_never_accepted(self, rng):
        m = CardinalityConditionedMeasure(ProductMeasure([0.5] * 3), 1)
        st = S([1], 3)
        for _ in range(300):
            new, out = step_add_delete(m, st, rng)
            if out.kind != "hold":
                assert out.acceptance_prob == 0.0 and not out.accepted
            assert new == st


class TestExchangeStep:
    def test_conditioned_uniform_swap_probability(self, rng):
        m = CardinalityConditionedMeasure(ProductMeasure([0.5, 0.5]), 1)
        st = S([0], 2)
        reps = 40_000
        moved = sum(step_exchange(m, st, rng)[0] == S([1], 2)
                    for _ in range(reps))
        p = moved / reps
        se = math.sqrt(0.25 / reps)
        assert abs(p - 0.5) < 4 * se

    def test_cardinality_invariant_along_trajectory(self, rng):
        m = CardinalityConditionedMeasure(ProductMeasure([0.3, 0.8, 0.5, 0.6]), 2)
        st = S([0, 1], 4)
        for _ in range(500):
            st, _ = step_exchange(m, st, rng)
            assert st.cardinality == 2

    def test_swap_to_zero_weight_rejected(self, rng):
        # masks 0b00, 0b01, 0b10, 0b11: only {0} has positive weight
        m = TableMeasure([0.0, 1.0, 0.0, 0.0])
        st = S([0], 2)
        for _ in range(100):
            new, out = step_exchange(m, st, rng)
            if out.kind == "swap":
                assert out.acceptance_prob == 0.0 and not out.accepted
            assert new == st

    def test_full_or_empty_set_forced_hold(self, rng):
        m = uniform_table(2)
        for st in (S([], 2), S([0, 1], 2)):
            new, out = step_exchange(m, st, rng)
            assert out.kind == "hold" and new == st


class TestProjectionStep:
    @pytest.mark.slow
    def test_branch_frequencies_match_interval_widths(self, rng):
        # N=4, |S|=1: add 9/32, exchange 3/32, delete 1/32, hold 19/32.
        m = uniform_table(4)
        st = S([2], 4)
        reps = 1_000_000
        counts = Counter(step_projection(m, st, rng)[1].kind
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
        moved = sum(step_projection(m, S([], 1), rng)[0].cardinality
                    for _ in range(reps))
        se = math.sqrt(0.25 / reps)
        assert abs(moved / reps - 0.5) < 4 * se

    def test_corrected_delete_factor_hand_case(self, rng):
        # diag(2,3): delete from {0} accepts with min{1, (1/2) * 2} = 1.
        m = LEnsemble(np.diag([2.0, 3.0]))
        st = S([0], 2)
        for _ in range(400):
            _, out = step_projection(m, st, rng)
            if out.kind == "delete":
                assert out.acceptance_prob == pytest.approx(1.0)
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

    def test_zero_diagonal_kernel_raises(self):
        with pytest.raises(ValueError, match="no singleton"):
            run_chain(LEnsemble(np.zeros((3, 3))),
                      ChainSpec("add-delete", steps=1, seed=0))


# Fingerprints of transcripts recorded with the chain layer at commit
# de6f216: sha256 of repr((steps, states, [(kind, accepted)])), then the sum
# and the position-weighted sum of the recorded log weights. Fixed seeds must
# keep producing these transcripts.
REPRO_MEASURES = {
    "product": lambda: product_fixture(8),
    "psd-dpp": lambda: random_psd_fixture(8),
    "k-product": lambda: CardinalityConditionedMeasure(product_fixture(8), 3),
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

    def test_exchange_bound_examples(self):
        got = exchange_bound(1, 2, math.log(0.7), 0.05)
        assert got == pytest.approx(2 * (math.log(1 / 0.7) + math.log(20)))
        assert got == pytest.approx(6.705, abs=1e-3)
        assert exchange_bound(3, 7, 0.0, 0.1) == \
            pytest.approx(2 * 3 * 4 * math.log(10))

    def test_exchange_bound_prefactor_matches_theorem(self):
        # With M = 2N, k = N the two bounds differ by 2 N^2 log C(N, k0).
        for n, k0 in ((3, 1), (6, 3), (10, 7)):
            log_pi, eps = -2.5, 0.05
            lhs = theorem_bound(n, k0, log_pi, eps)
            rhs = 2 * n * n * log_binomial(n, k0) + \
                exchange_bound(n, 2 * n, log_pi, eps)
            assert lhs == pytest.approx(rhs, rel=1e-12)
