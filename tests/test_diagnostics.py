import itertools
import math
from collections import Counter

import numpy as np
import pytest

from srmcmc import (CardinalityConditionedMeasure, ChainSpec, LEnsemble,
                    ProductMeasure, SpectralSampler, Transcript,
                    empirical_marginals, extract_summary, first_crossing,
                    psrf, psrf_curve, run_chains)
from srmcmc.diagnostics import MARGINAL_CHUNK as CHUNK


def constant_transcript(n, state, length):
    t = Transcript(n=n)
    t.steps = list(range(1, length + 1))
    t.states = [tuple(state)] * length
    t.log_weights = [0.0] * length
    t.moves = [None] * length
    return t


def iid_transcripts(measure, n_chains, length, seed=0):
    """Transcripts of independent exact draws from an L-ensemble."""
    out = []
    for c in range(n_chains):
        rng = np.random.default_rng([seed, c])
        sampler = SpectralSampler(measure)
        t = Transcript(n=measure.n)
        for i in range(length):
            st = sampler.sample(rng)
            t.steps.append(i + 1)
            t.states.append(tuple(int(j) for j in st.indices()))
            t.log_weights.append(float(measure.log_weight(st)))
            t.moves.append(None)
        out.append(t)
    return out


def cardinality_curve(transcripts):
    return psrf_curve(extract_summary(transcripts, "cardinality"))


class TestPsrf:
    def test_hand_computed_value(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
        assert psrf(x) == pytest.approx(math.sqrt(0.75), abs=1e-12)

    def test_disjoint_constant_chains_infinite(self):
        x = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        assert psrf(x) == math.inf

    def test_identical_constant_chains_one(self):
        x = np.ones((3, 5))
        assert psrf(x) == 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 50))
        assert psrf(3.0 * x - 7.0) == pytest.approx(psrf(x), rel=1e-12)

    def test_chain_permutation_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 40))
        assert psrf(x[::-1]) == pytest.approx(psrf(x), rel=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            psrf(np.ones(5))
        with pytest.raises(ValueError):
            psrf(np.ones((1, 5)))
        with pytest.raises(ValueError):
            psrf(np.ones((3, 1)))

    def test_iid_normal_near_one(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((10, 5000))
        assert psrf(x) == pytest.approx(1.0, abs=0.01)


class TestExtractSummary:
    def test_statistics(self):
        t1 = constant_transcript(3, (0, 2), 4)
        t2 = constant_transcript(3, (1,), 4)
        card = extract_summary([t1, t2], "cardinality")
        assert np.array_equal(card, [[2.0] * 4, [1.0] * 4])
        ind = extract_summary([t1, t2], ("indicator", 2))
        assert np.array_equal(ind, [[1.0] * 4, [0.0] * 4])
        lw = extract_summary([t1, t2], "log_weight")
        assert lw.shape == (2, 4)

    def test_errors(self):
        t1 = constant_transcript(3, (0,), 4)
        with pytest.raises(ValueError):
            extract_summary([t1], "cardinality")
        with pytest.raises(ValueError):
            extract_summary([t1, constant_transcript(3, (0,), 5)],
                            "cardinality")
        with pytest.raises(ValueError):
            extract_summary([t1, t1], "entropy")

    @pytest.mark.parametrize("statistic", ["cardinality", "log_weight",
                                           ("indicator", 0)])
    def test_mixed_ground_sets_rejected(self, statistic):
        t5 = constant_transcript(5, (0, 4), 4)
        t3 = constant_transcript(3, (1,), 4)
        with pytest.raises(ValueError, match=r"ground-set sizes: \[3, 5\]"):
            extract_summary([t5, t3], statistic)

    @pytest.mark.parametrize("i", [3, 99, -1])
    def test_indicator_outside_ground_set_rejected(self, i):
        t = constant_transcript(3, (0,), 4)
        with pytest.raises(ValueError, match="statistic"):
            extract_summary([t, t], ("indicator", i))


class TestIterationsToThreshold:
    def test_iid_draws_converge_quickly(self):
        m = LEnsemble(np.diag([2.0, 3.0, 1.5, 0.7]))
        trs = iid_transcripts(m, 6, 2000, seed=3)
        hit = first_crossing(cardinality_curve(trs))
        assert hit is not None and hit[0] <= 500

    def test_stuck_chains_never_converge(self):
        trs = [constant_transcript(3, (0,), 1000),
               constant_transcript(3, (1, 2), 1000)]
        assert first_crossing(cardinality_curve(trs)) is None

    def test_monotone_in_threshold(self):
        m = LEnsemble(np.diag([2.0, 3.0, 1.5, 0.7]))
        curve = cardinality_curve(iid_transcripts(m, 4, 1000, seed=5))
        loose = first_crossing(curve, threshold=1.2)
        tight = first_crossing(curve, threshold=1.01)
        assert loose is not None and tight is not None
        assert loose[0] <= tight[0]

    def test_infinite_threshold_hits_first_evaluation(self):
        m = LEnsemble(np.diag([2.0, 3.0]))
        curve = cardinality_curve(iid_transcripts(m, 3, 400, seed=7))
        # first stride point with enough values, censored by definition
        assert first_crossing(curve, threshold=math.inf) == (2, True)

    def test_threshold_validation(self):
        m = LEnsemble(np.diag([2.0, 3.0]))
        curve = cardinality_curve(iid_transcripts(m, 3, 10, seed=1))
        for threshold in (1.0, 0.5, math.nan, True, "1.5", None):
            for points in (curve, []):
                with pytest.raises(ValueError, match="threshold"):
                    first_crossing(points, threshold=threshold)

    @pytest.mark.parametrize("series, word", [
        (np.zeros(5), "series must be an"),
        (np.zeros((1, 5)), "at least 2 chains"),
    ], ids=["1-d", "one-chain"])
    def test_curve_shape_validation(self, series, word):
        with pytest.raises(ValueError, match=word):
            psrf_curve(series)

    def test_curve_prefixes_are_strided(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 1000))
        pts = psrf_curve(x)
        stops = [s for s, _ in pts]
        assert stops[0] == 5 and stops[-1] == 1000
        assert all(b - a == 5 for a, b in zip(stops, stops[1:]))

    @pytest.mark.parametrize("stride", [0, -5, 2.0, True, "a"])
    def test_stride_validation(self, stride):
        x = np.random.default_rng(2).standard_normal((3, 100))
        with pytest.raises(ValueError, match="stride"):
            psrf_curve(x, stride=stride)

    @pytest.mark.parametrize("prefix", ["none", "identical", "disjoint"])
    def test_curve_matches_psrf_on_every_prefix(self, prefix):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 5, size=(4, 300)).astype(float)
        x[:, 150:] += rng.standard_normal((4, 150))
        if prefix == "identical":
            x[:, :20] = 3.0
        elif prefix == "disjoint":
            x[:, :20] = np.arange(4.0)[:, None]
        pts = psrf_curve(x, stride=1)
        assert [stop for stop, _ in pts] == list(range(2, 301))
        for stop, r in pts:
            want = psrf(x[:, :stop])
            if prefix != "none" and stop <= 20:
                assert r == want
            else:
                assert r == pytest.approx(want, rel=1e-12)
        if prefix != "none":
            assert pts[0][1] == (1.0 if prefix == "identical" else math.inf)


class TestFirstCrossing:
    def test_first_checkpoint_is_censored(self):
        assert first_crossing([(10, 1.01), (20, 1.0)]) == (10, True)
        assert first_crossing([(10, 1.3), (20, 1.05), (30, 1.0)]) == \
            (20, False)

    def test_no_crossing(self):
        assert first_crossing([(10, 1.3), (20, math.inf)]) is None
        assert first_crossing([]) is None
        assert first_crossing([(10, 1.04)], threshold=1.01) is None


class TestEmpiricalMarginals:
    def test_constant_transcript_exact(self):
        est, se = empirical_marginals([constant_transcript(3, (0, 2), 50)])
        assert np.array_equal(est, [1.0, 0.0, 1.0])
        assert np.array_equal(se, [0.0, 0.0, 0.0])

    def test_exchange_marginals_sum_to_cardinality(self):
        m = CardinalityConditionedMeasure(
            ProductMeasure([0.3, 0.8, 0.5, 0.6]), 2)
        trs = run_chains(m, ChainSpec("exchange", steps=2000, seed=11,
                                      init="random-positive"), 3)
        est, _ = empirical_marginals(trs)
        assert est.sum() == pytest.approx(2.0, abs=1e-12)

    def test_projection_recovers_dpp_marginals(self):
        m = LEnsemble(np.diag([2.0, 3.0]))
        trs = run_chains(m, ChainSpec("projection", steps=60_000, seed=13), 4)
        est, _ = empirical_marginals(trs)
        # generous tolerance: the naive SE ignores autocorrelation
        assert np.allclose(est, [2 / 3, 3 / 4], atol=0.02)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            empirical_marginals([])

    def test_mixed_ground_sets_rejected(self):
        t5 = constant_transcript(5, (0, 4), 4)
        t3 = constant_transcript(3, (1,), 4)
        for trs in ([t5, t3], [t3, t5]):
            with pytest.raises(ValueError, match=r"ground-set sizes: \[3, 5\]"):
                empirical_marginals(trs)

    def test_matches_a_count_of_every_element(self):
        # Runs of one tuple object are counted once with their length as the
        # weight; the result must equal a count over every element of every
        # retained tuple, bit for bit. Equal tuples that are not the same
        # object, empty sets, a transcript with no draws and runs across the
        # edges of the chunks that bound memory are included.
        product = ProductMeasure(np.linspace(0.1, 0.9, 9))
        trs = run_chains(product, ChainSpec("add-delete", steps=3000,
                                            seed=5), 3)
        trs += run_chains(product, ChainSpec("add-delete", steps=2 * CHUNK + 9,
                                             seed=8), 2)
        trs += run_chains(product, ChainSpec("add-delete", steps=3000,
                                             thin=3, seed=6), 2)
        trs += run_chains(CardinalityConditionedMeasure(product, 4),
                          ChainSpec("exchange", steps=2000, seed=7,
                                    init="random-positive"), 2)
        copies = constant_transcript(9, (1, 4), 40)
        copies.states = [tuple(list(s)) for s in copies.states[:20]] + [
            (), (), (1, 4), (1, 4)] + copies.states[24:]
        assert copies.states[0] is not copies.states[1]
        trs += [copies, constant_transcript(9, (), 30),
                constant_transcript(9, (2,), 0),
                constant_transcript(9, (3, 5), 2 * CHUNK + 7)]
        assert any(b is a for t in trs[:9] for a, b in zip(t.states,
                                                            t.states[1:]))
        counts = Counter(itertools.chain.from_iterable(
            s for t in trs for s in t.states))
        total = sum(map(len, trs))
        want = np.array([counts[i] for i in range(9)], dtype=float) / total
        est, se = empirical_marginals(trs)
        assert np.array_equal(est, want)
        assert np.array_equal(se, np.sqrt(want * (1.0 - want) / total))
