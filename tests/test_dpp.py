import copy
import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

from srmcmc import (CholeskyCache, KernelValidationError, LEnsemble,
                    SpectralSampler, SubsetState, dpp_log_weight,
                    enumerate_distribution, l_to_marginal, marginal_to_l,
                    rbf_kernel, spectrum_step_kernel,
                    validate_marginal_kernel)
from srmcmc import dpp, measures
from srmcmc.dpp import EIG_TOL
from srmcmc.measures import NEG_INF

from conftest import random_psd_fixture


def S(indices, n):
    return SubsetState.from_indices(indices, n)


class TestKernelValidation:
    def test_zero_and_identity_valid(self):
        validate_marginal_kernel(np.zeros((3, 3)))
        validate_marginal_kernel(np.eye(3))

    def test_eigenvalue_above_one_rejected(self):
        with pytest.raises(KernelValidationError, match="1.5"):
            validate_marginal_kernel(np.diag([1.5, 0.5]))

    def test_asymmetric_rejected(self):
        M = np.array([[0.5, 0.1], [0.3, 0.5]])
        with pytest.raises(KernelValidationError, match="asymmetric"):
            validate_marginal_kernel(M)

    def test_asymmetry_refusal_names_the_worst_entry(self):
        M = np.array([[0.5, 0.1, 0.0], [0.1, 0.5, 0.2], [0.0, 0.5, 0.5]])
        with pytest.raises(KernelValidationError) as exc:
            LEnsemble(M)
        assert str(exc.value) == ("L-ensemble kernel asymmetric at row 2, "
                                  "col 3 (|diff|=3.000e-01)")

    def test_l_ensemble_rejects_negative(self):
        with pytest.raises(KernelValidationError):
            LEnsemble(np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_entry_rejected(self, bad, where):
        # A NaN would pass the symmetry and spectrum checks, and a chain
        # would then accept every NaN ratio.
        M = np.eye(2) * 0.5
        M[where] = M[where[::-1]] = bad
        for build in (LEnsemble, validate_marginal_kernel, marginal_to_l):
            with pytest.raises(KernelValidationError, match="NaN or inf"):
                build(M)


class TestConversions:
    def test_marginal_to_l_diag(self):
        assert np.allclose(marginal_to_l(np.diag([0.5, 0.5])).L, np.eye(2))
        assert np.allclose(marginal_to_l(np.zeros((2, 2))).L, 0.0)
        assert np.allclose(marginal_to_l(np.diag([2 / 3, 3 / 4])).L,
                           np.diag([2.0, 3.0]))

    def test_eigenvalue_one_is_elementary(self):
        with pytest.raises(KernelValidationError, match="elementary"):
            marginal_to_l(np.diag([1.0, 0.5]))

    def test_l_to_marginal_diag(self):
        assert np.allclose(l_to_marginal(LEnsemble(np.diag([2.0, 3.0]))),
                           np.diag([2 / 3, 3 / 4]))
        assert np.allclose(l_to_marginal(LEnsemble(np.zeros((2, 2)))), 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((5, 5))
        K = validate_marginal_kernel(l_to_marginal(LEnsemble(A @ A.T / 5)))
        assert np.allclose(l_to_marginal(marginal_to_l(K)), K, atol=1e-8)

    def test_k00_matches_enumeration(self):
        K = l_to_marginal(LEnsemble(np.array([[1.0, 0.5], [0.5, 1.0]])))
        # brute force: sum det(L_S) over S containing 0, over all S
        num = 1.0 + (1.0 - 0.25)  # {0}, {0,1}
        den = 1.0 + 1.0 + 1.0 + 0.75  # {}, {0}, {1}, {0,1}
        assert K[0, 0] == pytest.approx(num / den, abs=1e-12)


class TestLogWeight:
    def test_empty_set(self):
        assert dpp_log_weight(np.diag([2.0, 3.0]), S([], 2)) == 0.0

    def test_diagonal(self):
        assert dpp_log_weight(np.diag([2.0, 3.0]), S([0, 1], 2)) == \
            pytest.approx(math.log(6.0))

    def test_two_by_two(self):
        L = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert dpp_log_weight(L, S([0, 1], 2)) == pytest.approx(math.log(0.75))

    def test_singular_minor(self):
        L = np.ones((2, 2))
        assert dpp_log_weight(L, S([0, 1], 2)) == NEG_INF


class TestSchurRatios:
    def test_hand_two_by_two(self):
        m = LEnsemble(np.array([[1.0, 0.5], [0.5, 1.0]]))
        cache = CholeskyCache(m.L, S([0], 2).indices())
        assert cache.add_ratio(1) == pytest.approx(0.75)

    def test_diagonal_add_ratio(self):
        m = LEnsemble(np.diag([2.0, 3.0, 0.5]))
        cache = CholeskyCache(m.L, S([0], 3).indices())
        assert cache.add_ratio(1) == pytest.approx(3.0)
        assert cache.add_ratio(2) == pytest.approx(0.5)

    def test_exhaustive_sweep_matches_naive(self):
        rng = np.random.default_rng(11)
        n = 6
        # Full rank, then L = X X^T with X 6 x 3: there every S+t with
        # |S| = 3 is singular (pivot ~ 0) while S-s+t is not, so the swap
        # ratio rests on its (inv c)_p^2 term.
        for rank in (6, 3):
            X = rng.standard_normal((n, rank))
            m = LEnsemble(X @ X.T / rank)
            for mask in range(1 << n):
                st = SubsetState.from_bitmask(mask, n)
                if st.cardinality > rank or m.log_weight(st) == NEG_INF:
                    continue
                cache = CholeskyCache(m.L, st.indices())
                inside = [int(i) for i in st.indices()]
                outside = [t for t in range(n) if not st.contains(t)]
                for t in outside:
                    assert cache.add_ratio(t) == \
                        pytest.approx(m.add_ratio(st, t), rel=1e-8)
                for s_el in inside:
                    assert cache.delete_ratio(s_el) == \
                        pytest.approx(m.delete_ratio(st, s_el), rel=1e-8)
                    for t in outside:
                        assert cache.swap_ratio(s_el, t) == \
                            pytest.approx(m.swap_ratio(st, s_el, t), rel=1e-8)


class TestCholeskyCache:
    def test_add_then_delete_restores_log_det(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((5, 5))
        m = LEnsemble(A @ A.T / 5)
        cache = CholeskyCache(m.L, S([0, 2], 5).indices())
        before = cache.log_det
        cache.apply_add(4)
        cache.apply_delete(4)
        assert cache.log_det == pytest.approx(before, abs=1e-9)

    def test_empty_cache(self):
        cache = CholeskyCache(LEnsemble(np.eye(3)).L, S([], 3).indices())
        assert cache.log_det == 0.0
        assert cache.inv.shape == (0, 0)

    def test_singular_add_flags_cache(self):
        # Element 3 has a zero row: it lies in the span of every S, so
        # L_{S+3} is exactly singular and the rebuild after the add fails.
        m = LEnsemble(np.diag([1.0, 2.0, 3.0, 0.0]))
        cache = CholeskyCache(m.L, S([0, 2], 4).indices())
        assert cache.add_ratio(3) == 0.0
        with pytest.raises(ArithmeticError, match="DPP cache flagged"):
            cache.apply_add(3)
        assert cache.flagged and cache.log_det == NEG_INF

    def test_small_add_pivot_rebuilds(self):
        # A pivot in (0, PIVOT_TOL) is not used for the bordered update; the
        # cache factors L_S again and carries on, unflagged.
        cache = CholeskyCache(np.diag([1.0, 1e-13]), [0])
        assert 0.0 < cache.add_ratio(1) < CholeskyCache.PIVOT_TOL
        cache.apply_add(1)
        # A rebuild restarts the count of updates since the last one.
        assert not cache.flagged and cache._accepted == 0
        assert cache.order.tolist() == [0, 1]
        assert cache.log_det == pytest.approx(math.log(1e-13), rel=1e-12)

    def test_long_random_walk_drift(self):
        rng = np.random.default_rng(9)
        n = 40
        A = rng.standard_normal((n, n))
        m = LEnsemble(A @ A.T / n)
        cache = CholeskyCache(m.L, S([], n).indices())
        cur = set()
        accepted = 0
        while accepted < 10_000:
            if cur and rng.random() < 0.5:
                s_el = sorted(cur)[rng.integers(len(cur))]
                cache.apply_delete(s_el)
                cur.discard(s_el)
                accepted += 1
            else:
                cand = [t for t in range(n) if t not in cur]
                if not cand:
                    continue
                t = cand[rng.integers(len(cand))]
                if cache.add_ratio(t) > 1e-9:
                    cache.apply_add(t)
                    cur.add(t)
                    accepted += 1
        ref = dpp_log_weight(m.L, S(sorted(cur), n))
        assert cache.log_det == pytest.approx(ref, rel=1e-6)


def swap_walk(L, k, accepted, seed, check=None):
    """Metropolis swaps of the k-DPP of L on one cache, from the first k
    elements, until ``accepted`` swaps are accepted. ``check(cache, members)``
    runs after each accepted swap; members is the set, kept apart from the
    cache. Returns the cache and the set."""
    rng = np.random.default_rng(seed)
    n = L.shape[0]
    cache = CholeskyCache(L, range(k))
    members = set(range(k))
    done = 0
    while done < accepted:
        s_el = int(cache.order[rng.integers(k)])
        t = sorted(set(range(n)) - members)[rng.integers(n - k)]
        if rng.random() < cache.swap_ratio(s_el, t):
            before = cache.order.tolist()
            cache.apply_swap(s_el, t)
            members ^= {s_el, t}
            # t takes s's position; the others keep theirs.
            before[before.index(s_el)] = t
            assert cache.order.tolist() == before
            done += 1
            if check is not None:
                check(cache, members)
    return cache, members


class TestFusedSwap:
    @pytest.mark.parametrize("n", [8, 40])
    def test_inverse_and_log_det_after_each_swap(self, n):
        L = random_psd_fixture(n).L

        def check(cache, members):
            o = cache.order
            ref = np.linalg.inv(L[np.ix_(o, o)])
            assert np.abs(cache.inv - ref).max() <= 1e-9 * np.abs(ref).max()
            assert cache.log_det == pytest.approx(
                dpp_log_weight(L, S(sorted(members), n)), rel=1e-9,
                abs=1e-12)

        # Fewer swaps than REBUILD_INTERVAL: every check reads the updates.
        swap_walk(L, n // 2, 300, seed=n, check=check)

    def test_long_walk_drift(self, monkeypatch):
        # Criterion 7's drift bound, over accepted swaps only. No periodic
        # rebuild resets the drift: all 10^4 swaps are updates.
        monkeypatch.setattr(measures, "REBUILD_INTERVAL", 10**9)
        n = 40
        L = random_psd_fixture(n).L
        cache, members = swap_walk(L, n // 2, 10_000, seed=9)
        ref = dpp_log_weight(L, S(sorted(members), n))
        assert cache.log_det == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("s_el, t, rebuilds", [
        (1, 4, 0),  # kp = 1/2, pivot' = 5
        (1, 3, 1),  # pivot' = L_33 = 1e-13
        (0, 4, 1),  # kp = 1/L_00 = 1e-13
    ])
    def test_tiny_pivot_rebuilds(self, monkeypatch, s_el, t, rebuilds):
        L = np.diag([1e13, 2.0, 3.0, 1e-13, 5.0])
        cache = CholeskyCache(L, [0, 1, 2])
        calls = []
        original = CholeskyCache._rebuild

        def counted(self):
            calls.append(self.size)
            original(self)

        monkeypatch.setattr(CholeskyCache, "_rebuild", counted)
        cache.swap_ratio(s_el, t)
        cache.apply_swap(s_el, t)
        assert len(calls) == rebuilds
        members = sorted({0, 1, 2} ^ {s_el, t})
        assert sorted(cache.order.tolist()) == members
        o = cache.order
        np.testing.assert_allclose(cache.inv, np.linalg.inv(L[np.ix_(o, o)]),
                                   rtol=1e-12)
        assert cache.log_det == pytest.approx(
            dpp_log_weight(L, S(members, 5)), rel=1e-12)

    def test_swap_to_an_active_element_raises(self):
        cache = CholeskyCache(random_psd_fixture(8).L, range(4))
        before = cache.inv.copy()
        for call in (cache.swap_ratio, cache.apply_swap):
            with pytest.raises(ValueError, match="already active"):
                call(1, 2)
        assert cache.order.tolist() == [0, 1, 2, 3]
        assert np.array_equal(cache.inv, before)

    def test_swap_without_a_matching_ratio(self):
        # The update recomputes w when the last ratio read was for another
        # move, or there was none, and reuses it when it was for this one.
        L = random_psd_fixture(8).L
        for reads in ([], [(0, 5)], [(1, 6)], [(1, 5), (0, 6)]):
            cache = CholeskyCache(L, range(4))
            for s_el, t in reads:
                cache.swap_ratio(s_el, t)
            cache.apply_swap(1, 6)
            o = cache.order
            assert o.tolist() == [0, 6, 2, 3]
            np.testing.assert_allclose(
                cache.inv, np.linalg.inv(L[np.ix_(o, o)]), rtol=1e-9,
                atol=1e-12)


class TestSpectralSampler:
    def test_zero_kernel_gives_empty(self, rng):
        st = SpectralSampler(LEnsemble(np.zeros((4, 4)))).sample(rng)
        assert st.cardinality == 0

    def test_diagonal_inclusion_probabilities(self, rng):
        sampler = SpectralSampler(LEnsemble(np.diag([2.0, 3.0])))
        reps = 40_000
        counts = np.zeros(2)
        for _ in range(reps):
            counts[list(sampler.sample(rng).indices())] += 1
        est = counts / reps
        for i, p in enumerate([2 / 3, 3 / 4]):
            se = math.sqrt(p * (1 - p) / reps)
            assert abs(est[i] - p) < 3 * se + 1e-9

    @pytest.mark.slow
    def test_small_instance_distribution_tv(self, rng):
        A = np.random.default_rng(21).standard_normal((4, 4))
        m = LEnsemble(A @ A.T / 4)
        dist = enumerate_distribution(m)
        sampler = SpectralSampler(m)
        reps = 1_000_000
        counts = np.zeros(16)
        for _ in range(reps):
            counts[sampler.sample(rng).bitmask()] += 1
        tv = 0.5 * np.abs(counts / reps - dist.probs).sum()
        assert tv <= 0.005

    def test_expected_cardinality_matches_trace(self, rng):
        A = np.random.default_rng(5).standard_normal((8, 8))
        m = LEnsemble(A @ A.T / 8)
        target = np.trace(l_to_marginal(m))
        reps = 20_000
        cards = np.array([sampler_card for sampler_card in
                          (SpectralSampler(m).sample(rng).cardinality
                           for _ in range(reps))], dtype=float)
        se = cards.std(ddof=1) / math.sqrt(reps)
        assert abs(cards.mean() - target) < 3 * se


    def test_degenerate_projection_raises(self, rng):
        sampler = SpectralSampler(LEnsemble(np.eye(3)))
        sampler.inclusion = np.ones(3)
        sampler.vecs = np.zeros((3, 3))
        with pytest.raises(ArithmeticError, match="degenerate projection"):
            sampler.sample(rng)

    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
    def test_pick_at_an_extreme_uniform_skips_spent_elements(self, u):
        """Element 0 of diag(0, 1, 2) has residual 0 and can never be
        picked, not even by a pick uniform of exactly 0.0, and the largest
        uniform below 1 still picks inside the ground set."""
        class PickStub:
            def __init__(self):
                self.calls = 0

            def random(self, size=None):
                # The first read is the inclusion block, the rest picks.
                self.calls += 1
                fill = 0.0 if self.calls == 1 else u
                return fill if size is None else np.full(size, fill)

        sampler = SpectralSampler(LEnsemble(np.diag([0.0, 1.0, 2.0])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draw = sampler.sample(PickStub())
        assert draw.indices().tolist() == [1, 2]

    @pytest.mark.parametrize("name", ["psd-16", "rank-4-of-10"])
    def test_draw_size_and_rng_reads(self, name):
        """Each draw holds one distinct element per kept eigenvector, and
        reads the generator as n + k scalar ``random()`` calls would."""
        sampler = SpectralSampler(SPECTRAL_DIGESTS[name][0]())
        rng = np.random.default_rng(8)
        for _ in range(2000):
            twin = copy.deepcopy(rng)
            k = int(np.count_nonzero(twin.random(sampler.n)
                                     < sampler.inclusion))
            draw = sampler.sample(rng)
            assert draw.cardinality == k
            for _ in range(k):
                twin.random()
            assert rng.bit_generator.state == twin.bit_generator.state


def rank_deficient_fixture():
    X = np.random.default_rng(77).standard_normal((10, 4))
    return LEnsemble(X @ X.T)


# sha256 of repr of 2,000 spectral draws (sorted index tuples) from
# default_rng(99), recorded at commit c801f30 with the sampler that
# re-orthonormalized by QR at every pick. The rank-1 form reads the RNG in the
# same order and must keep producing these draws.
SPECTRAL_DIGESTS = {
    "psd-8": (lambda: random_psd_fixture(8),
              "c7fe5f7bc48553dc66779647cab0a1164967fc370d36fb8db3c1a917b7129421"),
    "psd-16": (lambda: random_psd_fixture(16),
               "8a6be49af545968f1f4bbf8762d1128232a5b4d715f9d1f674bd64d0b0cb8b39"),
    "rank-4-of-10": (rank_deficient_fixture,
                     "72efd45d0b34fbc9d6dd962fd6108319526c48741c808fa58459cb23a459fe58"),
}


@pytest.mark.parametrize("name", list(SPECTRAL_DIGESTS))
def test_spectral_draws_reproduce_across_versions(name):
    make, digest = SPECTRAL_DIGESTS[name]
    rng = np.random.default_rng(99)
    sampler = SpectralSampler(make())
    draws = [tuple(sampler.sample(rng).indices().tolist())
             for _ in range(2000)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == digest


# sha256 of repr of [dpp_log_weight(L, S).hex()] over 500 random sets S
# (inclusion level and membership from default_rng(11)), recorded at commit
# c801f30: log weights must stay bit-identical.
LOG_WEIGHT_DIGESTS = {
    "psd-16": (lambda: random_psd_fixture(16),
               "82da2a08fb6b44c53917c4da6d60050c643ad5486c2ae82055cb2fa2928ba982"),
    "rbf-30": (lambda: rbf_kernel(
        np.random.default_rng(3).standard_normal((30, 2)), 0.7),
        "4bb99df3a67f5bee1b1beb2d2943d25bdc16ef3838e6706394f7f4d9cae05e62"),
    "step-40": (lambda: spectrum_step_kernel(
        40, 10, 50.0, 0.02, np.random.default_rng(4)),
        "0a6a722149820a05cc4e451f56e1d3a2a22f92f0d9a236813f88f1d920da4a79"),
}


@pytest.mark.parametrize("name", list(LOG_WEIGHT_DIGESTS))
def test_log_weights_reproduce_across_versions(name):
    make, digest = LOG_WEIGHT_DIGESTS[name]
    m = make()
    rng = np.random.default_rng(11)
    lws = [dpp_log_weight(m.L, SubsetState(rng.random(m.n) < rng.random()))
           .hex() for _ in range(500)]
    assert hashlib.sha256(repr(lws).encode()).hexdigest() == digest


def test_log_weight_exact_on_singular_kernel(singular_add_kernel):
    """Every set holding the zero-row element 3 is singular: -inf, not a
    rounded finite weight. The others are log of a diagonal product."""
    got = [dpp_log_weight(singular_add_kernel, SubsetState.from_bitmask(k, 4))
           for k in range(16)]
    assert got[:8] == [0.0, 0.0, 0.6931471805599454, 0.6931471805599454,
                       1.0986122886681096, 1.0986122886681096,
                       1.791759469228055, 1.791759469228055]
    assert got[8:] == [NEG_INF] * 8


def reference_log_weight(L, S):
    """log det(L_S) through ``np.linalg.cholesky``; -inf where it raises."""
    if S.cardinality == 0:
        return 0.0
    m = S.membership
    try:
        chol = np.linalg.cholesky(L[np.ix_(m, m)])
    except np.linalg.LinAlgError:
        return NEG_INF
    diag = chol.diagonal()
    return NEG_INF if diag.min() <= 0.0 else float(2.0 * np.log(diag).sum())


@pytest.mark.parametrize("name", ["psd-10", "rank-4-of-10", "zero-row"])
def test_log_weight_bits_match_numpy_cholesky(name, singular_add_kernel):
    """Over every subset, the wrapper-free factor gives the log weight that
    ``np.linalg.cholesky`` gives, to the bit, and a failed factor warns
    nothing."""
    L = {"psd-10": lambda: random_psd_fixture(10).L,
         "rank-4-of-10": lambda: rank_deficient_fixture().L,
         "zero-row": lambda: singular_add_kernel}[name]()
    n = L.shape[0]
    states = [SubsetState.from_bitmask(mask, n) for mask in range(1 << n)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [dpp_log_weight(L, s).hex() for s in states]
    want = [reference_log_weight(L, s).hex() for s in states]
    assert got == want
    # The two singular kernels reach LAPACK's failure path.
    assert ("-inf" in got) == (name != "psd-10")


def test_cholesky_failure_is_silent_and_leaves_error_state():
    """A matrix that is not positive definite gives the NaN factor with no
    warning, even inside a caller's ``errstate(invalid="raise")``, and the
    caller's error state is left as it was."""
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    singular = np.ones((2, 2))
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(dpp._cholesky(indefinite).diagonal()).all()
        assert np.geterr() == before
        with np.errstate(invalid="raise"):
            inside = np.geterr()
            assert np.isnan(dpp._cholesky(indefinite).diagonal()).all()
            assert np.geterr() == inside
            assert dpp_log_weight(singular, SubsetState([True, True])) \
                == NEG_INF
    assert np.geterr() == before


def test_cache_rebuild_factor_is_numpy_cholesky(monkeypatch, singular_add_kernel):
    """The factor a rebuild forms equals ``np.linalg.cholesky``'s bit for
    bit, in the cache's own order; a singular L_S raises without a warning."""
    L = random_psd_fixture(10).L
    factors = []
    original = dpp._cholesky

    def recorded(a):
        chol = original(a)
        factors.append((a, chol))
        return chol

    monkeypatch.setattr(dpp, "_cholesky", recorded)
    rng = np.random.default_rng(5)
    for size in range(1, 11):
        CholeskyCache(L, rng.permutation(10)[:size])
    assert len(factors) == 10
    for sub, chol in factors:
        assert chol.tobytes() == np.linalg.cholesky(sub).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="numerically singular"):
            CholeskyCache(singular_add_kernel, [0, 3])


class TestKernelSynthesis:
    def test_rbf_single_point(self):
        m = rbf_kernel(np.zeros((1, 3)), 0.5)
        assert m.L.shape == (1, 1)
        assert m.L[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_rbf_rejects_bad_args(self):
        with pytest.raises(ValueError):
            rbf_kernel(np.zeros((2, 2)), 0.0)
        with pytest.raises(ValueError):
            rbf_kernel(np.zeros(3), 1.0)

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf, -math.inf])
    def test_rbf_rejects_non_finite_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth must be positive "
                                             "and finite"):
            rbf_kernel(np.zeros((2, 2)), bandwidth)

    @pytest.mark.parametrize("hi, lo", [(math.inf, 1.0), (5.0, math.nan),
                                        (math.nan, math.inf)])
    def test_spectrum_step_rejects_non_finite_levels(self, rng, hi, lo):
        with pytest.raises(ValueError, match="hi and lo must be positive "
                                             "and finite"):
            spectrum_step_kernel(4, 2, hi, lo, rng)

    def test_spectrum_step_paper_configuration(self, rng):
        m = spectrum_step_kernel(200, 100, 500.0, 1.0 / 500.0, rng)
        evals = np.sort(np.linalg.eigvalsh(m.L))
        assert np.allclose(evals[:100], 1.0 / 500.0, atol=1e-6)
        assert np.allclose(evals[100:], 500.0, rtol=1e-6)

    def test_spectrum_step_degenerate_k(self, rng):
        m = spectrum_step_kernel(6, 0, 5.0, 0.25, rng)
        assert np.allclose(np.linalg.eigvalsh(m.L), 0.25, atol=1e-8)

    def test_generated_kernels_pass_validator(self, rng):
        pts = rng.random((20, 3))
        LEnsemble(rbf_kernel(pts, 0.5).L)
        LEnsemble(spectrum_step_kernel(10, 4, 8.0, 0.1, rng).L)


def test_eq4_marginals_vs_enumeration():
    """Pr(S subset T) = det(K_S) for singletons and pairs, via enumeration."""
    for n in (4, 6, 8):
        A = np.random.default_rng(100 + n).standard_normal((n, n))
        m = LEnsemble(A @ A.T / n)
        K = l_to_marginal(m)
        dist = enumerate_distribution(m)
        for size in (1, 2):
            for combo in itertools.combinations(range(n), size):
                want = sum(dist.probs[mask] for mask in range(1 << n)
                           if all(mask >> i & 1 for i in combo))
                got = np.linalg.det(K[np.ix_(combo, combo)])
                assert got == pytest.approx(want, abs=1e-8)


def rotated_kernel(eigenvalues, seed):
    """Q diag(eigenvalues) Q^T for a random orthogonal Q (not symmetrized)."""
    n = len(eigenvalues)
    Q, R = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    return (Q * np.asarray(eigenvalues, dtype=float)) @ Q.T


def spread(n, lo, hi, seed):
    """n eigenvalues: lo, hi and n - 2 drawn uniformly from the middle half
    of the interval between them."""
    inner = np.random.default_rng(seed).uniform(0.25, 0.75, n - 2)
    return np.concatenate([[lo], lo + (hi - lo) * inner, [hi]])


LAMBDA_MINS = [0.0, -0.3e-8, -0.9e-8, -1.1e-8, -5e-8]
LAMBDA_MAXES = [1.0, 1.0 + 0.9e-8, 1.0 + 1.1e-8]


def verdict_cases():
    """(validator, kernel, whether its spectrum is built to be refused) for
    LEnsemble and validate_marginal_kernel: a rank-deficient X X^T, a
    projection, 0x0 kernels and rotated diagonal kernels whose extreme
    eigenvalues sit on either side of the EIG_TOL and EIG_TOL/2 margins."""
    X = np.random.default_rng(31).standard_normal((200, 40))
    yield LEnsemble, X @ X.T, False
    yield validate_marginal_kernel, X @ X.T / np.linalg.norm(X, 2) ** 2, False
    P = rotated_kernel(np.r_[np.ones(30), np.zeros(20)], 32)
    yield validate_marginal_kernel, P, False
    for build in (LEnsemble, validate_marginal_kernel):
        yield build, np.zeros((0, 0)), False
    for i, (n, scale, lo) in enumerate(itertools.product(
            (2, 50, 200), (1.0, 1e4), LAMBDA_MINS)):
        eig = spread(n, lo, scale, i)
        yield LEnsemble, rotated_kernel(eig, 100 + i), lo < -EIG_TOL
    for i, (n, lo, hi) in enumerate(itertools.product(
            (2, 50, 200), LAMBDA_MINS, LAMBDA_MAXES)):
        eig = spread(n, lo, hi, i)
        yield (validate_marginal_kernel, rotated_kernel(eig, 200 + i),
               lo < -EIG_TOL or hi > 1.0 + EIG_TOL)


def reference_verdict(build, M):
    """The refusal message the eigenvalue rule gives, or None to accept:
    the extreme eigenvalues of the symmetrized kernel from
    ``np.linalg.eigvalsh``, against -EIG_TOL and 1 + EIG_TOL."""
    if M.size == 0:
        return None
    evals = np.linalg.eigvalsh(0.5 * (M + M.T))
    lo, hi = evals[0], evals[-1]
    if build is LEnsemble:
        if float(lo) < -EIG_TOL:
            return f"L-ensemble eigenvalue {float(lo):.6g} below 0"
    elif lo < -EIG_TOL or hi > 1.0 + EIG_TOL:
        return f"marginal kernel spectrum [{lo:.6g}, {hi:.6g}] outside [0, 1]"
    return None


def test_validator_verdict_table():
    """Each validator accepts exactly the kernels whose extreme eigenvalues
    lie within EIG_TOL of the valid range, and refuses the others with the
    message that names them, without a warning, whatever route decides."""
    cases = list(verdict_cases())
    assert len(cases) == 3 + 2 + 30 + 45
    for build, M, designed in cases:
        want = reference_verdict(build, M)
        assert (want is not None) == designed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                build(M)
            except KernelValidationError as exc:
                got = str(exc)
            else:
                got = None
        assert got == want


def test_valid_kernels_reach_no_eigensolver(monkeypatch):
    """Valid kernels are accepted without ``eigvalsh``; ``marginal_to_l``
    decomposes once, with the ``eigh`` its conversion needs."""
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called on a valid kernel")

    eigh_calls = []
    original_eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        eigh_calls.append(a.shape)
        return original_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    rng = np.random.default_rng(8)
    rbf_kernel(rng.random((200, 5)), 0.5)
    spectrum_step_kernel(200, 100, 500.0, 1.0 / 500.0, rng)
    X = rng.standard_normal((200, 40))
    K = l_to_marginal(LEnsemble(X @ X.T))
    monkeypatch.setattr(np.linalg, "eigh", counted)
    marginal_to_l(K)
    assert eigh_calls == [(200, 200)]


def conversion_kernel(family, n):
    if family == "psd":
        return random_psd_fixture(n)
    if family == "rbf":
        return rbf_kernel(np.random.default_rng(n).random((n, 5)), 0.5)
    return spectrum_step_kernel(n, n // 2, 500.0, 1.0 / 500.0,
                                np.random.default_rng(n))


# sha256 over the bytes of the kernel L, K = l_to_marginal(L) and the L of
# marginal_to_l(K), recorded at commit 3723760: validation must not change a
# converted or stored kernel by a bit.
CONVERSION_DIGESTS = {
    "psd-1":
        "ba4c0f59b549f5d31aba268fc18787faa58c55409aeedfd3d18b80a068e753e5",
    "psd-5":
        "1b868b29318b7f665339ce942d78c271d1568d392284a123a6836827aefc971a",
    "psd-16":
        "652155a5bc1ca2cbf78f6873b222b1738e9176ba65f1be43468b5881b63f8afc",
    "psd-60":
        "5457196cea0f5cf4c0c541e002493789265d8703b14dce4452ee3a1c4fc0389c",
    "psd-200":
        "8af24037a419bbf225b21587306b35be14fe7100cf6eadac967645b310f3bc7e",
    "rbf-1":
        "04c3661c65e15924484acfcd363f98733fde0b318094bb91eb471fc2a20884e7",
    "rbf-5":
        "03cf6e943dc2d49a30c69f810b542c0d68ac4d945dad04963b535292e4a75dd2",
    "rbf-16":
        "30207a8a27b848e03027f24b3561d6e796844c908a2e98363881fef04eab60e3",
    "rbf-60":
        "c8fab28cc59a0ca1a5216f033afbb5441ab3b5a83004bdd63041d3226e9f6165",
    "rbf-200":
        "70f2f8b6abcb113c8a718c54e68cbdb9f051fd44b9e215b2d4db04215721b47d",
    "step-1":
        "18e7bb58570313e461a11c02724d0082c2391397db512dcdb89dc7d548d7d51a",
    "step-5":
        "90ac11249e2b735ef0ed66e363c095cf795781ac39f7cb0b6f566b0260e7e86d",
    "step-16":
        "9977d0a21ee2301bc8ce32a638e241273e1f43123a4ccb824d1bbb3a7d1f1794",
    "step-60":
        "7e201345ae3270475d4bbfcb1ec3d5b95d6210c7c0c9bf957a769a42311c85ed",
    "step-200":
        "1e7775b9664280f15362f8bb3b4fbfcc144b9cb675d5d752e1c7cc6fb9c95757",
}


@pytest.mark.parametrize("case", list(CONVERSION_DIGESTS))
def test_conversions_reproduce_across_versions(case):
    family, n = case.split("-")
    m = conversion_kernel(family, int(n))
    K = l_to_marginal(m)
    digest = hashlib.sha256(m.L.tobytes())
    digest.update(K.tobytes())
    digest.update(marginal_to_l(K).L.tobytes())
    assert digest.hexdigest() == CONVERSION_DIGESTS[case]
