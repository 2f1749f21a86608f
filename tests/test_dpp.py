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
from srmcmc import dpp
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
        assert np.allclose(l_to_marginal(np.diag([2.0, 3.0])),
                           np.diag([2 / 3, 3 / 4]))
        assert np.allclose(l_to_marginal(np.zeros((2, 2))), 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((5, 5))
        K = validate_marginal_kernel(l_to_marginal(A @ A.T / 5))
        assert np.allclose(l_to_marginal(marginal_to_l(K)), K, atol=1e-8)

    def test_k00_matches_enumeration(self):
        L = np.array([[1.0, 0.5], [0.5, 1.0]])
        K = l_to_marginal(L)
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


class TestSpectralSampler:
    def test_zero_kernel_gives_empty(self, rng):
        st = SpectralSampler(np.zeros((4, 4))).sample(rng)
        assert st.cardinality == 0

    def test_diagonal_inclusion_probabilities(self, rng):
        sampler = SpectralSampler(np.diag([2.0, 3.0]))
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
        sampler = SpectralSampler(np.eye(3))
        sampler.inclusion = np.ones(3)
        sampler.vecs = np.zeros((3, 3))
        with pytest.raises(ArithmeticError, match="degenerate projection"):
            sampler.sample(rng)


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


def test_cache_rebuild_factor_is_numpy_cholesky(monkeypatch, singular_add_kernel):
    """The factor a rebuild forms equals ``np.linalg.cholesky``'s bit for
    bit, in the cache's own order; a singular L_S raises without a warning."""
    factors = []
    original = dpp._cholesky

    def recorded(a):
        chol = original(a)
        factors.append((a, chol))
        return chol

    monkeypatch.setattr(dpp, "_cholesky", recorded)
    L = random_psd_fixture(10).L
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
