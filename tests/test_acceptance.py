"""Acceptance gate: one test per release criterion, one printed verdict each.

Criterion 6 checks the chain ordering with a Gelman-Rubin protocol that can
resolve it: ten streams from distinct random-positive starts, and a crossing
that lands on its curve's first checkpoint counts as no crossing. On the
two-level-spectrum kernel the monitored statistic is the maximum R-hat over
all element indicators, and projection must cross within the budget, with
add-delete strictly later or never. Cardinality cannot serve there: it is 30
in about 89% of draws, so it does not see moves within that shell. Add-delete
does not stall on this kernel, because the 29 and 31 shells each hold about
5% of the mass and it moves between size-30 sets through them; the clause
asserts the ordering, which holds, not a stall, which does not. On the RBF
kernel add-delete must cross on cardinality no later than projection.
"""
import math

import numpy as np
import pytest

from srmcmc import (CardinalityConditionedMeasure, ChainSpec, CholeskyCache,
                    LEnsemble,
                    ProductMeasure, SpectralSampler, SubsetState, TableMeasure,
                    check_log_submodular, detailed_balance_check, dpp_log_weight,
                    empirical_marginals, enumerate_distribution,
                    extract_summary, l_to_marginal,
                    lumped_exchange_matrix, psrf, psrf_curve, run_chains,
                    stationarity_check, theorem_bound, transition_matrix,
                    tv_mixing_times_all)
from srmcmc.chains import chain_rng
from srmcmc.dpp import rbf_kernel, spectrum_step_kernel
from srmcmc.measures import NEG_INF

from conftest import fixture_suite


def verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {tag}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def acceptance_fixtures(n):
    """product / diag DPP / seeded random PSD DPP / k-conditioned uniform."""
    suite = fixture_suite(n)[:3]
    suite.append(("k-conditioned-uniform", CardinalityConditionedMeasure(
        ProductMeasure([0.5] * n), max(1, n // 2))))
    return suite


def exchange_shells(measure):
    n = measure.n
    for k in range(1, n):
        try:
            yield transition_matrix(measure, "exchange", cardinality=k)
        except ValueError:
            continue  # no positive-weight states on this shell


def test_criterion_1_stationarity():
    worst = 0.0
    for n in range(2, 7):
        for name, measure in acceptance_fixtures(n):
            dist = enumerate_distribution(measure)
            tms = [transition_matrix(measure, "add-delete"),
                   transition_matrix(measure, "projection")]
            tms.extend(exchange_shells(measure))
            for tm in tms:
                worst = max(worst, stationarity_check(tm, dist),
                            detailed_balance_check(tm, dist))
    verdict(1, "stationarity and detailed balance", worst <= 1e-10,
            f"max residual {worst:.2e}")


def test_criterion_2_lumping_equivalence():
    worst = 0.0
    for n in range(2, 6):
        for name, measure in acceptance_fixtures(n):
            lumped = lumped_exchange_matrix(measure)
            proj = transition_matrix(measure, "projection")
            worst = max(worst, float(np.max(np.abs(lumped.P - proj.P))))
    verdict(2, "homogenized exchange chain lumps to projection chain",
            worst <= 1e-12, f"max entry diff {worst:.2e}")


def test_criterion_3_delete_factor_correction():
    m = LEnsemble(np.diag([2.0, 3.0]))
    dist = enumerate_distribution(m)
    literal = stationarity_check(
        transition_matrix(m, "projection", paper_literal_delete=True), dist)
    corrected_tm = transition_matrix(m, "projection")
    corrected = stationarity_check(corrected_tm, dist)
    db = detailed_balance_check(corrected_tm, dist)
    verdict(3, "printed delete factor breaks stationarity; corrected holds",
            literal > 1e-3 and corrected <= 1e-10 and db <= 1e-10,
            f"literal {literal:.3e}, corrected {corrected:.2e}, db {db:.2e}")


def test_criterion_4_mixing_time_bound_dominates():
    ok = True
    detail = ""
    for n in range(2, 9):
        for name, measure in acceptance_fixtures(n):
            dist = enumerate_distribution(measure)
            tm = transition_matrix(measure, "projection")
            mix = tv_mixing_times_all(tm, dist, [0.05, 0.01])
            pi = np.array([dist.probs[m] for m in tm.states])
            pi = pi / pi.sum()
            for eps in (0.05, 0.01):
                for i, mask in enumerate(tm.states):
                    bound = theorem_bound(n, bin(mask).count("1"),
                                          math.log(pi[i]), eps)
                    if mix[eps][i] > bound:
                        ok = False
                        detail = (f"{name} n={n} S0={mask:b} eps={eps}: "
                                  f"{mix[eps][i]} > {bound:.1f}")
    verdict(4, "exact TV mixing times below the 2N^2 bound", ok, detail)


@pytest.mark.slow
def test_criterion_5_marginals_at_scale():
    n = 100
    rng = np.random.default_rng(1234 + n)
    A = rng.standard_normal((n, n))
    m = LEnsemble(A @ A.T / n)
    target = np.diag(l_to_marginal(m))

    trs = run_chains(m, ChainSpec("projection", steps=200_000, thin=10,
                                  seed=7), 10)
    est, _ = empirical_marginals(trs)
    chain_err = float(np.max(np.abs(est - target)))

    srng = np.random.default_rng(99)
    sampler = SpectralSampler(m)
    counts = np.zeros(n)
    draws = 10_000
    for _ in range(draws):
        counts[list(sampler.sample(srng).indices())] += 1
    iid_err = float(np.max(np.abs(counts / draws - target)))

    verdict(5, "pooled singleton marginals match diag(L(I+L)^-1)",
            chain_err <= 0.02 and iid_err <= 0.02,
            f"projection {chain_err:.4f}, spectral {iid_err:.4f}")


def psrf_crossing(transcripts, statistics, thin, stride):
    """(crossing step, first-checkpoint step) of the worst R-hat over statistics.

    At each checkpoint of ``psrf_curve`` the monitored value is the maximum
    R-hat over ``statistics``; the crossing is the first checkpoint where it is
    at most 1.05, or None if it never is. Both steps are in chain steps.
    """
    curves = [psrf_curve(extract_summary(transcripts, s), stride=stride)
              for s in statistics]
    stops = [stop for stop, _ in curves[0]]
    worst = np.max([[r for _, r in curve] for curve in curves], axis=0)
    hits = np.flatnonzero(worst <= 1.05)
    return (stops[hits[0]] * thin if hits.size else None), stops[0] * thin


@pytest.mark.slow
def test_criterion_6_chain_ordering_qualitative():
    def informative(hit, first):
        return hit is not None and hit > first

    budget, thin = 500_000, 50
    m = spectrum_step_kernel(60, 30, 500.0, 1.0 / 500.0, chain_rng(0, 10_000))
    indicators = [("indicator", i) for i in range(m.n)]
    spectrum = {}
    for kind in ("projection", "add-delete"):
        trs = run_chains(m, ChainSpec(kind, steps=budget, thin=thin, seed=42,
                                      init="random-positive"), 10)
        spectrum[kind] = psrf_crossing(trs, indicators, thin, stride=10)
    ad_hit = spectrum["add-delete"][0]
    spectrum_ok = (informative(*spectrum["projection"])
                   and (ad_hit is None
                        or (informative(*spectrum["add-delete"])
                            and ad_hit > spectrum["projection"][0])))

    rng = chain_rng(0, 10_000)
    rbf = rbf_kernel(rng.random((200, 5)), 0.5)
    rbf_cross = {}
    for kind in ("projection", "add-delete"):
        trs = run_chains(rbf, ChainSpec(kind, steps=20_000, thin=10, seed=42,
                                        init="random-positive"), 10)
        rbf_cross[kind] = psrf_crossing(trs, ["cardinality"], 10, stride=1)
    rbf_ok = (informative(*rbf_cross["add-delete"])
              and informative(*rbf_cross["projection"])
              and rbf_cross["add-delete"][0] <= rbf_cross["projection"][0])

    detail = "; ".join(
        f"{name} {kind}: {stat} crossing {hit}, first checkpoint {first}"
        for name, stat, table in (
            ("spectrum-step", "max indicator R-hat", spectrum),
            ("rbf", "cardinality R-hat", rbf_cross))
        for kind, (hit, first) in table.items())
    verdict(6, "qualitative chain ordering on spectrum-step and rbf kernels",
            spectrum_ok and rbf_ok, detail)


def test_criterion_7_numerical_kernels():
    # exhaustive Schur-vs-naive ratio sweep at N = 6
    n = 6
    rng = np.random.default_rng(1234 + n)
    A = rng.standard_normal((n, n))
    m = LEnsemble(A @ A.T / n)
    worst_rel = 0.0
    for mask in range(1 << n):
        st = SubsetState.from_bitmask(mask, n)
        if m.log_weight(st) == NEG_INF:
            continue
        cache = CholeskyCache(m.L, st.indices())
        for t in range(n):
            if st.contains(t):
                a, b = cache.delete_ratio(t), m.delete_ratio(st, t)
            else:
                a, b = cache.add_ratio(t), m.add_ratio(st, t)
            worst_rel = max(worst_rel, abs(a - b) / max(abs(b), 1e-300))

    # log-det drift over 10^4 accepted moves at N = 40
    n = 40
    rng = np.random.default_rng(9)
    A = rng.standard_normal((n, n))
    m = LEnsemble(A @ A.T / n)
    cache = CholeskyCache(m.L, SubsetState.from_indices([], n).indices())
    cur = set()
    accepted = 0
    while accepted < 10_000:
        if cur and rng.random() < 0.5:
            s = sorted(cur)[rng.integers(len(cur))]
            cache.apply_delete(s)
            cur.discard(s)
            accepted += 1
        else:
            t = int(rng.integers(n))
            if t not in cur and cache.add_ratio(t) > 1e-9:
                cache.apply_add(t)
                cur.add(t)
                accepted += 1
    ref = dpp_log_weight(m.L, SubsetState.from_indices(sorted(cur), n))
    drift = abs(cache.log_det - ref) / max(abs(ref), 1e-300)

    verdict(7, "incremental ratio and log-det accuracy",
            worst_rel <= 1e-8 and drift <= 1e-6,
            f"ratio rel err {worst_rel:.2e}, drift {drift:.2e}")


def test_criterion_8_psrf_unit_values():
    hand = psrf(np.array([[1.0, 2.0, 3.0, 4.0]] * 2))
    hand_ok = abs(hand - math.sqrt(0.75)) <= 1e-12
    sentinel_ok = psrf(np.array([[1.0] * 3, [2.0] * 3])) == math.inf
    x = np.random.default_rng(0).standard_normal((4, 30))
    affine_ok = (psrf(4.0 * x) == psrf(x)
                 and abs(psrf(5.0 * x + 2.0) - psrf(x)) <= 1e-12)
    verdict(8, "psrf reference values and invariances",
            hand_ok and sentinel_ok and affine_ok,
            f"hand value {hand!r}")


def test_criterion_9_log_submodularity():
    holds_p, worst_p, _ = check_log_submodular(
        ProductMeasure([0.3, 0.8, 0.5, 0.6]))
    product_ok = holds_p and abs(worst_p) <= 1e-9
    dpp_ok = True
    for n in range(2, 7):
        for name, measure in acceptance_fixtures(n):
            if not isinstance(measure, LEnsemble):
                continue
            holds, worst, _ = check_log_submodular(measure)
            dpp_ok = dpp_ok and holds
    holds_t, _, _ = check_log_submodular(TableMeasure([1.0, 0.1, 0.1, 1.0]))
    verdict(9, "log-submodularity held, supermodular fixture rejected",
            product_ok and dpp_ok and not holds_t)
