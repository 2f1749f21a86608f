import hashlib
import itertools
import math

import numpy as np
import pytest

from srmcmc import (CardinalityConditionedMeasure, ChainSpec, LEnsemble,
                    ProductMeasure, SubsetState, SymmetricHomogenization,
                    TableMeasure, chain_rng, check_log_submodular,
                    detailed_balance_check, enumerate_distribution,
                    exact_marginals, lumped_exchange_matrix,
                    stationarity_check, step_add_delete, step_exchange,
                    step_projection, transition_matrix, tv_mixing_times_all)
from srmcmc import exact
from srmcmc.chains import initial_state
from srmcmc.exact import TransitionMatrix, restrict_distribution
from srmcmc.measures import NEG_INF, ChainState

from conftest import fixture_suite, random_psd_fixture, uniform_table


def record_states(monkeypatch, cls):
    """Wrap ``cls.log_weight`` to record a copy of the membership,
    cardinality and ground set size of every state it is passed."""
    seen = []
    original = cls.log_weight

    def recorded(self, S):
        seen.append((S.membership.copy(), S.cardinality, S.n))
        return original(self, S)

    monkeypatch.setattr(cls, "log_weight", recorded)
    return seen


def assert_states_match(seen, masks, n):
    masks = list(masks)
    assert len(seen) == len(masks)
    for mask, (membership, cardinality, size) in zip(masks, seen):
        want = SubsetState.from_bitmask(mask, n)
        assert membership.dtype == bool
        assert np.array_equal(membership, want.membership)
        assert cardinality == want.cardinality
        assert size == want.n == n


class TestEnumeration:
    def test_diag_dpp_distribution(self):
        dist = enumerate_distribution(LEnsemble(np.diag([2.0, 3.0])))
        assert np.allclose(dist.probs, np.array([1.0, 2.0, 3.0, 6.0]) / 12.0)
        assert dist.log_z == pytest.approx(math.log(12.0))

    def test_diag_dpp_marginals(self):
        dist = enumerate_distribution(LEnsemble(np.diag([2.0, 3.0])))
        assert np.allclose(exact_marginals(dist), [2 / 3, 3 / 4])

    def test_product_marginals_are_q(self):
        q = [0.3, 0.8, 0.5]
        dist = enumerate_distribution(ProductMeasure(q))
        assert np.allclose(exact_marginals(dist), q, atol=1e-12)

    def test_zero_measure_refused(self):
        # q = 1 gives the empty set, the one set on the k = 0 shell, weight 0.
        m = CardinalityConditionedMeasure(ProductMeasure([1.0, 1.0]), 0)
        with pytest.raises(ValueError, match="zero weight to every subset"):
            enumerate_distribution(m)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            enumerate_distribution(ProductMeasure([0.5] * 21))

    @pytest.mark.parametrize("weights", [np.r_[0.0, np.arange(1, 32) % 5],
                                         np.ones(1)])
    def test_marginals_match_definition(self, weights):
        dist = enumerate_distribution(TableMeasure(weights))
        want = [sum(p for mask, p in enumerate(dist.probs) if mask >> i & 1)
                for i in range(dist.n)]
        got = exact_marginals(dist)
        assert got.shape == (dist.n,)
        assert got == pytest.approx(want, rel=1e-14, abs=1e-16)

    def test_one_log_weight_call_per_subset(self, monkeypatch):
        """The oracle enumerates from log_weight itself, once per subset and
        in bitmask order, with no batched shortcut of the measure's own."""
        seen = []
        original = LEnsemble.log_weight

        def counted(self, S):
            seen.append(S.bitmask())
            return original(self, S)

        monkeypatch.setattr(LEnsemble, "log_weight", counted)
        enumerate_distribution(random_psd_fixture(10))
        assert seen == list(range(1 << 10))

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_enumerated_states_match_from_bitmask(self, n, monkeypatch):
        seen = record_states(monkeypatch, TableMeasure)
        enumerate_distribution(uniform_table(n))
        assert_states_match(seen, range(1 << n), n)

    def test_probabilities_reproduce_across_versions(self):
        """sha256 of repr of the probabilities' float.hex at N=12, and log Z,
        recorded at commit c801f30: enumeration stays bit-identical."""
        dist = enumerate_distribution(random_psd_fixture(12))
        digest = hashlib.sha256(
            repr([p.hex() for p in dist.probs]).encode()).hexdigest()
        assert digest == ("fc51bc7ef6279fab221f0a93e16626fc"
                          "f7d762cc6c842c31597c9f596f84c70c")
        assert dist.log_z.hex() == "0x1.9fabce871c2b6p+2"


class TestTransitionMatrices:
    def test_uniform_add_delete_entries(self):
        tm = transition_matrix(uniform_table(3), "add-delete")
        for i, m in enumerate(tm.states):
            for j, m2 in enumerate(tm.states):
                if i == j:
                    assert tm.P[i, j] == pytest.approx(0.5)
                elif bin(m ^ m2).count("1") == 1:
                    assert tm.P[i, j] == pytest.approx(1 / 6)
                else:
                    assert tm.P[i, j] == 0.0

    def test_single_element_uniform_projection(self):
        tm = transition_matrix(TableMeasure([0.5, 0.5]), "projection")
        want = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(tm.P, want)

    @pytest.mark.parametrize("name,measure", fixture_suite(5))
    @pytest.mark.parametrize("kind", ["add-delete", "projection"])
    def test_rows_sum_to_one(self, name, measure, kind):
        tm = transition_matrix(measure, kind)
        assert np.allclose(tm.P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(tm.P >= -1e-15)

    def test_exchange_needs_cardinality(self):
        with pytest.raises(ValueError):
            transition_matrix(uniform_table(3), "exchange")

    def test_exchange_shell_states(self):
        tm = transition_matrix(uniform_table(4), "exchange", cardinality=2)
        assert all(bin(m).count("1") == 2 for m in tm.states)
        assert len(tm.states) == 6
        assert np.allclose(tm.P.sum(axis=1), 1.0)

    def test_unknown_kind_rejected_before_enumerating(self, monkeypatch):
        seen = []
        original = LEnsemble.log_weight

        def counted(self, S):
            seen.append(S.bitmask())
            return original(self, S)

        monkeypatch.setattr(LEnsemble, "log_weight", counted)
        with pytest.raises(ValueError, match="unknown chain kind"):
            transition_matrix(random_psd_fixture(4), "gibbs")
        assert seen == []

    @pytest.mark.parametrize("kind", ["add-delete", "projection"])
    def test_empty_ground_set_refused(self, kind):
        with pytest.raises(ValueError, match="nonempty ground set"):
            transition_matrix(uniform_table(0), kind)


class TestStationarity:
    @pytest.mark.parametrize("name,measure", fixture_suite(5))
    @pytest.mark.parametrize("kind", ["add-delete", "projection"])
    def test_full_support_chains(self, name, measure, kind):
        dist = enumerate_distribution(measure)
        tm = transition_matrix(measure, kind)
        assert stationarity_check(tm, dist) <= 1e-10
        assert detailed_balance_check(tm, dist) <= 1e-10

    @pytest.mark.parametrize("name,measure", fixture_suite(5))
    def test_exchange_on_shell(self, name, measure):
        dist = enumerate_distribution(measure)
        tm = transition_matrix(measure, "exchange", cardinality=2)
        assert stationarity_check(tm, dist) <= 1e-10
        assert detailed_balance_check(tm, dist) <= 1e-10

    def test_literal_delete_factor_breaks_stationarity(self):
        m = LEnsemble(np.diag([2.0, 3.0]))
        dist = enumerate_distribution(m)
        tm = transition_matrix(m, "projection", paper_literal_delete=True)
        assert stationarity_check(tm, dist) > 1e-3


class TestLumping:
    def test_single_element_hand_values(self):
        # base pi = (0.3, 0.7); homogenized exchange accepts the downward
        # swap with probability 3/7, picked with probability 1/2.
        tm = lumped_exchange_matrix(TableMeasure([0.3, 0.7]))
        i0, i1 = tm.states.index(0b0), tm.states.index(0b1)
        assert tm.P[i1, i0] == pytest.approx(3 / 14)
        assert tm.P[i1, i1] == pytest.approx(1 - 3 / 14)
        assert tm.P[i0, i1] == pytest.approx(0.5)

    @pytest.mark.parametrize("name,measure", fixture_suite(4))
    def test_lumped_equals_projection(self, name, measure):
        lumped = lumped_exchange_matrix(measure)
        proj = transition_matrix(measure, "projection")
        assert lumped.states == proj.states
        assert np.max(np.abs(lumped.P - proj.P)) <= 1e-12

    def test_lumpability_violation_names_projection(self, monkeypatch):
        monkeypatch.setattr(exact, "LUMP_TOL", -1.0)
        with pytest.raises(ArithmeticError,
                           match=r"lumpability violated for projection "
                                 r"[01]+: row spread"):
            lumped_exchange_matrix(ProductMeasure([0.3, 0.8, 0.5]))

    def test_homogenization_enumerated_on_its_shell(self, monkeypatch):
        seen = []
        original = SymmetricHomogenization.log_weight

        def counted(self, R):
            seen.append(R.bitmask())
            return original(self, R)

        monkeypatch.setattr(SymmetricHomogenization, "log_weight", counted)
        lumped_exchange_matrix(ProductMeasure([0.3, 0.8, 0.5, 0.6]))
        shell = [m for m in range(1 << 8) if bin(m).count("1") == 4]
        assert len(shell) == math.comb(8, 4) == 70
        assert seen == shell

    def test_homogenization_shell_states_match_from_bitmask(self, monkeypatch):
        seen = record_states(monkeypatch, SymmetricHomogenization)
        lumped_exchange_matrix(ProductMeasure([0.3, 0.8, 0.5, 0.6, 0.2]))
        shell = [m for m in range(1 << 10) if bin(m).count("1") == 5]
        assert_states_match(seen, shell, 10)

    def test_homogenization_marginalizes_to_base(self):
        base = ProductMeasure([0.3, 0.8, 0.5])
        n = base.n
        sh_dist = enumerate_distribution(SymmetricHomogenization(base))
        base_dist = enumerate_distribution(base)
        pooled = np.zeros(1 << n)
        for mask, p in enumerate(sh_dist.probs):
            pooled[mask & ((1 << n) - 1)] += p
        assert np.allclose(pooled, base_dist.probs, atol=1e-12)


class TestMixingTimes:
    def test_single_element_projection_mixes_in_one_step(self):
        m = TableMeasure([0.5, 0.5])
        tm = transition_matrix(m, "projection")
        dist = enumerate_distribution(m)
        mix = tv_mixing_times_all(tm, dist, [0.05])
        assert mix[0.05][tm.states.index(0b0)] == 1

    def test_crossing_is_first_step_within_eps(self):
        m = ProductMeasure([0.3, 0.8, 0.5, 0.6])
        dist = enumerate_distribution(m)
        tm = transition_matrix(m, "add-delete")
        pi = restrict_distribution(dist, tm.states)
        mix = tv_mixing_times_all(tm, dist, [0.05, 0.01])
        for eps in (0.05, 0.01):
            for idx, t in enumerate(mix[eps]):
                tv = [0.5 * np.abs(np.linalg.matrix_power(tm.P, s)[idx]
                                   - pi).sum() for s in (t - 1, t)]
                assert tv[0] > eps >= tv[1]

    def test_smaller_eps_never_faster(self):
        m = LEnsemble(np.diag([2.0, 3.0, 1.5]))
        dist = enumerate_distribution(m)
        tm = transition_matrix(m, "projection")
        batched = tv_mixing_times_all(tm, dist, [0.05, 0.01])
        assert np.all(batched[0.01] >= batched[0.05])

    def test_eps_validation(self):
        m = TableMeasure([0.5, 0.5])
        tm = transition_matrix(m, "projection")
        dist = enumerate_distribution(m)
        for eps in (0.0, -0.1):
            with pytest.raises(ValueError, match="eps"):
                tv_mixing_times_all(tm, dist, [eps])

    def test_empty_eps_list(self):
        m = TableMeasure([0.5, 0.5])
        tm = transition_matrix(m, "projection")
        assert tv_mixing_times_all(tm, enumerate_distribution(m), []) == {}

    def test_identity_chain_never_crosses(self):
        """Add-delete leaves a k-conditioned measure's shell, so its matrix
        is the identity and no start reaches pi."""
        m = CardinalityConditionedMeasure(ProductMeasure([0.5] * 4), 2)
        tm = transition_matrix(m, "add-delete")
        assert np.array_equal(tm.P, np.eye(6))
        with pytest.raises(ArithmeticError, match="no TV crossing"):
            tv_mixing_times_all(tm, enumerate_distribution(m), [0.05])

    def test_restrict_zero_mass_rejected(self):
        m = CardinalityConditionedMeasure(ProductMeasure([0.5, 0.5]), 1)
        dist = enumerate_distribution(m)
        with pytest.raises(ValueError):
            restrict_distribution(dist, [0b00, 0b11])


class TestLogSubmodularity:
    def test_product_is_tight(self):
        holds, worst, _ = check_log_submodular(ProductMeasure([0.3, 0.8, 0.5]))
        assert holds
        assert worst == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("name,measure", fixture_suite(5))
    def test_fixture_suite_holds(self, name, measure):
        holds, worst, _ = check_log_submodular(measure)
        assert holds, (name, worst)

    def test_supermodular_table_violated(self):
        holds, worst, witness = check_log_submodular(
            TableMeasure([1.0, 0.1, 0.1, 1.0]))
        assert not holds
        assert worst == pytest.approx(math.log(0.01), abs=1e-9)
        assert set(witness) == {0b01, 0b10}

    def test_size_cap(self):
        with pytest.raises(ValueError):
            check_log_submodular(ProductMeasure([0.5] * 13))


def loop_ratio(lw_new, lw_cur):
    if lw_new == NEG_INF:
        return 0.0
    d = lw_new - lw_cur
    return math.inf if d > 700.0 else math.exp(d)


def loop_log_weights(measure, n):
    return np.array([measure.log_weight(SubsetState.from_bitmask(mask, n))
                     for mask in range(1 << n)])


def loop_transition_matrix(measure, chain_kind, cardinality=None,
                           paper_literal_delete=False):
    """The state-by-state, move-by-move definition of each chain's matrix."""
    n = measure.n
    lw = loop_log_weights(measure, n)
    states = [m for m in range(1 << n) if np.isfinite(lw[m])]
    if chain_kind == "exchange":
        states = [m for m in states if bin(m).count("1") == cardinality]
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
                acc = min(1.0, loop_ratio(lw[m2], lw[m]))
                if m2 in pos:
                    P[i, pos[m2]] += 0.5 / n * acc
        elif chain_kind == "exchange":
            if 0 < k < n:
                for s in inside:
                    for t in outside:
                        m2 = m ^ (1 << s) ^ (1 << t)
                        acc = min(1.0, loop_ratio(lw[m2], lw[m]))
                        if m2 in pos:
                            P[i, pos[m2]] += 0.5 / (k * (n - k)) * acc
        else:
            for t in outside:
                m2 = m | (1 << t)
                acc = min(1.0, loop_ratio(lw[m2], lw[m]) * (k + 1) / (n - k))
                if m2 in pos:
                    P[i, pos[m2]] += (n - k) / (2.0 * n * n) * acc
            for s in inside:
                for t in outside:
                    m2 = m ^ (1 << s) | (1 << t)
                    acc = min(1.0, loop_ratio(lw[m2], lw[m]))
                    if m2 in pos:
                        P[i, pos[m2]] += 1.0 / (2.0 * n * n) * acc
            for s in inside:
                m2 = m ^ (1 << s)
                if paper_literal_delete:
                    factor = k / (n - k + 1.0)
                else:
                    factor = (n - k + 1.0) / k
                acc = min(1.0, loop_ratio(lw[m2], lw[m]) * factor)
                if m2 in pos:
                    P[i, pos[m2]] += k / (2.0 * n * n) * acc
        P[i, i] += 1.0 - P[i].sum()
    return TransitionMatrix(n=n, states=states, P=P)


def loop_lumped_exchange_matrix(base):
    """Exchange chain on the homogenization over the size-n combinations of
    [2n], lumped column by column; each base row is its first member's."""
    n = base.n
    sh = SymmetricHomogenization(base)
    base_lw = loop_log_weights(base, n)
    base_states = [m for m in range(1 << n) if np.isfinite(base_lw[m])]
    base_pos = {m: i for i, m in enumerate(base_states)}
    r_states = []
    for combo in itertools.combinations(range(2 * n), n):
        mask = sum(1 << e for e in combo)
        if np.isfinite(base_lw[mask & ((1 << n) - 1)]):
            r_states.append(mask)
    r_pos = {m: i for i, m in enumerate(r_states)}
    r_lw = [sh.log_weight(SubsetState.from_bitmask(m, 2 * n))
            for m in r_states]
    P = np.zeros((len(r_states), len(r_states)))
    for m in r_states:
        i = r_pos[m]
        inside = [e for e in range(2 * n) if m >> e & 1]
        outside = [e for e in range(2 * n) if not m >> e & 1]
        for s in inside:
            for t in outside:
                j = r_pos.get(m ^ (1 << s) ^ (1 << t))
                if j is not None:
                    acc = min(1.0, loop_ratio(r_lw[j], r_lw[i]))
                    P[i, j] += 0.5 / (n * n) * acc
        P[i, i] += 1.0 - P[i].sum()
    proj = np.array([m & ((1 << n) - 1) for m in r_states])
    lumped_rows = np.zeros((len(r_states), len(base_states)))
    for j, pm in enumerate(proj):
        lumped_rows[:, base_pos[pm]] += P[:, j]
    lumped = np.zeros((len(base_states), len(base_states)))
    for bm, bi in base_pos.items():
        lumped[bi] = lumped_rows[np.flatnonzero(proj == bm)[0]]
    return TransitionMatrix(n=n, states=base_states, P=lumped)


def loop_tv_mixing_times_all(tm, dist, eps_list, max_steps=10**6):
    """First TV crossing for every start, one multiplication by P per step."""
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


REFERENCE_CASES = [(f"{name}-{n}", m) for n in range(1, 7)
                   for name, m in fixture_suite(n)] + [
    ("zero-weight-table", TableMeasure(np.r_[0.0, np.arange(1, 32) % 5]))]


MIXING_CASES = [(f"{name}-{n}", m) for n in range(1, 9)
                for name, m in fixture_suite(n)] + REFERENCE_CASES[-1:]
MIXING_EPS = [0.25, 0.05, 0.01, 0.001]


def assert_same_matrix(got, want):
    assert got.states == want.states
    assert all(type(m) is int for m in got.states)
    assert np.max(np.abs(got.P - want.P)) <= 1e-15


class TestLoopReferences:
    """The vectorized builders against the state-by-state loops above."""

    @pytest.mark.parametrize("name,measure", REFERENCE_CASES)
    def test_transition_matrices_match_loops(self, name, measure):
        assert_same_matrix(transition_matrix(measure, "add-delete"),
                           loop_transition_matrix(measure, "add-delete"))
        for literal in (False, True):
            assert_same_matrix(
                transition_matrix(measure, "projection",
                                  paper_literal_delete=literal),
                loop_transition_matrix(measure, "projection",
                                       paper_literal_delete=literal))
        shells = 0
        for k in range(measure.n + 1):
            try:
                want = loop_transition_matrix(measure, "exchange", k)
            except ValueError:
                with pytest.raises(ValueError, match="empty state space"):
                    transition_matrix(measure, "exchange", cardinality=k)
                continue
            assert_same_matrix(
                transition_matrix(measure, "exchange", cardinality=k), want)
            shells += 1
        assert shells >= 1

    @pytest.mark.parametrize("name,measure", MIXING_CASES)
    def test_mixing_times_match_loop(self, name, measure):
        dist = enumerate_distribution(measure)
        tms = [transition_matrix(measure, "projection")]
        # Add-delete leaves a k-conditioned measure's shell: P = I.
        if not name.startswith("k-conditioned"):
            tms.append(transition_matrix(measure, "add-delete"))
        if measure.n <= 6:
            for k in range(measure.n + 1):
                try:
                    tms.append(transition_matrix(measure, "exchange",
                                                 cardinality=k))
                except ValueError:
                    pass
        for tm in tms:
            got = tv_mixing_times_all(tm, dist, MIXING_EPS)
            want = loop_tv_mixing_times_all(tm, dist, MIXING_EPS)
            assert got.keys() == want.keys()
            for eps in MIXING_EPS:
                assert got[eps].dtype == np.int64
                assert np.array_equal(got[eps], want[eps]), eps

    @pytest.mark.parametrize("name,measure",
                             [c for c in REFERENCE_CASES if c[1].n <= 5])
    def test_lumped_matrix_matches_loops(self, name, measure):
        assert_same_matrix(lumped_exchange_matrix(measure),
                           loop_lumped_exchange_matrix(measure))


def proposal_width(chain_kind, move, n, k):
    """Probability that one step proposes a given move from a k-set."""
    if chain_kind == "add-delete":
        return 0.5 / n
    if chain_kind == "exchange":
        return 0.5 / (k * (n - k))
    return {"add": n - k, "swap": 1, "delete": k}[move] / (2.0 * n * n)


STEPPERS = {"add-delete": step_add_delete, "exchange": step_exchange,
            "projection": step_projection}


@pytest.mark.parametrize("name,measure", [
    *fixture_suite(5),
    ("k-dpp", CardinalityConditionedMeasure(random_psd_fixture(5), 2))])
@pytest.mark.parametrize("kind", sorted(STEPPERS))
def test_steppers_match_exact_matrices(name, measure, kind,
                                      metropolis_calls):
    """Every proposal's width times its acceptance probability is the exact
    matrix entry for that move, along a walk through the chain oracle."""
    rng = chain_rng(2016)
    S = ChainState(initial_state(measure, ChainSpec(
        kind, steps=1, init="random-positive"), rng).membership)
    tm = transition_matrix(measure, kind, cardinality=S.cardinality)
    pos = {m: i for i, m in enumerate(tm.states)}
    oracle = measure.chain_oracle(S)
    proposals = 0
    for _ in range(3000):
        m, k = S.bitmask(), S.cardinality
        out = STEPPERS[kind](oracle, S, rng)[1]
        if out.kind != "hold":
            move, p, s, t = metropolis_calls[-1]
            assert move == out.kind
            m2 = m ^ sum(1 << e for e in (s, t) if e is not None)
            want = tm.P[pos[m], pos[m2]] if m2 in pos else 0.0
            got = proposal_width(kind, move, measure.n, k) * p
            assert abs(got - want) <= 1e-12, (m, move, s, t)
            proposals += 1
    assert proposals == len(metropolis_calls) >= 500
