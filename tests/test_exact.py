import math

import numpy as np
import pytest

from srmcmc import (CardinalityConditionedMeasure, LEnsemble, ProductMeasure,
                    SymmetricHomogenization, TableMeasure,
                    check_log_submodular, detailed_balance_check,
                    enumerate_distribution, exact_marginals,
                    lumped_exchange_matrix, stationarity_check,
                    transition_matrix, tv_mixing_time, tv_mixing_times_all)
from srmcmc.exact import restrict_distribution, total_variation

from conftest import fixture_suite, uniform_table


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

    def test_size_cap(self):
        with pytest.raises(ValueError):
            enumerate_distribution(ProductMeasure([0.5] * 21))


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
        i0, i1 = tm.index_of(0b0), tm.index_of(0b1)
        assert tm.P[i1, i0] == pytest.approx(3 / 14)
        assert tm.P[i1, i1] == pytest.approx(1 - 3 / 14)
        assert tm.P[i0, i1] == pytest.approx(0.5)

    @pytest.mark.parametrize("name,measure", fixture_suite(4))
    def test_lumped_equals_projection(self, name, measure):
        lumped = lumped_exchange_matrix(measure)
        proj = transition_matrix(measure, "projection")
        assert lumped.states == proj.states
        assert np.max(np.abs(lumped.P - proj.P)) <= 1e-12

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
    def test_total_variation_identities(self):
        p = np.array([0.2, 0.8])
        assert total_variation(p, p) == 0.0
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_single_element_projection_mixes_in_one_step(self):
        m = TableMeasure([0.5, 0.5])
        tm = transition_matrix(m, "projection")
        dist = enumerate_distribution(m)
        assert tv_mixing_time(tm, dist, 0b0, 0.05) == 1

    def test_windowed_matches_first_crossing_for_lazy_chain(self):
        m = ProductMeasure([0.3, 0.8, 0.5, 0.6])
        dist = enumerate_distribution(m)
        tm = transition_matrix(m, "add-delete")
        batched = tv_mixing_times_all(tm, dist, [0.05, 0.01])
        for eps in (0.05, 0.01):
            for idx, s0 in enumerate(tm.states):
                assert tv_mixing_time(tm, dist, s0, eps) == \
                    batched[eps][idx]

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
        with pytest.raises(ValueError):
            tv_mixing_time(tm, dist, 0b0, 0.0)

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
