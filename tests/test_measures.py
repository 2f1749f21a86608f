import itertools
import math

import numpy as np
import pytest

from srmcmc import (CardinalityConditionedMeasure, ProductMeasure, SubsetState,
                    SymmetricHomogenization, TableMeasure)
from srmcmc.measures import NEG_INF, log_binomial

from conftest import fixture_suite, uniform_table


def S(indices, n):
    return SubsetState.from_indices(indices, n)


class TestLogWeight:
    def test_symmetric_product_all_subsets_equal(self):
        m = ProductMeasure([0.5, 0.5])
        for mask in range(4):
            assert m.log_weight(SubsetState.from_bitmask(mask, 2)) == \
                pytest.approx(math.log(0.25))

    def test_product_direct_evaluation(self):
        m = ProductMeasure([0.3, 0.8])
        assert m.log_weight(S([1], 2)) == pytest.approx(math.log(0.7 * 0.8))

    def test_conditioned_zero_off_shell(self):
        m = CardinalityConditionedMeasure(ProductMeasure([0.5, 0.5]), 1)
        assert m.log_weight(S([0, 1], 2)) == NEG_INF

    def test_size_mismatch(self):
        m = ProductMeasure([0.3, 0.8])
        with pytest.raises(ValueError):
            m.log_weight(S([0], 3))


class TestRatios:
    def test_product_add_ratio_half(self):
        m = ProductMeasure([0.5, 0.5, 0.5])
        assert m.add_ratio(S([0], 3), 1) == pytest.approx(1.0)

    def test_product_add_ratio_direct(self):
        m = ProductMeasure([0.3, 0.8])
        assert m.add_ratio(S([], 2), 1) == pytest.approx(4.0)

    def test_zero_target_weight(self):
        m = TableMeasure([1.0, 0.0, 1.0, 1.0])  # pi({0}) = 0
        assert m.add_ratio(S([], 2), 0) == 0.0

    def test_membership_errors(self):
        m = ProductMeasure([0.3, 0.8])
        with pytest.raises(ValueError):
            m.add_ratio(S([1], 2), 1)
        with pytest.raises(ValueError):
            m.delete_ratio(S([1], 2), 0)
        with pytest.raises(ValueError):
            m.swap_ratio(S([1], 2), 1, 1)

    def test_zero_current_weight_is_error(self):
        m = TableMeasure([1.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            m.add_ratio(S([0], 2), 1)

    def test_uniform_table_ratios_one(self):
        m = uniform_table(3)
        st = S([0, 2], 3)
        assert m.delete_ratio(st, 0) == pytest.approx(1.0)
        assert m.swap_ratio(st, 2, 1) == pytest.approx(1.0)

    def test_product_swap_direct(self):
        m = ProductMeasure([0.3, 0.8])
        assert m.swap_ratio(S([0], 2), 0, 1) == pytest.approx(0.56 / 0.06)

    def test_conditioned_singleton_swaps(self):
        m = CardinalityConditionedMeasure(ProductMeasure([0.3, 0.8]), 1)
        r = m.swap_ratio(S([0], 2), 0, 1)
        assert math.isfinite(r) and r > 0
        assert m.delete_ratio(S([0], 2), 0) == 0.0


class TestRatioConsistency:
    @pytest.mark.parametrize("name,measure", fixture_suite(5))
    def test_exhaustive_exp_consistency(self, name, measure):
        n = measure.n
        for mask in range(1 << n):
            st = SubsetState.from_bitmask(mask, n)
            lw = measure.log_weight(st)
            if lw == NEG_INF:
                continue
            for t in range(n):
                if st.contains(t):
                    expected = math.exp(measure.log_weight(st.with_deleted(t)) - lw)
                    assert measure.delete_ratio(st, t) == \
                        pytest.approx(expected, rel=1e-12)
                else:
                    expected = math.exp(measure.log_weight(st.with_added(t)) - lw)
                    assert measure.add_ratio(st, t) == \
                        pytest.approx(expected, rel=1e-12)
            for s_el in st.indices():
                for t in range(n):
                    if st.contains(t):
                        continue
                    expected = math.exp(
                        measure.log_weight(st.with_swapped(s_el, t)) - lw)
                    assert measure.swap_ratio(st, int(s_el), t) == \
                        pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("name,measure", fixture_suite(4))
    def test_swap_factors_into_delete_then_add(self, name, measure):
        n = measure.n
        for mask in range(1 << n):
            st = SubsetState.from_bitmask(mask, n)
            if measure.log_weight(st) == NEG_INF:
                continue
            for s_el in st.indices():
                smaller = st.with_deleted(int(s_el))
                if measure.log_weight(smaller) == NEG_INF:
                    continue
                for t in range(n):
                    if st.contains(t):
                        continue
                    lhs = measure.swap_ratio(st, int(s_el), t)
                    rhs = measure.add_ratio(smaller, t) * \
                        measure.delete_ratio(st, int(s_el))
                    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)


class TestSymmetricHomogenization:
    def test_one_element_base(self):
        base = TableMeasure([0.3, 0.7])
        sh = SymmetricHomogenization(base)
        assert math.exp(sh.log_weight(S([0], 2))) == pytest.approx(0.7)
        assert math.exp(sh.log_weight(S([1], 2))) == pytest.approx(0.3)
        assert sh.log_weight(S([], 2)) == NEG_INF
        assert sh.log_weight(S([0, 1], 2)) == NEG_INF

    def test_off_cardinality_is_zero(self):
        sh = SymmetricHomogenization(ProductMeasure([0.4, 0.6]))
        for mask in range(16):
            st = SubsetState.from_bitmask(mask, 4)
            if st.cardinality != 2:
                assert sh.log_weight(st) == NEG_INF

    def test_two_element_uniform_base(self):
        sh = SymmetricHomogenization(TableMeasure([0.25] * 4))
        assert math.exp(sh.log_weight(S([0, 1], 4))) == pytest.approx(0.25)
        assert math.exp(sh.log_weight(S([0, 2], 4))) == pytest.approx(0.125)

    def test_weight_depends_only_on_real_part(self):
        base = ProductMeasure([0.3, 0.8, 0.5, 0.6, 0.4][:5])
        sh = SymmetricHomogenization(base)
        n = 5
        by_real = {}
        for combo in itertools.combinations(range(2 * n), n):
            st = S(list(combo), 2 * n)
            real = frozenset(i for i in combo if i < n)
            lw = sh.log_weight(st)
            if real in by_real:
                assert lw == pytest.approx(by_real[real], abs=1e-12)
            else:
                by_real[real] = lw
            base_lw = base.log_weight(S(sorted(real), n))
            assert lw == pytest.approx(
                base_lw - log_binomial(n, len(real)), abs=1e-12)


def test_product_measure_self_normalized():
    m = ProductMeasure([0.3, 0.8, 0.5, 0.6, 0.4, 0.7, 0.55, 0.35, 0.9, 0.1,
                        0.25, 0.65])
    total = sum(math.exp(m.log_weight(SubsetState.from_bitmask(mask, 12)))
                for mask in range(1 << 12))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_table_measure_validation():
    with pytest.raises(ValueError):
        TableMeasure([1.0, 2.0, 3.0])  # not a power of two
    with pytest.raises(ValueError):
        TableMeasure([0.0, 0.0])
    with pytest.raises(ValueError):
        TableMeasure([1.0, -1.0])


def test_subset_state_basics():
    st = S([1, 3], 5)
    assert st.cardinality == 2
    assert st.bitmask() == 0b01010
    assert list(st.with_swapped(3, 4).indices()) == [1, 4]
    with pytest.raises(ValueError):
        S([5], 5)
