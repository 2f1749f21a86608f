import itertools
import math
import random

import numpy as np
import pytest

from srmcmc import (CardinalityConditionedMeasure, ProductMeasure, SubsetState,
                    SymmetricHomogenization, TableMeasure)
from srmcmc.measures import NEG_INF, MeasureOracle, log_binomial

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


def test_product_log_weight_bits_match_np_sum():
    # The log weight is one add-reduction; pin its bits to np.sum's.
    rng = np.random.default_rng(20)
    for n in range(1, 301):
        for q in (rng.random(n), rng.choice([0.0, 1.0, 0.4], n)):
            m = ProductMeasure(q)
            with np.errstate(divide="ignore"):
                logq, log1mq = np.log(q), np.log1p(-q)
            for _ in range(4):
                member = rng.random(n) < 0.5
                ref = float(np.sum(np.where(member, logq, log1mq)))
                assert m.log_weight(SubsetState(member)) == ref


def test_product_swap_ratio_matches_generic_ratio():
    # The closed form against the two-log-weight ratio of the base class, on
    # random q and on q with 0 and 1 entries placed so that pi(S) > 0.
    rng = np.random.default_rng(22)
    for n in (2, 3, 7, 40):
        for trial in range(30):
            member = rng.random(n) < 0.5
            member[:2] = True, False
            q = rng.random(n)
            if trial % 3 == 2:
                q = np.where(rng.random(n) < 0.3, member.astype(float), q)
            m = ProductMeasure(q)
            st = SubsetState(member)
            for s in st.indices().tolist():
                for t in (~member).nonzero()[0].tolist():
                    want = MeasureOracle._ratio(m, st, st.with_swapped(s, t))
                    assert m.swap_ratio(st, s, t) == pytest.approx(
                        want, rel=1e-12, abs=0.0)
    m = ProductMeasure([0.3, 0.8, 0.5])
    with pytest.raises(ValueError, match="not in set"):
        m.swap_ratio(S([1], 3), 0, 2)
    with pytest.raises(ValueError, match="already in set"):
        m.swap_ratio(S([0, 1], 3), 0, 1)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    # A chain on a NaN weight would accept every move into or out of it.
    with pytest.raises(ValueError, match="NaN"):
        ProductMeasure([bad, 0.5])
    with pytest.raises(ValueError, match="finite"):
        TableMeasure([1.0, bad, 0.5, 2.0])


def test_subset_state_basics():
    st = S([1, 3], 5)
    assert st.cardinality == 2
    assert st.bitmask() == 0b01010
    assert list(st.with_swapped(3, 4).indices()) == [1, 4]
    with pytest.raises(ValueError):
        S([5], 5)


@pytest.mark.parametrize("move, args, word", [
    ("with_added", (3,), "element 3 already in set"),
    ("with_deleted", (0,), "element 0 not in set"),
    ("with_swapped", (0, 4), "element 0 not in set"),
    ("with_swapped", (1, 3), "element 3 already in set"),
])
def test_subset_state_copies_refuse_illegal_moves(move, args, word):
    st = S([1, 3], 5)
    with pytest.raises(ValueError, match=word):
        getattr(st, move)(*args)
    assert list(st.indices()) == [1, 3] and st.cardinality == 2


def test_subset_state_copies_leave_the_original():
    st = S([1, 3], 5)
    for moved, want in ((st.with_added(0), [0, 1, 3]),
                        (st.with_deleted(3), [1]),
                        (st.with_swapped(1, 4), [3, 4])):
        assert list(moved.indices()) == want
        assert moved.cardinality == len(want)
    assert list(st.indices()) == [1, 3] and st.cardinality == 2


def loop_membership(mask, n):
    """Bit i of mask is element i: the element-by-element definition."""
    m = np.zeros(n, dtype=bool)
    for i in range(n):
        if mask >> i & 1:
            m[i] = True
    return m


def loop_bitmask(membership):
    mask = 0
    for i in np.flatnonzero(membership):
        mask |= 1 << int(i)
    return mask


@pytest.mark.parametrize("n", [0, 1, 16, 24, 70])
def test_bitmask_round_trip_matches_bit_loops(n):
    draw = random.Random(n).getrandbits
    masks = [0, (1 << n) - 1] + [draw(n) for _ in range(50)]
    for mask in masks:
        st = SubsetState.from_bitmask(mask, n)
        assert np.array_equal(st.membership, loop_membership(mask, n))
        assert st.cardinality == bin(mask).count("1")
        assert st.bitmask() == loop_bitmask(st.membership) == mask
    # bits at and above n are ignored, negative masks read in two's complement
    for mask in masks[:5]:
        for other in (mask | (draw(8) << n), -1 - mask, np.int64(mask & 0xFF)):
            assert np.array_equal(SubsetState.from_bitmask(other, n).membership,
                                  loop_membership(other, n))
