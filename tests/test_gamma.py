"""Gamma(a, t): closed form vs oracle, identities, and equality conditions."""

from math import comb

import pytest
from hypothesis import given, strategies as st

from giwb.gamma import (degree_equality_exact, gamma_closed, gamma_oracle,
                        gamma_property_suite, superadditive_equality_exact)


def compositions(parts, total):
    if parts == 1:
        yield (total,)
        return
    for z in range(total + 1):
        for rest in compositions(parts - 1, total - z):
            yield (z,) + rest


class TestValues:
    def test_known_values(self):
        assert gamma_closed(2, 3).value == 4
        assert gamma_closed(1, 4).value == 10
        assert gamma_closed(4, 1).value == 1
        assert gamma_closed(3, 0).value == 0

    def test_division_witnesses(self):
        gv = gamma_closed(3, 5)
        assert (gv.r, gv.s) == (2, 2)
        assert gv.r * gv.a + gv.s == gv.a + gv.t

    def test_closed_matches_oracle_on_grid(self):
        for a in range(1, 7):
            for t in range(0, 13):
                assert gamma_closed(a, t).value == gamma_oracle(a, t), (a, t)

    def test_closed_matches_raw_composition_minimum(self):
        for a in range(1, 5):
            for t in range(0, 7):
                raw = min(sum(comb(z, 2) for z in c)
                          for c in compositions(a, a + t))
                assert gamma_closed(a, t).value == raw, (a, t)

    @given(st.integers(1, 8), st.integers(0, 20), st.data())
    def test_value_is_a_lower_bound_on_any_composition(self, a, t, data):
        # Draw one composition of a + t into a parts and compare.
        remaining, parts = a + t, []
        for i in range(a - 1):
            z = data.draw(st.integers(0, remaining))
            parts.append(z)
            remaining -= z
        parts.append(remaining)
        assert gamma_closed(a, t).value <= sum(comb(z, 2) for z in parts)

    @pytest.mark.parametrize("a, t", [(0, 3), (-1, 0), (2, -1)])
    def test_domain_errors(self, a, t):
        with pytest.raises(ValueError):
            gamma_closed(a, t)
        with pytest.raises(ValueError):
            gamma_oracle(a, t)

    def test_oracle_domain_is_bounded(self):
        assert gamma_oracle(50, 50) == gamma_closed(50, 50).value
        with pytest.raises(ValueError, match="a \\+ t <= 100"):
            gamma_oracle(3000, 1)


class TestPropertySuite:
    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            gamma_property_suite(1, 5)

    def test_inequalities_hold_on_small_grid(self):
        rep = gamma_property_suite(6, 10)
        assert rep.inequalities_ok
        assert rep.violations_monotone_parts == []
        assert rep.violations_difference == []
        assert rep.violations_superadditive == []
        assert rep.violations_degree == []

    def test_stated_equality_conditions_have_counterexamples(self):
        # The two stated equality characterizations fail; the report keeps
        # the witnesses.  (3, 1) is strict although t != a - 1, and
        # Gamma(1,1) + Gamma(1,2) = 4 = Gamma(2,3) although 1//1 != 2//1.
        rep = gamma_property_suite(6, 10)
        assert (3, 1) in rep.violations_degree_equality
        assert (1, 1, 1, 2) in rep.violations_superadditive_equality
        assert not rep.ok

    def test_difference_identity_against_oracle(self):
        for a in range(1, 6):
            for t in range(1, 12):
                assert (gamma_oracle(a, t) - gamma_oracle(a, t - 1)
                        == 1 + (t - 1) // a)

    def test_monotone_in_parts_with_equality_condition(self):
        for a in range(2, 6):
            for t in range(1, 12):
                diff = gamma_oracle(a, t) - gamma_oracle(a - 1, t)
                assert diff <= 0
                assert (diff == 0) == (t <= a - 1), (a, t)


class TestExactEqualityConditions:
    def test_degree_equality_exact_matches_brute_force(self):
        for a in range(2, 10):
            for t in range(1, 25):
                v = gamma_closed(a, t).value
                lhs = -((-2 * (a - 1 + v)) // (a + t))
                assert (lhs == 1 + t // a) == degree_equality_exact(a, t), (a, t)

    def test_superadditive_equality_exact_matches_brute_force(self):
        for a1 in range(1, 5):
            for a2 in range(1, 5):
                for t1 in range(1, 8):
                    for t2 in range(1, 8):
                        eq = (gamma_closed(a1, t1).value
                              + gamma_closed(a2, t2).value
                              == gamma_closed(a1 + a2, t1 + t2).value)
                        assert eq == superadditive_equality_exact(
                            a1, t1, a2, t2), (a1, t1, a2, t2)

    def test_equal_floors_are_sufficient_for_equality(self):
        for a1 in range(1, 5):
            for a2 in range(1, 5):
                for t1 in range(1, 8):
                    for t2 in range(1, 8):
                        if t1 // a1 == t2 // a2:
                            assert (gamma_closed(a1, t1).value
                                    + gamma_closed(a2, t2).value
                                    == gamma_closed(a1 + a2, t1 + t2).value)
