"""Exact arithmetic: root isolation, field elements, floors, comparisons."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negabeta.errors import (NoRootIsolated, NotGreaterThanOne,
                             RootNotGreaterThanOne)
from negabeta.language import Reference
from negabeta.numerics import (beta_element, beta_from_poly,
                               beta_from_rational, cross_compare, fe_compare,
                               fe_floor, from_rational, l_beta, one, r_beta,
                               zero)


class TestConstruction:
    def test_rational_base(self):
        b = beta_from_rational(5, 2)
        assert b.kind == "rational"
        assert b.value == F(5, 2)
        assert b.d1 == 2

    def test_rational_not_greater_than_one(self):
        with pytest.raises(NotGreaterThanOne):
            beta_from_rational(1, 1)
        with pytest.raises(NotGreaterThanOne):
            beta_from_rational(3, 4)

    def test_golden_isolated(self, beta_golden):
        iv = beta_golden.interval()
        assert iv.lo > 1 and iv.hi < 2

    def test_rational_root_of_linear_factor(self):
        # (x - 2)(x^2 + 1) has the rational root 2 in (1, 3)
        b = beta_from_poly([F(-2), F(1), F(-2), F(1)], F(1), F(3))
        assert b.kind == "rational" and b.value == 2

    def test_no_root_in_window(self):
        with pytest.raises(NoRootIsolated):
            beta_from_poly([F(-1), F(-1), F(1)], F(3), F(4))

    def test_root_below_one_rejected(self):
        # x^4 + 2x^3 + x^2 - x - 1 has no root greater than 1: its real
        # roots are -1 and one in (0, 1).  Asking for a base from it fails.
        with pytest.raises((RootNotGreaterThanOne, NoRootIsolated)):
            beta_from_poly([F(-1), F(-1), F(1), F(2), F(1)], F(1), F(4))


class TestIdentity:
    def test_roots_of_one_polynomial_differ(self):
        # x^2 - 5x + 5 has roots 1.38 and 3.62; the two isolating intervals
        # overlap on [2, 3] but hold different roots
        low = beta_from_poly([5, -5, 1], F(11, 10), F(3))
        high = beta_from_poly([5, -5, 1], F(2), F(4))
        assert low != high
        assert cross_compare(low, high) == -1
        assert len({low, high}) == 2
        assert Reference.for_beta(low, 16) is not Reference.for_beta(high, 16)
        assert Reference.for_beta(low, 16).d != Reference.for_beta(high, 16).d

    def test_same_root_any_interval(self):
        a = beta_from_poly([5, -5, 1], F(11, 10), F(3))
        b = beta_from_poly([5, -5, 1], F(1), F(2))
        b.refine_below(F(1, 10**6))
        assert a == b and hash(a) == hash(b)


class TestFieldArithmetic:
    def test_golden_identity(self, beta_golden):
        g = beta_element(beta_golden)
        assert (g * g - g - one(beta_golden)).is_zero()

    def test_inverse(self, beta_golden):
        g = beta_element(beta_golden)
        assert (g * g.inverse() - one(beta_golden)).is_zero()
        # 1/golden = golden - 1
        assert (g.inverse() - (g - one(beta_golden))).is_zero()

    def test_endpoints_relation(self, base_matrix):
        # l = -beta * r, and r - l = 1 (interval of unit length)
        for b in base_matrix.values():
            l, r = l_beta(b), r_beta(b)
            assert (l + beta_element(b) * r).is_zero()
            assert (r - l - one(b)).is_zero()

    def test_floor_algebraic(self, beta_golden):
        g = beta_element(beta_golden)
        assert fe_floor(g) == 1
        assert fe_floor(g * g) == 2
        assert fe_floor(-g) == -2

    def test_compare(self, beta_golden):
        g = beta_element(beta_golden)
        assert fe_compare(g, F(8, 5)) > 0
        assert fe_compare(g, F(13, 8)) < 0
        assert fe_compare(g, g) == 0

    def test_cross_compare(self, beta_golden, beta_plastic):
        assert cross_compare(beta_plastic, beta_golden) < 0
        assert cross_compare(beta_golden, beta_golden) == 0
        assert cross_compare(beta_from_rational(3, 2), beta_plastic) > 0


rationals = st.fractions(min_value=-4, max_value=4)


class TestRationalFieldModel:
    """In a rational base the field collapses to plain fractions."""

    @given(x=rationals, y=rationals)
    @settings(max_examples=60, deadline=None)
    def test_ops_match_fractions(self, x, y):
        b = beta_from_rational(5, 2)
        fx, fy = from_rational(b, x), from_rational(b, y)
        assert (fx + fy).as_rational() == x + y
        assert (fx * fy).as_rational() == x * y
        assert (fx - fy).as_rational() == x - y

    @given(x=rationals)
    @settings(max_examples=60, deadline=None)
    def test_floor_matches(self, x):
        b = beta_from_rational(5, 2)
        import math
        assert fe_floor(from_rational(b, x)) == math.floor(x)


class TestAlgebraicEnclosure:
    def test_enclosure_shrinks(self, beta_golden):
        g = beta_element(beta_golden)
        iv = g.enclosure(F(1, 10**12))
        assert iv.width <= F(1, 10**12)
        # golden ratio = (1 + sqrt 5)/2 = 1.618033988749894...
        assert iv.lo < F("1.6180339887499") < iv.hi

    def test_zero_detection(self, beta_golden):
        z = zero(beta_golden)
        assert z.is_zero() and z.is_rational() and z.as_rational() == 0
