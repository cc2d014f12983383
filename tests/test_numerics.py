"""Exact arithmetic: root isolation, field elements, floors, comparisons."""

import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import golden, matrix_base, plastic, quintic
from negabeta import numerics
from negabeta.errors import (NoRootIsolated, NotGreaterThanOne,
                             RootNotGreaterThanOne)
from negabeta.language import Reference, at_horizon, gamma_n
from negabeta.numerics import (FieldElement, beta_from_poly,
                               beta_from_rational, fe_compare, fe_floor,
                               from_rational, l_beta, one, r_beta, zero)
from oracles import (beta_element, cross_compare, endpoint_powers,
                     fraction_halvings, refine_below)


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
        with at_horizon(16):
            assert Reference.for_beta(low) is not Reference.for_beta(high)
            assert Reference.for_beta(low).d != Reference.for_beta(high).d

    def test_same_root_any_interval(self):
        a = beta_from_poly([5, -5, 1], F(11, 10), F(3))
        b = beta_from_poly([5, -5, 1], F(1), F(2))
        refine_below(b, F(1, 10**6))
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


class TestIntegerRefinement:
    """`refine` takes the sign of m at the midpoint a/b from a homogeneous
    Horner sum in integers and builds the endpoint powers as running
    products; both give what the Fraction rule and `**` gave."""

    BASES = {**{name: (lambda name=name: matrix_base(name))
                for name in ("golden", "plastic", "quintic", "q302", "deg7")},
             "3x^2-4x-2": lambda: beta_from_poly([-2, -4, 3], 1, 2),
             # a fresh gamma_5, the root of x^43 - x - 1
             "gamma_5": lambda: beta_from_poly([-1, -1] + [0] * 41 + [1], 1, 2)}

    @pytest.mark.parametrize("name", BASES)
    def test_sixty_halvings(self, name):
        b = self.BASES[name]()
        assert b._endpoint_powers() == endpoint_powers(b)
        for i, want in enumerate(fraction_halvings(b, 60)):
            b.refine()
            assert b.interval() == want, (name, i)
            assert b._endpoint_powers() == endpoint_powers(b), (name, i)

    def test_gamma_5(self):
        assert self.BASES["gamma_5"]() == gamma_n(5)


class TestMinimalRefinement:
    """A decision halves the isolating interval only until its bounds
    decide: a call that needs k halvings on a fresh base needs exactly one
    more after the first k - 1."""

    BASES = {"golden": golden, "plastic": plastic, "quintic": quintic,
             "x7-x-1": lambda: beta_from_poly([-1, -1, 0, 0, 0, 0, 0, 1], 1, 2)}

    @staticmethod
    def _decisions(make, seed):
        """Floors, comparisons with a nearby rational and enclosures of 30
        seeded random elements, each a function of the base."""
        rng = random.Random(seed)
        near = make()
        refine_below(near, F(1, 10**60))
        deg = near.degree
        out = []
        for _ in range(30):
            num = [rng.randint(-60, 60) for _ in range(deg)]
            den = rng.randint(1, 300)
            r = FieldElement(near, num, den).enclosure(
                F(1, 2 ** rng.randint(1, 40))).lo
            out += [lambda b, v=(num, den): fe_floor(FieldElement(b, *v)),
                    lambda b, v=(num, den), r=r:
                        fe_compare(FieldElement(b, *v), r),
                    lambda b, v=(num, den):
                        FieldElement(b, *v).enclosure(F(1, 10**6))]
        return out

    @pytest.mark.parametrize("name", BASES)
    def test_one_halving_past_undecided(self, name, monkeypatch):
        make = self.BASES[name]
        halvings = []
        real = numerics.BetaSpec.refine
        monkeypatch.setattr(numerics.BetaSpec, "refine",
                            lambda b: (halvings.append(b), real(b))[1])

        def decide_after(decide, before):
            """(answer, halvings) of decide on a fresh base halved `before`
            times first."""
            b = make()
            for _ in range(before):
                b.refine()
            halvings.clear()
            return decide(b), len(halvings)

        checked = 0
        for decide in self._decisions(make, name):
            want, k = decide_after(decide, 0)
            if k:
                assert decide_after(decide, k - 1) == (want, 1), name
                checked += 1
        assert checked >= 30


# ---------------------------------------------------------------------------
# root counting and irreducibility certificates, against sympy
# ---------------------------------------------------------------------------

X = sympy.Symbol("x")


def _sympy_poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), X)


def _rat(x):
    return sympy.Rational(x.numerator, x.denominator)


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


factor = st.lists(st.integers(-3, 3), min_size=2, max_size=3).filter(
    lambda c: c[-1] != 0)


@st.composite
def polynomials(draw):
    """Integer polynomials of degree 1 to 8 (ascending), often with a
    repeated factor and small rational roots."""
    factors = draw(st.lists(factor, min_size=1, max_size=4))
    if draw(st.booleans()):
        factors.append(factors[0])  # not squarefree
    poly = [1]
    for f in factors:
        poly = _times(poly, f)
    assume(len(poly) <= 9)
    return poly


# small fractions, so that endpoints are often roots of the linear factors
endpoints = st.one_of(st.integers(-3, 3).map(F),
                      st.fractions(-4, 4, max_denominator=6))


class TestSturmCounting:
    @given(polynomials(), endpoints, endpoints)
    @settings(max_examples=200, deadline=None)
    def test_counts_match_sympy(self, poly, a, b):
        lo, hi = min(a, b), max(a, b)
        sp = _sympy_poly(poly)
        assert (numerics._count_roots(poly, lo, hi)
                == sp.count_roots(_rat(lo), _rat(hi)))
        # the rank of a root: the roots at or below lo
        assert numerics._count_roots(poly, None, lo) == sp.count_roots(None, _rat(lo))

    def test_endpoint_roots_count(self):
        # (x - 1)^2 (x - 2) (2x + 1): roots -1/2, 1, 2, the 1 repeated
        poly = _times(_times(_times([-1, 1], [-1, 1]), [-2, 1]), [1, 2])
        assert numerics._count_roots(poly, F(1), F(2)) == 2
        assert numerics._count_roots(poly, F(-1, 2), F(1)) == 2
        assert numerics._count_roots(poly, F(3, 2), F(3)) == 1
        assert numerics._count_roots(poly, None, F(1)) == 2
        assert numerics._count_roots(poly, None, F(-1)) == 0


def _irreducible(poly):
    _, factors = _sympy_poly(poly).factor_list()
    return len(factors) == 1 and factors[0][1] == 1


class TestCertificates:
    @given(polynomials())
    @settings(max_examples=200, deadline=None)
    def test_certified_is_irreducible(self, poly):
        f = numerics._primitive(poly)
        if numerics._certified_irreducible(f):
            assert _irreducible(f), f

    @given(st.lists(st.integers(-20, 20), min_size=2, max_size=8).filter(
        lambda c: c[-1] != 0 and any(c[1:])))
    @settings(max_examples=200, deadline=None)
    def test_certified_is_irreducible_dense(self, poly):
        f = numerics._primitive(poly)
        if numerics._certified_irreducible(f):
            assert _irreducible(f), f

    @pytest.mark.parametrize("ell", range(2, 13))
    def test_selmer_trinomials(self, ell):
        f = [-1, -1] + [0] * (ell - 2) + [1]
        assert numerics._certified_irreducible(f)
        assert _irreducible(f)

    @pytest.mark.parametrize("poly", [
        [-1, -1, 0, 1], [1, 1, -1, -2, -2, 1], [-1, -2, -3, -3, 1],
        [-3, -3, 0, 2], [-1, -2, 2], [5, -5, 1],
        [-36028797, -9007199, 18014398],
        [-2, 0, 1, 0, 0]])  # x^2 - 2 with trailing zeros
    def test_bases_of_the_suite_need_no_factoring(self, poly):
        assert numerics._certified_irreducible(numerics._primitive(poly))

    @pytest.mark.parametrize("poly", [
        [-2, 1, -2, 1],               # (x - 2)(x^2 + 1)
        [-1, -1, 1, 2, 1],            # (x + 1)(x^3 + x^2 - 1)
        [4, 0, -4, 0, 1],             # (x^2 - 2)^2
        [1, 0, -10, 0, 1],            # irreducible, reducible mod every p
    ])
    def test_not_certified(self, poly):
        assert not numerics._certified_irreducible(numerics._primitive(poly))


class TestFactoringFallback:
    """Inputs that no certificate covers are factored by sympy; the rest
    never reach it."""

    @pytest.fixture
    def factored(self, monkeypatch):
        calls = []
        real = numerics._sympy_factors

        def spy(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(numerics, "_sympy_factors", spy)
        return calls

    def test_linear_factor(self, factored):
        b = beta_from_poly([F(-2), F(1), F(-2), F(1)], F(1), F(3))
        assert b.kind == "rational" and b.value == 2
        assert factored == [[-2, 1, -2, 1]]

    def test_root_below_one(self, factored):
        # no root in [1, 4]: the count rejects it before any factoring
        with pytest.raises(NoRootIsolated):
            beta_from_poly([F(-1), F(-1), F(1), F(2), F(1)], F(1), F(4))
        assert factored == []
        # its root -1 belongs to the factor x + 1
        with pytest.raises(RootNotGreaterThanOne):
            beta_from_poly([-1, -1, 1, 2, 1], F(-3, 2), F(-1, 2))
        assert factored == [[-1, -1, 1, 2, 1]]

    def test_repeated_factor(self, factored):
        # (x^2 - 2)^2: the minimal polynomial is x^2 - 2
        b = beta_from_poly([4, 0, -4, 0, 1], 1, 2)
        assert b.minpoly == (-2, 0, 1) and b.root_index == 1
        assert factored == [[4, 0, -4, 0, 1]]

    def test_content_and_sign(self, factored):
        # -6x^2 + 6x + 6 is 6 times the golden polynomial, negated
        b = beta_from_poly([6, 6, -6], 1, 2)
        assert b == beta_from_poly([-1, -1, 1], 1, 2)
        assert b.minpoly == (-1, -1, 1) and b.root_index == 1
        assert factored == []
