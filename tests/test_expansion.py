"""Digit expansions: frozen prefixes, corrections, exact re-summation."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quintic
from negabeta.errors import NotAnExpansionTail
from negabeta.expansion import (corrected, evaluate, evaluate_exact, expand,
                                in_interval, reference_pair, truncated)
from negabeta.numerics import (beta_from_poly, beta_from_rational, fe_compare,
                               from_rational, l_beta, r_beta)
from negabeta.order import SymbolicSequence
from oracles import expand_digits, field_t_step, refine_below, t_step


class TestFrozenExpansions:
    def test_five_halves(self):
        b = beta_from_rational(5, 2)
        d, _ = reference_pair(b)
        assert d.digits(10) == (2, 1, 1, 0, 1, 0, 0, 0, 0, 0)

    def test_integer_bases(self):
        d2, ds2 = reference_pair(beta_from_rational(2, 1))
        assert (d2.prefix, d2.period) == ((), (2,))
        assert (ds2.prefix, ds2.period) == ((), (1, 0))
        d3, ds3 = reference_pair(beta_from_rational(3, 1))
        assert (d3.prefix, d3.period) == ((), (3,))
        assert (ds3.prefix, ds3.period) == ((), (2, 0))

    def test_golden(self, beta_golden):
        d, ds = reference_pair(beta_golden)
        assert (d.prefix, d.period) == ((1,), (0,))
        assert ds == d  # not purely periodic with odd period: no correction

    def test_plastic(self, beta_plastic):
        d, _ = reference_pair(beta_plastic)
        assert (d.prefix, d.period) == ((1, 0, 0), (1,))

    def test_quintic(self, beta_quintic):
        d, _ = reference_pair(beta_quintic)
        assert (d.prefix, d.period) == ((2, 0, 1, 2), (1,))

    def test_302(self, beta_302):
        d, _ = reference_pair(beta_302)
        assert (d.prefix, d.period) == ((3, 0, 2), (1,))

    def test_thirteen_tenths_prefix(self):
        b = beta_from_rational(13, 10)
        d = expand(l_beta(b), b, 16).seq
        assert d.digits(4) == (1, 0, 0, 1)

    def test_three_halves_prefix(self):
        b = beta_from_rational(3, 2)
        d = expand(l_beta(b), b, 20).seq
        assert d.digits(12) == (1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1)


class TestTransformationStep:
    def test_golden_left_endpoint(self, beta_golden):
        x = l_beta(beta_golden)
        digit, nxt = t_step(x, beta_golden)
        assert digit == 1 and nxt.is_zero()

    def test_orbit_stays_in_interval(self):
        b = beta_from_rational(5, 2)
        x = l_beta(b)
        for _ in range(40):
            assert in_interval(x, b)
            _, x = t_step(x, b)


class TestCorrection:
    def test_odd_period_correction(self):
        # repeating 2 (odd period) corrects to repeating 1 0
        assert corrected(SymbolicSequence((), (2,))) == \
            SymbolicSequence((), (1, 0))

    def test_even_period_untouched(self):
        s = SymbolicSequence((), (1, 0))
        assert corrected(s) == s

    def test_bad_tail_rejected(self):
        # odd period ending in 0 cannot be decremented
        with pytest.raises(NotAnExpansionTail):
            corrected(SymbolicSequence((), (1, 0, 0)))


class TestEvaluation:
    def test_left_endpoint_resums(self, base_matrix):
        for name, b in base_matrix.items():
            e = expand(l_beta(b), b, 400)
            if not e.seq.is_periodic:
                continue  # exact re-summation needs the certified tail
            v = evaluate_exact(e)
            assert (v - l_beta(b)).is_zero(), name

    def test_golden_closed_form(self, beta_golden):
        e = expand(l_beta(beta_golden), beta_golden)
        assert (evaluate_exact(e) - l_beta(beta_golden)).is_zero()

    def test_truncated_enclosure(self):
        b = beta_from_rational(5, 2)
        e = expand(l_beta(b), b, 60)
        iv = evaluate(e, F(1, 10**6))
        assert iv.contains(F(-5, 7))  # l = -beta/(beta+1) = -5/7

    @pytest.mark.parametrize("make", [
        lambda: beta_from_poly([-1, -1, 0, 0, 0, 0, 0, 1], 1, 2), quintic],
        ids=["x7-x-1", "quintic"])
    def test_truncated_enclosure_ignores_refinement(self, make):
        b = make()
        e = expand(F(1, 7), b, 64)
        assert not e.seq.is_periodic
        before = evaluate(e, F(1, 10**9))
        assert before.contains(F(1, 7))
        refine_below(b, F(1, 10**40))
        assert evaluate(e, F(1, 10**9)) == before

    @given(num=st.integers(-35, 13), den=st.just(50))
    @settings(max_examples=40, deadline=None)
    def test_rational_roundtrip(self, num, den):
        # points of [l, r) = [-5/7, 2/7) for beta = 5/2
        x = F(num, den)
        b = beta_from_rational(5, 2)
        if not (F(-5, 7) <= x < F(2, 7)):
            return
        e = expand(from_rational(b, x), b, 600)
        if e.seq.is_periodic:
            assert evaluate_exact(e).as_rational() == x
        else:
            assert evaluate(e, F(1, 10**9)).contains(x)

    def test_reference_pair_ordering(self, base_matrix):
        # d* never exceeds d in the alternating order on any finite prefix
        from negabeta.order import alt_compare
        for name, b in base_matrix.items():
            d, ds = reference_pair(b)
            n = 12
            assert alt_compare(ds.digits(n), d.digits(n)) >= 0, name


class TestOutsideInterval:
    """A point outside I is rescaled by powers of -beta first; its leading
    int_len digits sit left of the radix point."""

    @pytest.mark.parametrize("x,int_len", [
        # (-2/7)(-5/2)^k, where -2/7 is the fixed point with digit 1
        (F(5, 7), 1), (F(-25, 14), 2), (F(125, 28), 3)])
    def test_five_halves(self, x, int_len):
        b = beta_from_rational(5, 2)
        e = expand(x, b, 64)
        assert e.int_len == int_len and e.seq == SymbolicSequence((), (1,))
        assert evaluate_exact(e) == from_rational(b, x)

    @pytest.mark.parametrize("x", [F(7, 3), F(-5, 2), F(10)])
    def test_plastic(self, beta_plastic, x):
        e = expand(x, beta_plastic)
        assert e.int_len > 0 and e.seq.is_periodic
        assert evaluate_exact(e) == from_rational(beta_plastic, x)

    @pytest.mark.parametrize("x,max_digits,int_len,count", [
        (F(7), 10, 3, 10), (F(700), 2, 9, 9), (F(3, 4), 6, 1, 6)])
    def test_digit_count(self, x, max_digits, int_len, count):
        # max(max_digits, int_len) digits in all, the integer digits among them
        b = beta_from_rational(5, 2)
        e = expand(x, b, max_digits)
        assert e.int_len == int_len and not e.seq.is_periodic
        assert len(e.seq.prefix) == count
        assert expand_digits((x,), b, max_digits) == (int_len, list(e.seq.prefix),
                                                       None)


class TestTruncated:
    """A shorter expansion is read off a longer one of the same point."""

    def test_matches_shorter_expand(self, base_matrix):
        for name, b in base_matrix.items():
            long = expand(l_beta(b), b, 48).seq
            for h in range(1, 48):
                assert truncated(long, h) == expand(l_beta(b), b, h).seq, (
                    name, h)


@st.composite
def rational_bases(draw):
    """p/q in (1, 12] with q <= 40; integer bases, whose orbits of
    rational points are periodic, one draw in four."""
    if draw(st.integers(0, 3)) == 3:
        return beta_from_rational(draw(st.integers(2, 12)), 1)
    q = draw(st.integers(1, 40))
    return beta_from_rational(draw(st.integers(q + 1, 12 * q)), q)


@st.composite
def rational_points(draw, beta):
    """A rational point t with |t| <= 3600, or t mod 1 moved into
    I = [l_beta, l_beta + 1)."""
    t = F(draw(st.integers(-3600, 3600)), draw(st.integers(1, 60)))
    if draw(st.booleans()):
        return t
    return beta.constants.left.as_rational() + t % 1


class TestRationalStep:
    """At a rational base the digit step runs on one integer pair; it gives
    the oracle's digits, integer part and period start, and its T(x)."""

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_expand_against_oracle(self, data):
        b = data.draw(rational_bases())
        x = data.draw(rational_points(b))
        n = data.draw(st.integers(1, 80))
        int_len, digits, start = expand_digits((x,), b, n)
        e = expand(x, b, n)
        assert e.int_len == int_len
        assert e.seq.prefix == tuple(digits[:start])
        assert e.seq.period == (None if start is None else tuple(digits[start:]))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_t_step_against_field_step(self, data):
        b = data.draw(rational_bases())
        x = y = from_rational(b, data.draw(rational_points(b)))
        for _ in range(24):
            (d, x), (k, y) = t_step(x, b), field_t_step(y, b)
            assert (d, x.num, x.den) == (k, y.num, y.den)
