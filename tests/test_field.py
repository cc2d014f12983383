"""The integer-vector field path: per-base constants, arithmetic against
Fraction-tuple polynomials, the digit loop against its old form, the
integer digit step against the field-element step, and the plot's laps,
read off automaton states, against cylinders built from scratch."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negabeta import numerics
from negabeta.errors import HorizonTooShort
from negabeta.expansion import _orbit, expand, in_interval
from negabeta.language import Variant, at_horizon, enumerate_words
from negabeta.numerics import (FieldElement, beta_from_poly,
                               beta_from_rational, from_coeffs,
                               from_rational, l_beta, r_beta)
from negabeta.plot import _f, _laps, plot_tn

from conftest import DEG7, MATRIX, RATIONALS, golden, matrix_base
from oracles import (cylinder_lap, expand_digits, field_t_step, inverse_mod,
                     modulus, mul_mod, reduce_mod, t_step)


def _count_inverses(monkeypatch):
    calls = []
    inverse = FieldElement.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counted)
    return calls


class TestConstantsBuiltOnce:
    def test_deg7_expansion_inverts_at_most_twice(self, monkeypatch):
        calls = _count_inverses(monkeypatch)
        b = beta_from_poly(*DEG7)
        assert calls == []  # nothing is built with the base
        e = expand(l_beta(b), b, 512)
        assert len(e.seq.prefix) == 512
        assert len(calls) <= 2

    def test_deg7_expansion_and_plot_invert_at_most_once(self, monkeypatch):
        # r_beta is the one inverse: 1/(-beta) is an inverse shift
        calls = _count_inverses(monkeypatch)
        b = beta_from_poly(*DEG7)
        expand(l_beta(b), b, 512)
        assert len(calls) <= 1
        calls.clear()
        plot_tn(beta_from_rational(5, 2), 4)
        assert len(calls) <= 1

    def test_plot_inverts_independent_of_laps(self, monkeypatch):
        calls = _count_inverses(monkeypatch)
        counts, laps = [], []
        for n in (2, 4):
            calls.clear()
            svg = plot_tn(beta_from_rational(5, 2), n)
            counts.append(len(calls))
            laps.append(svg.count('<line class="lap"'))
        assert laps[0] < laps[1]
        assert counts[0] == counts[1] <= 2


class TestDigitLoopOracle:
    """expand agrees with the Fraction-tuple loop on l_beta, r_beta and two
    seeded rational points, at 512 digits."""

    @pytest.mark.parametrize("name", MATRIX)
    def test_matches_fraction_loop(self, name):
        b = matrix_base(name)
        rng = random.Random(name)
        zero = (F(0),) * (len(modulus(b)) - 1)
        points = [l_beta(b), r_beta(b)] + [
            F(rng.randint(-60, 60), rng.randint(1, 20)) for _ in range(2)]
        for x in points:
            coeffs = (x.coeffs if isinstance(x, FieldElement)
                      else (x,) + zero[1:])
            int_len, digits, start = expand_digits(coeffs, b, 512)
            e = expand(x, b, 512)
            assert e.int_len == int_len
            assert e.seq.is_periodic == (start is not None)
            assert e.seq.prefix == tuple(digits[:start])
            if start is not None:
                assert e.seq.period == tuple(digits[start:])


class TestDigitLoopOracleNonMonic:
    """expand agrees with the Fraction-tuple loop digit for digit where the
    step scales by a lead != 1 (every algebraic MATRIX base is monic): on
    l_beta, r_beta and two seeded rational points, at 512 digits."""

    BASES = {"3x^2-4x-2": ([-2, -4, 3], 1, 2),
             "2x^3-3x-3": ([-3, -3, 0, 2], F(3, 2), 2)}

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_matches_fraction_loop(self, name):
        b = beta_from_poly(*self.BASES[name])
        rng = random.Random(name)
        zero = (F(0),) * (len(modulus(b)) - 1)
        points = [l_beta(b), r_beta(b)] + [
            F(rng.randint(-60, 60), rng.randint(1, 20)) for _ in range(2)]
        for x in points:
            coeffs = (x.coeffs if isinstance(x, FieldElement)
                      else (x,) + zero[1:])
            int_len, digits, start = expand_digits(coeffs, b, 512)
            e = expand(x, b, 512)
            assert e.int_len == int_len, (name, x)
            assert e.seq.is_periodic == (start is not None), (name, x)
            assert e.seq.prefix == tuple(digits[:start]), (name, x)
            if start is not None:
                assert e.seq.period == tuple(digits[start:]), (name, x)


# bases of the arithmetic check: monic and not, m_0 = +-1 and not, rational
ARITH = {
    "golden": golden(),
    "deg7": beta_from_poly(*DEG7),
    "2x^2-2x-1": beta_from_poly([-1, -2, 2], 1, 2),
    "2x^3-3x-3": beta_from_poly([-3, -3, 0, 2], F(3, 2), 2),
    "13/10": beta_from_rational(13, 10),
}

small = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@st.composite
def elements(draw):
    b = ARITH[draw(st.sampled_from(sorted(ARITH)))]
    n = len(modulus(b)) - 1
    vecs = [tuple(draw(st.lists(small, min_size=n, max_size=n)))
            for _ in range(3)]
    return b, vecs


def _canonical(x):
    return x.den > 0 and math.gcd(x.den, *x.num) == 1


class TestOrbitKey:
    """The key (num, den) of z = x - l_beta that expand keeps for each orbit
    point is canonical at every step, so no exact repeat goes unseen."""

    @pytest.mark.parametrize("name", sorted(ARITH))
    def test_canonical_along_orbits(self, name):
        b = ARITH[name]
        rng = random.Random(name)
        points = [l_beta(b), r_beta(b)] + [
            from_rational(b, F(rng.randint(-9, 6), 19)) for _ in range(3)]
        for x in points:
            z = x - b.constants.left
            num, den = z.num, z.den
            for _ in range(512):
                _, _, (num, den) = _orbit(b, num, den, 1)
                assert den > 0 and math.gcd(den, *num) == 1, name


class TestArithmeticAgainstFractionTuples:
    @given(elements())
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, data):
        b, (u, v, w) = data
        m = modulus(b)
        x, y, z = (from_coeffs(b, c) for c in (u, v, w))
        assert x.coeffs == u
        assert (x + y).coeffs == tuple(p + q for p, q in zip(u, v))
        assert (x * y).coeffs == mul_mod(u, v, m)
        neg_beta = tuple(-c for c in reduce_mod((0, 1), m))
        assert x.times_neg_beta().coeffs == mul_mod(u, neg_beta, m)
        if any(u):
            assert x.inverse().coeffs == inverse_mod(u, m)
        results = [x + y, x * y, x.times_neg_beta(), (x - y) * z]
        assert all(_canonical(r) for r in results)
        # equal values built two ways are equal and hash equal
        for p, q in (((x * y) * z, x * (y * z)), (x + y - y, x),
                     ((x + y) * z, x * z + y * z)):
            assert p == q and hash(p) == hash(q)
            assert (p.num, p.den) == (q.num, q.den)

    @given(elements())
    @settings(max_examples=150, deadline=None)
    def test_times_neg_inv(self, data):
        # the inverse shift is x times the inverse of -beta, canonical, and
        # undoes times_neg_beta
        b, (u, _, _) = data
        m = modulus(b)
        x = from_coeffs(b, u)
        neg_beta = tuple(-c for c in reduce_mod((0, 1), m))
        got = x.times_neg_inv()
        assert got.coeffs == mul_mod(u, inverse_mod(neg_beta, m), m)
        assert _canonical(got)
        want = x * (-b.constants.beta).inverse()
        assert got == want and hash(got) == hash(want)
        assert (got.num, got.den) == (want.num, want.den)
        assert x.times_neg_beta().times_neg_inv() == x

    @given(elements(), st.integers(-10**6, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_int_operand(self, data, k):
        # x + k, k + x and x - k move num[0] only; they equal the sums with
        # k as a field element, hash alike and stay canonical
        b, (u, _, _) = data
        x, kk = from_coeffs(b, u), from_rational(b, k)
        for got, want in ((x + k, x + kk), (k + x, kk + x), (x - k, x - kk)):
            assert got == want and hash(got) == hash(want)
            assert (got.num, got.den) == (want.num, want.den)
            assert _canonical(got)


class TestIntegerStep:
    """t_step against the field-element step of tests/oracles.py: the same
    digit and T(x) at every step of an orbit, and the same halvings of a
    fresh base, step by step."""

    @staticmethod
    def _walk(step, make, points, steps, halvings):
        """[(digit, num, den, halvings so far)] along the orbits of points,
        each point a function of the base, on a fresh base from make."""
        halvings.clear()
        b, out = make(), []
        for point in points:
            x = point(b)
            for _ in range(steps):
                digit, x = step(x, b)
                out.append((digit, x.num, x.den, len(halvings)))
        return out

    def _check(self, make, points, steps, monkeypatch):
        halvings = []
        real = numerics.BetaSpec.refine
        monkeypatch.setattr(numerics.BetaSpec, "refine",
                            lambda b: (halvings.append(b), real(b))[1])
        got = self._walk(t_step, make, points, steps, halvings)
        assert got == self._walk(field_t_step, make, points, steps, halvings)
        return got

    @pytest.mark.parametrize("name", MATRIX)
    def test_endpoint_orbits(self, name, monkeypatch):
        self._check(lambda: matrix_base(name), [l_beta, r_beta], 512,
                    monkeypatch)

    @pytest.mark.parametrize("name, make", [
        ("x^2-2x-1", lambda: beta_from_poly([-1, -2, 1], 2, 3)),
        ("x^3-x-1", lambda: beta_from_poly([-1, -1, 0, 1], 1, 2)),
        ("x^7-x-1", lambda: beta_from_poly(*DEG7)),
        ("40/29", lambda: beta_from_rational(40, 29)),
        ("67/29", lambda: beta_from_rational(67, 29)),
        ("100/29", lambda: beta_from_rational(100, 29))])
    def test_random_points(self, name, make, monkeypatch):
        rng = random.Random(name)
        deg = make().degree
        points = [lambda b, v=([rng.randint(-60, 60) for _ in range(deg)],
                               rng.randint(1, 300)): FieldElement(b, *v)
                  for _ in range(8)]
        got = self._check(make, points, 128, monkeypatch)
        if deg > 1:  # the orbits needed halvings, so their count is checked
            assert got[-1][-1] > 0


class TestExpandRefinement:
    """expand halves a fresh base exactly as often as the in-interval phase
    followed by max(n, int_len) steps of the field-element oracle does, for
    every digit count n."""

    BASES = {**{name: (lambda name=name: matrix_base(name)) for name in MATRIX},
             "x^4-x-1": lambda: beta_from_poly([-1, -1, 0, 0, 1], 1, 2),
             "x^5-x-1": lambda: beta_from_poly([-1, -1, 0, 0, 0, 1], 1, 2),
             "x^6-x-1": lambda: beta_from_poly([-1, -1, 0, 0, 0, 0, 1], 1, 2),
             "3x^2-4x-2": lambda: beta_from_poly([-2, -4, 3], 1, 2)}

    @staticmethod
    def _oracle(x, b, n):
        int_len = 0
        while not in_interval(x, b):
            x, int_len = x * b.constants.neg_inv, int_len + 1
        for _ in range(max(n, int_len)):
            x = field_t_step(x, b)[1]

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_halvings(self, name, monkeypatch):
        halvings = []
        real = numerics.BetaSpec.refine
        monkeypatch.setattr(numerics.BetaSpec, "refine",
                            lambda b: (halvings.append(b), real(b))[1])
        points = [l_beta, r_beta, lambda b: from_rational(b, F(-1, 7)),
                  lambda b: from_rational(b, F(23, 3))]

        def walk(run):
            """The halvings so far after each point, on a fresh base."""
            halvings.clear()
            b, out = self.BASES[name](), []
            for point in points:
                run(point(b), b)
                out.append(len(halvings))
            return out

        for n in (1, 8, 64, 512):
            got = walk(lambda x, b: expand(x, b, n))
            assert got == walk(lambda x, b: self._oracle(x, b, n)), (name, n)
        if self.BASES[name]().degree > 1:  # the orbits needed halvings
            assert got[-1] > 0


class TestPrefixWalk:
    """The plot's walk on the automaton gives, for every word, the exact
    cylinder ends and images that the word's own pull-back gives, and for
    n = 0 the one lap I."""

    @staticmethod
    def _check(b, n, tag) -> int:
        laps = list(_laps(b, n))
        if n == 0:
            c = b.constants
            assert laps == [(c.left, c.right, c.left, c.right)], tag
            return 1
        words = enumerate_words(n, b, Variant.CORRECTED).words
        assert len(laps) == len(words)
        for w, lap in zip(words, laps):
            assert lap == cylinder_lap(b, w), (tag, w)
        return len(laps)

    @pytest.mark.parametrize("name", MATRIX)
    def test_matches_cylinders(self, name):
        b = matrix_base(name)
        for n in range(6):
            self._check(b, n, name)

    def test_rationals(self):
        laps = sum(self._check(beta_from_rational(x.numerator, x.denominator),
                               n, x)
                   for x in RATIONALS for n in range(4))
        assert laps == 5517


class TestPlotFloat:
    """`plot._f` reads an irrational value's float off one floor of 10^9 v:
    the midpoint of its enclosure of width 10^-9, as float(Fraction) gives
    it, on every lap end to n = 3 and on beta, 1/beta and beta^2 - 1/7."""

    @pytest.mark.parametrize("name", ["golden", "plastic", "quintic", "q302",
                                      "deg7"])
    def test_matches_enclosure_midpoint(self, name):
        b = matrix_base(name)
        c = b.constants
        values = [c.beta, -c.neg_inv, c.beta * c.beta - F(1, 7)]
        for n in range(4):
            values += [v for lap in _laps(b, n) for v in lap]
        irrational = [v for v in values if not v.is_rational()]
        assert len(irrational) > 10
        for v in irrational:
            assert _f(v) == float(v.enclosure(F(1, 10**9)).midpoint()), v


class TestLapHorizon:
    """The plot reads no digit of d* that enumeration does not: on fresh
    references at a short horizon, `_laps(b, n)` raises HorizonTooShort
    exactly when `enumerate_words(n, b)` does, and otherwise gives one lap
    per word (the one lap I at n = 0)."""

    @pytest.mark.parametrize("name", ["deg7", "13/10", "11/10", "plastic",
                                      "3/2"])
    def test_raises_with_enumeration(self, name):
        b = matrix_base(name)

        def outcome(h, call):
            with at_horizon(h):  # a run of its own, so fresh references
                try:
                    return call()
                except HorizonTooShort:
                    return HorizonTooShort

        raised = 0
        for h in (2, 3, 5, 8):
            for n in range(h + 4):
                words = outcome(h, lambda: enumerate_words(n, b).words)
                laps = outcome(h, lambda: len(list(_laps(b, n))))
                if words is HorizonTooShort:
                    assert laps is HorizonTooShort, (h, n)
                    raised += 1
                else:
                    assert laps == (len(words) if n else 1), (h, n)
        assert raised
