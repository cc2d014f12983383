"""Digit expansions: frozen prefixes, corrections, exact re-summation."""

import random
import sys
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEG7, MATRIX, RATIONALS, matrix_base, plastic, quintic
from negabeta import expansion, numerics
from negabeta.errors import HorizonTooShort, NotAnExpansionTail
from negabeta.expansion import (_orbit, corrected, evaluate, evaluate_exact,
                                expand, in_interval, never_closes,
                                reference_pair, truncated)
from negabeta.language import Reference, at_horizon, gamma_n
from negabeta.numerics import (beta_from_poly, beta_from_rational, fe_compare,
                               floor_or_sign, from_rational, l_beta, r_beta)
from negabeta.order import SymbolicSequence, known_digit
from oracles import (exact_orbit, expand_digits, field_t_step, refine_below,
                     t_step)


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

    @pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (12, 1), (5, 2), (9, 4),
                                     (10, 3), (15, 4), (35, 12), (72, 29)])
    def test_late_or_no_unreduced_run(self, p, q):
        # points whose den shares primes with p or q reduce for some steps
        # before q divides den and p is prime to it, if it ever does; the
        # fixed points -kq/(p + q), k <= p/q, never get there (period 1)
        b = beta_from_rational(p, q)
        fixed = [F(-k * q, p + q) for k in range(p // q + 1)]
        points = fixed + [F(k, m) for m in (p * q, p * p, p + q, q * q)
                          for k in (1, -1, 2, -3, 7)]
        for x in points:
            for n in (1, 2, 5, 80, 300):
                int_len, digits, start = expand_digits((x,), b, n)
                e = expand(x, b, n)
                assert e.int_len == int_len, (x, n)
                assert e.seq.prefix == tuple(digits[:start]), (x, n)
                assert e.seq.period == (
                    None if start is None else tuple(digits[start:])), (x, n)
        for x in fixed:
            e = expand(x, b, 2)
            assert e.int_len == 0 and len(e.seq.period) == 1, x
        # an orbit that does not close ends on the point the field step
        # gives, canonical
        for t in points:
            y = from_rational(b, l_beta(b).as_rational() + t % 1)
            z = y - l_beta(b)
            digits = []
            for n in range(1, 81):
                digit, y = field_t_step(y, b)
                digits.append(digit)
                got, j, last = _orbit(b, z.num, z.den, n)
                assert got == digits[:len(got)], (t, n)
                if j is None:
                    w = y - l_beta(b)
                    assert (len(got), last) == (n, (w.num, w.den)), (t, n)

    def test_left_endpoint_closes_only_at_integer_bases(self):
        # z = 0, then den = q: q > 1 divides every later den
        for f in RATIONALS:
            b = beta_from_rational(f.numerator, f.denominator)
            assert expand(l_beta(b), b, 300).seq.is_periodic == (
                f.denominator == 1), f

    def test_memory_stays_flat(self):
        # the table of points would hold 4096 keys of up to 20,000 bits
        b = beta_from_rational(72, 29)
        x = l_beta(b)
        tracemalloc.start()
        try:
            e = expand(x, b, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(e.seq.prefix) == 4096 and peak < 2**20

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_t_step_against_field_step(self, data):
        b = data.draw(rational_bases())
        x = y = from_rational(b, data.draw(rational_points(b)))
        for _ in range(24):
            (d, x), (k, y) = t_step(x, b), field_t_step(y, b)
            assert (d, x.num, x.den) == (k, y.num, y.den)


def _digits_so_far():
    """Where a halving falls: the number of digits that the orbit loop
    calling refine has emitted (its local list `digits`), or None when no
    orbit loop is on the stack."""
    frame = sys._getframe(2)
    while frame is not None and "digits" not in frame.f_locals:
        frame = frame.f_back
    return None if frame is None else len(frame.f_locals["digits"])


class TestEnclosedStep:
    """At an algebraic base, `_orbit` takes a digit from its dyadic
    enclosure of beta(1-z) only where `floor_or_sign` would decide without
    halving, so it gives the digits, j and last point of the exact-only
    loop (`oracles.exact_orbit`) on every orbit, with each halving at the
    same digit."""

    BASES = {"x^2-2x-1": lambda: beta_from_poly([-1, -2, 1], 2, 3),
             "plastic": plastic,
             **{f"x^{n}-x-1": (lambda n=n: beta_from_poly(
                 [-1, -1] + [0] * (n - 2) + [1], 1, 2)) for n in (4, 5, 6, 7)},
             "3x^2-4x-2": lambda: beta_from_poly([-2, -4, 3], 1, 2),
             # a fresh gamma_3, the root of x^11 - x - 1 (`gamma_n` keeps
             # one base per level, refined by whatever ran before)
             "gamma_3": lambda: beta_from_poly([-1, -1] + [0] * 9 + [1], 1, 2)}

    def test_gamma_3(self):
        assert self.BASES["gamma_3"]() == gamma_n(3)

    @pytest.mark.parametrize("steps", [512, 2048])
    @pytest.mark.parametrize("name", sorted(BASES))
    def test_against_exact_loop(self, name, steps, monkeypatch):
        halvings = []
        real = numerics.BetaSpec.refine
        monkeypatch.setattr(
            numerics.BetaSpec, "refine",
            lambda b: (halvings.append(_digits_so_far()), real(b))[1])
        rnd = random.Random(steps)
        # z = x - l_beta in [0, 1): l_beta itself, then seeded points, all
        # on one base, so the later orbits start on a refined interval
        starts = [F(0)] + [F(rnd.randrange(1, 10**6), 10**6) for _ in range(3)]

        def walk(run):
            halvings.clear()
            b, out = self.BASES[name](), []
            for t in starts:
                z = from_rational(b, t)
                out.append((run(b, z.num, z.den, steps), list(halvings)))
            return out

        got = walk(_orbit)
        assert got == walk(exact_orbit), name
        assert any(at is not None for at in got[-1][1])  # halved in an orbit

    def test_few_exact_floors(self, monkeypatch):
        # a first orbit must call floor_or_sign at each of its halvings;
        # once the base is refined as far as the orbit needs, the enclosure
        # settles nearly every digit, where the exact loop calls it 512 times
        b = beta_from_poly(*DEG7)
        x = l_beta(b) + F(random.Random(1).randrange(1, 10**6), 10**6)
        expand(x, b, 512)
        calls = []
        monkeypatch.setattr(expansion, "floor_or_sign",
                            lambda *a: (calls.append(a), floor_or_sign(*a))[1])
        e = expand(x, b, 512)
        assert len(e.seq.prefix) == 512 and len(calls) <= 32


def _counted_orbits(monkeypatch):
    """The calls of `expansion._orbit` from here on, one entry each."""
    calls, real = [], expansion._orbit
    monkeypatch.setattr(expansion, "_orbit",
                        lambda *a: (calls.append(a[3]), real(*a))[1])
    return calls


def _horizon_outcome(b, h):
    """d, d* and where each stops at horizon h, on a reference built now,
    in a run of its own."""
    with at_horizon(h):
        ref = Reference.for_beta(b)
    ends = []
    for seq in (ref.d, ref.d_star):
        try:
            ends.append(known_digit(seq, h + 1))
        except HorizonTooShort as e:
            ends.append(str(e))
    return ref.d, ref.d_star, ends


class TestKeptDigits:
    """A base keeps the digits of l_beta: every expansion of l_beta, in any
    order of lengths and at any horizon, is what a fresh base gives, and
    once 512 digits are kept no shorter one runs the orbit again."""

    BASES = {**{name: (lambda name=name: matrix_base(name)) for name in MATRIX},
             "3x^2-4x-2": lambda: beta_from_poly([-2, -4, 3], 1, 2),
             "7/3": lambda: beta_from_rational(7, 3)}
    LENGTHS = (0, 1, 8, 64, 512, 600)

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_any_order_of_lengths(self, name):
        make = self.BASES[name]
        want = {}
        for n in self.LENGTHS:
            fresh = make()
            want[n] = expand(l_beta(fresh), fresh, n)
        for order in (self.LENGTHS, self.LENGTHS[::-1], (64, 600, 1, 512, 0, 8)):
            b = make()
            for n in order:
                assert expand(l_beta(b), b, n) == want[n], (name, order, n)

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_references_at_every_horizon(self, name):
        make = self.BASES[name]
        want = {}
        for h in (5, 8, 11, 512):
            want[h] = _horizon_outcome(make(), h)
        for order in ((5, 8, 11, 512), (512, 11, 8, 5)):
            b = make()
            for h in order:
                assert _horizon_outcome(b, h) == want[h], (name, order, h)

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_no_orbit_after_512(self, name, monkeypatch):
        b = self.BASES[name]()
        kept = expand(l_beta(b), b, 512).seq
        assert kept is b._left
        calls = _counted_orbits(monkeypatch)
        for n in (0, 1, 8, 64, 511, 512):
            expand(l_beta(b), b, n)
            reference_pair(b, n)
            with at_horizon(n):
                Reference.for_beta(b)
        with at_horizon(512):
            assert Reference.for_beta(b).d is b._left
        if b.kind == "rational":  # l_beta as a Fraction is l_beta too
            assert expand(l_beta(b).as_rational(), b, 64) == expand(
                l_beta(b), b, 64)
        assert calls == []
        expand(l_beta(b), b, 600)
        assert calls == ([] if kept.is_periodic else [600])

    @pytest.mark.parametrize("name", ["golden", "plastic", "quintic", "q302",
                                      "deg7", "3x^2-4x-2"])
    def test_refine_keeps_digits(self, name, monkeypatch):
        make = self.BASES[name]
        want = {}
        for n in (8, 64, 600):
            fresh = make()
            want[n] = expand(l_beta(fresh), fresh, n)
        b = make()
        assert expand(l_beta(b), b, 64) == want[64]
        kept = b._left
        b.refine()
        assert b._left is kept
        calls = _counted_orbits(monkeypatch)
        for n in (8, 64):
            assert expand(l_beta(b), b, n) == want[n]
        assert calls == []
        assert expand(l_beta(b), b, 600) == want[600]


class TestNeverCloses:
    def test_non_integer_rationals_only(self):
        for name in MATRIX:
            b = matrix_base(name)
            want = "/" in name and not name.endswith("/1")
            assert never_closes(b) is want, name

    @pytest.mark.parametrize("p,q", [(5, 2), (7, 2), (3, 2), (13, 10),
                                     (11, 10), (72, 29), (9, 4)])
    def test_orbit_of_l_beta_stays_open(self, p, q):
        # no point of the orbit of z = 0 comes back within 2000 steps
        b = beta_from_rational(p, q)
        assert never_closes(b)
        digits, j, _ = _orbit(b, (0,), 1, 2000)
        assert j is None and len(digits) == 2000
