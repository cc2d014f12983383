"""Cascade of bases below the golden ratio, gap intervals, forbidden words."""

from fractions import Fraction as F

import pytest

from negabeta.errors import (IndexOutOfRange, NegabetaError,
                             UndecidedAtHorizon)
from negabeta.expansion import expand
from negabeta.gaps import (all_gaps, cascade_classify, decompose_expansion,
                           morphism_words)
from negabeta.language import Reference, at_horizon, gamma_n
from negabeta.numerics import (beta_from_poly, beta_from_rational,
                               fe_compare, from_rational, l_beta)
from negabeta.order import SymbolicSequence
from oracles import (cross_compare, forbidden_words, gap_intervals,
                     gap_prefix_patterns, numeric_cascade_level,
                     psi_fixed_point, refine_below)

PSI_43 = "1001110010010011100111001110010010011100100"


class TestMorphism:
    def test_fixed_point_prefix(self):
        assert "".join(map(str, psi_fixed_point(43))) == PSI_43

    def test_words(self):
        u0, v0 = morphism_words(0)
        assert (u0, v0) == ((1,), (0, 0))
        u1, v1 = morphism_words(1)
        assert (u1, v1) == ((1, 0, 0), (1, 1))
        u2, v2 = morphism_words(2)
        assert "".join(map(str, u2)) == "10011"
        assert "".join(map(str, v2)) == "100100"

    def test_recursion(self):
        for n in range(1, 6):
            u, v = morphism_words(n)
            up, vp = morphism_words(n - 1)
            assert u == up + vp
            assert v == up + up


class TestCascade:
    def test_gamma0_is_golden(self, beta_golden):
        assert cross_compare(gamma_n(0), beta_golden) == 0

    def test_gamma1_expansion(self, beta_plastic):
        # d(l) = 1 0 0 followed by repeating 1  (equivalently 100 (11)^inf)
        d = expand(l_beta(beta_plastic), beta_plastic).seq
        assert (d.prefix, d.period) == ((1, 0, 0), (1,))
        assert cross_compare(gamma_n(1), beta_plastic) == 0

    def test_cascade_decreasing(self):
        for n in range(4):
            assert cross_compare(gamma_n(n + 1), gamma_n(n)) < 0

    def test_classify(self, beta_plastic):
        assert cascade_classify(beta_from_rational(3, 2)) == 0
        assert cascade_classify(beta_from_rational(13, 10)) == 1
        # boundary bases belong to their own level
        assert cascade_classify(beta_plastic) == 1

    def test_classify_rejects_large(self, beta_golden):
        with pytest.raises(IndexOutOfRange):
            cascade_classify(beta_from_rational(2, 1))
        with pytest.raises(IndexOutOfRange):
            cascade_classify(beta_golden)


class TestDecomposition:
    def test_thirteen_tenths_parses_over_level_one(self):
        dec = decompose_expansion(beta_from_rational(13, 10))
        assert dec.level == 1
        u, v = morphism_words(1)
        assert (u, v) == ((1, 0, 0), (1, 1))
        assert dec.tokens[0] == "u"
        assert dec.parsed_length > 50

    def test_three_halves_parses_over_level_zero(self):
        dec = decompose_expansion(beta_from_rational(3, 2))
        assert dec.level == 0
        assert dec.tokens[:3] == ("u", "v", "v")


class TestGapIntervals:
    def test_nonempty_and_ordered(self):
        for b in (beta_from_rational(13, 10), beta_from_rational(3, 2)):
            gs = all_gaps(b)
            assert gs
            for g in gs:
                assert fe_compare(g.left, g.right) < 0

    def test_midpoint_expansion_hits_gap_pattern(self):
        b = beta_from_rational(13, 10)
        for g in all_gaps(b):
            le, re_ = g.enclosure(F(1, 10**9))
            mid = (le.hi + re_.lo) / 2
            d = expand(from_rational(b, mid), b, 64).seq.digits(30)
            pats = gap_prefix_patterns(g.k)
            assert any(d[:len(p)] == p for p in pats), (g.k, g.i, d[:12])


class TestForbiddenWords:
    def test_shapes(self):
        words = forbidden_words(1)
        u0, _ = morphism_words(0)
        # contains u0^4 = 1111 and u0 u1 u2
        assert (1, 1, 1, 1) in words
        u1, _ = morphism_words(1)
        u2, _ = morphism_words(2)
        assert u0 + u1 + u2 in words

    def test_gap_points_contain_forbidden_factor(self):
        # the expansion of a point inside a gap exhibits a forbidden word
        b = beta_from_rational(13, 10)
        words = ["".join(map(str, w)) for w in forbidden_words(1)]
        for g in all_gaps(b):
            le, re_ = g.enclosure(F(1, 10**9))
            mid = (le.hi + re_.lo) / 2
            d = expand(from_rational(b, mid), b, 64).seq
            text = "".join(str(d.digit(i)) for i in range(1, 40))
            assert any(w in text for w in words), text


class TestLevelFromExpansion:
    """The cascade level is read off d: d(l_{gamma_n}) = u_n v_n^inf."""

    @pytest.mark.parametrize("n", range(6))
    def test_threshold_expansion(self, n):
        ref = Reference.for_beta(gamma_n(n))
        assert ref.d == SymbolicSequence(*morphism_words(n))
        assert ref.threshold_side(n) == 0

    def test_matrix_matches_numeric(self, base_matrix):
        for name, b in base_matrix.items():
            try:
                want = numeric_cascade_level(b)
            except IndexOutOfRange:
                with pytest.raises(IndexOutOfRange):
                    cascade_classify(b)
                continue
            assert cascade_classify(b) == want, name

    @pytest.mark.parametrize("n", range(1, 6))
    def test_gamma_at_own_level(self, n):
        assert cascade_classify(gamma_n(n)) == numeric_cascade_level(
            gamma_n(n)) == n

    def test_rationals_match_numeric(self):
        # every p/q with q <= 12 between 1 and the golden ratio
        bases = {F(p, q) for q in range(1, 13) for p in range(q + 1, 2 * q)
                 if F(p, q) ** 2 < F(p, q) + 1}
        assert len(bases) == 28
        for x in sorted(bases):
            b = beta_from_rational(x.numerator, x.denominator)
            assert cascade_classify(b) == numeric_cascade_level(b), x

    def test_deep_level_needs_long_horizon(self):
        b = beta_from_rational(1001, 1000)
        with pytest.raises(UndecidedAtHorizon, match="digit 512"):
            cascade_classify(b)
        with at_horizon(5000):
            assert cascade_classify(b) == 9

    def test_all_gaps_one_orbit(self):
        # all_gaps walks one orbit; each gap equals its own gap_intervals
        for x in (F(13, 10), F(21, 20), F(101, 100)):
            b = beta_from_rational(x.numerator, x.denominator)
            gs = all_gaps(b)
            assert gs == [gap_intervals(b, g.k, g.i) for g in gs], x

    @pytest.mark.parametrize("x, level", [
        ("3/2", 0), ("13/10", 1), ("11/10", 2), ("21/20", 3), ("41/40", 4),
        ("101/100", 5), ("plastic", 1)])
    def test_all_gaps_levels(self, x, level, beta_plastic):
        # k < max(n, 1) and 0 <= i < |u_{k-1}| at level n, each gap as the
        # oracle builds it on its own field-element orbit
        if x == "plastic":
            b = beta_plastic
        else:
            b = beta_from_rational(*map(int, x.split("/")))
        assert cascade_classify(b) == level
        gs = all_gaps(b)
        assert [(g.k, g.i) for g in gs] == [
            (k, i) for k in range(max(level, 1))
            for i in range(len(morphism_words(k - 1)[0]))]
        assert gs == [gap_intervals(b, g.k, g.i) for g in gs]
        with pytest.raises(IndexOutOfRange):
            gap_intervals(b, max(level, 1), 0)

    @pytest.mark.parametrize("make", [
        lambda: beta_from_rational(3, 2), lambda: beta_from_rational(13, 10),
        lambda: beta_from_rational(11, 10), lambda: beta_from_rational(21, 20),
        lambda: beta_from_rational(41, 40),
        lambda: beta_from_rational(101, 100),
        lambda: beta_from_rational(1001, 1000),
        lambda: beta_from_poly([-1, -1, 0, 1], 1, 2),
        lambda: beta_from_poly([-1, -1, 0, 0, 0, 0, 0, 1], 1, 2),
        lambda: gamma_n(3)],
        ids=["3/2", "13/10", "11/10", "21/20", "41/40", "101/100",
             "1001/1000", "plastic", "x7-x-1", "gamma3"])
    def test_all_gaps_at_horizons(self, make):
        # the gap endpoints are read off d, which a decided level knows to
        # every gap index: at a short horizon all_gaps gives the oracle's
        # gaps, or both raise the same exception
        def outcome(run):
            try:
                return run()
            except NegabetaError as e:
                return type(e)

        b = make()
        for h in (8, 20, 64):
            with at_horizon(h):
                want = outcome(lambda: [
                    gap_intervals(b, k, i)
                    for k in range(max(cascade_classify(b), 1))
                    for i in range(len(morphism_words(k - 1)[0]))])
                assert outcome(lambda: all_gaps(b)) == want, h

    def test_decomposition_at_horizon(self):
        b = beta_from_rational(1001, 1000)
        with pytest.raises(UndecidedAtHorizon, match="digit 512"):
            decompose_expansion(b)
        with at_horizon(5000):
            dec = decompose_expansion(b)
        assert dec.level == 9 and dec.parsed_length <= 256


class TestEnclosureGrid:
    # fresh bases: the cached gamma_n(3) may have been refined by other tests
    @pytest.mark.parametrize("make", [
        lambda: beta_from_poly([-1, -1, 0, 0, 0, 0, 0, 1], 1, 2),
        lambda: gamma_n.__wrapped__(3)], ids=["x7-x-1", "gamma3"])
    def test_gap_enclosures_ignore_refinement(self, make):
        b = make()
        before = [g.enclosure() for g in all_gaps(b)]
        refine_below(b, F(1, 10**40))
        after = [g.enclosure() for g in all_gaps(b)]
        assert after == before
        for le, re_ in after:  # cells of the grid of width 10^-6
            for iv in (le, re_):
                assert iv.width == F(1, 10**6)
                assert (iv.lo * 10**6).denominator == 1
