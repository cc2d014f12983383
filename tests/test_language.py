"""Admissibility, enumeration, complexity, classification, periodic points."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from negabeta.codes import build_code_C, build_gamma
from negabeta.errors import HorizonTooShort
from negabeta.expansion import expand, reference_pair
from negabeta.language import (PeriodTarget, Reference, Variant, classify,
                               count_periodic_points, enumerate_words,
                               factor_complexity, is_admissible_word,
                               language_census)
from negabeta.numerics import beta_from_rational, l_beta

PAPER_WORDS_3 = {
    "211", "210", "222", "221", "102", "101", "100", "112", "111", "110",
    "122", "121", "002", "001", "000", "012", "011", "010", "022", "021",
}


def _w(s):
    return tuple(int(c) for c in s)


class TestEnumeration:
    def test_five_halves_census(self):
        b = beta_from_rational(5, 2)
        assert language_census(5, b) == [3, 8, 20, 50, 125]

    def test_five_halves_words_length_two(self):
        b = beta_from_rational(5, 2)
        ws = enumerate_words(2, b)
        assert set(ws.words) == {_w(s) for s in
                                 ("00", "01", "02", "10", "11", "12",
                                  "21", "22")}

    def test_five_halves_words_length_three(self):
        b = beta_from_rational(5, 2)
        ws = enumerate_words(3, b)
        got = {w for w in ws.words if len(w) == 3}
        assert got == {_w(s) for s in PAPER_WORDS_3}

    def test_golden_alphabet(self, beta_golden):
        ws = enumerate_words(1, beta_golden)
        assert set(ws.words) == {(0,), (1,)}

    def test_census_matches_enumeration(self, base_matrix):
        for name, b in base_matrix.items():
            census = language_census(5, b)
            got = [enumerate_words(k, b).count(k) for k in range(1, 6)]
            assert got == census, name


class TestComplexity:
    def test_golden_recurrence(self, beta_golden):
        _, ds = reference_pair(beta_golden)
        assert factor_complexity(4, ds) == [2, 4, 7, 12]

    def test_matches_census(self, base_matrix):
        for name, b in base_matrix.items():
            _, ds = reference_pair(b, max_digits=2048)
            assert factor_complexity(8, ds) == language_census(8, b), name


class TestAdmissibility:
    def test_zero_runs_bounded_below_golden(self):
        # for beta = 13/10 the word 1 0 0 0 is inadmissible (after a 1 at
        # most two zeros may follow)
        b = beta_from_rational(13, 10)
        assert is_admissible_word((1, 0, 0), b)
        assert not is_admissible_word((1, 0, 0, 0), b)

    def test_factors_of_expansion_admissible(self):
        b = beta_from_rational(5, 2)
        d = expand(l_beta(b), b, 64).seq.digits(40)
        for i in range(0, 30):
            for j in range(i + 1, min(i + 8, 40)):
                assert is_admissible_word(d[i:j], b)

    def test_variants_differ_on_odd_periodic(self):
        # beta = 2 has repeating-2 expansion; the raw bound admits the word
        # 2 2, the corrected language does not
        b = beta_from_rational(2, 1)
        assert is_admissible_word((2, 2), b, Variant.ITO_SADAHIRO)
        assert not is_admissible_word((2, 2), b, Variant.CORRECTED)

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=7).map(tuple))
    @settings(max_examples=120, deadline=None)
    def test_prefix_closed(self, w):
        b = beta_from_rational(5, 2)
        if is_admissible_word(w, b):
            assert is_admissible_word(w[:-1], b) or len(w) == 1


class TestClassification:
    def test_integer_base(self):
        c = classify(beta_from_rational(2, 1))
        assert c.odd_period
        assert not c.shift_coded          # odd-periodic: natural shift uncoded
        assert c.corrected_shift_coded
        assert c.transitive is False

    def test_golden(self, beta_golden):
        c = classify(beta_golden)
        assert c.beta_ge_golden
        assert c.shift_coded and c.corrected_shift_coded
        assert c.transitive

    def test_below_golden(self):
        c = classify(beta_from_rational(13, 10))
        assert not c.beta_ge_golden
        assert not c.shift_coded and not c.corrected_shift_coded
        assert not c.transitive
        assert c.witness == (1, 0, 0, 0)
        assert not is_admissible_word(c.witness, beta_from_rational(13, 10))

    def test_odd_periodic_witness_rejected(self):
        c = classify(beta_from_rational(2, 1))
        assert c.witness is not None


class TestPeriodicPoints:
    def test_integer_base_transformation(self):
        b = beta_from_rational(2, 1)
        assert [count_periodic_points(n, b, PeriodTarget.TRANSFORMATION)
                for n in (1, 2, 3)] == [3, 3, 9]

    def test_integer_base_shift(self):
        b = beta_from_rational(2, 1)
        assert [count_periodic_points(n, b, PeriodTarget.SHIFT)
                for n in (1, 2, 3)] == [3, 5, 9]

    def test_golden_transformation(self, beta_golden):
        assert [count_periodic_points(n, beta_golden,
                                      PeriodTarget.TRANSFORMATION)
                for n in (1, 2, 3)] == [2, 2, 5]

    def test_shift_dominates_transformation(self, base_matrix):
        # every fixed point of T^n yields a shift-periodic word, so the
        # shift count can only exceed the transformation count
        for name, b in base_matrix.items():
            for n in (1, 2, 3, 4):
                s = count_periodic_points(n, b, PeriodTarget.SHIFT)
                t = count_periodic_points(n, b, PeriodTarget.TRANSFORMATION)
                assert s >= t >= 0, (name, n)


def _outcome(f, *args):
    try:
        return f(*args)
    except HorizonTooShort:
        return "HorizonTooShort"


class TestOracleEquivalence:
    """The automaton against the brute-force definitions in oracles.py."""

    def test_census(self, base_matrix):
        for name, b in base_matrix.items():
            for v in Variant:
                assert language_census(12, b, v) == oracles.census(12, b, v), \
                    (name, v)

    def test_enumeration(self, base_matrix):
        for name, b in base_matrix.items():
            for n in range(1, 11):
                assert list(enumerate_words(n, b).words) == \
                    oracles.words(n, b), (name, n)

    def test_complexity_to_64(self, base_matrix):
        for name, b in base_matrix.items():
            d_star = Reference.for_beta(b).d_star
            assert factor_complexity(64, d_star) == language_census(64, b), name

    def test_periodic_points(self, base_matrix):
        for name, b in base_matrix.items():
            for target in PeriodTarget:
                for n in range(1, 10):
                    assert count_periodic_points(n, b, target) == \
                        oracles.periodic_points(n, b, target), (name, target, n)

    @given(st.sampled_from(["2", "5/2", "3", "golden", "plastic", "13/10",
                            "3/2"]),
           st.sampled_from(list(Variant)),
           st.lists(st.integers(0, 3), max_size=14).map(tuple))
    @settings(max_examples=300, deadline=None)
    def test_admissibility(self, base_matrix, name, variant, w):
        b = base_matrix[name]
        assert is_admissible_word(w, b, variant) == \
            oracles.is_admissible(w, b, variant)

    def test_horizon_parity(self, base_matrix):
        # at a 5-digit horizon both raise for exactly the same requests; the
        # rational bases raise from n = 6 on (census) and earlier for cyclic
        # ties (periodic points)
        raised = 0
        for name, b in base_matrix.items():
            for v in Variant:
                for n in range(1, 9):
                    got = _outcome(language_census, n, b, v, 5)
                    assert got == _outcome(oracles.census, n, b, v, 5), \
                        (name, v, n)
                    raised += got == "HorizonTooShort"
            for target in PeriodTarget:
                for n in range(1, 7):
                    got = _outcome(count_periodic_points, n, b, target, 5)
                    assert got == _outcome(oracles.periodic_points, n, b,
                                           target, 5), (name, target, n)
                    raised += got == "HorizonTooShort"
        assert raised > 0


class TestNoReferenceCycles:
    def test_word_builders_leave_no_garbage(self):
        b = beta_from_rational(5, 2)
        d = Reference.for_beta(b).d
        calls = [lambda: enumerate_words(8, b),
                 lambda: language_census(8, b),
                 lambda: build_gamma(d, 10),
                 lambda: build_code_C(b, 10)]
        for call in calls:
            call()  # fill caches
        gc.collect()
        gc.disable()
        try:
            for call in calls:
                call()
                assert gc.collect() == 0
        finally:
            gc.enable()
