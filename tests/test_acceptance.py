"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Every comparison is exact (integer, Fraction, or certified field-element
arithmetic); no floating-point tolerances are used anywhere.
"""

from contextlib import contextmanager
from fractions import Fraction as F

import pytest

import oracles
from negabeta.codes import (block_structure, build_code_C, build_delta_i,
                            build_delta_odd, build_gamma, delta_i_indices,
                            kraft_partial_sums, working_stream)
from negabeta.errors import NoRootIsolated, RootNotGreaterThanOne
from negabeta.expansion import expand
from negabeta.gaps import all_gaps, decompose_expansion, morphism_words
from negabeta.language import (Classification, PeriodTarget, Variant,
                               at_horizon, classify, count_periodic_points,
                               enumerate_words, factor_complexity,
                               is_admissible_word, language_census,
                               reference_pair)
from negabeta.numerics import (beta_from_poly, beta_from_rational, fe_compare,
                               from_rational, l_beta, one)
from negabeta.series import (lap_series, one_minus_z_pow, verify_identities,
                             zeta_shift, zeta_transformation)
from negabeta.wordset import WordSet
from oracles import gap_prefix_patterns, psi_fixed_point


@contextmanager
def criterion(n: int, title: str):
    try:
        yield
    except Exception:
        print(f"criterion {n}: FAIL - {title}")
        raise
    print(f"criterion {n}: PASS - {title}")


def strs(ws):
    return {"".join(map(str, w)) for w in ws.words}


WORDS_3_AT_5_2 = {
    "211", "210", "222", "221", "102", "101", "100", "112", "111", "110",
    "122", "121", "002", "001", "000", "012", "011", "010", "022", "021",
}

PSI_43 = "1001110010010011100111001110010010011100100"

MATRIX = {
    "2": beta_from_rational(2, 1),
    "5/2": beta_from_rational(5, 2),
    "3": beta_from_rational(3, 1),
    "golden": beta_from_poly([-1, -1, 1], 1, 2),
    "plastic": beta_from_poly([-1, -1, 0, 1], 1, 2),
    "13/10": beta_from_rational(13, 10),
    "3/2": beta_from_rational(3, 2),
}


def test_criterion_1_expansion_and_language_at_5_2():
    with criterion(1, "expansion, lap counts, length-3 words at base 5/2"):
        b = MATRIX["5/2"]
        d = expand(l_beta(b), b, 16).seq
        assert d.digits(3) == (2, 1, 1)
        assert lap_series(b, 3).as_ints() == [1, 3, 8, 20]
        assert strs(enumerate_words(3, b)) == WORDS_3_AT_5_2


def test_criterion_2_golden_zeta():
    with criterion(2, "golden base: expansion 1(0), Fibonacci zeta, "
                      "zeta = (1 - z^2) * lap series"):
        b = MATRIX["golden"]
        d = expand(l_beta(b), b).seq
        assert (d.prefix, d.period) == ((1,), (0,))
        z = zeta_transformation(b, 16)
        fib = [1, 2]
        while len(fib) < 17:
            fib.append(fib[-1] + fib[-2])
        assert z.as_ints() == fib
        lap = lap_series(b, 18)
        prod = one_minus_z_pow(2, 18) * lap
        assert prod.truncate(16).as_ints() == z.as_ints()


def test_criterion_3_block_structure():
    with criterion(3, "degree-4 example has no admissible root (construction "
                      "rejects it); block structure shown on a degree-5 "
                      "base instead"):
        # x^4 + 2x^3 + x^2 - x - 1 has real roots -1 and ~0.755: no root > 1
        with pytest.raises((RootNotGreaterThanOne, NoRootIsolated)):
            beta_from_poly([-1, -1, 1, 2, 1], 1, 4)
        # x^5 - 2x^4 - 2x^3 - x^2 + x + 1, root in (2, 3): d(l) = 2012(1)
        bq = beta_from_poly([1, 1, -1, -2, -2, 1], 2, 3)
        d = expand(l_beta(bq), bq).seq
        assert (d.prefix, d.period) == ((2, 0, 1, 2), (1,))
        bs = block_structure(d, 64)
        assert [(blk.n, blk.p) for blk in bs.blocks] == [(2, 1)]
        assert delta_i_indices(d, 12) == [1]
        assert strs(build_delta_i(d, 1, 12)) == {"201"}


def test_criterion_4_code_families():
    with criterion(4, "word families Gamma and Delta_odd for the base with "
                      "expansion 302(1)"):
        b = beta_from_poly([-1, -2, -3, -3, 1], 3, 4)
        d, _ = reference_pair(b)
        assert expand(l_beta(b), b).seq.digits(4) == (3, 0, 2, 1)
        gam = build_gamma(working_stream(d), 6)
        assert {"0", "1", "2", "31", "32", "300", "301", "3022",
                "302112"} <= strs(gam.gamma)
        dodd = build_delta_odd(working_stream(d), 8)
        assert strs(dodd) == {"3", "302", "30211", "3021111"}
        c = build_code_C(b, 8)
        assert all(is_admissible_word(w, b, Variant.CORRECTED)
                   for w in c.words)


def test_criterion_5_counting_identities():
    with criterion(5, "for seven bases and n <= 8: complexity formula == "
                      "census, zeta log-derivatives == periodic-point "
                      "counts, all series identities have zero residual"):
        for name, b in MATRIX.items():
            horizon = 2048
            _, ds = reference_pair(b, max_digits=horizon)
            with at_horizon(horizon):
                census = language_census(8, b)
                assert factor_complexity(8, ds) == census, name
                zt = zeta_transformation(b, 8, assume_nonperiodic=True)
                counts_t = [count_periodic_points(n, b,
                                                  PeriodTarget.TRANSFORMATION)
                            for n in range(1, 9)]
                assert [int(x) for x in oracles.derivative_log_counts(zt)] \
                    == counts_t, name
                zs = zeta_shift(b, 8, assume_nonperiodic=True)
                counts_s = [count_periodic_points(n, b, PeriodTarget.SHIFT)
                            for n in range(1, 9)]
                assert [int(x) for x in oracles.derivative_log_counts(zs)] \
                    == counts_s, name
                report = verify_identities(b, order=8)
            assert all(v["residual"] == 0 for v in report.values()), name


def test_criterion_6_classification():
    with criterion(6, "coding / transitivity classification at bases 2, "
                      "13/10, and the golden ratio"):
        c2 = classify(MATRIX["2"])
        assert isinstance(c2, Classification)
        assert c2.odd_period == 1  # purely periodic with odd period
        assert c2.shift_coded is False
        assert c2.corrected_shift_coded is True
        c13 = classify(MATRIX["13/10"])
        assert c13.transitive is False
        assert c13.witness == (1, 0, 0, 0)
        assert not is_admissible_word(c13.witness, MATRIX["13/10"])
        cg = classify(MATRIX["golden"])
        assert cg.shift_coded and cg.corrected_shift_coded and cg.transitive


def test_criterion_7_kraft_sums():
    with criterion(7, "Kraft sums: {1, 00} at the golden ratio sums to "
                      "exactly 1; code partial sums at 5/2 increase past "
                      "0.95 while staying below 1"):
        bg = MATRIX["golden"]
        ws = WordSet.from_words([(1,), (0, 0)], 2)
        assert fe_compare(oracles.kraft_sum_exact(ws, bg), one(bg)) == 0
        b = MATRIX["5/2"]
        c = build_code_C(b, 12)
        sums = kraft_partial_sums(c, b)
        for a, b_ in zip(sums, sums[1:]):
            assert fe_compare(a, b_) <= 0
        assert fe_compare(sums[-1], from_rational(b, F(95, 100))) > 0
        assert fe_compare(sums[-1], one(b)) < 0


def test_criterion_8_gap_structure():
    with criterion(8, "cascade below the golden ratio: boundary base "
                      "expansion, morphism fixed point, parsing at 13/10, "
                      "gap intervals start with the predicted patterns"):
        bp = MATRIX["plastic"]
        d = expand(l_beta(bp), bp).seq
        assert (d.prefix, d.period) == ((1, 0, 0), (1,))
        assert "".join(map(str, psi_fixed_point(43))) == PSI_43
        b = MATRIX["13/10"]
        dec = decompose_expansion(b)
        assert dec.level == 1
        assert morphism_words(1) == ((1, 0, 0), (1, 1))
        assert dec.parsed_length > 50 and set(dec.tokens) <= {"u", "v"}
        for g in all_gaps(b):
            le, re_ = g.enclosure(F(1, 10**9))
            mid = (le.hi + re_.lo) / 2
            dg = expand(from_rational(b, mid), b, 64).seq.digits(30)
            pats = gap_prefix_patterns(g.k)
            assert any(dg[:len(p)] == p for p in pats), (g.k, g.i)
