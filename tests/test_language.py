"""Admissibility, enumeration, complexity, classification, periodic points."""

import gc
import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import DEG7, MATRIX, matrix_base
from negabeta import language
from negabeta.codes import build_code_C, build_gamma, working_stream
from negabeta.errors import HorizonTooShort
from negabeta.expansion import expand, reference_pair
from negabeta.gaps import gamma_n
from negabeta.language import (DEAD, PeriodTarget, Reference, Variant,
                               at_horizon, classify, count_periodic_points,
                               enumerate_words, factor_complexity,
                               is_admissible_word, language_census)
from negabeta.numerics import beta_from_poly, beta_from_rational, l_beta
from negabeta.wordset import WordSet

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


class TestEnumerationWordSet:
    """enumerate_words joins the automaton's halves in the order they come;
    deduplicating and sorting them changes nothing, n = 0 included
    (no words, an empty census).  Lengths stop at 12, or before the first
    length with more than 20000 words (at 3, 5/2, 7/2 and the quintic and
    quartic bases)."""

    @pytest.mark.parametrize("name", MATRIX)
    def test_equals_from_words(self, name):
        b = matrix_base(name)
        for v in Variant:
            aut = Reference.for_beta(b).automaton(v)
            counts = [1] + language_census(12, b, v)
            for n in range(13):
                if counts[n] > 20000:
                    break
                want = WordSet.from_words([w for w, _ in aut.words(n)], n)
                assert enumerate_words(n, b, v) == want, (name, v, n)
        assert enumerate_words(0, b) == WordSet((), {}, 0)


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

    def test_reference_facts(self, base_matrix):
        # the per-base context against the numeric golden comparison,
        # classify, and the stream the code families are built from
        for name, b in base_matrix.items():
            ref = Reference.for_beta(b)
            assert ref.golden_side == oracles.cross_compare(b, gamma_n(0)), name
            assert ref.odd_period == classify(b).odd_period, name
            assert working_stream(ref.d) == ref.d_star, name
        assert Reference.for_beta(base_matrix["golden"]).golden_side == 0


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


class TestTable:
    """The automaton interns each state once and stores each state's
    successors once; membership reads the table but adds nothing to it,
    enumeration advances the states the census does and holds little
    beyond its result, and the periodic count advances only the states a
    cycle of length n can pass through and lists no word."""

    def test_census_table(self, fresh_references):
        b = beta_from_rational(5, 2)
        for v in Variant:
            aut = Reference.for_beta(b).automaton(v)
            assert len(aut.states) == len(aut.trans) == 1, v
            language_census(64, b, v)
            stored = sum(len(row) for row in aut.trans if row is not None)
            assert (len(aut.states), stored) == (129, 381), v

    def test_membership_adds_no_state(self):
        b = beta_from_poly(*DEG7)
        word = expand(l_beta(b), b, 512).seq.digits(512)
        for v in Variant:
            language_census(8, b, v)  # a table to read
            aut = Reference.for_beta(b).automaton(v)
            table = len(aut.states), [row and list(row) for row in aut.trans]
            assert is_admissible_word(word, b, v)  # tied with d for 512
            assert (len(aut.states), aut.trans) == table, v
            # a second call reads no bound digit and builds no row, and a
            # bound holds a row per tie length 0..512 at most
            bounds = [(len(x.digits), len(x.rows))
                      for x in (aut.lower, aut.upper)]
            assert is_admissible_word(word, b, v)
            assert [(len(x.digits), len(x.rows))
                    for x in (aut.lower, aut.upper)] == bounds, v
            assert all(rows <= 513 for _, rows in bounds), v

    @pytest.mark.parametrize("n,states", [(9, 19), (12, 25)])
    def test_enumeration_leaves_census_states(self, n, states,
                                              fresh_references):
        # both advance every state reached before length n, and no other;
        # each runs on a reference of its own, so on an empty table, and
        # interns in its own order, so the tables compare by state
        b = beta_from_rational(7, 5)
        tables = []
        for build in (enumerate_words, language_census):
            fresh_references.clear()
            aut = Reference.for_beta(b).automaton(Variant.CORRECTED)
            assert len(aut.states) == 1, build
            build(n, b)
            name = {DEAD: None, **dict(enumerate(aut.states))}
            tables.append({aut.states[i]: [name[j] for j in row]
                           for i, row in enumerate(aut.trans)
                           if row is not None})
            assert len(aut.states) == states, build
        assert tables[0] == tables[1]

    def test_enumeration_peak_is_its_result(self):
        # the second halves and the join cost next to nothing beyond the
        # 478,004 words returned
        b = beta_from_rational(5, 2)
        enumerate_words(14, b)  # the table fills
        tracemalloc.start()
        try:
            ws = enumerate_words(14, b)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ws.count(14) == 478004
        assert peak <= 1.05 * kept

    def test_periodic_points_stay_lazy(self):
        b = beta_from_rational(5, 2)
        count_periodic_points(12, b, PeriodTarget.SHIFT)  # the table fills
        tracemalloc.start()
        try:
            count_periodic_points(12, b, PeriodTarget.SHIFT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # listing the 76k words first takes 15 MB

    def test_periodic_count_advances_linear_states(self, fresh_references):
        # a cycle's ties stay within n digits plus each bound's n-periodic
        # reach: at 5/2 and n = 64 the count advances 2n + 1 states, where
        # the words of length 64 number about 10^25 (the successors of the
        # last ones are interned, but not advanced)
        b = beta_from_rational(5, 2)
        aut = Reference.for_beta(b).automaton(Variant.ITO_SADAHIRO)
        assert len(aut.states) == 1
        count_periodic_points(64, b, PeriodTarget.SHIFT)
        assert sum(row is not None for row in aut.trans) <= 2 * 64 + 1


class TestKeptTails:
    """`enumerate_words` keeps each second half it lists on the automaton
    (`Automaton.tails`, by state id and length): a repeat call builds
    nothing, lengths in any order give the walk's listing, and a build the
    horizon cuts short keeps no entry it had not finished."""

    def test_repeat_builds_nothing(self, fresh_references):
        b = beta_from_rational(5, 2)
        aut = Reference.for_beta(b).automaton(Variant.CORRECTED)
        first = enumerate_words(10, b)
        kept, states = dict(aut.tails), len(aut.states)
        assert enumerate_words(10, b) == first
        assert aut.tails.keys() == kept.keys()
        assert all(aut.tails[key] is tails for key, tails in kept.items())
        assert len(aut.states) == states

    @pytest.mark.parametrize("name", ["2/1", "5/2"])
    def test_lengths_in_any_order(self, name, fresh_references):
        # the variants differ at 2 and coincide at 5/2
        b = matrix_base(name)
        for v in Variant:
            aut = Reference.for_beta(b).automaton(v)
            for n in (12, 7, 11, 0, 1):
                got = enumerate_words(n, b, v).words
                listing = tuple(tuple(p) for p, _ in aut.walk(n))
                # the empty word is not listed (TestEnumerationWordSet)
                assert got == (listing if n else ()), (name, v, n)
            assert _tails_whole(aut), (name, v)

    def test_horizon_cut_keeps_no_partial_entry(self, fresh_references,
                                                monkeypatch):
        # at 5 digits of 5/2 the words of length 6 read digit 6 of d, so
        # the second half of some head of length 3 raises while it builds
        b = beta_from_rational(5, 2)
        build, building = language._tails, []

        def recorded(aut, i, r):
            building.append((i, r))  # popped only if the build returns
            tails = build(aut, i, r)
            building.pop()
            return tails

        monkeypatch.setattr(language, "_tails", recorded)
        with at_horizon(5):
            aut = Reference.for_beta(b).automaton(Variant.CORRECTED)
            cuts = []
            for _ in range(2):
                building.clear()
                with pytest.raises(HorizonTooShort) as raised:
                    enumerate_words(6, b)
                cuts.append((str(raised.value), list(building)))
                assert building[0][1] == 3
                assert not any(key in aut.tails for key in building)
                assert _tails_whole(aut)
        assert cuts[0] == cuts[1]


def _tails_whole(aut):
    """Every kept second half of length r > 0 is its state's successors'
    kept halves of length r - 1, each after its digit."""
    return all(tails == tuple((a,) + t for a, j in enumerate(aut.trans[i])
                              if j != DEAD for t in aut.tails[j, r - 1])
               for (i, r), tails in aut.tails.items() if r)


def _outcome(f, *args):
    try:
        return f(*args)
    except HorizonTooShort:
        return "HorizonTooShort"


def _periodic_orders(b):
    """The n <= 14 with (d1 + 1)^n <= 3 * 10^5: a walk over every word of
    length n stays short."""
    d1 = Reference.for_beta(b).d1
    return [n for n in range(1, 15) if (d1 + 1) ** n <= 3 * 10**5]


def _expansion_words(b, n):
    """The first n digits of the expansions of l_beta, 1/5 and -1/3 (points
    of I for every base below 4); l_beta's word is tied with d throughout."""
    return [expand(x, b, n).seq.digits(n)
            for x in (l_beta(b), Fraction(1, 5), Fraction(-1, 3))]


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

    @pytest.mark.parametrize("name", MATRIX)
    def test_periodic_points_by_walk(self, name):
        # the closed walks against the walk over every word, for every
        # n <= 14 with at most 3 * 10^5 words of n digits
        b = matrix_base(name)
        for n in _periodic_orders(b):
            for target in PeriodTarget:
                assert count_periodic_points(n, b, target) == \
                    oracles.periodic_points_by_walk(n, b, target), \
                    (target, n)

    @pytest.mark.parametrize("horizon", [5, 8, 11])
    def test_periodic_points_by_walk_horizon_parity(self, horizon):
        # both raise for exactly the same requests at a short horizon (12
        # is left to TestPairStates, which needs an empty table there)
        raised = 0
        with at_horizon(horizon):
            for name in MATRIX:
                b = matrix_base(name)
                for n in _periodic_orders(b):
                    for target in PeriodTarget:
                        got = _outcome(count_periodic_points, n, b, target)
                        assert got == _outcome(oracles.periodic_points_by_walk,
                                               n, b, target), \
                            (name, target, n)
                        raised += got == "HorizonTooShort"
        assert raised > 0

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
        # rational bases raise from n = 6 on (census, enumeration) and
        # earlier for cyclic ties (periodic points)
        raised = 0
        with at_horizon(5):
            for name, b in base_matrix.items():
                for v in Variant:
                    for n in range(1, 9):
                        got = _outcome(language_census, n, b, v)
                        assert got == _outcome(oracles.census, n, b, v), \
                            (name, v, n)
                        raised += got == "HorizonTooShort"
                        got = _outcome(lambda: list(
                            enumerate_words(n, b, v).words))
                        assert got == _outcome(oracles.words, n, b, v), \
                            (name, v, n)
                        raised += got == "HorizonTooShort"
                for target in PeriodTarget:
                    for n in range(1, 7):
                        got = _outcome(count_periodic_points, n, b, target)
                        assert got == _outcome(oracles.periodic_points, n, b,
                                               target), (name, target, n)
                        raised += got == "HorizonTooShort"
        assert raised > 0

    def test_membership_horizon_parity(self, base_matrix):
        # at horizons of 3 to 9 digits membership raises for exactly the
        # words the oracle raises for: every word of up to 4 digits; words
        # of up to h + 3 that end in a stretch of d or of 0 d*, so tie past
        # digit h; and a stretch of one bound run into a stretch of the
        # other, so the last lower and upper ties cross the horizon at
        # lengths one apart.  Equal lengths occur only at (0, 0): d starts
        # with floor(beta) >= 1 and 0 d* with 0.
        raised = 0
        for name, b in base_matrix.items():
            alphabet = range(Reference.for_beta(b).d1 + 1)
            pair = reference_pair(b, 512)
            for h in range(3, 10):
                n_max = h + 3
                d, d_star = (s.digits(n_max) for s in pair)
                up = (0,) + d_star[:n_max - 1]
                words = [w for n in range(1, 5)
                         for w in itertools.product(alphabet, repeat=n)]
                words += [head + bound[:n - len(head)]
                          for bound in (d, up) for n in range(1, n_max + 1)
                          for a in alphabet for head in ((), (a,), (a, a))
                          if len(head) < n]
                words += [x[:p] + y[:q] for x, y in ((d, up), (up, d))
                          for p in range(1, n_max)
                          for q in range(1, n_max + 1 - p)]
                with at_horizon(h):
                    for v in Variant:
                        for w in words:
                            got = _outcome(is_admissible_word, w, b, v)
                            assert got == _outcome(oracles.is_admissible, w,
                                                   b, v), (name, h, v, w)
                            raised += got == "HorizonTooShort"
        assert raised > 0

    def test_long_word_admissibility(self, base_matrix):
        # 512-digit words against the oracle, on every base and variant
        for name, b in base_matrix.items():
            for w in _expansion_words(b, 512):
                for v in Variant:
                    assert is_admissible_word(w, b, v) == \
                        oracles.is_admissible(w, b, v), (name, v)

    @pytest.mark.parametrize("name", ["2", "golden"])
    def test_admissibility_past_horizon(self, base_matrix, name):
        # d is periodic, so ties with a bound run past an 8-digit horizon
        b = base_matrix[name]
        with at_horizon(8):
            ref = Reference.for_beta(b)
            assert ref.d.is_periodic
            words = _expansion_words(b, 64) + [ref.upper_seq().digits(64)]
            assert words[0] == ref.d.digits(64)
            assert is_admissible_word(words[0], b, Variant.ITO_SADAHIRO)
            for w in words:
                for v in Variant:
                    assert is_admissible_word(w, b, v) == \
                        oracles.is_admissible(w, b, v), v


def _tie_list(aut, i):
    """State i's tied suffixes, longest first, as (length, tied_lower,
    tied_upper): the pair (j, k) expanded along each bound's chain of
    borders."""
    j, k = aut.states[i]
    chains = []
    for s, bound in ((j, aut.lower), (k, aut.upper)):
        chain = set()
        while s:
            chain.add(s)
            s = bound.pi[s]
        chains.append(chain)
    lower, upper = chains
    return [(t, t in lower, t in upper)
            for t in sorted(lower | upper, reverse=True)]


class TestPairStates:
    @pytest.mark.parametrize("name", MATRIX)
    def test_pairs_are_oracle_tie_lists(self, name, fresh_references):
        # every state the census to 12 interns, expanded to its tie list,
        # is the list the oracle holds for a word reaching it, and each
        # stored step is the oracle's step; distinct pairs, distinct lists
        b = matrix_base(name)
        ref = Reference.for_beta(b)
        for v in Variant:
            aut = ref.automaton(v)
            assert len(aut.states) == 1, v
            language_census(12, b, v)
            held = {0: ((), [])}  # a word reaching i, the oracle's list
            queue = [0]
            for i in queue:  # breadth first over the advanced states
                w, ties = held[i]
                for digit, nxt in enumerate(aut.trans[i] or ()):
                    got = oracles._push_digit(ties, digit, len(w) + 1,
                                              ref, v)
                    assert (got is None) == (nxt == DEAD), (v, w, digit)
                    if got is None:
                        continue
                    assert [(len(w) + 1 - start + 1, tl, tu)
                            for start, tl, tu in got] == \
                        _tie_list(aut, nxt), (v, w, digit)
                    if nxt not in held:
                        held[nxt] = w + (digit,), got
                        queue.append(nxt)
            assert sorted(held) == list(range(len(aut.states))), v
            assert len({tuple(_tie_list(aut, i)) for i in held}) == \
                len(held), v


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
