"""Admissibility, enumeration, complexity, classification, periodic points."""

import gc
import itertools
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import DEG7, MATRIX, matrix_base, stored
from negabeta import codes, language
from negabeta.codes import build_code_C, build_gamma, working_stream
from negabeta.errors import HorizonTooShort
from negabeta.expansion import expand, reference_pair
from negabeta.language import (DEAD, PeriodTarget, Reference, Variant,
                               at_horizon, classify, count_periodic_points,
                               cycle_ties, enumerate_words, factor_complexity,
                               gamma_n, is_admissible_word, language_census,
                               periodic_point_counts)
from negabeta.numerics import beta_from_poly, beta_from_rational, l_beta
from negabeta.series import lap_series
from negabeta.wordset import PackedWords, WordSet

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

    @pytest.mark.parametrize("n", [-1, -2, -7])
    def test_negative_length(self, n):
        # a negative length names no layer or half, and stores none
        b = beta_from_rational(5, 2)
        with at_horizon(512) as run:
            with pytest.raises(ValueError, match=f"word length {n} is"):
                enumerate_words(n, b)
            assert not any(stored(run.kept, f) for f in
                           (language._halves, language._heads,
                            language._tails))
            assert language_census(n, b) == []

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
                want = WordSet.from_words(
                    [w for w, _ in oracles.automaton_words(aut, n)], n)
                assert enumerate_words(n, b, v) == want, (name, v, n)
        assert enumerate_words(0, b) == WordSet((), {}, 0)

    @pytest.mark.parametrize("name", ["2/1", "5/2", "13/10", "golden"])
    def test_membership_equals_set(self, name):
        # every word to length 6 over one digit more than the alphabet, and
        # every listed word, asked as a tuple and as a list
        b = matrix_base(name)
        ref = Reference.for_beta(b)
        fam = build_gamma(ref.d_star, 9)
        sets = [enumerate_words(n, b, v) for n in (0, 1, 5, 6) for v in Variant]
        sets += [fam.gamma, fam.gamma0, fam.gamma1_prime]
        probes = [w for n in range(7)
                  for w in itertools.product(range(ref.d1 + 2), repeat=n)]
        for ws in sets:
            listed = set(ws.words)
            for w in probes + list(ws.words):
                assert (w in ws) == (w in listed), (name, w)
                assert (list(w) in ws) == (w in listed), (name, w)


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
        # the second halves and the joins cost little beyond the 478,004
        # words returned: the buffer is sized before it is filled (peak
        # 1.011 of what is kept), where one join of the words of every
        # first half would reach about 2
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

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("warm", [False, True])
    def test_listing_peak_is_its_result(self, variant, warm,
                                        fresh_references):
        # the same bound cold or warm, for either variant, at length 12
        # (peak 1.031 to 1.033 of what is kept)
        b = beta_from_rational(5, 2)
        if warm:
            enumerate_words(12, b, variant)  # the table fills
        tracemalloc.start()
        try:
            ws = enumerate_words(12, b, variant)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ws.count(12) == language_census(12, b, variant)[-1]
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
    """`enumerate_words` keeps each second half it lists in the run's store
    (`_tails`, by automaton, state id and length): a repeat call builds
    nothing, lengths in any order give the walk's listing, and a build the
    horizon cuts short keeps no entry it had not finished."""

    def test_repeat_builds_nothing(self, fresh_references):
        b = beta_from_rational(5, 2)
        aut = Reference.for_beta(b).automaton(Variant.CORRECTED)
        first = enumerate_words(10, b)
        kept = stored(fresh_references, language._tails)
        states = len(aut.states)
        assert enumerate_words(10, b) == first
        tails = stored(fresh_references, language._tails)
        assert tails.keys() == kept.keys() and kept
        assert all(tails[key] is kept[key] for key in kept)
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
            assert _tails_whole(aut, fresh_references), (name, v)

    def test_horizon_cut_keeps_no_partial_entry(self, monkeypatch):
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
        with at_horizon(5) as run:
            aut = Reference.for_beta(b).automaton(Variant.CORRECTED)
            cuts = []
            for _ in range(2):
                building.clear()
                with pytest.raises(HorizonTooShort) as raised:
                    enumerate_words(6, b)
                cuts.append((str(raised.value), list(building)))
                assert building[0][1] == 3
                tails = stored(run.kept, build)
                assert not any((aut, *key) in tails for key in building)
                assert _tails_whole(aut, run.kept, build)
        assert cuts[0] == cuts[1]


class TestKeptCensus:
    """The automaton keeps its census totals and its last layer by state id
    (`Automaton.totals`, `last`), and the run's store its first halves with
    their end states (`_heads`) and its listings (`_halves`): a repeat
    census or listing builds nothing, lengths in any order and either call
    first give the same counts and words, a call the horizon cuts short
    stores no total, layer or listing, and what a census keeps grows with
    its totals, not with its layers."""

    def test_repeat_builds_nothing(self, fresh_references, monkeypatch):
        b = beta_from_rational(5, 2)
        aut = Reference.for_beta(b).automaton(Variant.CORRECTED)
        census, words = language_census(20, b), enumerate_words(10, b)
        last, totals = aut.last, list(aut.totals)
        heads = stored(fresh_references, language._heads)
        halves = stored(fresh_references, language._halves)
        states = len(aut.states)

        def built(*args):
            raise AssertionError("a repeat call built a head or a state")

        monkeypatch.setattr(language.Automaton, "walk", built)
        monkeypatch.setattr(language.Automaton, "_advance", built)
        assert language_census(20, b) == census
        assert enumerate_words(10, b) == words
        assert language_census(7, b) == census[:7]  # a slice of the totals
        assert len(aut.totals) == 21 and aut.totals == totals
        assert aut.last is last
        for f, kept in ((language._heads, heads), (language._halves, halves)):
            now = stored(fresh_references, f)
            assert now.keys() == kept.keys(), f
            assert all(now[key] is kept[key] for key in kept), f
        assert heads.keys() == {(aut, 5)} and halves.keys() == {(aut, 10)}
        assert len(aut.states) == states

    @pytest.mark.parametrize("name", ["2/1", "5/2"])
    def test_lengths_in_any_order(self, name, fresh_references):
        # the census to 20 asked in one call on a fresh automaton, its
        # first 12 lengths against the oracle's count; lengths are then
        # asked out of order, each listing (to 12) before its census
        b = matrix_base(name)
        for v in Variant:
            fresh_references.clear()
            whole = [1] + language_census(20, b, v)
            assert whole[1:13] == oracles.census(12, b, v), (name, v)
            fresh_references.clear()
            aut = Reference.for_beta(b).automaton(v)
            for n in (12, 7, 20, 0, 1):
                if n <= 12:
                    listing = tuple(tuple(p) for p, _ in aut.walk(n))
                    got = enumerate_words(n, b, v).words
                    assert got == (listing if n else ()), (name, v, n)
                assert language_census(n, b, v) == whole[1:n + 1], (name, v)
            assert aut.totals == whole, (name, v)
            assert _census_whole(aut), (name, v)
            assert _heads_whole(aut, fresh_references), (name, v)

    @pytest.mark.parametrize("name", ["2/1", "5/2", "golden"])
    def test_census_and_listing_either_first(self, name, fresh_references):
        # each order on a fresh automaton; ids are interned in the order
        # states are met, so the last layers compare by state
        b, results = matrix_base(name), []
        for listing_first in (True, False):
            fresh_references.clear()
            aut = Reference.for_beta(b).automaton(Variant.CORRECTED)
            if listing_first:
                words = enumerate_words(12, b)
                census = language_census(12, b)
            else:
                census = language_census(12, b)
                words = enumerate_words(12, b)
            last = {aut.states[i]: c for i, c in aut.last.items()}
            results.append((census, words, last))
            assert _census_whole(aut), listing_first
            assert _heads_whole(aut, fresh_references), listing_first
        assert results[0] == results[1]
        assert results[0][1].count(12) == results[0][0][-1]

    def test_horizon_cut_stores_no_layer_or_listing(self):
        # at 5 digits of 5/2 the census of length 6 reads digit 6 of d, and
        # so do the second halves of the words of length 6; after a census
        # and a listing the horizon can answer, each cut call raises the
        # same message twice and leaves the totals, the last layer and the
        # listings as they were (the halves it finished may be kept)
        b = beta_from_rational(5, 2)
        with at_horizon(5) as run:
            aut = Reference.for_beta(b).automaton(Variant.CORRECTED)
            for build, n in ((language_census, 10), (enumerate_words, 12)):
                with pytest.raises(HorizonTooShort):  # on an empty automaton
                    build(n, b)
                assert aut.last == {0: 1} and aut.totals == [1]
                assert not stored(run.kept, language._halves)
            assert language_census(5, b) == [3, 8, 20, 50, 125]
            assert enumerate_words(5, b).count(5) == 125
            kept = (aut.last, list(aut.totals),
                    stored(run.kept, language._halves))
            for build, n in ((language_census, 6), (language_census, 10),
                             (enumerate_words, 6), (enumerate_words, 12)):
                messages = set()
                for _ in range(2):
                    with pytest.raises(HorizonTooShort) as raised:
                        build(n, b)
                    messages.add(str(raised.value))
                    now = (aut.last, aut.totals,
                           stored(run.kept, language._halves))
                    assert now == kept, (build.__name__, n)
                    assert aut.last is kept[0]
                assert len(messages) == 1, (build.__name__, n)
            assert _census_whole(aut) and _heads_whole(aut, run.kept)
            assert _tails_whole(aut, run.kept)

    def test_run_end_drops_what_was_kept(self):
        # the totals, heads and tails one run keeps go with it: after the
        # block and a collection, tracemalloc finds what was held before it
        b = beta_from_rational(5, 2)

        def work():
            with at_horizon(512) as run:
                aut = Reference.for_beta(b).automaton(Variant.CORRECTED)
                enumerate_words(14, b)  # its words are dropped at once
                language_census(40, b)
                assert len(aut.totals) == 41
                assert (aut, 7) in stored(run.kept, language._heads)
                assert stored(run.kept, language._tails)
                gc.collect()
                return weakref.ref(aut), tracemalloc.get_traced_memory()[0]

        work()  # anything made once per process is made here
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            aut, held = work()
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert aut() is None
        assert held - before > 1 << 19  # the kept halves and totals, 0.79 MB
        assert after - before < 16 << 10

    def test_census_holds_totals_not_layers(self):
        # where d never closes the automaton has about 2m states at length
        # m and each count about m log2(beta) bits: a census to 400 that
        # kept every layer held 14.5 MB, the totals and the last layer
        # 0.41 MB (the reference and its tables included)
        b = beta_from_rational(5, 2)

        def census():
            with at_horizon(512):
                aut = Reference.for_beta(b).automaton(Variant.CORRECTED)
                language_census(400, b)
                assert len(aut.totals) == 401
                assert sum(aut.last.values()) == aut.totals[-1]
                gc.collect()
                return tracemalloc.get_traced_memory()[0]

        census()  # anything made once per process is made here
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            held = census()
        finally:
            tracemalloc.stop()
        assert held - before < 2 << 20


class TestKeptCycles:
    """The run's store keeps each closed-walk pass of the Ito-Sadahiro
    automaton (`_closed_walks`, by automaton, length and caps), which both
    targets share: `periodic_point_counts` reads every length off its one
    pass, `count_periodic_points` the last of its own, and a repeat call
    makes no pass; a call the horizon cuts short keeps nothing, and the end
    of a run drops the passes."""

    @staticmethod
    def _passes(store):
        """The length and caps of each pass in the store, in their order."""
        return [args[1:] for args in stored(store, language._closed_walks)]

    @pytest.mark.parametrize("name", ["2/1", "3/1", "5/2", "q31021"])
    def test_counts_read_off_one_pass(self, name, fresh_references):
        # 3/1 and the quartic have periodic bounds, whose rotations are
        # checked apart at every count
        b = matrix_base(name)
        want = {t: periodic_point_counts(24, b, t) for t in PeriodTarget}
        assert [n for n, *_ in self._passes(fresh_references)] == [24]
        kept = None
        for t in PeriodTarget:
            assert periodic_point_counts(24, b, t) == want[t], t
            assert periodic_point_counts(9, b, t) == want[t][:9], t
            assert [count_periodic_points(m, b, t)
                    for m in range(1, 25)] == want[t], t
            passes = stored(fresh_references, language._closed_walks)
            if kept is None:  # the second target makes no pass
                kept = passes
        assert passes.keys() == kept.keys()
        assert all(passes[key] is kept[key] for key in kept)
        assert {n for _, n, *_ in kept} == set(range(1, 25))

    def test_single_count_keeps_its_length(self, fresh_references):
        # a count at n makes one pass to n on n's caps; a listing of every
        # length after it makes its own pass to 12 and agrees
        b = beta_from_rational(5, 2)
        shift = count_periodic_points(10, b, PeriodTarget.SHIFT)
        caps, _ = cycle_ties(10, b)
        assert self._passes(fresh_references) == [(10, *caps)]
        counts = periodic_point_counts(12, b, PeriodTarget.SHIFT)
        passes = self._passes(fresh_references)
        assert [n for n, *_ in passes] == [10, 12]
        assert counts[9] == shift
        assert counts == [oracles.periodic_points_per_n(m, b,
                                                         PeriodTarget.SHIFT)
                          for m in range(1, 13)]

    def test_zero_periods_make_no_pass(self, fresh_references):
        b = beta_from_rational(5, 2)
        for t in PeriodTarget:
            assert periodic_point_counts(0, b, t) == [], t
            assert count_periodic_points(0, b, t) == 0, t
        assert self._passes(fresh_references) == []

    def test_horizon_cut_keeps_no_count(self):
        # at 8 digits of 5/2 the periods to 6 are decided and period 7 is
        # not: a listing to 12 raises before its pass, and keeps nothing
        b = beta_from_rational(5, 2)
        with at_horizon(8) as run:
            counts = periodic_point_counts(6, b, PeriodTarget.SHIFT)
            kept = self._passes(run.kept)
            for _ in range(2):
                with pytest.raises(HorizonTooShort):
                    periodic_point_counts(12, b, PeriodTarget.SHIFT)
                with pytest.raises(HorizonTooShort):
                    count_periodic_points(12, b, PeriodTarget.SHIFT)
                assert self._passes(run.kept) == kept
            assert periodic_point_counts(6, b, PeriodTarget.SHIFT) == counts

    def test_run_end_drops_the_counts(self):
        # a block's passes go with its store and its automaton, so the next
        # block, its store empty, makes its pass again
        b = beta_from_rational(5, 2)
        refs, passes = [], []
        for _ in range(2):
            with at_horizon(512) as run:
                aut = Reference.for_beta(b).automaton(Variant.ITO_SADAHIRO)
                for t in PeriodTarget:
                    periodic_point_counts(24, b, t)
                passes += [n for n, *_ in self._passes(run.kept)]
                refs.append(weakref.ref(aut))
            assert run.kept == {}
            del aut
            gc.collect()
            assert refs[-1]() is None
        assert passes == [24, 24]


class TestPackedWords:
    """`enumerate_words` holds its words in one buffer of bytes rows
    (`PackedWords`), which the cyclic collector never walks, and gives
    each back as a tuple of ints; the kept second halves are bytes rows."""

    def test_listing_runs_no_collection(self):
        # 76,480 words of length 12, with no object the collector tracks
        b = beta_from_rational(5, 2)
        enumerate_words(12, b)  # the table fills
        runs = []

        def counted(phase, info):
            runs.append(info["generation"])

        gc.collect()
        gc.callbacks.append(counted)
        try:
            ws = enumerate_words(12, b)
        finally:
            gc.callbacks.remove(counted)
        assert len(ws.words) == 76480
        assert runs == []
        assert not gc.is_tracked(ws.words.data)  # one buffer, untracked

    def test_sequence_of_tuples(self):
        b = beta_from_rational(5, 2)
        words = enumerate_words(6, b).words
        listing = tuple(tuple(p) for p, _ in
                        Reference.for_beta(b).automaton(Variant.CORRECTED)
                        .walk(6))
        assert isinstance(words, PackedWords)
        assert words == listing and listing == words
        assert tuple(words) == listing and list(words) == list(listing)
        assert [words[i] for i in (0, 1, -1)] == [listing[i]
                                                  for i in (0, 1, -1)]
        assert words[5:40:3] == listing[5:40:3]
        assert isinstance(words[5:40:3], PackedWords)
        assert words != listing[:-1] and words[:-1] != words
        assert words != [list(w) for w in listing]  # a tuple, as before
        assert repr(words[:2]) == f"PackedWords({listing[:2]!r})"

    def test_digits_past_a_byte(self, fresh_references):
        # 513/2 has the digits 0..256: eight bytes a digit, in the same
        # order as the words
        b = beta_from_rational(513, 2)
        aut = Reference.for_beta(b).automaton(Variant.CORRECTED)
        for n in (1, 2):
            ws = enumerate_words(n, b)
            want = WordSet.from_words(
                [w for w, _ in oracles.automaton_words(aut, n)], n)
            assert ws == want, n
            assert ws.words.width == 8 and max(ws.words[-1]) == 256, n
        assert enumerate_words(1, b).words[-1] == (256,)
        # the same words at one byte a digit are equal
        assert enumerate_words(1, b).words[:3] == \
            enumerate_words(1, beta_from_rational(5, 2)).words

    def test_empty_listings(self):
        # n = 0 lists no word, and neither does an empty slice; a row of no
        # digits has no struct to iterate over
        b = beta_from_rational(2, 1)
        for words in (enumerate_words(0, b).words,
                      enumerate_words(5, b).words[7:3], PackedWords(b"", 0),
                      PackedWords(b"", 3, 8)):
            assert len(words) == 0 and tuple(words) == () and list(words) == []
            assert words == () and words[:] == () and words[::-2] == ()
            assert words == PackedWords(b"", 4)
            assert repr(words) == "PackedWords(())"
            for i in (0, -1):
                with pytest.raises(IndexError):
                    words[i]
        assert enumerate_words(0, b) == WordSet((), {}, 0)
        assert enumerate_words(0, b).words != enumerate_words(1, b).words

    def test_indices_and_extended_slices(self):
        b = beta_from_rational(5, 2)
        words = enumerate_words(7, b).words
        listing = tuple(words)
        count = len(listing)
        assert count == 783
        for i in (0, 1, count - 1, -1, -2, -count):
            assert words[i] == listing[i], i
        for i in (count, count + 1, -count - 1, -10**9):
            with pytest.raises(IndexError):
                words[i]
        for key in (slice(None, None, -1), slice(None, None, 2),
                    slice(-3, None, -2), slice(1, 100, 7), slice(5, -5, 300),
                    slice(-10**9, 10**9, 1), slice(10, 2, -3)):
            part = words[key]
            assert isinstance(part, PackedWords), key
            assert part == listing[key] and tuple(part) == listing[key], key
            assert len(part) == len(listing[key]), key
        assert words[::-1][::-1] == words

    def test_widths_compare_by_words(self):
        # the words of 5/2 at eight bytes a digit are the words at one
        b = beta_from_rational(5, 2)
        words = enumerate_words(4, b).words
        wide = PackedWords(b"".join(a.to_bytes(8, "big") for w in words
                                    for a in w), 4, 8)
        assert words.width == 1 and len(wide.data) == 8 * len(words.data)
        assert wide == words and words == wide and wide[3:9] == words[3:9]
        assert wide[-1] == words[-1] and wide[::-3] == words[::-3]
        assert wide[:-1] != words and wide != words[1:]
        # the same buffer read as words of another length
        assert PackedWords(words.data, 2) != words
        assert PackedWords(words.data, 2)[:2] == (words[0][:2], words[0][2:])

    @pytest.mark.parametrize("name", MATRIX)
    def test_equals_automaton_walk(self, name):
        # word by word against the walk, both variants, at every length to
        # 12 with at most 10^5 words
        b = matrix_base(name)
        for v in Variant:
            aut = Reference.for_beta(b).automaton(v)
            counts = [1] + language_census(12, b, v)
            for n in range(1, 13):
                if counts[n] > 10**5:
                    break
                walked = tuple(w for w, _ in oracles.automaton_words(aut, n))
                words = enumerate_words(n, b, v).words
                assert len(words) == counts[n] == len(walked), (name, v, n)
                assert tuple(words) == walked, (name, v, n)


def _tails_whole(aut, store, tails_fn=language._tails):
    """Every second half of length r > 0 the store keeps for aut is its
    state's successors' kept halves of length r - 1, each after its
    digit."""
    kept = {(i, r): tails for (a, i, r), tails
            in stored(store, tails_fn).items() if a is aut}
    return all(_digits(aut, tails)
               == tuple((a,) + t for a, j in enumerate(aut.trans[i])
                        if j != DEAD
                        for t in _digits(aut, kept[j, r - 1]))
               for (i, r), tails in kept.items() if r)


def _stepped_layers(aut, n):
    """The census layers of lengths 0..n by state id, each the one before
    it stepped once on the table."""
    layers = [{0: 1}]
    for _ in range(n):
        nxt = {}
        for i, c in layers[-1].items():
            for j in aut.trans[i]:
                if j != DEAD:
                    nxt[j] = nxt.get(j, 0) + c
        layers.append(nxt)
    return layers


def _census_whole(aut):
    """Each kept total is the sum of its layer stepped on the table from
    the empty word, and the kept last layer is the last of them."""
    layers = _stepped_layers(aut, len(aut.totals) - 1)
    return (aut.totals == [sum(layer.values()) for layer in layers]
            and aut.last == layers[-1])


def _heads_whole(aut, store):
    """Each first half of length h the store keeps for aut is the walk's
    listing of length h, in its order and with its end states, and the end
    states are counted by layer h stepped on the table; each kept listing
    of length n is the kept first halves of length n // 2 and the kept
    second halves of length n - n // 2 from their end states."""
    heads, listings = ({n: kept for (a, n), kept in stored(store, f).items()
                        if a is aut}
                       for f in (language._heads, language._halves))
    tails = stored(store, language._tails)
    heads_whole = all(
        _digits(aut, rows) == tuple(w for w, _ in aut.walk(h))
        and ends == tuple(i for _, i in aut.walk(h))
        and Counter(ends) == _stepped_layers(aut, h)[h]
        for h, (rows, ends) in heads.items())
    return heads_whole and all(
        rows is heads[n // 2][0]
        and seconds == tuple(tails[aut, i, n - n // 2]
                             for i in heads[n // 2][1])
        for n, (rows, seconds) in listings.items())


def _digits(aut, rows):
    """Each bytes row of a kept second half as its tuple of digits."""
    width = len(aut.codes[0])
    return tuple(tuple(int.from_bytes(row[k:k + width], "big")
                       for k in range(0, len(row), width)) for row in rows)


def _outcome(f, *args):
    try:
        return f(*args)
    except HorizonTooShort:
        return "HorizonTooShort"


def _message(f, *args):
    """f(*args), or the message of the HorizonTooShort it raises."""
    try:
        return f(*args)
    except HorizonTooShort as e:
        return str(e)


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
        # is left to TestPairStates, which needs an empty table there); at
        # the quartic d = (31021) closes at digit 6, past horizon 5
        raised = 0
        with at_horizon(horizon):
            for name in (*MATRIX, "q31021"):
                b = matrix_base(name)
                for n in _periodic_orders(b):
                    for target in PeriodTarget:
                        got = _outcome(count_periodic_points, n, b, target)
                        assert got == _outcome(oracles.periodic_points_by_walk,
                                               n, b, target), \
                            (name, target, n)
                        raised += got == "HorizonTooShort"
        assert raised > 0

    @pytest.mark.parametrize("name", [*MATRIX, "q31021"])
    def test_periodic_point_counts_to_40(self, name, fresh_references):
        # the one pass to 40 against a pass of its own for each period;
        # then, on a fresh automaton, single counts of the last target,
        # each on its own pass
        b = matrix_base(name)
        for target in PeriodTarget:
            want = [oracles.periodic_points_per_n(m, b, target)
                    for m in range(1, 41)]
            assert periodic_point_counts(40, b, target) == want, target
        fresh_references.clear()
        for m in (40, 17, 1):
            assert count_periodic_points(m, b, target) == want[m - 1], m

    @pytest.mark.parametrize("horizon", [5, 8, 11])
    def test_periodic_point_counts_horizon_parity(self, horizon):
        # a count at n raises exactly where the per-period count does, and
        # a listing to n raises the message of the first period at which
        # the CLI's loop over `cycle_ties` stops, or gives the per-period
        # counts
        raised = 0
        with at_horizon(horizon):
            for name in (*MATRIX, "q31021"):
                b, top = matrix_base(name), 2 * horizon + 2
                ties = [_message(cycle_ties, m, b) for m in range(1, top + 1)]
                for target in PeriodTarget:
                    per_n = [_message(oracles.periodic_points_per_n, m, b,
                                      target) for m in range(1, top + 1)]
                    for n in range(1, top + 1):
                        assert _message(count_periodic_points, n, b,
                                        target) == per_n[n - 1], \
                            (name, target, n)
                        first = next((e for e in ties[:n]
                                      if isinstance(e, str)), None)
                        got = _message(periodic_point_counts, n, b, target)
                        assert got == (per_n[:n] if first is None else first), \
                            (name, target, n)
                        raised += first is not None
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


class TestRunScope:
    """`at_horizon` opens a run that keeps the references, kneading series
    and code families of its block, and leaving the block drops them;
    outside any block one run serves the whole process."""

    # the first 100 rationals p/q with q <= 30 in (1, 4), in order
    BASES = sorted({Fraction(p, q) for q in range(1, 31)
                    for p in range(q + 1, 4 * q)})[:100]

    def test_block_per_base_holds_nothing(self):
        tracemalloc.start()
        try:
            for f in self.BASES:
                with at_horizon(512):
                    b = beta_from_rational(f.numerator, f.denominator)
                    classify(b)
                    lap_series(b, 64)
                    language_census(10, b)
            del b
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 100_000  # 1.44 MB when references outlived a block

    def test_blocks_nest(self):
        b = beta_from_rational(7, 3)
        shared = Reference.for_beta(b)
        assert Reference.for_beta(beta_from_rational(7, 3)) is shared
        with at_horizon(512) as outer:
            ref = Reference.for_beta(b)
            lap_series(b, 16)
            assert ref is not shared
            assert stored(outer.kept, language.kneading_series)
            with at_horizon(512) as inner:
                assert Reference.for_beta(b) is not ref
                build_code_C(b, 8)
                assert list(stored(inner.kept, Reference.for_beta)) == [(b,)]
                assert stored(inner.kept, codes._families)
            assert inner.kept == {}
            assert Reference.for_beta(b) is ref
            assert not stored(outer.kept, codes._families)
        assert outer.kept == {}
        assert Reference.for_beta(b) is shared

    def test_block_drops_code_families(self):
        tracemalloc.start()
        try:
            with at_horizon(512):
                build_code_C(beta_from_rational(5, 2), 16)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 10_000  # 0.25 MB when the families outlived a block
