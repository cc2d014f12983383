"""Alternating lexicographic order on words and symbolic sequences."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from negabeta.errors import LengthMismatch, UndecidedAtHorizon
from negabeta.order import (EQUAL, GREATER, LESS, SymbolicSequence,
                            alt_compare, alt_compare_seq, format_digits,
                            parse_digits, parse_word, purely_periodic)
from negabeta.wordset import WordSet

words = st.lists(st.integers(min_value=0, max_value=3),
                 min_size=1, max_size=12).map(tuple)


class TestAltCompare:
    def test_first_position_descends(self):
        # at position 1 the order is reversed: larger digit sorts lower
        assert alt_compare((2,), (1,)) == LESS
        assert alt_compare((0,), (1,)) == GREATER

    def test_second_position_ascends(self):
        assert alt_compare((1, 0), (1, 1)) == LESS
        assert alt_compare((1, 2), (1, 1)) == GREATER

    def test_equal(self):
        assert alt_compare((1, 0, 2), (1, 0, 2)) == EQUAL

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            alt_compare((1, 0), (1, 0, 2))

    @given(u=words, v=words)
    @settings(max_examples=150, deadline=None)
    def test_total_and_antisymmetric(self, u, v):
        if len(u) != len(v):
            with pytest.raises(LengthMismatch):
                alt_compare(u, v)
            return
        c = alt_compare(u, v)
        assert c in (LESS, EQUAL, GREATER)
        assert alt_compare(v, u) == -c
        assert (c == EQUAL) == (u == v)

    @given(u=words, v=words, w=words)
    @settings(max_examples=150, deadline=None)
    def test_transitive(self, u, v, w):
        n = min(len(u), len(v), len(w))
        u, v, w = u[:n], v[:n], w[:n]
        if alt_compare(u, v) <= 0 and alt_compare(v, w) <= 0:
            assert alt_compare(u, w) <= 0


class TestSymbolicSequence:
    def test_canonical_period(self):
        s = SymbolicSequence((2, 0), (1, 2, 1, 2))
        assert s.period == (1, 2)

    def test_preperiod_absorption(self):
        # 1 2 (1 2)^inf is purely periodic (1 2)^inf
        s = SymbolicSequence((1, 2), (1, 2))
        assert s.prefix == () and s.period == (1, 2)
        assert purely_periodic(s)

    def test_rotation_absorption(self):
        # 2 (1 2)^inf = (2 1)^inf
        s = SymbolicSequence((2,), (1, 2))
        assert s.prefix == () and s.period == (2, 1)

    def test_digit_one_based(self):
        s = SymbolicSequence((3,), (0, 1))
        assert [s.digit(i) for i in range(1, 6)] == [3, 0, 1, 0, 1]

    def test_truncated_raises_past_horizon(self):
        s = SymbolicSequence((1, 0, 0), None)
        assert s.digit(3) == 0
        with pytest.raises(UndecidedAtHorizon):
            s.digit(4)

    def test_shift(self):
        s = SymbolicSequence((3, 2), (1, 0))
        assert s.shift(1).prefix == (2,) and s.shift(1).period == (1, 0)
        assert s.shift(3).period == (0, 1)

    def test_kept_hash(self):
        # equal sequences from different non-canonical inputs hash equal,
        # the kept hash is that of a sequence built afresh, and it takes no
        # part in equality or the repr
        same = [SymbolicSequence((2,), (1, 2)), SymbolicSequence((), (2, 1)),
                SymbolicSequence((2, 1, 2, 1), (2, 1, 2, 1)),
                SymbolicSequence([2, 1, 2], [1, 2, 1, 2])]
        fresh = SymbolicSequence((), (2, 1))
        for s in same:
            assert s == fresh and hash(s) == hash(fresh), s
            assert s._hash == hash(type(s)(s.prefix, s.period)), s
            assert repr(s) == "SymbolicSequence(prefix=(), period=(2, 1))"
        assert len(set(same)) == 1 and {fresh: 1}[same[-1]] == 1
        long = tuple(range(3)) * 200
        assert hash(SymbolicSequence(long)) == hash(SymbolicSequence(list(long)))
        assert SymbolicSequence((1,)) != SymbolicSequence((1,), (0,))


class TestAltCompareSeq:
    def test_periodic_equality_certified(self):
        a = SymbolicSequence((1, 0), (2, 1))
        b = SymbolicSequence((1, 0, 2, 1), (2, 1))
        assert alt_compare_seq(a, b) == EQUAL

    def test_periodic_strict(self):
        a = SymbolicSequence((), (1, 0))
        b = SymbolicSequence((), (1, 1))
        # first difference at position 2 (even): ascending there
        assert alt_compare_seq(a, b) == LESS

    def test_truncated_undecided(self):
        a = SymbolicSequence((1, 0, 0), None)
        b = SymbolicSequence((), (1, 0, 0))
        with pytest.raises(UndecidedAtHorizon):
            alt_compare_seq(a, b)

    def test_truncated_decided_early(self):
        a = SymbolicSequence((2, 0, 0), None)
        b = SymbolicSequence((), (1, 0, 0))
        assert alt_compare_seq(a, b) == LESS


class TestParsing:
    def test_parse_periodic(self):
        s = parse_digits("2012(1)")
        assert s.prefix == (2, 0, 1, 2) and s.period == (1,)

    def test_parse_comma(self):
        assert parse_word("2,10,0") == (2, 10, 0)

    def test_roundtrip(self):
        s = parse_digits("100(11)")
        assert parse_digits(format_digits(s.prefix, s.period)) == s

    @given(pre=st.lists(st.integers(0, 30), max_size=6).map(tuple),
           per=st.lists(st.integers(0, 30), min_size=1, max_size=4).map(tuple))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_random(self, pre, per):
        s = SymbolicSequence(pre, per)
        assert parse_digits(format_digits(s.prefix, s.period)) == s

    def test_one_big_digit_block(self):
        # a block of one digit above 9 keeps its comma, so it reads back as
        # one digit; strings of digits up to 9 are as before
        assert format_digits((), (12,)) == "(12,)"
        assert format_digits((12,), (3,)) == "12,(3,)"
        assert parse_digits("(12,)") == SymbolicSequence((), (12,))
        assert parse_digits("12,(3,)") == SymbolicSequence((12,), (3,))
        assert parse_digits("12(3)") == SymbolicSequence((1, 2), (3,))
        assert format_digits((1, 2), (3,)) == "12(3)"
        both = WordSet.from_words([(12,), (1, 2)], 2)
        assert both.to_json()["words"] == ["12", "12,"]
        assert WordSet.from_json(both.to_json()) == both

    @given(pre=st.lists(st.integers(0, 15), max_size=40).map(tuple),
           per=st.one_of(st.none(), st.just((12,)),
                         st.lists(st.integers(0, 15), min_size=1,
                                  max_size=40).map(tuple)))
    @settings(max_examples=300, deadline=None)
    def test_format_equals_oracle(self, pre, per):
        # one translated byte per digit up to 9, the comma rule above it
        text = format_digits(pre, per)
        assert text == oracles.format_digits(pre, per)
        assert parse_digits(text) == SymbolicSequence(pre, per)

    @given(st.lists(st.lists(st.integers(0, 30), min_size=1, max_size=4)
                    .map(tuple), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_wordset_json_roundtrip(self, words):
        ws = WordSet.from_words(words, 4)
        assert WordSet.from_json(ws.to_json()) == ws
