"""Block structure, code families, prefix codes, Kraft sums, and the
family censuses counted without listing a word."""

import copy
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import CENSUS_GRID, grid_bases
from negabeta import codes
from negabeta.codes import (BlockStructure, block_structure, build_code_C,
                            build_delta_evn, build_delta_i, build_delta_odd,
                            build_gamma, code_c_census, delta_i_indices,
                            family_blocks, family_census, kraft_partial_sums,
                            support_code, working_stream)
from negabeta.errors import NegabetaError, UndecidedAtHorizon
from negabeta.expansion import reference_pair
from negabeta.language import (Reference, Variant, at_horizon,
                               is_admissible_word)
from negabeta.numerics import beta_from_rational
from negabeta.order import SymbolicSequence
from negabeta.wordset import WordSet


def _strs(ws, max_len=None):
    return {"".join(map(str, w)) for w in ws.words
            if max_len is None or len(w) <= max_len}


class TestBlocks:
    def test_no_blocks_above_golden_examples(self, beta_golden):
        d, _ = reference_pair(beta_golden)
        bs = block_structure(working_stream(d), 64)
        assert len(bs.blocks) == 0

    def test_quintic_single_block(self, beta_quintic):
        d, _ = reference_pair(beta_quintic)
        bs = block_structure(working_stream(d), 128)
        assert [(b.n, b.p) for b in bs.blocks] == [(2, 1)]
        assert bs.complete

    def test_three_halves_blocks(self):
        b = beta_from_rational(3, 2)
        d, _ = reference_pair(b, max_digits=1024)
        bs = block_structure(working_stream(d), 40)
        assert [(blk.n, blk.p) for blk in bs.blocks][:5] == \
            [(3, 3), (6, 1), (7, 1), (8, 3), (11, 3)]

    def test_integer_base_blockless(self):
        # the working stream of base 2 is the corrected repeating 1 0
        d, _ = reference_pair(beta_from_rational(2, 1))
        ws = working_stream(d)
        assert (ws.prefix, ws.period) == ((), (1, 0))
        assert not block_structure(ws, 64).blocks


class TestFamilies302:
    def test_gamma(self, beta_302):
        d, _ = reference_pair(beta_302)
        gam = build_gamma(working_stream(d), 10)
        assert {"0", "1", "2", "31", "32", "300", "301", "3022",
                "30210", "302112"} <= _strs(gam.gamma)

    def test_delta_odd(self, beta_302):
        d, _ = reference_pair(beta_302)
        dodd = build_delta_odd(working_stream(d), 8)
        assert _strs(dodd) == {"3", "302", "30211", "3021111"}

    def test_code_c_prefix(self, beta_302):
        c = build_code_C(beta_302, 8)
        assert oracles.is_prefix_code(c)
        # every family word is admissible
        for w in c.words:
            assert is_admissible_word(w, beta_302, Variant.CORRECTED)


class TestDeltaLevels:
    def test_quintic_level_one(self, beta_quintic):
        d, _ = reference_pair(beta_quintic)
        ws = working_stream(d)
        assert delta_i_indices(ws, 8) == [1]
        assert _strs(build_delta_i(ws, 1, 8)) == {"201"}

    def test_three_halves_levels(self):
        b = beta_from_rational(3, 2)
        d, _ = reference_pair(b, max_digits=1024)
        ws = working_stream(d)
        lv = build_delta_i(ws, 1, 16)
        assert "10000" in _strs(lv)
        # the two-block word B2 B1 (length 16) belongs to level 1 as well
        assert any(len(w) == 16 for w in lv.words)

    def test_level_words_distinct_and_end_in_level_block(self):
        b = beta_from_rational(13, 10)
        d, _ = reference_pair(b, max_digits=4096)
        ws = working_stream(d)
        bs = block_structure(ws, 64)
        for i in delta_i_indices(ws, 12):
            blk = bs.blocks[i - 1]
            tail = tuple(ws.digit(k) for k in range(1, 2 * blk.n))
            lv = build_delta_i(ws, i, 12)
            assert len(set(lv.words)) == len(lv.words)
            assert all(w[-len(tail):] == tail for w in lv.words)

    def test_cross_level_concatenation_admissible(self):
        # a level-i word followed by a level-j word (i <= j) is admissible
        b = beta_from_rational(13, 10)
        d, _ = reference_pair(b, max_digits=4096)
        ws = working_stream(d)
        idx = delta_i_indices(ws, 10)[:3]
        fams = {i: build_delta_i(ws, i, 10).words for i in idx}
        for i in idx:
            for j in idx:
                if i > j:
                    continue
                for x in fams[i][:4]:
                    for y in fams[j][:4]:
                        with at_horizon(2048):
                            assert is_admissible_word(
                                x + y, b, Variant.CORRECTED), (x, y)


class TestKraft:
    def test_golden_two_word_code(self, beta_golden):
        ws = WordSet.from_words([(1,), (0, 0)], 2)
        iv = oracles.kraft_sum(ws, beta_golden)
        assert iv.lo == iv.hi == 1

    def test_code_c_five_halves_recurrent_positive(self):
        b = beta_from_rational(5, 2)
        c = build_code_C(b, 12)
        sums = kraft_partial_sums(c, b)
        vals = [s.as_rational() for s in sums]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] > F(95, 100)
        assert vals[-1] < 1

    def test_delta_odd_golden_partial_sums(self, beta_golden):
        d, _ = reference_pair(beta_golden)
        dodd = build_delta_odd(working_stream(d), 15)
        sums = kraft_partial_sums(dodd, beta_golden)
        last = sums[-1].enclosure(F(1, 10**9))
        assert F(99, 100) < last.lo < last.hi < 1


class TestSupportCode:
    def test_above_golden(self):
        sc = support_code(beta_from_rational(5, 2), 6)
        assert sc.kind == "CFull"

    def test_golden_itself(self, beta_golden):
        sc = support_code(beta_golden, 9)
        assert sc.kind == "DeltaOdd"

    def test_three_halves(self):
        with at_horizon(1024):
            sc = support_code(beta_from_rational(3, 2), 10)
        assert sc.kind == "DeltaOdd"

    def test_thirteen_tenths(self):
        with at_horizon(4096):
            sc = support_code(beta_from_rational(13, 10), 10)
        assert sc.kind == "DeltaI" and sc.level == 1

    def test_plastic_boundary(self, beta_plastic):
        sc = support_code(beta_plastic, 10)
        assert sc.kind == "DeltaI" and sc.level == 1

    def test_kraft_tends_to_one(self, beta_plastic):
        # the support family is recurrent positive: partial Kraft sums rise
        sc = support_code(beta_plastic, 20)
        sums = kraft_partial_sums(sc.family, beta_plastic)
        encl = [s.enclosure(F(1, 10**9)) for s in sums[2::4]]
        vals = [(e.lo + e.hi) / 2 for e in encl]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1


class TestEvenFamily:
    def test_contains_short_even_words(self):
        b = beta_from_rational(5, 2)
        d, _ = reference_pair(b)
        evn = build_delta_evn(working_stream(d), 6)
        assert evn.includes_empty
        for w in evn.words:
            assert len(w) % 2 == 0
            assert is_admissible_word(w, b, Variant.CORRECTED)


# census at length 12 of every family, at the bases with blocks:
# (base, digit horizon, {family: {length: count}})
CENSUS_12 = [
    ("3/2", 1024, {
        "gamma0": {1: 1}, "gamma0_prime": {}, "gamma1": {}, "gamma1_prime": {},
        "delta_odd": {1: 1, 3: 1, 9: 1},
        "delta_evn": {2: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1, 10: 2, 11: 2,
                      12: 2},
        "delta_i": {1: {5: 1}, 2: {11: 1}},
        "code_c": {1: 1}}),
    ("13/10", 4096, {
        "gamma0": {1: 1}, "gamma0_prime": {}, "gamma1": {}, "gamma1_prime": {},
        "delta_odd": {1: 1},
        "delta_evn": {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 4, 9: 5, 10: 7,
                      11: 9, 12: 12},
        "delta_i": {1: {3: 1, 8: 1, 10: 1, 12: 1}, 2: {5: 1, 12: 1},
                    3: {7: 1}, 4: {9: 1}, 5: {11: 1}},
        "code_c": {1: 1}}),
    ("plastic", 512, {
        "gamma0": {1: 1}, "gamma0_prime": {}, "gamma1": {}, "gamma1_prime": {},
        "delta_odd": {1: 1},
        "delta_evn": {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 4, 9: 5, 10: 7,
                      11: 9, 12: 12},
        "delta_i": {1: {3: 1, 8: 1, 10: 1, 12: 1}, 2: {5: 1, 12: 1},
                    3: {7: 1}, 4: {9: 1}, 5: {11: 1}},
        "code_c": {1: 1}}),
    ("quintic", 512, {
        "gamma0": {1: 2, 2: 1, 3: 1, 7: 1, 9: 1, 11: 1}, "gamma0_prime": {},
        "gamma1": {6: 1, 9: 1, 10: 1, 12: 2}, "gamma1_prime": {},
        "delta_odd": {1: 1, 5: 1, 7: 1, 8: 1, 9: 1, 10: 1, 11: 2, 12: 1},
        "delta_evn": {2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 1, 8: 2, 9: 2, 10: 2,
                      11: 2, 12: 3},
        "delta_i": {1: {3: 1}},
        "code_c": {1: 2, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3, 7: 5, 8: 7, 9: 12,
                   10: 18, 11: 27, 12: 41}}),
    ("302", 512, {
        "gamma0": {1: 3, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1,
                   10: 1, 11: 1, 12: 1},
        "gamma0_prime": {}, "gamma1": {}, "gamma1_prime": {},
        "delta_odd": {1: 1, 3: 1, 5: 1, 7: 1, 9: 1, 11: 1},
        "delta_evn": {2: 1, 4: 1, 6: 1, 8: 1, 10: 1, 12: 1},
        "delta_i": {},
        "code_c": {1: 3, 2: 2, 3: 4, 4: 5, 5: 8, 6: 13, 7: 21, 8: 34, 9: 55,
                   10: 89, 11: 144, 12: 233}}),
]


@pytest.mark.parametrize("base,horizon,census", CENSUS_12,
                         ids=[c[0] for c in CENSUS_12])
def test_family_census(request, base, horizon, census):
    b = (beta_from_rational(*map(int, base.split("/"))) if "/" in base
         else request.getfixturevalue(f"beta_{base}"))
    d, _ = reference_pair(b, max_digits=horizon)
    ws = working_stream(d)
    gam = build_gamma(ws, 12)
    got = {
        "gamma0": gam.gamma0.census, "gamma0_prime": gam.gamma0_prime.census,
        "gamma1": gam.gamma1.census, "gamma1_prime": gam.gamma1_prime.census,
        "delta_odd": build_delta_odd(ws, 12).census,
        "delta_evn": build_delta_evn(ws, 12).census,
        "delta_i": {i: build_delta_i(ws, i, 12).census
                    for i in delta_i_indices(ws, 12)},
    }
    with at_horizon(horizon):
        got["code_c"] = build_code_C(b, 12).census
    assert got == census


def _nonzero(counts):
    return {n: c for n, c in enumerate(counts) if c}


@pytest.mark.parametrize("base,horizon,census", CENSUS_12,
                         ids=[c[0] for c in CENSUS_12])
def test_family_census_counted(request, base, horizon, census):
    # the counts reproduce the listed censuses pinned above (Delta_evn,
    # which no identity reads, is not counted)
    b = (beta_from_rational(*map(int, base.split("/"))) if "/" in base
         else request.getfixturevalue(f"beta_{base}"))
    with at_horizon(horizon):
        got = family_census(Reference.for_beta(b).d_star, 12)
        got["code_c"] = code_c_census(b, 12)
    got["delta_i"] = {i: _nonzero(c) for i, c in got["delta_i"].items()}
    got = {k: v if k == "delta_i" else _nonzero(v) for k, v in got.items()}
    parts = ("gamma0", "gamma0_prime", "gamma1", "gamma1_prime")
    want = {k: v for k, v in census.items() if k != "delta_evn"}
    want["gamma"] = {n: c for n in range(1, 13)
                     if (c := sum(census[k].get(n, 0) for k in parts))}
    assert got == want


def _counts(ws, n):
    return [ws.count(m) for m in range(n + 1)]


def _assert_chain_families_listed(d, n, where):
    got = family_census(d, n)
    gam = build_gamma(d, n)
    for part in ("gamma0", "gamma0_prime", "gamma1", "gamma1_prime", "gamma"):
        assert got[part] == _counts(getattr(gam, part), n), (where, n, part)
    assert got["delta_odd"] == _counts(build_delta_odd(d, n), n), (where, n)
    assert got["delta_i"] == {i: _counts(build_delta_i(d, i, n), n)
                              for i in delta_i_indices(d, n)}, (where, n)


@pytest.mark.parametrize("name,lengths", CENSUS_GRID,
                         ids=[g[0] for g in CENSUS_GRID])
def test_chain_families_factor_uniquely(name, lengths):
    # the census counts a chain followed by a tail once per (chain, tail)
    # pair, the listing each word once: equal counts mean that no word of
    # Gamma, Delta_odd or a Delta^(i) splits into chain and tail in two ways
    for b in grid_bases(name):
        d = Reference.for_beta(b).d_star
        for n in lengths:
            _assert_chain_families_listed(d, n, b)


STREAMS = st.integers(1, 3).flatmap(lambda d1: st.tuples(
    st.just(d1), st.lists(st.integers(0, d1), max_size=8),
    st.lists(st.integers(0, d1), min_size=1, max_size=14)))


@given(stream=STREAMS, n=st.integers(4, 16))
@settings(max_examples=150, deadline=None)
def test_chain_counts_on_any_stream(stream, n):
    # the blocks of the bases above never have p_b = 2 n_c - 1 for two
    # blocks b, c, where a strict link b -> c differs from a non-strict
    # one; eventually periodic digit streams d_1 prefix period^inf often do
    d1, prefix, period = stream
    d = SymbolicSequence((d1, *prefix), tuple(period))
    try:
        family_blocks(d, n)
    except (NegabetaError, ValueError):  # an odd period with no corrected
        assume(False)                    # form, or one that copies itself
    _assert_chain_families_listed(d, n, d)


@pytest.mark.parametrize("name,lengths", CENSUS_GRID,
                         ids=[g[0] for g in CENSUS_GRID])
def test_code_c_words_factor_uniquely(name, lengths):
    # Gamma + A/(1 - A) Gamma_{>=2} counts every concatenation of Delta_odd
    # words and a Gamma word, build_code_C every distinct word: equal
    # counts mean that no word of C has two factorisations up to n
    for b in grid_bases(name):
        for n in lengths:
            got = code_c_census(b, n)
            assert got == _counts(build_code_C(b, n), n), (b, n)


def _assert_families_equal_oracle(d, n, where):
    # each listing equals the depth-first listing of tests/oracles.py, and
    # each census the oracle's census where the paper's unique factorisation
    # holds (every family but C, and C above the golden ratio)
    gam, want = build_gamma(d, n), oracles.gamma(d, n)
    census = family_census(d, n)
    for part in ("gamma0", "gamma0_prime", "gamma1", "gamma1_prime", "gamma"):
        assert getattr(gam, part) == getattr(want, part), (where, n, part)
        assert census[part] == _counts(getattr(want, part), n), (where, n)
    odd = oracles.delta_odd(d, n)
    assert build_delta_odd(d, n) == odd, (where, n)
    assert census["delta_odd"] == _counts(odd, n), (where, n)
    assert build_delta_evn(d, n) == oracles.delta_evn(d, n), (where, n)
    # every block whose word fits, in `delta_i_indices` or not, and one past
    # the blocks
    blocks = family_blocks(d, n).blocks
    for i in [b.index for b in blocks if 2 * b.n - 1 <= n] + [len(blocks) + 1]:
        assert build_delta_i(d, i, n) == oracles.delta_i(d, i, n), (where, i)
    assert census["delta_i"] == {i: _counts(oracles.delta_i(d, i, n), n)
                                 for i in delta_i_indices(d, n)}, (where, n)
    return census["code_c"], oracles.code_c_words(d, n)


def _listed_code_c(d, n):
    """Gamma + P Gamma_{>=2} on any stream, as the construction lists it."""
    return codes._listed(codes._families(d, n, True).code_c, n)


@pytest.mark.parametrize("name,lengths", CENSUS_GRID,
                         ids=[g[0] for g in CENSUS_GRID])
def test_families_equal_oracle(name, lengths):
    for b in grid_bases(name):
        ref = Reference.for_beta(b)
        for n in lengths:
            counted, c = _assert_families_equal_oracle(ref.d_star, n, b)
            if ref.golden_side > 0:
                assert build_code_C(b, n) == c, (b, n)
                assert counted == _counts(c, n), (b, n)
            else:
                assert _listed_code_c(ref.d_star, n) == c, (b, n)
                c = oracles.code_c(b, n)
                assert build_code_C(b, n) == c, (b, n)
            if n > 12:  # the family support_code picks, at short lengths
                continue
            try:
                sc = support_code(b, n)
            except UndecidedAtHorizon:  # a level deeper than d decides
                continue
            want = {"CFull": lambda: c,
                    "DeltaOdd": lambda: oracles.delta_odd(ref.d, n),
                    "DeltaI": lambda: oracles.delta_i(ref.d, sc.level, n)}
            assert sc.family == want[sc.kind](), (b, n)


@given(stream=STREAMS, n=st.integers(4, 16))
@settings(max_examples=100, deadline=None)
def test_families_equal_oracle_on_any_stream(stream, n):
    d1, prefix, period = stream
    d = SymbolicSequence((d1, *prefix), tuple(period))
    try:
        family_blocks(d, n)
    except (NegabetaError, ValueError):
        assume(False)
    _, c = _assert_families_equal_oracle(d, n, d)
    assert _listed_code_c(d, n) == c, (d, n)


def test_census_is_a_fresh_copy(beta_quintic):
    # the construction keeps its results; what a caller changes in one
    # census must not reach a later one
    d = Reference.for_beta(beta_quintic).d_star
    want = copy.deepcopy(family_census(d, 12))
    assert want["delta_i"] and any(want["code_c"])
    got = family_census(d, 12)
    for counts in [*got["delta_i"].values(), *(got[k] for k in want
                                               if k != "delta_i")]:
        counts[:] = [-1]
    got["delta_i"].clear()
    assert family_census(d, 12) == want


def test_counting_reads_no_word(monkeypatch):
    # the census of order 200 counts without building a prefix of d
    d = Reference.for_beta(beta_from_rational(5, 2)).d_star
    want = family_census(d, 64)

    def no_prefix(self, n):
        raise AssertionError("a count read a prefix of d")

    monkeypatch.setattr(BlockStructure, "prefix", no_prefix)
    with at_horizon(512) as run:
        assert family_census(d, 200)["gamma"][:65] == want["gamma"]
        assert list(run.kept) == [(codes._families.__wrapped__,
                                   (d, 200, False))]
    assert run.kept == {}  # leaving the run drops the families
