"""Prefix-code families attached to the expansion d of the left endpoint.

All constructions read one context, the `BlockStructure` of the working
stream: d, or its corrected form d* when d is purely periodic with odd
period, since only the corrected stream carries the block combinatorics
(`language.Reference.d_star` is that stream for a base).  The stream
decomposes into blocks: positions 2n at which d restarts copying its own
prefix, each block carrying the length p of that copy.  `family_blocks` is
the scan policy of the families: how far to look for blocks for a given
length bound.  From the blocks one builds

* Gamma    — right-extendable words that fall strictly below d once,
* Delta_odd / Delta_evn — prefix-of-d words of odd / even length (plus the
  block-prefixed variants),
* Delta^(i) — cyclic block concatenations filtered by the J(i) windows,
* C        — Delta_odd* Gamma ∪ Gamma, the candidate code of the whole shift.

`support_code` picks its family by the golden side and the cascade level,
which `language.Reference` reads off d.

Each family is stated once, in one construction that counts or lists
(`_families`): a census is the image of the words under length
(Flajolet-Sedgewick, Analytic Combinatorics, I.2), so one sum of products
by length runs over counts or over the words of each length.  A block
chain is a walk over the blocks by (last block, length); C is Gamma + P
Gamma_{>=2} with P = A + A P, A the Delta_odd words.  The `build_*`
functions list every word up to a length bound, recorded on the WordSet;
`family_census` and `code_c_census` count without listing a word.  The
counts assume what the paper proves, that a word factors in one way only
into chain and tail, or into Delta_odd words and a Gamma word; the tests
check this.  The run in force (`language.at_horizon`) keeps the families
per (stream, length) and drops them when it ends.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain
from operator import add, mul
from typing import Optional

from .errors import HorizonTooShort
from .expansion import corrected
from .language import Reference, kept_per_run
from .numerics import BetaSpec, FieldElement, one, zero
from .order import (GREATER, LESS, SymbolicSequence, Word, alt_sign,
                    known_digit)
from .wordset import WordSet

_INF = math.inf


def working_stream(d: SymbolicSequence) -> SymbolicSequence:
    """The stream the families are built from: d, or d* when d is purely
    periodic with odd period."""
    return corrected(d)


@dataclass(frozen=True)
class Block:
    """Block i of the stream: d_{2n} starts a copy of the prefix of length p."""
    index: int   # 1-based block number
    n: int       # block starts at position 2n; its word is d_1 .. d_{2n-1}
    p: int       # maximal matched prefix length


@dataclass(frozen=True)
class BlockStructure:
    """The working stream d with its blocks: the context every family is
    read from."""
    d: SymbolicSequence
    blocks: tuple[Block, ...]
    scan_to: int
    complete: bool  # True iff the list provably contains every block of d

    def prefix(self, n: int) -> Word:
        return tuple(known_digit(self.d, i) for i in range(1, n + 1))

    def n_of(self, i: int):
        """n_i for 1-based block index, inf past the known blocks.

        Trust in "inf" is justified when scan_to >= max_len + 2 (as
        `family_blocks` ensures): a block missing from the list starts past
        every position the enumeration can reach.
        """
        if 1 <= i <= len(self.blocks):
            return self.blocks[i - 1].n
        return _INF

    def window_ok(self, n: int) -> bool:
        """Is there i >= 0 with 2n_i + p_i <= n <= 2n_{i+1} - 2 (n_0=p_0=0)?"""
        if n <= 2 * self.n_of(1) - 2:
            return True
        return any(2 * b.n + b.p <= n <= 2 * self.n_of(b.index + 1) - 2
                   for b in self.blocks)


def block_structure(d: SymbolicSequence, scan_to: int = 256,
                    need: Optional[int] = None) -> BlockStructure:
    """Find the blocks of the working stream of d with start position <=
    scan_to.

    A block start is an even position e = 2n, past all previously claimed
    positions, where d_e equals d_1; p is the maximal k with
    d_{2n-1+k} = d_k.  A purely periodic stream of odd period would copy
    itself forever, which is why the scan runs on the corrected stream.
    A block whose match is still open at the horizon of a truncated d raises
    HorizonTooShort, unless it starts past `need`: then the scan ends there.
    """
    d = working_stream(d)
    if not d.is_periodic and len(d.prefix) < scan_to:
        scan_to = len(d.prefix)
    d1 = known_digit(d, 1)
    blocks: list[Block] = []
    claimed = 0
    e = 2
    while e <= scan_to:
        if e > claimed and known_digit(d, e) == d1:
            n = e // 2
            # maximal matched prefix length
            cap = (len(d.prefix) + 2 * len(d.period) + e + 4) if d.is_periodic \
                else len(d.prefix) - (e - 1)
            p = 0
            while p < cap and known_digit(d, e + p) == known_digit(d, p + 1):
                p += 1
            if p >= cap:
                if d.is_periodic:
                    raise ValueError("stream copies itself forever; odd-periodic "
                                     "data must be corrected first")
                if need is not None and e > need:
                    scan_to = e - 2
                    break
                raise HorizonTooShort(
                    f"block at position {e}: match still open at the horizon")
            blocks.append(Block(len(blocks) + 1, n, p))
            claimed = e + p - 1
        e += 2
    complete = bool(d.is_periodic
                    and scan_to >= len(d.prefix) + 2 * len(d.period) + claimed)
    return BlockStructure(d, tuple(blocks), scan_to, complete)


def family_blocks(d: SymbolicSequence, max_len: int) -> BlockStructure:
    """The blocks the families of words up to max_len read: a scan of
    max(4 max_len + 8, 64) digits, which a truncated d must cover to at
    least max_len + 2.  A short horizon ends the scan at the first block
    past max_len + 2 whose match it leaves open."""
    if not d.is_periodic and len(d.prefix) < max_len + 2:
        raise HorizonTooShort(
            f"need {max_len + 2} digits, have {len(d.prefix)}")
    return block_structure(d, max(4 * max_len + 8, 64), need=max_len + 2)


# ---------------------------------------------------------------------------
# one construction: every family by length, counted or listed
# ---------------------------------------------------------------------------

class _Words(tuple):
    """The words of one length, an entry of a listed family: + joins two
    entries and * concatenates every word of one with every word of the
    other, as + and * add and multiply the entries of a counted family."""
    __slots__ = ()

    def __add__(self, other):
        return _Words(tuple.__add__(self, other))

    def __mul__(self, other):
        return _Words([x + y for x in self for y in other])


def _product(a: list, b: list, zero) -> list:
    """Entry m of the product of two families by length: the sum over i of
    a[i] * b[m - i], to the length of a."""
    return [sum(map(mul, a[:m + 1], reversed(b[:m + 1])), zero)
            for m in range(len(a))]


def _chains(blocks, units, starts, max_len: int, strict_link: bool, zero,
            ends=()) -> tuple[list[list], list[list]]:
    """Row k, entry m: the chains of `blocks` of m letters that start with a
    block b with starts(b) and end with blocks[k], a chain being the product
    of its blocks' `units`; and for each block c of `ends`, by m, the chains
    of m letters whose last block may precede c.

    A link b -> c needs p_b < 2 n_c - 1 (strict) or <=, so the blocks that
    may precede c are a prefix of the blocks sorted by p: each entry sums
    one prefix of the chains one block shorter."""
    order = sorted(range(len(blocks)), key=lambda k: blocks[k].p)
    ps = [blocks[k].p for k in order]
    cut = bisect_left if strict_link else bisect_right
    links = [(k, 2 * c.n - 1, cut(ps, 2 * c.n - 1))
             for k, c in enumerate(blocks) if 2 * c.n - 1 <= max_len]
    rows = [[zero] * (max_len + 1) for _ in blocks]
    for k, size, _ in links:
        if starts(blocks[k]):
            rows[k][size] = units[k]
    sums = []  # sums[m][j]: chains of m letters ending at the j first in p order
    for m in range(max_len + 1):
        for k, size, j in links:
            if size < m:
                rows[k][m] += sums[m - size][j] * units[k]
        acc = [zero]
        for k in order:
            acc.append(acc[-1] + rows[k][m])
        sums.append(acc)
    return rows, [[s[cut(ps, 2 * c.n - 1)] for s in sums] for c in ends]


def _tails_after(rows: list[list], blocks, tails: list, shortest,
                 zero) -> list:
    """Sum over k of row k times the tails of at least shortest(blocks[k])
    letters: the chains, each followed by a tail it admits."""
    grouped: dict[int, list] = {}  # chains by shortest tail
    for row, b in zip(rows, blocks):
        acc = grouped.get(low := shortest(b))
        grouped[low] = row if acc is None else list(map(add, acc, row))
    out = [zero] * len(tails)
    for low, row in grouped.items():
        t = [c if n >= low else zero for n, c in enumerate(tails)]
        out = list(map(add, out, _product(row, t, zero)))
    return out


# each family of one stream by length; delta_i holds (i, Delta^(i)) pairs
_Families = namedtuple("_Families", "gamma0 gamma0_prime gamma1 gamma1_prime"
                       " gamma delta_odd delta_evn code_c delta_i")


@kept_per_run
def _families(d: SymbolicSequence, max_len: int, listing: bool) -> _Families:
    """Every family to max_len from one `family_blocks` scan of d: entry n
    the count of its words of length n, or with `listing` those words.

    Each family is a sum of products of leaves, a leaf being a prefix of d,
    or a prefix and one digit; a count takes 1 per word of a leaf and reads
    no digit of it.  A count takes a word once per factorisation, a listing
    holds it once.  The run keeps each (stream, length) it reads until it
    ends, as tuples no caller can change."""
    bs = family_blocks(d, max_len)
    slots = max_len + 1
    zero, digits = (_Words(), bs.prefix(max_len)) if listing else (0, ())

    def leaf(n, lasts=None):  # d_1 .. d_n, or d_1 .. d_n j for j in lasts
        if not listing:  # a count reads no digit
            return 1 if lasts is None else len(lasts)
        return _Words([digits[:n]] if lasts is None
                      else [digits[:n] + (j,) for j in lasts])

    blocks = [b for b in bs.blocks if 2 * b.n - 1 <= max_len]  # fit a word
    units = [leaf(2 * b.n - 1) for b in blocks]  # the block words B_b
    g0 = [zero] + [leaf(n, _gamma0_digits(bs, n)) for n in range(max_len)]
    g0p_of = {b: leaf(2 * b.n + b.p - 1, _gamma0p_digits(bs, b))
              for b in blocks if 2 * b.n + b.p <= max_len}  # Gamma0' by block
    odd = [leaf(ell) if ell % 2 and bs.window_ok(ell) else zero
           for ell in range(slots)]
    evn = [zero if ell % 2 else leaf(ell) for ell in range(slots)]

    strict, before = _chains(blocks, units, lambda b: True, max_len,
                             True, zero, ends=list(g0p_of))
    g1 = _tails_after(strict, blocks, g0, lambda b: b.p + 2, zero)
    # Gamma1': a chain whose last block may precede t, then t's Gamma0' word
    g0p, g1p = [zero] * slots, [zero] * slots
    for (t, word), chains in zip(g0p_of.items(), before):
        size = 2 * t.n + t.p
        g0p[size] += word
        g1p = list(map(add, g1p, [zero] * size + [c * word for c in chains]))
    gamma = [sum(cs, zero) for cs in zip(g0, g0p, g1, g1p)]
    delta_odd = list(map(add, odd, _tails_after(strict, blocks, odd,
                                                lambda b: b.p + 1, zero)))
    delta_evn = list(map(add, evn, _tails_after(strict, blocks, evn,
                                                lambda b: 0, zero)))

    delta_i = []
    for k, last in enumerate(blocks):
        span = 2 * last.n - 1
        if last.p >= span and not listing:  # outside `delta_i_indices`
            continue
        _, (closing,) = _chains(blocks[k + 1:], units[k + 1:],
                                lambda f: last.p < 2 * f.n - 1,
                                max_len - span, False, zero, ends=[last])
        if last.p < span:  # B_i alone, after the empty chain, wraps round
            closing[0] = leaf(0)
        delta_i.append((last.index, tuple(  # B_i closes the chain
            [zero] * span + [c * units[k] for c in closing])))

    paths = [zero] * slots  # P = A + A P: one Delta_odd word or more,
    for m in range(slots - 2):  # where a Gamma_{>=2} word still fits
        paths[m] = delta_odd[m] + sum(
            map(mul, delta_odd[1:m], reversed(paths[1:m])), zero)
    code_c = list(map(add, gamma, _product(paths, [zero, zero, *gamma[2:]],
                                           zero)))
    return _Families(*map(tuple, (g0, g0p, g1, g1p, gamma, delta_odd,
                                  delta_evn, code_c)), tuple(delta_i))


def _listed(family, max_len: int, includes_empty=False) -> WordSet:
    return WordSet.from_words(chain.from_iterable(family), max_len,
                              includes_empty)


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaFamilies:
    gamma0: WordSet
    gamma0_prime: WordSet
    gamma1: WordSet
    gamma1_prime: WordSet
    gamma: WordSet


def _gamma0_digits(bs: BlockStructure, n: int) -> list[int]:
    """The last digits j of the Gamma0 words of length n + 1: none unless n
    lies in a window, else each j < d_1 that d_{n+1} is LESS than in the
    order of digit n + 1."""
    if not bs.window_ok(n):
        return []
    top = known_digit(bs.d, n + 1)
    return [j for j in range(known_digit(bs.d, 1))
            if alt_sign(n + 1, top, j) == LESS]


def _gamma0p_digits(bs: BlockStructure, b: Block) -> list[int]:
    """The last digits j of the Gamma0' words of block b, of length
    2n + p: j lies strictly between c and a in the order of digit p + 1."""
    a, c = known_digit(bs.d, b.p + 1), known_digit(bs.d, 2 * b.n + b.p)
    return [j for j in range(known_digit(bs.d, 1) + 1)
            if alt_sign(b.p + 1, j, a) == GREATER == alt_sign(b.p + 1, c, j)]


def build_gamma(d: SymbolicSequence, max_len: int) -> GammaFamilies:
    """Gamma = Gamma0 ∪ Gamma0' ∪ Gamma1 ∪ Gamma1', exhaustive to max_len."""
    f = _families(d, max_len, True)
    return GammaFamilies(*(_listed(w, max_len) for w in f[:5]))


# ---------------------------------------------------------------------------
# Delta families
# ---------------------------------------------------------------------------

def build_delta_odd(d: SymbolicSequence, max_len: int) -> WordSet:
    """Odd-length right-universal prefixes of d, plus block-prefixed ones."""
    return _listed(_families(d, max_len, True).delta_odd, max_len)


def build_delta_evn(d: SymbolicSequence, max_len: int) -> WordSet:
    """Even-length prefixes of d (including the empty word, flagged), plus
    block-prefixed ones."""
    return _listed(_families(d, max_len, True).delta_evn, max_len,
                   includes_empty=True)


def build_delta_i(d: SymbolicSequence, i: int, max_len: int) -> WordSet:
    """Delta^(i): words B_{t_1} .. B_{t_m} with p_{t_k} <= 2 n_{t_{k+1}} - 1
    between neighbours, the wrap-around constraint p_{t_m} < 2 n_{t_1} - 1,
    t_m = i and every other t_k > i.  Each such word generates a periodic
    point of the shift, and distinct words generate distinct orbits."""
    family = dict(_families(d, max_len, True).delta_i).get(i, ())
    return _listed(family, max_len)


def delta_i_indices(d: SymbolicSequence, max_len: int) -> list[int]:
    """The i >= 1 for which Delta^(i) can contain words of length <= max_len."""
    return [b.index for b in family_blocks(d, max_len).blocks
            if 2 * b.n - 1 <= max_len and b.p < 2 * b.n - 1]


# ---------------------------------------------------------------------------
# the code C of the whole shift
# ---------------------------------------------------------------------------

def build_code_C(beta: BetaSpec, max_len: int) -> WordSet:
    """C = Delta_odd^* Gamma_{>=2} ∪ Gamma for a base above the golden
    ratio; the degenerate {0} otherwise, empty when max_len < 1."""
    ref = Reference.for_beta(beta)
    if ref.golden_side <= 0:
        return WordSet.from_words([(0,)] if max_len >= 1 else [], max_len)
    return _listed(_families(ref.d_star, max_len, True).code_c, max_len)


def code_c_census(beta: BetaSpec, max_len: int) -> list[int]:
    """Entry n the number of words of length n in `build_code_C`, for n
    0..max_len, counted without listing a word: the "code_c" counts of
    `family_census` above the golden ratio, C = {0} at or below it."""
    ref = Reference.for_beta(beta)
    if ref.golden_side <= 0:
        return [int(n == 1) for n in range(max_len + 1)]
    return list(_families(ref.d_star, max_len, False).code_c)


# ---------------------------------------------------------------------------
# censuses by length, counted without listing a word
# ---------------------------------------------------------------------------

def family_census(d: SymbolicSequence, max_len: int) -> dict:
    """The censuses of Gamma (and its four parts), Delta_odd, C (above the
    golden ratio) and each Delta^(i) to max_len, counted by the construction
    that lists them: lists whose entry n counts the words of length n, under
    the keys "gamma0", "gamma0_prime", "gamma1", "gamma1_prime", "gamma",
    "delta_odd", "code_c", and "delta_i", which maps each index of
    `delta_i_indices` to its list.

    Each count is what the matching `build_*` listing holds, provided no
    word has two factorisations (`_families`)."""
    f = _families(d, max_len, False)
    out = {k: list(v) for k, v in f._asdict().items()
           if k not in ("delta_evn", "delta_i")}
    out["delta_i"] = {i: list(c) for i, c in f.delta_i}
    return out


# ---------------------------------------------------------------------------
# Kraft sums
# ---------------------------------------------------------------------------

def kraft_partial_sums(ws: WordSet, beta: BetaSpec) -> list[FieldElement]:
    """Cumulative Kraft sums by length 1..complete_to: the n-th adds the
    census at n times beta^-n, the one before it divided by -beta (an
    inverse shift, `FieldElement.times_neg_inv`) and negated."""
    acc, tn, out = zero(beta), one(beta), []
    for n in range(1, ws.complete_to + 1):
        tn = -tn.times_neg_inv()
        acc = acc + ws.census.get(n, 0) * tn
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# which family codes the support of the measure of maximal entropy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportCode:
    kind: str              # "CFull" | "DeltaOdd" | "DeltaI"
    level: Optional[int]   # cascade level for DeltaI
    family: WordSet


def support_code(beta: BetaSpec, max_len: int = 12) -> SupportCode:
    """The coding family of the support of the maximal-entropy measure.

    Above the golden ratio the full code C works; between the first two
    cascade bases Delta_odd does; deeper down, level n of the cascade hands
    the job to Delta^(n).  The level is read off d to the horizon in force;
    UndecidedAtHorizon when those digits do not decide it.
    """
    ref = Reference.for_beta(beta)
    if ref.golden_side > 0:
        return SupportCode("CFull", None, build_code_C(beta, max_len))
    n = 0 if ref.golden_side == 0 else ref.cascade_level
    if n == 0:
        return SupportCode("DeltaOdd", None, build_delta_odd(ref.d, max_len))
    return SupportCode("DeltaI", n, build_delta_i(ref.d, n, max_len))
