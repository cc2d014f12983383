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

Words are listed and censuses are counted.  The `build_*` functions list
every word up to a length bound, with the bound recorded on the resulting
WordSet.  `family_census` counts the block families (Gamma, Delta_odd,
each Delta^(i)) by length without listing a word: a block chain is a walk
over the blocks, counted by (last block, length).  `series.code_c_census`
counts C from those censuses, a star of Delta_odd being the sequence
construction 1/(1 - A) (Flajolet-Sedgewick, Analytic Combinatorics, I.2).
The counts assume what the paper proves, that a word factors in one way
only into chain and tail, or into Delta_odd words and a Gamma word; the
listings count each word once, and the tests check that the two agree.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import mul
from typing import Optional

from .errors import HorizonTooShort
from .expansion import corrected
from .language import Reference
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

    def block_word(self, b: Block) -> Word:
        return self.prefix(2 * b.n - 1)

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


def _block_chains(bs: BlockStructure, blocks, budget: int, strict_link: bool):
    """All nonempty chains of `blocks` whose words fit in `budget` letters.

    Adjacent chains k_i -> k_{i+1} must satisfy p_{k_i} < 2 n_{k_{i+1}} - 1
    (strict) or <= (non-strict) depending on `strict_link`.
    Yields (chain, concatenated word)."""
    items = [(b, bs.block_word(b)) for b in blocks if 2 * b.n - 1 <= budget]
    stack = [((), ())]  # depth first, each chain before its extensions
    while stack:
        chain, word = stack.pop()
        if chain:
            yield chain, word
        for b, bw in reversed(items):
            if len(word) + len(bw) > budget:
                continue
            if chain:
                prev = chain[-1]
                lim = 2 * b.n - 1
                if not (prev.p < lim if strict_link else prev.p <= lim):
                    continue
            stack.append((chain + (b,), word + bw))


def _chain_tails(bs: BlockStructure, max_len: int, tails, ok) -> list[Word]:
    """Every strictly linked block chain followed by a tail y with
    ok(last block of the chain, y), within max_len letters."""
    tails = sorted(tails, key=len)
    if not tails:
        return []
    out = []
    for chain, word in _block_chains(bs, bs.blocks, max_len - len(tails[0]),
                                     strict_link=True):
        for y in tails:
            if len(word) + len(y) > max_len:
                break
            if ok(chain[-1], y):
                out.append(word + y)
    return out


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


def _gamma0_words(bs: BlockStructure, max_len: int) -> list[Word]:
    out = []
    for n in range(0, max_len):
        digits = _gamma0_digits(bs, n)
        if digits:
            head = bs.prefix(n)
            out += [head + (j,) for j in digits]
    return out


def _gamma0p_words(bs: BlockStructure, max_len: int) -> list[Word]:
    out = []
    for b in bs.blocks:
        length = 2 * b.n + b.p
        if length <= max_len:
            head = bs.prefix(length - 1)
            out += [head + (j,) for j in _gamma0p_digits(bs, b)]
    return out


def build_gamma(d: SymbolicSequence, max_len: int) -> GammaFamilies:
    """Gamma = Gamma0 ∪ Gamma0' ∪ Gamma1 ∪ Gamma1', exhaustive to max_len."""
    bs = family_blocks(d, max_len)
    g0 = _gamma0_words(bs, max_len)
    g0p = _gamma0p_words(bs, max_len)
    g1 = _chain_tails(bs, max_len, g0, lambda last, y: len(y) >= last.p + 2)
    # Gamma1': a Gamma0' word of block t (its length is 2n_t + p_t) after a
    # chain whose last block can legally precede t
    owner = {2 * b.n + b.p: b for b in bs.blocks}
    g1p = _chain_tails(bs, max_len, g0p,
                       lambda last, y: last.p < 2 * owner[len(y)].n - 1)
    return GammaFamilies(*(WordSet.from_words(w, max_len)
                           for w in (g0, g0p, g1, g1p, g0 + g0p + g1 + g1p)))


# ---------------------------------------------------------------------------
# Delta families
# ---------------------------------------------------------------------------

def build_delta_odd(d: SymbolicSequence, max_len: int) -> WordSet:
    """Odd-length right-universal prefixes of d, plus block-prefixed ones."""
    bs = family_blocks(d, max_len)
    d0 = [bs.prefix(ell) for ell in range(1, max_len + 1, 2)
          if bs.window_ok(ell)]
    words = d0 + _chain_tails(bs, max_len, d0, lambda last, x: len(x) > last.p)
    return WordSet.from_words(words, max_len)


def build_delta_evn(d: SymbolicSequence, max_len: int) -> WordSet:
    """Even-length prefixes of d (including the empty word, flagged), plus
    block-prefixed ones."""
    bs = family_blocks(d, max_len)
    d0 = [bs.prefix(ell) for ell in range(0, max_len + 1, 2)]
    words = d0 + _chain_tails(bs, max_len, d0, lambda last, x: True)
    return WordSet.from_words(words, max_len, includes_empty=True)


def build_delta_i(d: SymbolicSequence, i: int, max_len: int) -> WordSet:
    """Delta^(i): words B_{t_1} .. B_{t_m} with p_{t_k} <= 2 n_{t_{k+1}} - 1
    between neighbours, the wrap-around constraint p_{t_m} < 2 n_{t_1} - 1,
    t_m = i and every other t_k > i.  Each such word generates a periodic
    point of the shift, and distinct words generate distinct orbits."""
    bs = family_blocks(d, max_len)
    if not 1 <= i <= len(bs.blocks):
        return WordSet.from_words([], max_len)
    last = bs.blocks[i - 1]
    last_w = bs.block_word(last)
    # B_i alone wraps around to itself
    fits = len(last_w) <= max_len and last.p < 2 * last.n - 1
    words = [last_w] if fits else []
    for chain, word in _block_chains(bs, bs.blocks[i:], max_len - len(last_w),
                                     strict_link=False):
        # B_i closes the chain: link to it, and wrap around to the first block
        if chain[-1].p <= 2 * last.n - 1 and last.p < 2 * chain[0].n - 1:
            words.append(word + last_w)
    return WordSet.from_words(words, max_len)


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
    gamma = build_gamma(ref.d, max_len).gamma.words
    words: set[Word] = set(gamma)
    tails = [y for y in gamma if len(y) >= 2]
    odd_words = sorted(build_delta_odd(ref.d, max_len).words, key=len)
    stack: list[Word] = [()]  # concatenations of Delta_odd words
    while stack:
        prefix = stack.pop()
        for x in odd_words:
            nw = prefix + x
            if len(nw) > max_len - 2:
                break  # odd_words sorted by length; no shorter one follows
            for y in tails:
                if len(nw) + len(y) <= max_len:
                    words.add(nw + y)
            stack.append(nw)
    return WordSet.from_words(words, max_len)


# ---------------------------------------------------------------------------
# censuses by length, counted without listing a word
# ---------------------------------------------------------------------------

def _chain_counts(blocks, starts, max_len: int,
                  strict_link: bool) -> list[list[int]]:
    """Row k, entry m: the chains of `blocks` of m letters that start with a
    block b with starts(b) and end with blocks[k].

    A link b -> c needs p_b < 2 n_c - 1 (strict) or <=, so the blocks that
    may precede c are a prefix of the blocks sorted by p: each entry sums
    one prefix of the counts one block shorter."""
    order = sorted(range(len(blocks)), key=lambda k: blocks[k].p)
    ps = [blocks[k].p for k in order]
    cut = bisect_left if strict_link else bisect_right
    links = [(k, 2 * c.n - 1, cut(ps, 2 * c.n - 1))
             for k, c in enumerate(blocks) if 2 * c.n - 1 <= max_len]
    rows = [[0] * (max_len + 1) for _ in blocks]
    for k, size, _ in links:
        rows[k][size] = int(starts(blocks[k]))
    sums = []  # sums[m][j]: chains of m letters ending at the j first in p order
    for m in range(max_len + 1):
        for k, size, j in links:
            if size < m:
                rows[k][m] += sums[m - size][j]
        acc = [0]
        for k in order:
            acc.append(acc[-1] + rows[k][m])
        sums.append(acc)
    return rows


def _tails_after(rows: list[list[int]], blocks, tails: list[int], shortest,
                 max_len: int) -> list[int]:
    """Sum over k of row k times the tails of at least shortest(blocks[k])
    letters: the chains, each followed by a tail it admits."""
    grouped: dict[int, list[int]] = {}  # chain counts by shortest tail
    for row, b in zip(rows, blocks):
        acc = grouped.setdefault(shortest(b), [0] * (max_len + 1))
        for m, c in enumerate(row):
            acc[m] += c
    out = [0] * (max_len + 1)
    for low, row in grouped.items():
        t = [c if n >= low else 0 for n, c in enumerate(tails)]
        for m in range(max_len + 1):
            out[m] += sum(map(mul, row[:m + 1], reversed(t[:m + 1])))
    return out


def family_census(d: SymbolicSequence, max_len: int) -> dict:
    """The censuses of Gamma (and its four parts), Delta_odd and each
    Delta^(i) to max_len, from one `family_blocks` scan of d: lists whose
    entry n counts the words of length n, under the keys "gamma0",
    "gamma0_prime", "gamma1", "gamma1_prime", "gamma", "delta_odd", and
    "delta_i", which maps each index of `delta_i_indices` to its list.

    Each count is what the matching `build_*` listing holds, provided no
    word has two factorisations: a chain and its tail are counted once per
    factorisation."""
    bs = family_blocks(d, max_len)
    slots = max_len + 1
    blocks = [b for b in bs.blocks if 2 * b.n - 1 <= max_len]  # fit a word
    g0 = [0] + [len(_gamma0_digits(bs, n)) for n in range(max_len)]
    g0p, g0p_of = [0] * slots, {}  # how many Gamma0' words each block has
    for b in blocks:
        if 2 * b.n + b.p <= max_len:
            g0p_of[b] = len(_gamma0p_digits(bs, b))
            g0p[2 * b.n + b.p] += g0p_of[b]
    d0 = [int(ell % 2 == 1 and bs.window_ok(ell)) for ell in range(slots)]

    strict = _chain_counts(blocks, lambda b: True, max_len, strict_link=True)
    g1 = _tails_after(strict, blocks, g0, lambda b: b.p + 2, max_len)
    # Gamma1': a chain ending with block t, whose last block word becomes
    # t's Gamma0' word p_t + 1 letters longer; the chain of t alone is Gamma0'
    g1p = [0] * slots
    for row, b in zip(strict, blocks):
        if b in g0p_of:
            for m in range(2 * b.n, max_len - b.p):
                g1p[m + b.p + 1] += row[m] * g0p_of[b]
    gamma = [sum(cs) for cs in zip(g0, g0p, g1, g1p)]
    odd = _tails_after(strict, blocks, d0, lambda b: b.p + 1, max_len)
    delta_odd = [a + b for a, b in zip(d0, odd)]

    delta_i = {}
    for k, last in enumerate(blocks):
        span = 2 * last.n - 1
        if last.p >= span:  # not one of `delta_i_indices`
            continue
        later = blocks[k + 1:]
        rows = _chain_counts(later, lambda f: last.p < 2 * f.n - 1,
                             max_len - span, strict_link=False)
        counts = [0] * slots
        counts[span] = 1  # B_i alone wraps around to itself
        for row, b in zip(rows, later):
            if b.p <= span:  # links to B_i, which closes the chain
                for m, c in enumerate(row):
                    counts[m + span] += c
        delta_i[last.index] = counts

    return {"gamma0": g0, "gamma0_prime": g0p, "gamma1": g1,
            "gamma1_prime": g1p, "gamma": gamma, "delta_odd": delta_odd,
            "delta_i": delta_i}


# ---------------------------------------------------------------------------
# Kraft sums
# ---------------------------------------------------------------------------

def kraft_partial_sums(ws: WordSet, beta: BetaSpec) -> list[FieldElement]:
    """Cumulative Kraft sums by length 1..complete_to."""
    t = -beta.constants.neg_inv  # 1/beta
    acc, tn, out = zero(beta), one(beta), []
    for n in range(1, ws.complete_to + 1):
        tn = tn * t
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
