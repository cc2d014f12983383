"""Prefix-code families attached to the expansion d of the left endpoint.

All constructions read a digit stream d (when d is purely periodic with odd
period, its corrected form d* is substituted first, since only the corrected
stream carries the block combinatorics).  The stream decomposes into blocks:
positions 2n at which d restarts copying its own prefix, each block carrying
the length p of that copy.  From the blocks one builds

* Gamma    — right-extendable words that fall strictly below d once,
* Delta_odd / Delta_evn — prefix-of-d words of odd / even length (plus the
  block-prefixed variants),
* Delta^(i) — cyclic block concatenations filtered by the J(i) windows,
* C        — Delta_odd* Gamma ∪ Gamma, the candidate code of the whole shift.

Everything is enumerated exhaustively up to a length bound, with the bound
recorded on the resulting WordSet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import HorizonTooShort, UndecidedAtHorizon
from .numerics import (BetaSpec, FieldElement, RationalInterval, beta_element,
                       one, zero)
from .order import (LESS, SymbolicSequence, Word, alt_compare_seq, alt_sign,
                    purely_periodic)
from .wordset import WordSet

_INF = math.inf


def working_stream(d: SymbolicSequence) -> SymbolicSequence:
    """The stream the families are built from: d, or d* when d is purely
    periodic with odd period."""
    if purely_periodic(d) and len(d.period) % 2 == 1:
        from .expansion import corrected
        return corrected(d)
    return d


def _digit(d: SymbolicSequence, i: int) -> int:
    try:
        return d.digit(i)
    except UndecidedAtHorizon as e:
        raise HorizonTooShort(str(e)) from e


def _prefix(d: SymbolicSequence, n: int) -> Word:
    return tuple(_digit(d, i) for i in range(1, n + 1))


@dataclass(frozen=True)
class Block:
    """Block i of the stream: d_{2n} starts a copy of the prefix of length p."""
    index: int   # 1-based block number
    n: int       # block starts at position 2n; its word is d_1 .. d_{2n-1}
    p: int       # maximal matched prefix length


@dataclass(frozen=True)
class BlockStructure:
    blocks: tuple[Block, ...]
    scan_to: int
    complete: bool  # True iff the list provably contains every block of d

    def word_length(self, i: int) -> int:
        return 2 * self.blocks[i - 1].n - 1


def block_structure(d: SymbolicSequence, scan_to: int = 256) -> BlockStructure:
    """Find blocks with start position <= scan_to.

    A block start is an even position e = 2n, past all previously claimed
    positions, where d_e equals d_1; p is the maximal k with
    d_{2n-1+k} = d_k.  For a purely periodic stream of odd period p would be
    infinite; such streams must be corrected before calling this.
    """
    d = working_stream(d)
    if not d.is_periodic and len(d.prefix) < scan_to:
        scan_to = len(d.prefix)
    d1 = _digit(d, 1)
    blocks: list[Block] = []
    claimed = 0
    e = 2
    while e <= scan_to:
        if e > claimed and _digit(d, e) == d1:
            n = e // 2
            # maximal matched prefix length
            cap = (len(d.prefix) + 2 * len(d.period) + e + 4) if d.is_periodic \
                else len(d.prefix) - (e - 1)
            p = 0
            while p < cap and _digit(d, e - 1 + p + 1) == _digit(d, p + 1):
                p += 1
            if p >= cap:
                if d.is_periodic:
                    raise ValueError("stream copies itself forever; odd-periodic "
                                     "data must be corrected first")
                raise HorizonTooShort(
                    f"block at position {e}: match still open at the horizon")
            blocks.append(Block(len(blocks) + 1, n, p))
            claimed = e + p - 1
        e += 2
    complete = bool(d.is_periodic
                    and scan_to >= len(d.prefix) + 2 * len(d.period) + claimed)
    return BlockStructure(tuple(blocks), scan_to, complete)


class _Ctx:
    """Digit stream + blocks + window helpers shared by the builders."""

    def __init__(self, d: SymbolicSequence, max_len: int):
        self.d = working_stream(d)
        self.max_len = max_len
        self.d1 = _digit(self.d, 1)
        scan = max(4 * max_len + 8, 64)
        if not self.d.is_periodic:
            if len(self.d.prefix) < max_len + 2:
                raise HorizonTooShort(
                    f"need {max_len + 2} digits, have {len(self.d.prefix)}")
            scan = min(scan, len(self.d.prefix))
        self.bs = block_structure(self.d, scan_to=scan)
        self.blocks = self.bs.blocks

    def digit(self, i: int) -> int:
        return _digit(self.d, i)

    def prefix(self, n: int) -> Word:
        return _prefix(self.d, n)

    def block_word(self, b: Block) -> Word:
        return self.prefix(2 * b.n - 1)

    def n_of(self, i: int):
        """2-sided: n_i for 1-based block index, inf past the known blocks.

        Trust in "inf" is justified because scan_to >= max_len + 2: a block
        missing from the list starts past every position the enumeration can
        reach.
        """
        if 1 <= i <= len(self.blocks):
            return self.blocks[i - 1].n
        return _INF

    def gamma0_window_ok(self, n: int) -> bool:
        """Is there i >= 0 with 2n_i + p_i <= n <= 2n_{i+1} - 2 (n_0=p_0=0)?"""
        if n <= 2 * self.n_of(1) - 2:
            return True
        for b in self.blocks:
            lo = 2 * b.n + b.p
            hi = 2 * self.n_of(b.index + 1) - 2
            if lo <= n <= hi:
                return True
        return False


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


def _gamma0_words(ctx: _Ctx) -> list[Word]:
    out = []
    for n in range(0, ctx.max_len):
        if not ctx.gamma0_window_ok(n):
            continue
        head = ctx.prefix(n)
        top = ctx.digit(n + 1)
        for j in range(0, ctx.d1):
            if alt_sign(n + 1, top, j) == LESS:
                out.append(head + (j,))
    return out


def _gamma0p_words(ctx: _Ctx) -> list[Word]:
    out = []
    for b in ctx.blocks:
        length = 2 * b.n + b.p
        if length > ctx.max_len:
            continue
        head = ctx.prefix(length - 1)
        a, c = ctx.digit(b.p + 1), ctx.digit(2 * b.n + b.p)
        for j in range(0, ctx.d1 + 1):
            if b.p % 2 == 0:
                ok = a > j > c
            else:
                ok = a < j < c
            if ok:
                out.append(head + (j,))
    return out


def _block_chains(ctx: _Ctx, budget: int, strict_link: bool):
    """All nonempty block-index chains whose words fit in `budget` letters.

    Adjacent chains k_i -> k_{i+1} must satisfy p_{k_i} < 2 n_{k_{i+1}} - 1
    (strict) or <= (non-strict) depending on `strict_link`.
    Yields (chain, concatenated word)."""
    items = [(b, ctx.block_word(b)) for b in ctx.blocks
             if 2 * b.n - 1 <= budget]
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


def build_gamma(d: SymbolicSequence, max_len: int) -> GammaFamilies:
    """Gamma = Gamma0 ∪ Gamma0' ∪ Gamma1 ∪ Gamma1', exhaustive to max_len."""
    ctx = _Ctx(d, max_len)
    g0 = _gamma0_words(ctx)
    g0p = _gamma0p_words(ctx)
    g1: list[Word] = []
    g1p: list[Word] = []
    if ctx.blocks:
        g0_by_min = sorted(g0, key=len)
        g0p_by_block: dict[int, list[Word]] = {}
        for b in ctx.blocks:
            length = 2 * b.n + b.p
            g0p_by_block[b.index] = [w for w in g0p if len(w) == length]
        for chain, word in _block_chains(ctx, max_len - 1, strict_link=True):
            last = chain[-1]
            for y in g0_by_min:
                if len(word) + len(y) > max_len:
                    break
                if len(y) >= last.p + 2:
                    g1.append(word + y)
            # Gamma1': append a Gamma0' word for a block t that the last
            # explicit block can legally precede
            for b in ctx.blocks:
                if not last.p < 2 * b.n - 1:
                    continue
                for y in g0p_by_block.get(b.index, ()):
                    if len(word) + len(y) <= max_len:
                        g1p.append(word + y)
    w_g0 = WordSet.from_words(g0, max_len)
    w_g0p = WordSet.from_words(g0p, max_len)
    w_g1 = WordSet.from_words(g1, max_len)
    w_g1p = WordSet.from_words(g1p, max_len)
    return GammaFamilies(w_g0, w_g0p, w_g1, w_g1p,
                         WordSet.from_words(g0 + g0p + g1 + g1p, max_len))


# ---------------------------------------------------------------------------
# Delta families
# ---------------------------------------------------------------------------

def _delta_odd0_words(ctx: _Ctx) -> list[Word]:
    out = []
    for ell in range(1, ctx.max_len + 1, 2):
        if ctx.blocks:
            ok = ell < 2 * ctx.n_of(1) - 1
            if not ok:
                for b in ctx.blocks:
                    if 2 * b.n + b.p <= ell < 2 * ctx.n_of(b.index + 1) - 1:
                        ok = True
                        break
            if not ok:
                continue
        out.append(ctx.prefix(ell))
    return out


def build_delta_odd(d: SymbolicSequence, max_len: int) -> WordSet:
    """Odd-length right-universal prefixes of d, plus block-prefixed ones."""
    ctx = _Ctx(d, max_len)
    d0 = _delta_odd0_words(ctx)
    words = list(d0)
    if ctx.blocks:
        by_len = sorted(d0, key=len)
        for chain, word in _block_chains(ctx, max_len - 1, strict_link=True):
            last = chain[-1]
            for x in by_len:
                if len(word) + len(x) > ctx.max_len:
                    break
                if len(x) > last.p:
                    words.append(word + x)
    return WordSet.from_words(words, max_len)


def build_delta_evn(d: SymbolicSequence, max_len: int) -> WordSet:
    """Even-length prefixes of d (including the empty word, flagged), plus
    block-prefixed ones."""
    ctx = _Ctx(d, max_len)
    d0 = [ctx.prefix(ell) for ell in range(2, ctx.max_len + 1, 2)]
    words = list(d0)
    if ctx.blocks:
        by_len = sorted(d0, key=len)
        for chain, word in _block_chains(ctx, max_len, strict_link=True):
            if len(word) <= max_len:
                words.append(word)  # empty even part
            for x in by_len:
                if len(word) + len(x) > ctx.max_len:
                    break
                words.append(word + x)
    return WordSet.from_words(words, max_len, includes_empty=True)


def build_delta_i(d: SymbolicSequence, i: int, max_len: int) -> WordSet:
    """Delta^(i): words B_{t_1} .. B_{t_m} with p_{t_k} <= 2 n_{t_{k+1}} - 1
    between neighbours, the wrap-around constraint p_{t_m} < 2 n_{t_1} - 1,
    t_m = i and every other t_k > i.  Each such word generates a periodic
    point of the shift, and distinct words generate distinct orbits."""
    ctx = _Ctx(d, max_len)
    if not 1 <= i <= len(ctx.blocks):
        return WordSet.from_words([], max_len)
    last = ctx.blocks[i - 1]
    last_w = ctx.block_word(last)
    higher = [(b, ctx.block_word(b)) for b in ctx.blocks[i:]
              if 2 * b.n - 1 <= max_len]
    words: list[Word] = []
    stack = [((), ())]  # depth first, each chain before its extensions
    while stack:
        chain, word = stack.pop()
        # append B_i as t_m and check the wrap-around link
        if (len(word) + len(last_w) <= max_len
                and (not chain or chain[-1].p <= 2 * last.n - 1)
                and last.p < 2 * (chain[0] if chain else last).n - 1):
            words.append(word + last_w)
        for b, bw in reversed(higher):
            if len(word) + len(bw) + len(last_w) > max_len:
                continue
            if chain and not chain[-1].p <= 2 * b.n - 1:
                continue
            stack.append((chain + (b,), word + bw))
    return WordSet.from_words(words, max_len)


def delta_i_indices(d: SymbolicSequence, max_len: int) -> list[int]:
    """The i >= 1 for which Delta^(i) can contain words of length <= max_len."""
    ctx = _Ctx(d, max_len)
    out = []
    for i, b in enumerate(ctx.blocks, start=1):
        if 2 * b.n - 1 <= max_len and b.p < 2 * b.n - 1:
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# the code C of the whole shift
# ---------------------------------------------------------------------------

_GOLDEN_D = SymbolicSequence((1,), (0,))


def build_code_C(beta: BetaSpec, max_len: int, horizon: int = 512) -> WordSet:
    """C = Delta_odd^* Gamma_{>=2} ∪ Gamma for a base above the golden
    ratio; the degenerate {0} otherwise."""
    from .language import Reference
    ref = Reference.for_beta(beta, horizon)
    if alt_compare_seq(ref.d, _GOLDEN_D, horizon=horizon) >= 0:  # beta <= golden
        return WordSet.from_words([(0,)], max_len)
    return code_C_from_stream(ref.d, max_len)


def code_C_from_stream(d: SymbolicSequence, max_len: int) -> WordSet:
    gam = build_gamma(d, max_len)
    dodd = build_delta_odd(d, max_len)
    words: set[Word] = set(gam.gamma.words)
    tails = [y for y in gam.gamma.words if len(y) >= 2]
    odd_words = sorted(dodd.words, key=len)
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
    return WordSet.from_words(sorted(words), max_len)


# ---------------------------------------------------------------------------
# prefix-code predicates and Kraft sums
# ---------------------------------------------------------------------------

def is_prefix_code(ws: WordSet) -> bool:
    """No word is a proper prefix of another (sorted-adjacent check)."""
    words = ws.words  # already sorted
    for a, b in zip(words, words[1:]):
        if len(a) < len(b) and b[:len(a)] == a:
            return False
    return True


def kraft_sum_exact(ws: WordSet, beta: BetaSpec,
                    max_len: Optional[int] = None) -> FieldElement:
    """sum over words of beta^-|word|, words of length <= max_len."""
    if max_len is None:
        max_len = ws.complete_to
    t = beta_element(beta).inverse()
    acc = zero(beta)
    for n in sorted(ws.census):
        if n <= max_len:
            acc = acc + ws.census[n] * t ** n
    return acc


def kraft_partial_sums(ws: WordSet, beta: BetaSpec) -> list[FieldElement]:
    """Cumulative Kraft sums by length 1..complete_to."""
    t = beta_element(beta).inverse()
    acc = zero(beta)
    out = []
    for n in range(1, ws.complete_to + 1):
        acc = acc + ws.census.get(n, 0) * t ** n
        out.append(acc)
    return out


def kraft_sum(ws: WordSet, beta: BetaSpec, max_len: Optional[int] = None,
              width: Fraction = Fraction(1, 10**6)) -> RationalInterval:
    v = kraft_sum_exact(ws, beta, max_len)
    if v.is_rational():
        q = v.as_rational()
        return RationalInterval(q, q)
    return v.enclosure(width)


# ---------------------------------------------------------------------------
# which family codes the support of the measure of maximal entropy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportCode:
    kind: str              # "CFull" | "DeltaOdd" | "DeltaI"
    level: Optional[int]   # cascade level for DeltaI
    family: WordSet


def support_code(beta: BetaSpec, max_len: int = 12, horizon: int = 512) -> SupportCode:
    """The coding family of the support of the maximal-entropy measure.

    Above the golden ratio the full code C works; between the first two
    cascade bases Delta_odd does; deeper down, level n of the cascade hands
    the job to Delta^(n).
    """
    from .gaps import cascade_classify
    from .language import Reference
    ref = Reference.for_beta(beta, horizon)
    cmp_golden = alt_compare_seq(ref.d, _GOLDEN_D, horizon=horizon)
    if cmp_golden < 0:  # beta > golden ratio
        return SupportCode("CFull", None, build_code_C(beta, max_len, horizon))
    if cmp_golden == 0:  # exactly the golden ratio: Delta_odd codes the shift
        return SupportCode("DeltaOdd", None, build_delta_odd(ref.d, max_len))
    n = cascade_classify(beta)
    if n == 0:
        return SupportCode("DeltaOdd", None, build_delta_odd(ref.d, max_len))
    return SupportCode("DeltaI", n, build_delta_i(ref.d, n, max_len))
