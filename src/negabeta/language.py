"""Admissible words, factor complexity, classification, periodic points.

`Reference` is the per-base context every layer looks up: the expansion d of
the left endpoint, its corrected form d* (the working stream of the code
families), the side of the golden ratio the base lies on, the cascade level
of a base below it and the odd period of d, if any.  d is expanded to the
digit horizon in force, one value per run set with `at_horizon` (default
512), and each is computed once per (base, horizon); the golden side and
the level are read off d alone.  The cascade's word pairs
(`morphism_words`) and its bases gamma_n (`gamma_n`, which the CLI's
`golden` and `gamma:N` name) live here too.

A word w is admissible when every suffix of w stays between the reference
bounds in the alternating order.  Two variants exist:

* ``ITO_SADAHIRO`` — the language of the natural shift: each suffix s
  satisfies  d <= s <= 0 d*   (both comparisons non-strict on the suffix's
  length; d is the expansion of the left endpoint, d* its corrected form).
* ``CORRECTED`` — the language of the corrected shift: each suffix s
  satisfies  d* <= s <= 0 d*.  The strictness of the upper bound only bites
  for infinite sequences; finite prefixes may tie.

The two variants coincide unless d is purely periodic with odd period.

The future of a word depends only on its suffixes still tied with a bound.
Those tied with one bound are the borders of the longest, so a state is the
pair (longest lower tie, longest upper tie), stepped by one row lookup in
each bound's Knuth-Morris-Pratt table (Knuth-Morris-Pratt 1977), and one
automaton per (reference, variant) answers every question.  Each pair is
interned once to an integer id, its successors listed by digit: the census
is a dynamic programme over ids, enumeration joins each first half walked on
the table to the second halves the automaton keeps per (state, length), the
periodic count sums the closed walks of length n over the states a cycle
can pass through, and membership steps the pair on the bound tables and
interns no state.  This is the sofic presentation of the (-beta)-shift
(Ito-Sadahiro 2009, Frougny-Lai 2009).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from operator import mul
from typing import Callable, Iterator, Optional

from .errors import HorizonTooShort, IndexOutOfRange, UndecidedAtHorizon
from .expansion import reference_pair
from .numerics import BetaSpec, beta_from_poly
from .order import (GREATER, LESS, SymbolicSequence, Word,
                    alt_compare_seq, alt_sign, known_digit,
                    purely_periodic)
from .wordset import WordSet


class Variant(Enum):
    ITO_SADAHIRO = "ito_sadahiro"
    CORRECTED = "corrected"


_REFERENCE_CACHE: dict[tuple[BetaSpec, int], "Reference"] = {}
_HORIZON: ContextVar[int] = ContextVar("horizon", default=512)


@contextmanager
def at_horizon(n: int) -> Iterator[None]:
    """Expand every reference built inside the block to n digits."""
    token = _HORIZON.set(n)
    try:
        yield
    finally:
        _HORIZON.reset(token)


@lru_cache(maxsize=None)
def morphism_words(n: int) -> tuple[Word, Word]:
    """(u_n, v_n) of the substitution psi(1) = 100, psi(0) = 1:
    u_0 = 1, v_0 = 00, u_n = u_{n-1} v_{n-1}, v_n = u_{n-1} u_{n-1}.
    u_{-1} is the single letter 0 by convention."""
    if n < -1:
        raise IndexOutOfRange("morphism words start at n = -1")
    if n == -1:
        return (0,), (0, 0)   # only u_{-1} is meaningful
    if n == 0:
        return (1,), (0, 0)
    u, v = morphism_words(n - 1)
    return u + v, u + u


@lru_cache(maxsize=None)
def gamma_n(n: int) -> BetaSpec:
    """The base gamma_n: largest root of X^l - X - 1, l = max(|u_n|,|v_n|)."""
    if n < 0:
        raise IndexOutOfRange("cascade levels start at 0")
    u, v = morphism_words(n)
    ell = max(len(u), len(v))
    coeffs = [-1, -1] + [0] * (ell - 2) + [1]
    return beta_from_poly(coeffs, 1, 2)


@dataclass(frozen=True)
class Reference:
    """The per-base context: d, d* (the working stream), the golden side,
    the cascade level, the odd period, the bound accessors and the
    automata."""

    beta: BetaSpec
    horizon: int
    d: SymbolicSequence
    d_star: SymbolicSequence
    _automata: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @staticmethod
    def for_beta(beta: BetaSpec) -> "Reference":
        """The reference of beta at the horizon in force (`at_horizon`)."""
        key = (beta, _HORIZON.get())
        ref = _REFERENCE_CACHE.get(key)
        if ref is None:  # d and d* to that many digits
            ref = _REFERENCE_CACHE[key] = Reference(*key, *reference_pair(*key))
        return ref

    @property
    def d1(self) -> int:
        return self.d.digit(1)

    def threshold_side(self, n: int) -> int:
        """-1, 0 or 1 as beta is below, at or above gamma_n.

        d(l_{gamma_n}) = u_n v_n^inf, and left endpoints expand monotonically
        (a smaller base has the alternately-larger expansion), so
        beta >= gamma_n iff d <= u_n v_n^inf in the alternating order.  A tie
        through the horizon raises UndecidedAtHorizon.
        """
        u, v = morphism_words(n)
        try:
            return -alt_compare_seq(self.d, SymbolicSequence(u, v))
        except UndecidedAtHorizon as e:
            raise UndecidedAtHorizon(f"beta against gamma_{n}: {e}") from e

    @cached_property
    def golden_side(self) -> int:
        """-1, 0 or 1 as beta is below, at or above the golden ratio
        gamma_0, whose d is u_0 v_0^inf = 1 0 0 0 ..."""
        return self.threshold_side(0)

    @cached_property
    def cascade_level(self) -> int:
        """The n with gamma_{n+1} < beta <= gamma_n (so gamma_n is at level
        n), for beta below the golden ratio.  Deeper levels need more digits
        of d; a truncated d raises UndecidedAtHorizon where it runs out."""
        if self.golden_side >= 0:
            raise IndexOutOfRange("base is not below the golden ratio")
        n = 0
        while (side := self.threshold_side(n + 1)) < 0:
            n += 1
        return n if side > 0 else n + 1

    @property
    def odd_period(self) -> Optional[int]:
        """The period length of d when d is purely periodic with odd period,
        else None."""
        odd = purely_periodic(self.d) and len(self.d.period) % 2 == 1
        return len(self.d.period) if odd else None

    def automaton(self, variant: Variant) -> "Automaton":
        aut = self._automata.get(variant)
        if aut is None:
            aut = self._automata[variant] = Automaton(self, variant)
        return aut

    def upper_seq(self) -> SymbolicSequence:
        """0 followed by d* (the supremum of the shift)."""
        return SymbolicSequence((0,) + self.d_star.prefix, self.d_star.period)

    def lower_digit(self, i: int, variant: Variant) -> int:
        seq = self.d if variant is Variant.ITO_SADAHIRO else self.d_star
        return known_digit(seq, i)

    def upper_digit(self, i: int) -> int:
        return 0 if i == 1 else known_digit(self.d_star, i - 1)


# ---------------------------------------------------------------------------
# the admissibility automaton
# ---------------------------------------------------------------------------

DEAD = -1  # the successor of an inadmissible step


class _Bound:
    """The Knuth-Morris-Pratt table of one bound, one row per tie length.

    A suffix tied with the bound for s digits equals its first s digits, so
    the suffixes tied with it are the borders of the longest one: s, pi[s],
    pi[pi[s]], ... down to the empty suffix 0.  `rows[s][a]` is the longest
    tie after digit a from tie length s, or DEAD if a tie on that chain
    leaves the bound on the side `forbidden`.  `digits[i]` is the bound's
    digit i (index 0 unused) and `pi[s]` the longest proper border of its
    first s digits; both are known one past the last row."""

    def __init__(self, digit: Callable[[int], int], forbidden: int,
                 alphabet: range):
        self._digit = digit
        self._forbidden = forbidden
        self._alphabet = alphabet
        self.digits = [0]
        self.pi = [0]
        self.rows: list[list[int]] = []

    def row(self, s: int) -> list[int]:
        """rows[s], built if s is the next tie length.  A tie grows by one
        digit a step, so every shorter row is built before it."""
        rows, digits, pi = self.rows, self.digits, self.pi
        if s < len(rows):
            return rows[s]
        b = self._digit(s + 1)  # HorizonTooShort here stores nothing
        k = pi[s]
        while k and digits[k + 1] != b:
            k = pi[k]
        pi.append(k + 1 if s and digits[k + 1] == b else 0)
        digits.append(b)
        back = rows[pi[s]] if s else [0] * len(self._alphabet)
        row = [DEAD if alt_sign(s + 1, a, b) == self._forbidden
               or back[a] == DEAD else s + 1 if a == b else back[a]
               for a in self._alphabet]
        rows.append(row)
        return row

    def below(self, s: int, bound: int) -> int:
        """The longest tie on the chain of s that is shorter than `bound`
        (positive), or 0."""
        pi = self.pi
        while s >= bound:
            s = pi[s]
        return s


class Automaton:
    """The admissibility automaton of one reference and variant, on
    interned ids.  A state is the pair (j, k) of the longest suffix tied
    with the lower bound and the longest tied with the upper bound 0 d*;
    the other tied suffixes are their borders, read off each bound's prefix
    function.  `states[i]` is the pair with id i (0 is the empty word's
    (0, 0)), `trans[i]` its successors' ids by digit (DEAD if inadmissible),
    None until `_advance` first steps from it, and `tails[i, r]` the
    admissible words of length r from state i, kept once `_tails` lists
    them for enumeration.  A step from (j, k) by digit a is
    (lower.rows[j][a], upper.rows[k][a]), DEAD if either is.  A missing
    row is built by reading its bound's next digit, which raises
    HorizonTooShort past the horizon.  The order of the two reads does not
    matter: 0 d* is known one digit further than the lower bound, and a
    truncated d is its own d*, so when both digits are past the horizon
    they are the same digit of the same sequence."""

    def __init__(self, ref: "Reference", variant: Variant):
        self.ref = ref
        self.alphabet = range(ref.d1 + 1)
        self.states: list[tuple[int, int]] = [(0, 0)]
        self.trans: list[Optional[list[int]]] = [None]
        self._ids: dict[tuple[int, int], int] = {(0, 0): 0}
        self.tails: dict[tuple[int, int], tuple[Word, ...]] = {}
        self.lower = _Bound(lambda i: ref.lower_digit(i, variant), LESS,
                            self.alphabet)
        self.upper = _Bound(ref.upper_digit, GREATER, self.alphabet)

    def _advance(self, i: int) -> list[int]:
        """Store the successors of state i, interning the new ones."""
        states, ids, row = self.states, self._ids, []
        j, k = states[i]
        for pair in zip(self.lower.row(j), self.upper.row(k)):
            if DEAD in pair:
                row.append(DEAD)
                continue
            nxt = ids.setdefault(pair, len(states))
            if nxt == len(states):
                states.append(pair)
                self.trans.append(None)
            row.append(nxt)
        self.trans[i] = row
        return row

    def walk(self, n: int, start=(), step=lambda w, a: w + (a,)
             ) -> Iterator[tuple[object, int]]:
        """Every admissible word of length n, in lexicographic order (depth
        first, on an explicit stack), as the fold of `step` over its digits
        from `start` (by default the word itself, a tuple) with its state's
        id."""
        if n < 0:
            raise ValueError(f"word length {n} is negative")
        stack = [(0, 0, start)]  # (length, state id, fold)
        trans, descending = self.trans, self.alphabet[::-1]
        while stack:
            k, i, v = stack.pop()
            if k == n:
                yield v, i
                continue
            succ = trans[i] or self._advance(i)
            stack.extend((k + 1, succ[a], step(v, a))
                         for a in descending if succ[a] != DEAD)


def is_admissible_word(w: Word, beta: BetaSpec,
                       variant: Variant = Variant.CORRECTED) -> bool:
    """Exact admissibility of a finite word: the automaton's step on the
    (lower tie, upper tie) pair, one row lookup per bound and digit; it
    interns no state."""
    ref = Reference.for_beta(beta)
    aut, d1 = ref.automaton(variant), ref.d1
    lower, upper = aut.lower.rows, aut.upper.rows
    j = k = 0
    for digit in w:
        if not 0 <= digit <= d1:
            return False
        if j < len(lower) and k < len(upper):
            l_row, u_row = lower[j], upper[k]
        else:
            l_row, u_row = aut.lower.row(j), aut.upper.row(k)
        if (j := l_row[digit]) == DEAD or (k := u_row[digit]) == DEAD:
            return False
    return True


def enumerate_words(n: int, beta: BetaSpec,
                    variant: Variant = Variant.CORRECTED) -> WordSet:
    """All admissible words of length exactly n, in lexicographic order:
    each first half of length n // 2 the automaton walks, joined to every
    second half that its state admits, read from the automaton's `tails`."""
    aut = Reference.for_beta(beta).automaton(variant)
    words: tuple[Word, ...] = ()
    if n:
        words = tuple(head + tail for head, i in aut.walk(n // 2)
                      for tail in _tails(aut, i, n - n // 2))
    return WordSet(words, {n: len(words)} if words else {}, complete_to=n)


def _tails(aut: Automaton, i: int, r: int) -> tuple[Word, ...]:
    """The admissible words of length r from state i, in lexicographic
    order, each (i, r) built once into `aut.tails` and kept there.  An
    entry is stored only once its tuple is complete, so a HorizonTooShort
    raised while building it stores none.  State i advances only if r > 0,
    as in `Automaton.walk`."""
    tails = aut.tails.get((i, r))
    if tails is None:
        if r:
            row = aut.trans[i] or aut._advance(i)
            tails = tuple((digit,) + t for digit, j in enumerate(row)
                          if j != DEAD for t in _tails(aut, j, r - 1))
        else:
            tails = ((),)
        aut.tails[i, r] = tails
    return tails


def language_census(n: int, beta: BetaSpec,
                    variant: Variant = Variant.CORRECTED) -> list[int]:
    """Counts of admissible words of each length 1..n, by a dynamic
    programme over the automaton's state ids, one layer per length."""
    aut = Reference.for_beta(beta).automaton(variant)
    layer = {0: 1}
    counts = []
    for _ in range(n):
        nxt: dict[int, int] = {}
        for i, c in layer.items():
            for j in aut.trans[i] or aut._advance(i):
                if j != DEAD:
                    nxt[j] = nxt.get(j, 0) + c
        layer = nxt
        counts.append(sum(layer.values()))
    return counts


def factor_complexity(n: int, d_star: SymbolicSequence) -> list[int]:
    """H_1..H_n via H_m = 1 + sum_{k=1}^m (-1)^k (d*_{k-1} - d*_k) H_{m-k}.

    d*_0 = 0 by convention.  Needs d* known to depth n.
    """
    ds = [0] + [known_digit(d_star, i) for i in range(1, n + 1)]
    c = [(ds[k - 1] - ds[k]) * (1 if k % 2 == 0 else -1)
         for k in range(1, n + 1)]  # c[k - 1] multiplies H_{m-k}
    h = [1]
    for m in range(1, n + 1):
        h.append(1 + sum(map(mul, c[:m], reversed(h))))
    return h[1:]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    beta_ge_golden: bool
    odd_period: Optional[int]      # length of the purely periodic odd period
    shift_coded: bool              # natural shift admits a coding
    corrected_shift_coded: bool
    transitive: bool               # topological transitivity of the shift
    witness: Optional[Word]        # word witnessing failure of transitivity


def classify(beta: BetaSpec) -> Classification:
    """Coded / transitive status of the shifts attached to beta, from the
    reference's golden side and odd period."""
    ref = Reference.for_beta(beta)
    ge_golden = ref.golden_side >= 0
    odd = ref.odd_period
    corrected_coded = ge_golden
    shift_coded = ge_golden and odd is None
    transitive = shift_coded
    witness: Optional[Word] = None
    if odd is not None:
        # the word d_1 .. d_{p-1} j with j just below the last period digit
        # can never be re-attached to the period block
        p = ref.d.period
        witness = p[:-1] + (p[-1] - 1,)
    elif not ge_golden:
        # d starts 1 0^{2(i0-1)} 1 ...; the word 1 0^{2 i0 - 1} overshoots
        i0 = 1
        while ref.d.digit(2 * i0) != 1:
            i0 += 1
        witness = (1,) + (0,) * (2 * i0 - 1)
    return Classification(ge_golden, odd, shift_coded, corrected_coded,
                          transitive, witness)


class PeriodTarget(Enum):
    SHIFT = "shift"
    TRANSFORMATION = "transformation"


def count_periodic_points(n: int, beta: BetaSpec, target: PeriodTarget) -> int:
    """Number of period-n points (period dividing n).

    SHIFT counts length-n words w whose periodic sequence w^inf has every
    cyclic shift within the natural-shift bounds (both non-strict).
    TRANSFORMATION counts fixed points of T^n, i.e. periodic digit streams
    that are genuine expansions: same lower bound, but the supremum 0 d* is
    excluded (strict upper comparison).

    The words are counted as closed walks of length n on the automaton
    (Lind-Marcus 1995, section 6.4).  A live state fixed by w holds exactly
    the ties of ...www, so w fixes at most one state and no word is counted
    twice.  A tie longer than n keeps the bound's first digits n-periodic,
    so the ties on a cycle stay within each bound's n-periodic reach.  The
    walks miss only the rotations of a bound that is periodic with period
    dividing n, and those at most 2n words are fed round their cycle.  A
    truncated bound whose known digits are all n-periodic cannot decide
    the cycles tied with it, and raises HorizonTooShort.  All comparisons
    are exact.
    """
    if n < 1:
        return 0
    ref = Reference.for_beta(beta)
    if ref.d.is_periodic:
        # eventually periodic sequences tied for this long are equal
        bound = max(len(s.prefix) + math.lcm(n, len(s.period))
                    for s in (ref.d, ref.upper_seq())) + 1
    else:
        bound = ref.horizon
    caps, rotations = [], set()
    for seq in (ref.d, ref.upper_seq()):
        digit, reach = seq.digit, min(n, bound)  # digits 1..reach n-periodic
        while reach < bound and digit(reach + 1) == digit(reach + 1 - n):
            reach += 1
        if reach < bound:
            caps.append(reach)
            continue
        if not ref.d.is_periodic:
            raise HorizonTooShort(
                f"the first {bound} digits of a bound repeat with period {n}")
        # seq is the n-periodic sequence, and a cycle tied with it for n
        # digits is one of its rotations
        caps.append(n - 1)
        block = seq.digits(n)
        rotations.update(block[r:] + block[:r] for r in range(n))
    aut = ref.automaton(Variant.ITO_SADAHIRO)
    strict_upper = target is PeriodTarget.TRANSFORMATION
    return _closed_walks(aut, n, *caps) + sum(
        _cycles_within_bounds(aut, w, bound, strict_upper) for w in rotations)


def _closed_walks(aut: Automaton, n: int, lower_cap: int,
                  upper_cap: int) -> int:
    """The closed walks of length n among the states reached breadth first
    from the empty word through ties of at most `lower_cap` and `upper_cap`
    digits.  One pass of n steps: each state holds one integer with a field
    per start state, counting the walks from it, each field wide enough for
    (d1 + 1)^n walks, so none carries into the next."""
    states, index = aut.states, {0: 0}
    order = [0]  # the automaton ids, by index
    for i in order:
        for j in aut.trans[i] or aut._advance(i):
            if j != DEAD and j not in index:
                lower, upper = states[j]
                if lower <= lower_cap and upper <= upper_cap:
                    index[j] = len(order)
                    order.append(j)
    succ = [[index[j] for j in aut.trans[i] if j in index] for i in order]
    width = n * len(aut.alphabet).bit_length() + 1
    walks = [1 << width * a for a in range(len(order))]
    for _ in range(n):
        nxt = [0] * len(order)
        for a, fields in enumerate(walks):
            if fields:
                for b in succ[a]:
                    nxt[b] += fields
        walks = nxt
    field_mask = (1 << width) - 1
    return sum(fields >> width * a & field_mask
               for a, fields in enumerate(walks))


def _cycles_within_bounds(aut: Automaton, w: Word, bound: int,
                          strict_upper: bool) -> bool:
    """Does w^inf stay within the bounds (and off 0 d* if strict_upper)?

    d is periodic, so a suffix tied with a bound for `bound` digits equals
    it.  The suffixes begun in the first copy of w are the cyclic shifts of
    w^inf.  Feed w until each has left its ties or been tied for `bound`
    digits.
    """
    n, i, fed = len(w), 0, 0
    while True:
        if fed >= n:
            j, k = aut.states[i]
            if max(aut.lower.below(j, bound),
                   aut.upper.below(k, bound)) <= fed - n:
                return not (strict_upper and k >= bound)
        if (i := (aut.trans[i] or aut._advance(i))[w[fed % n]]) == DEAD:
            return False
        fed += 1
