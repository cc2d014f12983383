"""Admissible words, factor complexity, classification, periodic points.

`Reference` is the per-base context every layer looks up: the expansion d of
the left endpoint, its corrected form d* (the working stream of the code
families), the side of the golden ratio the base lies on, the cascade level
of a base below it and the odd period of d, if any.  d is expanded to the
digit horizon in force, one value per run set with `at_horizon` (default
512), and each is computed once per (base, horizon); the golden side and
the level are read off d alone.

A word w is admissible when every suffix of w stays between the reference
bounds in the alternating order.  Two variants exist:

* ``ITO_SADAHIRO`` — the language of the natural shift: each suffix s
  satisfies  d <= s <= 0 d*   (both comparisons non-strict on the suffix's
  length; d is the expansion of the left endpoint, d* its corrected form).
* ``CORRECTED`` — the language of the corrected shift: each suffix s
  satisfies  d* <= s <= 0 d*.  The strictness of the upper bound only bites
  for infinite sequences; finite prefixes may tie.

The two variants coincide unless d is purely periodic with odd period.

The future of a word depends only on its suffixes still tied with a bound,
so one automaton per (reference, variant) answers every question.  Each such
state is interned once to an integer id, its successors listed by digit: the
census is a dynamic programme over ids, enumeration joins each first half
walked on the table to the second halves listed once per (state, length), the
periodic count walks the table and feeds each word round its cycle, and
membership reads the table but stores no state past it; it caches bound
digits only.  This is the sofic presentation of the (-beta)-shift
(Ito-Sadahiro 2009, Frougny-Lai 2009).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterator, Optional

from .errors import HorizonTooShort, IndexOutOfRange, UndecidedAtHorizon
from .expansion import reference_pair
from .numerics import BetaSpec
from .order import (EQUAL, GREATER, LESS, SymbolicSequence, Word,
                    alt_compare_seq, alt_sign, format_digits, known_digit,
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

# the suffixes still tied with a bound, longest first, as (j, tied_lower,
# tied_upper) with j the suffix length; the others constrain nothing further
State = tuple[tuple[int, bool, bool], ...]
_FRESH: State = ((0, True, True),)
DEAD = -1  # the successor id of an inadmissible step


class Automaton:
    """Tied-suffix automaton of one reference and variant, on interned ids:
    `states[i]` is the state with id i (0 is the empty word's), `trans[i]`
    its successors' ids by digit (DEAD if inadmissible), None until
    `_advance` first steps from it.  A step compares the next digit of each
    tied suffix, then of the new one, with the lower bound and then the
    upper; one needing a digit past the horizon raises HorizonTooShort.
    `_lower[j]` and `_upper[j]` are the bound digits j read so far (index 0
    unused), each read once through the reference."""

    def __init__(self, ref: "Reference", variant: Variant):
        self.ref = ref
        self.variant = variant
        self.alphabet = range(ref.d1 + 1)
        self.states: list[State] = [()]
        self.trans: list[Optional[list[int]]] = [None]
        self._ids: dict[State, int] = {(): 0}
        self._lower: list[int] = [0]
        self._upper: list[int] = [0]

    def _advance(self, i: int) -> list[int]:
        """Store the successors of state i, interning the new ones."""
        row = []
        for digit in self.alphabet:
            nxt = self.successor(self.states[i], digit)
            j = DEAD if nxt is None else self._ids.setdefault(nxt, len(self.states))
            if j == len(self.states):
                self.states.append(nxt)
                self.trans.append(None)
            row.append(j)
        self.trans[i] = row
        return row

    def successor(self, state: State, digit: int) -> Optional[State]:
        """The state after `digit`, or None if inadmissible; stores no
        state; caches bound digits.  A tie that reaches the end of a bound's
        list reads that bound's next digit, so HorizonTooShort is raised at
        the first digit past the horizon that a tie needs."""
        lower, upper = self._lower, self._upper
        out = []
        for j, tl, tu in state + _FRESH:
            j += 1
            if tl:
                if j == len(lower):
                    lower.append(self.ref.lower_digit(j, self.variant))
                v = alt_sign(j, digit, lower[j])
                if v == LESS:  # suffix fell below the lower bound
                    return None
                tl = v == EQUAL
            if tu:
                if j == len(upper):
                    upper.append(self.ref.upper_digit(j))
                v = alt_sign(j, digit, upper[j])
                if v == GREATER:  # suffix rose above the upper bound
                    return None
                tu = v == EQUAL
            if tl or tu:
                out.append((j, tl, tu))
        return tuple(out)

    def walk(self, n: int) -> Iterator[tuple[list[int], int]]:
        """Every admissible word of length n with its state's id, in
        lexicographic order (depth first, on an explicit stack).  Each word
        is the one path list, overwritten by the next word: copy it to keep
        it."""
        if n < 0:
            raise ValueError(f"word length {n} is negative")
        path = [0] * n
        stack = [(0, 0, 0)]  # (length, last digit, state id)
        push, trans, descending = stack.append, self.trans, self.alphabet[::-1]
        while stack:
            k, digit, i = stack.pop()
            if k:
                path[k - 1] = digit
            if k == n:
                yield path, i
                continue
            succ = trans[i] or self._advance(i)
            for digit in descending:
                if (j := succ[digit]) != DEAD:
                    push((k + 1, digit, j))

    def words(self, n: int) -> Iterator[tuple[Word, State]]:
        """`walk`, with each word as a tuple and its state itself."""
        return ((tuple(w), self.states[i]) for w, i in self.walk(n))


def is_admissible_word(w: Word, beta: BetaSpec,
                       variant: Variant = Variant.CORRECTED) -> bool:
    """Exact admissibility of a finite word."""
    ref = Reference.for_beta(beta)
    aut, d1 = ref.automaton(variant), ref.d1
    i, state = 0, None  # at id i on the table, or at `state` past it
    for digit in w:
        if not 0 <= digit <= d1:
            return False
        if state is None and (row := aut.trans[i]) is not None:
            if (i := row[digit]) == DEAD:
                return False
        else:  # a long word's ties outgrow the table: compute, store nothing
            state = aut.successor(aut.states[i] if state is None else state, digit)
            if state is None:
                return False
    return True


def enumerate_words(n: int, beta: BetaSpec,
                    variant: Variant = Variant.CORRECTED) -> WordSet:
    """All admissible words of length exactly n, in lexicographic order:
    each first half of length n // 2 the automaton walks, joined to every
    second half that its state admits."""
    aut = Reference.for_beta(beta).automaton(variant)
    words: tuple[Word, ...] = ()
    if n:
        tails: dict[tuple[int, int], tuple[Word, ...]] = {}
        words = tuple(head + tail
                      for path, i in aut.walk(n // 2)
                      for head in (tuple(path),)
                      for tail in _tails(aut, i, n - n // 2, tails))
    return WordSet(words, {n: len(words)} if words else {}, complete_to=n)


def _tails(aut: Automaton, i: int, r: int,
           memo: dict[tuple[int, int], tuple[Word, ...]]) -> tuple[Word, ...]:
    """The admissible words of length r from state i, in lexicographic
    order, each (i, r) built once into `memo`.  State i advances only if
    r > 0, as in `Automaton.walk`."""
    tails = memo.get((i, r))
    if tails is None:
        if r:
            row = aut.trans[i] or aut._advance(i)
            tails = tuple((digit,) + t for digit, j in enumerate(row)
                          if j != DEAD for t in _tails(aut, j, r - 1, memo))
        else:
            tails = ((),)
        memo[i, r] = tails
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
    h = [1]
    for m in range(1, n + 1):
        total = 1
        for k in range(1, m + 1):
            coeff = (ds[k - 1] - ds[k]) * (1 if k % 2 == 0 else -1)
            total += coeff * h[m - k]
        h.append(total)
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
    excluded (strict upper comparison).  Each admissible w is fed through
    the automaton cyclically; all comparisons are exact.
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
    aut = ref.automaton(Variant.ITO_SADAHIRO)
    strict_upper = target is PeriodTarget.TRANSFORMATION
    ties: dict[int, tuple[bool, int, bool]] = {}
    return sum(_cycles_within_bounds(aut, w, i, bound, strict_upper, ties)
               for w, i in aut.walk(n))


def _cycles_within_bounds(aut: Automaton, w: list[int], i: int, bound: int,
                          strict_upper: bool, ties: dict) -> bool:
    """Does w^inf stay within the bounds (and off 0 d* if strict_upper)?

    The suffixes begun in the copy of w that led to state i are the cyclic
    shifts of w^inf.  Feed w until each has left its ties or been tied for
    `bound` digits: equal to the bound if d is periodic, else undecided.
    `ties` keeps what is read of each state's tie lengths, once per state.
    """
    n = fed = len(w)
    while True:
        if (tie := ties.get(i)) is None:
            s, periodic = aut.states[i], aut.ref.d.is_periodic
            tie = ties[i] = (bool(s) and s[0][0] >= bound and not periodic,
                             next((j for j, _, _ in s if j < bound), 0),
                             any(tu for j, _, tu in s if j >= bound))
        undecided, longest_below, upper_at_bound = tie
        if undecided:
            raise HorizonTooShort(
                f"a cyclic shift of {format_digits(w)} agrees with a bound "
                f"through digit {bound}")
        if longest_below <= fed - n:
            return not (strict_upper and upper_at_bound)
        if (i := (aut.trans[i] or aut._advance(i))[w[fed % n]]) == DEAD:
            return False
        fed += 1
