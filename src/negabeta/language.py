"""Admissible words, factor complexity, classification, periodic points.

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
so one memoised automaton per (reference, variant) answers every question:
the census is a dynamic programme over its states, enumeration and
membership walk it, and periodic points feed each candidate word through it
cyclically.  This is the sofic presentation of the (-beta)-shift
(Ito-Sadahiro 2009, Frougny-Lai 2009).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

from .errors import HorizonTooShort, UndecidedAtHorizon
from .expansion import reference_pair
from .numerics import BetaSpec
from .order import (EQUAL, GREATER, LESS, SymbolicSequence, Word,
                    alt_compare_seq, alt_sign, format_digits, purely_periodic)
from .wordset import WordSet


class Variant(Enum):
    ITO_SADAHIRO = "ito_sadahiro"
    CORRECTED = "corrected"


_REFERENCE_CACHE: dict[tuple[BetaSpec, int], "Reference"] = {}

# the golden-ratio base expands its left endpoint to 1 0 0 0 ...
_GOLDEN_D = SymbolicSequence((1,), (0,))


@dataclass(frozen=True)
class Reference:
    """Reference data for one base: d, d*, and bound accessors."""

    beta: BetaSpec
    horizon: int
    d: SymbolicSequence
    d_star: SymbolicSequence
    _automata: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @staticmethod
    def for_beta(beta: BetaSpec, horizon: int = 512) -> "Reference":
        key = (beta, horizon)
        ref = _REFERENCE_CACHE.get(key)
        if ref is None:
            d, d_star = reference_pair(beta, horizon)
            ref = Reference(beta, horizon, d, d_star)
            _REFERENCE_CACHE[key] = ref
        return ref

    @property
    def d1(self) -> int:
        return self.d.digit(1)

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
        try:
            return seq.digit(i)
        except UndecidedAtHorizon as e:
            raise HorizonTooShort(str(e)) from e

    def upper_digit(self, i: int) -> int:
        if i == 1:
            return 0
        try:
            return self.d_star.digit(i - 1)
        except UndecidedAtHorizon as e:
            raise HorizonTooShort(str(e)) from e


# ---------------------------------------------------------------------------
# the admissibility automaton
# ---------------------------------------------------------------------------

# the suffixes still tied with a bound, longest first, as (j, tied_lower,
# tied_upper) with j the suffix length; the others constrain nothing further
State = tuple[tuple[int, bool, bool], ...]
_START: State = ()
_FRESH: State = ((0, True, True),)
_UNSEEN = object()


class Automaton:
    """Tied-suffix automaton of one reference and variant.

    `step` compares the next digit of each tied suffix, then of the new
    one, with the lower bound and then the upper; None means inadmissible.
    Results are stored unless `remember` is off; a transition that needs a
    digit past the horizon raises HorizonTooShort instead.
    """

    def __init__(self, ref: "Reference", variant: Variant):
        self.ref = ref
        self.variant = variant
        self.alphabet = range(ref.d1 + 1)
        self._next: dict[tuple[State, int], Optional[State]] = {}

    def step(self, state: State, digit: int,
             remember: bool = True) -> Optional[State]:
        nxt = self._next.get((state, digit), _UNSEEN)
        if nxt is _UNSEEN:
            nxt = self._advance(state, digit)
            if remember:
                self._next[state, digit] = nxt
        return nxt

    def _advance(self, state: State, digit: int) -> Optional[State]:
        ref, variant = self.ref, self.variant
        out = []
        for j, tl, tu in state + _FRESH:
            j += 1
            if tl:
                v = alt_sign(j, digit, ref.lower_digit(j, variant))
                if v == LESS:  # suffix fell below the lower bound
                    return None
                tl = v == EQUAL
            if tu:
                v = alt_sign(j, digit, ref.upper_digit(j))
                if v == GREATER:  # suffix rose above the upper bound
                    return None
                tu = v == EQUAL
            if tl or tu:
                out.append((j, tl, tu))
        return tuple(out)

    def words(self, n: int) -> Iterator[tuple[Word, State]]:
        """Every admissible word of length n with its state, in
        lexicographic order (depth first, on an explicit stack)."""
        if n < 0:
            raise ValueError(f"word length {n} is negative")
        path = [0] * n
        stack = [(0, 0, _START)]  # (length, last digit, state)
        push, step, descending = stack.append, self.step, self.alphabet[::-1]
        while stack:
            k, digit, state = stack.pop()
            if k:
                path[k - 1] = digit
            if k == n:
                yield tuple(path), state
                continue
            for digit in descending:
                nxt = step(state, digit)
                if nxt is not None:
                    push((k + 1, digit, nxt))


def is_admissible_word(w: Word, beta: BetaSpec,
                       variant: Variant = Variant.CORRECTED,
                       horizon: int = 512) -> bool:
    """Exact admissibility of a finite word."""
    ref = Reference.for_beta(beta, horizon)
    aut = ref.automaton(variant)
    state = _START
    for digit in w:
        # a long word's ties outgrow the stored states: read, do not store
        if (not 0 <= digit <= ref.d1
                or (state := aut.step(state, digit, False)) is None):
            return False
    return True


def enumerate_words(n: int, beta: BetaSpec,
                    variant: Variant = Variant.CORRECTED,
                    horizon: int = 512) -> WordSet:
    """All admissible words of length exactly n, lexicographically sorted."""
    aut = Reference.for_beta(beta, horizon).automaton(variant)
    return WordSet.from_words([w for w, _ in aut.words(n)], complete_to=n)


def language_census(n: int, beta: BetaSpec,
                    variant: Variant = Variant.CORRECTED,
                    horizon: int = 512) -> list[int]:
    """Counts of admissible words of each length 1..n, by a dynamic
    programme over the automaton's states, one layer per length."""
    aut = Reference.for_beta(beta, horizon).automaton(variant)
    layer = {_START: 1}
    counts = []
    for _ in range(n):
        nxt: dict[State, int] = {}
        for state, c in layer.items():
            for digit in aut.alphabet:
                if (s := aut.step(state, digit)) is not None:
                    nxt[s] = nxt.get(s, 0) + c
        layer = nxt
        counts.append(sum(layer.values()))
    return counts


def factor_complexity(n: int, d_star: SymbolicSequence) -> list[int]:
    """H_1..H_n via H_m = 1 + sum_{k=1}^m (-1)^k (d*_{k-1} - d*_k) H_{m-k}.

    d*_0 = 0 by convention.  Needs d* known to depth n.
    """
    try:
        ds = [0] + [d_star.digit(i) for i in range(1, n + 1)]
    except UndecidedAtHorizon as e:
        raise HorizonTooShort(str(e)) from e
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


def classify(beta: BetaSpec, horizon: int = 512) -> Classification:
    """Coded / transitive status of the shifts attached to beta.

    The base is located against the golden ratio symbolically: d(l) of the
    golden base is 1 0 0 0 ..., and left endpoints expand monotonically
    (a smaller base has the alternately-larger expansion), so beta >= golden
    iff d <= 1 0^inf in the alternating order.
    """
    ref = Reference.for_beta(beta, horizon)
    cmp_golden = alt_compare_seq(ref.d, _GOLDEN_D, horizon=horizon)
    ge_golden = cmp_golden <= 0
    odd = len(ref.d.period) if (purely_periodic(ref.d)
                                and len(ref.d.period) % 2 == 1) else None
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


def count_periodic_points(n: int, beta: BetaSpec, target: PeriodTarget,
                          horizon: int = 512) -> int:
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
    ref = Reference.for_beta(beta, horizon)
    if ref.d.is_periodic:
        # eventually periodic sequences tied for this long are equal
        bound = max(len(s.prefix) + math.lcm(n, len(s.period))
                    for s in (ref.d, ref.upper_seq())) + 1
    else:
        bound = horizon
    aut = ref.automaton(Variant.ITO_SADAHIRO)
    strict_upper = target is PeriodTarget.TRANSFORMATION
    return sum(_cycles_within_bounds(aut, w, state, bound, strict_upper)
               for w, state in aut.words(n))


def _cycles_within_bounds(aut: Automaton, w: Word, state: State, bound: int,
                          strict_upper: bool) -> bool:
    """Does w^inf stay within the bounds (and off 0 d* if strict_upper)?

    The suffixes begun in the copy of w that led to `state` are the cyclic
    shifts of w^inf.  Feed w until each has left its ties or been tied for
    `bound` digits: equal to the bound if d is periodic, else undecided.
    """
    n = fed = len(w)
    while True:
        if state and state[0][0] >= bound and not aut.ref.d.is_periodic:
            raise HorizonTooShort(
                f"a cyclic shift of {format_digits(w)} agrees with a bound "
                f"through digit {bound}")
        if not any(fed - n < j < bound for j, _, _ in state):
            break
        state = aut.step(state, w[fed % n])
        fed += 1
        if state is None:
            return False
    return not (strict_upper and any(tu for j, _, tu in state if j >= bound))
