"""Admissible words, factor complexity, classification, periodic points.

`Reference` is the per-base context every layer looks up: the expansion d of
the left endpoint, its corrected form d* (the working stream of the code
families), the side of the golden ratio the base lies on, the cascade level
of a base below it and the odd period of d, if any.  A `Run` holds the
digit horizon and one store, which keeps the results of the functions
marked `kept_per_run` by function and arguments: the reference of each
base, with d expanded to the horizon, the kneading series per (d*, order),
the code families per (stream, length) (`codes._families`), and each
automaton's halves of a listing and closed-walk passes.
`at_horizon(n)` opens a run at horizon n and empties its store on exit,
which drops each reference with its automata; work outside any block
shares one run at 512 for the whole process, and keeps all of it for the
life of the process.  The golden side and the level
are read off d alone.  The coefficients of E = 1/den(d*), den the kneading
denominator, are `kneading_series`; the factor complexity is the prefix
sums of E, and `series` reads the lap and zeta series off the same kept
E.  The cascade's word pairs (`morphism_words`) and its bases gamma_n
(`gamma_n`, which the CLI's `golden` and `gamma:N` name) live here too.

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
is a dynamic programme over ids whose totals and last layer the automaton
keeps and extends, enumeration fills one buffer with the first halves and
the second halves each admits (`_halves`), the periodic count reads the
closed walks of each length n over the states a cycle can pass through
off one pass (`_closed_walks`), and membership steps the pair on the bound
tables and interns no state.  The automaton holds its states, its rows
and the census totals and last layer; everything else it computes is in
the run's store.  This is the sofic presentation of the (-beta)-shift
(Ito-Sadahiro 2009, Frougny-Lai 2009).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache, wraps
from itertools import accumulate
from operator import mul
from typing import Iterator, Optional

from .errors import HorizonTooShort, IndexOutOfRange, UndecidedAtHorizon
from .expansion import reference_pair
from .numerics import BetaSpec, beta_from_poly
from .order import (EQUAL, GREATER, LESS, SymbolicSequence, Word,
                    alt_compare_seq, alt_sign, known_digit,
                    purely_periodic)
from .wordset import PackedWords, WordSet


class Variant(Enum):
    ITO_SADAHIRO = "ito_sadahiro"
    CORRECTED = "corrected"


@dataclass
class Run:
    """The digit horizon and the store of what the run keeps: each
    `kept_per_run` result by (function, arguments), until the run ends."""
    horizon: int = 512
    kept: dict[tuple, object] = field(default_factory=dict)


_RUN: ContextVar[Run] = ContextVar("run", default=Run())  # outside blocks


@contextmanager
def at_horizon(n: int) -> Iterator[Run]:
    """A fresh run at horizon n, also when nested; exit empties its store."""
    run = Run(n)
    token = _RUN.set(run)
    try:
        yield run
    finally:
        _RUN.reset(token)
        run.kept.clear()


def kept_per_run(fn):
    """fn, its results kept in the store of the run in force, keyed by fn
    and its positional arguments, until the run ends.  A result is stored
    only once fn returns it whole, so a call that raises (a HorizonTooShort
    included) stores nothing and leaves nothing half built."""
    @wraps(fn)
    def kept(*args):
        store, key = _RUN.get().kept, (fn, args)
        try:  # one hash of the arguments on a hit: d* may run to 512 digits
            return store[key]
        except KeyError:
            pass
        result = store[key] = fn(*args)
        return result
    return kept


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
    the cascade level, the odd period, the upper bound 0 d* and the
    automata."""

    beta: BetaSpec
    horizon: int
    d: SymbolicSequence
    d_star: SymbolicSequence
    _automata: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @staticmethod
    @kept_per_run
    def for_beta(beta: BetaSpec) -> "Reference":
        """The reference of beta in the run in force (`at_horizon`), with d
        and d* to the run's horizon."""
        horizon = _RUN.get().horizon
        return Reference(beta, horizon, *reference_pair(beta, horizon))

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


# ---------------------------------------------------------------------------
# the admissibility automaton
# ---------------------------------------------------------------------------

DEAD = -1  # the successor of an inadmissible step


class _Bound:
    """One bound's sequence `seq` and its Knuth-Morris-Pratt table.

    A suffix tied with the bound for s digits equals its first s digits, so
    the suffixes tied with it are the borders of the longest one: s, pi[s],
    pi[pi[s]], ... down to the empty suffix 0.  `rows[s][a]` is the longest
    tie after digit a from tie length s, or DEAD if a tie on that chain
    leaves the bound on the side `forbidden`.  `digits[i]` is digit i of
    `seq` (index 0 unused) and `pi[s]` the longest proper border of its
    first s digits; both are known one past the last row."""

    def __init__(self, seq: SymbolicSequence, forbidden: int,
                 alphabet: range):
        self.seq, self._forbidden = seq, forbidden
        self._alphabet, self.digits, self.pi, self.rows = alphabet, [0], [0], []

    def row(self, s: int) -> list[int]:
        """rows[s], built if s is the next tie length.  A tie grows by one
        digit a step, so every shorter row is built before it."""
        rows, digits, pi = self.rows, self.digits, self.pi
        if s < len(rows):
            return rows[s]
        b = known_digit(self.seq, s + 1)  # HorizonTooShort stores nothing
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


class Automaton:
    """The admissibility automaton of one reference and variant, on
    interned ids.  A state is the pair (j, k) of the longest suffix tied
    with the lower bound and the longest tied with the upper bound 0 d*;
    the other tied suffixes are their borders, read off each bound's prefix
    function.  `states[i]` is the pair with id i (0 is the empty word's
    (0, 0)), `trans[i]` its successors' ids by digit (DEAD if inadmissible),
    None until `_advance` first steps from it.  Beside them it holds the
    census: `totals[m]` counts the admissible words of length m for
    m = 0..len(totals) - 1, and `last` the longest of them by end-state id
    (`_extend_census` extends both).  Everything else it computes is in
    the run's store (`kept_per_run`).  A step
    from (j, k) by digit a is (lower.rows[j][a], upper.rows[k][a]), DEAD if
    either is.  A missing row is built by reading its bound's next digit,
    which raises HorizonTooShort past the horizon.  The order of the two
    reads does not matter: 0 d* is known one digit further than the lower
    bound, and a truncated d is its own d*, so when both digits are past
    the horizon they are the same digit of the same sequence."""

    def __init__(self, ref: "Reference", variant: Variant):
        self.ref = ref
        self.alphabet = range(ref.d1 + 1)
        self.states: list[tuple[int, int]] = [(0, 0)]
        self.trans: list[Optional[list[int]]] = [None]
        self._ids: dict[tuple[int, int], int] = {(0, 0): 0}
        self.totals: list[int] = [1]
        self.last: dict[int, int] = {0: 1}
        lower = ref.d if variant is Variant.ITO_SADAHIRO else ref.d_star
        self.lower = _Bound(lower, LESS, self.alphabet)
        self.upper = _Bound(ref.upper_seq(), GREATER, self.alphabet)

    @cached_property
    def codes(self) -> list[bytes]:
        """Each digit's bytes in a row: one, or eight big-endian past 255."""
        width = 1 if self.ref.d1 < 256 else 8
        return [a.to_bytes(width, "big") for a in self.alphabet]

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
    each first half of length n // 2 followed by every second half its
    state admits (`_halves`), all in one buffer of rows
    (`wordset.PackedWords`) sized exactly from the second halves before
    any is written.  The words of one first half are written at once, as
    head + head.join(tails), so no object is made per word, and none the
    cyclic collector tracks."""
    if n < 0:
        raise ValueError(f"word length {n} is negative")
    aut = Reference.for_beta(beta).automaton(variant)
    size = n * len(aut.codes[0])
    heads, halves = _halves(aut, n)
    buf = bytearray(size * sum(map(len, halves)))
    at = 0
    for head, tails in zip(heads, halves):
        if tails:
            buf[at:at + size * len(tails)] = head + head.join(tails)
            at += size * len(tails)
    words = PackedWords(buf, n, len(aut.codes[0]))
    return WordSet(words, {n: len(words)} if words else {}, complete_to=n)


@kept_per_run
def _halves(aut: Automaton, n: int) -> tuple[tuple[bytes, ...],
                                             tuple[tuple[bytes, ...], ...]]:
    """The first halves of the words of length n (`_heads`) and the second
    halves each one's state admits (`_tails`): a repeat listing is one
    store lookup."""
    heads, ends = _heads(aut, n // 2)
    return heads, tuple(_tails(aut, i, n - n // 2) for i in ends)


@kept_per_run
def _heads(aut: Automaton, h: int) -> tuple[tuple[bytes, ...],
                                            tuple[int, ...]]:
    """The admissible words of length h as bytes rows, in lexicographic
    order, and each one's end-state id, so lengths 2h and 2h + 1 share
    one walk."""
    codes = aut.codes
    return tuple(zip(*aut.walk(h, b"", lambda w, a: w + codes[a])))


@kept_per_run
def _tails(aut: Automaton, i: int, r: int) -> tuple[bytes, ...]:
    """The admissible words of length r from state i as bytes rows, in
    lexicographic order, each the digit of a step followed by a second
    half of length r - 1 from its state.  State i advances only if r > 0,
    as in `Automaton.walk`."""
    if not r:
        return (b"",)
    row = aut.trans[i] or aut._advance(i)
    return tuple(aut.codes[digit] + t
                 for digit, j in enumerate(row) if j != DEAD
                 for t in _tails(aut, j, r - 1))


def language_census(n: int, beta: BetaSpec,
                    variant: Variant = Variant.CORRECTED) -> list[int]:
    """Counts of admissible words of each length 1..n, a slice of the
    automaton's kept totals."""
    aut = Reference.for_beta(beta).automaton(variant)
    _extend_census(aut, n)
    return aut.totals[1:n + 1]


def _extend_census(aut: Automaton, n: int) -> None:
    """Extend `aut.totals` to length n, if it is shorter, by a dynamic
    programme over the automaton from `aut.last`, the words of the longest
    length counted by their state id, one layer per length.  Only the
    layer in hand is held; the new totals and last layer are stored
    together once all are complete, so a call that raises HorizonTooShort
    stores none."""
    layer, totals = aut.last, []
    for _ in range(n + 1 - len(aut.totals)):
        nxt: dict[int, int] = {}
        for i, c in layer.items():
            for j in aut.trans[i] or aut._advance(i):
                if j != DEAD:
                    nxt[j] = nxt.get(j, 0) + c
        layer = nxt
        totals.append(sum(layer.values()))
    aut.totals += totals
    aut.last = layer


def kneading_coefficients(seq: SymbolicSequence, order: int) -> list[int]:
    """c_1 .. c_order of the kneading denominator den(z) = 1 - sum c_n z^n
    of seq: c_n = (-1)^n (s_{n-1} - s_n), s_0 = 0.  A digit past a truncated
    horizon raises HorizonTooShort before any coefficient is made."""
    ds = [0] + [known_digit(seq, i) for i in range(1, order + 1)]
    return [ds[n] - ds[n - 1] if n % 2 else ds[n - 1] - ds[n]
            for n in range(1, order + 1)]


@kept_per_run
def kneading_series(d_star: SymbolicSequence, order: int) -> tuple[int, ...]:
    """E_0 .. E_order of E = 1/den(d*) (`kneading_coefficients`): E_0 = 1,
    E_m = sum_{k=1}^m c_k E_{m-k}.  The run keeps it per (d*, order), for
    every base with that d*, until it ends; a HorizonTooShort is raised
    first and stores nothing."""
    c = kneading_coefficients(d_star, order)  # c[k - 1] times E_{m-k}
    terms = [1]
    for m in range(1, order + 1):
        terms.append(sum(map(mul, c[:m], reversed(terms))))
    return tuple(terms)


def factor_complexity(n: int, d_star: SymbolicSequence) -> list[int]:
    """H_1..H_n, the prefix sums H_m = E_0 + ... + E_m of E = 1/den(d*)
    (`kneading_series`): the series sum H_m z^m is 1/((1-z) den(z)), the
    lap series.  Needs d* known to depth n.
    """
    return list(accumulate(kneading_series(d_star, n)))[1:]


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
    dividing n, at most 2n words, whose shifts are compared with the bounds
    in the alternating order.  A truncated bound whose known digits are all
    n-periodic cannot decide the cycles tied with it, and raises
    HorizonTooShort.  All comparisons are exact.  Both targets read one
    pass (`_closed_walks`).
    """
    if n < 1:
        return 0
    caps, rotations = cycle_ties(n, beta)
    aut = Reference.for_beta(beta).automaton(Variant.ITO_SADAHIRO)
    walks = _closed_walks(aut, n, *caps)[-1]
    return walks + _rotations_within_bounds(aut, rotations, target)


def periodic_point_counts(n: int, beta: BetaSpec,
                          target: PeriodTarget) -> list[int]:
    """`count_periodic_points(m, beta, target)` for every m = 1..n, the
    closed walks of every length read off one pass to n, which both
    targets share.  `cycle_ties` runs for every m first, so a period the
    horizon cannot decide raises before any count is made.  The pass runs
    on the states within the largest of the per-m caps: the ties of a
    state on a cycle of length m stay within the m-caps, so the extra
    states add no closed walk of length m."""
    if n < 1:
        return []
    ties = [cycle_ties(m, beta) for m in range(1, n + 1)]
    aut = Reference.for_beta(beta).automaton(Variant.ITO_SADAHIRO)
    caps = [max(cap) for cap in zip(*(caps for caps, _ in ties))]
    walks = _closed_walks(aut, n, *caps)
    return [w + _rotations_within_bounds(aut, rotations, target)
            for w, (_, rotations) in zip(walks, ties)]


def cycle_ties(n: int, beta: BetaSpec) -> tuple[list[int], set[Word]]:
    """What `count_periodic_points` needs to know of the bounds at period
    n >= 1: the caps on the lower and upper ties of the cycles the
    automaton's walks count, and the rotations of a bound that is periodic
    with period dividing n.  This is the only step of the count that raises
    HorizonTooShort, so running it for every n first tells at once whether
    counts to some N can answer.
    """
    aut = Reference.for_beta(beta).automaton(Variant.ITO_SADAHIRO)
    d, upper = aut.lower.seq, aut.upper.seq  # d and 0 d*
    if d.is_periodic:
        # eventually periodic sequences tied for this long are equal
        bound = max(len(s.prefix) + math.lcm(n, len(s.period))
                    for s in (d, upper)) + 1
    else:
        bound = aut.ref.horizon
    caps, rotations = [], set()
    for seq in (d, upper):
        digit, reach = seq.digit, min(n, bound)  # digits 1..reach n-periodic
        while reach < bound and digit(reach + 1) == digit(reach + 1 - n):
            reach += 1
        if reach < bound:
            caps.append(reach)
            continue
        if not d.is_periodic:
            raise HorizonTooShort(
                f"the first {bound} digits of a bound repeat with period {n}")
        # seq is the n-periodic sequence, and a cycle tied with it for n
        # digits is one of its rotations
        caps.append(n - 1)
        block = seq.digits(n)
        rotations.update(block[r:] + block[:r] for r in range(n))
    return caps, rotations


@kept_per_run
def _closed_walks(aut: Automaton, n: int, lower_cap: int,
                  upper_cap: int) -> tuple[int, ...]:
    """The closed walks of each length 1..n among the states reached
    breadth first from the empty word through ties of at most `lower_cap`
    and `upper_cap` digits.  One pass of n steps: each state holds one
    integer with a field per start state, counting the walks from it, each
    field wide enough for (d1 + 1)^n walks, so none carries into the next;
    the trace is read after each step."""
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
    field_mask = (1 << width) - 1
    walks, traces = [1 << width * a for a in range(len(order))], []
    for _ in range(n):
        nxt = [0] * len(order)
        for a, fields in enumerate(walks):
            if fields:
                for b in succ[a]:
                    nxt[b] += fields
        walks = nxt
        traces.append(sum(fields >> width * a & field_mask
                          for a, fields in enumerate(walks)))
    return tuple(traces)


def _rotations_within_bounds(aut: Automaton, rotations: set[Word],
                             target: PeriodTarget) -> int:
    """How many of the rotations w of a periodic bound have every shift of
    w^inf, one per digit of its minimal period, within d <= . <= 0 d* (and
    off 0 d* for the transformation)?  Both bounds are periodic here, so
    the alternating order decides each exactly."""
    top = LESS if target is PeriodTarget.TRANSFORMATION else EQUAL
    count = 0
    for w in rotations:
        seq = SymbolicSequence((), w)
        count += all(alt_compare_seq(s, aut.lower.seq) != LESS
                     and alt_compare_seq(s, aut.upper.seq) <= top
                     for s in map(seq.shift, range(len(seq.period))))
    return count
