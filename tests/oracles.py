"""Brute-force oracles for the language layer and the cascade.

These are the direct definitions the automaton in `negabeta.language`
replaces: a depth-first search that rebuilds the list of tied suffixes for
every prefix, and a periodic-point count that compares every cyclic shift of
every candidate word with the bounds as an infinite sequence; and the
cascade level by comparing the base with the algebraic numbers gamma_n.
They are slow (about beta^n nodes, or root isolation of degree about 2^n)
and exist only to check the fast code against.
"""

from negabeta.errors import (HorizonTooShort, IndexOutOfRange,
                             UndecidedAtHorizon)
from negabeta.gaps import gamma_n
from negabeta.language import PeriodTarget, Reference, Variant
from negabeta.numerics import cross_compare
from negabeta.order import SymbolicSequence, alt_compare_seq


def _push_digit(states, digit, pos, ref, variant):
    """Extend all tracked suffixes by one digit; None means inadmissible.

    A state is a list of (start, tied_lower, tied_upper), one per suffix of
    the word that is still digit-for-digit tied with a bound."""
    out = []
    for start, tl, tu in states + [(pos, True, True)]:
        j = pos - start + 1  # index of the new digit inside this suffix
        if tl:
            c = ref.lower_digit(j, variant)
            if digit != c:
                s = digit - c if j % 2 == 0 else c - digit
                if s < 0:  # suffix fell below the lower bound
                    return None
                tl = False
        if tu:
            c = ref.upper_digit(j)
            if digit != c:
                s = digit - c if j % 2 == 0 else c - digit
                if s > 0:  # suffix rose above the upper bound
                    return None
                tu = False
        if tl or tu:
            out.append((start, tl, tu))
    return out


def is_admissible(w, beta, variant=Variant.CORRECTED, horizon=512):
    ref = Reference.for_beta(beta, horizon)
    states = []
    for pos, digit in enumerate(w, start=1):
        if not 0 <= digit <= ref.d1:
            return False
        states = _push_digit(states, digit, pos, ref, variant)
        if states is None:
            return False
    return True


def words(n, beta, variant=Variant.CORRECTED, horizon=512):
    """All admissible words of length n, in lexicographic order."""
    ref = Reference.for_beta(beta, horizon)
    out = []

    def rec(word, states):
        if len(word) == n:
            out.append(word)
            return
        for digit in range(ref.d1 + 1):
            nxt = _push_digit(states, digit, len(word) + 1, ref, variant)
            if nxt is not None:
                rec(word + (digit,), nxt)

    rec((), [])
    return out


def census(n, beta, variant=Variant.CORRECTED, horizon=512):
    """Counts of admissible words of each length 1..n, by one DFS pass."""
    ref = Reference.for_beta(beta, horizon)
    counts = [0] * (n + 1)

    def rec(length, states):
        counts[length] += 1
        if length == n:
            return
        for digit in range(ref.d1 + 1):
            nxt = _push_digit(states, digit, length + 1, ref, variant)
            if nxt is not None:
                rec(length + 1, nxt)

    rec(0, [])
    return counts[1:]


def periodic_points(n, beta, target, horizon=512):
    """Words w of length n all of whose rotations, repeated forever, lie
    within d <= . <= 0 d* (strictly below 0 d* for the transformation)."""
    ref = Reference.for_beta(beta, horizon)
    lower, upper = ref.d, ref.upper_seq()
    strict_upper = target is PeriodTarget.TRANSFORMATION
    count = 0
    for w in words(n, beta, Variant.ITO_SADAHIRO, horizon):
        ok = True
        for m in range(n):
            seq = SymbolicSequence((), w[m:] + w[:m])
            try:
                if alt_compare_seq(lower, seq, horizon=horizon) > 0:
                    ok = False
                    break
                cu = alt_compare_seq(seq, upper, horizon=horizon)
            except UndecidedAtHorizon as e:
                raise HorizonTooShort(str(e)) from e
            if cu > 0 or (strict_upper and cu == 0):
                ok = False
                break
        count += ok
    return count


def numeric_cascade_level(beta):
    """The cascade level by exact comparison of beta with the algebraic
    gamma_1, gamma_2, ...: the n with gamma_{n+1} < beta <= gamma_n."""
    if cross_compare(beta, gamma_n(0)) >= 0:
        raise IndexOutOfRange("base is not below the golden ratio")
    n = 0
    while (side := cross_compare(beta, gamma_n(n + 1))) < 0:
        n += 1
    return n if side > 0 else n + 1
