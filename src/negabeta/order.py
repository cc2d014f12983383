"""Alternating lexicographic order on digit words and sequences.

For words/sequences over non-negative integer digits, X precedes Y when, at
the first index k where they differ, (-1)^k * (x_k - y_k) < 0 (indices are
1-based).  Finite words only compare at equal length; one-sided infinite
sequences are represented as an eventually periodic (or truncated) prefix +
period pair and compare exactly whenever both tails are known.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import (HorizonTooShort, LengthMismatch, ParseFailure,
                     UndecidedAtHorizon)

Word = tuple[int, ...]

LESS, EQUAL, GREATER = -1, 0, 1


def alt_sign(k: int, a: int, b: int) -> int:
    """Verdict of X against Y from their 1-based k-th digits a and b alone:
    EQUAL when a == b, else LESS iff (-1)^k (a - b) < 0."""
    if a == b:
        return EQUAL
    s = a - b if k % 2 == 0 else b - a
    return LESS if s < 0 else GREATER


def alt_compare(u: Word, v: Word) -> int:
    """Three-way alternating comparison of equal-length words."""
    if len(u) != len(v):
        raise LengthMismatch(f"cannot compare lengths {len(u)} and {len(v)}")
    for k, (a, b) in enumerate(zip(u, v), start=1):
        if a != b:
            return alt_sign(k, a, b)
    return EQUAL


@dataclass(frozen=True)
class SymbolicSequence:
    """One-sided infinite digit sequence, eventually periodic or truncated.

    `period is None` means truncated: only `prefix` is known.  Periodic data
    is canonicalised to the minimal period and minimal preperiod, so equal
    sequences have equal representations.  The hash of the two is computed
    once, on construction, since a kept result is looked up by its
    sequence and a reference sequence runs to hundreds of digits.
    """

    prefix: Word
    period: Optional[Word] = None
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        prefix = tuple(self.prefix)
        period = self.period
        if period is not None:
            period = tuple(period)
            if not period:
                raise ValueError("empty period")
            # minimal period
            n = len(period)
            for ell in range(1, n + 1):
                if n % ell == 0 and period == period[:ell] * (n // ell):
                    period = period[:ell]
                    break
            # minimal preperiod: absorb matching trailing digits
            while prefix and prefix[-1] == period[-1]:
                prefix = prefix[:-1]
                period = period[-1:] + period[:-1]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "_hash", hash((prefix, period)))

    def __hash__(self) -> int:
        return self._hash

    # -- accessors ----------------------------------------------------------

    @property
    def is_periodic(self) -> bool:
        return self.period is not None

    @property
    def known_to(self) -> float:
        return math.inf if self.is_periodic else len(self.prefix)

    def digit(self, i: int) -> int:
        """1-based digit access."""
        if i < 1:
            raise IndexError("digit indices are 1-based")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        if self.period is None:
            raise UndecidedAtHorizon(
                f"digit {i} beyond truncated horizon {len(self.prefix)}")
        return self.period[(i - 1 - len(self.prefix)) % len(self.period)]

    def digits(self, n: int) -> Word:
        return tuple(self.digit(i) for i in range(1, n + 1))

    def shift(self, m: int = 1) -> "SymbolicSequence":
        """Drop the first m digits."""
        if m <= len(self.prefix):
            return SymbolicSequence(self.prefix[m:], self.period)
        if self.period is None:
            raise UndecidedAtHorizon("shift beyond truncated horizon")
        k = (m - len(self.prefix)) % len(self.period)
        return SymbolicSequence((), self.period[k:] + self.period[:k])

    def __str__(self):
        return format_digits(self.prefix, self.period)


def known_digit(seq: SymbolicSequence, i: int) -> int:
    """Digit i of a reference sequence that the caller needs known: a digit
    past a truncated horizon raises HorizonTooShort."""
    try:
        return seq.digit(i)
    except UndecidedAtHorizon as e:
        raise HorizonTooShort(str(e)) from e


def purely_periodic(seq: SymbolicSequence) -> bool:
    return seq.is_periodic and not seq.prefix


def alt_compare_seq(x: SymbolicSequence, y: SymbolicSequence) -> int:
    """Exact alternating comparison of sequences.

    One scan of the digits decides it.  Two periodic sequences tied for
    max preperiod + lcm of periods digits are equal; if either side is
    truncated the scan covers all digits both sides know, and a tie that
    long raises UndecidedAtHorizon.
    """
    periodic = x.is_periodic and y.is_periodic
    if periodic:
        bound = (max(len(x.prefix), len(y.prefix))
                 + math.lcm(len(x.period), len(y.period)) + 1)
    else:
        bound = int(min(x.known_to, y.known_to))
    for k in range(1, bound + 1):
        a, b = x.digit(k), y.digit(k)
        if a != b:
            return alt_sign(k, a, b)
    if periodic:
        return EQUAL
    raise UndecidedAtHorizon(f"sequences agree through digit {bound}")


# ---------------------------------------------------------------------------
# digit-string syntax: "2012(1)" or "2,0,10(1,)"; parentheses mark a period
# ---------------------------------------------------------------------------

_DIGIT_RE = re.compile(r"^(?P<pre>[^()]*)(?:\((?P<per>[^()]+)\))?$")


def _split_digits(s: str) -> Word:
    s = s.strip()
    if not s:
        return ()
    if "," in s:  # a one-digit list ends in a comma: "12," is (12,)
        try:
            return tuple(int(t) for t in s.rstrip(",").split(","))
        except ValueError as e:
            raise ParseFailure(f"bad digit list {s!r}") from e
    if not s.isdigit():
        raise ParseFailure(f"bad digit string {s!r}")
    return tuple(int(c) for c in s)


def parse_digits(s: str) -> SymbolicSequence:
    m = _DIGIT_RE.match(s.strip())
    if not m:
        raise ParseFailure(f"malformed digit string {s!r}")
    pre = _split_digits(m.group("pre"))
    per = m.group("per")
    return SymbolicSequence(pre, _split_digits(per) if per is not None else None)


def parse_word(s: str) -> Word:
    seq = parse_digits(s)
    if seq.period is not None:
        raise ParseFailure("finite word cannot carry a period")
    return seq.prefix


_DIGIT_CHARS = bytes.maketrans(bytes(range(10)), b"0123456789")


def format_digits(prefix: Word, period: Optional[Word] = None) -> str:
    """The digit string `parse_digits` reads back: digits run together
    while all are at most 9, else comma-separated, with a trailing comma
    on a block of one digit ("(12,)")."""
    if max(prefix, default=0) > 9 or max(period or (), default=0) > 9:
        fmt = lambda w: ",".join(map(str, w)) + ("," if len(w) == 1 else "")
    else:  # a byte per digit, translated to its character
        fmt = lambda w: bytes(w).translate(_DIGIT_CHARS).decode()
    out = fmt(prefix)
    if period is not None:
        out += f"({fmt(period)})"
    return out
