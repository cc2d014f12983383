"""A finite, length-certified set of digit words.

Family constructions enumerate infinite languages up to a length bound;
`complete_to` records the largest length for which the enumeration is
certified exhaustive.  The JSON form is the one the CLI emits:
{"complete_to": L, "census": {"n": b_n, ...}, "words": ["...", ...]}.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .order import Word, format_digits, parse_word


class PackedWords(Sequence):
    """Words of one length n, each kept as a bytes row of its digits, one
    byte a digit (`width` 1) or eight big-endian (`width` 8, for digits
    from 256 to 2^64 - 1), so rows sort as their words do.  A bytes object
    is never tracked by the cyclic collector, where a tuple of ints is
    until a collection first walks it.  Indexing and iterating give each
    word as a tuple of ints; slicing gives a PackedWords."""

    __slots__ = ("rows", "n", "width")

    def __init__(self, rows: tuple[bytes, ...], n: int, width: int = 1):
        self.rows, self.n, self.width = rows, n, width

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PackedWords(self.rows[i], self.n, self.width)
        return _unpacker(self.n, self.width)(self.rows[i])

    def __iter__(self):
        return map(_unpacker(self.n, self.width), self.rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedWords) and other.width == self.width:
            return self.rows == other.rows
        if isinstance(other, (PackedWords, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"PackedWords({tuple(self)!r})"


def row_codes(d1: int) -> list[bytes]:
    """Each digit 0..d1 as the bytes it takes in a PackedWords row."""
    width = 1 if d1 < 256 else 8
    return [a.to_bytes(width, "big") for a in range(d1 + 1)]


@lru_cache(maxsize=None)
def _unpacker(n: int, width: int):
    """The word, a tuple of n ints, in a bytes row of `width`-byte digits."""
    return struct.Struct(f">{n}{'B' if width == 1 else 'Q'}").unpack


@dataclass(frozen=True)
class WordSet:
    """Words sorted and distinct (as both constructors, `from_words` and
    `language.enumerate_words`, make them), so membership is a bisection.
    `from_words` keeps a tuple of tuples, `enumerate_words` a PackedWords."""

    words: Sequence[Word]
    census: dict[int, int]
    complete_to: int
    includes_empty: bool = False

    @staticmethod
    def from_words(words, complete_to: int, includes_empty: bool = False) -> "WordSet":
        uniq = sorted({tuple(w) for w in words if len(w) > 0})
        census: dict[int, int] = {}
        for w in uniq:
            census[len(w)] = census.get(len(w), 0) + 1
        return WordSet(tuple(uniq), census, complete_to, includes_empty)

    def __contains__(self, w) -> bool:
        w, words = tuple(w), self.words
        i = bisect_left(words, w)
        return i < len(words) and words[i] == w

    def count(self, n: int) -> int:
        return self.census.get(n, 0)

    def up_to(self, n: int) -> tuple[Word, ...]:
        return tuple(w for w in self.words if len(w) <= n)

    def union(self, other: "WordSet") -> "WordSet":
        return WordSet.from_words(
            chain(self.words, other.words),
            complete_to=min(self.complete_to, other.complete_to),
            includes_empty=self.includes_empty or other.includes_empty)

    def to_json(self) -> dict:
        return {
            "complete_to": self.complete_to,
            "census": {str(n): self.census[n] for n in sorted(self.census)},
            "words": [format_digits(w) for w in self.words],
            "includes_empty": self.includes_empty,
        }

    @staticmethod
    def from_json(obj: dict) -> "WordSet":
        return WordSet.from_words(
            [parse_word(s) for s in obj["words"]],
            complete_to=int(obj["complete_to"]),
            includes_empty=bool(obj.get("includes_empty", False)))
