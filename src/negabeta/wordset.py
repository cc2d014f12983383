"""A finite, length-certified set of digit words.

Family constructions enumerate infinite languages up to a length bound;
`complete_to` records the largest length for which the enumeration is
certified exhaustive.  The JSON form is the one the CLI emits:
{"complete_to": L, "census": {"n": b_n, ...}, "words": ["...", ...]}.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

from .order import Word, format_digits, parse_word


class PackedWords(Sequence):
    """Words of one length n in one buffer `data` of fixed-width rows
    (`row` is the struct of one), a row the word's digits at one byte a
    digit (`width` 1) or eight big-endian (`width` 8, for digits from 256
    to 2^64 - 1), so rows sort as their words do.  The buffer, bytes or the
    bytearray `enumerate_words` fills, is one object, which the cyclic
    collector does not track.  Indexing and iterating give each word as a
    tuple of ints; slicing gives a PackedWords.  At n = 0 it holds no word."""

    __slots__ = ("data", "n", "width", "row")

    def __init__(self, data: bytes | bytearray, n: int, width: int = 1):
        self.data, self.n, self.width = data, n, width
        self.row = struct.Struct(f">{n}{'B' if width == 1 else 'Q'}")

    def __len__(self) -> int:
        return len(self.data) // (self.row.size or 1)

    def __getitem__(self, i):
        size, rows = self.row.size, range(len(self))[i]
        if isinstance(rows, int):  # range raised IndexError if out of range
            return self.row.unpack_from(self.data, rows * size)
        data = (self.data[rows.start * size:rows.stop * size] if rows.step == 1
                else b"".join(self.data[k * size:(k + 1) * size]
                              for k in rows))
        return PackedWords(data, self.n, self.width)

    def __iter__(self):  # a row of no digits cannot be iterated over
        return self.row.iter_unpack(self.data) if self.data else iter(())

    def __eq__(self, other) -> bool:
        if (isinstance(other, PackedWords)
                and (other.n, other.width) == (self.n, self.width)):
            return self.data == other.data
        if isinstance(other, (PackedWords, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"PackedWords({tuple(self)!r})"


@dataclass(frozen=True)
class WordSet:
    """Words sorted and distinct (as both constructors, `from_words` and
    `language.enumerate_words`, make them), so membership is a bisection.
    `from_words` keeps a tuple of tuples, `enumerate_words` a PackedWords,
    one buffer for all its words."""

    words: Sequence[Word]
    census: dict[int, int]
    complete_to: int
    includes_empty: bool = False

    @staticmethod
    def from_words(words, complete_to: int, includes_empty: bool = False) -> "WordSet":
        uniq = sorted({tuple(w) for w in words if len(w) > 0})
        census = dict(Counter(map(len, uniq)))
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
