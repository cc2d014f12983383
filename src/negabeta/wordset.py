"""A finite, length-certified set of digit words.

Family constructions enumerate infinite languages up to a length bound;
`complete_to` records the largest length for which the enumeration is
certified exhaustive.  The JSON form is the one the CLI emits:
{"complete_to": L, "census": {"n": b_n, ...}, "words": ["...", ...]}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .order import Word, format_digits, parse_word


@dataclass(frozen=True)
class WordSet:
    words: tuple[Word, ...]
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
        return tuple(w) in set(self.words)

    def count(self, n: int) -> int:
        return self.census.get(n, 0)

    def up_to(self, n: int) -> tuple[Word, ...]:
        return tuple(w for w in self.words if len(w) <= n)

    def union(self, other: "WordSet") -> "WordSet":
        return WordSet.from_words(
            self.words + other.words,
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
