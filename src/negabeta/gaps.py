"""The cascade of bases below the golden ratio, and the gaps they open in
the support of the maximal-entropy measure.

The substitution psi(1) = 100, psi(0) = 1 generates word pairs
u_0 = 1, v_0 = 00, u_n = u_{n-1} v_{n-1}, v_n = u_{n-1} u_{n-1};
gamma_n (`language.gamma_n`) is the largest root of X^l - X - 1 with
l = max(|u_n|, |v_n|).
The gamma_n decrease strictly to 1 from gamma_0 (the golden ratio).  For a
base in [gamma_{n+1}, gamma_n) the expansion of the left endpoint parses
uniquely over {u_n, v_n}, and the support of the maximal-entropy measure
misses explicit orbit-bounded intervals A_{k,i}.

The level is `language.Reference.cascade_level`, read off d to the digit
horizon in force (`language.at_horizon`, default 512) with no gamma_n
built.  1001/1000 (level 9) needs about 4.8k digits, so `negabeta gaps`
exits 1 there at the default horizon.  The gap endpoints are points
s_t = T^t(l_beta) of the left orbit, read off the same d
(`expansion.left_orbit`): no floor is taken a second time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantBroken
from .expansion import left_orbit, truncated
from .language import Reference, morphism_words
from .numerics import BetaSpec, FieldElement, RationalInterval, fe_compare


def cascade_classify(beta: BetaSpec) -> int:
    """The level n with gamma_{n+1} < beta <= gamma_n, for beta in
    (1, gamma_0), read off d to the horizon in force.  The right
    endpoint belongs to its own level: at beta = gamma_n the level-n family
    is the one whose Kraft sum reaches 1, so gamma_1 classifies as level 1,
    not level 0."""
    return Reference.for_beta(beta).cascade_level


_PARSE_DIGITS = 256  # digits of d that decompose_expansion parses at most


@dataclass(frozen=True)
class Decomposition:
    level: int
    tokens: tuple[str, ...]     # "u"/"v" in parse order
    parsed_length: int          # digits consumed
    exhausted: bool             # ran out of certified digits (not a failure)


def decompose_expansion(beta: BetaSpec) -> Decomposition:
    """Greedy parse of d(l_beta) over {u_n, v_n} at the cascade level of beta.

    The level and d come from one reference; the parse reads the first
    min(horizon, 256) digits, as an expansion to that many digits would
    give them.  u_n and v_n differ within min(|u_n|, |v_n|) letters,
    so the parse is deterministic.  Parsing stops cleanly when the remaining
    certified digits cannot disambiguate."""
    ref = Reference.for_beta(beta)
    n = ref.cascade_level
    u, v = morphism_words(n)
    limit = min(ref.horizon, _PARSE_DIGITS)
    d = truncated(ref.d, limit)
    tokens: list[str] = []
    pos = 0  # 0-based count of consumed digits
    while pos < limit:
        for name, w in (("u", u), ("v", v)):
            m = min(len(w), d.known_to - pos)  # certified letters of w
            if tuple(d.digit(pos + k) for k in range(1, m + 1)) != w[:m]:
                continue
            if m < len(w):
                return Decomposition(n, tuple(tokens), pos, True)
            tokens.append(name)
            pos += m
            break
        else:
            raise ValueError(
                f"digits at position {pos + 1} parse over neither u_{n} nor v_{n}")
    return Decomposition(n, tuple(tokens), pos, False)


@dataclass(frozen=True)
class GapInterval:
    k: int
    i: int
    left_index: int            # orbit index t of the left endpoint s_t
    right_index: int
    left: FieldElement
    right: FieldElement

    def enclosure(self, width: Fraction = Fraction(1, 10**6)
                  ) -> tuple[RationalInterval, RationalInterval]:
        return self.left.enclosure(width), self.right.enclosure(width)


def _gap(orbit: list[FieldElement], k: int, i: int) -> GapInterval:
    """A_{k,i} = [s_{|u_k|+i}, s_{|u_k|+|u_{k-1}|+i}) (endpoints swapped
    for odd i), read off the orbit s_t = T^t(l_beta)."""
    a = len(morphism_words(k)[0]) + i
    b = a + len(morphism_words(k - 1)[0])
    left_i, right_i = (a, b) if i % 2 == 0 else (b, a)
    left, right = orbit[left_i], orbit[right_i]
    if fe_compare(left, right) >= 0:
        raise InvariantBroken(f"gap A_({k},{i}) has its endpoints out of order")
    return GapInterval(k, i, left_i, right_i, left, right)


def all_gaps(beta: BetaSpec) -> list[GapInterval]:
    """Every A_{k,i} of the cascade level n of beta: k runs over
    0 .. m-1 for m = max(n, 1) (level 0 has the single gap [s_1, s_2)),
    and 0 <= i < |u_{k-1}| (|u_{-1}| = 1).  The last gap ends at
    s_t with t = |u_{m-1}| + |v_{m-1}| - 1 = |u_m| - 1, and the orbit to
    there is read off d, which a decided level knows past |u_n| + |v_n|."""
    ref = Reference.for_beta(beta)
    m = max(ref.cascade_level, 1)
    orbit = left_orbit(ref.d, beta, len(morphism_words(m)[0]) - 1)
    return [_gap(orbit, k, i) for k in range(m)
            for i in range(len(morphism_words(k - 1)[0]))]
