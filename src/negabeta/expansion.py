"""Digit expansions in base -beta.

The transformation T(x) = -beta*x - floor(-beta*x + beta/(beta+1)) acts on
the fundamental interval I = [-beta/(beta+1), 1/(beta+1)).  Every point of I
gets the digit stream x_i = floor(-beta * T^{i-1}(x) + beta/(beta+1)); a
point outside I is first rescaled by the smallest power of -beta that brings
it inside, which contributes the "integer part" digits.  Orbits are tracked
with exact field arithmetic, so eventual periodicity is detected by exact
equality of orbit points, never by digit-pattern heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantBroken, NotAnExpansionTail
from .numerics import (BetaSpec, FieldElement, RationalInterval, _times_x,
                       fe_compare, floor_or_sign, from_rational, l_beta, one,
                       zero)
from .order import SymbolicSequence, purely_periodic


@dataclass(frozen=True)
class Expansion:
    """Digit data of a point: x = sum_i seq.digit(i) * (-beta)^(int_len - i).

    `int_len` is the number of leading digits that sit left of the radix
    point (the smallest n with x/(-beta)^n in the fundamental interval).
    """

    beta: BetaSpec
    int_len: int
    seq: SymbolicSequence


def in_interval(x: FieldElement, beta: BetaSpec) -> bool:
    """Is x in I = [l_beta, r_beta)?"""
    c = beta.constants
    return fe_compare(x, c.left) >= 0 and fe_compare(x, c.right) < 0


def t_step(x: FieldElement, beta: BetaSpec) -> tuple[int, FieldElement]:
    """One application of T: returns (digit, T(x)).  y = -beta x is kept as
    the unreduced vector v / den that `_times_x` gives.  The digit is the
    floor of y - l_beta, taken on v den(l) - l.num den over den den(l): a
    positive common factor changes neither the answer nor the halvings that
    certify it.  T(x) = (v - digit den e_0) / den is reduced once, and the
    base's `step_gcd` bounds that reduction because den divides digit den:
    gcd(v - digit den e_0, den) = gcd(v, den)."""
    m, left = beta.modulus, beta.constants.left
    v, den = [-c for c in _times_x(x.num, m)], x.den * m[-1]
    digit = floor_or_sign(beta, [a * left.den - b * den for a, b
                                 in zip(v, left.num)], den * left.den)
    v[0] -= digit * den
    return digit, FieldElement(beta, v, den, beta.step_gcd)


def expand(x, beta: BetaSpec, max_digits: int = 512) -> Expansion:
    """Expansion of x (FieldElement or rational) in base -beta.

    Emits at most `max_digits` fractional digits; the tail becomes periodic
    as soon as an orbit point repeats exactly, otherwise it is truncated.
    """
    if not isinstance(x, FieldElement):
        x = from_rational(beta, Fraction(x))
    neg_beta_inv = beta.constants.neg_inv
    int_len = 0
    while not in_interval(x, beta):
        x = x * neg_beta_inv
        int_len += 1
    digits: list[int] = []
    seen: dict[tuple, int] = {}  # orbit points, canonical, by (num, den)
    point = x
    while len(digits) < max(max_digits, int_len):
        if (key := (point.num, point.den)) in seen:
            j = seen[key]
            return Expansion(beta, int_len,
                             SymbolicSequence(tuple(digits[:j]), tuple(digits[j:])))
        seen[key] = len(digits)
        d, point = t_step(point, beta)
        digits.append(d)
    return Expansion(beta, int_len, SymbolicSequence(tuple(digits), None))


def truncated(seq: SymbolicSequence, max_digits: int) -> SymbolicSequence:
    """What `expand` gives at `max_digits` for a point of I it expanded as
    `seq` at a larger bound: periodic iff the orbit closed within
    max_digits points (digits and orbit share preperiod and period)."""
    if seq.is_periodic and len(seq.prefix) + len(seq.period) < max_digits:
        return seq
    return SymbolicSequence(tuple(seq.digits(max_digits)), None)


def corrected(seq: SymbolicSequence) -> SymbolicSequence:
    """The corrected digit stream d*.

    A purely periodic stream of odd period (d_1 ... d_{2n-1}) repeats as
    (d_1, ..., d_{2n-2}, d_{2n-1} - 1, 0); every other stream is its own
    corrected form.  (Truncated input is returned unchanged: within the
    known horizon it cannot be certified purely periodic.)
    """
    if purely_periodic(seq) and len(seq.period) % 2 == 1:
        p = seq.period
        if p[-1] == 0:
            raise NotAnExpansionTail(
                "purely periodic expansion cannot end its period with 0")
        return SymbolicSequence((), p[:-1] + (p[-1] - 1, 0))
    return seq


def _digit_sum(digits, beta: BetaSpec) -> tuple[FieldElement, FieldElement]:
    """(sum_k digits[k] t^(k+1), t^len(digits)) for t = 1/(-beta)."""
    t = beta.constants.neg_inv
    acc, tk = zero(beta), one(beta)
    for d in digits:
        tk = tk * t
        acc = acc + d * tk
    return acc, tk


def evaluate_exact(e: Expansion) -> FieldElement:
    """Exact value of a periodic expansion as a field element."""
    if not e.seq.is_periodic:
        raise NotAnExpansionTail("exact evaluation needs a periodic tail")
    beta = e.beta
    acc, tp = _digit_sum(e.seq.prefix, beta)
    # tail: t^{|pre|} * (sum_k per[k] t^{k+1}) / (1 - t^{|per|})
    block, tq = _digit_sum(e.seq.period, beta)
    acc = acc + tp * block / (one(beta) - tq)
    return acc * (-beta.constants.beta) ** e.int_len


def evaluate(e: Expansion, width: Fraction = Fraction(1, 10**9)) -> RationalInterval:
    """Enclosure of the value of an expansion, to the requested width.

    Periodic tails evaluate exactly (possibly a zero-width interval).  A
    tail truncated after n fractional digits is bounded exactly in Q(beta)
    by rem = d1 * beta^-n / (beta - 1); the answer joins the grid cells of
    width/2 around acc - rem and acc + rem, so it depends only on e and width.
    """
    beta = e.beta
    if e.seq.is_periodic:
        return evaluate_exact(e).enclosure(width)
    c = beta.constants
    acc = _digit_sum(e.seq.prefix, beta)[0] * (-c.beta) ** e.int_len
    n = len(e.seq.prefix) - e.int_len
    rem = beta.d1 * (-c.neg_inv) ** n / (c.beta - 1)
    return RationalInterval((acc - rem).enclosure(width / 2).lo,
                            (acc + rem).enclosure(width / 2).hi)


def reference_pair(beta: BetaSpec, max_digits: int = 512
                   ) -> tuple[SymbolicSequence, SymbolicSequence]:
    """(d, d*): the expansion of the left endpoint and its corrected form."""
    e = expand(l_beta(beta), beta, max_digits)
    if e.int_len != 0:
        raise InvariantBroken(f"l_beta lies outside I ({e.int_len} integer digits)")
    return e.seq, corrected(e.seq)
