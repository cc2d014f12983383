"""Digit expansions in base -beta.

The transformation T(x) = -beta*x - floor(-beta*x + beta/(beta+1)) acts on
the fundamental interval I = [-beta/(beta+1), 1/(beta+1)).  Every point of I
gets the digit stream x_i = floor(-beta * T^{i-1}(x) + beta/(beta+1)); a
point outside I is first rescaled by the smallest power of -beta that brings
it inside, which contributes the "integer part" digits.  Orbits are tracked
with exact field arithmetic, so eventual periodicity is detected by exact
equality of orbit points, never by digit-pattern heuristics.

The digit orbit runs conjugated by z = x - l_beta, which maps I onto
[0, 1): there T is z -> beta(1-z) - floor(beta(1-z)), and the digit is
floor(beta(1-z)).  Under s = 1 - z this is T(s) = floor(beta s) + 1 - beta s
on (0, 1] of Liao and Steiner (Dynamical properties of the negative
beta-transformation, Ergodic Theory Dynam. Systems 32, 2012), and it is
Ito and Sadahiro's T on [l_beta, r_beta) (Beta-expansions with negative
bases, Integers 9, 2009) read in z.  One step (`_orbit`) works on the
canonical (num, den) of z.  At a rational base it runs on one integer
pair, z = n/den: one divmod gives the digit and the next numerator, and
one gcd reduces.  At an algebraic base it is one integer vector, one floor
of it and one gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InvariantBroken, NotAnExpansionTail
from .numerics import (BetaSpec, FieldElement, RationalInterval, fe_compare,
                       floor_or_sign, from_rational, l_beta, one, zero)
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


def _orbit(beta: BetaSpec, num: tuple[int, ...], den: int, steps: int
           ) -> tuple[list[int], Optional[int], tuple[tuple[int, ...], int]]:
    """The one digit step, run from z = num / den = x - l_beta, canonical,
    for at most `steps` points of the conjugated map
    z -> beta(1-z) - floor(beta(1-z)): returns (digits, j, (num', den')),
    where j is the index of the point the orbit first returns to (None if
    no point repeats within `steps`) and (num', den') the last point,
    canonical.  Points are compared by their canonical (num, den).

    At a rational base p/q the field is Q and z is one fraction n/den:
    v = (n - den) m_0 = p (den - n) is den' beta(1-z) with den' = q den,
    and one divmod by den' gives the digit and the next numerator, so the
    step runs on one integer pair.

    At degree d >= 2, w = x (num - den e_0) is den x(z - 1) before
    reduction; with top = w_d and lead x^d = -(m_0 + ... + m_{d-1} x^{d-1})
    mod m, v = top m - lead w is lead den beta(1-z): "1 -", the shift by x
    and the reduction by m in one comprehension.  beta(1-z) =
    -beta x - l_beta, so v is the vector whose floor is the digit of x,
    scaled by a positive factor: the same digit and the same halvings of
    the base.

    Either way (den - num_0, -num_1, ...) / den is canonical, as z is, so
    gcd(v, den lead) divides the base's `step_gcd`, and subtracting
    digit den lead from v_0 leaves that gcd as it is."""
    m, bound = beta.modulus, beta.step_gcd
    digits: list[int] = []
    seen: dict[tuple, int] = {}
    if beta.kind == "rational":
        m0, q = m
        (n,) = num
        for i in range(steps):
            if (j := seen.setdefault((n, den), i)) != i:
                return digits, j, ((n,), den)
            v = (n - den) * m0
            den *= q
            digit, v = divmod(v, den)
            digits.append(digit)
            # v before den: math.gcd reads no further once it reaches 1
            if (g := math.gcd(bound, v, den)) > 1:
                n, den = v // g, den // g
            else:
                n = v
        return digits, None, ((n,), den)
    low, lead = m[:-1], m[-1]
    for i in range(steps):
        if (j := seen.setdefault((num, den), i)) != i:
            return digits, j, (num, den)
        w = (0, num[0] - den, *num[1:])
        top = w[-1]
        v = [top * a - lead * c for a, c in zip(low, w)]
        den *= lead
        digit = floor_or_sign(beta, v, den)
        digits.append(digit)
        v[0] -= digit * den
        g = math.gcd(bound, den, *v)
        if g > 1:
            num, den = tuple([c // g for c in v]), den // g
        else:
            num = tuple(v)
    return digits, None, (num, den)


def left_orbit(seq: SymbolicSequence, beta: BetaSpec, n: int
               ) -> list[FieldElement]:
    """[pi(sigma^t seq) for t = 0 .. n] for seq = d or d*, which both
    expand l_beta: each point is the one before it times -beta, minus the
    next digit of seq.  For d these are T^t(l_beta), read off the digits
    with no floor."""
    points = [beta.constants.left]
    for t in range(1, n + 1):
        points.append(points[-1].times_neg_beta() - seq.digit(t))
    return points


def expand(x, beta: BetaSpec, max_digits: int = 512) -> Expansion:
    """Expansion of x (FieldElement or rational) in base -beta.

    Emits max(max_digits, int_len) digits in all, the int_len integer digits
    among them: a point outside I gets all its integer digits even when
    there are more of them than max_digits.  The tail becomes periodic as
    soon as an orbit point repeats exactly, otherwise it is truncated.  The
    orbit runs on the canonical (num, den) of z = x - l_beta (`_orbit`), one
    key per point, with no field element per digit.
    """
    if not isinstance(x, FieldElement):
        x = from_rational(beta, Fraction(x))
    neg_beta_inv = beta.constants.neg_inv
    int_len = 0
    while not in_interval(x, beta):
        x = x * neg_beta_inv
        int_len += 1
    z = x - beta.constants.left
    digits, j, _ = _orbit(beta, z.num, z.den, max(max_digits, int_len))
    if j is None:
        return Expansion(beta, int_len, SymbolicSequence(tuple(digits), None))
    return Expansion(beta, int_len,
                     SymbolicSequence(tuple(digits[:j]), tuple(digits[j:])))


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
