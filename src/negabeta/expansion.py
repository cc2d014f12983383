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
one gcd reduces.  At p/q with q > 1, once q divides den and p is prime to
it, every later den is q times the one before, so no point can come back:
from there the step neither reduces nor keeps the point to look it up, and
d at a non-integer rational base is never eventually periodic (Ito and
Sadahiro: a periodic d makes beta an algebraic integer).  At an algebraic
base it is one integer vector, one floor of it and one gcd, the gcd left
out where the base's `step_gcd` is 1 (a monic minimal polynomial with
|m_0| = 1, as x^l - x - 1).

The floor at an algebraic base is filtered, after Shewchuk's adaptive
predicates (Discrete Comput. Geom. 18, 1997), with integers for floats.  The
exact vector steps by a shift and one multiply-add per nonzero low term of
the modulus (two at x^l - x - 1, whatever its degree).  Beside it, the
orbit carries an integer enclosure [ylo, yhi] 2^-K of y = beta(1-z), whose
floor is the digit, and steps it by y' = beta(1 + digit - y) on the base's
dyadic enclosure [B_lo, B_hi] 2^-K: two multiplications a digit, where the
exact bound takes 2 deg.  A digit is read off the enclosure only when it
lies in one unit cell at a distance of at least W from both ends, where W
>= max|v_i| R 2^-K / den bounds the width of the exact bound of
`floor_or_sign` at the current interval: that bound contains y too, so it
lies in the same cell, and `floor_or_sign` would return the same digit
without halving.  Otherwise `floor_or_sign` runs as it would without the
filter, and the enclosure restarts from its bounds (`numerics._bounds`).
So the digits, the points, j and every halving of the base are those of one
exact floor per digit; only the floors that would decide at once are
skipped.

The orbit of l_beta, whose digits d every criterion reads, runs once per
base: `expand` keeps its digits on the BetaSpec, as far as they were asked,
and answers a later expansion of l_beta (z = 0, whatever form x came in)
with `truncated`, which gives exactly what a new orbit to that many digits
would, since the digits are certified and do not depend on the isolating
interval.  So every horizon's reference (`reference_pair`) shares them,
and at the horizon they were last run to its d is the kept object itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InvariantBroken, NotAnExpansionTail
from .numerics import (BetaSpec, FieldElement, RationalInterval, _bounds,
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
    step runs on one integer pair.  Once q > 1 divides den and p is prime
    to den, the step needs no gcd and no table: every prime r of q den
    divides den (q does), so r divides neither n (z is canonical) nor
    den - n, nor p (p is prime to den), hence not v: gcd(v, q den) = 1.
    The next point is canonical as divmod leaves it, q still divides its
    den and p is still prime to it, so den grows by the factor q at every
    later step.  A repeat would make the orbit periodic, so that the point
    where the test first held came back with the same den; hence no point
    repeats and j is None from there.  The orbit of l_beta (z = 0, den 1,
    then den = q after one step) thus never closes at a non-integer
    rational base.  The test never holds on a periodic orbit, nor at an
    integer base (q = 1), where the table runs to the end.

    At degree d >= 2, w = x (num - den e_0) is den x(z - 1) before
    reduction; with top = w_d = num_{d-1} and lead x^d = -(m_0 + ... +
    m_{d-1} x^{d-1}) mod m, v = top m - lead w is lead den beta(1-z): "1 -"
    and the shift by x are one negated shift of num, scaled by lead only
    when lead != 1, and the reduction by m is one multiply-add per nonzero
    term of `low_terms` (two at x^l - x - 1, at any degree).  beta(1-z) =
    -beta x - l_beta, so v is the vector whose floor is the digit of x,
    scaled by a positive factor: the same digit and the same halvings of
    the base.

    Either way (den - num_0, -num_1, ...) / den is canonical, as z is, so
    gcd(v, den lead) divides the base's `step_gcd`, and subtracting
    digit den lead from v_0 leaves that gcd as it is.

    At degree d >= 2 the digit is read off the enclosure [ylo, yhi] 2^-k of
    beta(1-z) (module docstring) when that is certain.  On the interval
    [a/q, b/q] the exact bound has width sum |v_i| (b^i - a^i) / (q^i den)
    <= 2^L r 2^-k / den for |v_i| < 2^L, and 2^L / den < 2^e with e = L -
    bits(den) + 1, so the margin r 2^e 2^-k (rounded up) covers it."""
    m, bound = beta.modulus, beta.step_gcd
    digits: list[int] = []
    seen: dict[tuple, int] = {}
    if beta.kind == "rational":
        m0, q = m
        (n,) = num
        for i in range(steps):
            if q > 1 and den % q == 0 and math.gcd(den, m0) == 1:
                for _ in range(i, steps):
                    v = (n - den) * m0
                    den *= q
                    digit, n = divmod(v, den)
                    digits.append(digit)
                break
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
    terms, lead = beta.low_terms, m[-1]
    k = None  # no enclosure of beta(1-z) yet
    for i in range(steps):
        if (j := seen.setdefault((num, den), i)) != i:
            return digits, j, (num, den)
        top = num[-1]
        if lead == 1:
            v = [0, den - num[0], *[-c for c in num[1:-1]]]
        else:
            v = [0, lead * (den - num[0]), *[-lead * c for c in num[1:-1]]]
        for a, c in terms:
            v[a] += top * c
        den *= lead
        if k is not None:
            digit = ylo >> k
            # margin 2^-k >= the width of the exact bound (docstring)
            e = max(map(int.bit_length, v)) - den.bit_length() + 1
            margin = r << e if e >= 0 else (r >> -e) + 1
            if (ylo - (digit << k) < margin
                    or ((digit + 1) << k) - yhi <= margin):
                k = None
        if k is None:
            digit = floor_or_sign(beta, v, den)
            k, b_lo, b_hi, r = beta._dyadic_bounds()
            lo, hi, qn = _bounds(beta, v)
            scale = den * qn
            ylo, yhi = (lo << k) // scale, -(-(hi << k) // scale)
        digits.append(digit)
        v[0] -= digit * den
        if bound > 1 and (g := math.gcd(bound, den, *v)) > 1:
            num, den = tuple([c // g for c in v]), den // g
        else:
            num = tuple(v)
        # beta(1 - z') = beta t for t = 1 + digit - beta(1-z), in (0, 1]
        t = (digit + 1) << k
        tlo, thi = t - yhi, t - ylo
        ylo = ((b_lo if tlo >= 0 else b_hi) * tlo) >> k
        yhi = -(-(b_hi * thi) >> k)
    return digits, None, (num, den)


def never_closes(beta: BetaSpec) -> bool:
    """Is d, the orbit of l_beta, certain never to close at any horizon?
    So it is at a non-integer rational base (`_orbit`)."""
    return beta.kind == "rational" and beta.value.denominator > 1


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
    key per point, with no field element per digit.  The orbit of l_beta
    itself (z = 0) runs once per base: its digits are kept on the base
    (`BetaSpec._left`), and a later call reads them off with `truncated`,
    running the orbit again, from l_beta, only when they are open and
    shorter than asked.
    """
    if not isinstance(x, FieldElement):
        x = from_rational(beta, Fraction(x))
    int_len = 0
    while not in_interval(x, beta):
        x = x.times_neg_inv()
        int_len += 1
    z = x - beta.constants.left
    steps = max(max_digits, int_len)
    if not z.is_zero():
        return Expansion(beta, int_len, _sequence(beta, z, steps))
    kept = beta._left  # x is l_beta, whatever form it came in
    if kept is None or not kept.is_periodic and len(kept.prefix) < steps:
        kept = beta._left = _sequence(beta, z, steps)
    return Expansion(beta, int_len, truncated(kept, steps))


def _sequence(beta: BetaSpec, z: FieldElement, steps: int) -> SymbolicSequence:
    """The digits of the orbit of z = x - l_beta to `steps` points,
    periodic from the first point that repeats."""
    digits, j, _ = _orbit(beta, z.num, z.den, steps)
    if j is None:
        return SymbolicSequence(tuple(digits), None)
    return SymbolicSequence(tuple(digits[:j]), tuple(digits[j:]))


def truncated(seq: SymbolicSequence, max_digits: int) -> SymbolicSequence:
    """What `expand` gives at `max_digits` for a point of I it expanded as
    `seq` at a bound at least as large: periodic iff the orbit closed
    within max_digits points (digits and orbit share preperiod and
    period), and `seq` itself when that is all of it."""
    if seq.is_periodic:
        if len(seq.prefix) + len(seq.period) < max_digits:
            return seq
    elif len(seq.prefix) == max_digits:
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
    """(sum_k digits[k] t^(k+1), t^len(digits)) for t = 1/(-beta), each
    times t an inverse shift (`FieldElement.times_neg_inv`): the sum by
    Horner, (acc + digit) t from the last digit, the power on its own."""
    acc, tk = zero(beta), one(beta)
    for d in reversed(digits):
        acc = (acc + d).times_neg_inv()
    for _ in digits:
        tk = tk.times_neg_inv()
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
