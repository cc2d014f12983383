"""Truncated formal power series with exact integer coefficients, plus the
generating functions of the dynamics: lap counting and the two zeta
functions (transformation and shift).

A series of order N stores the integer coefficients of z^0 .. z^N.
Products and sums stay in the integers, and so does the one reciprocal,
of a denominator with constant term 1: every series here holds ints only,
and identity checks between constructions are coefficient-wise and exact.

That reciprocal is E = 1/den(d*), den the kneading denominator, which
`language.kneading_series` keeps per (d*, order) in the run in force
(`language.at_horizon`).  The lap and zeta series read it in O(n), with
no product or reciprocal: the lap series is its prefix sums, the
transformation zeta is (1+z) E, divided by 1 - z^k by strided sums when d
is purely periodic of period k, and the shift zeta at an odd period p
divides that by 1 - z^{p+1} the same way.  In `verify_identities`,
`zeta_vs_lap` therefore compares two O(n) transforms of the same E,
`lap_census`, which holds the automaton's census against the lap series,
is the independent check of E, and `shift_census` reads 1/den(d) off the
same recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import HorizonTooShort, NonIntegerCoefficient
from .language import (Reference, Variant, factor_complexity,
                       kneading_coefficients, kneading_series,
                       language_census)
from .numerics import BetaSpec, lazy_module
from .order import SymbolicSequence, purely_periodic

# only `verify_identities` reads a code family, so the lap and zeta series
# run without compiling `codes`
codes = lazy_module(f"{__package__}.codes")


@dataclass(frozen=True)
class IntSeries:
    """Truncated power series sum_{n<=order} c_n z^n with int
    coefficients."""

    coeffs: tuple[int, ...]

    @staticmethod
    def from_ints(cs: Sequence, order: int | None = None) -> "IntSeries":
        cs = tuple(cs)
        if order is not None:
            cs = cs[:order + 1] + (0,) * (order + 1 - len(cs))
        return IntSeries(cs)

    @staticmethod
    def one(order: int) -> "IntSeries":
        return IntSeries((1,) + (0,) * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncate(self, order: int) -> "IntSeries":
        return IntSeries.from_ints(self.coeffs, order)

    def _align(self, other: "IntSeries") -> tuple["IntSeries", "IntSeries"]:
        if self.order == other.order:
            return self, other
        n = min(self.order, other.order)
        return self.truncate(n), other.truncate(n)

    def __add__(self, other):
        a, b = self._align(other)
        return IntSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self):
        return IntSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        a, b = self._align(other)
        return a + (-b)

    def __mul__(self, other):
        a, b = self._align(other)
        n, cb = a.order, b.coeffs
        out = [0] * (n + 1)
        for i, ca in enumerate(a.coeffs):
            if ca:  # a sparse left factor skips its zero terms
                for j in range(n - i + 1):
                    out[i + j] += ca * cb[j]
        return IntSeries(tuple(out))

    def as_ints(self) -> list[int]:
        """The coefficients as a list; one that is not an integer raises."""
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise NonIntegerCoefficient(f"coefficient {c} is not an integer")
            out.append(c.numerator)
        return out

    def max_abs_diff(self, other: "IntSeries") -> int:
        a, b = self._align(other)
        return max((abs(x - y) for x, y in zip(a.coeffs, b.coeffs)),
                   default=0)


def geometric(order: int) -> IntSeries:
    """1/(1-z)."""
    return IntSeries((1,) * (order + 1))


def one_minus_z_pow(k: int, order: int) -> IntSeries:
    cs = [1] + [0] * order
    if k <= order:
        cs[k] = -1
    return IntSeries(tuple(cs))


# ---------------------------------------------------------------------------
# dynamics series
# ---------------------------------------------------------------------------

def denominator_series(d_star: SymbolicSequence, order: int) -> IntSeries:
    """1 - sum_n (-1)^n (d*_{n-1} - d*_n) z^n   (with d*_0 = 0)."""
    return IntSeries((1, *(-c for c in kneading_coefficients(d_star, order))))


def _strided_sums(cs: list[int], k: int) -> list[int]:
    """cs divided by 1 - z^k, in place: c_n += c_{n-k}."""
    for n in range(k, len(cs)):
        cs[n] += cs[n - k]
    return cs


def lap_series(beta: BetaSpec, order: int) -> IntSeries:
    """L(z) = 1 / ((1-z) (1 - sum (-1)^n (d*_{n-1}-d*_n) z^n)), the prefix
    sums of E = 1/den(d*): 1, then the factor complexity.

    L_n is the number of laps (monotonicity intervals) of T^n, and equals
    the number of admissible words of length n in the corrected language.
    """
    return IntSeries((1, *factor_complexity(
        order, Reference.for_beta(beta).d_star)))


def zeta_transformation(beta: BetaSpec, order: int,
                        assume_nonperiodic: bool = False) -> IntSeries:
    """Dynamical zeta of T.

    (1+z) / (1 - sum (-1)^n (d_{n-1}-d_n) z^n)  for non purely periodic d;
    (1+z) / ((1-z^k)(1 - sum (-1)^n (d*_{n-1}-d*_n) z^n))  for d purely
    periodic with (minimal) period k.  A truncated d is accepted only with
    assume_nonperiodic=True.  (d* = d unless d is purely periodic with odd
    period, so both cases read d*.)  That is (1+z) E, E = 1/den(d*) the
    kneading series, divided by 1 - z^k by strided sums.
    """
    ref = Reference.for_beta(beta)
    d = ref.d
    if not d.is_periodic and not assume_nonperiodic:
        raise HorizonTooShort(
            "tail of d unknown at this horizon; pass assume_nonperiodic=True "
            "to treat it as aperiodic")
    e = kneading_series(ref.d_star, order)
    cs = [e[0], *(a + b for a, b in zip(e[1:], e))]
    if purely_periodic(d):
        _strided_sums(cs, len(d.period))
    return IntSeries(tuple(cs))


def zeta_shift(beta: BetaSpec, order: int,
               assume_nonperiodic: bool = False) -> IntSeries:
    """Zeta of the natural shift: equals the transformation zeta except for
    a purely periodic d of odd period p, where the supremum orbit adds a
    cyclic class of length p+1: zeta_shift = zeta / (1 - z^{p+1}), by
    strided sums."""
    p = Reference.for_beta(beta).odd_period
    z = zeta_transformation(beta, order, assume_nonperiodic)
    if p is not None:
        return IntSeries(tuple(_strided_sums(list(z.coeffs), p + 1)))
    return z


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

def verify_identities(beta: BetaSpec, order: int = 10) -> dict[str, dict]:
    """Exact coefficient-wise residuals of the structural identities.

    * factorization:  1 - sum (-1)^n (d*_{n-1}-d*_n) z^n
                      = (1+z)(1 - C(z))(1 - A(z)) prod_i (1 - P_i(z))
      with C, A, P_i the census generating functions of the code C,
      Delta_odd and Delta^(i) families, counted by `codes.family_census`
      and `codes.code_c_census` without listing a word.  The counts take the
      paper's unique factorisation as given (a word of C splits in one way
      only into Delta_odd words and a Gamma word, a family word in one way
      into block chain and tail); the tests check it against the listings;
    * census:         the same product times the enumerated-language
                      generating function equals 1/(1-z);
    * lap_census:     lap numbers equal the corrected-language census;
                      the lap and zeta series are read off one kneading
                      series E = 1/den(d*), and this census of the
                      automaton is the independent check of E;
    * zeta_vs_lap:    zeta = (1-z^2) L, with an extra (1-z^k) on zeta's side
                      when d is purely periodic of period k; both sides are
                      O(n) transforms of the same E, so this checks the
                      transforms, not E;
    * shift_census (only for odd-periodic d):
                      sum H~_n z^n = (1-z^{2p}) / ((1-z)(1 - sum (-1)^n
                      (d_{n-1}-d_n) z^n)) for odd period 2p-1, H~ the
                      natural-shift census.

    Returns {name: {"order": N, "residual": int}}.
    """
    ref = Reference.for_beta(beta)
    families = codes.family_census(ref.d_star, order)
    report: dict[str, dict] = {}

    # a product skips the zero coefficients of its left factor, so the
    # sparse ones (1 + z, 1 - A, each 1 - P_i) go on the left
    one = IntSeries.one(order)
    c_gf = IntSeries.from_ints(codes.code_c_census(beta, order))
    prod = IntSeries.from_ints([1, 1], order) * (one - c_gf)
    for counts in [families["delta_odd"], *families["delta_i"].values()]:
        prod = (one - IntSeries.from_ints(counts)) * prod

    den_star = denominator_series(ref.d_star, order)
    report["factorization"] = {
        "order": order,
        "residual": den_star.max_abs_diff(prod),
    }

    lap = lap_series(beta, order)
    h = language_census(order, beta, Variant.CORRECTED)
    h_gf = IntSeries.from_ints([1] + h, order)
    report["census"] = {
        "order": order,
        "residual": (prod * h_gf).max_abs_diff(geometric(order)),
    }
    report["lap_census"] = {
        "order": order,
        "residual": h_gf.max_abs_diff(lap),
    }

    zeta = zeta_transformation(beta, order,
                               assume_nonperiodic=not ref.d.is_periodic)
    lhs = zeta
    if purely_periodic(ref.d):
        lhs = one_minus_z_pow(len(ref.d.period), order) * zeta
    rhs = one_minus_z_pow(2, order) * lap
    report["zeta_vs_lap"] = {"order": order, "residual": lhs.max_abs_diff(rhs)}

    if ref.odd_period is not None:
        two_p = ref.odd_period + 1
        h_is = language_census(order, beta, Variant.ITO_SADAHIRO)
        h_is_gf = IntSeries.from_ints([1] + h_is, order)
        rhs = (one_minus_z_pow(two_p, order) * geometric(order)
               * IntSeries(kneading_series(ref.d, order)))
        report["shift_census"] = {
            "order": order,
            "residual": h_is_gf.max_abs_diff(rhs),
        }
    return report
