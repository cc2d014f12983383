"""Truncated formal power series with exact integer coefficients, plus the
generating functions of the dynamics: lap counting and the two zeta
functions (transformation and shift).

A series of order N stores coefficients of z^0 .. z^N exactly.  Products,
sums and reciprocals stay in the integers; only `log` and `exp`, which
divide by n, make fractions.  Identity checks between constructions are
coefficient-wise and exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import (HorizonTooShort, NonIntegerCoefficient,
                     NonUnitConstantTerm)
from .language import Reference, Variant, language_census
from .numerics import BetaSpec, lazy_module
from .order import SymbolicSequence, known_digit, purely_periodic

# only `verify_identities` reads a code family, so the lap and zeta series
# run without compiling `codes`
codes = lazy_module(f"{__package__}.codes")


@dataclass(frozen=True)
class IntSeries:
    """Truncated power series sum_{n<=order} c_n z^n, its coefficients kept
    as given: ints, or Fractions once `log` or `exp` divided by n."""

    coeffs: tuple[int | Fraction, ...]

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

    def __getitem__(self, n: int) -> int | Fraction:
        return self.coeffs[n]

    def truncate(self, order: int) -> "IntSeries":
        return IntSeries.from_ints(self.coeffs, order)

    def _align(self, other) -> tuple["IntSeries", "IntSeries"]:
        if not isinstance(other, IntSeries):
            other = IntSeries.from_ints([other], self.order)
        if self.order == other.order:
            return self, other
        n = min(self.order, other.order)
        return self.truncate(n), other.truncate(n)

    def __add__(self, other):
        a, b = self._align(other)
        return IntSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return IntSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        a, b = self._align(other)
        return a + (-b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return IntSeries(tuple(c * other for c in self.coeffs))
        a, b = self._align(other)
        n, cb = a.order, b.coeffs
        out = [0] * (n + 1)
        for i, ca in enumerate(a.coeffs):
            if ca:  # a sparse left factor skips its zero terms
                for j in range(n - i + 1):
                    out[i + j] += ca * cb[j]
        return IntSeries(tuple(out))

    __rmul__ = __mul__

    def reciprocal(self) -> "IntSeries":
        """1/self for a unit constant term u = +-1, so that 1/u = u and the
        coefficients stay integers."""
        u = self.coeffs[0]
        if u not in (1, -1):
            raise NonUnitConstantTerm("reciprocal needs constant term 1 or -1")
        c, out = self.coeffs, [u]
        for m in range(1, self.order + 1):
            out.append(-u * sum(map(mul, c[1:m + 1], reversed(out))))
        return IntSeries(tuple(out))

    def log(self) -> "IntSeries":
        if self.coeffs[0] != 1:
            raise NonUnitConstantTerm("log needs constant term 1")
        n = self.order
        g = [0] * (n + 1)
        for m in range(1, n + 1):
            s = sum(k * g[k] * self.coeffs[m - k] for k in range(1, m))
            g[m] = self.coeffs[m] - Fraction(s, m)
        return IntSeries(tuple(g))

    def exp(self) -> "IntSeries":
        if self.coeffs[0] != 0:
            raise ValueError("exp needs zero constant term")
        n = self.order
        f = [1] + [0] * n
        for m in range(1, n + 1):
            f[m] = Fraction(sum(k * self.coeffs[k] * f[m - k]
                                for k in range(1, m + 1)), m)
        return IntSeries(tuple(f))

    def derivative_log_counts(self) -> list[Fraction]:
        """Coefficients of z f'/f, n = 1..order (orbit-count extraction)."""
        lg = self.log()
        return [n * lg.coeffs[n] for n in range(1, self.order + 1)]

    def as_ints(self) -> list[int]:
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise NonIntegerCoefficient(f"coefficient {c} is not an integer")
            out.append(c.numerator)
        return out

    def max_abs_diff(self, other: "IntSeries") -> int | Fraction:
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
    ds = [0] + [known_digit(d_star, i) for i in range(1, order + 1)]
    return IntSeries((1,) + tuple((-1) ** (n + 1) * (ds[n - 1] - ds[n])
                                  for n in range(1, order + 1)))


def lap_series(beta: BetaSpec, order: int) -> IntSeries:
    """L(z) = 1 / ((1-z) (1 - sum (-1)^n (d*_{n-1}-d*_n) z^n)).

    L_n is the number of laps (monotonicity intervals) of T^n, and equals
    the number of admissible words of length n in the corrected language.
    """
    ref = Reference.for_beta(beta)
    den = denominator_series(ref.d_star, order)
    return (one_minus_z_pow(1, order) * den).reciprocal()


def zeta_transformation(beta: BetaSpec, order: int,
                        assume_nonperiodic: bool = False) -> IntSeries:
    """Dynamical zeta of T.

    (1+z) / (1 - sum (-1)^n (d_{n-1}-d_n) z^n)  for non purely periodic d;
    (1+z) / ((1-z^k)(1 - sum (-1)^n (d*_{n-1}-d*_n) z^n))  for d purely
    periodic with (minimal) period k.  A truncated d is accepted only with
    assume_nonperiodic=True.  (d* = d unless d is purely periodic with odd
    period, so both cases read d*.)
    """
    ref = Reference.for_beta(beta)
    d = ref.d
    if not d.is_periodic and not assume_nonperiodic:
        raise HorizonTooShort(
            "tail of d unknown at this horizon; pass assume_nonperiodic=True "
            "to treat it as aperiodic")
    numer = IntSeries.from_ints([1, 1], order)
    den = denominator_series(ref.d_star, order)
    if purely_periodic(d):
        den = one_minus_z_pow(len(d.period), order) * den
    return numer * den.reciprocal()


def zeta_shift(beta: BetaSpec, order: int,
               assume_nonperiodic: bool = False) -> IntSeries:
    """Zeta of the natural shift: equals the transformation zeta except for
    a purely periodic d of odd period p, where the supremum orbit adds a
    cyclic class of length p+1: zeta_shift = zeta / (1 - z^{p+1})."""
    p = Reference.for_beta(beta).odd_period
    z = zeta_transformation(beta, order, assume_nonperiodic)
    if p is not None:
        return z * one_minus_z_pow(p + 1, order).reciprocal()
    return z


def zeta_from_counts(counts: Sequence[int]) -> IntSeries:
    """exp(sum p_n z^n / n) from periodic-point counts p_1..p_N.

    The result must have integer coefficients; a failure raises."""
    cs = (0,) + tuple(Fraction(c, n) for n, c in enumerate(counts, start=1))
    return IntSeries.from_ints(IntSeries(cs).exp().as_ints())


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

def code_c_census(families: dict, order: int,
                  above_golden: bool) -> IntSeries:
    """The census of the code C from the `codes.family_census` counts.

    Above the golden ratio a word of C is a Gamma word, or Delta_odd words
    followed by a Gamma word of length >= 2, so C = Gamma + A/(1 - A)
    Gamma_{>=2} with A the census of Delta_odd, provided each word factors
    in one way only; otherwise C = {0} and C(z) = z."""
    if not above_golden:
        return IntSeries.from_ints([0, 1], order)
    gamma = families["gamma"]
    a = IntSeries.from_ints(families["delta_odd"], order)
    high = IntSeries.from_ints([0, 0, *gamma[2:]], order)
    star = (IntSeries.one(order) - a).reciprocal()
    return IntSeries.from_ints(gamma, order) + a * star * high


def verify_identities(beta: BetaSpec, order: int = 10) -> dict[str, dict]:
    """Exact coefficient-wise residuals of the structural identities.

    * factorization:  1 - sum (-1)^n (d*_{n-1}-d*_n) z^n
                      = (1+z)(1 - C(z))(1 - A(z)) prod_i (1 - P_i(z))
      with C, A, P_i the census generating functions of the code C,
      Delta_odd and Delta^(i) families, counted by `codes.family_census`
      and `code_c_census` without listing a word.  The counts take the
      paper's unique factorisation as given (a word of C splits in one way
      only into Delta_odd words and a Gamma word, a family word in one way
      into block chain and tail); the tests check it against the listings;
    * census:         the same product times the enumerated-language
                      generating function equals 1/(1-z);
    * lap_census:     lap numbers equal the corrected-language census;
    * zeta_vs_lap:    zeta = (1-z^2) L, with an extra (1-z^k) on zeta's side
                      when d is purely periodic of period k;
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
    c_gf = code_c_census(families, order, ref.golden_side > 0)
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
        lhs = zeta * one_minus_z_pow(len(ref.d.period), order)
    rhs = one_minus_z_pow(2, order) * lap
    report["zeta_vs_lap"] = {"order": order, "residual": lhs.max_abs_diff(rhs)}

    if ref.odd_period is not None:
        two_p = ref.odd_period + 1
        h_is = language_census(order, beta, Variant.ITO_SADAHIRO)
        h_is_gf = IntSeries.from_ints([1] + h_is, order)
        rhs = (one_minus_z_pow(two_p, order) * geometric(order)
               * denominator_series(ref.d, order).reciprocal())
        report["shift_census"] = {
            "order": order,
            "residual": h_is_gf.max_abs_diff(rhs),
        }
    return report
