"""Exact arithmetic in Q(beta) for a real algebraic base beta > 1.

The base is never touched as a float.  A rational base is a plain Fraction;
an irrational one is represented by its integer minimal polynomial together
with an isolating interval with rational endpoints.  Field elements are
polynomials in beta with rational coefficients, reduced mod the minimal
polynomial.  Floor and comparison are decided by refining the isolating
interval (bisection, exact signs); exact equality is structural because the
minimal polynomial is irreducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import sympy

from .errors import NoRootIsolated, NotGreaterThanOne, RootNotGreaterThanOne

Rat = Fraction


@dataclass(frozen=True)
class RationalInterval:
    """A closed interval [lo, hi] with rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


# ---------------------------------------------------------------------------
# dense polynomial helpers over Fraction, coefficients in ascending order
# ---------------------------------------------------------------------------

def _ptrim(p: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(p)
    while n > 0 and p[n - 1] == 0:
        n -= 1
    return p[:n]


def _padd(a, b):
    n = max(len(a), len(b))
    return _ptrim(tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)))


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _ptrim(tuple(out))


def _pdivmod(a, b):
    """Quotient and remainder of a by b over Q."""
    a = list(_ptrim(tuple(a)))
    b = _ptrim(tuple(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = Fraction(1) / b[-1]
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        c = a[-1] * inv_lead
        q[shift] = c
        for i, cb in enumerate(b):
            a[shift + i] -= c * cb
        a.pop()
    return _ptrim(tuple(q)), _ptrim(tuple(a))


def _pxgcd(a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = _ptrim(tuple(a)), _ptrim(tuple(b))
    s0, s1 = (Fraction(1),), ()
    t0, t1 = (), (Fraction(1),)
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, _pneg(_pmul(q, s1)))
        t0, t1 = t1, _padd(t0, _pneg(_pmul(q, t1)))
    return r0, s0, t0


def _peval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(tuple(p)):
        acc = acc * x + c
    return acc


class BetaSpec:
    """A base beta > 1, either rational or a certified algebraic root.

    Immutable except for the isolating interval, which only ever shrinks
    (a cache of bisection work).  Equality/hash are by value so specs can
    key memo tables: a rational base is its value, an algebraic one its
    minimal polynomial plus the index of its root among the polynomial's
    real roots in increasing order, so neither depends on refinement.
    """

    __slots__ = ("kind", "value", "minpoly", "root_index", "_interval")

    def __init__(self, kind, value=None, minpoly=None, interval=None,
                 root_index=None):
        self.kind = kind
        self.value = value          # Fraction, for kind == "rational"
        self.minpoly = minpoly      # tuple[int, ...] ascending, irreducible
        self.root_index = root_index  # 0-based rank among the real roots
        self._interval = interval   # RationalInterval isolating the root

    # -- construction helpers ------------------------------------------------

    def _identity(self):
        if self.kind == "rational":
            return ("rational", self.value)
        return ("algebraic", self.minpoly, self.root_index)

    def __eq__(self, other):
        if not isinstance(other, BetaSpec):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())

    def __repr__(self):
        if self.kind == "rational":
            return f"BetaSpec({self.value})"
        return f"BetaSpec(minpoly={self.minpoly}, in [{self._interval.lo}, {self._interval.hi}])"

    # -- interval machinery --------------------------------------------------

    @property
    def degree(self) -> int:
        if self.kind == "rational":
            return 1
        return len(self.minpoly) - 1

    def interval(self) -> RationalInterval:
        if self.kind == "rational":
            return RationalInterval(self.value, self.value)
        return self._interval

    def refine(self) -> RationalInterval:
        """Halve the isolating interval once (no-op for rational bases)."""
        if self.kind == "rational":
            return self.interval()
        iv = self._interval
        mid = iv.midpoint()
        v = _peval([Fraction(c) for c in self.minpoly], mid)
        if v == 0:  # cannot happen: irreducible of degree >= 2 has no rational root
            raise AssertionError("rational root of irreducible minimal polynomial")
        lo_sign = _peval([Fraction(c) for c in self.minpoly], iv.lo)
        if (lo_sign < 0) == (v < 0):
            self._interval = RationalInterval(mid, iv.hi)
        else:
            self._interval = RationalInterval(iv.lo, mid)
        return self._interval

    def refine_below(self, width: Fraction) -> RationalInterval:
        while self.interval().width > width:
            self.refine()
        return self.interval()

    @property
    def d1(self) -> int:
        """Largest digit: floor(beta) (equals beta for an integer base).
        The isolating interval of an algebraic base holds no integer."""
        return math.floor(self.interval().lo)


def beta_from_rational(p: int, q: int) -> BetaSpec:
    """Base p/q; must be > 1."""
    val = Fraction(p, q)
    if val <= 1:
        raise NotGreaterThanOne(f"{val} is not > 1")
    return BetaSpec("rational", value=val)


def beta_from_poly(coeffs: Sequence[int], lo, hi) -> BetaSpec:
    """Base given as the unique root of an integer polynomial in [lo, hi].

    The interval must isolate exactly one real root of the polynomial, and
    that root must be > 1.  The minimal polynomial of the root (an
    irreducible factor of the input) is what gets stored.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if hi < lo:
        raise ValueError("empty interval")
    coeffs = tuple(int(c) for c in coeffs)
    if not any(coeffs[1:]):
        raise NoRootIsolated("constant polynomial")
    x = sympy.Symbol("x")
    poly = sympy.Poly(sum(c * x**i for i, c in enumerate(coeffs)), x)
    slo, shi = sympy.Rational(lo.numerator, lo.denominator), sympy.Rational(hi.numerator, hi.denominator)
    if poly.count_roots(slo, shi) != 1:
        raise NoRootIsolated(
            f"interval [{lo}, {hi}] contains {poly.count_roots(slo, shi)} real roots, need exactly 1")
    # pick the irreducible factor owning the root
    _, factors = poly.factor_list()
    owner = None
    for fac, _mult in factors:
        if fac.degree() >= 1 and fac.count_roots(slo, shi) >= 1:
            owner = fac
            break
    if owner is None:
        raise NoRootIsolated("no factor has a root in the interval")
    fac_coeffs = [int(c) for c in reversed(owner.all_coeffs())]
    if fac_coeffs[-1] < 0:
        fac_coeffs = [-c for c in fac_coeffs]
    if owner.degree() == 1:
        # rational root -p/q from q*x + p
        root = Fraction(-fac_coeffs[0], fac_coeffs[1])
        if root <= 1:
            raise RootNotGreaterThanOne(f"isolated root {root} is not > 1")
        return BetaSpec("rational", value=root)
    spec = BetaSpec("algebraic", minpoly=tuple(fac_coeffs),
                    interval=_tighten(fac_coeffs, lo, hi),
                    root_index=int(owner.count_roots(None, slo)))
    # the root is irrational, so refinement leaves out every integer; then
    # floor(lo) is floor(root), and the root is > 1 iff that is >= 1
    while math.floor(spec.interval().hi) >= spec.interval().lo:
        spec.refine()
    if math.floor(spec.interval().lo) < 1:
        raise RootNotGreaterThanOne(
            f"isolated root of {coeffs} in [{lo}, {hi}] is not > 1")
    return spec


def _tighten(coeffs, lo, hi) -> RationalInterval:
    """Shrink [lo, hi] so the endpoint signs of the polynomial differ."""
    p = [Fraction(c) for c in coeffs]
    flo, fhi = _peval(p, lo), _peval(p, hi)
    # nudge endpoints off exact zeros (minpoly irreducible deg>=2 has no
    # rational roots, so only the original reducible input could vanish here)
    while flo == 0:
        lo = lo + Fraction(hi - lo, 1024)
        flo = _peval(p, lo)
    while fhi == 0:
        hi = hi - Fraction(hi - lo, 1024)
        fhi = _peval(p, hi)
    if (flo < 0) == (fhi < 0):
        # the root is interior with equal endpoint signs only if the input
        # interval was not truly isolating for this factor
        raise NoRootIsolated("endpoint signs agree; interval does not isolate")
    return RationalInterval(lo, hi)


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldElement:
    """An element of Q(beta), reduced coordinates in the power basis."""

    beta: BetaSpec
    coeffs: tuple[Fraction, ...]  # length == beta.degree

    # -- ring structure --------------------------------------------------

    def _check(self, other: "FieldElement") -> None:
        if self.beta != other.beta:
            raise ValueError("field elements belong to different bases")

    def __add__(self, other):
        other = _coerce(self.beta, other)
        self._check(other)
        return FieldElement(self.beta, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.beta, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-_coerce(self.beta, other))

    def __rsub__(self, other):
        return _coerce(self.beta, other) - self

    def __mul__(self, other):
        other = _coerce(self.beta, other)
        self._check(other)
        prod = _pmul(self.coeffs, other.coeffs)
        return FieldElement(self.beta, _reduce(self.beta, prod))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.beta.kind == "rational":
            return FieldElement(self.beta, (Fraction(1) / self.coeffs[0],))
        m = tuple(Fraction(c) for c in self.beta.minpoly)
        g, s, _t = _pxgcd(self.coeffs, m)
        # minpoly irreducible => gcd is a nonzero constant
        inv = tuple(c / g[0] for c in s)
        return FieldElement(self.beta, _reduce(self.beta, inv))

    def __truediv__(self, other):
        return self * _coerce(self.beta, other).inverse()

    def __rtruediv__(self, other):
        return _coerce(self.beta, other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = one(self.beta)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is irrational")
        return self.coeffs[0]

    # -- numeric enclosure --------------------------------------------------

    def enclosure(self, width: Fraction = Fraction(1, 10**9)) -> RationalInterval:
        """A rational interval of width <= `width` containing the value."""
        if self.is_rational():
            v = self.coeffs[0]
            return RationalInterval(v, v)
        while True:
            iv = _interval_eval(self.coeffs, self.beta.interval())
            if iv.width <= width:
                return iv
            self.beta.refine()

    def __repr__(self):
        return f"FieldElement({list(self.coeffs)})"


def _reduce(beta: BetaSpec, coeffs) -> tuple[Fraction, ...]:
    deg = beta.degree
    coeffs = _ptrim(tuple(Fraction(c) for c in coeffs))
    if len(coeffs) > deg:
        m = tuple(Fraction(c) for c in beta.minpoly)
        _q, coeffs = _pdivmod(coeffs, m)
    return tuple(coeffs) + (Fraction(0),) * (deg - len(coeffs))


def _coerce(beta: BetaSpec, x) -> FieldElement:
    if isinstance(x, FieldElement):
        return x
    if isinstance(x, (int, Fraction)):
        return FieldElement(beta, (Fraction(x),) + (Fraction(0),) * (beta.degree - 1))
    raise TypeError(f"cannot coerce {type(x)!r} into Q(beta)")


def from_rational(beta: BetaSpec, x) -> FieldElement:
    return _coerce(beta, Fraction(x))


def zero(beta: BetaSpec) -> FieldElement:
    return _coerce(beta, 0)


def one(beta: BetaSpec) -> FieldElement:
    return _coerce(beta, 1)


def beta_element(beta: BetaSpec) -> FieldElement:
    """beta itself as a field element."""
    if beta.kind == "rational":
        return FieldElement(beta, (beta.value,))
    return FieldElement(beta, _reduce(beta, (Fraction(0), Fraction(1))))


def _interval_eval(coeffs, iv: RationalInterval) -> RationalInterval:
    """Interval evaluation of sum c_i * t^i for t in iv (iv.lo > 0 assumed)."""
    lo = hi = Fraction(0)
    plo, phi = Fraction(1), Fraction(1)
    for c in coeffs:
        if c >= 0:
            lo += c * plo
            hi += c * phi
        else:
            lo += c * phi
            hi += c * plo
        plo *= iv.lo
        phi *= iv.hi
    return RationalInterval(lo, hi)


def fe_floor(x: FieldElement) -> int:
    """Exact floor.  Rational coordinates give the answer directly; an
    irrational value is separated from every integer by refinement."""
    if x.is_rational():
        v = x.coeffs[0]
        return v.numerator // v.denominator
    width = Fraction(1, 2)
    while True:
        iv = x.enclosure(width)
        flo = iv.lo.numerator // iv.lo.denominator
        fhi = iv.hi.numerator // iv.hi.denominator
        if flo == fhi:
            return flo
        width /= 16


def fe_compare(x: FieldElement, y) -> int:
    """Exact three-way comparison (-1, 0, 1)."""
    y = _coerce(x.beta, y)
    d = x - y
    if d.is_zero():
        return 0
    if d.is_rational():
        return 1 if d.coeffs[0] > 0 else -1
    width = Fraction(1, 2)
    while True:
        iv = d.enclosure(width)
        if iv.lo > 0:
            return 1
        if iv.hi < 0:
            return -1
        width /= 16


def l_beta(beta: BetaSpec) -> FieldElement:
    """Left endpoint -beta/(beta+1) of the fundamental interval."""
    b = beta_element(beta)
    return -b / (b + 1)


def r_beta(beta: BetaSpec) -> FieldElement:
    """Right endpoint 1/(beta+1) of the fundamental interval."""
    b = beta_element(beta)
    return one(beta) / (b + 1)


def cross_compare(a: BetaSpec, b: BetaSpec) -> int:
    """Compare two bases that may live in different number fields."""
    if a.kind == "rational" and b.kind == "rational":
        return (a.value > b.value) - (a.value < b.value)
    if a == b:
        return 0
    if a.kind == "algebraic" and b.kind == "algebraic" and a.minpoly == b.minpoly:
        # two roots of one polynomial are ordered by their indices
        return (a.root_index > b.root_index) - (a.root_index < b.root_index)
    # distinct minimal polynomials (or rational vs irrational): values differ
    while True:
        ia, ib = a.interval(), b.interval()
        if ia.hi < ib.lo:
            return -1
        if ib.hi < ia.lo:
            return 1
        a.refine()
        b.refine()
