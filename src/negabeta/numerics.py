"""Exact arithmetic in Q(beta) for a real algebraic base beta > 1.

The base is never touched as a float.  A rational base is a plain Fraction;
an irrational one is represented by its integer minimal polynomial together
with an isolating interval with rational endpoints.  A field element is an
integer numerator vector in the power basis over one positive denominator,
gcd-reduced, reduced mod the base's modulus (the minimal polynomial, or
q x - p for a rational p/q).  Multiplying by -beta is one shift and one
multiply-add per nonzero low term of the modulus (`BetaSpec.low_terms`;
x^l - x - 1 has two at any degree), dividing by it the inverse shift
(`FieldElement.times_neg_inv`), with no inverse, and adding an integer k
moves num[0] by k den (gcd(num, den) stays 1).  Floor and sign
(`floor_or_sign`) bound the numerators on cached integer powers of the
endpoints of the current isolating interval and halve the interval once
(bisection, exact signs) whenever the bounds do not decide, so no decision
refines past the first halving that settles it.
Beside those powers the base keeps a dyadic enclosure [B_lo, B_hi] 2^-K of
itself and an R with R 2^-K >= sum_i (b^i - a^i) / q^i (`_dyadic_bounds`):
a caller that carries its own fixed-point enclosure of a value can then
prove from max|num| and R alone that the bound (`_bounds`) would decide at
the current interval, and skip it (the orbit of `expansion._orbit` does).
`BetaSpec.refine` clears both caches.  A positive common factor of an
unreduced (num, den) scales the bounds and their denominator alike, so the
digit step decides on one unreduced vector with the answer and halvings of
the reduced one.  Exact equality is structural because the minimal
polynomial is irreducible.  beta, l_beta, r_beta and 1/(-beta) are built
once per base, on first use, with one inverse (r_beta), and kept on its
BetaSpec (`constants`), and so are the digits of l_beta, as far as
`expansion.expand` was asked for them.
A halving evaluates the minimal polynomial at the midpoint a/b by Horner in
integers, homogenised by powers of b.

A base given by a polynomial is checked and placed with a Sturm sequence
(the distinct real roots in an interval, and the root's rank among them),
and its minimal polynomial is certified without factoring wherever that is
cheap: degree 1; degree 2 without a square discriminant; x^l - x - 1, which
is irreducible for every l (Selmer, Math. Scand. 1956); irreducibility
modulo a small prime that does not divide the leading coefficient.  sympy
factors what no certificate covers, and is loaded only then.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (InvariantBroken, NoRootIsolated, NotGreaterThanOne,
                     RootNotGreaterThanOne)

def lazy_module(name: str):
    """The module `name`, bound lazily (importlib's LazyLoader recipe): its
    code runs when one of its attributes is first read.  A module already
    in sys.modules is returned as it is.  A submodule is also bound on its
    package, as `import` binds it, so `package.name` reaches it."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        package, _, child = name.rpartition(".")
        if package:
            setattr(sys.modules[package], child, module)
    return module


# sympy only factors the polynomials no certificate covers: its ~0.4 s
# import runs on first use
sympy = lazy_module("sympy")


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


def _sign_at(p: Sequence, x: Fraction) -> int:
    """The sign of the polynomial p at x = a/b: that of
    sum p_i a^i b^(n-i), n = deg p, by Horner with a running power of b
    (b > 0), in integers when p has integer coefficients."""
    a, b = x.numerator, x.denominator
    acc, bp = p[-1], 1
    for c in reversed(p[:-1]):
        bp *= b
        acc = acc * a + c * bp
    return (acc > 0) - (acc < 0)


def _pdivmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    """Quotient and remainder of a by b (ascending, b[-1] != 0), the
    remainder without trailing zeros."""
    a = list(a)
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in reversed(range(len(q))):
        c = q[k] = a[k + len(b) - 1] / b[-1]
        for i, x in enumerate(b):
            a[k + i] -= c * x
    r = a[:len(b) - 1]
    while r and not r[-1]:
        r.pop()
    return q, r


# ---------------------------------------------------------------------------
# root counting and irreducibility certificates
# ---------------------------------------------------------------------------

def _sturm_sequence(p: Sequence[Fraction]) -> list[list[Fraction]]:
    """p, p' and the negated remainders of Euclid, down to a constant, for
    the squarefree part of p (p / gcd(p, p'), which has the same roots)."""
    seq = [list(p), [i * c for i, c in enumerate(p)][1:]]
    while len(seq[-1]) > 1:
        r = _pdivmod(seq[-2], seq[-1])[1]
        if not r:  # seq[-1] is gcd(p, p'), up to a constant
            return _sturm_sequence(_pdivmod(p, seq[-1])[0])
        seq.append([-c for c in r])
    return seq


def _sign_changes(seq: list[list[Fraction]], x) -> int:
    """Sign changes along a Sturm sequence at x (at -infinity for None),
    zeros left out."""
    values = [_sign_at(s, x) if x is not None
              else s[-1] * (-1) ** (len(s) - 1) for s in seq]
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _count_roots(coeffs: Sequence[int], lo, hi) -> int:
    """The distinct real roots of a nonconstant polynomial in the closed
    interval [lo, hi], or in (-infinity, hi] when lo is None (Sturm)."""
    seq = _sturm_sequence([Fraction(c) for c in coeffs])
    at_lo = lo is not None and _sign_at(coeffs, lo) == 0
    return _sign_changes(seq, lo) - _sign_changes(seq, hi) + at_lo


def _primitive(coeffs: Sequence[int]) -> list[int]:
    """A nonconstant integer polynomial without trailing zeros, divided by
    its content, with a positive leading coefficient."""
    coeffs = list(coeffs)
    while not coeffs[-1]:
        coeffs.pop()
    g = math.gcd(*coeffs) * (1 if coeffs[-1] > 0 else -1)
    return [c // g for c in coeffs]


def _gf_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    """a * b mod (m, p), for m monic of degree n and a, b of length n."""
    n = len(m) - 1
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):  # x^k = -x^(k-n) (m - x^n)
        c = prod[k] % p
        if c:
            for i in range(n):
                prod[k - n + i] -= c * m[i]
    return [c % p for c in prod[:n]]


def _gf_coprime(a: list[int], b: list[int], p: int) -> bool:
    """Is gcd(a, b) = 1 over GF(p)?  (Euclid; a is nonzero mod p.)"""
    while True:
        while b and not b[-1]:
            b.pop()
        if not b:
            return len(a) == 1
        inv = pow(b[-1], -1, p)
        a = list(a)
        while len(a) >= len(b):  # a becomes a mod b
            c, k = a[-1] * inv % p, len(a) - len(b)
            for i, y in enumerate(b):
                a[k + i] = (a[k + i] - c * y) % p
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a


def _irreducible_mod(f: Sequence[int], p: int) -> bool:
    """Is f, of degree n >= 2, irreducible over GF(p)?  A reducible f has an
    irreducible factor of some degree k <= n/2, and then gcd(x^(p^k) - x, f)
    is not 1 (Ben-Or's distinct-degree test).  p must not divide lead(f)."""
    inv = pow(f[-1], -1, p)
    m = [c * inv % p for c in f]
    n = len(m) - 1
    x = [0, 1] + [0] * (n - 2)
    h = x
    for _ in range(n // 2):
        e, acc = p, [1] + [0] * (n - 1)
        while e:  # h becomes h^p mod (m, p)
            if e & 1:
                acc = _gf_mulmod(acc, h, m, p)
            h, e = _gf_mulmod(h, h, m, p), e >> 1
        h = acc
        if not _gf_coprime(m, [(a - b) % p for a, b in zip(h, x)], p):
            return False
    return True


_CERTIFICATE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _certified_irreducible(f: list[int]) -> bool:
    """Is the primitive polynomial f irreducible over Q by a certificate
    that costs time polynomial in its size?  False means "not certified"."""
    n = len(f) - 1
    if n == 1:
        return True
    if n == 2:
        disc = f[1] ** 2 - 4 * f[0] * f[2]
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    if f == [-1, -1] + [0] * (n - 2) + [1]:  # x^n - x - 1 (Selmer)
        return True
    # irreducible mod p, with the degree kept, is irreducible over Q
    return any(f[-1] % p and _irreducible_mod(f, p)
               for p in _CERTIFICATE_PRIMES)


def _sympy_factors(f: list[int]) -> list[list[int]]:
    """The irreducible factors of f by sympy's factor_list, each primitive
    with a positive leading coefficient."""
    _, factors = sympy.Poly(f[::-1], sympy.Symbol("x")).factor_list()
    return [_primitive([int(c) for c in reversed(fac.all_coeffs())])
            for fac, _ in factors]


def _times_x(v: Sequence[int], lead: int,
             terms: tuple[tuple[int, int], ...]) -> list[int]:
    """lead * (x * v mod m) for an integer vector v of length deg(m), m of
    leading coefficient `lead` and nonzero low terms `terms` (i, m_i): the
    shift, scaled by lead only when lead != 1, and x^d = -(m_0 + ... +
    m_{d-1} x^(d-1)) / lead reduced by one multiply-add per nonzero term."""
    top = v[-1]
    w = [0, *v[:-1]] if lead == 1 else [0, *[lead * c for c in v[:-1]]]
    if top:
        for i, c in terms:
            w[i] -= top * c
    return w


class BetaSpec:
    """A base beta > 1, either rational or a certified algebraic root.

    Immutable except for the isolating interval, which only ever shrinks
    (a cache of bisection work).  Equality/hash are by value so specs can
    key memo tables: a rational base is its value, an algebraic one its
    minimal polynomial plus the index of its root among the polynomial's
    real roots in increasing order, so neither depends on refinement.
    """

    __slots__ = ("kind", "value", "minpoly", "root_index", "modulus",
                 "low_terms", "step_gcd", "_interval", "_lo_negative",
                 "_powers", "_dyadic", "_constants", "_left")

    def __init__(self, kind, value=None, minpoly=None, interval=None,
                 root_index=None):
        self.kind = kind
        self.value = value          # Fraction, for kind == "rational"
        self.minpoly = minpoly      # tuple[int, ...] ascending, irreducible
        self.root_index = root_index  # 0-based rank among the real roots
        self._interval = interval   # RationalInterval isolating the root
        # m(lo) < 0?  Refinement moves lo only to a midpoint where m has the
        # same sign, so this is read once
        self._lo_negative = (kind == "algebraic"
                             and _sign_at(minpoly, interval.lo) < 0)
        # the integer polynomial field elements reduce by: q x - p for p/q
        self.modulus = (minpoly if kind == "algebraic"
                        else (-value.numerator, value.denominator))
        # (i, m_i) for each nonzero coefficient below the lead, ascending:
        # m_0 != 0 (the modulus is irreducible, or q x - p with p > 0), so
        # the first is (0, m_0).  x^l - x - 1 has two at any degree
        self.low_terms = tuple((i, c) for i, c in
                               enumerate(self.modulus[:-1]) if c)
        # |m_0| lead^deg: 1/beta has denominator m_0, so what -beta * x
        # and x / (-beta) cancel from their unreduced (num, den) divides
        # this (`times_neg_inv`)
        m = self.modulus
        self.step_gcd = abs(m[0]) * m[-1] ** (len(m) - 1)
        self._powers = None         # endpoint powers of the interval
        self._dyadic = None         # the interval's dyadic enclosure
        self._constants = None      # BaseConstants, built on first use
        # the digits of l_beta (a SymbolicSequence), kept by
        # `expansion.expand` as far as they were asked; certified, so
        # `refine` leaves them
        self._left = None

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
        return len(self.modulus) - 1

    def interval(self) -> RationalInterval:
        if self.kind == "rational":
            return RationalInterval(self.value, self.value)
        return self._interval

    def refine(self) -> None:
        """Halve the isolating interval once (no-op for rational bases)."""
        if self.kind == "rational":
            return
        iv = self._interval
        mid = iv.midpoint()
        sign = _sign_at(self.minpoly, mid)
        if sign == 0:  # an irreducible polynomial of degree >= 2 has no rational root
            raise InvariantBroken(f"{mid} is a root of the minimal polynomial")
        if self._lo_negative == (sign < 0):
            self._interval = RationalInterval(mid, iv.hi)
        else:
            self._interval = RationalInterval(iv.lo, mid)
        self._powers = self._dyadic = None  # the one place the interval changes

    def _endpoint_powers(self) -> tuple[list[int], list[int], int]:
        """For the isolating interval [a/q, b/q] and degree n: the integers
        a^i q^(n-1-i) and b^i q^(n-1-i), i < n, and q^(n-1).  Cached until
        the interval is refined.  Each power is the one before it times
        a / q, exact while q^(n-1-i) keeps a factor q."""
        if self._powers is None:
            iv = self._interval
            n, q = self.degree, math.lcm(iv.lo.denominator, iv.hi.denominator)
            qn = q ** (n - 1)
            ends = []
            for e in (iv.lo, iv.hi):
                a, t = e.numerator * (q // e.denominator), qn
                powers = [t]
                for _ in range(n - 1):
                    t = t * a // q
                    powers.append(t)
                ends.append(powers)
            self._powers = (ends[0], ends[1], qn)
        return self._powers

    def _dyadic_bounds(self) -> tuple[int, int, int, int]:
        """(K, B_lo, B_hi, R) for the isolating interval [a/q, b/q]: beta
        lies in [B_lo, B_hi] 2^-K, rounded outward, with K 16 bits past the
        interval's width, and R 2^-K >= sum_i (b^i - a^i) / q^i, so that
        `_bounds` encloses sum(num[i] beta^i) / den in an interval of width
        at most max|num[i]| R 2^-K / den.  Cached until the interval is
        refined."""
        if self._dyadic is None:
            iv = self._interval
            q = math.lcm(iv.lo.denominator, iv.hi.denominator)
            a, b = (e.numerator * (q // e.denominator) for e in (iv.lo, iv.hi))
            k = max(q.bit_length() - (b - a).bit_length(), 0) + 16
            plo, phi, qn = self._endpoint_powers()
            spread = (sum(phi) - sum(plo)) << k
            self._dyadic = (k, (a << k) // q, -(-(b << k) // q),
                            -(-spread // qn))
        return self._dyadic

    @property
    def constants(self) -> BaseConstants:
        """beta, l_beta, r_beta and 1/(-beta) in Q(beta), built on first
        use: r_beta is the one inverse, 1/(-beta) an inverse shift."""
        if self._constants is None:
            b = -one(self).times_neg_beta()
            r = (b + 1).inverse()
            self._constants = BaseConstants(b, -(b * r), r,
                                            one(self).times_neg_inv())
        return self._constants

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
    irreducible factor of the input, primitive, with a positive leading
    coefficient) is what gets stored, with the root's rank among its real
    roots.  Roots are counted with a Sturm sequence; the input is its own
    minimal polynomial when a certificate proves it irreducible
    (`_certified_irreducible`), and only otherwise does sympy factor it.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if hi < lo:
        raise ValueError("empty interval")
    coeffs = tuple(int(c) for c in coeffs)
    if not any(coeffs[1:]):
        raise NoRootIsolated("constant polynomial")
    poly = _primitive(coeffs)
    count = _count_roots(poly, lo, hi)
    if count != 1:
        raise NoRootIsolated(
            f"interval [{lo}, {hi}] contains {count} real roots, need exactly 1")
    # the irreducible factor owning the root (every root has one)
    owner = poly if _certified_irreducible(poly) else next(
        fac for fac in _sympy_factors(poly)
        if len(fac) > 1 and _count_roots(fac, lo, hi) >= 1)
    if len(owner) == 2:
        # rational root -p/q from q*x + p
        root = Fraction(-owner[0], owner[1])
        if root <= 1:
            raise RootNotGreaterThanOne(f"isolated root {root} is not > 1")
        return BetaSpec("rational", value=root)
    # irreducible of degree >= 2, so no endpoint is a root, and its one
    # root in [lo, hi] is simple: the endpoint signs must differ
    if (_sign_at(owner, lo) < 0) == (_sign_at(owner, hi) < 0):
        raise InvariantBroken(
            f"endpoint signs of {owner} agree on [{lo}, {hi}] around one root: "
            "the certified minimal polynomial is not squarefree")
    spec = BetaSpec("algebraic", minpoly=tuple(owner),
                    interval=RationalInterval(lo, hi),
                    root_index=_count_roots(owner, None, lo))
    # the root is irrational, so refinement leaves out every integer; then
    # floor(lo) is floor(root), and the root is > 1 iff that is >= 1
    while math.floor(spec.interval().hi) >= spec.interval().lo:
        spec.refine()
    if math.floor(spec.interval().lo) < 1:
        raise RootNotGreaterThanOne(
            f"isolated root of {coeffs} in [{lo}, {hi}] is not > 1")
    return spec


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

class FieldElement:
    """sum(num[i] * beta^i) / den in Q(beta), one integer per power below
    the degree.  Canonical: den > 0 and gcd(num, den) = 1, so equal values
    have equal fields and hash equal.  A nonzero `bound` is a small multiple
    of gcd(num, den) known to the caller, sparing a gcd of long integers."""

    __slots__ = ("beta", "num", "den")

    def __init__(self, beta: BetaSpec, num: Sequence[int], den: int = 1,
                 bound: int = 0):
        g = math.gcd(bound, den, *num)
        self.beta = beta
        self.num = tuple(c // g for c in num) if g > 1 else tuple(num)
        self.den = den // g

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates in the power basis, as fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and (self.beta is other.beta or self.beta == other.beta))

    def __hash__(self):
        return hash((self.num, self.den))

    # -- ring structure --------------------------------------------------

    def _check(self, other: "FieldElement") -> None:
        if self.beta is not other.beta and self.beta != other.beta:
            raise ValueError("field elements belong to different bases")

    def __add__(self, other, sign=1):
        if isinstance(other, int):  # num[0] + k den keeps gcd(num, den) = 1
            num = self.num
            return FieldElement(self.beta, (num[0] + sign * other * self.den,
                                            *num[1:]), self.den, 1)
        other = _coerce(self.beta, other)
        self._check(other)
        g = math.gcd(self.den, other.den)  # as in Fraction: only g can divide the sum
        a, b = self.den // g, other.den // g
        num = [x * b + sign * y * a for x, y in zip(self.num, other.num)]
        return FieldElement(self.beta, num, a * other.den, g)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.beta, [-c for c in self.num], self.den, 1)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __mul__(self, other):
        if not isinstance(other, FieldElement):  # an int or a Fraction
            return self._scaled(other.numerator, other.denominator)
        self._check(other)
        if self.is_rational() and not other.is_rational():
            self, other = other, self
        if other.is_rational():  # a rational factor takes the scalar path
            return self._scaled(other.num[0], other.den)
        beta = self.beta
        lead, terms = beta.modulus[-1], beta.low_terms
        acc, scale = [0] * len(self.num), 1
        for a in reversed(self.num):  # Horner in beta: acc * beta + a * other
            acc, scale = _times_x(acc, lead, terms), scale * lead
            if a:
                acc = [s + a * scale * t for s, t in zip(acc, other.num)]
        return FieldElement(beta, acc, scale * self.den * other.den)

    __rmul__ = __mul__

    def _scaled(self, p: int, q: int) -> "FieldElement":
        """self * p/q for p/q in lowest terms with q > 0, so that
        gcd(num p, den q) divides |p| q: no gcd of long integers."""
        return FieldElement(self.beta, [c * p for c in self.num], self.den * q,
                            abs(p) * q)

    def times_neg_beta(self) -> "FieldElement":
        """-beta * self: one shift and reduction step, O(deg), whose gcd to
        cancel divides the base's `step_gcd`."""
        beta = self.beta
        lead = beta.modulus[-1]
        w = _times_x(self.num, lead, beta.low_terms)
        return FieldElement(beta, [-c for c in w], self.den * lead,
                            beta.step_gcd)

    def times_neg_inv(self) -> "FieldElement":
        """self / (-beta): the inverse shift, O(deg), with no inverse.

        m(beta) = 0 gives 1/beta = -(m_1 + m_2 beta + ... + m_d beta^(d-1))
        / m_0, so for self = v / den, a = |m_0| and s = sign(m_0),

            self / (-beta) = (s v_0 (m_1, ..., m_d)
                              - a (v_1, ..., v_{d-1}, 0)) / (a den),

        the shift down by one, scaled by a only when a != 1, and one
        multiply-add per nonzero term m_i, 0 < i <= d.

        The gcd g this cancels from (r, a den), r the numerator above,
        divides a lead, where lead = m_d.  `times_neg_beta` maps (r / g,
        a den / g) to an integer vector over a den lead / g, of the value
        -beta self / (-beta) = v / den; coordinates in the power basis are
        unique, so that vector is a lead v / g, and g divides a lead v_i
        for every i.  g also divides a den, hence a gcd(lead gcd(v), den),
        which is a gcd(lead, den) since gcd(v, den) = 1 (self is
        canonical).  So g divides the base's `step_gcd` |m_0| lead^d."""
        beta = self.beta
        m, v = beta.modulus, self.num
        a, v0 = abs(m[0]), (v[0] if m[0] > 0 else -v[0])
        r = ([*[-c for c in v[1:]], v0 * m[-1]] if a == 1
             else [*[-a * c for c in v[1:]], v0 * m[-1]])
        for i, c in beta.low_terms[1:]:
            r[i - 1] += v0 * c
        return FieldElement(beta, r, self.den * a, beta.step_gcd)

    def inverse(self) -> "FieldElement":
        """By extended Euclid on the numerator polynomial and the modulus,
        carrying each Bezout cofactor s_k (s_k * self = r_k) in Q(beta)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        beta = self.beta
        r0, r1 = [Fraction(c) for c in beta.modulus], [Fraction(c) for c in self.num]
        s0, s1 = zero(beta), from_rational(beta, self.den)
        while r1 and not r1[-1]:
            r1.pop()
        while True:
            if not r1:
                raise InvariantBroken(
                    f"{self!r} shares a factor with the modulus {beta.modulus}")
            if len(r1) == 1:
                return s1 * (1 / r1[0])
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - from_coeffs(beta, q) * s1

    def __truediv__(self, other):
        return self * _coerce(self.beta, other).inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc, base = one(self.beta), self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is irrational")
        return Fraction(self.num[0], self.den)

    # -- numeric enclosure --------------------------------------------------

    def enclosure(self, width: Fraction = Fraction(1, 10**9)) -> RationalInterval:
        """A rational interval of width <= `width` containing the value: the
        value itself when rational, else the cell [k w, (k+1) w] of the grid
        of width w, which depends on nothing but the value and w."""
        if self.is_rational():
            return RationalInterval(self.as_rational(), self.as_rational())
        k = fe_floor(self * (1 / width))
        return RationalInterval(k * width, (k + 1) * width)

    def __repr__(self):
        return f"FieldElement({list(self.coeffs)})"


@dataclass(frozen=True)
class BaseConstants:
    """The field constants of one base, kept on its BetaSpec."""

    beta: FieldElement
    left: FieldElement      # l_beta = -beta/(beta+1)
    right: FieldElement     # r_beta = 1/(beta+1)
    neg_inv: FieldElement   # 1/(-beta)


def from_coeffs(beta: BetaSpec, coeffs) -> FieldElement:
    """sum(coeffs[i] * beta^i), for at most degree rational coefficients."""
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    num = [c.numerator * (den // c.denominator) for c in coeffs]
    return FieldElement(beta, num + [0] * (beta.degree - len(num)), den)


def _coerce(beta: BetaSpec, x) -> FieldElement:
    if isinstance(x, FieldElement):
        return x
    if isinstance(x, (int, Fraction)):
        return FieldElement(beta, (x.numerator,) + (0,) * (beta.degree - 1),
                            x.denominator, 1)
    raise TypeError(f"cannot coerce {type(x)!r} into Q(beta)")


def from_rational(beta: BetaSpec, x) -> FieldElement:
    return _coerce(beta, Fraction(x))


def zero(beta: BetaSpec) -> FieldElement:
    return _coerce(beta, 0)


def one(beta: BetaSpec) -> FieldElement:
    return _coerce(beta, 1)


def _bounds(beta: BetaSpec, num: Sequence[int]) -> tuple[int, int, int]:
    """(lo, hi, q^(n-1)) with lo <= q^(n-1) sum(num[i] * beta^i) <= hi: num
    on the endpoint powers of the current isolating interval."""
    plo, phi, qn = beta._endpoint_powers()
    lo = hi = 0
    for c, a, b in zip(num, plo, phi):
        if c >= 0:
            lo, hi = lo + c * a, hi + c * b
        else:
            lo, hi = lo + c * b, hi + c * a
    return lo, hi, qn


def floor_or_sign(beta: BetaSpec, num: Sequence[int], den: int,
                  floor: bool = True) -> int:
    """The floor of v = sum(num[i] * beta^i) / den for den > 0, or its sign
    when `floor` is false: direct for rational coordinates, else bounded by
    num on the endpoint powers of the current isolating interval (endpoints
    > 1, so each power is monotone on it), halved while the bounds do not
    decide."""
    if not any(num[1:]):
        return num[0] // den if floor else (num[0] > 0) - (num[0] < 0)
    while True:
        lo, hi, qn = _bounds(beta, num)
        if floor:
            if lo // (scale := den * qn) == hi // scale:
                return lo // scale
        elif lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        beta.refine()


def fe_floor(x: FieldElement) -> int:
    """Exact floor."""
    return floor_or_sign(x.beta, x.num, x.den)


def fe_compare(x: FieldElement, y) -> int:
    """Exact three-way comparison (-1, 0, 1)."""
    d = x - y
    return floor_or_sign(d.beta, d.num, d.den, floor=False)


def l_beta(beta: BetaSpec) -> FieldElement:
    """Left endpoint -beta/(beta+1) of the fundamental interval."""
    return beta.constants.left


def r_beta(beta: BetaSpec) -> FieldElement:
    """Right endpoint 1/(beta+1) of the fundamental interval."""
    return beta.constants.right
