"""Independent exact computations that the checkers compare the program with.

Nothing here imports negabeta.  Orbits of T are computed in Q(sqrt(D))
(which covers every rational and quadratic base) with plain Fractions;
higher-degree bases are checked by closed forms reduced with sympy modulo the
minimal polynomial, evaluated on intervals that sympy isolates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import sympy

X = sympy.Symbol("x")


# ---------------------------------------------------------------------------
# Q(sqrt(D)) arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Quad:
    """u + v*sqrt(D) with rational u, v and a non-square integer D > 0."""

    u: Fraction
    v: Fraction
    D: int

    def _lift(self, o) -> "Quad":
        return o if isinstance(o, Quad) else Quad(Fraction(o), Fraction(0), self.D)

    def __add__(self, o):
        o = self._lift(o)
        return Quad(self.u + o.u, self.v + o.v, self.D)

    def __sub__(self, o):
        o = self._lift(o)
        return Quad(self.u - o.u, self.v - o.v, self.D)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.u, -self.v, self.D)

    def __mul__(self, o):
        o = self._lift(o)
        return Quad(self.u * o.u + self.v * o.v * self.D,
                    self.u * o.v + self.v * o.u, self.D)

    __rmul__ = __mul__

    def inverse(self) -> "Quad":
        n = self.u * self.u - self.v * self.v * self.D
        return Quad(self.u / n, -self.v / n, self.D)

    def __truediv__(self, o):
        return self * self._lift(o).inverse()

    def __rtruediv__(self, o):
        return self._lift(o) * self.inverse()

    def sign(self) -> int:
        su = (self.u > 0) - (self.u < 0)
        sv = (self.v > 0) - (self.v < 0)
        if sv == 0:
            return su
        if su == 0 or su == sv:
            return sv
        c = self.u * self.u - self.v * self.v * self.D
        return su if c > 0 else -su

    def floor(self) -> int:
        if self.v == 0:
            return math.floor(self.u)
        w = self.v * self.v * self.D
        r = Fraction(math.isqrt(w.numerator * w.denominator << 128),
                     w.denominator << 64)
        n = math.floor(self.u + (r if self.v > 0 else -r))
        while (self - n).sign() < 0:
            n -= 1
        while (self - (n + 1)).sign() >= 0:
            n += 1
        return n


def quad_root(c: int, a: int, b: int) -> Quad:
    """Positive root (a + sqrt(a^2 + 4bc)) / (2c) of c x^2 - a x - b."""
    D = a * a + 4 * b * c
    if math.isqrt(D) ** 2 == D:
        raise ValueError("discriminant is a square")
    return Quad(Fraction(a, 2 * c), Fraction(1, 2 * c), D)


def rational_root(q: Fraction) -> Quad:
    return Quad(Fraction(q), Fraction(0), 2)


# ---------------------------------------------------------------------------
# orbits of T(x) = -beta x - floor(-beta x + beta/(beta+1))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Digits:
    int_len: int
    prefix: tuple[int, ...]
    period: tuple[int, ...] | None

    def digit(self, i: int) -> int:
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        if self.period is None:
            raise IndexError(f"digit {i} beyond the horizon")
        return self.period[(i - 1 - len(self.prefix)) % len(self.period)]

    def take(self, n: int) -> tuple[int, ...]:
        return tuple(self.digit(i) for i in range(1, n + 1))

    @property
    def known(self) -> float:
        return math.inf if self.period is not None else len(self.prefix)


def left_end(beta: Quad) -> Quad:
    return -(beta / (beta + 1))


def orbit(beta: Quad, x, horizon: int) -> tuple[Digits, list]:
    """Digits of x and the orbit points s_0 .. s_k (exact, cycle-detected)."""
    x = beta._lift(x)
    neg_beta = -beta
    lo, hi = left_end(beta), Fraction(1) / (beta + 1)
    int_len = 0
    while (x - lo).sign() < 0 or (hi - x).sign() <= 0:
        x = x / neg_beta
        int_len += 1
    shift = beta / (beta + 1)
    digits: list[int] = []
    points: list = []
    seen: dict = {}
    while len(digits) < max(horizon, int_len):
        if x in seen:
            j = seen[x]
            return Digits(int_len, tuple(digits[:j]), tuple(digits[j:])), points
        seen[x] = len(digits)
        points.append(x)
        y = neg_beta * x
        d = (y + shift).floor()
        digits.append(d)
        x = y - d
    points.append(x)
    return Digits(int_len, tuple(digits), None), points


def corrected(d: Digits) -> Digits:
    """d*: an odd purely periodic (p_1..p_k) becomes (p_1..p_{k-1}, p_k - 1, 0)."""
    if d.period is not None and not d.prefix and len(d.period) % 2 == 1:
        p = d.period
        return Digits(0, (), p[:-1] + (p[-1] - 1, 0))
    return d


def purely_odd(d: Digits) -> bool:
    return d.period is not None and not d.prefix and len(d.period) % 2 == 1


def same_sequence(pre1, per1, pre2, per2) -> bool:
    """Equality of two eventually periodic (or truncated) digit sequences."""
    if (per1 is None) != (per2 is None):
        return False
    if per1 is None:
        return tuple(pre1) == tuple(pre2)
    n = max(len(pre1), len(pre2)) + math.lcm(len(per1), len(per2))
    a, b = Digits(0, tuple(pre1), tuple(per1)), Digits(0, tuple(pre2), tuple(per2))
    return a.take(n) == b.take(n)


# ---------------------------------------------------------------------------
# alternating order, admissibility, counting
# ---------------------------------------------------------------------------

def alt_cmp(u, v) -> int:
    """-1/0/1: at the first difference k (1-based), u < v iff (-1)^k (u_k - v_k) < 0."""
    for k, (a, b) in enumerate(zip(u, v), start=1):
        if a != b:
            s = (a - b) if k % 2 == 0 else (b - a)
            return -1 if s < 0 else 1
    return 0


class Admissibility:
    """Membership in the corrected language: every suffix s of a word
    satisfies d* <= s <= 0 d* on |s| digits."""

    def __init__(self, d_star: Digits, d1: int, length: int):
        if d_star.known < length:
            raise ValueError("reference digits too short for this length")
        self.low = d_star.take(length)
        self.up = (0,) + d_star.take(length - 1)
        self.d1 = d1

    def __call__(self, w) -> bool:
        if any(not 0 <= c <= self.d1 for c in w):
            return False
        low, up = self.low, self.up
        for m in range(len(w)):
            s = w[m:]
            if alt_cmp(s, low) < 0 or alt_cmp(s, up) > 0:
                return False
        return True


def complexity(d_star: Digits, n: int) -> list[int]:
    """H_1..H_n from H_m = 1 + sum_k (-1)^k (d*_{k-1} - d*_k) H_{m-k}."""
    ds = (0,) + d_star.take(n)
    h = [1]
    for m in range(1, n + 1):
        h.append(1 + sum((-1) ** k * (ds[k - 1] - ds[k]) * h[m - k]
                         for k in range(1, m + 1)))
    return h[1:]


def _den(d: Digits, order: int) -> list[int]:
    """1 - sum (-1)^n (d_{n-1} - d_n) z^n, d_0 = 0."""
    ds = (0,) + d.take(order)
    return [1] + [-((-1) ** n) * (ds[n - 1] - ds[n]) for n in range(1, order + 1)]


def _mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, x in enumerate(a[:order + 1]):
        if x:
            for j, y in enumerate(b[:order + 1 - i]):
                out[i + j] += x * y
    return out


def _recip(a: list[int], order: int) -> list[int]:
    r = [1]
    for m in range(1, order + 1):
        r.append(-sum(a[j] * r[m - j] for j in range(1, m + 1) if j < len(a)))
    return r


def _one_minus_zk(k: int, order: int) -> list[int]:
    out = [1] + [0] * order
    if k <= order:
        out[k] = -1
    return out


def zeta(d: Digits, order: int, shift: bool) -> list[int]:
    """Zeta series of T (or of the natural shift) as integer coefficients."""
    if d.period is not None and not d.prefix:
        den = _mul(_one_minus_zk(len(d.period), order), _den(corrected(d), order), order)
    else:
        den = _den(d, order)
    z = _mul([1, 1], _recip(den, order), order)
    if shift and purely_odd(d):
        z = _mul(z, _recip(_one_minus_zk(len(d.period) + 1, order), order), order)
    return z


def periodic_counts(zeta_coeffs: list[int], n: int) -> list[int]:
    """p_1..p_n with n c_n = sum_{k<=n} p_k c_{n-k} (p_n = n [z^n] log zeta)."""
    c = zeta_coeffs
    p: list[int] = []
    for m in range(1, n + 1):
        p.append(m * c[m] - sum(p[k - 1] * c[m - k] for k in range(1, m)))
    return p


def lap_numbers(d_star: Digits, order: int) -> list[int]:
    """L_0..L_order of 1 / ((1 - z) D*(z))."""
    return _recip(_mul([1, -1], _den(d_star, order), order), order)


# ---------------------------------------------------------------------------
# the cascade below the golden ratio
# ---------------------------------------------------------------------------

def morphism_words(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(u_n, v_n): u_0 = 1, v_0 = 00, u_n = u_{n-1} v_{n-1}, v_n = u_{n-1} u_{n-1};
    u_{-1} = 0."""
    if n == -1:
        return (0,), (0, 0)
    u, v = (1,), (0, 0)
    for _ in range(n):
        u, v = u + v, u + u
    return u, v


def cascade_exponent(n: int) -> int:
    u, v = morphism_words(n)
    return max(len(u), len(v))


def cascade_level(beta: Fraction) -> int:
    """n with gamma_{n+1} < beta <= gamma_n, by the sign of x^l - x - 1 at beta."""
    f = lambda n: beta ** cascade_exponent(n) - beta - 1
    if f(0) >= 0:
        raise ValueError("base is not below the golden ratio")
    n = 0
    while f(n + 1) <= 0:
        n += 1
    return n


# ---------------------------------------------------------------------------
# algebraic bases: sympy closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Algebraic:
    """A real root > 1 of an irreducible integer polynomial m."""

    m: sympy.Poly
    lo: Fraction
    hi: Fraction

    @staticmethod
    def from_input(coeffs, lo, hi) -> "Algebraic":
        """The irreducible factor of sum c_i x^i that owns the root in [lo, hi]."""
        poly = sympy.Poly(list(reversed([int(c) for c in coeffs])), X)
        slo, shi = sympy.Rational(str(lo)), sympy.Rational(str(hi))
        owners = [f for f, _ in poly.factor_list()[1] if f.count_roots(slo, shi) == 1]
        if len(owners) != 1:
            raise ValueError("interval does not isolate one root")
        return Algebraic(owners[0], Fraction(lo), Fraction(hi))

    def interval(self, eps: Fraction) -> tuple[Fraction, Fraction]:
        a, b = self.m.refine_root(sympy.Rational(str(self.lo)),
                                  sympy.Rational(str(self.hi)),
                                  eps=sympy.Rational(eps.numerator, eps.denominator))
        return Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q))

    def floor(self) -> int:
        eps = Fraction(1, 2**20)
        while True:
            a, b = self.interval(eps)
            if math.floor(a) == math.floor(b):
                return math.floor(a)
            eps /= 2**20

    def sign_at(self, poly: sympy.Poly) -> int:
        """Sign of poly(beta); 0 when the minimal polynomial divides poly."""
        if poly.rem(self.m).is_zero:
            return 0
        eps = Fraction(1, 2**32)
        while True:
            lo, hi = eval_interval(poly, *self.interval(eps))
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            eps /= 2**32


def eval_interval(poly: sympy.Poly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval Horner evaluation for 0 < lo <= t <= hi."""
    a = b = Fraction(0)
    for c in poly.all_coeffs():
        c = Fraction(int(c.p), int(c.q)) if hasattr(c, "p") else Fraction(c)
        cands = (a * lo, a * hi, b * lo, b * hi)
        a, b = min(cands) + c, max(cands) + c
    return a, b


def _s_pow(k: int) -> sympy.Poly:
    """(-x)^k."""
    return sympy.Poly((-1) ** k * X ** k, X, domain="QQ")


def _digit_poly(ds) -> sympy.Poly:
    """sum_i ds_i (-x)^(n-i) for i = 1..n."""
    n = len(ds)
    if n == 0:
        return sympy.Poly(0, X, domain="QQ")
    return sympy.Poly([c * (-1) ** (n - i) for i, c in enumerate(ds, start=1)],
                      X, domain="QQ")


def _target(x) -> tuple[sympy.Poly, sympy.Poly]:
    """x as N/Dn: 'l' is -x/(x+1), anything else a rational number."""
    if x == "l":
        return sympy.Poly(-X, X, domain="QQ"), sympy.Poly(X + 1, X, domain="QQ")
    q = Fraction(x)
    return (sympy.Poly(sympy.Rational(q.numerator, q.denominator), X, domain="QQ"),
            sympy.Poly(1, X, domain="QQ"))


def periodic_expansion_exact(beta: Algebraic, x, e: Digits) -> bool:
    """Closed-form sum of an eventually periodic expansion equals x exactly."""
    N, Dn = _target(x)
    P, p = len(e.prefix), len(e.period)
    a_p, b = _digit_poly(e.prefix), _digit_poly(e.period)
    sp1 = _s_pow(p) - 1
    lhs = N * _s_pow(P) * sp1
    rhs = Dn * _s_pow(e.int_len) * (a_p * sp1 + b)
    return (lhs - rhs).rem(beta.m).is_zero


def truncated_expansion_ok(beta: Algebraic, x, e: Digits) -> bool:
    """The partial sum of n digits lies within d1 beta^-n / (beta - 1) of x.

    Scaled by beta^n: R = (-beta)^(n - int_len) x - sum_i e_i (-beta)^(n-i)
    must satisfy |R| <= d1 / (beta - 1).  R is reduced mod the minimal
    polynomial and evaluated on an isolating interval."""
    N, Dn = _target(x)
    n = len(e.prefix)
    r = (N * _s_pow(n - e.int_len) - Dn * _digit_poly(e.prefix)).rem(beta.m)
    d1 = beta.floor()
    eps = Fraction(1, 2**64)
    for _ in range(8):
        lo, hi = beta.interval(eps)
        rlo, rhi = eval_interval(r, lo, hi)
        dlo, dhi = eval_interval(Dn, lo, hi)
        mag = max(abs(rlo), abs(rhi)) / dlo
        bound = Fraction(d1) / (hi - 1)
        if mag <= bound:
            return True
        width = (rhi - rlo) / dlo
        if width < bound / 1024:
            return False  # decided: the enclosure is tight and still too big
        eps = eps * eps
    return False


def kraft_value_exact(beta: Algebraic, census: dict[int, int], n: int, coeffs) -> bool:
    """The field element sum_i coeffs_i beta^i equals sum_{k<=n} census_k beta^-k."""
    value = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                       X, domain="QQ")
    # value x^n = sum_k census_k x^(n-k), whose coefficients run from x^(n-1) down
    rhs = sympy.Poly([census.get(k, 0) for k in range(1, n + 1)], X, domain="QQ")
    return (value * sympy.Poly(X ** n, X, domain="QQ") - rhs).rem(beta.m).is_zero


def kraft_upper(beta_lo: Fraction, census: dict[int, int], n: int) -> Fraction:
    """Upper bound of sum_{k<=n} census_k beta^-k for beta >= beta_lo."""
    return sum((Fraction(census.get(k, 0)) / beta_lo ** k for k in range(1, n + 1)),
               Fraction(0))
