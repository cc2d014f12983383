"""SVG rendering of the graph of T^n.

T^n is affine on each nonempty cylinder of length n; the cylinders are
read off the automaton's states exactly, in Q(beta), and only converted to
floats for drawing.  One <line class="lap"> element is emitted per lap, so
the element count equals the lap number L_n; an integer base additionally
gets a <circle class="endpoint-branch"> marker for the degenerate branch at
the left endpoint.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .expansion import left_orbit
from .language import Automaton, Reference, Variant
from .numerics import BetaSpec, FieldElement, fe_compare, l_beta, r_beta, zero

SIZE = 640  # the width and height of the drawing, in SVG user units


def _image(aut: Automaton, orbit: list[FieldElement], i: int
           ) -> tuple[FieldElement, FieldElement]:
    """T^n of a cylinder of state i, [lo, hi], for orbit[t] = pi(sigma^t
    d*).  Each tie s on the border chain of the lower bound d* bounds T^n x
    by pi(sigma^s d*), from below if s is even and from above if odd; the
    upper bound 0 d* is d* one digit late, so its tie s >= 1 bounds it by
    pi(sigma^(s-1) d*), from above if s is even and from below if odd.
    The empty ties give I itself."""
    c = aut.ref.beta.constants
    (j, k), ends = aut.states[i], [c.left, c.right]
    for s, pi, lag in ((j, aut.lower.pi, 0), (k, aut.upper.pi, 1)):
        while s:
            side = (s + lag) % 2  # 0 bounds from below, 1 from above
            if (1 - 2 * side) * fe_compare(orbit[s - lag], ends[side]) > 0:
                ends[side] = orbit[s - lag]
            s = pi[s]
    return ends[0], ends[1]


def _laps(beta: BetaSpec, n: int) -> Iterator[tuple[FieldElement, ...]]:
    """(x0, x1, T^n x0, T^n x1), the ends of the cylinder of each word of
    length n and their images, in lexicographic order: each word, walked
    on the CORRECTED automaton, carries its state id and c_w, where T^n x =
    (-beta)^n x - c_w on its cylinder.  The image is its state's (the
    levels of Hofbauer's Markov extension), swapped for odd n, and its ends
    map back by x = (y + c_w) (-1/beta)^n."""
    ref = Reference.for_beta(beta)
    aut = ref.automaton(Variant.CORRECTED)
    # no tie is longer than n, nor than d* is known
    orbit = left_orbit(ref.d_star, beta, int(min(n, ref.d_star.known_to)))
    tn = beta.constants.neg_inv ** n
    images: dict[int, tuple[FieldElement, FieldElement]] = {}
    for cw, i in aut.walk(n, zero(beta), lambda cw, a: cw.times_neg_beta() + a):
        if i not in images:
            images[i] = _image(aut, orbit, i)
        y0, y1 = images[i][::-1 if n % 2 else 1]
        yield (y0 + cw) * tn, (y1 + cw) * tn, y0, y1


def _f(v: FieldElement) -> float:
    if v.is_rational():  # the enclosure is [v, v]; int / int rounds as float(v)
        return v.num[0] / v.den
    return float(v.enclosure(Fraction(1, 10**9)).midpoint())


def plot_tn(beta: BetaSpec, n: int) -> str:
    """SVG text of the graph of T^n over the fundamental interval."""
    l, r = _f(l_beta(beta)), _f(r_beta(beta))
    span = r - l
    pad = 0.06 * span

    def sx(x: float) -> float:
        return (x - (l - pad)) / (span + 2 * pad) * SIZE

    def sy(y: float) -> float:
        return SIZE - sx(y)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect x="{sx(l):.2f}" y="{sy(r):.2f}" width="{sx(r) - sx(l):.2f}" '
        f'height="{sy(l) - sy(r):.2f}" fill="none" stroke="#999" stroke-width="1"/>',
    ]
    for lap in _laps(beta, n):
        x0, x1, y0, y1 = map(_f, lap)
        out.append(
            f'<line class="lap" x1="{sx(x0):.2f}" y1="{sy(y0):.2f}" '
            f'x2="{sx(x1):.2f}" y2="{sy(y1):.2f}" stroke="#06c" stroke-width="1.5"/>')
    if beta.kind == "rational" and beta.value.denominator == 1:
        # degenerate branch: the left endpoint alone carries the top digit
        # beta, which fixes it (-beta l_beta - beta = l_beta)
        out.append(f'<circle class="endpoint-branch" cx="{sx(l):.2f}" '
                   f'cy="{sy(l):.2f}" r="3" fill="#c22"/>')
    out.append("</svg>")
    return "\n".join(out)
