"""SVG rendering of the graph of T^n.

T^n is affine on each nonempty cylinder of length n; the cylinders are
computed exactly (interval intersections in Q(beta)) and only converted to
floats for drawing.  One <line class="lap"> element is emitted per lap, so
the element count equals the lap number L_n; an integer base additionally
gets a <circle class="endpoint-branch"> marker for the degenerate branch at
the left endpoint.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .language import Variant, enumerate_words
from .numerics import (BetaSpec, FieldElement, fe_compare, l_beta, one,
                       r_beta, zero)

SIZE = 640  # the width and height of the drawing, in SVG user units


def _branch_interval(beta: BetaSpec, k: int) -> tuple[FieldElement, FieldElement]:
    """{x in I : digit(x) = k}, as a closed interval in Q(beta)."""
    c = beta.constants
    lo, hi = (c.left + (k + 1)) * c.neg_inv, (c.left + k) * c.neg_inv
    return (c.left if fe_compare(lo, c.left) < 0 else lo,
            c.right if fe_compare(hi, c.right) > 0 else hi)


def _laps(beta: BetaSpec, words) -> Iterator[tuple[FieldElement, ...]]:
    """(x0, x1, T^n x0, T^n x1), the ends of the cylinder of each word (all
    of length n) and their images.  A prefix u keeps its cylinder, the ends'
    images under T^|u| = (-beta)^|u| x - c_u, c_u and t^|u| for t = -1/beta;
    its child u k clips the image to branch k, maps a clipped end back by
    x = (y + c_u) t^|u| and applies y -> -beta y - k."""
    c = beta.constants
    branches = [_branch_interval(beta, k) for k in range(beta.d1 + 1)]
    stack = [(c.left, c.right, c.left, c.right, zero(beta), one(beta))]
    prev = ()
    for w in words:
        j = next((i for i, (a, b) in enumerate(zip(prev, w)) if a != b), 0)
        del stack[j + 1:]
        for k in w[j:]:
            x0, x1, y0, y1, cu, tu = stack[-1]
            s = 1 if len(stack) % 2 else -1  # the sign of (-beta)^|u|
            e0, e1 = branches[k][::s]
            if s * fe_compare(y0, e0) < 0:
                x0, y0 = (e0 + cu) * tu, e0
            if s * fe_compare(y1, e1) > 0:
                x1, y1 = (e1 + cu) * tu, e1
            stack.append((x0, x1, y0.times_neg_beta() - k,
                          y1.times_neg_beta() - k, cu.times_neg_beta() + k,
                          tu * c.neg_inv))
        prev = w
        yield stack[-1][:4]


def _f(v: FieldElement) -> float:
    if v.is_rational():  # the enclosure is [v, v]; int / int rounds as float(v)
        return v.num[0] / v.den
    return float(v.enclosure(Fraction(1, 10**9)).midpoint())


def plot_tn(beta: BetaSpec, n: int) -> str:
    """SVG text of the graph of T^n over the fundamental interval."""
    words = enumerate_words(n, beta, Variant.CORRECTED).words
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
    for lap in _laps(beta, words):
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
