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

from .language import Variant, enumerate_words
from .numerics import BetaSpec, FieldElement, fe_compare, l_beta, r_beta


def _branch_interval(beta: BetaSpec, k: int) -> tuple[FieldElement, FieldElement]:
    """{x in I : digit(x) = k}, as a closed interval in Q(beta)."""
    c = beta.constants
    lo, hi = (c.left + (k + 1)) * c.neg_inv, (c.left + k) * c.neg_inv
    return (c.left if fe_compare(lo, c.left) < 0 else lo,
            c.right if fe_compare(hi, c.right) > 0 else hi)


def _cylinder(beta: BetaSpec, w, branches: list) -> tuple[FieldElement, FieldElement]:
    """Exact interval of points whose first |w| digits are w; branches[k]
    is the branch interval of digit k."""
    neg_inv = beta.constants.neg_inv
    lo, hi = branches[w[-1]]
    for k in reversed(w[:-1]):
        # preimage of [lo, hi] under x -> -beta x - k, then clip to branch k
        plo, phi = (hi + k) * neg_inv, (lo + k) * neg_inv
        blo, bhi = branches[k]
        lo = plo if fe_compare(plo, blo) > 0 else blo
        hi = phi if fe_compare(phi, bhi) < 0 else bhi
    return lo, hi


def _tn_value(w, y: FieldElement) -> FieldElement:
    for k in w:
        y = y.times_neg_beta() - k
    return y


def _f(v: FieldElement) -> float:
    return float(v.enclosure(Fraction(1, 10**9)).midpoint())


def plot_tn(beta: BetaSpec, n: int, size: int = 640) -> str:
    """SVG text of the graph of T^n over the fundamental interval."""
    words = enumerate_words(n, beta, Variant.CORRECTED).words
    l, r = _f(l_beta(beta)), _f(r_beta(beta))
    span = r - l
    pad = 0.06 * span

    def sx(x: float) -> float:
        return (x - (l - pad)) / (span + 2 * pad) * size

    def sy(y: float) -> float:
        return size - sx(y)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{sx(l):.2f}" y="{sy(r):.2f}" width="{sx(r) - sx(l):.2f}" '
        f'height="{sy(l) - sy(r):.2f}" fill="none" stroke="#999" stroke-width="1"/>',
    ]
    branches = [_branch_interval(beta, k) for k in range(beta.d1 + 1)]
    for w in words:
        lo, hi = _cylinder(beta, w, branches)
        x0, x1 = _f(lo), _f(hi)
        y0, y1 = _f(_tn_value(w, lo)), _f(_tn_value(w, hi))
        out.append(
            f'<line class="lap" x1="{sx(x0):.2f}" y1="{sy(y0):.2f}" '
            f'x2="{sx(x1):.2f}" y2="{sy(y1):.2f}" stroke="#06c" stroke-width="1.5"/>')
    if beta.kind == "rational" and beta.value.denominator == 1:
        # degenerate branch: the left endpoint alone carries the top digit
        x = _f(l_beta(beta))
        y = _f(_tn_value((beta.d1,) * n, l_beta(beta)))
        out.append(f'<circle class="endpoint-branch" cx="{sx(x):.2f}" '
                   f'cy="{sy(y):.2f}" r="3" fill="#c22"/>')
    out.append("</svg>")
    return "\n".join(out)
