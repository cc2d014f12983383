"""Seeded inputs for the three workloads.

The program only ever sees what these functions return: base specifications
(a rational p/q, or integer polynomial coefficients with an isolating
interval), points, orders and command lines.  The same (workload, seed)
always gives the same inputs.

The seed moves the inputs but not the amount of work.  A census base is drawn
from a window so narrow around a fixed centre that its reference expansion d
agrees with the centre's through every digit the census operations read, so
every seed walks the same search tree over different numbers.  Field bases
keep their polynomials (their cost is set by the degree and the conjugates)
and take seeded isolating intervals and seeded points.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

import exact

HORIZON = 512


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"negabeta-perfbench:{workload}:{seed}")


@dataclass(frozen=True)
class Base:
    """A base as the program receives it, plus what the checkers need."""

    label: str
    rational: Fraction | None = None
    poly: tuple[int, ...] | None = None        # ascending coefficients
    interval: tuple[Fraction, Fraction] | None = None

    def spec(self) -> dict:
        if self.rational is not None:
            return {"rational": [self.rational.numerator, self.rational.denominator]}
        return {"poly": list(self.poly),
                "interval": [str(self.interval[0]), str(self.interval[1])]}

    def cli_args(self) -> list[str]:
        if self.rational is not None:
            return ["--beta", f"{self.rational.numerator}/{self.rational.denominator}"]
        # a first coefficient like -1 would be read as a flag, hence "--poly="
        return ["--poly=" + ",".join(str(c) for c in self.poly),
                "--interval", f"{self.interval[0]},{self.interval[1]}"]

    def quad(self) -> exact.Quad | None:
        """Exact form for rational and quadratic bases."""
        if self.rational is not None:
            return exact.rational_root(self.rational)
        if len(self.poly) == 3:
            b, a, c = -self.poly[0], -self.poly[1], self.poly[2]
            return exact.quad_root(c, a, b)
        return None


def _agree(beta: exact.Quad, want: tuple[int, ...]) -> bool:
    d, _ = exact.orbit(beta, exact.left_end(beta), len(want))
    return d.int_len == 0 and d.period is None and d.take(len(want)) == want


def _near_rational(rng, label: str, centre: Fraction, depth: int) -> Base:
    want = exact.orbit(exact.rational_root(centre),
                       exact.left_end(exact.rational_root(centre)), depth)[0].take(depth)
    width = Fraction(1, 4 * int(centre ** depth + 1))
    for _ in range(200):
        beta = centre + width * Fraction(rng.randint(1, 997), 1000)
        if _agree(exact.rational_root(beta), want):
            return Base(label, rational=beta)
    raise RuntimeError(f"no rational base near {centre} agrees to depth {depth}")


def _near_quadratic(rng, label: str, poly: tuple[int, int, int], depth: int) -> Base:
    """c x^2 - a x - b with a root next to the root of `poly` (same form)."""
    b0, a0, c0 = -poly[0], -poly[1], poly[2]
    centre = exact.quad_root(c0, a0, b0)
    want = exact.orbit(centre, exact.left_end(centre), depth)[0].take(depth)
    approx = Fraction((centre * 2**40).floor(), 2**40)
    scale = 8 * int(approx ** depth + 1)
    for _ in range(200):
        c = rng.randint(scale, 2 * scale)
        a = rng.randint(c // 4, c // 2)
        b = round(c * approx * approx - a * approx)
        try:
            beta = exact.quad_root(c, a, b)
        except ValueError:
            continue
        if _agree(beta, want):
            lo = approx - Fraction(rng.randint(1, 99), 1000)
            hi = approx + Fraction(rng.randint(1, 99), 1000)
            return Base(label, poly=(-b, -a, c), interval=(lo, hi))
    raise RuntimeError(f"no quadratic base near {label} agrees to depth {depth}")


# ---------------------------------------------------------------------------
# census: (label, centre, orders) -- orders are chosen so that each
# operation takes 0.05-0.4 s at the reference speed and the depth-first
# search over words dominates.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CensusSlot:
    base: Base
    census: int        # language_census, both variants
    enumerate: int     # enumerate_words
    periodic: int      # count_periodic_points, both targets
    verify: int        # verify_identities
    series: int = 64   # factor_complexity, lap and zeta series


# label: (kind, centre, census, enumerate, periodic, verify)
CENSUS_SLOTS = [
    ("rat-below-golden", "r", Fraction(7, 5), 24, 22, 16, 20),
    ("quad-below-golden", "q", (-1, -2, 2), 26, 24, 16, 20),
    ("rat-alphabet2", "r", Fraction(9, 5), 16, 15, 11, 15),
    ("rat-alphabet3", "r", Fraction(5, 2), 11, 10, 7, 10),
    ("quad-alphabet3", "q", (-2, -2, 1), 10, 9, 7, 10),
    ("quad-alphabet4", "q", (-2, -3, 1), 8, 7, 6, 8),
]

TINY_CENSUS = [
    ("rat-alphabet3", "r", Fraction(5, 2), 6, 5, 4, 5),
    ("quad-below-golden", "q", (-1, -2, 2), 8, 7, 5, 6),
]


def census_inputs(seed: int, tiny: bool = False) -> list[CensusSlot]:
    rng = _rng("census", seed)
    out = []
    for label, kind, centre, nc, ne, npp, nv in (TINY_CENSUS if tiny else CENSUS_SLOTS):
        depth = max(nc, ne, npp, nv) + 2
        base = (_near_rational(rng, label, centre, depth) if kind == "r"
                else _near_quadratic(rng, label, centre, depth))
        out.append(CensusSlot(base, nc, ne, npp, nv, 16 if tiny else 64))
    return out


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

# ascending coefficients and an approximate root; all roots > 1 are simple
# and the only positive root of each polynomial
FIELD_POLYS = [
    ("deg2", (-1, -2, 1), Fraction(2414, 1000)),             # 1 + sqrt 2
    ("deg3", (-1, -1, 0, 1), Fraction(1325, 1000)),          # plastic
    ("deg4", (-1, -1, 0, 0, 1), Fraction(1221, 1000)),
    ("deg5", (-1, -1, 0, 0, 0, 1), Fraction(1167, 1000)),
    ("deg6", (-1, -1, 0, 0, 0, 0, 1), Fraction(1135, 1000)),
    ("deg7", (-1, -1, 0, 0, 0, 0, 0, 1), Fraction(1113, 1000)),
]

CASCADE_CENTRES = [Fraction(3, 2), Fraction(13, 10), Fraction(11, 10)]


@dataclass(frozen=True)
class FieldInputs:
    algebraic: list[Base]
    rational: list[Base]
    points: dict[str, list[Fraction]]    # base label -> seeded rational points
    cascade: list[Base]
    plot_base: Base
    plot_iterate: int
    horizon: int
    kraft_length: int
    kraft_bases: tuple[str, ...] = ("deg2", "deg3", "rat-a")


def _seeded_interval(rng, root: Fraction) -> tuple[Fraction, Fraction]:
    return (root - Fraction(rng.randint(2, 60), 1000),
            root + Fraction(rng.randint(2, 60), 1000))


def _point(rng, q: int) -> Fraction:
    """p/q with 0 < |p| < q; q is fixed per base, so every seed expands a
    point of the same height."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, q - 1), q)


def field_inputs(seed: int, tiny: bool = False) -> FieldInputs:
    rng = _rng("field", seed)
    polys = FIELD_POLYS[:2] + FIELD_POLYS[-1:] if tiny else FIELD_POLYS
    algebraic = [Base(label, poly=p, interval=_seeded_interval(rng, root))
                 for label, p, root in polys]
    # p/29 with p seeded in 70-73 (beta near 2.45, q prime so nothing
    # cancels): the digit cost follows the size of p and q, so these
    # expansions cost nearly the same
    rational = [Base(f"rat-{c}", rational=Fraction(rng.randint(70, 73), 29)) for c in "abc"]
    cascade = []
    for centre in CASCADE_CENTRES[:1] if tiny else CASCADE_CENTRES:
        level = exact.cascade_level(centre)
        while True:
            beta = centre + Fraction(rng.randint(-40, 40), rng.randint(1000, 2000))
            if exact.cascade_level(beta) == level:
                break
        cascade.append(Base(f"cascade{level}", rational=beta))
    # a Pisot base (degree 2 and 3 here) gives rational points periodic
    # expansions whose period grows with the denominator: keep it small there.
    # Rational bases get three points: their twelve 512-digit expansions of
    # nearly equal cost hold the middle of the sorted operation times, so
    # op_p50_s is an expansion time.
    points = {b.label: [_point(rng, 7 if b.label in ("deg2", "deg3") else 97)
                        for _ in range(3 if b.rational is not None else 1)]
              for b in algebraic + rational}
    plot_base = Base("plot-plastic", poly=FIELD_POLYS[1][1],
                     interval=_seeded_interval(rng, FIELD_POLYS[1][2]))
    return FieldInputs(algebraic, rational, points, cascade, plot_base,
                       plot_iterate=3 if tiny else 6,
                       horizon=64 if tiny else HORIZON,
                       kraft_length=6 if tiny else 12)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

README_COMMANDS = [
    "expand --beta 5/2 --digits 10",
    "classify --beta 13/10",
    "codes --beta 5/2 --length 8",
    "complexity --beta golden --order 8",
    "laps --beta golden --order 10",
    "zeta --beta 2 --order 8",
    "periodic-points --beta 2 --n 5 --target shift",
    "gaps --beta 13/10",
    "verify --beta golden --order 16",
    "plot --beta 5/2 --iterate 3 --out",
]

# cascade levels 0, 1, 2, 3 and 5
GAPS_BASES = ["3/2", "13/10", "11/10", "21/20", "101/100"]

CLI_POLYS = [FIELD_POLYS[0], FIELD_POLYS[1], FIELD_POLYS[-1]]


@dataclass(frozen=True)
class CliInputs:
    commands: list[list[str]]
    bases: dict[int, Base]       # command index -> --poly base


def cli_inputs(seed: int, out_dir: str, tiny: bool = False) -> CliInputs:
    """The README commands, gaps across the cascade, and classify/expand at
    algebraic bases of degree 2, 3 and 7 with seeded isolating intervals,
    in a seeded order."""
    rng = _rng("cli", seed)
    commands: list[tuple[list[str], Base | None]] = []
    for c in README_COMMANDS:
        argv = c.split()
        if argv[-1] == "--out":
            argv.append(os.path.join(out_dir, "t3.svg"))
        commands.append((argv, None))
    for b in GAPS_BASES:
        commands.append((["gaps", "--beta", b], None))
    for label, p, root in CLI_POLYS:
        base = Base(label, poly=p, interval=_seeded_interval(rng, root))
        commands.append((["classify"] + base.cli_args(), base))
        commands.append((["expand"] + base.cli_args(), base))
    if tiny:
        commands = [commands[0], commands[3], commands[-3]]
    rng.shuffle(commands)
    return CliInputs([c for c, _ in commands],
                     {i: b for i, (_, b) in enumerate(commands) if b is not None})
