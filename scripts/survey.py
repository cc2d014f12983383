#!/usr/bin/env python3
"""Survey a list of bases: expansion, classification, counting, support code.

Prints one block per base with the reference expansion, language census,
zeta coefficients, identity residuals, and — below the golden ratio — the
cascade level and gap intervals.

Usage:
    python scripts/survey.py                # built-in base list
    python scripts/survey.py --beta 7/3 --beta golden --order 10
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from fractions import Fraction

from negabeta.cli import parse_beta
from negabeta.codes import kraft_partial_sums, support_code
from negabeta.errors import IndexOutOfRange
from negabeta.expansion import expand
from negabeta.gaps import all_gaps, cascade_classify
from negabeta.language import at_horizon, classify, language_census
from negabeta.numerics import l_beta
from negabeta.series import verify_identities, zeta_transformation

DEFAULT_BASES = ["2", "5/2", "3", "golden", "plastic", "13/10", "3/2"]


@dataclass
class SurveyConfig:
    bases: list[str] = field(default_factory=lambda: list(DEFAULT_BASES))
    order: int = 8
    horizon: int = 2048
    digits_shown: int = 24


def fe_float(x) -> float:
    iv = x.enclosure(Fraction(1, 10**12))
    return float((iv.lo + iv.hi) / 2)


def survey_one(name: str, cfg: SurveyConfig) -> None:
    b = parse_beta("gamma:1" if name == "plastic" else name)
    print(f"=== base {name} ===")
    d = expand(l_beta(b), b, cfg.horizon).seq
    shown = "".join(str(x) for x in d.digits(cfg.digits_shown))
    tail = f" (purely periodic: {d.prefix == ()})" if d.is_periodic else " ..."
    print(f"  d(l) = {shown}{tail}")

    cls = classify(b)
    print(f"  shift coded: {cls.shift_coded}  "
          f"corrected coded: {cls.corrected_shift_coded}  "
          f"transitive: {cls.transitive}")

    census = language_census(cfg.order, b)
    print(f"  census n<={cfg.order}: {census}")

    z = zeta_transformation(b, cfg.order, assume_nonperiodic=not d.is_periodic)
    print(f"  zeta coefficients: {z.as_ints()}")

    rep = verify_identities(b, order=cfg.order)
    bad = {k: v["residual"] for k, v in rep.items() if v["residual"] != 0}
    print(f"  identity residuals: {'all zero' if not bad else bad}")

    sc = support_code(b, max_len=12)
    sums = kraft_partial_sums(sc.family, b)
    last = fe_float(sums[-1]) if sums else 0.0
    lvl = f" level {sc.level}" if sc.level is not None else ""
    print(f"  support code: {sc.kind}{lvl}  "
          f"({len(sc.family.words)} words <= 12, Kraft ~ {last:.4f})")

    try:
        n = cascade_classify(b)
    except IndexOutOfRange:
        n = None
    if n is not None:
        gs = all_gaps(b)
        print(f"  cascade level {n}, {len(gs)} gap interval(s) found:")
        for g in gs:
            lo, hi = fe_float(g.left), fe_float(g.right)
            print(f"    k={g.k} i={g.i}: ({lo:.6f}, {hi:.6f})")
    print()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--beta", action="append", dest="bases",
                    help="base to survey (rational p/q, 'golden', 'plastic',"
                         " 'gamma:N'); repeatable")
    ap.add_argument("--order", type=int, default=8)
    ap.add_argument("--horizon", type=int, default=2048)
    args = ap.parse_args()
    cfg = SurveyConfig(bases=args.bases or list(DEFAULT_BASES),
                       order=args.order, horizon=args.horizon)
    for name in cfg.bases:
        # one run per base: its references are expanded to the horizon, and
        # all the run keeps is dropped once its block is printed
        with at_horizon(cfg.horizon):
            survey_one(name, cfg)


if __name__ == "__main__":
    main()
