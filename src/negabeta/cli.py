"""Command-line interface.

Every subcommand prints deterministic JSON (sorted keys) except `plot`,
which prints SVG.  Exit codes: 0 = complete answer, 2 = partial answer
(something was undecidable at the digit horizon), 1 = error.  The digit
horizon honours the NEGABETA_MAX_HORIZON environment variable as a cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import codes, gaps, language, series
from .errors import (HorizonTooShort, NegabetaError, ParseFailure,
                     UndecidedAtHorizon)
from .expansion import expand, l_beta
from .language import PeriodTarget, Reference, Variant
from .numerics import BetaSpec, beta_from_poly, beta_from_rational, from_rational
from .order import format_digits, parse_digits
from .plot import plot_tn
from .wordset import WordSet

PARTIAL_EXIT = 2


@dataclass
class JobConfig:
    """Run parameters shared by the subcommands."""
    beta: BetaSpec
    horizon: int = 512
    order: int = 32
    length: int = 12
    variant: Variant = Variant.CORRECTED
    horizon_capped: bool = False  # NEGABETA_MAX_HORIZON is set


def parse_beta(text: str, poly: str | None = None,
               interval: str | None = None) -> BetaSpec:
    if poly is not None:
        coeffs = [int(c) for c in poly.split(",")]
        lo, hi = (Fraction(t) for t in (interval or "1,16").split(","))
        return beta_from_poly(coeffs, lo, hi)
    text = text.strip()
    if text == "golden":
        return gaps.gamma_n(0)
    if text.startswith("gamma:"):
        return gaps.gamma_n(int(text.split(":", 1)[1]))
    try:
        if "/" in text:
            p, q = text.split("/")
            return beta_from_rational(int(p), int(q))
        frac = Fraction(text)
        return beta_from_rational(frac.numerator, frac.denominator)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseFailure(f"cannot parse base {text!r}") from e


def _emit(obj, out=None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _seq_json(seq) -> dict:
    return {
        "digits": format_digits(seq.prefix, seq.period),
        "periodic": seq.is_periodic,
        "preperiod": len(seq.prefix),
        "period": len(seq.period) if seq.is_periodic else None,
    }


def _series_json(s: series.IntSeries) -> list[str]:
    return [str(c.numerator) if c.denominator == 1 else str(c)
            for c in s.coeffs]


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (payload dict, partial flag)
# ---------------------------------------------------------------------------

def cmd_expand(cfg: JobConfig, args) -> tuple[dict, bool]:
    if args.x is None:
        x = l_beta(cfg.beta)
    else:
        try:
            x = from_rational(cfg.beta, Fraction(args.x))
        except (ValueError, ZeroDivisionError) as e:
            raise ParseFailure(f"cannot parse point {args.x!r}") from e
    digits = args.digits or cfg.horizon
    e = expand(x, cfg.beta,
               min(digits, cfg.horizon) if cfg.horizon_capped else digits)
    return {
        "schema": 1,
        "integer_part_length": e.int_len,
        "expansion": _seq_json(e.seq),
    }, not e.seq.is_periodic


def cmd_classify(cfg: JobConfig, args) -> tuple[dict, bool]:
    c = language.classify(cfg.beta, cfg.horizon)
    return {
        "schema": 1,
        "beta_ge_golden": c.beta_ge_golden,
        "odd_period": c.odd_period,
        "shift_coded": c.shift_coded,
        "corrected_shift_coded": c.corrected_shift_coded,
        "transitive": c.transitive,
        "witness": format_digits(c.witness) if c.witness else None,
    }, False


def cmd_codes(cfg: JobConfig, args) -> tuple[dict, bool]:
    ref = Reference.for_beta(cfg.beta, cfg.horizon)
    stream = codes.working_stream(ref.d)
    gam = codes.build_gamma(stream, cfg.length)
    bs = codes.block_structure(stream, scan_to=max(4 * cfg.length + 8, 64)
                               if stream.is_periodic else len(stream.prefix))
    payload = {
        "schema": 1,
        "blocks": [{"n": b.n, "p": b.p} for b in bs.blocks],
        "blocks_complete": bs.complete,
        "gamma": gam.gamma.to_json(),
        "gamma0": gam.gamma0.to_json(),
        "gamma0_prime": gam.gamma0_prime.to_json(),
        "gamma1": gam.gamma1.to_json(),
        "gamma1_prime": gam.gamma1_prime.to_json(),
        "delta_odd": codes.build_delta_odd(stream, cfg.length).to_json(),
        "delta_evn": codes.build_delta_evn(stream, cfg.length).to_json(),
        "code_c": codes.build_code_C(cfg.beta, cfg.length, cfg.horizon).to_json(),
        "delta_i": {
            str(i): codes.build_delta_i(stream, i, cfg.length).to_json()
            for i in codes.delta_i_indices(stream, cfg.length)
        },
    }
    sc = codes.support_code(cfg.beta, cfg.length, cfg.horizon)
    payload["support_code"] = {"kind": sc.kind, "level": sc.level}
    return payload, False


def cmd_complexity(cfg: JobConfig, args) -> tuple[dict, bool]:
    ref = Reference.for_beta(cfg.beta, cfg.horizon)
    h = language.factor_complexity(cfg.order, ref.d_star)
    return {"schema": 1, "complexity": [str(v) for v in h]}, False


def cmd_laps(cfg: JobConfig, args) -> tuple[dict, bool]:
    s = series.lap_series(cfg.beta, cfg.order, cfg.horizon)
    return {"schema": 1, "laps": _series_json(s)}, False


def cmd_zeta(cfg: JobConfig, args) -> tuple[dict, bool]:
    ref = Reference.for_beta(cfg.beta, cfg.horizon)
    partial = not ref.d.is_periodic
    zt = series.zeta_transformation(cfg.beta, cfg.order, cfg.horizon,
                                    assume_nonperiodic=partial)
    zs = series.zeta_shift(cfg.beta, cfg.order, cfg.horizon,
                           assume_nonperiodic=partial)
    return {
        "schema": 1,
        "d_certified_periodic": ref.d.is_periodic,
        "zeta_transformation": _series_json(zt),
        "zeta_shift": _series_json(zs),
    }, partial


def cmd_periodic_points(cfg: JobConfig, args) -> tuple[dict, bool]:
    target = PeriodTarget(args.target)
    counts = [language.count_periodic_points(n, cfg.beta, target, cfg.horizon)
              for n in range(1, args.n + 1)]
    return {"schema": 1, "target": target.value,
            "counts": [str(c) for c in counts]}, False


def cmd_gaps(cfg: JobConfig, args) -> tuple[dict, bool]:
    level = gaps.cascade_classify(cfg.beta)
    dec = gaps.decompose_expansion(cfg.beta, min(cfg.horizon, 256))
    out_gaps = []
    for g in gaps.all_gaps(cfg.beta):
        le, re_ = g.enclosure()
        out_gaps.append({
            "k": g.k, "i": g.i,
            "left_orbit_index": g.left_index,
            "right_orbit_index": g.right_index,
            "left": [str(le.lo), str(le.hi)],
            "right": [str(re_.lo), str(re_.hi)],
        })
    u, v = gaps.morphism_words(level)
    return {
        "schema": 1,
        "cascade_level": level,
        "u": format_digits(u),
        "v": format_digits(v),
        "parse_tokens": "".join(dec.tokens),
        "parse_exhausted": dec.exhausted,
        "gaps": out_gaps,
    }, dec.exhausted


def cmd_verify(cfg: JobConfig, args) -> tuple[dict, bool]:
    order = args.n if args.n is not None else min(cfg.order, 16)
    report = series.verify_identities(cfg.beta, order, cfg.horizon)
    ok = all(r["residual"] == 0 for r in report.values())
    return {
        "schema": 1,
        "identities": {
            name: {"order": r["order"], "residual": str(r["residual"])}
            for name, r in report.items()
        },
        "all_zero": ok,
    }, not ok


def cmd_plot(cfg: JobConfig, args) -> tuple[str, bool]:
    return plot_tn(cfg.beta, args.n, cfg.horizon), False


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--beta", default="2",
                        help="base: p/q, decimal, 'golden', or 'gamma:<n>'")
    shared.add_argument("--poly", help="comma-separated polynomial coefficients"
                                       " (ascending) defining the base")
    shared.add_argument("--interval", help="lo,hi isolating interval for --poly")
    shared.add_argument("--horizon", type=int, default=512,
                        help="digit horizon for expansions (default 512)")
    shared.add_argument("--order", type=int, default=32,
                        help="series truncation order (default 32)")
    shared.add_argument("--length", type=int, default=12,
                        help="word-length bound for family enumeration "
                             "(default 12)")
    shared.add_argument("--variant", choices=["ito", "corrected"],
                        default="corrected")
    shared.add_argument("--out", help="write output to a file instead of stdout")

    ap = argparse.ArgumentParser(
        prog="negabeta",
        description="Exact negative-base expansions and their symbolic dynamics")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[shared],
                       help="digit expansion of a point")
    p.add_argument("--x", help="rational point (default: left endpoint)")
    p.add_argument("--digits", type=int, help="number of digits")

    sub.add_parser("classify", parents=[shared],
                   help="coded / transitive classification")
    sub.add_parser("codes", parents=[shared],
                   help="block structure and code families")
    sub.add_parser("complexity", parents=[shared],
                   help="factor complexity H_1..H_order")
    sub.add_parser("laps", parents=[shared], help="lap numbers of T^n")
    sub.add_parser("zeta", parents=[shared],
                   help="zeta functions of T and the shift")

    p = sub.add_parser("periodic-points", parents=[shared],
                       help="periodic point counts")
    p.add_argument("--target", choices=["shift", "transformation"],
                   default="transformation")
    p.add_argument("--n", type=int, default=6, help="count up to period n")

    sub.add_parser("gaps", parents=[shared],
                   help="cascade level, parse and gap intervals")

    p = sub.add_parser("verify", parents=[shared],
                       help="check the structural identities")
    p.add_argument("--n", type=int, default=None,
                   help="order to verify to (default: --order)")

    p = sub.add_parser("plot", parents=[shared], help="SVG graph of T^n")
    p.add_argument("--iterate", "--n", dest="n", type=int, default=1,
                   help="which iterate of T to draw")
    return ap


_COMMANDS = {
    "expand": cmd_expand,
    "classify": cmd_classify,
    "codes": cmd_codes,
    "complexity": cmd_complexity,
    "laps": cmd_laps,
    "zeta": cmd_zeta,
    "periodic-points": cmd_periodic_points,
    "gaps": cmd_gaps,
    "verify": cmd_verify,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        horizon = args.horizon
        cap = os.environ.get("NEGABETA_MAX_HORIZON")
        if cap is not None:
            horizon = min(horizon, int(cap))
        if horizon < max(args.order, args.length):
            raise ParseFailure(
                f"horizon {horizon} is below max(order, length) = "
                f"{max(args.order, args.length)}")
        beta = parse_beta(args.beta, args.poly, args.interval)
        cfg = JobConfig(beta=beta, horizon=horizon, order=args.order,
                        length=args.length,
                        variant=Variant.ITO_SADAHIRO if args.variant == "ito"
                        else Variant.CORRECTED,
                        horizon_capped=cap is not None)
        payload, partial = _COMMANDS[args.command](cfg, args)
    except (NegabetaError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if isinstance(payload, str):
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        else:
            print(payload)
    else:
        _emit(payload, args.out)
    return PARTIAL_EXIT if partial else 0


if __name__ == "__main__":
    sys.exit(main())
