"""Command-line interface.

Every subcommand prints deterministic JSON (sorted keys) except `plot`,
which prints SVG.  Exit codes: 0 = complete answer, 2 = partial answer
(something was undecidable at the digit horizon), 1 = error, including a
usage error (argparse's own exit code 2 is mapped to 1) and running out of
memory, or asking for a table larger than any address space (an integer
base of 10^30 has 10^30 + 1 digits).  The environment variable
NEGABETA_MAX_HORIZON caps the digit horizon and `expand --digits`; each
command runs under `language.at_horizon` at that horizon.

Every subcommand takes the base (`--beta`, or `--poly` with `--interval`),
`--horizon` and `--out`, and besides them only the options its body reads;
`--horizon` must cover `--order`, `--length` or `--iterate` where one exists.

Each command loads only the layers it runs: `codes`, `gaps`, `series` and
`plot` are bound lazily (`numerics.lazy_module`), so a module is compiled
and run when a command first reads one of its names; `expand`,
`classify` and `complexity` run none of them.  `golden` and `gamma:N` are
built by `language.gamma_n`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from fractions import Fraction

from . import language
from .errors import (HorizonTooShort, NegabetaError, ParseFailure,
                     UndecidedAtHorizon)
from .expansion import expand, l_beta, never_closes
from .language import PeriodTarget, Reference, at_horizon
from .numerics import (BetaSpec, beta_from_poly, beta_from_rational,
                       from_rational, lazy_module)
from .order import format_digits

codes = lazy_module(f"{__package__}.codes")
gaps = lazy_module(f"{__package__}.gaps")
series = lazy_module(f"{__package__}.series")
plot = lazy_module(f"{__package__}.plot")

PARTIAL_EXIT = 2

# the largest degree of X^l - X - 1 that `--beta gamma:N` builds: gamma_8
# (degree 342).  Its d agrees with u_8 v_8^inf through digit 512, so
# `gaps --beta gamma:8` answers with no level (exit 2) after about 0.8 s on
# a 2-core Xeon, and finds it only with `--horizon 1200`, in about 1.1 s;
# gamma_9 (683) takes 17 s and gamma_10 (1366) 104 s, nearly all of it
# field arithmetic
GAMMA_MAX_DEGREE = 342


def parse_beta(text: str, poly: str | None = None,
               interval: str | None = None) -> BetaSpec:
    if poly is not None:
        try:
            coeffs = [int(c) for c in poly.split(",")]
        except ValueError as e:
            raise ParseFailure(f"cannot parse --poly {poly!r}") from e
        try:
            lo, hi = (Fraction(t) for t in (interval or "1,16").split(","))
        except (ValueError, ZeroDivisionError) as e:
            raise ParseFailure(f"cannot parse --interval {interval!r}") from e
        return beta_from_poly(coeffs, lo, hi)
    text = text.strip()
    if text == "golden":
        return language.gamma_n(0)
    if text.startswith("gamma:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError as e:
            raise ParseFailure(f"cannot parse base {text!r}") from e
        u, v = 1, 2  # |u_0|, |v_0|; the degree of gamma_n is max(|u_n|, |v_n|)
        for _ in range(n):
            u, v = u + v, 2 * u
            if max(u, v) > GAMMA_MAX_DEGREE:
                raise ParseFailure(
                    f"gamma:{n} has degree above {GAMMA_MAX_DEGREE}")
        return language.gamma_n(n)
    try:
        if "/" in text:
            p, q = text.split("/")
            return beta_from_rational(int(p), int(q))
        frac = Fraction(text)
        return beta_from_rational(frac.numerator, frac.denominator)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseFailure(f"cannot parse base {text!r}") from e


def _seq_json(seq) -> dict:
    return {
        "digits": format_digits(seq.prefix, seq.period),
        "periodic": seq.is_periodic,
        "preperiod": len(seq.prefix),
        "period": len(seq.period) if seq.is_periodic else None,
    }


def _series_json(s: series.IntSeries) -> list[str]:
    return [str(c) for c in s.coeffs]


# ---------------------------------------------------------------------------
# subcommand bodies: each reads the parsed arguments, with the base parsed
# into args.beta, and returns (payload dict, partial flag)
# ---------------------------------------------------------------------------

def cmd_expand(args) -> tuple[dict, bool]:
    if args.x is None:
        x = l_beta(args.beta)
    else:
        try:
            x = from_rational(args.beta, Fraction(args.x))
        except (ValueError, ZeroDivisionError) as e:
            raise ParseFailure(f"cannot parse point {args.x!r}") from e
    digits = args.horizon if args.digits is None else args.digits
    e = expand(x, args.beta, digits)
    return {
        "integer_part_length": e.int_len,
        "expansion": _seq_json(e.seq),
    }, not e.seq.is_periodic


def _horizon_reason(beta) -> dict:
    """Why an answer stops at the horizon: the digits of d read."""
    return {"kind": "horizon",
            "at_digit": len(Reference.for_beta(beta).d.prefix)}


def cmd_classify(args) -> tuple[dict, bool]:
    d = Reference.for_beta(args.beta).d
    reason = _horizon_reason(args.beta)
    try:
        c = language.classify(args.beta)
    except UndecidedAtHorizon:  # d ties a threshold through the horizon
        verdict = (f.name for f in fields(language.Classification))
        return {**dict.fromkeys(verdict), "partial_reason": reason}, True
    payload = {**asdict(c),
               "witness": format_digits(c.witness) if c.witness else None}
    # above the golden ratio an odd period of d decides the last four, so
    # an open d answers them only where it can never close
    if c.beta_ge_golden and not (d.is_periodic or never_closes(args.beta)):
        payload.update(dict.fromkeys(
            ("odd_period", "shift_coded", "transitive", "witness")),
            partial_reason=reason)
    return payload, "partial_reason" in payload


def cmd_codes(args) -> tuple[dict, bool]:
    ref = Reference.for_beta(args.beta)
    stream = ref.d_star
    gam = codes.build_gamma(stream, args.length)
    reasons = {}  # why the answer is partial, under its payload key
    try:  # a truncated d is listed to the horizon
        bs = (codes.family_blocks(stream, args.length) if stream.is_periodic
              else codes.block_structure(stream, len(stream.prefix)))
    except HorizonTooShort as e:  # its last block is still open there
        bs, reasons["blocks_open"] = codes.family_blocks(stream, args.length), str(e)
    sc = None
    try:
        sc = codes.support_code(args.beta, args.length)
    except UndecidedAtHorizon as e:  # a deep level needs more digits
        reasons["support_code_undecided"] = str(e)
    code_c = (sc.family if sc is not None and sc.kind == "CFull"
              else codes.build_code_C(args.beta, args.length))
    payload = {
        "blocks": [{"n": b.n, "p": b.p} for b in bs.blocks],
        "blocks_complete": bs.complete,
        "gamma": gam.gamma.to_json(),
        "gamma0": gam.gamma0.to_json(),
        "gamma0_prime": gam.gamma0_prime.to_json(),
        "gamma1": gam.gamma1.to_json(),
        "gamma1_prime": gam.gamma1_prime.to_json(),
        "delta_odd": codes.build_delta_odd(stream, args.length).to_json(),
        "delta_evn": codes.build_delta_evn(stream, args.length).to_json(),
        "code_c": code_c.to_json(),
        "delta_i": {
            str(i): codes.build_delta_i(stream, i, args.length).to_json()
            for i in codes.delta_i_indices(stream, args.length)
        },
        "support_code": (None if sc is None
                         else {"kind": sc.kind, "level": sc.level}),
        **reasons,
    }
    return payload, bool(reasons)


def cmd_complexity(args) -> tuple[dict, bool]:
    h = language.factor_complexity(args.order,
                                   Reference.for_beta(args.beta).d_star)
    return {"complexity": [str(v) for v in h]}, False


def cmd_laps(args) -> tuple[dict, bool]:
    s = series.lap_series(args.beta, args.order)
    return {"laps": _series_json(s)}, False


def cmd_zeta(args) -> tuple[dict, bool]:
    d = Reference.for_beta(args.beta).d
    zt = series.zeta_transformation(args.beta, args.order,
                                    assume_nonperiodic=not d.is_periodic)
    zs = series.zeta_shift(args.beta, args.order,
                           assume_nonperiodic=not d.is_periodic)
    payload = {
        "d_certified_periodic": d.is_periodic,
        "zeta_transformation": _series_json(zt),
        "zeta_shift": _series_json(zs),
    }
    # an open d is complete only where it can never close
    if not (d.is_periodic or never_closes(args.beta)):
        payload["partial_reason"] = _horizon_reason(args.beta)
    return payload, "partial_reason" in payload


def cmd_periodic_points(args) -> tuple[dict, bool]:
    target = PeriodTarget(args.target)
    counts = language.periodic_point_counts(args.n, args.beta, target)
    return {"target": target.value,
            "counts": [str(c) for c in counts]}, False


GAPS_KEYS = ("cascade_level", "u", "v", "parse_tokens", "parse_exhausted",
             "gaps")


def cmd_gaps(args) -> tuple[dict, bool]:
    try:
        dec = gaps.decompose_expansion(args.beta)
    except UndecidedAtHorizon:  # the level needs more digits of d
        return {**dict.fromkeys(GAPS_KEYS),
                "partial_reason": _horizon_reason(args.beta)}, True
    out_gaps = []
    for g in gaps.all_gaps(args.beta):
        le, re_ = g.enclosure()
        out_gaps.append({
            "k": g.k, "i": g.i,
            "left_orbit_index": g.left_index,
            "right_orbit_index": g.right_index,
            "left": [str(le.lo), str(le.hi)],
            "right": [str(re_.lo), str(re_.hi)],
        })
    u, v = language.morphism_words(dec.level)
    values = (dec.level, format_digits(u), format_digits(v),
              "".join(dec.tokens), dec.exhausted, out_gaps)
    return dict(zip(GAPS_KEYS, values, strict=True)), dec.exhausted


def cmd_verify(args) -> tuple[dict, bool]:
    report = series.verify_identities(args.beta, args.order)
    ok = all(r["residual"] == 0 for r in report.values())
    return {
        "identities": {
            name: {"order": r["order"], "residual": str(r["residual"])}
            for name, r in report.items()
        },
        "all_zero": ok,
    }, not ok


def cmd_plot(args) -> tuple[str, bool]:
    return plot.plot_tn(args.beta, args.iterate), False


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
    shared.add_argument("--out", help="write output to a file instead of stdout")

    ap = argparse.ArgumentParser(
        prog="negabeta",
        description="Exact negative-base expansions and their symbolic dynamics")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, body, help):
        p = sub.add_parser(name, parents=[shared], help=help)
        p.set_defaults(body=body)
        return p

    def with_order(p, default=32):
        p.add_argument("--order", type=int, default=default,
                       help=f"series truncation order (default {default})")

    p = command("expand", cmd_expand, "digit expansion of a point")
    p.add_argument("--x", help="rational point (default: left endpoint)")
    p.add_argument("--digits", type=int,
                   help="number of digits (default: --horizon)")
    command("classify", cmd_classify, "coded / transitive classification")
    p = command("codes", cmd_codes, "block structure and code families")
    p.add_argument("--length", type=int, default=12,
                   help="word-length bound for family enumeration (default 12)")
    with_order(command("complexity", cmd_complexity,
                       "factor complexity H_1..H_order"))
    with_order(command("laps", cmd_laps, "lap numbers of T^n"))
    with_order(command("zeta", cmd_zeta, "zeta functions of T and the shift"))
    p = command("periodic-points", cmd_periodic_points, "periodic point counts")
    p.add_argument("--target", choices=["shift", "transformation"],
                   default="transformation")
    p.add_argument("--n", type=int, default=6, help="count up to period n")
    command("gaps", cmd_gaps, "cascade level, parse and gap intervals")
    with_order(command("verify", cmd_verify, "check the structural identities"),
               default=16)
    p = command("plot", cmd_plot, "SVG graph of T^n")
    p.add_argument("--iterate", type=int, default=1,
                   help="which iterate of T to draw")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse printed the usage and an error: line
        return 1 if e.code else 0  # 0 after --help
    try:
        cap = os.environ.get("NEGABETA_MAX_HORIZON")
        if cap is not None:
            try:
                limit = int(cap)
            except ValueError:
                limit = -1
            if limit < 0:
                raise ParseFailure(f"cannot parse NEGABETA_MAX_HORIZON {cap!r}: "
                                   "need a non-negative integer")
            args.horizon = min(args.horizon, limit)
            if getattr(args, "digits", None) is not None:
                args.digits = min(args.digits, args.horizon)
        for name in ("horizon", "order", "length", "n", "iterate", "digits"):
            if (getattr(args, name, None) or 0) < 0:
                raise ParseFailure(f"--{name} is negative")
        for name in ("order", "length", "iterate"):  # where the command has one
            need = getattr(args, name, 0)
            if need > args.horizon:
                raise ParseFailure(f"horizon {args.horizon} is below --{name} {need}")
        args.beta = parse_beta(args.beta, args.poly, args.interval)
        with at_horizon(args.horizon):
            payload, partial = args.body(args)
        text = payload if isinstance(payload, str) else json.dumps(
            {"schema": 1, **payload}, sort_keys=True, indent=2, default=str)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except (NegabetaError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError):  # OverflowError: a size past ssize_t
        print("error: out of memory", file=sys.stderr)
        return 1
    return PARTIAL_EXIT if partial else 0


if __name__ == "__main__":
    sys.exit(main())
