"""The operations of each workload.

An operation is a call into negabeta on generated inputs plus the checker
for its output.  Operations look the program's functions up at call time
(`nb.language.language_census`, ...), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

import checks
import exact
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCH = os.path.join(HERE, "launch.py")
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def modules() -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module(f"negabeta.{m}")
                              for m in ("numerics", "expansion", "language", "codes",
                                        "series", "gaps", "plot")})


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def census_ops(nb, slots: list[gen.CensusSlot], betas: dict) -> list[Op]:
    lang, ser = nb.language, nb.series
    ops: list[Op] = []
    for s in slots:
        B = betas[s.base.label]
        depth = max(s.series, s.census, s.enumerate) + 2
        t = functools.cache(lambda base=s.base, depth=depth: checks.Truth(base, depth))
        p = f"census/{s.base.label}/"
        ops += [
            Op(p + "census-corrected",
               lambda B=B, n=s.census: lang.language_census(n, B, lang.Variant.CORRECTED),
               lambda r, t=t, n=s.census: checks.check_census(t(), n, r, True)),
            Op(p + "census-ito-sadahiro",
               lambda B=B, n=s.census: lang.language_census(n, B, lang.Variant.ITO_SADAHIRO),
               lambda r, t=t, n=s.census: checks.check_census(t(), n, r, False)),
            Op(p + "enumerate",
               lambda B=B, n=s.enumerate: lang.enumerate_words(n, B),
               lambda r, t=t, n=s.enumerate: checks.check_words(t(), n, r)),
            Op(p + "periodic-shift",
               lambda B=B, n=s.periodic: lang.count_periodic_points(n, B, lang.PeriodTarget.SHIFT),
               lambda r, t=t, n=s.periodic: checks.check_periodic(t(), n, r, True)),
            Op(p + "periodic-transformation",
               lambda B=B, n=s.periodic: lang.count_periodic_points(
                   n, B, lang.PeriodTarget.TRANSFORMATION),
               lambda r, t=t, n=s.periodic: checks.check_periodic(t(), n, r, False)),
            Op(p + "complexity",
               lambda B=B, n=s.series: lang.factor_complexity(
                   n, lang.Reference.for_beta(B).d_star),
               lambda r, t=t, n=s.series: checks.check_series(
                   r, exact.complexity(t().d_star, n))),
            Op(p + "laps",
               lambda B=B, n=s.series: ser.lap_series(B, n).coeffs,
               lambda r, t=t, n=s.series: checks.check_series(
                   r, exact.lap_numbers(t().d_star, n))),
            Op(p + "zeta-transformation",
               lambda B=B, n=s.series: ser.zeta_transformation(
                   B, n, assume_nonperiodic=True).coeffs,
               lambda r, t=t, n=s.series: checks.check_series(r, exact.zeta(t().d, n, False))),
            Op(p + "zeta-shift",
               lambda B=B, n=s.series: ser.zeta_shift(B, n, assume_nonperiodic=True).coeffs,
               lambda r, t=t, n=s.series: checks.check_series(r, exact.zeta(t().d, n, True))),
            Op(p + "verify-identities",
               lambda B=B, n=s.verify: ser.verify_identities(B, n),
               checks.check_identities),
        ]
    return ops


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

def field_ops(nb, inp: gen.FieldInputs, betas: dict) -> list[Op]:
    exp, lang, codes, num = nb.expansion, nb.language, nb.codes, nb.numerics
    H = inp.horizon
    ops: list[Op] = []
    truths: dict = {}   # base label -> Truth built on first use, while checking

    def expand_and_test(B, x):
        """Expand x and test its digit string for membership."""
        e = exp.expand(num.l_beta(B) if x == "l" else x, B, H)
        return e, lang.is_admissible_word(checks.unrolled(e, H), B)

    def check_expand_and_test(t, x, out):
        e, member = out
        checks.check_expansion(t(), x, e, H)
        if x == "l" and t().quad is None:
            # an algebraic base's d is its validated expansion of l_beta
            t().adopt_d(checks.digits_of(e.seq))
        checks.check_membership(t(), checks.unrolled(e, H), member)

    def kraft_sums(B):
        d = lang.Reference.for_beta(B).d
        out = []
        for ws in (codes.build_gamma(codes.working_stream(d), inp.kraft_length).gamma,
                   codes.build_code_C(B, inp.kraft_length)):
            out.append((ws, codes.kraft_partial_sums(ws, B)))
        return out

    for base in inp.algebraic + inp.rational:
        B = betas[base.label]
        t = truths[base.label] = functools.cache(lambda base=base: checks.Truth(base, H))
        p = f"field/{base.label}/"
        for j, x in enumerate(["l"] + inp.points[base.label]):
            ops.append(Op(p + ("expand-l" if x == "l" else f"expand-x{j}"),
                          lambda B=B, x=x: expand_and_test(B, x),
                          lambda r, t=t, x=x: check_expand_and_test(t, x, r)))
        if base.label in inp.kraft_bases:
            ops.append(Op(p + "kraft", lambda B=B: kraft_sums(B),
                          lambda r, t=t: [checks.check_kraft(t(), *pair) for pair in r]))

    for base in inp.cascade:
        B = betas[base.label]
        t = functools.cache(lambda base=base: checks.Truth(base, 0))

        def gap_rows(B=B):
            rows = []
            for g in nb.gaps.all_gaps(B):
                le, re_ = g.enclosure()
                rows.append((g.k, g.i, g.left_index, g.right_index,
                             (le.lo, le.hi), (re_.lo, re_.hi)))
            return rows
        ops.append(Op(f"field/{base.label}/gap-enclosures", gap_rows,
                      lambda r, t=t: checks.check_gap_enclosures(t(), r)))

    # the plotted base is the degree-3 field base; its d comes from that
    # base's validated expansion of l_beta
    B = betas[inp.plot_base.label]
    ops.append(Op("field/plot", lambda B=B: nb.plot.plot_tn(B, inp.plot_iterate),
                  lambda r: checks.check_plot(truths["deg3"](), inp.plot_iterate, r)))
    return ops


# ---------------------------------------------------------------------------
# cli: one fresh process per command
# ---------------------------------------------------------------------------

def launch(argv: list[str], report_path: str, trace: bool) -> tuple[int, str, float, float]:
    """Run one command through the launcher; (exit code, stdout, start, end)."""
    cmd = [sys.executable, LAUNCH, report_path, "1" if trace else "0", *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    t1 = time.perf_counter()
    if proc.returncode not in (0, 2):
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, proc.stdout, t0, t1


def children_peak_rss_mb() -> float:
    """Peak resident memory of the largest child waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cli_checker(inp: gen.CliInputs) -> checks.CliChecker:
    bases = {b.cli_args()[0].split("=", 1)[1]: b for b in inp.bases.values()}
    return checks.CliChecker(bases)


def check_cli_round(inp: gen.CliInputs, results: list[tuple[int, str, str | None]]
                    ) -> list[str]:
    """Check every command of a round; expand runs first so that classify at
    the same algebraic base can use its validated digits.  Returns errors."""
    checker = cli_checker(inp)
    errors = []
    order = sorted(range(len(inp.commands)), key=lambda i: inp.commands[i][0] != "expand")
    for i in order:
        argv = inp.commands[i]
        code, out, text = results[i]
        try:
            checker.check(argv, code, out, text)
        except (checks.Mismatch, ValueError, KeyError, TypeError) as e:
            errors.append(f"{' '.join(argv)}: {type(e).__name__}: {e}")
    return errors
