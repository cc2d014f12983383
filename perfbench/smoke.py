"""The benchmark's own smoke test, at tiny sizes (well under a minute).

    python3 perfbench/smoke.py

1. Each workload runs end to end, untraced and traced, on tiny inputs: every
   operation succeeds, every checker accepts, and every metric is printed.
2. Each checker rejects a deliberately corrupted copy of a real output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def corrupt(out):
    """A wrong copy of an in-process operation's output."""
    if isinstance(out, bool):
        return not out
    if isinstance(out, int):
        return out + 1
    if isinstance(out, str):
        return out.replace('<line class="lap"', '<line class="gone"', 1)
    if isinstance(out, dict):
        name = next(iter(out))
        return {**out, name: {**out[name], "residual": Fraction(1)}}
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], bool):
        return corrupt(out[0]), out[1]
    if isinstance(out, list) and out and isinstance(out[0], tuple) and len(out[0]) == 2:
        ws, sums = out[0]
        return [(ws, sums[:-1] + [sums[-1] + 1])] + out[1:]
    if isinstance(out, (list, tuple)) and out and isinstance(out[0], tuple):
        k, i, li, ri, (lo, hi), right = out[0]
        return [(k, i, li, ri, (lo + 1, hi + 1), right)] + list(out[1:])
    if isinstance(out, (list, tuple)):
        return list(out[:-1]) + [out[-1] + 1]
    if hasattr(out, "words"):
        return dataclasses.replace(out, words=out.words[:-1])
    if hasattr(out, "seq"):
        seq = out.seq
        if seq.prefix:
            pre = ((seq.prefix[0] + 1) % (max(seq.prefix) + 2),) + tuple(seq.prefix[1:])
            return dataclasses.replace(out, seq=type(seq)(pre, seq.period))
        per = ((seq.period[0] + 1) % (max(seq.period) + 2),) + tuple(seq.period[1:])
        return dataclasses.replace(out, seq=type(seq)((), per))
    raise TypeError(f"no corruption for {type(out).__name__}")


def corrupt_cli(argv, code, out, text):
    """A wrong copy of one command's (exit code, stdout, file text)."""
    cmd = argv[0]
    if cmd == "plot":
        return code, out, corrupt(text)
    p = json.loads(out)
    if cmd == "expand":
        digits = p["expansion"]["digits"]
        p["expansion"]["digits"] = ("2" if digits[0] != "2" else "0") + digits[1:]
    elif cmd == "classify":
        p["beta_ge_golden"] = not p["beta_ge_golden"]
    elif cmd == "codes":
        p["gamma"]["words"] = p["gamma"]["words"][:-1]
    elif cmd == "gaps":
        p["cascade_level"] += 1
    elif cmd == "verify":
        first = next(iter(p["identities"]))
        p["identities"][first]["residual"] = "1"
    else:
        key = {"complexity": "complexity", "laps": "laps", "zeta": "zeta_shift",
               "periodic-points": "counts"}[cmd]
        p[key][-1] = str(int(p[key][-1]) + 1)
    return code, json.dumps(p), text


def check_runs() -> None:
    run.SETUP_PROBES = 1
    for workload in ("census", "field", "cli"):
        for trace in (False, True):
            res = run.run_workload(workload, 1, 0.2, trace, tiny=True)
            info, line = res.lines(trace)
            result = json.loads(line)
            assert result["correct"] and result["failed"] == 0, info
            want = ([n for n, _ in run.END_TO_END] if not trace
                    else [n for n, _, _ in spans.METRICS])
            assert list(result["metrics"]) == want, result["metrics"].keys()
            assert all(m["value"] >= 0 for m in result["metrics"].values())
            print(f"ok   {workload} trace={int(trace)} attempted={result['attempted']}")


def check_corruptions() -> None:
    nb = workloads.modules()
    slots, finp = gen.census_inputs(1, tiny=True), gen.field_inputs(1, tiny=True)
    bases = ([s.base for s in slots] + finp.algebraic + finp.rational + finp.cascade
             + [finp.plot_base])
    betas = {b.label: probe.build_base(nb.numerics, b.spec()) for b in bases}
    outputs: dict = {}
    ops = workloads.census_ops(nb, slots, betas) + workloads.field_ops(nb, finp, betas)
    for op in ops:
        outputs[op.name] = op.call()
    for op in ops:
        op.check(outputs[op.name])
        try:
            op.check(corrupt(outputs[op.name]))
        except checks.Mismatch:
            continue
        raise AssertionError(f"{op.name}: checker accepted a corrupted output")
    print(f"ok   {len(ops)} in-process checkers reject corrupted outputs")

    cinp = gen.cli_inputs(1, run.OUT_DIR)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    import negabeta.cli
    results = []
    for argv in cinp.commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = negabeta.cli.main(argv)
        text = open(argv[-1]).read() if argv[0] == "plot" else None
        results.append((code, buf.getvalue(), text))
    assert not workloads.check_cli_round(cinp, results)
    for i, argv in enumerate(cinp.commands):
        bad = list(results)
        bad[i] = corrupt_cli(argv, *results[i])
        errors = workloads.check_cli_round(cinp, bad)
        assert errors and errors[0].startswith(" ".join(argv)), (argv, errors)
    print(f"ok   {len(cinp.commands)} command checkers reject corrupted outputs")


if __name__ == "__main__":
    check_runs()
    check_corruptions()
    print("smoke test passed")
