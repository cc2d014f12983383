"""negabeta benchmark.

    python3 perfbench/run.py --workload {cli,census,field} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Prints diagnostics, then as its last line
one JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  All times are
in reference-speed seconds (see clock.py); the line before the result
carries the raw seconds and the measured kernel time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import clock as clockmod  # noqa: E402
import gen  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7          # fresh interpreters timed for setup_s (after one warm-up)

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
]


def read_report(path: str):
    """The JSON a child process left, removed after reading."""
    with open(path) as fh:
        data = json.load(fh)
    os.remove(path)
    return data


def measure_setup(specs: list[dict]) -> tuple[float, float]:
    """Median (reference, raw) seconds of a fresh interpreter importing
    negabeta.cli and building the bases.  One untimed probe runs first, so
    that bytecode caches exist in a fresh checkout."""
    report = os.path.join(OUT_DIR, "probe.json")
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), report, json.dumps(specs)]
    subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=120)
    refs, raws = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=120)
        t1 = time.perf_counter()
        refs.append(clockmod.Clock.from_json(read_report(report)).ref(t0, t1))
        raws.append(t1 - t0)
    return statistics.median(refs), statistics.median(raws)


class Result:
    def __init__(self, workload: str, seed: int):
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, float] = {}
        self.info: dict = {"workload": workload, "seed": seed}

    def lines(self, trace: bool) -> tuple[str, str]:
        units = dict(END_TO_END) if not trace else {n: u for n, u, _ in spans.METRICS}
        metrics = {name: {"value": self.metrics[name], "unit": unit}
                   for name, unit in units.items()}
        self.info["errors"] = self.errors[:20]
        return json.dumps(self.info), json.dumps({
            "correct": not self.errors, "attempted": self.attempted,
            "failed": self.failed, "metrics": metrics})


# ---------------------------------------------------------------------------
# in-process workloads: census and field
# ---------------------------------------------------------------------------

def run_round(ops, outputs: dict, res: Result) -> tuple[float, float, list]:
    times = []
    r0 = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as e:  # a failed operation is counted, not fatal
            out = e
            res.failed += 1
        t1 = time.perf_counter()
        outputs[op.name] = out
        times.append((t0, t1))
    res.attempted += len(ops)
    return r0, time.perf_counter(), times


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool, res: Result) -> None:
    if workload == "census":
        slots = gen.census_inputs(seed, tiny)
        bases = [s.base for s in slots]
    else:
        inp = gen.field_inputs(seed, tiny)
        bases = inp.algebraic + inp.rational + inp.cascade + [inp.plot_base]
    setup_s, setup_raw = measure_setup([b.spec() for b in bases])

    nb = workloads.modules()
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
    clock = clockmod.Clock("fraction")
    clock.start_timer()
    betas = {b.label: probe.build_base(nb.numerics, b.spec()) for b in bases}
    outputs: dict = {}
    ops = (workloads.census_ops(nb, slots, betas) if workload == "census"
           else workloads.field_ops(nb, inp, betas))

    run_round(ops, outputs, res)          # warm-up: caches fill, outputs kept
    first = dict(outputs)
    mark = len(tracer.spans) if tracer else 0
    rounds, changed, peak = [], {}, 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        gc.collect()  # every round starts without the previous round's garbage
        rounds.append(run_round(ops, outputs, res))
        for op in ops:
            if outputs[op.name] != first[op.name]:
                changed.setdefault(op.name, outputs[op.name])
        # read after a fixed amount of work, so it does not grow with the
        # number of rounds a fast host fits in
        peak = peak or workloads.self_peak_rss_mb()
    clock.stop_timer()

    for op in ops:
        for out in [first[op.name]] + ([changed[op.name]] if op.name in changed else []):
            if isinstance(out, Exception):
                res.errors.append(f"{op.name}: raised {out!r}")
                break
            try:
                op.check(out)
            except Exception as e:  # checker errors are reported, not fatal
                res.errors.append(f"{op.name}: {type(e).__name__}: {e}")
                break

    ref, raw = clock.ref, lambda a, b: b - a
    op_times = [(a, b) for _r0, _r1, ts in rounds for a, b in ts]
    res.metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(ref(r0, r1) for r0, r1, _ in rounds),
        "op_p50_s": statistics.median(ref(a, b) for a, b in op_times),
        "peak_rss_mb": peak,
    }
    res.info.update({
        "rounds": len(rounds), "ops_per_round": len(ops),
        "round_wall_s": [ref(r0, r1) for r0, r1, _ in rounds],
        "round_raw_s": [raw(r0, r1) for r0, r1, _ in rounds],
        "kernel_median_s": clock.kernel_median(), "k_nominal_s": clock.nominal,
        "raw": {"setup_s": setup_raw,
                "wall_s": statistics.median(raw(r0, r1) for r0, r1, _ in rounds),
                "op_p50_s": statistics.median(raw(a, b) for a, b in op_times)},
    })
    if tracer:
        setup_totals, totals = spans.LayerTotals(), spans.LayerTotals()
        setup_totals.add(tracer.spans[:mark], ref)
        totals.add(tracer.spans[mark:], ref, offset=mark)
        res.info["traced_wall_s"] = res.metrics["wall_s"]
        res.metrics = totals.metrics(len(rounds), setup_totals)
        spans.dump(tracer.spans, os.path.join(OUT_DIR, f"trace-{workload}-{seed}.tsv.gz"))


# ---------------------------------------------------------------------------
# cli: every command in a fresh process with its own kernel interleaving
# ---------------------------------------------------------------------------

def run_cli(seed: int, seconds: float, trace: bool, tiny: bool, res: Result) -> None:
    inp = gen.cli_inputs(seed, OUT_DIR, tiny)
    setup_s, setup_raw = measure_setup([])
    totals, all_spans = spans.LayerTotals(), []
    report = os.path.join(OUT_DIR, "launch.json")
    first = None
    rounds: list[list[tuple[float, float]]] = []   # (reference, raw) per command
    kernels: list[float] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        times, results = [], []
        for argv in inp.commands:
            res.attempted += 1
            try:
                code, out, t0, t1 = workloads.launch(argv, report, trace)
            except subprocess.TimeoutExpired:
                res.failed += 1
                results.append((-1, "", None))
                continue
            if code not in (0, 2):
                res.failed += 1
            data = read_report(report)
            clock = clockmod.Clock.from_json(data["ticks"])
            kernels.append(clock.kernel_median())
            times.append((clock.ref(t0, t1), t1 - t0))
            text = None
            if argv[0] == "plot":
                with open(argv[argv.index("--out") + 1]) as fh:
                    text = fh.read()
            results.append((code, out, text))
            if trace:
                totals.add(data["spans"], clock.ref)
                totals.import_s += clock.ref(*data["import"])
                offset = len(all_spans)  # parent indices become global
                all_spans += [[k, a, b, p + offset if p >= 0 else -1, c]
                              for k, a, b, p, c in data["spans"]]
        rounds.append(times)
        if first is None:
            first = results
            res.errors += workloads.check_cli_round(inp, results)
        elif results != first:
            res.errors += workloads.check_cli_round(inp, results)
    peak = workloads.children_peak_rss_mb()

    res.metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(r for r, _ in ts) for ts in rounds),
        "op_p50_s": statistics.median(r for ts in rounds for r, _ in ts),
        "peak_rss_mb": peak,
    }
    res.info.update({
        "rounds": len(rounds), "ops_per_round": len(inp.commands),
        "kernel_median_s": statistics.median(kernels),
        "k_nominal_s": clockmod.KERNELS["startup"][1],
        "raw": {"setup_s": setup_raw,
                "wall_s": statistics.median(sum(w for _, w in ts) for ts in rounds),
                "op_p50_s": statistics.median(w for ts in rounds for _, w in ts)},
    })
    if trace:
        res.info["traced_wall_s"] = res.metrics["wall_s"]
        res.metrics = totals.metrics(len(rounds), totals)
        spans.dump(all_spans, os.path.join(OUT_DIR, f"trace-cli-{seed}.tsv.gz"))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> Result:
    os.makedirs(OUT_DIR, exist_ok=True)
    res = Result(workload, seed)
    if workload == "cli":
        run_cli(seed, seconds, trace, tiny, res)
    else:
        run_inprocess(workload, seed, seconds, trace, tiny, res)
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["cli", "census", "field"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        import negabeta.cli  # noqa: F401
    except ImportError as e:
        print(f"error: cannot import negabeta from {ROOT}/src: {e}", file=sys.stderr)
        return 2
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    info, result = res.lines(bool(args.trace))
    print(info)
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
