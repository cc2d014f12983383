"""Runs one negabeta command in this process, as the console script does,
with the reference kernel interleaved (see clock.py).

    python3 perfbench/launch.py <report-file> <trace: 0 or 1> <negabeta arguments...>

The report file receives, as JSON, the kernel ticks, the start and end of
`import negabeta.cli` and, when traced, the spans.  The tracer's wrappers are
installed after the import.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import clock  # noqa: E402


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    ticks = clock.Clock("startup")
    ticks.start_timer()
    report: dict = {}
    try:
        t0 = time.perf_counter()
        import negabeta.cli
        report["import"] = [t0, time.perf_counter()]
        if not trace:
            return negabeta.cli.main(argv)
        import spans
        tracer = spans.Tracer()
        tracer.install()
        report["spans"] = tracer.spans
        return negabeta.cli.main(argv)
    finally:
        ticks.stop_timer()
        report["ticks"] = ticks.to_json()
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
