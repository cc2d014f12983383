"""Set-up probe: a fresh interpreter imports negabeta.cli (which imports
every layer) and builds the workload's bases, root isolation included, with
the reference kernel interleaved (see clock.py).

    python3 perfbench/probe.py <report-file> '<JSON list of base specifications>'

The report file receives the kernel ticks as JSON.
"""

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import clock  # noqa: E402


def build_base(numerics, spec: dict):
    """The program's BetaSpec for a generated base specification."""
    if "rational" in spec:
        return numerics.beta_from_rational(*spec["rational"])
    lo, hi = (Fraction(t) for t in spec["interval"])
    return numerics.beta_from_poly(spec["poly"], lo, hi)


def main() -> int:
    report_path, specs = sys.argv[1], json.loads(sys.argv[2])
    ticks = clock.Clock("startup")
    ticks.start_timer()
    try:
        import negabeta.cli  # noqa: F401
        from negabeta import numerics
        for spec in specs:
            build_base(numerics, spec)
    finally:
        ticks.stop_timer()
        with open(report_path, "w") as fh:
            json.dump(ticks.to_json(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
