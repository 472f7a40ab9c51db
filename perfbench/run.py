"""fpekit benchmark: per-record encrypt/decrypt throughput, latency and
set-up time, with a traced per-module breakdown.

Run from the root of a checkout (standard library and fpekit's own
dependencies only; fpekit is imported from ./src):

    python3 perfbench/run.py --workload address_inf --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload address_split --seed 1 --seconds 36 --trace 1
    python3 perfbench/run.py --smoke

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json;
with --trace 1 it carries the per-layer metrics. The last line of standard
output is the result as one JSON object; the lines before it repeat every
metric by name with its unit, plus sample counts, failed_frac and the
machine context. perfbench/LAYERS.md says why each workload exists and
which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def load_measure():
    """Import the benchmark, with fpekit from this checkout's src/ only."""
    if not (SRC / "fpekit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fpekit sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import fpekit

    if Path(fpekit.__file__).resolve().parent != (SRC / "fpekit").resolve():
        raise SystemExit(f"perfbench: fpekit was imported from {fpekit.__file__}, not {SRC}")
    import measure

    return measure


def print_result(result: dict, report: dict) -> None:
    for name, m in {**result["metrics"], **report.get("unbounded", {})}.items():
        print(f"{report['workload']}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{report['workload']}  failed_frac = {report['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)


def main(argv=None) -> int:
    measure = load_measure()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=measure.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at a tiny size and check the output")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    if args.smoke:
        return measure.smoke()
    print_result(*measure.run(args.workload, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
