"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload commute --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones). A run whose audit fails reports no metrics. The
traced run also writes its spans to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
SOURCE = ROOT / "src"

#: Unit of every end-to-end metric, in BENCHMARK.json order.
E2E_UNITS = {
    "latency_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
WORKLOADS = ("commute", "fleet", "assignment", "relational")


def _runner(workload: str):
    if workload in ("commute", "fleet"):
        from serving import run
    elif workload == "assignment":
        from batch import run
    else:
        from relational import run
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SOURCE}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    from layers import UNITS

    outcome = _runner(args.workload)(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in outcome.lines:
        print(line)
    report = outcome.audit
    print(f"audit: {report.attempted} attempted, {report.counts['exact']} priced exact, "
          + ", ".join(f"{kind} {report.counts[kind]}" for kind in
                      ("inexact", "stale", "dropped", "shed", "errored"))
          + f"; fail_share {report.fail_share:.6f}")
    for sample in report.samples:
        print(f"audit: {sample}")
    correct = report.failed == 0 and outcome.valid
    metrics = {}
    if correct:
        values, units = (outcome.layers, UNITS) if args.trace else (outcome.e2e, E2E_UNITS)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        print("run is not correct: no metrics reported")
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    if outcome.tracer is not None:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        outcome.tracer.dump(path)
        print(f"spans: {len(outcome.tracer.spans)} written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
