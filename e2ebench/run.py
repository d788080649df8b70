"""Benchmark entry point: one workload per process, result JSON last.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload pbft_flat_n202 --seed 0 --seconds 40 --trace 0
    python3 e2ebench/run.py --workload all --seed 0 --seconds 40

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of one traced run.  ``--workload all`` runs every
workload in a child process of its own (so no workload inherits
another's memory high-water mark) and prints a table.  The program
under test is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    from workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: failed with status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        rows.append((name, json.loads(lines[-1])["metrics"]))
    metrics = list(rows[0][1])
    print(f"{'metric':28s} {'unit':6s} " + " ".join(f"{n:>18s}" for n, _ in rows))
    for key in metrics:
        unit = rows[0][1][key]["unit"]
        print(f"{key:28s} {unit:6s} "
              + " ".join(f"{m[key]['value']:18.6g}" for _, m in rows))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return _run_all(args)

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, digest = harness.measure_layers(args.workload, args.seed)
            units, attempted = harness.LAYER_UNITS, 2
            print(f"# {args.workload} seed={args.seed} traced digest={digest}")
        else:
            metrics, facts, attempted = harness.measure_e2e(
                args.workload, args.seed, args.seconds)
            units = harness.E2E_UNITS
            print(f"# {args.workload} seed={args.seed} "
                  + " ".join(f"{k}={v}" for k, v in facts.items()))
    except harness.GateError as exc:
        print(f"e2ebench: correctness gate failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
