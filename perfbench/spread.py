"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload classify_learned --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed (untraced, one after another, for the
``run_seconds`` of BENCHMARK.json) and prints, per metric, the median, the
quartiles and the spread: the distance between the first and third
quartile as a share of the median, computed with
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]

    values: dict[str, list] = {}
    for seed in args.seeds:
        cmd = [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH_DIR.parent)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']}, "
              + ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':24s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:24s} {med:10.5g} {q1:10.5g} {q3:10.5g} {spread:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
