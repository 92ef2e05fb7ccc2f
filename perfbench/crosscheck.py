"""Cross-check the tracer's per-layer self time against cProfile.

    python3 perfbench/crosscheck.py --workload classify_learned --seed 1

Makes one traced run and one cProfile run of the same workload and seed,
each in its own child, and prints each layer's share of the run's wall time
from both.  The tracer charges a span's self time to the layer of the
wrapped function, including helpers it calls in other modules; cProfile is
grouped here by the module that defines each function, with time in
numpy and builtins charged to the nearest nnmetric caller.  So the shares
differ a little by construction, and a large gap means a layer the tracer
does not see.
"""

from __future__ import annotations

import argparse
import pstats
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path

import run as bench

LAYERS = (
    "numerics",
    "gerrymander",
    "regression_ml",
    "hamming",
    "gradient_metrics",
    "predictors",
    "dataset",
    "harness",
)


def tracer_shares(report: dict) -> dict:
    run_s = report["run_s"]
    shares = defaultdict(float)
    for span, (_, self_s, _) in report["spans"].items():
        shares[span.split(".")[0]] += self_s / run_s
    shares["harness"] += report["layers"]["harness.self_s"] / run_s
    return shares


def _module_of(func) -> str | None:
    path = Path(func[0])
    if path.parent.name == "nnmetric" and path.suffix == ".py":
        return path.stem
    return None


def profile_shares(stats_path: Path, run_s: float) -> dict:
    """Self time by defining nnmetric module; foreign time goes to callers."""
    stats = pstats.Stats(str(stats_path)).stats
    owners: dict = {}

    def owner(func, seen=()):
        """{module: fraction} owning the time of a non-nnmetric function."""
        if func in owners:
            return owners[func]
        module = _module_of(func)
        if module is not None:
            return {module: 1.0}
        if func not in stats or func in seen:
            return {}
        callers = stats[func][4]
        total = sum(edge[3] for edge in callers.values()) or 1.0
        out = defaultdict(float)
        for caller, edge in callers.items():
            for mod, frac in owner(caller, seen + (func,)).items():
                out[mod] += frac * edge[3] / total
        owners[func] = dict(out)
        return owners[func]

    shares = defaultdict(float)
    for func, (_, _, tottime, _, _) in stats.items():
        for module, frac in owner(func).items():
            shares[module] += tottime * frac / run_s
    shares["harness"] += shares.pop("cli", 0.0)
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=bench.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    bench.WORK_ROOT.mkdir(exist_ok=True)
    workdir = bench.WORK_ROOT / f"crosscheck-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        deadline = time.monotonic() + bench.BUDGET_S
        traced = bench.run_once(args.workload, args.seed, workdir, 0, deadline, trace=True)
        profile_path = workdir / "run.prof"
        cfg = bench.config_path(args.workload)
        report, _, problem = bench.spawn_child(
            ["--config", str(cfg), "--seed", str(args.seed), "--out", str(workdir / "prof_out"),
             "--cwd", str(workdir / f"seed{args.seed}"), "--profile", str(profile_path)],
            workdir,
            workdir / "profile.json",
            time.monotonic() + bench.BUDGET_S,
        )
        if not traced.ok or report is None:
            print(f"run failed: {traced.problems or problem}", file=sys.stderr)
            return 1
        ours = tracer_shares(traced.report)
        theirs = profile_shares(profile_path, report["run_s"])
        print(f"# {args.workload} seed {args.seed}: traced run {traced.run_s:.2f} s, "
              f"cProfile run {report['run_s']:.2f} s")
        print(f"{'layer':18s} {'tracer':>8s} {'cProfile':>9s}")
        for layer in LAYERS:
            print(f"{layer:18s} {ours.get(layer, 0.0):8.3f} {theirs.get(layer, 0.0):9.3f}")
        sym_eig = traced.report["layers"]["numerics.sym_eig.self_s"] / traced.run_s
        print(f"{'(numerics.sym_eig)':18s} {sym_eig:8.3f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            bench.WORK_ROOT.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
