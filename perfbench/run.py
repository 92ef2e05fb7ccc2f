"""Benchmark for ``nnmetric run`` on three fixed workloads.

    python3 perfbench/run.py --workload classify_learned --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 3      # every workload, untraced

Run from the root of a checkout; the program is imported from ``src/``.
Each ``nnmetric run`` happens in its own child process (perfbench/child.py)
with ``threads = 1`` and the default BLAS thread count.  The seed makes the
inputs: it is the ``--seed`` of the synthetic workloads and the generator
seed of the blobs CSV.

``--trace 0`` repeats the run until ``--seconds`` have passed (at least
twice) and reports the end-to-end metrics as medians.  ``--trace 1`` makes
one untraced and one traced run of the same seed, plus the tracer's
coverage self-check on tiny configs, and reports the per-layer metrics.
Every run's output is checked; a failed check counts in ``passed_frac`` and
in ``failed``, and is never retried.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from blobs import write_blobs_csv

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
STATE_DIR = ROOT / ".perfbench_state"

WORKLOADS = ("regress_estimators", "classify_learned", "regress_learned_hnn")
# set-up probes before the first measured run, between runs and after the
# last, so that they see the host as the runs do; their set-up times and
# those of the runs give setup_s
SETUP_PROBES = 6
MIN_RUNS = 2
# every child is killed, and no run started, past this many seconds after
# the measurement began, so that a hang still ends inside 180 s
BUDGET_S = 165.0
SELFCHECK_SEED = 5
# every untraced measurement also runs this input; the test metrics come
# from it, so that they compare exactly between two versions of the program
REFERENCE_SEED = 0
# each method's fold = -1 value on the reference input, as the program
# computed it when the benchmark was written; test_metric.worst_ratio
# compares against these
REFERENCE_SCORES = BENCH_DIR / "workloads" / "reference_scores.json"


@dataclass
class Iteration:
    seed: int
    ok: bool
    problems: list
    setup_s: float | None = None
    run_s: float | None = None
    cpu_s: float | None = None
    peak_rss_mb: float | None = None
    results: bytes | None = None
    report: dict = field(default_factory=dict)


def config_path(name: str) -> Path:
    return BENCH_DIR / "workloads" / f"{name}.cfg"


def read_config(path: Path) -> dict:
    """The ``key = value`` lines of a workload config."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.lstrip().startswith("#"):
            out[key.strip()] = value.strip()
    return out


def config_methods(path: Path) -> list:
    return [m.strip() for m in read_config(path)["method"].split(",")]


def spawn_child(args, cwd: Path, report: Path, deadline: float):
    """Run child.py; returns (report dict or None, spawn timestamp, problem)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--report", str(report), *args]
    spawned = time.monotonic()
    timeout = max(deadline - spawned, 1.0)
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, spawned, f"child timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not report.exists():
        tail = (err or out).strip().splitlines()[-3:]
        return None, spawned, f"child exited {proc.returncode}: {' | '.join(tail)}"
    data = json.loads(report.read_text(encoding="utf-8"))
    report.unlink()
    return data, spawned, None


def final_rows(results: bytes) -> dict:
    """method -> raw ``value`` of its fold = -1 row in results.csv."""
    rows = csv.DictReader(io.StringIO(results.decode("utf-8")))
    return {row.get("method"): row.get("value") for row in rows if row.get("fold") == "-1"}


def test_metrics(results: bytes) -> dict:
    return {method: float(value) for method, value in final_rows(results).items()}


def check_results(results: bytes | None, methods) -> list:
    """Problems with results.csv: a missing or non-finite fold = -1 row."""
    if results is None:
        return ["results.csv missing"]
    problems = []
    finals = final_rows(results)
    for method in methods:
        raw = finals.get(method)
        try:
            value = float(raw)
        except (TypeError, ValueError):
            problems.append(f"{method}: no fold = -1 row")
            continue
        if not math.isfinite(value):
            problems.append(f"{method}: test metric {raw}")
    return problems


def run_once(workload, seed, workdir: Path, index: int, deadline, trace=False, machine=False):
    """One ``nnmetric run`` in a fresh child; the outputs are checked."""
    cfg = config_path(workload)
    inputs = workdir / f"seed{seed}"
    if not inputs.exists():
        inputs.mkdir()
        if read_config(cfg).get("data.path") == "blobs.csv":
            write_blobs_csv(inputs / "blobs.csv", seed)
    out_dir = workdir / f"out{index}"
    args = ["--config", str(cfg), "--seed", str(seed), "--out", str(out_dir), "--cwd", str(inputs)]
    if trace:
        args.append("--trace")
    if machine:
        args.append("--machine")
    report, spawned, problem = spawn_child(
        args, workdir, workdir / f"report{index}.json", deadline
    )
    if report is None:
        return Iteration(seed=seed, ok=False, problems=[problem])
    it = Iteration(
        seed=seed,
        ok=True,
        problems=[],
        setup_s=report["imported"] - spawned,
        run_s=report["run_s"],
        cpu_s=report["cpu_s"],
        peak_rss_mb=report["peak_rss_mb"],
        report=report,
    )
    if report["exit_code"] != 0:
        it.problems.append(f"nnmetric run exited {report['exit_code']}")
    if (out_dir / "results.csv").exists():
        it.results = (out_dir / "results.csv").read_bytes()
    it.problems += check_results(it.results, config_methods(cfg))
    it.ok = not it.problems
    shutil.rmtree(out_dir, ignore_errors=True)
    return it


def setup_probes(workdir: Path, deadline) -> list:
    """Set-up times of children that only import ``nnmetric.cli``."""
    times = []
    for i in range(SETUP_PROBES):
        report, spawned, problem = spawn_child(
            ["--import-only"], workdir, workdir / f"probe{i}.json", deadline
        )
        if report is None:
            raise RuntimeError(f"set-up probe failed: {problem}")
        times.append(report["imported"] - spawned)
    return times


def source_digest(machine) -> str:
    """Digest of the program, of the benchmark's code and configs and of
    the machine record; recorded results are keyed by it."""
    h = hashlib.sha256(json.dumps(machine, sort_keys=True).encode())
    paths = [*SRC.rglob("*.py"), *BENCH_DIR.rglob("*.py"), *BENCH_DIR.rglob("*.cfg")]
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_identical(workload, iterations, machine) -> None:
    """Every run of one seed writes the same results.csv bytes.

    Runs are compared within this invocation and with the digests that
    earlier invocations in this checkout recorded for the same code on the
    same machine, numpy, BLAS and thread setting.
    """
    STATE_DIR.mkdir(exist_ok=True)
    store = STATE_DIR / "results_digests.json"
    key = source_digest(machine)
    try:
        recorded = json.loads(store.read_text(encoding="utf-8")).get(key, {})
    except (OSError, ValueError):
        recorded = {}
    for it in iterations:
        if it.results is None:
            continue
        name = f"{workload}/{it.seed}"
        digest = hashlib.sha256(it.results).hexdigest()
        if name not in recorded:
            recorded[name] = digest
        elif recorded[name] != digest:
            it.ok = False
            it.problems.append(f"results.csv of seed {it.seed} differs from an earlier run")
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({key: recorded}, indent=1, sort_keys=True), encoding="utf-8")
    tmp.replace(store)


def selfcheck(workdir: Path, deadline) -> dict:
    """Tracer call counts against sys.setprofile counts on tiny configs."""
    inputs = workdir / "selfcheck"
    inputs.mkdir()
    write_blobs_csv(inputs / "blobs.csv", SELFCHECK_SEED, n_rows=60)
    args = []
    for name in ("selfcheck_classify", "selfcheck_regress"):
        args += [
            "--selfcheck",
            str(config_path(name)),
            str(SELFCHECK_SEED),
            str(inputs / f"{name}_out"),
            str(inputs),
        ]
    report, _, problem = spawn_child(args, workdir, workdir / "selfcheck.json", deadline)
    if report is None:
        return {"error": problem}
    return report["selfcheck"]


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        return _measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _measure(workload, seed, seconds, trace, workdir: Path) -> dict:
    deadline = time.monotonic() + BUDGET_S
    start = time.monotonic()
    setups = []
    if not trace:
        setups += setup_probes(workdir, deadline)
    iterations = [run_once(workload, seed, workdir, 0, deadline, machine=True)]
    if trace:
        iterations.append(run_once(workload, seed, workdir, 1, deadline, trace=True))
    else:
        # alternate the seed's input with the reference input
        while True:
            setups += setup_probes(workdir, deadline)
            now = time.monotonic()
            expected = median([it.run_s for it in iterations]) or 0.0
            if now + expected > deadline or (
                len(iterations) >= MIN_RUNS and now - start + expected > seconds
            ):
                break
            next_seed = REFERENCE_SEED if len(iterations) % 2 else seed
            iterations.append(run_once(workload, next_seed, workdir, len(iterations), deadline))
    machine = iterations[0].report.get("machine")
    check_identical(workload, iterations, machine)
    setups += [it.setup_s for it in iterations if it.setup_s is not None]
    failed = sum(not it.ok for it in iterations)

    result = {
        "workload": workload,
        "seed": seed,
        "machine": machine,
        "problems": [
            f"run {i} (seed {it.seed}): {p}"
            for i, it in enumerate(iterations)
            for p in it.problems
        ],
        "attempted": len(iterations),
        "failed": failed,
        "runs": iterations,
        "setups": setups,
    }
    if trace:
        check = selfcheck(workdir, deadline)
        result["selfcheck"] = check
        result["metrics"] = layer_metrics(iterations, check)
        result["absent"] = iterations[1].report.get("absent", [])
        result["hook_errors"] = iterations[1].report.get("hook_errors", {})
    else:
        result["metrics"] = end_to_end_metrics(workload, iterations, setups)
    return result


def end_to_end_metrics(workload, iterations, setups) -> dict:
    passed = sum(it.ok for it in iterations)
    reference = next(
        (it for it in iterations if it.seed == REFERENCE_SEED and it.ok), None
    )
    scores = test_metrics(reference.results) if reference else {}
    recorded = json.loads(REFERENCE_SCORES.read_text(encoding="utf-8"))[workload]
    ratios = [scores[m] / recorded[m] for m in recorded if m in scores]
    values = list(scores.values())
    return {
        # the fastest probe: a slow moment of the host lengthens a probe,
        # and none shortens it below what the import costs
        "setup_s": (min(setups) if setups else None, "s"),
        "run_s": (median([it.run_s for it in iterations]), "s"),
        "cpu_s": (median([it.cpu_s for it in iterations]), "s"),
        "peak_rss_mb": (median([it.peak_rss_mb for it in iterations]), "MB"),
        "passed_frac": (passed / len(iterations), "frac"),
        "test_metric.mean": (statistics.fmean(values) if values else None, "score"),
        "test_metric.worst_ratio": (max(ratios) if ratios else None, "ratio"),
    }


def layer_metrics(iterations, check) -> dict:
    untraced, traced = iterations
    layers = traced.report.get("layers", {})
    metrics = {}
    for name, value in layers.items():
        unit = "s" if name.endswith("_s") else ("ratio" if name.endswith("_ratio") else "count")
        metrics[name] = (value, unit)
    overhead = None
    if traced.run_s is not None and untraced.run_s is not None:
        overhead = traced.run_s - untraced.run_s
    metrics["trace.overhead_s"] = (overhead, "s")
    if "error" in check:
        mismatched = None
    else:
        mismatched = sum(
            abs(check["profiled"][span] - check["traced"][span]) for span in check["traced"]
        )
    metrics["trace.uncounted_calls"] = (mismatched, "count")
    return metrics


def print_report(result: dict, out=sys.stdout) -> None:
    print(f"# workload {result['workload']}, seed {result['seed']}", file=out)
    if result.get("machine"):
        print(f"# machine {json.dumps(result['machine'], sort_keys=True)}", file=out)
    for i, it in enumerate(result["runs"]):
        scores = final_rows(it.results) if it.results else {}
        shown = ", ".join(f"{m} {v}" for m, v in scores.items())
        print(
            f"# run {i}: seed {it.seed}, {'traced, ' if it.report.get('layers') else ''}"
            f"run_s {it.run_s}, cpu_s {it.cpu_s}, ok {it.ok}; test metric: {shown}",
            file=out,
        )
    if result["setups"]:
        setups = result["setups"]
        print(
            f"# set-up times of {len(setups)} children: min {min(setups):.4f} s, "
            f"median {statistics.median(setups):.4f} s, max {max(setups):.4f} s",
            file=out,
        )
    for name, (value, unit) in result["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:48s} {shown:>12s} {unit}", file=out)
    for name in result.get("absent", []):
        print(f"# absent: {name} (its metrics read 0)", file=out)
    for span, error in result.get("hook_errors", {}).items():
        print(f"# counter hook of {span} failed ({error}); its counters are partial", file=out)
    check = result.get("selfcheck")
    if check is not None:
        if "error" in check:
            print(f"# tracer self-check failed to run: {check['error']}", file=out)
        else:
            if any(check["exit_codes"]):
                print(f"# self-check runs exited {check['exit_codes']}", file=out)
            for span, count in check["profiled"].items():
                traced = check["traced"][span]
                flag = "" if traced == count else "  MISMATCH"
                print(f"# self-check {span}: traced {traced}, profiled {count}{flag}", file=out)
    for problem in result["problems"]:
        print(f"# FAILED CHECK {problem}", file=out)


def result_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in result["metrics"].items()
            },
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark for nnmetric run")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="every workload, one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nnmetric" / "cli.py").is_file():
        print(f"error: no nnmetric sources at {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    names = WORKLOADS if args.all else (args.workload,)
    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        print_report(result)
        for problem in result["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
        results.append(result)
    if args.all:
        print(json.dumps({r["workload"]: json.loads(result_line(r)) for r in results}))
    else:
        print(result_line(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
