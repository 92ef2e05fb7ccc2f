"""One measured ``nnmetric`` process, started by perfbench/run.py.

Modes (exactly one):
  --import-only          import nnmetric.cli and report when that finished
  --config ... --out ... run ``nnmetric run`` once: untraced, ``--trace``,
                         or under cProfile with ``--profile FILE``
  --selfcheck            run the tiny configs traced and under a
                         ``sys.setprofile`` call counter, and compare counts

The report is one JSON object written to ``--report``.  Times use
``time.monotonic`` so the parent can subtract its own spawn timestamp.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import nnmetric.cli  # noqa: E402

_IMPORTED = time.monotonic()


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_cli(config, seed, out, cwd) -> tuple[int, float, float]:
    """(exit code, wall seconds, CPU seconds) of one ``nnmetric run``."""
    argv = ["run", "--config", config, "--seed", str(seed), "--out", out]
    here = os.getcwd()
    os.chdir(cwd)
    try:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        code = nnmetric.cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
    finally:
        os.chdir(here)
    return code, wall, cpu


def _machine() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def _selfcheck(runs) -> dict:
    from tracer import CallCounter, Tracer, traced_calls

    tracer = Tracer()
    tracer.install()
    codes = []
    with CallCounter(tracer.originals) as counter:
        for config, seed, out, cwd in runs:
            codes.append(_run_cli(config, seed, out, cwd)[0])
    return {
        "exit_codes": codes,
        "traced": traced_calls(tracer),
        "profiled": counter.counts,
        "absent": tracer.absent,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one measured nnmetric process")
    parser.add_argument("--report", required=True)
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--selfcheck", nargs=4, action="append", metavar=("CFG", "SEED", "OUT", "CWD"))
    parser.add_argument("--config")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--cwd", default=".")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--profile", help="write cProfile stats of the run here")
    parser.add_argument("--machine", action="store_true")
    args = parser.parse_args(argv)

    report = {"started": _STARTED, "imported": _IMPORTED}
    if args.machine:
        report["machine"] = _machine()
    if args.selfcheck:
        report["selfcheck"] = _selfcheck(args.selfcheck)
    elif not args.import_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        if args.profile:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
        code, wall, cpu = _run_cli(args.config, args.seed, args.out, args.cwd)
        if args.profile:
            profiler.disable()
            profiler.dump_stats(args.profile)
        report.update(exit_code=code, run_s=wall, cpu_s=cpu)
        if tracer is not None:
            report["layers"] = tracer.metrics(wall)
            report["absent"] = tracer.absent
            report["hook_errors"] = tracer.hook_errors
            report["spans"] = {
                name: [s.calls, s.self_s, s.raised] for name, s in tracer.stats.items()
            }
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
