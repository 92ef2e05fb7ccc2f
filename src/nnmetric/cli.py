"""Command-line front end: run experiments, generate data, audit algorithms."""

from __future__ import annotations

import argparse
import sys

from . import harness


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnmetric",
        description="nearest-neighbor metric learning and estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="{run,synth,oracle}")

    run_p = sub.add_parser("run", help="run an experiment described by a config file")
    run_p.add_argument("--config", required=True, help="key = value experiment file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the output directory")

    synth_p = sub.add_parser("synth", help="write a synthetic regression CSV")
    synth_p.add_argument("--out", required=True, help="destination CSV path")
    synth_p.add_argument("--n", type=int, default=200, help="number of rows")
    synth_p.add_argument("--d", type=int, default=5, help="feature dimension")
    synth_p.add_argument("--c1", type=float, default=50.0, help="first sine frequency")
    synth_p.add_argument("--decay", type=float, default=0.6, help="frequency decay per coordinate")
    synth_p.add_argument(
        "--rotate", action="store_true", help="apply a seeded random rotation to the features"
    )
    synth_p.add_argument("--noise-std", type=float, default=0.1, help="target noise level")
    synth_p.add_argument("--seed", type=int, default=0)

    oracle_p = sub.add_parser(
        "oracle", help="compare the fast algorithms against exhaustive references"
    )
    oracle_p.add_argument(
        "--suite", required=True, help=f"one of: {', '.join(sorted(harness.ORACLE_SUITES))}"
    )
    oracle_p.add_argument("--budget", type=int, default=200, help="random instances to check")
    oracle_p.add_argument("--seed", type=int, default=0)
    oracle_p.add_argument("--out", default=".", help="directory for failing-instance replays")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return harness.cmd_run(args.config, seed=args.seed, out=args.out)
    if args.command == "synth":
        return harness.cmd_synth(
            args.out,
            n=args.n,
            d=args.d,
            c1=args.c1,
            decay=args.decay,
            rotate=args.rotate,
            noise_std=args.noise_std,
            seed=args.seed,
        )
    return harness.cmd_oracle(args.suite, budget=args.budget, seed=args.seed, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
