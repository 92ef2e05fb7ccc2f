"""Seeded 3-class Gaussian blobs for the ``classify_learned`` workload.

450 rows x 10 features.  Class r (1..3) is centred at ``SEPARATION`` along
feature r-1 with unit noise on the first three (informative) features; the
other seven features are pure noise at three times that scale, so plain
Euclidean kNN has a test error near 0.3 and a learned metric has room to
improve on it.

    python3 perfbench/blobs.py --seed 7 --out blobs.csv
"""

from __future__ import annotations

import argparse

import numpy as np

N_ROWS = 450
N_INFORMATIVE = 3
N_NOISE = 7
NOISE_SCALE = 3.0
SEPARATION = 1.7


def make_blobs(seed: int, n_rows: int = N_ROWS):
    """(features, labels) with labels in 1..3, balanced, rows shuffled."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n_rows) % N_INFORMATIVE
    rng.shuffle(labels)
    features = np.empty((n_rows, N_INFORMATIVE + N_NOISE))
    features[:, :N_INFORMATIVE] = rng.normal(size=(n_rows, N_INFORMATIVE))
    features[np.arange(n_rows), labels] += SEPARATION
    features[:, N_INFORMATIVE:] = NOISE_SCALE * rng.normal(size=(n_rows, N_NOISE))
    return features, labels + 1


def write_blobs_csv(path, seed: int, n_rows: int = N_ROWS) -> None:
    """CSV with columns x0..x9 and ``label``; floats written with repr."""
    features, labels = make_blobs(seed, n_rows)
    header = [f"x{j}" for j in range(features.shape[1])] + ["label"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row, label in zip(features, labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="destination CSV path")
    args = parser.parse_args(argv)
    write_blobs_csv(args.out, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
