"""End-to-end harness outputs pinned on two small configs.

``data/run_pins.json`` holds, per case, the ``results.csv`` rows and every
model CSV of one ``run_experiment`` call, recorded before the per-method
tuning code was folded into one tune-and-refit loop.  Any change to the
grids, the splits, the scoring, the pick rule or the refit moves these.
``regress_hnn`` was re-recorded when ``numerics.sym_eig`` moved from a Jacobi
iteration to LAPACK ``eigh``: one EGOP radius string moved in its last digits.
``classify`` was re-recorded when the ReliefF start of ``gerry_sym`` and
``gerry_asym`` was deleted: their grid lost its ``init`` axis, and every
run now starts from W = 0 (U = V = I).  It was re-recorded again when the
Hamming trainer's momentum was deleted, and again when its zero-mean code
penalty was deleted; both times only its ``hamming`` rows and ``hamming``
model CSVs moved.  ``regress_knn`` and ``regress_hnn`` were re-recorded
under the default targeted top-k h* when the eps-insensitive rule and its
tube-width axis were deleted; only their ``gerry_reg`` rows and
``gerry_reg/w.csv`` moved.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import gauss_blobs

from nnmetric.dataset import save_csv
from nnmetric.harness import ExperimentConfig, run_experiment
from nnmetric.numerics import load_matrix_csv

PINS = Path(__file__).parent / "data" / "run_pins.json"


def classify_config(tmp_path):
    """84 rows in 3 classes, d=4; the last two coordinates are wide noise."""
    centers = [[0.0, 0.0, 0.0, 0.0], [1.5, 0.0, 0.0, 0.0], [0.0, 1.5, 0.0, 0.0]]
    data = tmp_path / "blobs.csv"
    save_csv(data, gauss_blobs(centers, 28, [1.0, 1.0, 3.0, 3.0], seed=3))
    return {
        "task": "classify",
        "method": "euclidean, relieff, ejop, gerry_sym, gerry_asym, hamming",
        "data.source": "csv",
        "data.path": str(data),
        "grid.k": "3, 5",
        "grid.h": "2.0",
        "grid.t": "0.5",
        "train.epochs": "2",
        "hamming.bits": "4",
        "seed": "2",
    }


def regress_config(rule):
    def make(tmp_path):
        return {
            "task": "regress",
            "method": "euclidean, gw, egop, gerry_reg",
            "predict.rule": rule,
            "data.source": "synth",
            "data.n": "80",
            "data.d": "3",
            "data.c1": "2.0",
            "data.decay": "0.5",
            "grid.k": "3, 5",
            "grid.h": "2.0",
            "grid.t": "0.5",
            "train.epochs": "2",
            "seed": "4",
        }

    return make


CASES = {
    "classify": classify_config,
    "regress_knn": regress_config("knn"),
    "regress_hnn": regress_config("hnn"),
}


def run_case(case, tmp_path) -> dict:
    """results.csv rows and model CSVs of one run, as JSON data."""
    out = tmp_path / "out"
    mapping = {**CASES[case](tmp_path), "out.dir": str(out)}
    run_experiment(ExperimentConfig.from_mapping(mapping))
    with open(out / "results.csv", encoding="utf-8", newline="") as fh:
        rows = [
            [r["method"], int(r["fold"]), r["params_json"], r["metric"], float(r["value"])]
            for r in csv.DictReader(fh)
        ]
    models = {
        path.relative_to(out / "models").as_posix(): load_matrix_csv(path).tolist()
        for path in sorted((out / "models").glob("*/*.csv"))
    }
    return {"rows": rows, "models": models}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_pin(case, pins, tmp_path):
    got = run_case(case, tmp_path)
    want = pins[case]
    assert [row[:4] for row in got["rows"]] == [row[:4] for row in want["rows"]]
    np.testing.assert_allclose(
        [row[4] for row in got["rows"]], [row[4] for row in want["rows"]], rtol=1e-12
    )
    assert sorted(got["models"]) == sorted(want["models"])
    for name, matrix in want["models"].items():
        # LAPACK eigh (inside the symmetric trainer's PSD projection) rounds
        # differently across CPUs, so near-zero entries get an absolute floor
        scale = np.max(np.abs(matrix))
        np.testing.assert_allclose(got["models"][name], matrix, rtol=1e-12, atol=1e-12 * scale)
