"""Trainer outputs pinned on small fixtures.

``data/trainer_pins.json`` holds, per case, the final matrices, the epoch
trace, ``epochs_run`` and the per-update PSD audit of one training run,
recorded before the three trainers were folded onto one SGD loop.  Any
change to the update order, the learning-rate schedule, the start or the
stop rule moves these numbers.  The three symmetric cases (``sgd_sym``,
``reg_upper_bound``, ``reg_min_loss``) were re-recorded when
``numerics.sym_eig`` moved from a Jacobi iteration to LAPACK ``eigh``, which
moves W in its last digits.  ``reg_asym`` went with the asymmetric mode of
the regression trainer, which no run used, the pin of the eps-insensitive
h* rule with that rule, which lost to the targeted top-k on ten seeds, and
``hamming_sym`` with the Hamming trainer's U = V mode, which lost to the
asymmetric codes in every run measured.  ``sgd_asym`` started from the
diagonal U = V = diag(sqrt(w)) until the start weights were deleted; it was
re-recorded from the one start left, U = V = I.  ``hamming_asym`` was
re-recorded when the Hamming trainer's momentum was deleted: its step is
now U, V <- normalize(U - eta grad_U, V - eta grad_V) with eta = 1/t.  It
was re-recorded again when the zero-mean code penalty left those gradients.

The audited minimum eigenvalues of a rank-deficient W are roundoff, whose
digits depend on the BLAS kernels the CPU selects, so they are compared to
an absolute tolerance scaled by the pinned W (and must not be negative
beyond roundoff) rather than relatively.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from conftest import gauss_blobs

from nnmetric.dataset import synth_sin
from nnmetric.gerrymander import GerryTrainConfig, train_sgd
from nnmetric.hamming import HammingTrainConfig, train_hamming
from nnmetric.regression_ml import RegTrainConfig, train_reg_sgd

PINS = Path(__file__).parent / "data" / "trainer_pins.json"


def classed():
    """30 points, 3 classes, d=3; the third coordinate is wide noise."""
    centers = [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]]
    return gauss_blobs(centers, 10, [1.0, 1.0, 3.0], seed=5)


def real():
    return synth_sin(30, 3, c1=2.0, decay=0.5, noise_std=0.05, seed=4)


CASES = {
    "sgd_sym": lambda: train_sgd(
        classed(), GerryTrainConfig(k=3, epochs=6, seed=1), audit_psd=True
    ),
    "sgd_asym": lambda: train_sgd(
        classed(), GerryTrainConfig(k=3, epochs=6, seed=3), variant="asymmetric"
    ),
    "reg_upper_bound": lambda: train_reg_sgd(
        real(), RegTrainConfig(k=3, epochs=6, seed=4), audit_psd=True
    ),
    "reg_min_loss": lambda: train_reg_sgd(
        real(), RegTrainConfig(k=3, epochs=6, seed=5, hstar="min_loss")
    ),
    "hamming_asym": lambda: train_hamming(
        classed(), HammingTrainConfig(c=4, k=3, epochs=6, seed=9)
    ),
}


def snapshot(result) -> dict:
    """The pinned parts of a TrainResult, as JSON data."""
    names = ("w",) if hasattr(result.metric, "w") else ("u", "v")
    return {
        "arrays": {name: getattr(result.metric, name).tolist() for name in names},
        "trace": [[row.epoch, row.mean_surrogate, row.skipped] for row in result.trace],
        "epochs_run": result.epochs_run,
        "psd_audit": result.psd_audit,
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_trainer_matches_pin(case, pins):
    got = snapshot(CASES[case]())
    want = pins[case]
    assert got["epochs_run"] == want["epochs_run"]
    assert len(got["trace"]) == len(want["trace"])
    assert [row[::2] for row in got["trace"]] == [row[::2] for row in want["trace"]]
    np.testing.assert_allclose(
        [row[1] for row in got["trace"]], [row[1] for row in want["trace"]], rtol=1e-12
    )
    assert sorted(got["arrays"]) == sorted(want["arrays"])
    for name, matrix in want["arrays"].items():
        np.testing.assert_allclose(got["arrays"][name], matrix, rtol=1e-12)
    assert len(got["psd_audit"]) == len(want["psd_audit"])
    if want["psd_audit"]:
        scale = np.abs(want["arrays"]["w"]).max()
        np.testing.assert_allclose(
            got["psd_audit"], want["psd_audit"], rtol=1e-12, atol=1e-12 * scale
        )
        assert min(got["psd_audit"]) >= -1e-9
