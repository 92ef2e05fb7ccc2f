"""The frozen dataclasses that hold numpy arrays compare and hash by
identity: generated field-wise ``==`` would ask an array for its truth
value, and a generated ``hash`` would hash an array."""

import copy

import numpy as np
import pytest

from nnmetric.dataset import Dataset, NormStats, SplitSpec
from nnmetric.gerrymander import AsymmetricMetric, MahalanobisMetric
from nnmetric.gradient_metrics import GradientMetricEstimate, GradientPass
from nnmetric.hamming import HammingHasher

EYE = np.eye(2)

INSTANCES = [
    Dataset(np.zeros((2, 2)), np.array([1, 2]), "class"),
    NormStats(mean=np.zeros(2), std=np.ones(2)),
    SplitSpec(n_folds=2, seed=0, assignment=np.array([0, 1])),
    MahalanobisMetric(w=EYE),
    AsymmetricMetric(u=EYE, v=EYE),
    GradientMetricEstimate(g=EYE, kind="gw"),
    GradientPass(n=2, h=1.0, t=0.5, temperature=None, outer=EYE, abs_sums=np.zeros(2)),
    HammingHasher(u=EYE, v=EYE),
]


@pytest.mark.parametrize("instance", INSTANCES, ids=lambda obj: type(obj).__name__)
def test_compares_and_hashes_by_identity(instance):
    twin = copy.copy(instance)
    assert instance == instance
    assert instance != twin
    assert len({instance, twin, instance}) == 2
