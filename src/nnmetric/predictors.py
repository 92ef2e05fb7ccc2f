"""kNN and radius (boxcar) prediction under a metric transform, plus evaluation.

Neighbor search is brute force.  The tie order everywhere is total and
deterministic: distance first, then training index.  Classification votes
resolve ties by the label of the nearest selected neighbor among the tied
classes, and any remaining tie by the smallest label id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset


@dataclass(frozen=True)
class NeighborRule:
    """Neighbor selection rule: ``kind`` is "knn" (uses k) or "hnn" (uses radius)."""

    kind: str
    k: int = 0
    radius: float = 0.0

    def __post_init__(self):
        if self.kind == "knn":
            if self.k < 1:
                raise ValueError("knn rule needs k >= 1")
        elif self.kind == "hnn":
            if not self.radius > 0:
                raise ValueError("hnn rule needs radius > 0")
        else:
            raise ValueError(f"unknown rule kind {self.kind!r}")


@dataclass(frozen=True)
class EvalReport:
    metric_name: str
    value: float
    n_test: int


def transform_features(features: np.ndarray, transform) -> np.ndarray:
    """Apply a linear map (matrix) to row-stacked features; None = identity."""
    if transform is None:
        return np.asarray(features, dtype=float)
    return np.asarray(features, dtype=float) @ np.asarray(transform, dtype=float).T


def neighbor_order(dists: np.ndarray) -> np.ndarray:
    """Indices sorted by (distance, index): a total, deterministic order."""
    return np.argsort(dists, kind="stable")


def _selected(dists, rule):
    """The selected indices in :func:`neighbor_order`: the first k, or the
    radius ball (every point when the ball is empty).  Only the points
    within the cut distance are sorted."""
    if rule.kind == "knn":
        if rule.k >= len(dists):
            return neighbor_order(dists)
        cut = np.partition(dists, rule.k - 1)[rule.k - 1]
    else:
        cut = rule.radius
    near = np.flatnonzero(dists <= cut)
    if rule.kind == "hnn":
        if not len(near):
            return neighbor_order(dists)  # empty ball: global fallback
        return near[neighbor_order(dists[near])]
    if len(near) < rule.k:  # a NaN distance reached the k-th place
        return neighbor_order(dists)[: rule.k]
    return near[neighbor_order(dists[near])][: rule.k]


def vote(labels_selected: np.ndarray, all_labels: np.ndarray) -> int:
    """Majority vote over selected labels (in nearness order).

    Ties between classes with equal counts go to the nearest selected
    neighbor whose label is among the tied classes; any remaining tie goes
    to the smallest label id.
    """
    labels_selected = np.asarray(labels_selected, dtype=int)
    counts = np.bincount(labels_selected, minlength=int(all_labels.max()) + 1)
    top = counts.max()
    tied = np.flatnonzero(counts == top)
    if len(tied) == 1:
        return int(tied[0])
    tied_set = set(int(t) for t in tied)
    for lab in labels_selected:
        if int(lab) in tied_set:
            return int(lab)
    return int(tied.min())


def predict_from_distances(dists, train: Dataset, rule: NeighborRule, mode: str):
    """Prediction given precomputed query-to-train distances."""
    sel = _selected(np.asarray(dists, dtype=float), rule)
    if mode == "classify":
        return vote(train.labels[sel], train.labels)
    if mode == "regress":
        return float(train.labels[sel].mean())
    raise ValueError(f"unknown mode {mode!r}")


def predict_each(distances, train: Dataset, queries, rule: NeighborRule, mode: str):
    """The one per-query loop of every predictor: ``distances(x)`` gives one
    query row's distances to the training rows."""
    out = [predict_from_distances(distances(x), train, rule, mode) for x in np.atleast_2d(queries)]
    return np.asarray(out, dtype=float if mode == "regress" else int)


def predict_batch(train: Dataset, transform, queries, rule: NeighborRule, mode: str):
    tq = transform_features(np.atleast_2d(queries), transform)
    tx = transform_features(train.features, transform)
    sq_t = np.sum(tx**2, axis=1)

    def distances(row):
        return np.sqrt(np.maximum(sq_t - 2.0 * (tx @ row) + row @ row, 0.0))

    return predict_each(distances, train, tq, rule, mode)


def evaluate(predictions, truth, task: str) -> EvalReport:
    """Score predictions: mean 0/1 error, or nMSE.

    nMSE is the mean squared error divided by the population variance of the
    test targets, so predicting the test mean everywhere scores 1.0.
    """
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if len(predictions) != len(truth) or len(truth) < 1:
        raise ValueError("predictions and truth must have equal nonzero length")
    if task == "classify":
        value = float(np.mean(predictions != truth))
        name = "error"
    elif task == "regress":
        var = float(np.var(truth))
        if var == 0.0:
            raise ValueError("test targets have zero variance; nMSE undefined")
        value = float(np.mean((predictions - truth) ** 2) / var)
        name = "nmse"
    else:
        raise ValueError(f"unknown task {task!r}")
    return EvalReport(metric_name=name, value=value, n_test=len(truth))
