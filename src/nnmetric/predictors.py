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
    return _vote(np.asarray(labels_selected, dtype=int), int(all_labels.max()) + 1)


def _vote(labels_selected: np.ndarray, n_slots: int) -> int:
    """:func:`vote` with the label count ``max(all_labels) + 1`` given."""
    counts = np.bincount(labels_selected, minlength=n_slots)
    top = counts.max()
    tied = np.flatnonzero(counts == top)
    if len(tied) == 1:
        return int(tied[0])
    tied_set = set(int(t) for t in tied)
    for lab in labels_selected:
        if int(lab) in tied_set:
            return int(lab)
    return int(tied.min())


# the most distances one block of queries holds (B * n doubles); small
# enough that the block's matrix product stays on one BLAS thread
_BLOCK = 16384


def _knn_block(dists, rule):
    """The rows of a block of distances whose k nearest need no fallback,
    and their k indices in :func:`neighbor_order`.

    A row qualifies when exactly k points lie at or under its k-th value;
    a tie at the cut, a NaN at the k-th place, ``k >= n`` and the hnn rule
    leave it to :func:`_selected`.  The k are taken in index order, so a
    stable sort by distance gives the (distance, index) order."""
    k = rule.k
    if rule.kind != "knn" or k >= dists.shape[1]:
        return np.zeros(len(dists), dtype=bool), np.empty((0, k), dtype=int)
    near = dists <= np.partition(dists, k - 1, axis=1)[:, k - 1:k]
    fast = np.count_nonzero(near, axis=1) == k
    near[~fast] = False
    cols = (np.flatnonzero(near) % dists.shape[1]).reshape(-1, k)
    order = np.argsort(dists[np.flatnonzero(fast)[:, None], cols], axis=1, kind="stable")
    return fast, np.take_along_axis(cols, order, axis=1)


def predict_each(distances, train: Dataset, queries, rule: NeighborRule, mode: str):
    """The one prediction loop of every predictor, over blocks of queries.

    ``distances(block)`` gives a (B, d) block of query rows' distances to
    the n training rows as a B x n array, with B at most ``max(1, _BLOCK //
    n)``.  Rows whose k nearest :func:`_knn_block` settles are selected
    for the whole block at once; the rest go through :func:`_selected`.
    Regression averages the selected targets, classification votes per row
    as :func:`vote` does, with the label maximum taken once per call."""
    if mode not in ("classify", "regress"):
        raise ValueError(f"unknown mode {mode!r}")
    queries = np.atleast_2d(queries)
    labels = train.labels
    out = np.empty(len(queries), dtype=float if mode == "regress" else int)
    rows = max(1, _BLOCK // train.n)
    if mode == "classify":
        n_slots = int(labels.max()) + 1
    for start in range(0, len(queries), rows):
        block = np.asarray(distances(queries[start:start + rows]), dtype=float)
        fast, sel = _knn_block(block, rule)
        preds = out[start:start + len(block)]
        if mode == "regress":
            if len(sel):
                preds[fast] = labels[sel].mean(axis=1)
            for i in np.flatnonzero(~fast):
                preds[i] = labels[_selected(block[i], rule)].mean()
        else:
            picks = iter(sel)
            for i in range(len(block)):
                chosen = next(picks) if fast[i] else _selected(block[i], rule)
                preds[i] = _vote(labels[chosen], n_slots)
    return out


def predict_batch(train: Dataset, transform, queries, rule: NeighborRule, mode: str):
    tq = transform_features(np.atleast_2d(queries), transform)
    tx = transform_features(train.features, transform)
    sq_t = np.sum(tx**2, axis=1)

    def distances(block):
        # sq_t - 2 q.tx + q.q, summed in place in that order; q.q is one
        # dot product per row
        sq = block @ tx.T
        sq *= -2.0
        sq += sq_t
        sq += (block[:, None, :] @ block[..., None])[..., 0]
        return np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)

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
