"""kNN and radius (boxcar) prediction under a metric transform, plus evaluation.

Neighbor search is brute force.  The tie order everywhere is total and
deterministic: distance first, then training index.  Classification votes
resolve ties by the label of the nearest selected neighbor among the tied
classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CLASS, Dataset


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


# the most distances one block of queries holds (B * n doubles); small
# enough that the block's matrix product stays on one BLAS thread
_BLOCK = 16384


def _select(dists, rule):
    """Every row's selected columns of a B x n block of distances, in
    (distance, index) order, flat and row after row, and each row's count.

    knn takes the points at or under the row's k-th value.  On a row with a
    tie there, or a NaN there (NaN sorts last, so the row's NaNs are at the
    cut), it takes the points under the cut and fills up to k from the
    points at the cut in index order; k >= n takes every point.  hnn takes
    the radius ball, or every point when the ball is empty."""
    if rule.kind == "hnn":
        take = dists <= rule.radius
        take[~take.any(axis=1)] = True
    else:
        k = min(rule.k, dists.shape[1])
        cut = np.partition(dists, k - 1, axis=1)[:, k - 1:k]
        take = dists <= cut
        odd = np.flatnonzero(np.count_nonzero(take, axis=1) != k)
        if len(odd):
            d, c = dists[odd], cut[odd]
            nan_cut = np.isnan(c)
            under = (d < c) | (nan_cut & ~np.isnan(d))
            at = (d == c) | (nan_cut & np.isnan(d))
            room = k - np.count_nonzero(under, axis=1, keepdims=True)
            take[odd] = under | (at & (np.cumsum(at, axis=1) <= room))
    flat = np.flatnonzero(take)
    rows, cols = np.divmod(flat, dists.shape[1])
    # by distance, then stably by row: a block has at most _BLOCK < 2**15
    # rows, so int16 row ids take numpy's radix sort
    order = np.argsort(dists.ravel()[flat], kind="stable")
    order = order[np.argsort(rows[order].astype(np.int16), kind="stable")]
    return cols[order], np.bincount(rows, minlength=len(dists))


def predict_each(distances, train: Dataset, queries, rule: NeighborRule):
    """The one prediction loop of every predictor, over blocks of queries.

    ``distances(block)`` gives a (B, d) block of query rows' distances to
    the n training rows as a B x n array, with B at most ``max(1, _BLOCK //
    n)``.  Each block's neighbours come from one :func:`_select` call.
    The training set's kind sets the prediction: real targets average each
    row's selected targets; class labels are voted, the whole block's votes
    counted with one bincount, and a row goes to its most frequent label, a
    tie to the tied label of its nearest selected neighbour."""
    queries = np.atleast_2d(queries)
    labels = train.labels
    vote = train.kind == CLASS
    out = np.empty(len(queries), dtype=int if vote else float)
    rows = max(1, _BLOCK // train.n)
    if vote:
        n_slots = int(labels.max()) + 1
    for start in range(0, len(queries), rows):
        block = np.asarray(distances(queries[start:start + rows]), dtype=float)
        picked, counts = _select(block, rule)
        labs = labels[picked]
        preds = out[start:start + len(block)]
        if vote:
            row = np.repeat(np.arange(len(block)), counts)
            tally = np.bincount(row * n_slots + labs, minlength=len(block) * n_slots)
            tally = tally.reshape(len(block), n_slots)
            # members whose label has their row's top count; each row's
            # first such member is its nearest
            won = np.flatnonzero(tally[row, labs] == tally.max(axis=1)[row])
            preds[:] = labs[won[np.diff(row[won], prepend=-1) != 0]]
        elif rule.kind == "knn":
            preds[:] = labs.reshape(len(block), -1).mean(axis=1)
        else:
            preds[:] = [run.mean() for run in np.split(labs, np.cumsum(counts)[:-1])]
    return out


def predict_batch(train: Dataset, transform, queries, rule: NeighborRule):
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

    return predict_each(distances, train, tq, rule)


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
