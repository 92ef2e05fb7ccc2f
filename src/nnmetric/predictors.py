"""kNN and radius (boxcar) prediction under a metric transform, plus evaluation.

Neighbor search is brute force.  A block of queries selects its neighbors
as one boolean mask, which a single product with the training targets or
one-hot labels reduces to each row's sums.  The tie order everywhere is
total and deterministic: distance first, then training index, NaN last.
Classification votes resolve ties by the label of the nearest selected
neighbor among the tied classes.
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


# the most distances one block of queries holds (B * n doubles, and as many
# mask entries); small enough that the block's distance product and its
# mask product stay on one BLAS thread
_BLOCK = 16384


def _select(dists, rule):
    """The B x n mask of every row's selected points in a block of distances.

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
    return take


def predict_each(distances, train: Dataset, queries, rule: NeighborRule):
    """The one prediction loop of every predictor, over blocks of queries.

    ``distances(block)`` gives a (B, d) block of query rows' distances to
    the n training rows as a B x n array, with B at most ``max(1, _BLOCK //
    n)``.  Each block's neighbours are the mask of one :func:`_select`
    call, reduced by one product with ``columns``: the real targets, whose
    sums each row's count turns into a mean, or the one-hot class labels,
    whose sums are each row's votes.  A row goes to its most frequent
    label, a tie to the tied label of its nearest selected neighbour in
    (distance, index) order, NaN after inf."""
    queries = np.atleast_2d(queries)
    labels = train.labels
    vote = train.kind == CLASS
    columns = np.eye(labels.max() + 1)[labels] if vote else labels
    out = np.empty(len(queries), dtype=int if vote else float)
    rows = max(1, _BLOCK // train.n)
    for start in range(0, len(queries), rows):
        block = np.asarray(distances(queries[start:start + rows]), dtype=float)
        take = _select(block, rule)
        sums = take @ columns
        preds = out[start:start + len(block)]
        if not vote:
            preds[:] = sums / np.count_nonzero(take, axis=1)
            continue
        preds[:] = sums.argmax(axis=1)
        tied = sums == sums.max(axis=1, keepdims=True)
        shared = np.flatnonzero(np.count_nonzero(tied, axis=1) > 1)
        # a tied row's members of its tied labels, the others at +inf: the
        # first argmin is the nearest of them, unless that is at inf or NaN
        member = take[shared] & np.take(tied[shared], labels, axis=1)
        near = np.where(member, block[shared], np.inf)
        first = near.argmin(axis=1)
        for i in np.flatnonzero(~np.isfinite(near.min(axis=1))):
            order = np.argsort(block[shared[i]], kind="stable")
            first[i] = order[member[i, order].argmax()]
        preds[shared] = labels[first]
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
