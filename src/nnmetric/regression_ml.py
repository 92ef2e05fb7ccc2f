"""Metric learning for kNN regression.

The classification machinery carries over with one obstacle: the natural
loss Delta(y, h) = (y - mean of selected targets)^2 couples the members of
h through the mean, and maximizing score + Delta exactly is intractable.
Training therefore uses the separable upper bound
Delta_hat(y, h) = (1/k) sum_{i in h} (y - y_i)^2, which turns both inference
problems into per-point scoring: sort by s_i = -D(x, x_i) -+ gamma
(y - y_i)^2 / k and take the top k.

An alternate zero-loss set h* is provided as a labeled heuristic (the
exact subset problem remains hard): a min-loss rule that greedily drives
Delta itself down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import REAL, Dataset
from .gerrymander import (
    GerryTrainConfig,
    InfeasibleTargetError,
    TrainResult,
    latent_sgd,
    sgd_rule,
)
from .predictors import NeighborRule, predict_each


def delta_reg(y: float, h, targets) -> float:
    """Squared error of the mean of the selected targets."""
    sel = np.asarray(targets, dtype=float)[np.asarray(h, dtype=int)]
    return float((y - sel.mean()) ** 2)


def delta_reg_ub(y: float, h, targets) -> float:
    """Mean squared target gap; upper-bounds delta_reg on every h."""
    sel = np.asarray(targets, dtype=float)[np.asarray(h, dtype=int)]
    return float(np.mean((y - sel) ** 2))


def reg_inference_core(dists, targets, y: float, k: int, gamma: float, direction: str,
                       gaps=None):
    """Top-k by per-point score; exact since the objective is additive.

    The score of point i is -D_i - g_i (targeted) or -D_i + g_i
    (loss-augmented), with target gaps g = gamma (y - targets)^2 / k;
    ``gaps`` is that array when the caller already has it, as
    :func:`reg_surrogate_core` shares one between its two calls, and is
    computed here when omitted.  Only the points scoring at least the k-th
    best, ties included, are sorted (by descending score, then index): the
    cut lists them in index order, so one stable sort of their scores gives
    that order.  The set is feasible when its worst member, the k-th best
    score, and its best member are both finite."""
    dists = np.asarray(dists, dtype=float)
    if gaps is None:
        gaps = gamma * (y - np.asarray(targets, dtype=float)) ** 2 / k
    # the negated scores; rounding is symmetric under sign, so these are
    # bit for bit -(-D -+ g)
    if direction == "targeted":
        neg = dists + gaps
    elif direction == "loss_augmented":
        neg = dists - gaps
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if k <= len(neg):
        part = neg.copy()
        part.partition(k - 1)
        kth = part[k - 1]
        # NaN partitions last and is below no score, so it is never a member
        if np.isfinite(kth):
            cut = (neg <= kth).nonzero()[0]
            h = cut[neg[cut].argsort(kind="stable")[:k]]
            if np.isfinite(neg[h[0]]):
                return h
    raise InfeasibleTargetError(f"fewer than k={k} candidates")


def reg_surrogate_core(dists, targets, y: float, k: int, gamma: float, h_star=None):
    """(surrogate, loss-augmented h-hat, h*) on per-point distances; h*
    defaults to the targeted top-k.

    The squared target gaps (y - targets)^2 are formed once: scaled by
    gamma / k they are the ``gaps`` of both :func:`reg_inference_core`
    calls, and each set's Delta-hat is the sum of its members' squared gaps
    over k, the reduction :func:`delta_reg_ub` makes."""
    targets = np.asarray(targets, dtype=float)
    sq = y - targets
    sq *= sq
    gaps = gamma * sq
    gaps /= k
    h_hat = reg_inference_core(dists, targets, y, k, gamma, "loss_augmented", gaps)
    if h_star is None:
        h_star = reg_inference_core(dists, targets, y, k, gamma, "targeted", gaps)
    up = -dists[h_hat].sum() + gamma * (sq[h_hat].sum() / k)
    down = -dists[h_star].sum() - gamma * (sq[h_star].sum() / k)
    return float(up - down), h_hat, h_star


def _worst_member(h, targets, y):
    """The member pulling the selected mean away from y the hardest."""
    sel = targets[h]
    m = sel.mean()
    pull = (sel - y) * np.sign(m - y)
    pos = int(np.argmax(pull))
    return pos


def hstar_alternate(dists, targets, y: float, k: int):
    """Heuristic min-loss zero-loss set.

    Start from the k targets nearest y, then repeatedly swap the member
    worsening Delta most for the nearest outside point that strictly reduces
    Delta, until no swap improves or the swap budget (5k) runs out.  Not
    exact.  Excluded points carry infinite distance.
    """
    targets = np.asarray(targets, dtype=float)
    dists = np.asarray(dists, dtype=float)
    order = np.argsort(dists, kind="stable")
    near = order[np.isfinite(dists[order])]  # the finite points, nearest first
    if len(near) < k:
        raise InfeasibleTargetError(f"fewer than k={k} candidates")
    gap_order = np.lexsort((dists, np.abs(targets - y)))
    h = [i for i in gap_order if np.isfinite(dists[i])][:k]
    for _ in range(5 * k):
        current = delta_reg(y, h, targets)
        pos = _worst_member(np.asarray(h), targets, y)
        rest = h[:pos] + h[pos + 1 :]
        outside = near[~np.isin(near, h)]
        # row j holds the targets of rest + [outside[j]] in delta_reg's order, so
        # its mean is bit for bit the one delta_reg would take
        trials = np.empty((len(outside), k))
        trials[:, :-1] = targets[rest]
        trials[:, -1] = targets[outside]
        improving = np.flatnonzero((y - trials.mean(axis=1)) ** 2 < current - 1e-15)
        if not len(improving):
            break
        h = rest + [outside[improving[0]]]  # nearest improving point wins
    return np.asarray(sorted(h, key=lambda i: (dists[i], i)), dtype=int)


@dataclass(frozen=True)
class RegTrainConfig(GerryTrainConfig):
    """Trainer knobs; gamma scales the target-gap term inside inference
    and hstar picks the h* rule."""

    gamma: float = 1.0
    hstar: str = "upper_bound"

    def __post_init__(self):
        super().__post_init__()
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.hstar not in ("upper_bound", "min_loss"):
            raise ValueError(f"unknown hstar variant {self.hstar!r}")


def train_reg_sgd(train: Dataset, config: RegTrainConfig, audit_psd: bool = False) -> TrainResult:
    """SGD on the separable regression surrogate; W is updated as in the
    symmetric variant of :func:`nnmetric.gerrymander.sgd_rule`.

    h-hat is the loss-augmented top-k.  h* is the targeted top-k under
    ``hstar = upper_bound``, else :func:`hstar_alternate`.  Samples with
    fewer than k candidates are skipped and counted.
    """
    if train.kind != REAL:
        raise ValueError("train_reg_sgd needs real targets")
    targets = np.asarray(train.labels, dtype=float)

    def infer(i, dists):
        y = float(targets[i])
        h_star = None
        if config.hstar != "upper_bound":
            h_star = hstar_alternate(dists, targets, y, config.k)
        return reg_surrogate_core(dists, targets, y, config.k, config.gamma, h_star)

    return latent_sgd(train, config, infer, *sgd_rule(train, config.c, "symmetric"), audit_psd)


def metric_reg_predictions(metric, train: Dataset, queries, k: int) -> np.ndarray:
    """kNN-mean regression predictions under a learned metric."""
    database = np.asfortranarray(train.features)

    def distances(block):
        return metric.distances(block, database)

    return predict_each(distances, train, queries, NeighborRule("knn", k=k))
