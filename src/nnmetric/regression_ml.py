"""Metric learning for kNN regression.

The classification machinery carries over with one obstacle: the natural
loss Delta(y, h) = (y - mean of selected targets)^2 couples the members of
h through the mean, and maximizing score + Delta exactly is intractable.
Training therefore uses the separable upper bound
Delta_hat(y, h) = (1/k) sum_{i in h} (y - y_i)^2, which turns both inference
problems into per-point scoring: sort by s_i = -D(x, x_i) -+ gamma
(y - y_i)^2 / k and take the top k.

Two alternate definitions of the zero-loss set h* are provided as labeled
heuristics (the exact subset problems remain hard): an eps-insensitive
variant that accepts any h with Delta <= eps, and a min-loss variant that
greedily drives Delta itself down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import REAL, Dataset
from .gerrymander import (
    GerryTrainConfig,
    InfeasibleTargetError,
    TrainResult,
    _finite_order,
    _loo_distances,
    latent_sgd,
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


@dataclass(frozen=True)
class RegLossVariant:
    """Which h* definition the trainer solves for."""

    kind: str
    gamma: float
    eps: float = 0.0

    def __post_init__(self):
        if self.kind not in ("upper_bound", "eps_insensitive", "min_loss"):
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")


def reg_point_scores(dists, targets, y: float, k: int, gamma: float, direction: str):
    dists = np.asarray(dists, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if direction == "targeted":
        sign = -1.0
    elif direction == "loss_augmented":
        sign = 1.0
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return -dists + sign * gamma * (y - targets) ** 2 / k


def reg_inference_core(dists, targets, y: float, k: int, gamma: float, direction: str):
    """Top-k by per-point score; exact since the objective is additive."""
    scores = reg_point_scores(dists, targets, y, k, gamma, direction)
    order = np.lexsort((np.arange(len(scores)), -scores))
    h = order[:k]
    if not np.isfinite(scores[h]).all():
        raise InfeasibleTargetError(f"fewer than k={k} candidates")
    return h


def reg_inference(metric, x, y: float, k: int, gamma: float, direction: str,
                  train: Dataset, exclude=None):
    dists = _loo_distances(metric, x, train, exclude)
    return reg_inference_core(dists, train.labels, y, k, gamma, direction)


def reg_surrogate_core(dists, targets, y: float, k: int, gamma: float, h_star=None):
    """(surrogate, loss-augmented h-hat, h*) on per-point distances; h*
    defaults to the targeted top-k."""
    h_hat = reg_inference_core(dists, targets, y, k, gamma, "loss_augmented")
    if h_star is None:
        h_star = reg_inference_core(dists, targets, y, k, gamma, "targeted")
    up = -dists[h_hat].sum() + gamma * delta_reg_ub(y, h_hat, targets)
    down = -dists[h_star].sum() - gamma * delta_reg_ub(y, h_star, targets)
    return float(up - down), h_hat, h_star


def reg_surrogate(metric, x, y: float, k: int, gamma: float, train: Dataset,
                  exclude=None) -> float:
    """[S + gamma Delta_hat](h-hat) - [S - gamma Delta_hat](h*); nonnegative."""
    dists = _loo_distances(metric, x, train, exclude)
    return reg_surrogate_core(dists, train.labels, y, k, gamma)[0]


def _worst_member(h, targets, y):
    """The member pulling the selected mean away from y the hardest."""
    sel = targets[h]
    m = sel.mean()
    pull = (sel - y) * np.sign(m - y)
    pos = int(np.argmax(pull))
    return pos


def hstar_alternate_core(dists, targets, y: float, k: int, variant: RegLossVariant):
    """Heuristic zero-loss sets for the two alternate h* notions.

    eps_insensitive: start at the plain top-k, repeatedly swap the member
    worsening Delta most for the nearest outside point that strictly reduces
    Delta, until Delta <= eps; raises when the swap budget (5k) runs out
    first.  min_loss: start from the k targets nearest y, same swap loop,
    run until no swap improves.  Neither is exact.  Excluded points carry
    infinite distance.
    """
    targets = np.asarray(targets, dtype=float)
    dists = np.asarray(dists, dtype=float)
    near = _finite_order(dists)
    if len(near) < k:
        raise InfeasibleTargetError(f"fewer than k={k} candidates")
    if variant.kind == "eps_insensitive":
        h = list(reg_inference_core(dists, targets, y, k, 0.0, "targeted"))
    elif variant.kind == "min_loss":
        gap_order = np.lexsort((dists, np.abs(targets - y)))
        h = [i for i in gap_order if np.isfinite(dists[i])][:k]
    else:
        return reg_inference_core(dists, targets, y, k, variant.gamma, "targeted")
    budget = 5 * k
    for _ in range(budget):
        current = delta_reg(y, h, targets)
        if variant.kind == "eps_insensitive" and current <= variant.eps:
            return np.asarray(h, dtype=int)
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
    final = delta_reg(y, h, targets)
    if variant.kind == "eps_insensitive" and final > variant.eps:
        raise InfeasibleTargetError(
            f"no subset with loss <= {variant.eps} found within {budget} swaps"
        )
    return np.asarray(sorted(h, key=lambda i: (dists[i], i)), dtype=int)


def hstar_alternate(metric, x, y: float, k: int, variant: RegLossVariant,
                    train: Dataset, exclude=None):
    """:func:`hstar_alternate_core` on the distances from x under metric."""
    dists = _loo_distances(metric, x, train, exclude)
    return hstar_alternate_core(dists, train.labels, y, k, variant)


@dataclass(frozen=True)
class RegTrainConfig(GerryTrainConfig):
    """Trainer knobs; gamma scales the target-gap term inside inference,
    hstar picks the h* rule and eps is the eps_insensitive tube width."""

    gamma: float = 1.0
    hstar: str = "upper_bound"
    eps: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.hstar not in ("upper_bound", "eps_insensitive", "min_loss"):
            raise ValueError(f"unknown hstar variant {self.hstar!r}")


def train_reg_sgd(train: Dataset, config: RegTrainConfig, mode: str = "symmetric",
                  audit_psd: bool = False) -> TrainResult:
    """SGD on the separable regression surrogate; updates as in
    :func:`nnmetric.gerrymander.latent_sgd`.

    h-hat is the loss-augmented top-k; h* comes from the configured variant.
    eps-infeasible samples are skipped and counted.
    """
    if train.kind != REAL:
        raise ValueError("train_reg_sgd needs real targets")
    variant = None
    if config.hstar != "upper_bound":
        variant = RegLossVariant(
            kind=config.hstar, gamma=max(config.gamma, 1e-12), eps=config.eps
        )
    targets = np.asarray(train.labels, dtype=float)

    def infer(i, dists):
        y = float(targets[i])
        h_star = None
        if variant is not None:
            h_star = hstar_alternate_core(dists, targets, y, config.k, variant)
        return reg_surrogate_core(dists, targets, y, config.k, config.gamma, h_star)

    return latent_sgd(train, config, mode, infer, audit_psd)


def metric_reg_predictions(metric, train: Dataset, queries, k: int) -> np.ndarray:
    """kNN-mean regression predictions under a learned metric."""
    def distances(x):
        return metric.distances(x, train.features)

    return predict_each(distances, train, queries, NeighborRule("knn", k=k), "regress")
