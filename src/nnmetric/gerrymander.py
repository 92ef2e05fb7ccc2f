"""Latent neighbor-set metric learning for kNN classification.

The latent variable is the set h of k training indices serving as neighbors
of a query.  Training drives the score of some correctly-voting set above
the score of every badly-voting set:

    surrogate(x, y) = max_h [S(x,h) + loss(y,h)] - max_{h votes y} S(x,h)

Both maxima are computed exactly by greedy procedures over per-point
distances (targeted and loss-augmented inference).  The surrogate's first
term uses the loss of the worst class among the vote winners, which is what
makes the class-by-class reduction of loss-augmented inference exact.

Scores are S(x,h) = -sum_{j in h} D(x, x_j), with D either a Mahalanobis
quadratic form (symmetric variant, PSD W) or a two-sided linear projection
distance |Ux - Vx_j|^2 (asymmetric variant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import CLASS, Dataset
from .numerics import psd_project, sym_eig, symmetrize
from .predictors import NeighborRule, predict_each, vote


class InfeasibleTargetError(ValueError):
    """Raised when no size-k neighbor set can vote for the requested class."""


@dataclass(frozen=True)
class MahalanobisMetric:
    """Symmetric metric D(x, x') = (x - x')^T W (x - x'), W PSD."""

    w: np.ndarray

    def distances(self, x, features) -> np.ndarray:
        diff = np.asarray(features, dtype=float) - np.asarray(x, dtype=float)
        return np.einsum("ij,jk,ik->i", diff, self.w, diff)

    @property
    def d(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class AsymmetricMetric:
    """Asymmetric distance D(x, x') = |Ux - Vx'|^2.

    The equivalent joint quadratic form [[U^T U, -U^T V], [-V^T U, V^T V]]
    is PSD for every (U, V), so no projection step is ever needed.
    """

    u: np.ndarray
    v: np.ndarray

    def distances(self, x, features) -> np.ndarray:
        query = self.u @ np.asarray(x, dtype=float)
        db = np.asarray(features, dtype=float) @ self.v.T
        return np.sum((db - query) ** 2, axis=1)

    @property
    def d(self) -> int:
        return self.u.shape[1]

    def block_matrix(self) -> np.ndarray:
        utu = self.u.T @ self.u
        vtv = self.v.T @ self.v
        utv = self.u.T @ self.v
        top = np.hstack([utu, -utv])
        bottom = np.hstack([-utv.T, vtv])
        return np.vstack([top, bottom])


def zero_one_loss(n_classes: int) -> np.ndarray:
    return np.ones((n_classes, n_classes)) - np.eye(n_classes)


def validate_loss_matrix(loss_matrix: np.ndarray) -> np.ndarray:
    lam = np.asarray(loss_matrix, dtype=float)
    if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
        raise ValueError("loss matrix must be square")
    if np.any(lam < 0) or np.any(np.diag(lam) != 0):
        raise ValueError("loss matrix needs nonnegative entries and a zero diagonal")
    return lam


def score(metric, x, h, train: Dataset) -> float:
    """Distance score S(x, h): the negated sum of distances to members of h."""
    dists = metric.distances(x, train.features[np.asarray(h, dtype=int)])
    return float(-np.sum(dists))


def task_loss(y: int, h, train_labels, loss_matrix) -> float:
    """Loss of predicting from h's majority vote against the true label y.

    h must be ordered nearest-first; vote ties resolve to the nearest
    member's class, then to the smallest label id.
    """
    labels = np.asarray(train_labels, dtype=int)
    predicted = vote(labels[np.asarray(h, dtype=int)], labels)
    return float(loss_matrix[int(y) - 1, predicted - 1])


def tied_task_loss(y: int, h, train_labels, loss_matrix) -> float:
    """Loss of the worst class among h's vote winners (shared maxima count)."""
    labels = np.asarray(train_labels, dtype=int)[np.asarray(h, dtype=int)]
    counts = np.bincount(labels)
    top = counts.max()
    winners = np.flatnonzero(counts == top)
    return float(max(loss_matrix[int(y) - 1, r - 1] for r in winners))


def n_star(n_classes: int, k: int, ties_forbidden: bool) -> int:
    """Minimum number of target-class votes that can still win a k-vote."""
    tau = 1 if ties_forbidden else 0
    return -(-(k + tau * (n_classes - 1)) // n_classes)


def _finite_order(dists):
    order = np.argsort(dists, kind="stable")
    return order[np.isfinite(dists[order])]


def targeted_inference_core(dists, labels, target: int, k: int, tau: int) -> np.ndarray:
    """Argmax of the score over size-k sets voting for ``target``.

    Enumerates the number m of target-class members, from the minimum that
    can win up to k.  For each m the best set takes the m nearest target
    points plus the nearest others, each non-target class capped at m - tau
    members; greedy filling under per-class caps is exact because caps form
    a partition matroid.

    Works on per-point distances, so any metric whose set score is additive
    over members can reuse it.  Excluded points carry infinite distance.
    Returns indices sorted nearest-first.
    """
    labels = np.asarray(labels, dtype=int)
    dists = np.asarray(dists, dtype=float)
    order = _finite_order(dists)
    if len(order) < k:
        raise InfeasibleTargetError(f"only {len(order)} candidates for k={k}")
    pool_classes = np.unique(labels[order])
    need = n_star(len(pool_classes), k, ties_forbidden=bool(tau))
    target_sorted = order[labels[order] == target]
    if len(target_sorted) < need:
        raise InfeasibleTargetError(
            f"class {target} has {len(target_sorted)} candidates, needs {need}"
        )
    others = order[labels[order] != target]
    other_labels = labels[others]
    best_h, best_total = None, np.inf
    for m in range(need, min(k, len(target_sorted)) + 1):
        cap = m - tau
        fill = []
        counts = np.zeros(int(labels.max()) + 1, dtype=int)
        for i, lab in zip(others, other_labels):
            if len(fill) == k - m:
                break
            if counts[lab] < cap:
                fill.append(i)
                counts[lab] += 1
        if len(fill) < k - m:
            continue
        h = np.concatenate([target_sorted[:m], fill]).astype(int)
        total = float(dists[h].sum())
        if total < best_total:
            best_h, best_total = h, total
    if best_h is None:
        raise InfeasibleTargetError(
            f"no size-{k} set lets class {target} win with tau={tau}"
        )
    return best_h[np.lexsort((best_h, dists[best_h]))]


def loss_augmented_inference_core(dists, labels, y: int, k: int, loss_matrix):
    """Argmax of score + loss of the worst vote winner, by class reduction.

    For each feasible class r, the best r-winning set (ties allowed) is found
    by targeted inference; the class maximizing score + loss(y, r) wins.
    Ties between classes go to the smallest id.
    """
    labels = np.asarray(labels, dtype=int)
    dists = np.asarray(dists, dtype=float)
    lam = np.asarray(loss_matrix, dtype=float)
    best_h, best_value = None, -np.inf
    for r in np.unique(labels[np.isfinite(dists)]):
        try:
            h = targeted_inference_core(dists, labels, int(r), k, tau=0)
        except InfeasibleTargetError:
            continue
        value = -float(dists[h].sum()) + float(lam[int(y) - 1, int(r) - 1])
        if value > best_value:
            best_h, best_value = h, value
    if best_h is None:
        raise InfeasibleTargetError("no class admits a feasible neighbor set")
    return best_h, best_value


def _loo_distances(metric, x, train, exclude):
    dists = metric.distances(x, train.features)
    if exclude is not None:
        dists = dists.copy()
        dists[exclude] = np.inf
    return dists


def targeted_inference(metric, x, target: int, k: int, tau: int, train: Dataset, exclude=None):
    """Highest-scoring h of size k whose vote goes to ``target``.

    tau=1 forbids vote ties (used for the h* term); tau=0 allows the target
    to share the maximum count (used inside loss-augmented inference).
    """
    dists = _loo_distances(metric, x, train, exclude)
    return targeted_inference_core(dists, train.labels, target, k, tau)


def loss_augmented_inference(metric, x, y: int, k: int, loss_matrix, train: Dataset, exclude=None):
    """The "worst offending" h: argmax of score plus task loss."""
    dists = _loo_distances(metric, x, train, exclude)
    h, _ = loss_augmented_inference_core(dists, train.labels, y, k, loss_matrix)
    return h


def surrogate_core(dists, labels, y: int, k: int, loss_matrix):
    """(surrogate, loss-augmented h-hat, tie-free targeted h*) on per-point
    distances; excluded points carry infinite distance."""
    h_hat, augmented = loss_augmented_inference_core(dists, labels, y, k, loss_matrix)
    h_star = targeted_inference_core(dists, labels, int(y), k, tau=1)
    return augmented + float(dists[h_star].sum()), h_hat, h_star


def surrogate_loss(metric, x, y: int, k: int, loss_matrix, train: Dataset, exclude=None) -> float:
    """max_h [S + loss] - max_{h votes y} S; nonnegative, upper-bounds the
    task loss at the plain top-k neighbor set."""
    dists = _loo_distances(metric, x, train, exclude)
    return surrogate_core(dists, train.labels, y, k, loss_matrix)[0]


def feature_map_psi(x, h, train: Dataset) -> np.ndarray:
    """Psi(x, h) = -sum_{j in h} (x - x_j)(x - x_j)^T, the W-gradient of S."""
    diffs = np.asarray(x, dtype=float) - train.features[np.asarray(h, dtype=int)]
    return symmetrize(-diffs.T @ diffs)


def asym_score_grads(u, v, x, h, train: Dataset):
    """Partials of the asymmetric score wrt U (query side) and V (database side)."""
    xs = train.features[np.asarray(h, dtype=int)]
    x = np.asarray(x, dtype=float)
    k = xs.shape[0]
    grad_u = -2.0 * np.outer(k * (u @ x) - v @ xs.sum(axis=0), x)
    grad_v = -2.0 * (v @ (xs.T @ xs) - np.outer(u @ x, xs.sum(axis=0)))
    return grad_u, grad_v


def asym_reg_grads(u, v):
    """Gradient terms of the joint-matrix Frobenius penalty."""
    grad_u = 2.0 * (u @ u.T) @ u + 4.0 * (v @ v.T) @ u
    grad_v = 2.0 * (v @ v.T) @ v + 4.0 * (u @ u.T) @ v
    return grad_u, grad_v


@dataclass(frozen=True)
class GerryTrainConfig:
    """Knobs for the SGD trainers.

    lr is "inv_t" (eta(t) = 1/t, t counted per applied sample update) or a
    constant float.  init is "zeros", "identity", or "diag" with init_weights
    giving the diagonal.  Training stops when the epoch-mean surrogate fails
    to decrease by stop_rel_tol relative, or after ``epochs``; stop_rel_tol
    None always runs every epoch.
    """

    k: int
    c: float = 1.0
    epochs: int = 20
    lr: object = "inv_t"
    init: str = "zeros"
    init_weights: np.ndarray | None = None
    seed: int = 0
    batch_size: int = 1
    stop_rel_tol: float | None = 1e-4

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.c > 0:
            raise ValueError("C must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


class TraceRow(NamedTuple):
    epoch: int
    mean_surrogate: float
    skipped: int


@dataclass
class TrainResult:
    metric: object
    trace: list
    epochs_run: int
    psd_audit: list = field(default_factory=list)


# the cubic penalty gradient makes an undamped 1/t schedule diverge at
# eta(1) = 1, so the asymmetric variant offsets the decay
_ASYM_LR_OFFSET = 50


def _learning_rate(lr, t: int, offset: int = 0) -> float:
    if lr == "inv_t":
        return 1.0 / (t + offset)
    return float(lr)


def _init_matrix(config: GerryTrainConfig, d: int) -> np.ndarray:
    if config.init == "zeros":
        return np.zeros((d, d))
    if config.init == "identity":
        return np.eye(d)
    if config.init == "diag":
        if config.init_weights is None:
            raise ValueError("diag init needs init_weights")
        w = np.asarray(config.init_weights, dtype=float)
        if w.shape != (d,):
            raise ValueError("init_weights must be a d-vector")
        return np.diag(w)
    raise ValueError(f"unknown init {config.init!r}")


def _should_stop(prev_mean, mean, rel_tol) -> bool:
    if rel_tol is None or prev_mean is None:
        return False
    if not np.isfinite(mean):
        return True
    return (prev_mean - mean) < rel_tol * abs(prev_mean)


def run_epochs(n: int, config, rng, run_batch) -> list:
    """The epoch loop shared by every trainer; returns the trace.

    Each epoch visits a fresh ``rng.permutation(n)`` in batches of
    ``config.batch_size``.  ``run_batch(batch)`` applies the batch's updates
    and returns the surrogate of each sample it did not skip; the rest count
    as skipped.  An epoch whose samples were all skipped has a NaN mean.
    Training stops after ``config.epochs`` or when the epoch-mean surrogate
    fails to decrease by ``config.stop_rel_tol`` relative (or is not finite).
    """
    trace: list[TraceRow] = []
    prev_mean = None
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            losses += run_batch(order[start : start + config.batch_size])
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        trace.append(TraceRow(epoch=epoch, mean_surrogate=mean_loss, skipped=n - len(losses)))
        if _should_stop(prev_mean, mean_loss, config.stop_rel_tol):
            break
        prev_mean = mean_loss
    return trace


def latent_sgd(train: Dataset, config: GerryTrainConfig, variant: str, infer,
               audit_psd: bool = False) -> TrainResult:
    """Stochastic subgradient descent between latent neighbor sets.

    ``infer(i, dists)`` gets the leave-one-out distances of training point i
    under the current metric and returns (surrogate, h-hat, h*), or raises
    InfeasibleTargetError to skip the sample.

    Symmetric variant: per applied sample, W <- (1 - eta(t)) W - C (Psi(x, h-hat)
    - Psi(x, h-star)), then projection onto the PSD cone.  Asymmetric variant:
    descent on U and V with the score partials (scaled by C) plus the joint
    Frobenius penalty gradients; PSD holds by construction.

    Mini-batches run inference for all members at the batch-start metric,
    then apply the updates sequentially in sample order.
    """
    if variant not in ("symmetric", "asymmetric"):
        raise ValueError(f"unknown variant {variant!r}")
    rng = np.random.default_rng(config.seed)
    d = train.d
    if variant == "symmetric":
        metric = MahalanobisMetric(w=_init_matrix(config, d))
    else:
        if config.init == "zeros":  # zero projections cannot break symmetry
            base = np.eye(d)
        elif config.init == "diag":
            # U = V = diag(s) induces distances sum s_j^2 (x_j - x'_j)^2
            base = np.sqrt(_init_matrix(config, d))
        else:
            base = _init_matrix(config, d)
        metric = AsymmetricMetric(u=base.copy(), v=base.copy())
    psd_audit: list[float] = []
    t = 0

    def run_batch(batch):
        nonlocal metric, t
        losses, updates = [], []
        for i in batch:
            dists = metric.distances(train.features[i], train.features)
            dists[i] = np.inf
            try:
                surrogate, h_hat, h_star = infer(i, dists)
            except InfeasibleTargetError:
                continue
            losses.append(surrogate)
            updates.append((i, h_hat, h_star))
        for i, h_hat, h_star in updates:
            t += 1
            x = train.features[i]
            if variant == "symmetric":
                eta = _learning_rate(config.lr, t)
                delta = feature_map_psi(x, h_hat, train) - feature_map_psi(
                    x, h_star, train
                )
                w = psd_project((1.0 - eta) * metric.w - config.c * delta)
                metric = MahalanobisMetric(w=w)
                if audit_psd:
                    psd_audit.append(float(sym_eig(w).values[-1]))
            else:
                eta = _learning_rate(config.lr, t, offset=_ASYM_LR_OFFSET)
                gu_hat, gv_hat = asym_score_grads(metric.u, metric.v, x, h_hat, train)
                gu_star, gv_star = asym_score_grads(metric.u, metric.v, x, h_star, train)
                reg_u, reg_v = asym_reg_grads(metric.u, metric.v)
                u = metric.u - eta * (config.c * (gu_hat - gu_star) + reg_u)
                v = metric.v - eta * (config.c * (gv_hat - gv_star) + reg_v)
                metric = AsymmetricMetric(u=u, v=v)
        return losses

    trace = run_epochs(train.n, config, rng, run_batch)
    return TrainResult(metric=metric, trace=trace, epochs_run=len(trace), psd_audit=psd_audit)


def train_sgd(
    train: Dataset,
    config: GerryTrainConfig,
    variant: str = "symmetric",
    loss_matrix=None,
    audit_psd: bool = False,
) -> TrainResult:
    """SGD on the classification surrogate; updates as in :func:`latent_sgd`.

    h-hat is the loss-augmented set and h* the tie-free targeted set for the
    sample's own class.  Samples whose targeted inference is infeasible (too
    few same-class neighbors) are skipped and counted in the trace.
    """
    if train.kind != CLASS:
        raise ValueError("train_sgd needs a classed dataset")
    lam = (
        zero_one_loss(train.n_classes)
        if loss_matrix is None
        else validate_loss_matrix(loss_matrix)
    )

    def infer(i, dists):
        return surrogate_core(dists, train.labels, int(train.labels[i]), config.k, lam)

    return latent_sgd(train, config, variant, infer, audit_psd)


def metric_predictions(metric, train: Dataset, queries, k: int) -> np.ndarray:
    """kNN class predictions under a learned metric (either variant)."""
    def distances(x):
        return metric.distances(x, train.features)

    return predict_each(distances, train, queries, NeighborRule("knn", k=k), "classify")
