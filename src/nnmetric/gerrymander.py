"""Latent neighbor-set metric learning for kNN classification.

The latent variable is the set h of k training indices serving as neighbors
of a query.  Training drives the score of some correctly-voting set above
the score of every badly-voting set:

    surrogate(x, y) = max_h [S(x,h) + loss(y,h)] - max_{h votes y} S(x,h)

Both maxima are computed exactly by greedy procedures over per-point
distances (targeted and loss-augmented inference).  The loss is the 0/1 loss
of the worst vote winner: 0 when y alone wins h's vote, 1 when another class
wins or shares the win, which is what makes the class-by-class reduction of
loss-augmented inference exact.

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
from .predictors import NeighborRule, predict_each


class InfeasibleTargetError(ValueError):
    """Raised when no size-k neighbor set can vote for the requested class."""


@dataclass(frozen=True)
class MahalanobisMetric:
    """Symmetric metric D(x, x') = (x - x')^T W (x - x'), W PSD.

    :meth:`distances` forms the n quadratic forms as the row sums of
    (diff W) o diff: one matrix product, which BLAS runs, where a
    three-operand einsum has no contraction path and loops in C.
    """

    w: np.ndarray

    def distances(self, x, features) -> np.ndarray:
        """The n distances from query ``x`` to the rows of ``features``, or,
        for a (B, d) block of queries, the B x n distances of each row."""
        diff = np.asarray(features, dtype=float) - np.asarray(x, dtype=float)[..., None, :]
        return ((diff @ self.w) * diff).sum(axis=-1)


@dataclass(frozen=True)
class AsymmetricMetric:
    """Asymmetric distance D(x, x') = |Ux - Vx'|^2.

    The equivalent joint quadratic form [[U^T U, -U^T V], [-V^T U, V^T V]]
    is PSD for every (U, V), so no projection step is ever needed.
    """

    u: np.ndarray
    v: np.ndarray

    def distances(self, x, features) -> np.ndarray:
        """The n distances from query ``x`` to the rows of ``features``, or,
        for a (B, d) block of queries, the B x n distances of each row; the
        database side V x' is computed once per call."""
        query = np.asarray(x, dtype=float) @ self.u.T
        db = np.asarray(features, dtype=float) @ self.v.T
        return np.sum((db - query[..., None, :]) ** 2, axis=-1)


def n_star(n_classes: int, k: int, ties_forbidden: bool) -> int:
    """Minimum number of target-class votes that can still win a k-vote."""
    tau = 1 if ties_forbidden else 0
    return -(-(k + tau * (n_classes - 1)) // n_classes)


def _finite_order(dists):
    order = np.argsort(dists, kind="stable")
    return order[np.isfinite(dists[order])]


class _Candidates(NamedTuple):
    order: np.ndarray  # the k nearest finite points of each class, by (distance, index)
    labels: np.ndarray
    rank: np.ndarray  # each point's rank among the finite points of its class
    n_finite: int
    classes: np.ndarray  # the classes with a finite point, ascending


def _candidates(dists, labels, k: int) -> _Candidates:
    order = _finite_order(dists)
    labs = labels[order]
    counts = np.bincount(labs)
    by_class = np.argsort(labs, kind="stable")
    rank = np.empty(len(order), dtype=int)
    rank[by_class] = np.arange(len(order)) - (np.cumsum(counts) - counts)[labs[by_class]]
    keep = rank < k
    return _Candidates(order[keep], labs[keep], rank[keep], len(order), np.flatnonzero(counts))


def _best_sets(dists, cands: _Candidates, targets, k: int, tau: int) -> list:
    """Per class of ``targets``, the best size-k set that class wins, as a
    sorted list of positions in ``cands.order``, or None.

    Every feasible (class, m) set of :func:`targeted_inference_core` is
    listed in the member order of its greedy fill (the m nearest target
    points, then the capped others) and all of them are scored with one
    gather-and-sum, so each sum adds its terms in that order.  Per class
    the first strict minimum over m wins.  ``cands.order`` is sorted by
    (distance, index), so sorted positions list a set nearest-first.
    """
    if not cands.n_finite:
        return [None] * len(targets)
    labs, rank = cands.labels.tolist(), cands.rank.tolist()
    need = n_star(len(cands.classes), k, ties_forbidden=bool(tau))
    sets, owners = [], []
    for slot, target in enumerate(targets):
        own = [p for p, lab in enumerate(labs) if lab == target]
        others = [(p, r) for p, (lab, r) in enumerate(zip(labs, rank)) if lab != target]
        for m in range(need, min(k, len(own)) + 1):
            fill = [p for p, r in others if r < m - tau][: k - m]
            if len(fill) == k - m:
                sets.append(own[:m] + fill)
                owners.append(slot)
    best, best_total = [None] * len(targets), [np.inf] * len(targets)
    if sets:
        totals = dists[cands.order[np.array(sets)]].sum(axis=1).tolist()
        for h, slot, total in zip(sets, owners, totals):
            if total < best_total[slot]:
                best[slot], best_total[slot] = h, total
    return [None if h is None else sorted(h) for h in best]


def targeted_inference_core(dists, labels, target: int, k: int, tau: int,
                            cands: _Candidates | None = None) -> np.ndarray:
    """Argmax of the score over size-k sets voting for ``target``.

    Enumerates the number m of target-class members, from the minimum that
    can win up to k.  tau=1 forbids vote ties (the h* term); tau=0 lets the
    target share the maximum count.  For each m the best set takes the m
    nearest target points plus the nearest others, each non-target class
    capped at m - tau members; greedy filling under per-class caps is exact
    because caps form a partition matroid.  The sets of every m are scored
    together and the first strict minimum of the distance sum wins.  As m
    and every cap are at most k, no set uses a point outside the k nearest
    of its class, so only those are candidates.  ``cands`` is that list as
    :func:`_candidates` builds it from ``dists``; one list serves every call
    of a sample, and it is built here when omitted.

    Works on per-point distances, so any metric whose set score is additive
    over members can reuse it.  Excluded points carry infinite distance.
    Returns indices sorted nearest-first, ties by index.
    """
    dists = np.asarray(dists, dtype=float)
    if cands is None:
        cands = _candidates(dists, np.asarray(labels, dtype=int), k)
    (h,) = _best_sets(dists, cands, [target], k, tau)
    if h is None:
        raise InfeasibleTargetError(
            f"no size-{k} set of the {cands.n_finite} finite points lets class "
            f"{target} win with tau={tau}"
        )
    return cands.order[h]


def loss_augmented_inference_core(dists, labels, y: int, k: int,
                                  cands: _Candidates | None = None):
    """Argmax of score + 0/1 loss of the worst vote winner, by class reduction.

    For each feasible class r, the best r-winning set (ties allowed, tau=0)
    is found as in :func:`targeted_inference_core`, the sets of every class
    and m scored with one gather-and-sum.  The winners are scored again on
    their nearest-first order, and the class maximizing score + [r != y]
    wins (a win y shares is also a win of the other class, at loss 1).
    Ties between classes go to the smallest id.  ``cands`` is as in
    :func:`targeted_inference_core`.
    """
    labels = np.asarray(labels, dtype=int)
    dists = np.asarray(dists, dtype=float)
    if cands is None:
        cands = _candidates(dists, labels, k)
    classes = cands.classes.tolist()
    feasible = [(r, h) for r, h in zip(classes, _best_sets(dists, cands, classes, k, 0))
                if h is not None]
    if not feasible:
        raise InfeasibleTargetError("no class admits a feasible neighbor set")
    scores = (-dists[cands.order[np.array([h for _, h in feasible])]].sum(axis=1)).tolist()
    best_h, best_value = None, -np.inf
    for (r, h), s in zip(feasible, scores):
        value = s + float(r != y)
        if value > best_value:
            best_h, best_value = h, value
    return cands.order[best_h], best_value


def surrogate_core(dists, labels, y: int, k: int):
    """(surrogate, loss-augmented h-hat, tie-free targeted h*) on per-point
    distances; excluded points carry infinite distance.

    The surrogate max_h [S + loss] - max_{h votes y} S, with the 0/1 loss of
    the worst vote winner, is nonnegative and upper-bounds that loss at the
    plain top-k neighbor set.  Per sample it builds one candidate list and
    makes one loss-augmented and one targeted (tau=1) inference call.
    """
    dists = np.asarray(dists, dtype=float)
    labels = np.asarray(labels, dtype=int)
    cands = _candidates(dists, labels, k)
    h_hat, augmented = loss_augmented_inference_core(dists, labels, y, k, cands)
    h_star = targeted_inference_core(dists, labels, int(y), k, tau=1, cands=cands)
    return augmented + float(dists[h_star].sum()), h_hat, h_star


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
    """Knobs for the SGD trainers, whose start and step size are those of
    :func:`sgd_rule`.  Training stops when the epoch-mean surrogate fails to
    decrease by stop_rel_tol relative, or after ``epochs``; stop_rel_tol
    None always runs every epoch."""

    k: int
    c: float = 1.0
    epochs: int = 20
    seed: int = 0
    stop_rel_tol: float | None = 1e-4

    def __post_init__(self):
        check_trainer_config(self)
        if not self.c > 0:
            raise ValueError("C must be positive")


def check_trainer_config(config) -> None:
    """The checks every trainer config shares: k >= 1, epochs and seed >= 0."""
    for name, low in (("k", 1), ("epochs", 0), ("seed", 0)):
        if getattr(config, name) < low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(config, name)}")


class TraceRow(NamedTuple):
    epoch: int
    mean_surrogate: float
    skipped: int


@dataclass
class TrainResult:
    metric: object
    trace: list
    psd_audit: list = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.trace)


# the cubic penalty gradient makes an undamped 1/t schedule diverge at
# eta(1) = 1, so the asymmetric variant offsets the decay
_ASYM_LR_OFFSET = 50


def _should_stop(prev_mean, mean, rel_tol) -> bool:
    if rel_tol is None or prev_mean is None:
        return False
    if not np.isfinite(mean):
        return True
    return (prev_mean - mean) < rel_tol * abs(prev_mean)


def sgd_rule(train: Dataset, c: float, variant: str):
    """``(start, update)`` of the symmetric or asymmetric variant for
    :func:`latent_sgd`.  Symmetric: from W = 0, W <- (1 - eta) W - C (Psi(x,
    h-hat) - Psi(x, h*)), projected onto the PSD cone, with eta = 1/t.
    Asymmetric: from U = V = I, descent on U and V with the C-scaled score
    partials plus the joint Frobenius penalty gradients, with eta =
    1/(t + 50); PSD holds by construction."""
    if variant == "symmetric":
        first = MahalanobisMetric(w=np.zeros((train.d, train.d)))

        def update(metric, t, x, h_hat, h_star):
            # Psi(x, h) = -D^T D over h's rows D of x - x_j, the W-gradient of
            # S; both sets' rows come from one gather.  (-D^T) @ D keeps each
            # product a general matrix product: numpy hands D.T @ D to BLAS
            # syrk, which rounds differently in the last bits
            diffs = x - train.features[np.concatenate((h_hat, h_star))]
            neg, m = -diffs.T, len(h_hat)
            delta = symmetrize(neg[:, :m] @ diffs[:m] - neg[:, m:] @ diffs[m:])
            return MahalanobisMetric(w=psd_project((1.0 - 1.0 / t) * metric.w - c * delta))
    elif variant == "asymmetric":
        # zero projections cannot break symmetry, so the start is U = V = I
        first = AsymmetricMetric(u=np.eye(train.d), v=np.eye(train.d))

        def update(metric, t, x, h_hat, h_star):
            eta = 1.0 / (t + _ASYM_LR_OFFSET)
            gu_hat, gv_hat = asym_score_grads(metric.u, metric.v, x, h_hat, train)
            gu_star, gv_star = asym_score_grads(metric.u, metric.v, x, h_star, train)
            reg_u, reg_v = asym_reg_grads(metric.u, metric.v)
            u = metric.u - eta * (c * (gu_hat - gu_star) + reg_u)
            v = metric.v - eta * (c * (gv_hat - gv_star) + reg_v)
            return AsymmetricMetric(u=u, v=v)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return (lambda rng: first), update


def _finite_distances(metric, x, features, updates: int) -> np.ndarray:
    """``metric.distances(x, features)``, refused when one is not finite."""
    dists = metric.distances(x, features)
    if np.isfinite(dists).all():
        return dists
    raise ValueError(f"training diverged after {updates} updates: the metric's distances "
                     "are no longer finite; lower grid.c")


def latent_sgd(train: Dataset, config, infer, start, update,
               audit_psd: bool = False) -> TrainResult:
    """Stochastic subgradient descent between latent neighbor sets: the one
    training loop of all three trainers.

    ``start(rng)`` returns the first metric; ``rng`` is seeded with
    ``config.seed``, and after any draw ``start`` makes, each epoch visits
    the samples in a fresh ``rng.permutation(n)``.  Per sample i,
    ``infer(i, dists)`` gets the leave-one-out distances of training point
    i under the current metric and returns (surrogate, h-hat, h*), or
    raises InfeasibleTargetError to skip the sample; then ``update(metric,
    t, x, h_hat, h_star)`` returns the metric after the t-th applied
    update.  Each epoch adds a :class:`TraceRow`; an epoch whose samples
    were all skipped has a NaN mean.  Training stops after
    ``config.epochs`` or when the epoch-mean surrogate fails to decrease by
    ``config.stop_rel_tol`` relative (or is not finite).  ``audit_psd``
    records the smallest eigenvalue of every updated W.  A metric whose
    distances overflow (a step scale C too large for the data) raises
    ``ValueError`` naming the number of updates applied.
    """
    rng = np.random.default_rng(config.seed)
    metric = start(rng)
    trace: list[TraceRow] = []
    psd_audit: list[float] = []
    t = 0
    prev_mean = None
    # an overflowing update shows as non-finite distances, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            losses = []
            for i in rng.permutation(train.n):
                x = train.features[i]
                dists = _finite_distances(metric, x, train.features, t)
                dists[i] = np.inf
                try:
                    surrogate, h_hat, h_star = infer(i, dists)
                except InfeasibleTargetError:
                    continue
                t += 1
                metric = update(metric, t, x, h_hat, h_star)
                if audit_psd and isinstance(metric, MahalanobisMetric):
                    psd_audit.append(float(sym_eig(metric.w).values[-1]))
                losses.append(surrogate)
            mean_loss = float(np.mean(losses)) if losses else float("nan")
            skipped = train.n - len(losses)
            trace.append(TraceRow(epoch=epoch, mean_surrogate=mean_loss, skipped=skipped))
            if _should_stop(prev_mean, mean_loss, config.stop_rel_tol):
                break
            prev_mean = mean_loss
        if t:  # no sample came after the last update
            _finite_distances(metric, train.features[0], train.features, t)
    return TrainResult(metric=metric, trace=trace, psd_audit=psd_audit)


def train_sgd(
    train: Dataset,
    config: GerryTrainConfig,
    variant: str = "symmetric",
    audit_psd: bool = False,
) -> TrainResult:
    """SGD on the classification surrogate; updates as in :func:`sgd_rule`.

    h-hat is the loss-augmented set and h* the tie-free targeted set for the
    sample's own class.  Samples whose targeted inference is infeasible (too
    few same-class neighbors) are skipped and counted in the trace.
    """
    if train.kind != CLASS:
        raise ValueError("train_sgd needs a classed dataset")

    def infer(i, dists):
        return surrogate_core(dists, train.labels, int(train.labels[i]), config.k)

    return latent_sgd(train, config, infer, *sgd_rule(train, config.c, variant), audit_psd)


def metric_predictions(metric, train: Dataset, queries, k: int) -> np.ndarray:
    """kNN class predictions under a learned metric (either variant)."""
    def distances(block):
        return metric.distances(block, train.features)

    return predict_each(distances, train, queries, NeighborRule("knn", k=k), "classify")
