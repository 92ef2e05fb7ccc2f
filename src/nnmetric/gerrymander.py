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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dataset import CLASS, Dataset
from .numerics import psd_project, sym_eig
from .predictors import NeighborRule, predict_each


class InfeasibleTargetError(ValueError):
    """Raised when no size-k neighbor set can vote for the requested class."""


@dataclass(frozen=True, eq=False)
class MahalanobisMetric:
    """Symmetric metric D(x, x') = (x - x')^T W (x - x'), W PSD.

    :meth:`distances` forms the n quadratic forms on the transposed
    differences, d x n, as the column sums of (W diff) o diff: one matrix
    product, which BLAS runs, where a three-operand einsum has no
    contraction path and loops in C.
    """

    w: np.ndarray

    def distances(self, x, features) -> np.ndarray:
        """The n distances from query ``x`` to the rows of ``features``, or,
        for a (B, d) block of queries, the B x n distances of each row.

        The differences are laid out d x n in C order whatever the order of
        ``features``, so a column-major database, whose transpose is read
        in memory order, gives the same bits as a row-major one."""
        x = np.asarray(x, dtype=float)
        diff = np.subtract(np.asarray(features, dtype=float).T, x[..., :, None], order="C")
        prod = self.w @ diff
        prod *= diff
        return prod.sum(axis=-2)


@dataclass(frozen=True, eq=False)
class AsymmetricMetric:
    """Asymmetric distance D(x, x') = |Ux - Vx'|^2.

    The equivalent joint quadratic form [[U^T U, -U^T V], [-V^T U, V^T V]]
    is PSD for every (U, V), so no projection step is ever needed.
    :meth:`distances` forms the differences V x' - U x transposed, one
    column per database row, and sums their squares down each column.
    """

    u: np.ndarray
    v: np.ndarray

    def distances(self, x, features) -> np.ndarray:
        """The n distances from query ``x`` to the rows of ``features``, or,
        for a (B, d) block of queries, the B x n distances of each row; the
        database side V x' is computed once per call."""
        query = np.asarray(x, dtype=float) @ self.u.T
        diff = self.v @ np.asarray(features, dtype=float).T - query[..., :, None]
        diff *= diff
        return diff.sum(axis=-2)


def n_star(n_classes: int, k: int, ties_forbidden: bool) -> int:
    """Minimum number of target-class votes that can still win a k-vote."""
    tau = 1 if ties_forbidden else 0
    return -(-(k + tau * (n_classes - 1)) // n_classes)


class _Candidates(NamedTuple):
    """The k nearest finite points of each class, as positions 0..p-1 in
    (distance, index) order, and every (tau, class, m) set of them."""

    order: np.ndarray  # each position's index into the distances
    n_finite: int
    classes: list  # the classes with a finite point, ascending
    sets: np.ndarray | None  # (tau, class, m) -> the set's positions, ascending; read-only
    totals: list | None  # (tau, class, m) -> the set's distance sum in member order
    rescored: list | None  # (class, m) -> the tau=0 set's sum in nearest-first order
    feasible: tuple  # (tau, class) -> the indices on the m axis of the feasible sets


@lru_cache(maxsize=None)
def _tiers(n_classes: int, k: int) -> np.ndarray:
    """The tier of every candidate code in every (tau, class, m) set, m
    from the tie-allowing minimum n_star up to k.

    A candidate's code is (its class's row among the candidate classes) * k
    + its rank in its class.  Tier 0 holds the set's class's points of rank
    below m, tier 1 the other points of rank below m - tau, tiers 2 and 3
    the rest of the set's class and of the others.
    """
    row, rank = np.divmod(np.arange(n_classes * k), k)
    tau = np.arange(2)[:, None, None, None]
    other = row != np.arange(n_classes)[:, None, None]
    m = np.arange(n_star(n_classes, k, ties_forbidden=False), k + 1)[:, None]
    tiers = other + 2 * (rank + tau * other >= m)
    tiers.flags.writeable = False
    return tiers


@lru_cache(maxsize=4096)
def _feasible(sizes: tuple, k: int) -> tuple:
    """Per tau and class, the indices on the m axis of :func:`_tiers` whose
    set exists: the class has m candidates, and the others have k - m of
    rank below m - tau between them.  ``sizes`` holds each class's number of
    candidates."""
    least = n_star(len(sizes), k, ties_forbidden=False)
    return tuple(
        tuple(
            tuple(m - least for m in range(least, size + 1)
                  if sum(min(m - tau, other) for other in sizes) - min(m - tau, size) >= k - m)
            for size in sizes
        )
        for tau in (0, 1)
    )


# the candidates of most samples follow one of a few hundred code sequences
# (773 in all the training of classify_learned); 1024 entries of 3 classes
# at k = 3 hold about 1.3 MB
@lru_cache(maxsize=1024)
def _set_tables(n_classes: int, k: int, codes: tuple):
    """Every (tau, class, m) set of the candidates whose codes are
    ``codes``, as positions among them, in two read-only tables: in the
    member order of its greedy fill (the m nearest target points, then the
    capped others), which is the first k positions of one stable argsort of
    the candidates' tiers (:func:`_tiers`), and sorted, which lists it
    nearest-first."""
    tiers = _tiers(n_classes, k).take(codes, axis=-1)
    member = tiers.argsort(axis=-1, kind="stable")[..., :k].copy()
    nearest = np.sort(member, axis=-1)
    member.flags.writeable = False
    nearest.flags.writeable = False
    return member, nearest


def _candidates(dists, labels, k: int, ties: bool = False) -> _Candidates:
    """The candidate list of every set a class can win, the k nearest
    finite points of each class, and all those sets, scored.

    The points are ordered by (distance, index); -inf sorts first and +inf
    and NaN last, so the finite points are one block of that order.  The
    block is scanned from its start, in windows that double in width, until
    every class holds min(k, its finite points); the finite points per
    class are the class counts less the non-finite points.  The order comes
    from numpy's default argsort, which leaves equal distances in no set
    order; before a window is scanned, its distances and the next one are
    checked for two equal ones, and the first such tie switches to a stable
    argsort.  Without a tie up to there, both sorts give the same prefix.
    ``ties`` says ties are the rule, as in integer Hamming distances, and
    sorts stably from the start.

    Every (tau, class, m) set of :func:`targeted_inference_core` then comes
    from :func:`_set_tables`, cached per sequence of candidate codes (a
    candidate's code is its class's row times k plus its rank in its
    class).  All sets are scored with one gather-and-sum, so each sum adds
    its terms in the member order of the set's greedy fill, and the tau=0
    sets of :func:`loss_augmented_inference_core` are scored again
    nearest-first.
    """
    stable = ties
    order = dists.argsort(kind="stable" if stable else None)
    n_finite = int(np.count_nonzero(np.isfinite(dists)))
    lead = 0
    if len(order) and dists[order[0]] == -np.inf:
        lead = int(np.count_nonzero(dists == -np.inf))
    sizes = np.bincount(labels).tolist()
    for j in order[:lead].tolist() + order[lead + n_finite:].tolist():
        sizes[labels[j]] -= 1
    sizes = [min(size, k) for size in sizes]
    classes = [c for c, size in enumerate(sizes) if size]
    code_base = [0] * len(sizes)
    for row, c in enumerate(classes):
        code_base[c] = row * k
    missing = sum(sizes) if n_finite >= k else 0  # no size-k set exists otherwise
    seen = [0] * len(sizes)
    near, codes = [], []
    # 8 k points per class id hold every class's k nearest in most samples
    # of mixed classes; a rare or distant class widens the window
    start, width, end = lead, 8 * k * len(sizes), lead + n_finite
    while missing and start < end:
        stop = min(start + width, end)
        if not stable:
            # the window's distances and the next one, ascending
            window = dists.take(order[start:stop + 1])
            if (window[1:] == window[:-1]).any():
                order, stable = dists.argsort(kind="stable"), True
        block = order[start:stop]
        for j, lab in zip(block.tolist(), labels[block].tolist()):
            rank = seen[lab]
            if rank < k:
                seen[lab] = rank + 1
                near.append(j)
                codes.append(code_base[lab] + rank)
                missing -= 1
                if not missing:
                    break
        start, width = stop, 2 * width
    near = np.array(near, dtype=int)
    if not codes:
        return _Candidates(near, n_finite, classes, None, None, None, ((), ()))
    near_dists = dists.take(near)
    member, sets = _set_tables(len(classes), k, tuple(codes))
    totals = near_dists.take(member).sum(axis=-1).tolist()
    rescored = near_dists.take(sets[0]).sum(axis=-1).tolist()
    feasible = _feasible(tuple(sizes[c] for c in classes), k)
    return _Candidates(near, n_finite, classes, sets, totals, rescored, feasible)


def _first_minimum(totals, feasible):
    """The first index of ``feasible`` where ``totals`` is strictly least,
    or None when no total there is below inf."""
    best, best_total = None, np.inf
    for m in feasible:
        if totals[m] < best_total:
            best, best_total = m, totals[m]
    return best


def targeted_inference_core(dists, labels, target: int, k: int, tau: int,
                            cands: _Candidates | None = None) -> np.ndarray:
    """Argmax of the score over size-k sets voting for ``target``.

    Enumerates the number m of target-class members, from the minimum that
    can win up to k.  tau=1 forbids vote ties (the h* term); tau=0 lets the
    target share the maximum count.  For each m the best set takes the m
    nearest target points plus the nearest others, each non-target class
    capped at m - tau members; greedy filling under per-class caps is exact
    because caps form a partition matroid.  The first strict minimum of the
    distance sum over m wins.  As m and every cap are at most k, no set
    uses a point outside the k nearest of its class, so only those are
    candidates.  ``cands`` is that list, with every set built and scored,
    as :func:`_candidates` makes it from ``dists``; one serves both calls
    of a sample, and it is built here when omitted.

    Works on per-point distances, so any metric whose set score is additive
    over members can reuse it.  Excluded points carry infinite distance.
    Returns indices sorted nearest-first, ties by index.
    """
    if cands is None:
        cands = _candidates(np.asarray(dists, dtype=float), np.asarray(labels, dtype=int), k)
    if cands.sets is not None and target in cands.classes:
        row = cands.classes.index(target)
        m = _first_minimum(cands.totals[tau][row], cands.feasible[tau][row])
        if m is not None:
            return cands.order.take(cands.sets[tau, row, m])
    raise InfeasibleTargetError(
        f"no size-{k} set of the {cands.n_finite} finite points lets class "
        f"{target} win with tau={tau}"
    )


def loss_augmented_inference_core(dists, labels, y: int, k: int,
                                  cands: _Candidates | None = None):
    """Argmax of score + 0/1 loss of the worst vote winner, by class reduction.

    For each feasible class r, the best r-winning set (ties allowed, tau=0)
    is found as in :func:`targeted_inference_core`.  The winners are scored
    again on their nearest-first order, and the class maximizing score +
    [r != y] wins (a win y shares is also a win of the other class, at loss
    1).  Ties between classes go to the smallest id.  ``cands`` is as in
    :func:`targeted_inference_core`.
    """
    if cands is None:
        cands = _candidates(np.asarray(dists, dtype=float), np.asarray(labels, dtype=int), k)
    best, best_value = None, -np.inf
    for row, feasible in enumerate(cands.feasible[0]):
        m = _first_minimum(cands.totals[0][row], feasible)
        if m is not None:
            value = -cands.rescored[row][m] + float(cands.classes[row] != y)
            if value > best_value:
                best, best_value = (row, m), value
    if best is None:
        raise InfeasibleTargetError("no class admits a feasible neighbor set")
    return cands.order.take(cands.sets[0][best]), best_value


def surrogate_core(dists, labels, y: int, k: int, ties: bool = False):
    """(surrogate, loss-augmented h-hat, tie-free targeted h*) on per-point
    distances; excluded points carry infinite distance.

    The surrogate max_h [S + loss] - max_{h votes y} S, with the 0/1 loss of
    the worst vote winner, is nonnegative and upper-bounds that loss at the
    plain top-k neighbor set.  Per sample it builds one candidate structure,
    which holds every set both calls choose from, already scored, and makes
    one loss-augmented and one targeted (tau=1) inference call.  ``ties``
    sorts the distances stably from the start, for distances that tie in
    most samples, such as integer Hamming distances (:func:`_candidates`);
    the result is the same either way.
    """
    dists = np.asarray(dists, dtype=float)
    labels = np.asarray(labels, dtype=int)
    cands = _candidates(dists, labels, k, ties)
    h_hat, augmented = loss_augmented_inference_core(dists, labels, y, k, cands)
    h_star = targeted_inference_core(dists, labels, int(y), k, tau=1, cands=cands)
    return augmented + float(dists[h_star].sum()), h_hat, h_star


def _asym_partials(v, x, ux, sets):
    """Partials wrt U (query side) and V (database side) of the asymmetric
    score of each set in ``sets``, an (s, k, d) stack of member rows, given
    ``ux`` = U x.  The stack's products are batched products, which give
    each set's own products bit for bit (a V-product of each row sum, and
    each Gram matrix as BLAS forms X^T X), and the outer products are
    broadcast products, which give np.outer's bits."""
    totals = sets.sum(axis=1)
    grad_u = -2.0 * ((sets.shape[1] * ux - (v @ totals[:, :, None])[..., 0])[:, :, None] * x)
    grad_v = -2.0 * (v @ (sets.transpose(0, 2, 1) @ sets) - ux[:, None] * totals[:, None, :])
    return grad_u, grad_v


def asym_reg_grads(u, v):
    """Gradient terms of the joint-matrix Frobenius penalty, each Gram
    product formed once."""
    uu, vv = u @ u.T, v @ v.T
    grad_u = 2.0 * uu @ u + 4.0 * vv @ u
    grad_v = 2.0 * vv @ v + 4.0 * uu @ v
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
            # syrk, which rounds differently in the last bits.  The products
            # need not be symmetric to the bit: psd_project symmetrizes the
            # step from its upper triangle
            diffs = x - train.features[np.concatenate((h_hat, h_star))]
            neg, m = -diffs.T, len(h_hat)
            delta = neg[:, :m] @ diffs[:m] - neg[:, m:] @ diffs[m:]
            return MahalanobisMetric(w=psd_project((1.0 - 1.0 / t) * metric.w - c * delta))
    elif variant == "asymmetric":
        # zero projections cannot break symmetry, so the start is U = V = I
        first = AsymmetricMetric(u=np.eye(train.d), v=np.eye(train.d))

        def update(metric, t, x, h_hat, h_star):
            # the score partials of h-hat and h* take their 2k member rows
            # from one gather, stacked, and share one U x
            eta = 1.0 / (t + _ASYM_LR_OFFSET)
            sets = train.features[np.concatenate((h_hat, h_star))].reshape(2, len(h_hat), -1)
            (gu_hat, gu_star), (gv_hat, gv_star) = _asym_partials(metric.v, x, metric.u @ x, sets)
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
    ``ValueError`` naming the number of updates applied.  The distances
    read one column-major copy of the training set, made once per
    training, whose transpose the metrics read in memory order.
    """
    rng = np.random.default_rng(config.seed)
    database = np.asfortranarray(train.features)
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
                dists = _finite_distances(metric, x, database, t)
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
            _finite_distances(metric, train.features[0], database, t)
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
    database = np.asfortranarray(train.features)

    def distances(block):
        return metric.distances(block, database)

    return predict_each(distances, train, queries, NeighborRule("knn", k=k))
