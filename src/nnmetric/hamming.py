"""Learning linear binary hashes whose Hamming distances respect class votes.

Codes are sign(Ux) for queries and sign(Vx_i) for database points (U = V in
symmetric mode).  Set scores are inner products of the query code with the
summed member codes, which equals sum over members of (c - 2 D); per-point
additivity lets the classification inference routines run unchanged on
Hamming distances.

Gradients relax the differentiated sign through f (identity or tanh) while
the other side stays binarized.  Each step adds a zero-mean code penalty,
applies momentum, and renormalizes the hash matrices to unit Frobenius norm.

Retrieval can rank by hard Hamming distance or, since short codes tie
constantly, by the soft distance |code - tanh(s * Ux)|^2 / 4 with s
calibrated so projections average |tanh| of 0.4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CLASS, Dataset
from .gerrymander import (
    InfeasibleTargetError,
    _learning_rate,
    run_epochs,
    surrogate_core,
    validate_loss_matrix,
    zero_one_loss,
)
from .predictors import NeighborRule, predict_each


def sign_pm1(a) -> np.ndarray:
    """Entrywise sign with sign(0) = +1."""
    return np.where(np.asarray(a, dtype=float) >= 0.0, 1.0, -1.0)


def binarize(m, x) -> np.ndarray:
    return sign_pm1(np.asarray(m, dtype=float) @ np.asarray(x, dtype=float))


def encode(m, features) -> np.ndarray:
    """Row-wise codes: sign of the projections, n x c."""
    return sign_pm1(np.asarray(features, dtype=float) @ np.asarray(m, dtype=float).T)


@dataclass(frozen=True)
class HammingHasher:
    u: np.ndarray
    v: np.ndarray
    relaxation: str = "tanh"

    def __post_init__(self):
        if self.u.shape != self.v.shape:
            raise ValueError("U and V must share a shape")
        if self.relaxation not in ("identity", "tanh"):
            raise ValueError(f"unknown relaxation {self.relaxation!r}")

    @property
    def c(self) -> int:
        return self.u.shape[0]

    @property
    def d(self) -> int:
        return self.u.shape[1]

    def distances(self, x, features) -> np.ndarray:
        """Hard Hamming distances between the query code and database codes."""
        q = binarize(self.u, x)
        return (self.c - encode(self.v, features) @ q) / 2.0


def hamming_score(hasher: HammingHasher, x, h, train: Dataset) -> float:
    """Inner product of the query code with the summed codes of h."""
    q = binarize(hasher.u, x)
    codes = encode(hasher.v, train.features[np.asarray(h, dtype=int)])
    return float(q @ codes.sum(axis=0))


def asym_hamming_distance(projected_query, code, scales) -> float:
    """Soft distance between a binary code and the squashed query projection."""
    soft = np.tanh(np.asarray(scales, dtype=float) * np.asarray(projected_query, dtype=float))
    return float(np.sum((np.asarray(code, dtype=float) - soft) ** 2) / 4.0)


def calibrate_scales(train: Dataset, u, target: float = 0.4, tol: float = 1e-2):
    """Scales s = alpha * 1 with mean |tanh(alpha * Ux)| ~= target over train.

    The mean is monotone in alpha, so bisection after bracket expansion
    suffices.  Degenerate projections (or an unreachable target) fall back
    to all-ones.
    """
    proj = np.abs(np.asarray(train.features, dtype=float) @ np.asarray(u, dtype=float).T)
    c = u.shape[0]
    if not proj.any():
        return np.ones(c)

    def level(alpha):
        return float(np.mean(np.tanh(alpha * proj)))

    # Starting bracket inversely proportional to the projection magnitude,
    # so scaling U scales the whole search (and the result) by the inverse.
    lo, hi = 0.0, float(np.arctanh(target) / proj.mean())
    for _ in range(200):
        if level(hi) >= target:
            break
        hi *= 2.0
    else:
        return np.ones(c)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        value = level(mid)
        if abs(value - target) <= tol:
            return np.full(c, mid)
        if value < target:
            lo = mid
        else:
            hi = mid
    return np.full(c, (lo + hi) / 2.0)


def _f(z, relaxation):
    return np.tanh(z) if relaxation == "tanh" else np.asarray(z, dtype=float)


def _f_prime(z, relaxation):
    if relaxation == "tanh":
        return 1.0 - np.tanh(z) ** 2
    return np.ones_like(np.asarray(z, dtype=float))


def query_side_grad(u, x, other_code_sum_diff, relaxation) -> np.ndarray:
    """[f'(Ux) o (sum of h-hat codes - sum of h* codes)] x^T."""
    x = np.asarray(x, dtype=float)
    return np.outer(_f_prime(u @ x, relaxation) * other_code_sum_diff, x)


def db_side_grad(v, members, query_code, relaxation) -> np.ndarray:
    """sum over members of (query_code o f'(V x_j)) x_j^T."""
    xs = np.atleast_2d(np.asarray(members, dtype=float))
    proj = xs @ v.T
    return (_f_prime(proj, relaxation) * query_code).T @ xs


def zero_mean_grad(m, features, relaxation) -> np.ndarray:
    """Gradient of 1/2 |mean_x f(Mx)|^2, the relaxed zero-mean code penalty."""
    feats = np.asarray(features, dtype=float)
    proj = feats @ m.T
    mu = _f(proj, relaxation).mean(axis=0)
    return (_f_prime(proj, relaxation) * mu).T @ feats / feats.shape[0]


@dataclass(frozen=True)
class HammingTrainConfig:
    """Knobs for the hash trainer; trailing normalization keeps |U|_F = 1."""

    c: int
    k: int
    epochs: int = 20
    lr: object = "inv_t"
    relaxation: str = "tanh"
    penalty: float = 0.1
    momentum: float = 0.9
    seed: int = 0
    batch_size: int = 1
    stop_rel_tol: float | None = 1e-4

    def __post_init__(self):
        if self.c < 1 or self.k < 1:
            raise ValueError("c and k must be >= 1")
        if self.relaxation not in ("identity", "tanh"):
            raise ValueError(f"unknown relaxation {self.relaxation!r}")
        if self.penalty < 0:
            raise ValueError("penalty must be nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class HammingTrainResult:
    hasher: HammingHasher
    trace: list
    epochs_run: int


def _normalize(m) -> np.ndarray:
    norm = float(np.linalg.norm(m))
    return m / norm if norm > 0 else m


def random_hasher(d: int, c: int, seed: int, relaxation: str = "tanh") -> HammingHasher:
    """Unit-norm Gaussian projections; the untrained baseline and the
    trainer's initialization."""
    rng = np.random.default_rng(seed)
    u = _normalize(rng.normal(size=(c, d)))
    v = _normalize(rng.normal(size=(c, d)))
    return HammingHasher(u=u, v=v, relaxation=relaxation)


def train_hamming(
    train: Dataset,
    config: HammingTrainConfig,
    mode: str = "asymmetric",
    loss_matrix=None,
) -> HammingTrainResult:
    """Mini-batch SGD with momentum on the Hamming-space vote surrogate.

    Inference runs on hard codes frozen at the batch start; gradients follow
    the relaxed-sign formulas, then the zero-mean penalty is added, momentum
    applied, and U, V (or the shared W) renormalized.  Samples with no
    feasible target set are skipped and counted.  Epochs, batching and
    stopping follow :func:`nnmetric.gerrymander.run_epochs`.
    """
    if train.kind != CLASS:
        raise ValueError("train_hamming needs a classed dataset")
    if mode not in ("symmetric", "asymmetric"):
        raise ValueError(f"unknown mode {mode!r}")
    lam = (
        zero_one_loss(train.n_classes)
        if loss_matrix is None
        else validate_loss_matrix(loss_matrix)
    )
    rng = np.random.default_rng(config.seed)
    u = _normalize(rng.normal(size=(config.c, train.d)))
    v = u.copy() if mode == "symmetric" else _normalize(rng.normal(size=(config.c, train.d)))
    vel_u = np.zeros_like(u)
    vel_v = np.zeros_like(v)
    feats = train.features
    labels = train.labels
    t = 0

    def run_batch(batch):
        nonlocal u, v, vel_u, vel_v, t
        codes_db = encode(v, feats)
        grad_u = np.zeros_like(u)
        grad_v = np.zeros_like(v)
        losses = []
        for i in batch:
            x = feats[i]
            q = binarize(u, x)
            dists = (config.c - codes_db @ q) / 2.0
            dists[i] = np.inf
            try:
                surrogate, h_hat, h_star = surrogate_core(
                    dists, labels, int(labels[i]), config.k, lam
                )
            except InfeasibleTargetError:
                continue
            losses.append(surrogate)
            code_diff = codes_db[h_hat].sum(axis=0) - codes_db[h_star].sum(axis=0)
            grad_u += query_side_grad(u, x, code_diff, config.relaxation)
            grad_v += db_side_grad(v, feats[h_hat], q, config.relaxation)
            grad_v -= db_side_grad(v, feats[h_star], q, config.relaxation)
        if not losses:
            return losses
        t += 1
        eta = _learning_rate(config.lr, t)
        if mode == "symmetric":
            grad = grad_u + grad_v + config.penalty * zero_mean_grad(
                u, feats, config.relaxation
            )
            vel_u = config.momentum * vel_u + grad
            u = _normalize(u - eta * vel_u)
            v = u
        else:
            grad_u += config.penalty * zero_mean_grad(u, feats, config.relaxation)
            grad_v += config.penalty * zero_mean_grad(v, feats, config.relaxation)
            vel_u = config.momentum * vel_u + grad_u
            vel_v = config.momentum * vel_v + grad_v
            u = _normalize(u - eta * vel_u)
            v = _normalize(v - eta * vel_v)
        return losses

    trace = run_epochs(train.n, config, rng, run_batch)
    hasher = HammingHasher(u=u, v=v, relaxation=config.relaxation)
    return HammingTrainResult(hasher=hasher, trace=trace, epochs_run=len(trace))


def hamming_predictions(
    hasher: HammingHasher, train: Dataset, queries, k: int, rank: str = "asym"
) -> np.ndarray:
    """kNN class votes in Hamming space.

    rank="hard" sorts by integer Hamming distance (mass ties broken by
    index); rank="asym" sorts by the calibrated soft distance instead.
    """
    if rank not in ("hard", "asym"):
        raise ValueError(f"unknown rank mode {rank!r}")
    codes_db = encode(hasher.v, train.features)
    scales = calibrate_scales(train, hasher.u) if rank == "asym" else None

    def distances(x):
        if rank == "hard":
            return (hasher.c - codes_db @ binarize(hasher.u, x)) / 2.0
        soft = np.tanh(scales * (hasher.u @ x))
        return np.sum((codes_db - soft) ** 2, axis=1) / 4.0

    return predict_each(distances, train, queries, NeighborRule("knn", k=k), "classify")
