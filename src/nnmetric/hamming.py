"""Learning linear binary hashes whose Hamming distances respect class votes.

Codes are sign(Ux) for queries and sign(Vx_i) for database points.  Set
scores are inner products of the query code with the summed member codes,
which equals sum over members of (c - 2 D); per-point additivity lets the
classification inference routines run unchanged on Hamming distances.

Training is :func:`nnmetric.gerrymander.latent_sgd`, the loop of every
trainer, with a Hamming update.  Gradients relax the differentiated sign
through tanh while the other side stays binarized.  Each step descends with
eta(t) = 1/t and no momentum, and renormalizes the hash matrices to unit
Frobenius norm.

Training infers on hard Hamming distances, counted from the signs of the
projections without forming either code.  Those small integers tie in
almost every sample, so inference orders them with a stable sort from the
start (``ties`` of :func:`nnmetric.gerrymander.surrogate_core`).
Retrieval ranks database codes by the soft distance |code - tanh(s * Ux)|^2
/ 4 instead, since short codes tie constantly, with s calibrated so
projections average |tanh| of 0.4.  One row's code, the set score, one
code's soft distance and the relaxed gradients of one member set, which
only references use, are in :mod:`nnmetric.bruteforce`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dataset import CLASS, Dataset
from .gerrymander import TrainResult, check_trainer_config, latent_sgd, surrogate_core
from .predictors import NeighborRule, predict_each

# the mean |tanh| that calibrate_scales aims at, and how close it must come
_SCALE_TARGET = 0.4
_SCALE_TOL = 1e-2


def sign_pm1(a) -> np.ndarray:
    """Entrywise sign with sign(0) = +1."""
    return np.where(np.asarray(a, dtype=float) >= 0.0, 1.0, -1.0)


def encode(m, features) -> np.ndarray:
    """Row-wise codes: sign of the projections, n x c."""
    return sign_pm1(np.asarray(features, dtype=float) @ np.asarray(m, dtype=float).T)


@dataclass(frozen=True, eq=False)
class HammingHasher:
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.u.shape != self.v.shape:
            raise ValueError("U and V must share a shape")

    @property
    def c(self) -> int:
        return self.u.shape[0]

    def distances(self, x, features) -> np.ndarray:
        """Hard Hamming distances between the query code sign(Ux) and the
        database codes sign(V x_i), sign(0) = +1: per row, the number of
        bits where the two differ, as a float.  A database bit b differs
        from the query's bit q by b (1 - 2q) + q, so the counts are one
        product of the database bits with the weights 1 - 2q, plus the
        query's set bits.  Every partial sum is a small integer, so each
        count is exact, and the projections are those of :func:`encode`."""
        query = self.u @ x >= 0.0
        return (features @ self.v.T >= 0.0) @ np.where(query, -1.0, 1.0) + np.count_nonzero(query)


def calibrate_scales(train: Dataset, u):
    """Scales s = alpha * 1 with mean |tanh(alpha * Ux)| within _SCALE_TOL of
    _SCALE_TARGET over train.

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
    lo, hi = 0.0, float(np.arctanh(_SCALE_TARGET) / proj.mean())
    for _ in range(200):
        if level(hi) >= _SCALE_TARGET:
            break
        hi *= 2.0
    else:
        return np.ones(c)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        value = level(mid)
        if abs(value - _SCALE_TARGET) <= _SCALE_TOL:
            return np.full(c, mid)
        if value < _SCALE_TARGET:
            lo = mid
        else:
            hi = mid
    return np.full(c, (lo + hi) / 2.0)


def _tanh_prime(z):
    return 1.0 - np.tanh(z) ** 2


@dataclass(frozen=True)
class HammingTrainConfig:
    """Knobs for the hash trainer: c bits, k neighbors; epochs, seed and
    stop_rel_tol as in :class:`nnmetric.gerrymander.GerryTrainConfig`.  The
    step size is eta(t) = 1/t with no momentum."""

    c: int
    k: int
    epochs: int = 20
    seed: int = 0
    stop_rel_tol: float | None = 1e-4

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("c must be >= 1")
        check_trainer_config(self)


def _normalize(m) -> np.ndarray:
    """m over its Frobenius norm, sqrt(m . m) as np.linalg.norm forms it."""
    flat = m.ravel(order="K")
    norm = math.sqrt(flat.dot(flat))
    return m / norm if norm > 0 else m


def random_hasher(d: int, c: int, seed) -> HammingHasher:
    """Unit-norm Gaussian U, then V, drawn from ``np.random.default_rng(seed)``
    (a Generator is drawn from as it stands); the untrained baseline and the
    trainer's start."""
    rng = np.random.default_rng(seed)
    u = _normalize(rng.normal(size=(c, d)))
    return HammingHasher(u=u, v=_normalize(rng.normal(size=(c, d))))


def train_hamming(train: Dataset, config: HammingTrainConfig) -> TrainResult:
    """:func:`nnmetric.gerrymander.latent_sgd` on the Hamming-space vote
    surrogate; the result's metric is the trained :class:`HammingHasher`.

    Training starts from :func:`random_hasher`, drawn from the generator that
    then permutes the epochs.  Per sample, inference runs on the hard
    Hamming distances of the current hashes; the gradients follow the
    relaxed-sign formulas, and U, V <- normalize(U - eta grad_U, V - eta
    grad_V) with eta = 1/t.
    """
    if train.kind != CLASS:
        raise ValueError("train_hamming needs a classed dataset")
    feats = train.features

    def infer(i, dists):
        return surrogate_core(dists, train.labels, int(train.labels[i]), config.k, ties=True)

    def update(hasher, t, x, h_hat, h_star):
        u, v = hasher.u, hasher.v
        k = len(h_hat)
        # the 2k member rows of both sets, projected once for codes and gradients
        rows = feats[np.concatenate([h_hat, h_star])]
        proj = rows @ v.T
        ux = u @ x
        q = np.where(ux >= 0.0, 1.0, -1.0)
        # the code sums of the two k-row sets; sums of +-1 are exact
        codes = np.where(proj >= 0.0, 1.0, -1.0)
        code_diff = codes[:k].sum(axis=0) - codes[k:].sum(axis=0)
        # [tanh'(Ux) o code_diff] x^T, and the sums over members of
        # (q o tanh'(V x_j)) x_j^T, h-hat's minus h*'s
        grad_u = (_tanh_prime(ux) * code_diff)[:, None] * x
        pulled = _tanh_prime(proj) * q
        grad_v = pulled[:k].T @ rows[:k] - pulled[k:].T @ rows[k:]
        eta = 1.0 / t
        return HammingHasher(u=_normalize(u - eta * grad_u), v=_normalize(v - eta * grad_v))

    return latent_sgd(train, config, infer, partial(random_hasher, train.d, config.c), update)


def hamming_predictions(hasher: HammingHasher, train: Dataset, queries, k: int) -> np.ndarray:
    """kNN class votes ranked by the calibrated soft distance of each query
    to the database codes."""
    codes_db = encode(hasher.v, train.features)
    scales = calibrate_scales(train, hasher.u)

    def distances(block):
        soft = np.tanh(scales * (block @ hasher.u.T))
        return np.sum((codes_db - soft[:, None, :]) ** 2, axis=-1) / 4.0

    return predict_each(distances, train, queries, NeighborRule("knn", k=k))
