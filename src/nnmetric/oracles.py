"""Oracle suites: the fast routines against the exhaustive references.

A suite draws each randomized instance from its seed stream with
``draw(rng, i)``, as a dict of every input its checks read.
``check(**instance)`` compares the fast routines on it with the references
in :mod:`nnmetric.bruteforce`; it returns None when all agree, :data:`SKIP`
when there is nothing to compare, or ``(check, got, want)`` for the first
that fails.  Checks accept the lists of a JSON file for arrays, so a
failure record, ``{"check": ..., **instance, "got": ..., "want": ...}``,
re-checks from its file.  ``nnmetric run`` never loads this module.
"""

from __future__ import annotations

import functools
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bruteforce, harness
from .dataset import CLASS, REAL, Dataset
from .gerrymander import (
    AsymmetricMetric, GerryTrainConfig, InfeasibleTargetError, MahalanobisMetric,
    _asym_partials, loss_augmented_inference_core, metric_predictions,
    surrogate_core, targeted_inference_core, train_sgd,
)
from .gradient_metrics import KernelSpec
from .hamming import HammingHasher, calibrate_scales, hamming_predictions, random_hasher
from .numerics import psd_project, sym_eig
from .predictors import NeighborRule, predict_batch
from .regression_ml import (
    delta_reg, delta_reg_ub, metric_reg_predictions, reg_inference_core, reg_surrogate_core,
)

# the oracle draws' seed stream, apart from the run's split and tuning streams
_ORACLE_STREAM = 17

# what a check returns for an instance it does not compare or count
SKIP = "skip"


def _replayable(check):
    """``check`` that takes the lists of a JSON file for arrays."""
    @functools.wraps(check)
    def run(**instance):
        return check(**{key: np.asarray(value) if isinstance(value, list) else value
                        for key, value in instance.items()})

    return run


def _draw_votes(rng, n_max=12):
    """Distances from a query to a labelled pool under a random Mahalanobis
    metric, with k and a target class, for the inference oracles."""
    n = int(rng.integers(5, n_max + 1))
    d = int(rng.integers(2, 5))
    n_classes = int(rng.integers(2, 5))
    labels = np.concatenate(
        [np.arange(1, n_classes + 1), rng.integers(1, n_classes + 1, size=n - n_classes)]
    )
    labels = labels[rng.permutation(n)].astype(int)
    feats = rng.normal(size=(n, d))
    ell = rng.normal(size=(d, d))
    x = rng.normal(size=d)
    k = int(rng.integers(1, min(5, n - 1) + 1))
    return {"dists": MahalanobisMetric(w=ell.T @ ell).distances(x, feats), "labels": labels,
            "y": int(rng.integers(1, n_classes + 1)), "k": k}


def _nearest_first_by_class(h, dists, labels) -> list:
    """The set ``h`` should be, as every set the inference cores returns
    is: of each class ``h`` holds, that many of the class's nearest finite
    points by (distance, index), all listed by (distance, index)."""
    pool = sorted((float(dists[i]), int(i)) for i in np.flatnonzero(np.isfinite(dists)))
    wanted = []
    for lab in set(labels[h].tolist()):
        of_class = [key for key in pool if labels[key[1]] == lab]
        wanted += of_class[:int(np.sum(labels[h] == lab))]
    return [i for _, i in sorted(wanted)]


def _draw_inference(rng, i):
    """Odd draws floor their distances, so that ties are common and the
    tie order by index is checked."""
    instance = _draw_votes(rng)
    if i % 2:
        instance["dists"] = np.floor(instance["dists"])
    return {**instance, "tau": int(rng.integers(0, 2))}


@_replayable
def _check_inference(dists, labels, y, k, tau):
    try:
        h = targeted_inference_core(dists, labels, y, k, tau)
        got = -float(dists[h].sum())
    except InfeasibleTargetError:
        h, got = None, None
    expected = bruteforce.brute_targeted(dists, labels, y, k, tau)
    want = None if expected is None else float(expected[1])
    if (got is None) != (want is None) or (got is not None and abs(got - want) > 1e-9):
        return "targeted", got, want
    h_hat, value = loss_augmented_inference_core(dists, labels, y, k)
    expected = bruteforce.brute_loss_augmented(dists, labels, y, k)
    if expected is None or abs(value - float(expected[1])) > 1e-9:
        return "loss_augmented", value, None if expected is None else float(expected[1])
    for name, got_h in (("targeted_order", h), ("loss_augmented_order", h_hat)):
        want_h = None if got_h is None else _nearest_first_by_class(got_h, dists, labels)
        if got_h is not None and list(got_h) != want_h:
            return name, got_h, want_h


@_replayable
def _check_surrogate(dists, labels, y, k):
    """An instance with no feasible h* is skipped, as the trainer skips it."""
    try:
        value = surrogate_core(dists, labels, y, k)[0]
    except InfeasibleTargetError:
        return SKIP
    top_k = np.argsort(dists, kind="stable")[:k]
    bound = bruteforce.max_tied_loss(y, labels[top_k])
    if value < -1e-9 or value < bound - 1e-9:
        return "surrogate", value, bound


def _draw_regbound(rng, i):
    n = int(rng.integers(4, 13))
    k = int(rng.integers(1, min(5, n) + 1))
    return {"targets": rng.normal(size=n), "y": float(rng.normal()),
            "h": rng.choice(n, size=k, replace=False), "dists": rng.uniform(size=n),
            "gamma": float(rng.uniform(0.1, 3.0)),
            "direction": "targeted" if rng.integers(0, 2) else "loss_augmented"}


@_replayable
def _check_regbound(targets, y, h, dists, gamma, direction):
    """``h`` is a random set for the loss bound; its size is the k of the
    inference checks."""
    k = len(h)
    if delta_reg_ub(y, h, targets) < delta_reg(y, h, targets) - 1e-12:
        return "loss_bound", delta_reg_ub(y, h, targets), delta_reg(y, h, targets)
    h_core = reg_inference_core(dists, targets, y, k, gamma, direction)
    sign = -1.0 if direction == "targeted" else 1.0
    got = -float(dists[h_core].sum()) + sign * gamma * delta_reg_ub(y, h_core, targets)
    brute = {way: bruteforce.brute_reg_inference(dists, targets, y, k, gamma, way)[1]
             for way in ("loss_augmented", "targeted")}
    if abs(got - brute[direction]) > 1e-9:
        return "reg_inference", got, brute[direction]
    # the surrogate, whose two inference calls share one gaps array,
    # against the brute loss-augmented max minus the brute targeted max
    value, h_hat, h_star = reg_surrogate_core(dists, targets, y, k, gamma)
    checks = (
        ("surrogate", value, brute["loss_augmented"] - brute["targeted"]),
        ("surrogate_h_hat",
         -float(dists[h_hat].sum()) + gamma * delta_reg_ub(y, h_hat, targets),
         brute["loss_augmented"]),
        ("surrogate_h_star",
         -float(dists[h_star].sum()) - gamma * delta_reg_ub(y, h_star, targets),
         brute["targeted"]),
    )
    return next((check for check in checks if abs(check[1] - check[2]) > 1e-9), None)


def _draw_psd(rng, i):
    raw = rng.normal(size=(int(rng.integers(2, 7)),) * 2)
    return {"matrix": (raw + raw.T) / 2.0}


@_replayable
def _check_psd(matrix):
    """The projection of the drawn matrix, and of its Gram matrix
    ``matrix @ matrix.T``: few random symmetric draws are positive
    definite, but almost every Gram matrix is, so its checks reach the
    return of an input already in the cone.  Each check's name says which
    matrix failed."""
    for prefix, a in (("", matrix), ("gram_", matrix @ matrix.T)):
        projected = psd_project(a)
        low = float(bruteforce.brute_sym_eig(projected)[1][-1])
        if low < -1e-9:
            return prefix + "projection", low, 0.0
        # the nearest PSD matrix in Frobenius norm clips the Jacobi spectrum
        vecs, values = bruteforce.brute_sym_eig(a)
        want = (vecs * np.maximum(values, 0.0)) @ vecs.T
        if np.linalg.norm(projected - want) > 1e-9 * max(1.0, np.linalg.norm(a)):
            return prefix + "nearest", projected, want


def _draw_training_run(rng, i):
    features = np.vstack([rng.normal(size=(20, 3)) * 0.6 + [side, 0.0, 0.0]
                          for side in (1.5, -1.5)])
    return {"features": features, "labels": np.repeat([1, 2], 20),
            "seed": int(rng.integers(0, 2**31))}


@_replayable
def _check_training_audit(features, labels, seed):
    """W's smallest eigenvalue after every update of one short training
    run, read by the trainer's own audit, and at its end by Jacobi."""
    train = Dataset(features=features, labels=labels, kind=CLASS)
    gcfg = GerryTrainConfig(k=3, c=1.0, epochs=3, seed=seed)
    result = train_sgd(train, gcfg, variant="symmetric", audit_psd=True)
    low = min(min(result.psd_audit), float(bruteforce.brute_sym_eig(result.metric.w)[1][-1]))
    if low < -1e-9:
        return "training_audit", low, 0.0


def _draw_eig(rng, i):
    """Half the matrices are Q diag(lam) Q^T with small integer lam, so
    eigenvalues repeat; d runs from 1 to 50, drawn log-uniformly as
    Jacobi's cost grows with d cubed."""
    d = int(np.exp(rng.uniform(0.0, np.log(51.0))))
    if rng.integers(0, 2):
        q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        return {"matrix": (q * rng.integers(-3, 4, size=d)) @ q.T}
    raw = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
    return {"matrix": (raw + raw.T) / 2.0}


@_replayable
def _check_eig(matrix):
    """sym_eig against the Jacobi brute_sym_eig.  A cluster of repeated
    eigenvalues has eigenvectors defined only up to a rotation, so each
    cluster is compared by the projector onto its span.  Jacobi stops once
    the off-diagonal part is below 1e-12 |A|_F, which bounds its projector
    error by about that over the gap to the other eigenvalues
    (Davis-Kahan)."""
    vecs, values = sym_eig(matrix)
    ref_vecs, want = bruteforce.brute_sym_eig(matrix)
    d = len(want)
    scale = max(abs(want[0]), abs(want[-1]))
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(d)]
    checks = [
        ("descending", np.all(np.diff(values) <= 0.0)),
        ("sign", np.all(lead > 0.0)),
        ("orthogonal", np.abs(vecs.T @ vecs - np.eye(d)).max() <= 1e-12),
        ("values", np.abs(values - want).max() <= 1e-12 * scale),
    ]
    cuts = np.flatnonzero(-np.diff(want) > 1e-8 * scale) + 1
    for cluster in np.split(np.arange(d), cuts):
        outside = np.delete(want, cluster)
        gap = np.abs(outside[:, None] - want[cluster]).min() if outside.size else np.inf
        got_p = vecs[:, cluster] @ vecs[:, cluster].T
        want_p = ref_vecs[:, cluster] @ ref_vecs[:, cluster].T
        tol = 1e-12 + 2e-12 * np.linalg.norm(matrix) / gap
        checks.append(("projector", np.abs(got_p - want_p).max() <= tol))
    for name, ok in checks:
        if not ok:
            return name, {"values": values, "vectors": vecs}, {"values": want, "vectors": ref_vecs}


def _draw_gradients(rng, i):
    n, d = int(rng.integers(4, 10)), int(rng.integers(2, 5))
    features = rng.normal(size=(n, d))
    rng.normal(size=n)  # targets, which no score reads; drawn to keep the stream
    x = rng.normal(size=d)
    h = rng.choice(n, size=int(rng.integers(1, min(4, n) + 1)), replace=False)
    raw, direction = rng.normal(size=(2, d, d))
    c = int(rng.integers(2, 5))
    return {"features": features, "x": x, "h": h, "w": raw.T @ raw,
            "direction": (direction + direction.T) / 2.0,
            **{name: rng.normal(size=(c, d)) for name in ("u", "v", "u_direction", "v_direction")}}


@_replayable
def _check_gradients(features, x, h, w, direction, u, v, u_direction, v_direction):
    """Psi, and the asymmetric score's partials, each along its direction,
    against central differences of the score."""
    eps = 1e-6
    train = Dataset(features=features, labels=np.zeros(len(features)), kind=REAL)
    psi = bruteforce.feature_map_psi(x, h, train)
    up = bruteforce.score(MahalanobisMetric(w=w + eps * direction), x, h, train)
    down = bruteforce.score(MahalanobisMetric(w=w - eps * direction), x, h, train)
    fd = (up - down) / (2.0 * eps)
    got = float(np.sum(direction * psi))
    if abs(got - fd) > 1e-6 * max(1.0, abs(fd)):
        return "psi", got, fd
    (grad_u,), (grad_v,) = _asym_partials(v, x, u @ x, features[h][None])
    for name, grad, direction in (("u", grad_u, u_direction), ("v", grad_v, v_direction)):
        up, down = (AsymmetricMetric(u=u + step, v=v) if name == "u"
                    else AsymmetricMetric(u=u, v=v + step)
                    for step in (eps * direction, -eps * direction))
        fd = (bruteforce.score(up, x, h, train)
              - bruteforce.score(down, x, h, train)) / (2.0 * eps)
        got = float(np.sum(direction * grad))
        if abs(got - fd) > 1e-5 * max(1.0, abs(fd)):
            return f"asym_{name}", got, fd


def _draw_hamming(rng, i):
    d = int(rng.integers(2, 6))
    c = int(rng.integers(2, 10))
    n = int(rng.integers(4, 12))
    hasher = random_hasher(d, c, seed=int(rng.integers(0, 2**31)))
    features = rng.normal(size=(n, d))
    labels = np.concatenate([[1, 2], rng.integers(1, 3, size=n - 2)])
    return {"hasher_u": hasher.u, "hasher_v": hasher.v, "features": features,
            "labels": labels[rng.permutation(n)].astype(int), "x": rng.normal(size=d),
            "h": rng.choice(n, size=int(rng.integers(1, min(4, n) + 1)), replace=False),
            "y": int(rng.integers(1, 3))}


@_replayable
def _check_hamming(hasher_u, hasher_v, features, labels, x, h, y):
    """The set score as sum(c - 2 D) over ``h``, and loss-augmented
    inference on hard Hamming distances."""
    hasher = HammingHasher(u=hasher_u, v=hasher_v)
    train = Dataset(features=features, labels=labels, kind=CLASS)
    got = bruteforce.hamming_score(hasher, x, h, train)
    dists = hasher.distances(x, features)
    want = float(np.sum(hasher.c - 2.0 * dists[h]))
    if abs(got - want) > 1e-9:
        return "score_identity", got, want
    _, value = loss_augmented_inference_core(dists, labels, y, len(h))
    expected = bruteforce.brute_loss_augmented(dists, labels, y, len(h))
    if expected is None or abs(value - float(expected[1])) > 1e-9:
        return "hamming_inference", value, None if expected is None else float(expected[1])


def _draw_neighbors(rng, i):
    """Integer rows with repeats: distances are exact, so ties are real and
    k often cuts one, and a radius of 0.5 leaves the ball empty unless a
    row equals the query."""
    n, d = int(rng.integers(4, 15)), int(rng.integers(1, 4))
    pool = rng.integers(-2, 3, size=(int(rng.integers(2, n + 1)), d))
    features = pool[rng.integers(0, len(pool), size=n)].astype(float)
    queries = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), d)).astype(float)
    n_classes = int(rng.integers(2, 5))
    labels = np.concatenate([np.arange(1, n_classes + 1),
                             rng.integers(1, n_classes + 1, size=n - n_classes)])
    instance = {"features": features, "queries": queries, "labels": labels[rng.permutation(n)],
                "targets": rng.integers(-5, 6, size=n).astype(float),
                "k": int(rng.integers(1, n + 1)),
                "radius": float(rng.choice([0.5, 1.0, 1.5, 2.0]))}
    t, ell, u, v = rng.integers(-2, 3, size=(4, d, d)).astype(float)
    instance.update(transform=t if rng.integers(0, 2) else None, w=ell.T @ ell, u=u, v=v)
    hasher = random_hasher(d, int(rng.integers(2, 6)), seed=int(rng.integers(0, 2**31)))
    return {**instance, "hasher_u": hasher.u, "hasher_v": hasher.v}


@_replayable
def _check_neighbors(features, queries, labels, targets, k, radius, transform, w, u, v,
                     hasher_u, hasher_v):
    """Every public predictor against brute_neighbor_predict."""
    classed = Dataset(features=features, labels=labels, kind=CLASS)
    real = Dataset(features=features, labels=targets, kind=REAL)
    knn, hnn = NeighborRule("knn", k=k), NeighborRule("hnn", radius=radius)
    hasher = HammingHasher(u=hasher_u, v=hasher_v)
    codes = np.where(features @ hasher_v.T >= 0.0, 1.0, -1.0)
    scales = calibrate_scales(classed, hasher_u)
    tx = features if transform is None else features @ transform.T

    def euclid(x):
        tq = x if transform is None else transform @ x
        return np.array([np.sqrt(np.sum((row - tq) ** 2)) for row in tx])

    def mahalanobis(x):
        return np.array([(x - row) @ w @ (x - row) for row in features])

    def asymmetric(x):
        return np.array([np.sum((u @ x - v @ row) ** 2) for row in features])

    def soft(x):
        projected = hasher_u @ x
        return np.array([bruteforce.asym_hamming_distance(projected, c, scales)
                         for c in codes])

    cases = [("predict_batch", ds, rule, euclid, predict_batch(ds, transform, queries, rule))
             for ds in (classed, real) for rule in (knn, hnn)]
    cases += [
        ("metric_predictions", classed, knn, mahalanobis,
         metric_predictions(MahalanobisMetric(w=w), classed, queries, k)),
        ("metric_predictions", classed, knn, asymmetric,
         metric_predictions(AsymmetricMetric(u=u, v=v), classed, queries, k)),
        ("metric_reg_predictions", real, knn, mahalanobis,
         metric_reg_predictions(MahalanobisMetric(w=w), real, queries, k)),
        ("hamming_predictions", classed, knn, soft,
         hamming_predictions(hasher, classed, queries, k)),
    ]
    for name, ds, rule, distances, got in cases:
        mode = "classify" if ds.kind == CLASS else "regress"
        want = [bruteforce.brute_neighbor_predict(distances(x), ds.labels, rule, mode)
                for x in queries]
        if not np.all(np.abs(got - want) <= 1e-12):
            case = {"rule": rule.kind, "labels": ds.kind}
            return name, {**case, "predictions": got.tolist()}, {**case, "predictions": want}


def _draw_estimators(rng, i):
    """One t lies below both h, where every gate is open; the other above
    both, where gates close for some samples or coordinates, or for all of
    them."""
    n_classes = int(rng.integers(2, 4))
    n, d = int(rng.integers(2 * n_classes, 13)), int(rng.integers(1, 4))
    features = rng.uniform(size=(n, d))
    labels = np.concatenate([np.arange(1, n_classes + 1)] * 2
                            + [rng.integers(1, n_classes + 1, size=n - 2 * n_classes)])
    instance = {"features": features, "labels": labels[rng.permutation(n)],
                "targets": rng.normal(size=n), "hs": rng.uniform(0.2, 0.6, size=2)}
    hs = instance["hs"]
    return {**instance,
            "ts": [min(hs) * float(rng.uniform(0.2, 0.9)), max(hs) * float(rng.uniform(1.1, 2.0))],
            "temperature": float(rng.choice([0.5, 1.0, 2.0]))}


@_replayable
def _check_estimators(features, labels, targets, hs, ts, temperature):
    """GW, EGOP and EJOP as the harness tunes them against
    bruteforce.explicit_loo.  The instance's 2 x 2 grid of two h and two t
    is fitted on one tuning split through one table of passes: the first
    fit runs one pass over every point, EGOP reduces the passes GW ran, and
    each point is checked.  So the two h of each t share that t's probe
    distances."""
    classed = Dataset(features=features, labels=labels, kind=CLASS)
    real = Dataset(features=features, labels=targets, kind=REAL)
    n, d = features.shape
    config = harness.ExperimentConfig(
        task="classify", methods=("ejop",), temperature=temperature,
        grid_h=tuple(map(float, hs)), grid_t=tuple(map(float, ts)),
    )
    passes = {}
    for h, t in [(h, t) for h in config.grid_h for t in config.grid_t]:
        params = {"h": h, "t": t}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # every gate may fail on purpose
            got = {method: harness._fit_transform(method, 0, ds, params, config, passes)[1]
                   for method, ds in (("gw", real), ("egop", real), ("ejop", classed))}
        spec = KernelSpec(bandwidth=h)
        loo = bruteforce.explicit_loo(
            real, spec, t, lambda rest, z: bruteforce.kernel_regress(rest, spec, z)
        )
        jac = bruteforce.explicit_loo(
            classed, spec, t,
            lambda rest, z: bruteforce.kernel_class_probs(rest, spec, z, temperature),
        )
        counts = sum(mask for mask, _ in loo)
        want = {
            "gw": sum(np.abs(g) for _, g in loo) / np.maximum(counts, 1.0),
            "egop": sum(np.outer(g, g) for _, g in loo) / n,
            # a sample with every gate closed yields a zero gradient, not a Jacobian
            "ejop": sum(j.reshape(d, -1) @ j.reshape(d, -1).T for _, j in jac) / n,
        }
        for method in want:
            value, ref = np.asarray(got[method]).reshape(want[method].shape), want[method]
            if not np.abs(value - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max()):
                at = {"h": h, "t": t}
                return method, {**at, "estimate": value}, {**at, "estimate": ref}


# suite name -> (seed stream, draw, check)
ORACLE_SUITES = {
    "inference": (1, _draw_inference, _check_inference),
    "surrogate": (2, lambda rng, i: _draw_votes(rng, n_max=16), _check_surrogate),
    "regbound": (3, _draw_regbound, _check_regbound),
    "psd": (4, _draw_psd, _check_psd),
    "gradients": (5, _draw_gradients, _check_gradients),
    "hamming": (6, _draw_hamming, _check_hamming),
    "neighbors": (7, _draw_neighbors, _check_neighbors),
    "eig": (8, _draw_eig, _check_eig),
    "estimators": (9, _draw_estimators, _check_estimators),
}

# a suite that ends each run with one more instance of its own: psd's short
# training run, audited after every update
_CLOSING = {"psd": (_draw_training_run, _check_training_audit)}


def suite_steps(suite: str, budget: int) -> list:
    """The (draw, check) pair of each draw of a run, in order."""
    _, draw, check = ORACLE_SUITES[suite]
    return [(draw, check)] * budget + ([_CLOSING[suite]] if suite in _CLOSING else [])


@dataclass(frozen=True)
class OracleOutcome:
    """``checked`` counts the compared instances of a passing run, and is
    the 1-based draw number of a failing one."""

    suite: str
    checked: int
    failure: dict | None


def _check_usage(suite: str, budget: int, seed: int) -> None:
    """Raise ValueError on a bad suite name, budget or seed."""
    if suite not in ORACLE_SUITES:
        raise ValueError(
            f"unknown oracle suite {suite!r}; available: {', '.join(sorted(ORACLE_SUITES))}"
        )
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


def run_oracle(suite: str, budget: int, seed: int = 0) -> OracleOutcome:
    """Draw and check until the first violation, or the first check that
    raises; an error raised by a draw propagates."""
    _check_usage(suite, budget, seed)
    rng = np.random.default_rng([_ORACLE_STREAM, ORACLE_SUITES[suite][0], seed])
    checked = 0
    for i, (draw, check) in enumerate(suite_steps(suite, budget)):
        instance = draw(rng, i)
        try:
            outcome = check(**instance)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            return OracleOutcome(suite, i + 1, {"check": "raised", **instance, "error": error})
        if outcome is not None and outcome != SKIP:
            name, got, want = outcome
            return OracleOutcome(suite, i + 1, {"check": name, **instance, "got": got,
                                                "want": want})
        checked += outcome is None
    return OracleOutcome(suite, checked, None)


def cmd_oracle(suite: str, budget: int = 200, seed: int = 0, out: str = ".") -> int:
    """Exit 0 when every check passes, 1 on a violation or an error raised
    while the suite runs, 2 on bad usage.  A violation, or an error raised
    by a check, saves its record to ``oracle_<suite>_failure.json`` and
    names that file on stderr; an error raised by a draw saves nothing."""
    try:
        _check_usage(suite, budget, seed)
    except ValueError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 2
    try:
        outcome = run_oracle(suite, budget, seed)
    except Exception as exc:
        print(f"{suite}: the suite raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if outcome.failure is None:
        print(f"{suite}: {outcome.checked} checks passed")
        return 0
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    replay = out_dir / f"oracle_{suite}_failure.json"
    replay.write_text(harness._json_text(outcome.failure), encoding="utf-8")
    if outcome.failure["check"] == "raised":
        print(f"{suite}: the suite raised {outcome.failure['error']}; instance saved to {replay}",
              file=sys.stderr)
    else:
        print(f"{suite}: violation on check {outcome.checked}; instance saved to {replay}",
              file=sys.stderr)
    return 1
