"""Oracle suites: the fast routines against the exhaustive references.

Each suite draws randomized instances from its own seed stream and compares
the fast inference, prediction, gradient, estimator and eigendecomposition
routines against the references in :mod:`nnmetric.bruteforce`; a violation
serializes the failing instance for replay.  ``nnmetric oracle`` runs one
suite; ``nnmetric run`` never loads this module.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bruteforce, harness
from .dataset import CLASS, REAL, Dataset
from .gerrymander import (
    AsymmetricMetric, GerryTrainConfig, InfeasibleTargetError, MahalanobisMetric,
    asym_score_grads, feature_map_psi, loss_augmented_inference_core, metric_predictions,
    surrogate_core, targeted_inference_core, train_sgd,
)
from .gradient_metrics import KernelSpec
from .hamming import calibrate_scales, hamming_predictions, random_hasher
from .numerics import psd_project, sym_eig
from .predictors import NeighborRule, predict_batch
from .regression_ml import delta_reg, delta_reg_ub, metric_reg_predictions, reg_inference_core

# the oracle draws' seed stream, apart from the run's split and tuning streams
_ORACLE_STREAM = 17


def _random_vote_instance(rng, n_max=12):
    """A random metric, query, and labeled pool for the inference oracles."""
    n = int(rng.integers(5, n_max + 1))
    d = int(rng.integers(2, 5))
    n_classes = int(rng.integers(2, 5))
    labels = np.concatenate(
        [np.arange(1, n_classes + 1), rng.integers(1, n_classes + 1, size=n - n_classes)]
    )
    labels = labels[rng.permutation(n)].astype(int)
    feats = rng.normal(size=(n, d))
    ell = rng.normal(size=(d, d))
    metric = MahalanobisMetric(w=ell.T @ ell)
    x = rng.normal(size=d)
    k = int(rng.integers(1, min(5, n - 1) + 1))
    return feats, labels, metric, x, k, n_classes


def _suite_inference(budget, rng):
    for i in range(budget):
        feats, labels, metric, x, k, n_classes = _random_vote_instance(rng)
        dists = metric.distances(x, feats)
        y = int(rng.integers(1, n_classes + 1))
        tau = int(rng.integers(0, 2))
        try:
            h = targeted_inference_core(dists, labels, y, k, tau)
            got = -float(dists[h].sum())
        except InfeasibleTargetError:
            got = None
        expected = bruteforce.brute_targeted(dists, labels, y, k, tau)
        want = None if expected is None else float(expected[1])
        bad = (got is None) != (want is None) or (
            got is not None and abs(got - want) > 1e-9
        )
        if bad:
            return i + 1, {
                "check": "targeted",
                "dists": dists,
                "labels": labels,
                "target": y,
                "k": k,
                "tau": tau,
                "got": got,
                "want": want,
            }
        _, value = loss_augmented_inference_core(dists, labels, y, k)
        expected = bruteforce.brute_loss_augmented(dists, labels, y, k)
        if expected is None or abs(value - float(expected[1])) > 1e-9:
            return i + 1, {
                "check": "loss_augmented",
                "dists": dists,
                "labels": labels,
                "y": y,
                "k": k,
                "got": value,
                "want": None if expected is None else expected[1],
            }
    return budget, None


def _suite_surrogate(budget, rng):
    """Draws with no feasible h* are skipped and not counted as checked."""
    compared = 0
    for i in range(budget):
        feats, labels, metric, x, k, n_classes = _random_vote_instance(rng, n_max=16)
        y = int(rng.integers(1, n_classes + 1))
        dists = metric.distances(x, feats)
        try:
            value = surrogate_core(dists, labels, y, k)[0]
        except InfeasibleTargetError:
            continue  # no h* for this draw; the trainer skips these too
        compared += 1
        top_k = np.argsort(dists, kind="stable")[:k]
        bound = bruteforce.max_tied_loss(y, labels[top_k])
        if value < -1e-9 or value < bound - 1e-9:
            return i + 1, {
                "check": "surrogate",
                "dists": dists,
                "labels": labels,
                "y": y,
                "k": k,
                "surrogate": value,
                "task_loss": bound,
            }
    return compared, None


def _suite_regbound(budget, rng):
    for i in range(budget):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, min(5, n) + 1))
        targets = rng.normal(size=n)
        y = float(rng.normal())
        h = rng.choice(n, size=k, replace=False)
        if delta_reg_ub(y, h, targets) < delta_reg(y, h, targets) - 1e-12:
            return i + 1, {
                "check": "loss_bound",
                "targets": targets,
                "y": y,
                "h": h,
                "relaxed": delta_reg_ub(y, h, targets),
                "exact": delta_reg(y, h, targets),
            }
        dists = rng.uniform(size=n)
        gamma = float(rng.uniform(0.1, 3.0))
        direction = "targeted" if rng.integers(0, 2) else "loss_augmented"
        h_core = reg_inference_core(dists, targets, y, k, gamma, direction)
        sign = -1.0 if direction == "targeted" else 1.0
        got = -float(dists[h_core].sum()) + sign * gamma * delta_reg_ub(y, h_core, targets)
        _, want = bruteforce.brute_reg_inference(dists, targets, y, k, gamma, direction)
        if abs(got - want) > 1e-9:
            return i + 1, {
                "check": "reg_inference",
                "dists": dists,
                "targets": targets,
                "y": y,
                "k": k,
                "gamma": gamma,
                "direction": direction,
                "got": got,
                "want": want,
            }
    return budget, None


def _suite_psd(budget, rng):
    checked = 0
    for _ in range(budget):
        d = int(rng.integers(2, 7))
        raw = rng.normal(size=(d, d))
        sym = (raw + raw.T) / 2.0
        projected = psd_project(sym)
        low = float(bruteforce.brute_sym_eig(projected)[1][-1])
        if low < -1e-9:
            return checked + 1, {"check": "projection", "matrix": sym, "min_eig": low}
        checked += 1
    # one short training run per invocation, auditing after every update
    n_per = 20
    centers = np.array([[1.5, 0.0, 0.0], [-1.5, 0.0, 0.0]])
    feats = np.vstack([rng.normal(size=(n_per, 3)) * 0.6 + centers[0],
                       rng.normal(size=(n_per, 3)) * 0.6 + centers[1]])
    labels = np.repeat([1, 2], n_per)
    train = Dataset(features=feats, labels=labels, kind=CLASS)
    gcfg = GerryTrainConfig(k=3, c=1.0, epochs=3, seed=int(rng.integers(0, 2**31)))
    result = train_sgd(train, gcfg, variant="symmetric", audit_psd=True)
    low = min(min(result.psd_audit), float(bruteforce.brute_sym_eig(result.metric.w)[1][-1]))
    if low < -1e-9:
        return checked + 1, {"check": "training_audit", "min_eig": low}
    return checked + 1, None


def _suite_eig(budget, rng):
    """sym_eig against the Jacobi brute_sym_eig at d from 1 to 50, drawn
    log-uniformly as Jacobi's cost grows with d cubed.  Half the matrices are
    Q diag(lam) Q^T with small integer lam, so eigenvalues repeat and a
    cluster's eigenvectors are defined only up to a rotation; each cluster is
    compared by the projector onto its span.  Jacobi stops once the
    off-diagonal part is below 1e-12 |A|_F, which bounds its projector error
    by about that over the gap to the other eigenvalues (Davis-Kahan)."""
    for i in range(budget):
        d = int(np.exp(rng.uniform(0.0, np.log(51.0))))
        if rng.integers(0, 2):
            q = np.linalg.qr(rng.normal(size=(d, d)))[0]
            a = (q * rng.integers(-3, 4, size=d)) @ q.T
        else:
            raw = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
            a = (raw + raw.T) / 2.0
        vecs, values = sym_eig(a)
        ref_vecs, want = bruteforce.brute_sym_eig(a)
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
            tol = 1e-12 + 2e-12 * np.linalg.norm(a) / gap
            checks.append(("projector", np.abs(got_p - want_p).max() <= tol))
        for name, ok in checks:
            if not ok:
                return i + 1, {
                    "check": name,
                    "matrix": a,
                    "got_values": values,
                    "want_values": want,
                    "got_vectors": vecs,
                    "want_vectors": ref_vecs,
                }
    return budget, None


def _suite_gradients(budget, rng):
    eps = 1e-6
    for i in range(budget):
        n = int(rng.integers(4, 10))
        d = int(rng.integers(2, 5))
        feats = rng.normal(size=(n, d))
        train = Dataset(features=feats, labels=rng.normal(size=n), kind=REAL)
        x = rng.normal(size=d)
        k = int(rng.integers(1, min(4, n) + 1))
        h = rng.choice(n, size=k, replace=False)
        raw = rng.normal(size=(d, d))
        w = raw.T @ raw
        psi = feature_map_psi(x, h, train)
        direction = rng.normal(size=(d, d))
        direction = (direction + direction.T) / 2.0
        up = bruteforce.score(MahalanobisMetric(w=w + eps * direction), x, h, train)
        down = bruteforce.score(MahalanobisMetric(w=w - eps * direction), x, h, train)
        fd = (up - down) / (2.0 * eps)
        got = float(np.sum(direction * psi))
        if abs(got - fd) > 1e-6 * max(1.0, abs(fd)):
            return i + 1, {
                "check": "psi",
                "x": x,
                "h": h,
                "features": feats,
                "got": got,
                "fd": fd,
            }
        c = int(rng.integers(2, 5))
        u = rng.normal(size=(c, d))
        v = rng.normal(size=(c, d))
        grad_u, grad_v = asym_score_grads(u, v, x, h, train)
        for name, grad in (("u", grad_u), ("v", grad_v)):
            direction = rng.normal(size=(c, d))
            up, down = (AsymmetricMetric(u=u + step, v=v) if name == "u"
                        else AsymmetricMetric(u=u, v=v + step)
                        for step in (eps * direction, -eps * direction))
            fd = (bruteforce.score(up, x, h, train)
                  - bruteforce.score(down, x, h, train)) / (2.0 * eps)
            got = float(np.sum(direction * grad))
            if abs(got - fd) > 1e-5 * max(1.0, abs(fd)):
                return i + 1, {
                    "check": f"asym_{name}",
                    "x": x,
                    "h": h,
                    "features": feats,
                    "got": got,
                    "fd": fd,
                }
    return budget, None


def _suite_hamming(budget, rng):
    for i in range(budget):
        d = int(rng.integers(2, 6))
        c = int(rng.integers(2, 10))
        n = int(rng.integers(4, 12))
        hasher = random_hasher(d, c, seed=int(rng.integers(0, 2**31)))
        feats = rng.normal(size=(n, d))
        labels = np.concatenate([[1, 2], rng.integers(1, 3, size=n - 2)])
        labels = labels[rng.permutation(n)].astype(int)
        train = Dataset(features=feats, labels=labels, kind=CLASS)
        x = rng.normal(size=d)
        k = int(rng.integers(1, min(4, n) + 1))
        h = rng.choice(n, size=k, replace=False)
        got = bruteforce.hamming_score(hasher, x, h, train)
        dists = hasher.distances(x, feats)
        want = float(np.sum(c - 2.0 * dists[h]))
        if abs(got - want) > 1e-9:
            return i + 1, {
                "check": "score_identity",
                "x": x,
                "h": h,
                "got": got,
                "want": want,
            }
        y = int(rng.integers(1, 3))
        _, value = loss_augmented_inference_core(dists, labels, y, k)
        expected = bruteforce.brute_loss_augmented(dists, labels, y, k)
        if expected is None or abs(value - float(expected[1])) > 1e-9:
            return i + 1, {
                "check": "hamming_inference",
                "dists": dists,
                "labels": labels,
                "y": y,
                "k": k,
                "got": value,
                "want": None if expected is None else expected[1],
            }
    return budget, None


def _suite_neighbors(budget, rng):
    """Every public predictor against brute_neighbor_predict, on integer rows
    with repeats: distances are exact, so ties are real and k often cuts one,
    and a radius of 0.5 leaves the ball empty unless a row equals the query."""
    for i in range(budget):
        n, d = int(rng.integers(4, 15)), int(rng.integers(1, 4))
        pool = rng.integers(-2, 3, size=(int(rng.integers(2, n + 1)), d))
        feats = pool[rng.integers(0, len(pool), size=n)].astype(float)
        queries = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), d)).astype(float)
        n_classes = int(rng.integers(2, 5))
        labels = np.concatenate([np.arange(1, n_classes + 1),
                                 rng.integers(1, n_classes + 1, size=n - n_classes)])
        classed = Dataset(features=feats, labels=labels[rng.permutation(n)], kind=CLASS)
        real = Dataset(features=feats, labels=rng.integers(-5, 6, size=n).astype(float),
                       kind=REAL)
        k = int(rng.integers(1, n + 1))
        knn = NeighborRule("knn", k=k)
        hnn = NeighborRule("hnn", radius=float(rng.choice([0.5, 1.0, 1.5, 2.0])))
        t, ell, u, v = rng.integers(-2, 3, size=(4, d, d)).astype(float)
        transform = t if rng.integers(0, 2) else None
        w = ell.T @ ell
        hasher = random_hasher(d, int(rng.integers(2, 6)), seed=int(rng.integers(0, 2**31)))
        codes = np.where(feats @ hasher.v.T >= 0.0, 1.0, -1.0)
        scales = calibrate_scales(classed, hasher.u)
        tx = feats if transform is None else feats @ transform.T

        def euclid(x):
            tq = x if transform is None else transform @ x
            return np.array([np.sqrt(np.sum((row - tq) ** 2)) for row in tx])

        def mahalanobis(x):
            return np.array([(x - row) @ w @ (x - row) for row in feats])

        def asymmetric(x):
            return np.array([np.sum((u @ x - v @ row) ** 2) for row in feats])

        def soft(x):
            projected = hasher.u @ x
            return np.array([bruteforce.asym_hamming_distance(projected, c, scales)
                             for c in codes])

        cases = [
            ("predict_batch", classed, knn, "classify", euclid,
             predict_batch(classed, transform, queries, knn, "classify")),
            ("predict_batch", classed, hnn, "classify", euclid,
             predict_batch(classed, transform, queries, hnn, "classify")),
            ("predict_batch", real, knn, "regress", euclid,
             predict_batch(real, transform, queries, knn, "regress")),
            ("predict_batch", real, hnn, "regress", euclid,
             predict_batch(real, transform, queries, hnn, "regress")),
            ("metric_predictions", classed, knn, "classify", mahalanobis,
             metric_predictions(MahalanobisMetric(w=w), classed, queries, k)),
            ("metric_predictions", classed, knn, "classify", asymmetric,
             metric_predictions(AsymmetricMetric(u=u, v=v), classed, queries, k)),
            ("metric_reg_predictions", real, knn, "regress", mahalanobis,
             metric_reg_predictions(MahalanobisMetric(w=w), real, queries, k)),
            ("hamming_predictions", classed, knn, "classify", soft,
             hamming_predictions(hasher, classed, queries, k)),
        ]
        for name, ds, rule, mode, distances, got in cases:
            for x, pred in zip(queries, got):
                dists = distances(x)
                want = bruteforce.brute_neighbor_predict(dists, ds.labels, rule, mode)
                if not abs(pred - want) <= 1e-12:
                    return i + 1, {
                        "check": name,
                        "rule": rule.kind,
                        "k": rule.k,
                        "radius": rule.radius,
                        "mode": mode,
                        "dists": dists,
                        "labels": ds.labels,
                        "got": pred,
                        "want": want,
                    }
    return budget, None


def _suite_estimators(budget, rng):
    """GW, EGOP and EJOP as the harness fits them (one memo per instance, so
    EGOP reduces the pass GW ran) against bruteforce.explicit_loo.  Odd
    instances draw t < h, where every gate is open; even ones t > h, where
    gates close for some samples or coordinates, or for all of them."""
    for i in range(budget):
        n_classes = int(rng.integers(2, 4))
        n, d = int(rng.integers(2 * n_classes, 13)), int(rng.integers(1, 4))
        feats = rng.uniform(size=(n, d))
        labels = np.concatenate([np.arange(1, n_classes + 1)] * 2
                                + [rng.integers(1, n_classes + 1, size=n - 2 * n_classes)])
        classed = Dataset(features=feats, labels=labels[rng.permutation(n)], kind=CLASS)
        real = Dataset(features=feats, labels=rng.normal(size=n), kind=REAL)
        h = float(rng.uniform(0.2, 0.6))
        t = h * float(rng.uniform(0.2, 0.9) if i % 2 else rng.uniform(1.1, 2.0))
        temperature = float(rng.choice([0.5, 1.0, 2.0]))
        spec = KernelSpec(bandwidth=h)
        params = {"h": h, "t": t}
        config = harness.ExperimentConfig(
            task="classify", methods=("ejop",), temperature=temperature
        )
        memo = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # every gate may fail on purpose
            got = {method: harness._fit_transform(method, ds, params, config, memo)[1]
                   for method, ds in (("gw", real), ("egop", real), ("ejop", classed))}
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
                return i + 1, {
                    "check": method,
                    "features": feats,
                    "labels": (real if method != "ejop" else classed).labels,
                    "h": h,
                    "t": t,
                    "temperature": temperature,
                    "got": value,
                    "want": ref,
                }
    return budget, None


# suite name -> (seed stream, implementation)
ORACLE_SUITES = {
    "inference": (1, _suite_inference),
    "surrogate": (2, _suite_surrogate),
    "regbound": (3, _suite_regbound),
    "psd": (4, _suite_psd),
    "gradients": (5, _suite_gradients),
    "hamming": (6, _suite_hamming),
    "neighbors": (7, _suite_neighbors),
    "eig": (8, _suite_eig),
    "estimators": (9, _suite_estimators),
}


@dataclass(frozen=True)
class OracleOutcome:
    suite: str
    checked: int
    failure: dict | None


def run_oracle(suite: str, budget: int, seed: int = 0) -> OracleOutcome:
    if suite not in ORACLE_SUITES:
        raise ValueError(
            f"unknown oracle suite {suite!r}; available: {', '.join(sorted(ORACLE_SUITES))}"
        )
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    stream, suite_fn = ORACLE_SUITES[suite]
    rng = np.random.default_rng([_ORACLE_STREAM, stream, seed])
    checked, failure = suite_fn(budget, rng)
    return OracleOutcome(suite=suite, checked=checked, failure=failure)


def cmd_oracle(suite: str, budget: int = 200, seed: int = 0, out: str = ".") -> int:
    """Exit 0 when every check passes, 1 on a violation, 2 on bad usage."""
    try:
        outcome = run_oracle(suite, budget, seed)
    except ValueError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 2
    if outcome.failure is None:
        print(f"{suite}: {outcome.checked} checks passed")
        return 0
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    replay = out_dir / f"oracle_{suite}_failure.json"
    replay.write_text(harness._json_text(outcome.failure), encoding="utf-8")
    print(
        f"{suite}: violation on check {outcome.checked}; instance saved to {replay}",
        file=sys.stderr,
    )
    return 1
