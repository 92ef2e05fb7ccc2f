"""Exhaustive and slow reference implementations.

The inference references enumerate candidate neighbor sets outright, so they
are only usable at small n choose k, but they are obviously correct; the
eigensolver reference is a plain cyclic Jacobi iteration, and the gradient
pass reference probes a plug-in refit on the sample without each point.  The
helpers only references call (set scores, the feature map Psi, the
asymmetric score partials of one member set, the soft Hamming distance, the
relaxed Hamming gradients of one member set, kernel plug-ins, central
differences) live here too.  The test suite and the oracle suites
(:mod:`nnmetric.oracles`) check the fast routines against these; no run
imports this module.  Keep these independent of the code they check: of
``gradient_metrics`` only ``gate_mask`` is used, which the pass itself never
calls.
"""

from __future__ import annotations

import itertools

import numpy as np

from .dataset import CLASS
from .gradient_metrics import gate_mask

# Jacobi sweep convergence target, relative to the Frobenius norm of the input.
_JACOBI_TOL = 1e-12
_MAX_SWEEPS = 100


def vote_counts(labels_h, n_classes: int) -> np.ndarray:
    counts = np.zeros(n_classes + 1, dtype=int)
    for lab in labels_h:
        counts[int(lab)] += 1
    return counts


def shared_winners(labels_h, n_classes: int) -> list[int]:
    """Classes achieving the maximum vote count (ties allowed)."""
    counts = vote_counts(labels_h, n_classes)
    top = counts[1:].max()
    return [r for r in range(1, n_classes + 1) if counts[r] == top]


def strict_winner(labels_h, n_classes: int):
    """The unique majority class, or None when the top count is shared."""
    w = shared_winners(labels_h, n_classes)
    return w[0] if len(w) == 1 else None


def max_tied_loss(y: int, labels_h) -> float:
    """0/1 loss of the worst vote winner of h: 0 only when y alone wins."""
    return 0.0 if strict_winner(labels_h, max(labels_h)) == y else 1.0


def _candidates(dists):
    return [i for i in range(len(dists)) if np.isfinite(dists[i])]


def brute_targeted(dists, labels, target: int, k: int, tau: int):
    """Highest-scoring size-k set whose vote goes to ``target``.

    tau=1 demands a strict majority winner; tau=0 lets ``target`` share the
    maximum count.  Returns (indices, score) or None when infeasible.
    Excluded points are marked with infinite distance.
    """
    n_classes = int(np.max(labels))
    best_set, best_score = None, -np.inf
    for combo in itertools.combinations(_candidates(dists), k):
        labs = [labels[i] for i in combo]
        if tau == 1:
            if strict_winner(labs, n_classes) != target:
                continue
        else:
            if target not in shared_winners(labs, n_classes):
                continue
        score = -sum(dists[i] for i in combo)
        if score > best_score:
            best_set, best_score = combo, score
    if best_set is None:
        return None
    return np.asarray(best_set), best_score


def brute_loss_augmented(dists, labels, y: int, k: int):
    """Maximize score plus the 0/1 loss of the worst vote winner over all sets."""
    best_set, best_value = None, -np.inf
    for combo in itertools.combinations(_candidates(dists), k):
        labs = [labels[i] for i in combo]
        value = -sum(dists[i] for i in combo) + max_tied_loss(y, labs)
        if value > best_value:
            best_set, best_value = combo, value
    if best_set is None:
        return None
    return np.asarray(best_set), best_value


def brute_unconstrained(dists, k: int):
    """Plain top-k by distance; the unconstrained score maximizer."""
    cand = _candidates(dists)
    order = sorted(cand, key=lambda i: (dists[i], i))
    h = order[:k]
    return np.asarray(h), -sum(dists[i] for i in h)


def brute_reg_inference(dists, targets, y: float, k: int, gamma: float, direction: str):
    """Exhaustive argmax of S -+ gamma * mean-squared-target-gap."""
    sign = -1.0 if direction == "targeted" else 1.0
    best_set, best_value = None, -np.inf
    for combo in itertools.combinations(_candidates(dists), k):
        score = -sum(dists[i] for i in combo)
        gap = sum((y - targets[i]) ** 2 for i in combo) / k
        value = score + sign * gamma * gap
        if value > best_value:
            best_set, best_value = combo, value
    return np.asarray(best_set), best_value


def brute_neighbor_predict(dists, labels, rule, mode: str):
    """One query's kNN or radius prediction, from explicit (distance, index)
    sorting and plain vote counts.

    ``rule.kind`` "knn" takes the first ``rule.k`` points; "hnn" takes every
    point within ``rule.radius``, or all points when that ball is empty.
    A class vote goes to the most frequent label, ties to the tied label met
    first in nearness order; a regression averages the selected targets.
    """
    order = sorted(range(len(dists)), key=lambda i: (float(dists[i]), i))
    if rule.kind == "knn":
        chosen = order[: rule.k]
    else:
        chosen = [i for i in order if dists[i] <= rule.radius] or order
    if mode == "regress":
        return sum(float(labels[i]) for i in chosen) / len(chosen)
    counts = {}
    for i in chosen:
        counts[int(labels[i])] = counts.get(int(labels[i]), 0) + 1
    top = max(counts.values())
    return next(int(labels[i]) for i in chosen if counts[int(labels[i])] == top)


def score(metric, x, h, train) -> float:
    """Distance score S(x, h): the negated sum of distances to members of h."""
    dists = metric.distances(x, train.features[np.asarray(h, dtype=int)])
    return float(-np.sum(dists))


def feature_map_psi(x, h, train) -> np.ndarray:
    """Psi(x, h) = -sum_{j in h} (x - x_j)(x - x_j)^T, the W-gradient of S,
    with the upper triangle mirrored onto the lower."""
    diffs = np.asarray(x, dtype=float) - train.features[np.asarray(h, dtype=int)]
    psi = -diffs.T @ diffs
    return np.triu(psi) + np.triu(psi, 1).T


def asym_score_grads(u, v, x, h, train):
    """Partials of the asymmetric score S(x, h) = -sum_j |Ux - Vx_j|^2 wrt U
    (query side) and V (database side), from h's own gather."""
    xs = train.features[np.asarray(h, dtype=int)]
    x = np.asarray(x, dtype=float)
    k = xs.shape[0]
    grad_u = -2.0 * np.outer(k * (u @ x) - v @ xs.sum(axis=0), x)
    grad_v = -2.0 * (v @ (xs.T @ xs) - np.outer(u @ x, xs.sum(axis=0)))
    return grad_u, grad_v


def hamming_score(hasher, x, h, train) -> float:
    """Inner product of the query code sign(Ux) with the summed codes
    sign(Vx_j) of h, with sign(0) = +1."""
    q = np.where(hasher.u @ np.asarray(x, dtype=float) >= 0.0, 1.0, -1.0)
    codes = np.where(train.features[np.asarray(h, dtype=int)] @ hasher.v.T >= 0.0, 1.0, -1.0)
    return float(q @ codes.sum(axis=0))


def asym_hamming_distance(projected_query, code, scales) -> float:
    """Soft distance between a binary code and the squashed query projection."""
    soft = np.tanh(np.asarray(scales, dtype=float) * np.asarray(projected_query, dtype=float))
    return float(np.sum((np.asarray(code, dtype=float) - soft) ** 2) / 4.0)


def _tanh_prime(z):
    return 1.0 - np.tanh(z) ** 2


def query_side_grad(u, x, other_code_sum_diff) -> np.ndarray:
    """[tanh'(Ux) o (sum of h-hat codes - sum of h* codes)] x^T: the
    U-gradient of the relaxed set score."""
    x = np.asarray(x, dtype=float)
    return np.outer(_tanh_prime(u @ x) * other_code_sum_diff, x)


def db_side_grad(v, members, query_code) -> np.ndarray:
    """sum over members of (query_code o tanh'(V x_j)) x_j^T: the
    V-gradient of the relaxed score of one member set."""
    xs = np.atleast_2d(np.asarray(members, dtype=float))
    proj = xs @ v.T
    return (_tanh_prime(proj) * query_code).T @ xs


def kernel_weights(spec, features, x) -> np.ndarray:
    """Normalized triangle-kernel weights max(0, 1 - r / h) at ``x``, with h
    ``spec.bandwidth``; uniform when no mass falls inside the bandwidth ball
    (counting a point exactly on the rim as massless)."""
    diffs = np.asarray(features, dtype=float) - np.asarray(x, dtype=float)
    raw = np.maximum(0.0, 1.0 - np.sqrt(np.sum(diffs**2, axis=1)) / spec.bandwidth)
    total = raw.sum()
    if total > 0:
        return raw / total
    return np.full(len(raw), 1.0 / len(raw))


def kernel_regress(train, spec, x) -> float:
    """Weighted mean of the targets; far queries get the global mean."""
    w = kernel_weights(spec, train.features, x)
    return float(w @ np.asarray(train.labels, dtype=float))


def kernel_class_probs(train, spec, x, temperature: float = 1.0) -> np.ndarray:
    """Softmaxed per-class kernel mass at ``x``.

    The raw vector sums class-indicator weights, so the fallback region
    softmaxes the empirical class frequencies.  Temperature divides the raw
    scores before the softmax.
    """
    if train.kind != CLASS:
        raise ValueError("kernel_class_probs needs a classed dataset")
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    w = kernel_weights(spec, train.features, x)
    raw = np.zeros(train.n_classes)
    np.add.at(raw, np.asarray(train.labels, dtype=int) - 1, w)
    scores = raw / temperature
    e = np.exp(scores - scores.max())
    return e / e.sum()


def finite_diff_gradient(evaluator, x, t: float, mask) -> np.ndarray:
    """Symmetric differences (f(x + t e_i) - f(x - t e_i)) / 2t per coordinate.

    ``evaluator`` may return a scalar (gradient) or a vector (Jacobian row
    per coordinate).  Coordinates with a false mask entry are skipped and
    left at zero.
    """
    if not t > 0:
        raise ValueError("step t must be positive")
    x = np.asarray(x, dtype=float)
    d = len(x)
    values = np.zeros(d)
    for i in np.flatnonzero(np.asarray(mask, dtype=bool)):
        step = np.zeros(d)
        step[i] = t
        row = (np.asarray(evaluator(x + step), dtype=float)
               - np.asarray(evaluator(x - step), dtype=float)) / (2.0 * t)
        if row.ndim and values.ndim == 1:  # the first Jacobian row sets the width
            values = np.zeros((d,) + row.shape)
        values[i] = row
    return values


def explicit_loo(train, spec, t, plug_in):
    """(mask, central differences) per sample: the density gate from
    ``gate_mask`` and :func:`finite_diff_gradient` of ``plug_in(rest, z)``,
    where ``rest`` is the dataset without that sample."""
    out = []
    for idx in range(train.n):
        x = train.features[idx]
        mask = gate_mask(train, x, t, spec.bandwidth)
        rest = train.subset(np.flatnonzero(np.arange(train.n) != idx))
        out.append((mask, finite_diff_gradient(lambda z: plug_in(rest, z), x, t, mask)))
    return out


def brute_sym_eig(a):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    The reference for :func:`nnmetric.numerics.sym_eig`, with the same
    contract: the upper triangle of ``a`` is authoritative, and the result is
    ``(vectors, values)`` with orthogonal columns, values sorted descending
    and each column's largest-magnitude entry positive.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    work = np.triu(a) + np.triu(a, 1).T
    if not np.all(np.isfinite(work)):
        raise ValueError("brute_sym_eig requires finite entries")
    d = work.shape[0]
    vecs = np.eye(d)
    norm = float(np.linalg.norm(work, "fro"))
    if d > 1 and norm > 0.0:
        target = _JACOBI_TOL * norm
        for _ in range(_MAX_SWEEPS):
            off = work.copy()
            np.fill_diagonal(off, 0.0)
            if np.linalg.norm(off, "fro") <= target:
                break
            for p in range(d - 1):
                for q in range(p + 1, d):
                    apq = work[p, q]
                    if apq == 0.0:
                        continue
                    theta = (work[q, q] - work[p, p]) / (2.0 * apq)
                    # tan of the smaller rotation angle zeroing work[p, q]
                    t = 1.0 / (abs(theta) + np.hypot(1.0, theta))
                    if theta < 0.0:
                        t = -t
                    c = 1.0 / np.hypot(1.0, t)
                    s = t * c
                    col_p = work[:, p].copy()
                    col_q = work[:, q].copy()
                    work[:, p] = c * col_p - s * col_q
                    work[:, q] = s * col_p + c * col_q
                    row_p = work[p, :].copy()
                    row_q = work[q, :].copy()
                    work[p, :] = c * row_p - s * row_q
                    work[q, :] = s * row_p + c * row_q
                    work[p, q] = 0.0
                    work[q, p] = 0.0
                    vcol_p = vecs[:, p].copy()
                    vcol_q = vecs[:, q].copy()
                    vecs[:, p] = c * vcol_p - s * vcol_q
                    vecs[:, q] = s * vcol_p + c * vcol_q
        else:
            raise ArithmeticError("Jacobi iteration failed to converge")
    values = np.diag(work).copy()
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vecs = vecs[:, order]
    for j in range(d):
        lead = np.argmax(np.abs(vecs[:, j]))
        if vecs[lead, j] < 0.0:
            vecs[:, j] = -vecs[:, j]
    return vecs, values
