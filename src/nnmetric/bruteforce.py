"""Exhaustive and slow reference implementations.

The inference references enumerate candidate neighbor sets outright, so they
are only usable at small n choose k, but they are obviously correct; the
eigensolver reference is a plain cyclic Jacobi iteration, and the gradient
pass reference probes a plug-in refit on the sample without each point.  The
fast routines elsewhere in the package are validated against these by the
test suite and by the ``oracle`` CLI command.  Keep these independent of the
code they check: the pass reference uses only the per-point gate and
finite-difference helpers of ``gradient_metrics``, which the pass itself
never calls.
"""

from __future__ import annotations

import itertools

import numpy as np

from .gradient_metrics import finite_diff_gradient, gate_mask

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


def explicit_loo(train, spec, t, plug_in):
    """(mask, central differences) per sample: the density gate from
    ``gate_mask`` and ``finite_diff_gradient`` of ``plug_in(rest, z)``, where
    ``rest`` is the dataset without that sample."""
    out = []
    for idx in range(train.n):
        x = train.features[idx]
        mask = gate_mask(train, x, t, spec.bandwidth)
        rest = train.subset(np.flatnonzero(np.arange(train.n) != idx))
        values = finite_diff_gradient(lambda z: plug_in(rest, z), x, t, mask).values
        out.append((mask, values))
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
