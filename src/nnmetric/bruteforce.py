"""Exhaustive reference implementations.

Everything here enumerates candidate neighbor sets outright, so it is only
usable at small n choose k, but it is obviously correct.  The fast greedy
algorithms elsewhere in the package are validated against these routines by
the test suite and by the ``oracle`` CLI command.  Keep these independent of
the modules they check.
"""

from __future__ import annotations

import itertools

import numpy as np


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


def max_tied_loss(y: int, labels_h, loss_matrix: np.ndarray) -> float:
    """Loss of the worst class among the vote winners of h."""
    n_classes = loss_matrix.shape[0]
    return max(loss_matrix[y - 1, r - 1] for r in shared_winners(labels_h, n_classes))


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


def brute_loss_augmented(dists, labels, y: int, k: int, loss_matrix):
    """Maximize score plus the loss of the worst vote winner over all sets."""
    loss_matrix = np.asarray(loss_matrix, dtype=float)
    best_set, best_value = None, -np.inf
    for combo in itertools.combinations(_candidates(dists), k):
        labs = [labels[i] for i in combo]
        value = -sum(dists[i] for i in combo) + max_tied_loss(y, labs, loss_matrix)
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
