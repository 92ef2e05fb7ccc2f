"""Metric estimation from finite-difference gradients of kernel regressors.

One pass over the sample gives, per point, a central-difference gradient of
a plug-in estimate (kernel regression for real targets, softmaxed class
indicators for labels).  Averaging the gradient outer products yields a PSD
matrix whose whitening map rescales and rotates the space toward directions
along which the target actually varies; averaging coordinatewise absolute
differences instead yields diagonal weights that rescale but cannot rotate.

Density gating zeroes coordinates whose probe balls are empty, which keeps
boundary noise out of the averages.  No optimization is involved anywhere.

GW, EGOP and EJOP are reductions of one pass (:func:`gradient_pass`): per
sample, one probe-distance matrix gives both the gates and the plug-in
weights.  One loop over the sample serves a whole grid of (h, t) points
(:func:`gradient_passes`): what no h changes (the sample's differences and,
per t, the probe distances, their minima and roots) is formed once, and each
point gets the pass it would get alone, to the bit.  The squared distances
come from the exact expansion
|x +- t e_i - f|^2 = |x - f|^2 + t^2 +- 2t (x_i - f_i), with no matrix
product and none of the cancellation of |p|^2 - 2 p.f + |f|^2, and the
triangle weights stay unnormalized (max(0, h - r)) until the plug-in sums
are divided by their total.  The weights drop the queried point; the gates
count it.  The queried point lies at distance exactly t from each of its
own probes, so when t <= h every probe ball holds it and no gate ever
closes: the gate only acts for t > h.  Counting it keeps every estimate as
it was when the gate was introduced; a gate that skipped it would close on
isolated samples at any t and change the estimates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import CLASS, Dataset
from .numerics import symmetrize, whitening_transform


@dataclass(frozen=True)
class KernelSpec:
    """Bandwidth h of the triangle kernel max(0, 1 - r / h), which vanishes
    at r = h and is positive below it."""

    bandwidth: float

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")


def _softmax(scores):
    """Softmax along the last axis."""
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def gate_mask(train: Dataset, x, t: float, h: float) -> np.ndarray:
    """Per-coordinate density gates: both probe balls B(x +- t e_i, h) hold
    a point.  Probe distances are plain sums of squared differences, an
    arithmetic the gradient pass does not share.  The gate of
    :func:`nnmetric.bruteforce.explicit_loo`, the pass's reference."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    probes = np.repeat(x[None, :], 2 * d, axis=0)
    idx = np.arange(d)
    probes[idx, idx] += t
    probes[d + idx, idx] -= t
    sq = np.sum((probes[:, None, :] - train.features[None, :, :]) ** 2, axis=2)
    inside = np.any(sq <= h * h + 1e-12, axis=1)
    return inside[:d] & inside[d:]


@dataclass(frozen=True, eq=False)
class GradientMetricEstimate:
    """Averaged gradient outer product."""

    g: np.ndarray
    kind: str

    def transform(self) -> np.ndarray:
        """Whitening map: distances under it square to the quadratic form g."""
        return whitening_transform(self.g)


def _loo_weights(h: float, dists, own: int, out):
    """Unnormalized triangle weights max(0, h - r) of probe distances r,
    written to ``out``, with the queried column ``own`` zeroed, and their
    row sums.

    The kernel's 1/h cancels once a row is divided by its sum, so it is never
    applied.  A row with no other point in reach falls back to uniform
    weights over the other points.
    """
    np.subtract(h, dists, out=out)
    np.maximum(out, 0.0, out=out)
    out[:, own] = 0.0
    total = out.sum(axis=1)
    empty = total == 0.0
    if empty.any():
        out[empty] = np.arange(out.shape[1]) != own
        total = out.sum(axis=1)
    return out, total


def _gradient_pass(train: Dataset, points, targets, temperature):
    """Yield ``(j, mask, central differences)`` for each sample and each
    point ``j`` of ``points``, a sequence of ``(KernelSpec, t)``, whose gate
    opened on it.

    Per sample x, the 2d x n squared probe distances at a step t come from
    the exact expansion |x +- t e_i - f|^2 = |x - f|^2 + t^2 +- 2t (x_i - f_i).
    What no h changes is formed once and shared: per sample, the difference
    x - f and its column sums of squares; per distinct t, the probe
    distances (the queried point sits at exactly t^2), their row minima and
    their square roots, taken the first time a gate of that t opens.  Per
    point, the minima give the density gates (as :func:`gate_mask`) and, on
    the gated rows, :func:`_loo_weights` writes the leave-one-out weights
    to a buffer of its own, leaving the shared roots for the next h.  The
    plug-in value at a probe is ``(raw @ targets) / total``, softmaxed at
    ``temperature`` unless that is None.  Each point gets the arithmetic a
    pass of that point alone gets, to the bit.  A point whose every gate
    stayed closed warns once, after the loop.
    """
    if train.n < 2:
        raise ValueError("need at least two points")
    feats = train.features
    n, d = feats.shape
    # the points of each distinct t, each with its h and its gate's reach
    by_t = {}
    for j, (spec, t) in enumerate(points):
        h = spec.bandwidth
        by_t.setdefault(t, []).append((j, h, h * h + 1e-12))
    columns = np.ascontiguousarray(feats.T)
    cross = np.empty((d, n))
    scaled = np.empty((d, n))
    base = np.empty(n)
    shifted = np.empty(n)
    dists = np.empty((2 * d, n))
    weights = np.empty((2 * d, n))
    nearest = np.empty(2 * d)
    opened = [False] * len(points)
    for idx in range(n):
        np.subtract(feats[idx][:, None], columns, out=cross)
        # scaled holds the squares until the first t overwrites it
        np.sum(np.square(cross, out=scaled), axis=0, out=base)
        for t, group in by_t.items():
            np.add(base, t * t, out=shifted)
            np.multiply(cross, 2.0 * t, out=scaled)
            np.add(shifted, scaled, out=dists[:d])
            np.subtract(shifted, scaled, out=dists[d:])
            # features are finite, so "some point within h" is "the nearest is"
            np.min(dists, axis=1, out=nearest)
            rooted = False
            for j, h, reach in group:
                inside = nearest <= reach
                mask = inside[:d] & inside[d:]
                if not mask.any():
                    continue
                opened[j] = True
                if not rooted:
                    # rounding can take a squared distance just below 0
                    if nearest.min() < 0.0:
                        np.maximum(dists, 0.0, out=dists)
                    np.sqrt(dists, out=dists)
                    rooted = True
                if mask.all():
                    active, m, rows = None, d, dists
                else:
                    active = np.flatnonzero(mask)
                    m = len(active)
                    rows = dists[np.concatenate([active, d + active])]
                raw, total = _loo_weights(h, rows, idx, weights[: 2 * m])
                vals = raw @ targets
                vals /= total if vals.ndim == 1 else total[:, None]
                if temperature is not None:
                    vals = _softmax(vals / temperature)
                diffs = (vals[:m] - vals[m:]) / (2.0 * t)
                if active is not None:
                    full = np.zeros((d,) + vals.shape[1:])
                    full[active] = diffs
                    diffs = full
                yield j, mask, diffs
    for j, (spec, t) in enumerate(points):
        if not opened[j]:
            warnings.warn(
                f"every density gate failed on {n} rows at h = {spec.bandwidth:g}, t = {t:g}; "
                "estimate is zero"
            )


@dataclass(frozen=True, eq=False)
class GradientPass:
    """What GW, EGOP and EJOP reduce from one pass over ``n`` samples.

    ``outer`` sums the gradient outer products (``J J^T`` for the class-mass
    Jacobian), ``abs_sums`` the absolute central differences (real surface
    only, zero otherwise) and ``counts`` the samples whose gate opened each
    coordinate.  ``temperature`` is None on the real surface.
    """

    n: int
    h: float
    t: float
    temperature: float | None
    outer: np.ndarray
    abs_sums: np.ndarray
    counts: np.ndarray


def gradient_passes(train: Dataset, points, temperature=None) -> list[GradientPass]:
    """One pass over the sample, in sample order, for every ``(KernelSpec,
    t)`` of ``points``: the one per-sample loop of GW, EGOP and EJOP.  The
    i-th :class:`GradientPass` is what :func:`gradient_pass` returns for
    the i-th point, bit for bit.

    With ``temperature`` None it probes the leave-one-out kernel regression
    of the labels, the surface GW and EGOP share; otherwise the class mass
    softmaxed at that temperature, the surface of EJOP.
    """
    d = train.d
    sums = [(np.zeros((d, d)), np.zeros(d), np.zeros(d)) for _ in points]
    if temperature is None:
        targets = np.asarray(train.labels, dtype=float)
    else:
        _check_class_surface(train, temperature)
        targets = np.eye(train.n_classes)[np.asarray(train.labels, dtype=int) - 1]
    # central differences over a tiny t, or of a huge slope, overflow these
    # sums; the estimators check them and name the pass, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for j, mask, grad in _gradient_pass(train, points, targets, temperature):
            outer, abs_sums, counts = sums[j]
            counts += mask
            if temperature is None:
                abs_sums += np.abs(grad)
                outer += grad[:, None] * grad
            else:
                outer += grad @ grad.T
    return [
        GradientPass(train.n, spec.bandwidth, t, temperature, outer, abs_sums, counts)
        for (spec, t), (outer, abs_sums, counts) in zip(points, sums)
    ]


def gradient_pass(train: Dataset, spec: KernelSpec, t: float, temperature=None) -> GradientPass:
    """:func:`gradient_passes` of the one point (``spec``, ``t``)."""
    return gradient_passes(train, [(spec, t)], temperature)[0]


def _check_class_surface(train: Dataset, temperature) -> None:
    if train.kind != CLASS:
        raise ValueError("estimate_ejop needs a classed dataset")
    if len(np.unique(train.labels)) < 2:
        raise ValueError("need at least two classes")
    if not temperature > 0:
        raise ValueError("temperature must be positive")


def _pass_for(train, spec, t, temperature, passed) -> GradientPass:
    """``passed`` when it was run on this sample, h, t and temperature;
    a fresh pass when it is None."""
    if passed is None:
        return gradient_pass(train, spec, t, temperature)
    if (passed.n, passed.h, passed.t, passed.temperature) != (
        train.n, spec.bandwidth, t, temperature
    ):
        raise ValueError("the given pass was run with other data or parameters")
    return passed


def _finite(passed: GradientPass, sums: np.ndarray, what: str) -> np.ndarray:
    """``sums`` of ``passed``, refused when a central difference overflowed."""
    if not np.all(np.isfinite(sums)):
        raise ValueError(
            f"the gradient pass at h = {passed.h:g}, t = {passed.t:g} summed {what} "
            "that are not finite: its central differences overflow; use a larger t "
            "or smaller targets"
        )
    return sums


def estimate_egop(
    train: Dataset, spec: KernelSpec, t: float, passed: GradientPass | None = None
) -> GradientMetricEstimate:
    """Average outer product of gated gradient estimates over the sample.

    The plug-in regressor drops the queried point (its probes would
    otherwise lean on the point itself).  ``passed``, a
    :class:`GradientPass` of the same sample, h and t, is reduced as given
    instead of running :func:`gradient_pass`.  Sums that overflowed raise
    ``ValueError`` naming the pass's h and t.
    """
    passed = _pass_for(train, spec, t, None, passed)
    outer = _finite(passed, passed.outer, "gradient outer products")
    return GradientMetricEstimate(g=symmetrize(outer / train.n), kind="egop")


def estimate_gw(
    train: Dataset, spec: KernelSpec, t: float, passed: GradientPass | None = None
) -> np.ndarray:
    """Diagonal weights: mean absolute coordinate difference over gated
    samples.  Coordinates never gated come out zero.  ``passed`` as in
    :func:`estimate_egop`."""
    passed = _pass_for(train, spec, t, None, passed)
    abs_sums = _finite(passed, passed.abs_sums, "absolute differences")
    return abs_sums / np.maximum(passed.counts, 1.0)


def estimate_ejop(
    train: Dataset,
    spec: KernelSpec,
    t: float,
    temperature: float = 1.0,
    passed: GradientPass | None = None,
) -> GradientMetricEstimate:
    """Average J J^T where J stacks central differences of the softmaxed
    class-mass vector, one row per input coordinate.  ``passed`` as in
    :func:`estimate_egop`."""
    passed = _pass_for(train, spec, t, temperature, passed)
    outer = _finite(passed, passed.outer, "Jacobian outer products")
    return GradientMetricEstimate(g=symmetrize(outer / train.n), kind="ejop")


# the number of sampled points whose hits and misses ReliefF scores
_RELIEFF_PROBES = 100


def relieff_weights(train: Dataset, k_hits: int = 5, seed: int = 0) -> np.ndarray:
    """Hit/miss feature scoring over _RELIEFF_PROBES sampled points:
    coordinates whose values agree within a class but differ across classes
    score high.  Clipped at zero."""
    if train.kind != CLASS:
        raise ValueError("relieff_weights needs a classed dataset")
    labels = train.labels
    feats = train.features
    counts = np.bincount(labels, minlength=train.n_classes + 1)[1:]
    if np.any(counts < k_hits + 1):
        raise ValueError("every class needs at least k_hits + 1 points")
    spread = feats.max(axis=0) - feats.min(axis=0)
    spread[spread == 0] = 1.0
    priors = counts / train.n

    rng = np.random.default_rng(seed)
    probes = rng.choice(train.n, size=_RELIEFF_PROBES, replace=_RELIEFF_PROBES > train.n)
    w = np.zeros(train.d)
    for idx in probes:
        x = feats[idx]
        y = int(labels[idx])
        gaps = np.abs(feats - x) / spread
        dists = np.sqrt(np.sum((feats - x) ** 2, axis=1))
        for cls in range(1, train.n_classes + 1):
            pool = np.flatnonzero(labels == cls)
            if cls == y:
                pool = pool[pool != idx]
            nearest = pool[np.argsort(dists[pool], kind="stable")[:k_hits]]
            mean_gap = gaps[nearest].mean(axis=0)
            if cls == y:
                w -= mean_gap
            else:
                w += priors[cls - 1] / (1.0 - priors[y - 1]) * mean_gap
    return np.maximum(w / _RELIEFF_PROBES, 0.0)
