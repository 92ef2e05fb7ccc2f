"""Metric estimation from finite-difference gradients of kernel regressors.

One pass over the sample gives, per point, a central-difference gradient of
a plug-in estimate (kernel regression for real targets, softmaxed class
indicators for labels).  Averaging the gradient outer products yields a PSD
matrix whose whitening map rescales and rotates the space toward directions
along which the target actually varies; averaging coordinatewise absolute
differences instead yields diagonal weights that rescale but cannot rotate.
No optimization is involved anywhere.

GW, EGOP and EJOP are reductions of one pass (:func:`gradient_pass`): per
sample, one probe-distance matrix gives the plug-in weights.  One loop over
the sample serves a whole grid of (h, t) points (:func:`gradient_passes`):
what no h changes (the sample's differences and, per t, the probe distances
and their roots) is formed once, and each point gets the pass it would get
alone, to the bit.  The loop takes the samples in blocks of
b = max(1, ``_PASS_BLOCK`` // (2 d n)), so that each numpy call works on the
(b, 2d, n) probe distances of b samples at small shapes, and on one sample,
as a plain per-sample loop, once 2 d n is more than half of
``_PASS_BLOCK``.  The blocks change no bit of any pass: each sample's terms
are added to the sums one at a time, in sample order, and a stacked product
gives each sample the bits of its own.  The squared distances come from the
exact expansion |x +- t e_i - f|^2 = |x - f|^2 + t^2 +- 2t (x_i - f_i), with
no matrix product and none of the cancellation of |p|^2 - 2 p.f + |f|^2, and
the triangle weights stay unnormalized (max(0, h - r)) until the plug-in
sums are divided by their total.  The weights drop the queried point.

The pass takes 0 < t <= h.  The queried point lies at distance exactly t
from each of its own probes, so the density gate (:func:`gate_mask`) that
the reference pass applies never closes, and the pass computes none.
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
    a point.  Probe distances are plain sums of squared differences.  Only
    :func:`nnmetric.bruteforce.explicit_loo`, the pass's reference, calls it."""
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


# samples per block of the gradient pass: a block's probe distances are a
# (b, 2d, n) array of at most this many doubles, b = max(1, _PASS_BLOCK // (2 d n))
_PASS_BLOCK = 32768


def _loo_weights(h: float, dists, cells, out):
    """Unnormalized triangle weights max(0, h - r) of probe distances r, one
    probe per row, written to ``out``, with each row's queried column
    zeroed, and their row sums.  ``out`` is C-contiguous, and ``cells``
    holds the flat position in it of each row's queried column.

    The kernel's 1/h cancels once a row is divided by its sum, so it is never
    applied.  A row with no other point in reach falls back to uniform
    weights over the other points.
    """
    np.subtract(h, dists, out=out)
    np.maximum(out, 0.0, out=out)
    flat = out.reshape(-1)
    flat[cells] = 0.0
    total = np.add.reduce(out, axis=1)
    if not total.all():
        empty = total == 0.0
        out[empty] = 1.0
        flat[cells[empty]] = 0.0
        total[empty] = out[empty].sum(axis=1)
    return out, total


def _gradient_pass(train: Dataset, points, targets, temperature):
    """Yield ``(j, central differences)`` for each block of samples and each
    point ``j`` of ``points``, a sequence of ``(KernelSpec, t)`` with
    0 < t <= h: one row per sample of the block, in sample order, of its
    differences (b, d), or (b, d, C) on the class surface.

    The samples go in blocks of b = max(1, ``_PASS_BLOCK`` // (2 d n)), one
    sample at large n d, and every array below carries the block as its
    first axis.  Per sample x, the 2d x n squared probe distances at a step t
    come from the exact expansion |x +- t e_i - f|^2 = |x - f|^2 + t^2 +-
    2t (x_i - f_i).  What no h changes is formed once and shared: per block,
    the differences x - f and their sums of squares over the d coordinates;
    per distinct t, the probe distances (the queried point sits at exactly
    t^2) and their square roots.  Per point, :func:`_loo_weights` writes the
    leave-one-out weights of every probe of the block to a buffer of its
    own, leaving the shared roots for the next h.  The plug-in value at a
    probe is ``(raw @ targets) / total``, softmaxed at ``temperature``
    unless that is None, from one stacked product that gives each sample the
    bits of its own product.  So each point gets, to the bit, the pass of
    that point alone over one sample at a time.
    """
    if train.n < 2:
        raise ValueError("need at least two points")
    feats = train.features
    n, d = feats.shape
    # the points of each distinct t, each with its h
    by_t = {}
    for j, (spec, t) in enumerate(points):
        by_t.setdefault(t, []).append((j, spec.bandwidth))
    b = max(1, _PASS_BLOCK // (2 * d * n))
    columns = np.ascontiguousarray(feats.T)
    cross = np.empty((b, d, n))
    scaled = np.empty((b, d, n))
    base = np.empty((b, n))
    shifted = np.empty((b, n))
    dists = np.empty((b, 2 * d, n))
    weights = np.empty((b * 2 * d, n))
    # the flat position of each probe row's own sample in a block's weights,
    # for the block's first sample at 0
    own = np.arange(2 * d * b) * n + np.repeat(np.arange(b), 2 * d)
    # the row sums, shaped to divide the plug-in sums of the block's probes
    sums_shape = (b, 2 * d) + (1,) * (targets.ndim - 1)
    rows = dists.reshape(2 * d * b, n)
    for start in range(0, n, b):
        if n - start < b:
            # the last block is shorter: work on the leading rows of each buffer
            b = n - start
            cross, scaled, base, shifted = cross[:b], scaled[:b], base[:b], shifted[:b]
            dists, own = dists[:b], own[: 2 * d * b]
            rows = dists.reshape(2 * d * b, n)
            sums_shape = (b,) + sums_shape[1:]
        cells = own + start
        np.subtract(feats[start : start + b, :, None], columns, out=cross)
        # scaled holds the squares until the first t overwrites it
        np.add.reduce(np.square(cross, out=scaled), axis=1, out=base)
        for t, group in by_t.items():
            np.add(base, t * t, out=shifted)
            np.multiply(cross, 2.0 * t, out=scaled)
            np.add(shifted[:, None], scaled, out=dists[:, :d])
            np.subtract(shifted[:, None], scaled, out=dists[:, d:])
            # rounding can take a squared distance just below 0
            if dists.min() < 0.0:
                np.maximum(dists, 0.0, out=dists)
            np.sqrt(dists, out=dists)
            for j, h in group:
                raw, total = _loo_weights(h, rows, cells, weights[: len(rows)])
                vals = raw.reshape(b, 2 * d, n) @ targets
                vals /= total.reshape(sums_shape)
                if temperature is not None:
                    vals = _softmax(vals / temperature)
                yield j, (vals[:, :d] - vals[:, d:]) / (2.0 * t)


@dataclass(frozen=True, eq=False)
class GradientPass:
    """What GW, EGOP and EJOP reduce from one pass over ``n`` samples.

    ``outer`` sums the gradient outer products (``J J^T`` for the class-mass
    Jacobian) and ``abs_sums`` the absolute central differences (real surface
    only, zero otherwise).  ``temperature`` is None on the real surface.
    """

    n: int
    h: float
    t: float
    temperature: float | None
    outer: np.ndarray
    abs_sums: np.ndarray


def gradient_passes(train: Dataset, points, temperature=None) -> list[GradientPass]:
    """One pass over the sample, in sample order, for every ``(KernelSpec,
    t)`` of ``points``: the one per-sample loop of GW, EGOP and EJOP.  The
    i-th :class:`GradientPass` is what :func:`gradient_pass` returns for
    the i-th point, bit for bit.  Each block of samples adds its samples'
    terms one at a time, in sample order (:func:`_add_in_order`), so the
    sums do not depend on how the samples are grouped into blocks.  After
    the loop, a point whose every central difference was zero (each probe's
    ball held only its own sample, say) warns once: its estimate is zero.

    Every point must have 0 < t <= h; a point outside raises ``ValueError``
    naming its h and t.  With ``temperature`` None it probes the
    leave-one-out kernel regression of the labels, the surface GW and EGOP
    share; otherwise the class mass softmaxed at that temperature, the
    surface of EJOP.
    """
    for spec, t in points:
        if not 0.0 < t <= spec.bandwidth:
            raise ValueError(
                f"the gradient pass needs 0 < t <= h; got h = {spec.bandwidth:g}, t = {t:g}"
            )
    d = train.d
    sums = [(np.zeros((d, d)), np.zeros(d)) for _ in points]
    if temperature is None:
        targets = np.asarray(train.labels, dtype=float)
    else:
        _check_class_surface(train, temperature)
        targets = np.eye(train.n_classes)[np.asarray(train.labels, dtype=int) - 1]
    # central differences over a tiny t, or of a huge slope, overflow these
    # sums; the estimators check them and name the pass, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for j, grads in _gradient_pass(train, points, targets, temperature):
            outer, abs_sums = sums[j]
            if temperature is None:
                _add_in_order(abs_sums, np.abs(grads))
                _add_in_order(outer, grads[:, :, None] * grads[:, None, :])
            else:
                _add_in_order(outer, grads @ grads.transpose(0, 2, 1))
    for (spec, t), (outer, _) in zip(points, sums):
        if not outer.any():
            warnings.warn(
                f"every central difference was zero on {train.n} rows at h = "
                f"{spec.bandwidth:g}, t = {t:g}; estimate is zero and puts every distance "
                "at 0; use a larger h"
            )
    return [
        GradientPass(train.n, spec.bandwidth, t, temperature, outer, abs_sums)
        for (spec, t), (outer, abs_sums) in zip(points, sums)
    ]


def _add_in_order(total, terms):
    """Add the stack ``terms`` to ``total`` one entry at a time, in order, as
    a running sum does: an accumulation, where a reduction might pair them.
    One entry, a block of one sample, is a plain ``+=``."""
    if len(terms) == 1:
        total += terms[0]
    else:
        total[...] = np.add.accumulate(np.concatenate((total[None], terms)), axis=0)[-1]


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
    """Average outer product of the gradient estimates over the sample.

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
    """Diagonal weights: mean absolute coordinate difference over the
    sample.  ``passed`` as in :func:`estimate_egop`."""
    passed = _pass_for(train, spec, t, None, passed)
    abs_sums = _finite(passed, passed.abs_sums, "absolute differences")
    return abs_sums / train.n


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
