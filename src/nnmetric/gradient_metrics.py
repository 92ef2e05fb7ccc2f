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
weights.  The weights drop the queried point; the gates count it.  The
queried point lies at distance t from each of its own probes, so when
t <= h every probe ball holds it and no gate ever closes: the gate only
acts for t > h.  Counting it keeps every estimate as it was when the gate
was introduced; a gate that skipped it would close on isolated samples at
any t and change the estimates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import CLASS, Dataset
from .numerics import EigenDecomp, sym_eig, symmetrize, whitening_transform


@dataclass(frozen=True)
class KernelSpec:
    """Bandwidth of the triangle kernel max(0, 1 - u), which vanishes at 1
    and is positive below it."""

    bandwidth: float

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")

    def __call__(self, u, out=None):
        u = np.asarray(u, dtype=float)
        return np.maximum(0.0, np.subtract(1.0, u, out=out), out=out)


def kernel_weights(spec: KernelSpec, features, x) -> np.ndarray:
    """Normalized kernel weights at ``x``; uniform when no mass falls inside
    the bandwidth ball (counting a point exactly on the rim as massless)."""
    diffs = np.asarray(features, dtype=float) - np.asarray(x, dtype=float)
    raw = spec(np.sqrt(np.sum(diffs**2, axis=1)) / spec.bandwidth)
    total = raw.sum()
    if total > 0:
        return raw / total
    return np.full(len(raw), 1.0 / len(raw))


def kernel_regress(train: Dataset, spec: KernelSpec, x) -> float:
    """Weighted mean of the targets; far queries get the global mean."""
    w = kernel_weights(spec, train.features, x)
    return float(w @ np.asarray(train.labels, dtype=float))


def kernel_class_probs(
    train: Dataset, spec: KernelSpec, x, temperature: float = 1.0
) -> np.ndarray:
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
    return _softmax(raw / temperature)


def _softmax(scores):
    """Softmax along the last axis."""
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def gate_mask(train: Dataset, x, t: float, h: float) -> np.ndarray:
    """Per-coordinate density gates: both probe balls B(x +- t e_i, h) hold
    a point."""
    x = np.asarray(x, dtype=float)
    feats = train.features
    d = len(x)
    probes = np.repeat(x[None, :], 2 * d, axis=0)
    idx = np.arange(d)
    probes[idx, idx] += t
    probes[d + idx, idx] -= t
    sq = (
        np.sum(feats**2, axis=1)[None, :]
        - 2.0 * probes @ feats.T
        + np.sum(probes**2, axis=1)[:, None]
    )
    inside = np.any(sq <= h * h + 1e-12, axis=1)
    return inside[:d] & inside[d:]


@dataclass(frozen=True)
class GradientEstimate:
    """Central-difference gradient (or Jacobian, one row per coordinate)
    with gated rows pinned to zero."""

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        gated = self.values[~self.mask]
        if gated.size and np.any(gated != 0.0):
            raise ValueError("gated coordinates must be exactly zero")


def finite_diff_gradient(evaluator, x, t: float, mask=None) -> GradientEstimate:
    """Symmetric differences (f(x + t e_i) - f(x - t e_i)) / 2t per coordinate.

    ``evaluator`` may return a scalar (gradient) or a vector (Jacobian row
    per coordinate).  Coordinates with a false mask entry are skipped and
    left at zero.
    """
    if not t > 0:
        raise ValueError("step t must be positive")
    x = np.asarray(x, dtype=float)
    d = len(x)
    mask = np.ones(d, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    values = np.zeros(d)
    for i in np.flatnonzero(mask):
        step = np.zeros(d)
        step[i] = t
        row = (np.asarray(evaluator(x + step), dtype=float)
               - np.asarray(evaluator(x - step), dtype=float)) / (2.0 * t)
        if row.ndim and values.ndim == 1:  # the first Jacobian row sets the width
            values = np.zeros((d,) + row.shape)
        values[i] = row
    return GradientEstimate(values=values, mask=mask)


@dataclass(frozen=True)
class GradientMetricEstimate:
    """Averaged gradient outer product; its eigendecomposition on demand."""

    g: np.ndarray
    kind: str

    @property
    def eig(self) -> EigenDecomp:
        return sym_eig(self.g)

    def transform(self) -> np.ndarray:
        """Whitening map: distances under it square to the quadratic form g."""
        return whitening_transform(self.g)


def _loo_weights(spec: KernelSpec, sq, own: int):
    """Kernel weights of squared probe distances, in place, with the queried
    column ``own`` zeroed; a row with no other point in reach falls back to
    uniform weights over the other points.  Rows are normalized."""
    np.maximum(sq, 0.0, out=sq)
    np.sqrt(sq, out=sq)
    np.divide(sq, spec.bandwidth, out=sq)
    spec(sq, out=sq)
    sq[:, own] = 0.0
    total = sq.sum(axis=1)
    empty = total == 0.0
    if empty.any():
        sq[empty] = np.arange(sq.shape[1]) != own
        total = sq.sum(axis=1)
    return np.divide(sq, total[:, None], out=sq)


def _gradient_pass(train: Dataset, spec: KernelSpec, t, evaluator, values):
    """Yield ``(mask, central differences)`` for each sample with an open gate.

    One 2d x n probe-distance matrix per sample, written into one reused
    buffer, gives the density gates (as :func:`gate_mask`) and, on the gated
    rows, the leave-one-out kernel weights; ``values`` maps weight rows to
    plug-in values at the probes.  ``evaluator``, when given, is probed
    instead of the plug-in.
    """
    if train.n < 2:
        raise ValueError("need at least two points")
    feats = train.features
    n, d = feats.shape
    h = spec.bandwidth
    norms = np.sum(feats**2, axis=1)[None, :]
    offsets = np.zeros((2 * d, d))
    offsets[np.arange(d), np.arange(d)] = t
    offsets[d + np.arange(d), np.arange(d)] = -t
    probes = np.empty((2 * d, d))
    doubled = np.empty((2 * d, d))
    sq = np.empty((2 * d, n))
    nearest = np.empty(2 * d)
    any_gate = False
    for idx in range(n):
        x = feats[idx]
        np.add(x, offsets, out=probes)
        np.multiply(probes, 2.0, out=doubled)
        np.matmul(doubled, feats.T, out=sq)
        np.subtract(norms, sq, out=sq)
        sq += np.sum(probes**2, axis=1)[:, None]
        # features are finite, so "some point within h" is "the nearest is"
        inside = np.min(sq, axis=1, out=nearest) <= h * h + 1e-12
        mask = inside[:d] & inside[d:]
        if not mask.any():
            continue
        any_gate = True
        if evaluator is not None:
            yield mask, finite_diff_gradient(evaluator, x, t, mask).values
            continue
        active = np.flatnonzero(mask)
        m = len(active)
        rows = sq if m == d else sq[np.concatenate([active, d + active])]
        vals = values(_loo_weights(spec, rows, idx))
        diffs = np.zeros((d,) + vals.shape[1:])
        diffs[active] = (vals[:m] - vals[m:]) / (2.0 * t)
        yield mask, diffs
    if not any_gate:
        warnings.warn(
            f"every density gate failed on {n} rows at h = {h:g}, t = {t:g}; estimate is zero"
        )


@dataclass(frozen=True)
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


def gradient_pass(
    train: Dataset, spec: KernelSpec, t: float, temperature=None, evaluator=None
) -> GradientPass:
    """One pass over the sample, in sample order.

    With ``temperature`` None it probes the kernel regression of the labels,
    the surface GW and EGOP share; otherwise the class mass softmaxed at that
    temperature, the surface of EJOP.  ``evaluator`` overrides the plug-in.
    """
    d = train.d
    outer, abs_sums, counts = np.zeros((d, d)), np.zeros(d), np.zeros(d)
    if temperature is None:
        y = np.asarray(train.labels, dtype=float)
        for mask, grad in _gradient_pass(train, spec, t, evaluator, lambda w: w @ y):
            counts += mask
            abs_sums += np.abs(grad)
            outer += np.outer(grad, grad)
    else:
        _check_class_surface(train, temperature)
        onehot = np.eye(train.n_classes)[np.asarray(train.labels, dtype=int) - 1]
        for mask, jac in _gradient_pass(
            train, spec, t, evaluator, lambda w: _softmax((w @ onehot) / temperature)
        ):
            counts += mask
            outer += jac @ jac.T
    return GradientPass(train.n, spec.bandwidth, t, temperature, outer, abs_sums, counts)


def _check_class_surface(train: Dataset, temperature) -> None:
    if train.kind != CLASS:
        raise ValueError("estimate_ejop needs a classed dataset")
    if train.n_classes < 2:
        raise ValueError("need at least two classes")
    if not temperature > 0:
        raise ValueError("temperature must be positive")


def _pass_for(train, spec, t, temperature, evaluator, passed) -> GradientPass:
    """``passed`` when it was run on this sample, h, t and temperature;
    a fresh pass when it is None."""
    if passed is None:
        return gradient_pass(train, spec, t, temperature, evaluator)
    if (passed.n, passed.h, passed.t, passed.temperature) != (
        train.n, spec.bandwidth, t, temperature
    ):
        raise ValueError("the given pass was run with other data or parameters")
    return passed


def estimate_egop(
    train: Dataset,
    spec: KernelSpec,
    t: float,
    evaluator=None,
    passed: GradientPass | None = None,
) -> GradientMetricEstimate:
    """Average outer product of gated gradient estimates over the sample.

    The plug-in regressor drops the queried point (its probes would
    otherwise lean on the point itself).  ``evaluator`` overrides the
    plug-in entirely, for callers that already have a function to probe.
    ``passed`` is a :func:`gradient_pass` of the same arguments to reduce
    instead of running one.
    """
    passed = _pass_for(train, spec, t, None, evaluator, passed)
    return GradientMetricEstimate(g=symmetrize(passed.outer / train.n), kind="egop")


def estimate_gw(
    train: Dataset,
    spec: KernelSpec,
    t: float,
    evaluator=None,
    passed: GradientPass | None = None,
) -> np.ndarray:
    """Diagonal weights: mean absolute coordinate difference over gated
    samples.  Coordinates never gated come out zero.  ``passed`` as in
    :func:`estimate_egop`."""
    passed = _pass_for(train, spec, t, None, evaluator, passed)
    return passed.abs_sums / np.maximum(passed.counts, 1.0)


def estimate_ejop(
    train: Dataset,
    spec: KernelSpec,
    t: float,
    temperature: float = 1.0,
    evaluator=None,
    passed: GradientPass | None = None,
) -> GradientMetricEstimate:
    """Average J J^T where J stacks central differences of the softmaxed
    class-mass vector, one row per input coordinate.  ``passed`` as in
    :func:`estimate_egop`."""
    passed = _pass_for(train, spec, t, temperature, evaluator, passed)
    return GradientMetricEstimate(g=symmetrize(passed.outer / train.n), kind="ejop")


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
