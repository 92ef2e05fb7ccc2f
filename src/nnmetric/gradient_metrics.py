"""Metric estimation from finite-difference gradients of kernel regressors.

One pass over the sample gives, per point, a central-difference gradient of
a plug-in estimate (kernel regression for real targets, softmaxed class
indicators for labels).  Averaging the gradient outer products yields a PSD
matrix whose whitening map rescales and rotates the space toward directions
along which the target actually varies; averaging coordinatewise absolute
differences instead yields diagonal weights that rescale but cannot rotate.

Density gating zeroes coordinates whose probe balls are empty, which keeps
boundary noise out of the averages.  No optimization is involved anywhere.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import CLASS, Dataset
from .numerics import EigenDecomp, sym_eig, symmetrize, whitening_transform

_KERNEL_SHAPES = ("triangle", "epanechnikov")


@dataclass(frozen=True)
class KernelSpec:
    """Bandwidth plus a kernel shape vanishing at 1 and positive below it."""

    bandwidth: float
    shape: str = "triangle"

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        if self.shape not in _KERNEL_SHAPES:
            raise ValueError(f"unknown kernel shape {self.shape!r}")

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.shape == "triangle":
            return np.maximum(0.0, 1.0 - u)
        return np.maximum(0.0, 1.0 - u**2)


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
    scores = raw / temperature
    scores -= scores.max()
    e = np.exp(scores)
    return e / e.sum()


def density_gate(
    train: Dataset, x, t: float, h: float, i: int, min_count: int = 1
) -> bool:
    """Both probe balls B(x +- t e_i, h) hold at least ``min_count`` points."""
    return bool(gate_mask(train, x, t, h, min_count)[i])


def gate_mask(train: Dataset, x, t: float, h: float, min_count: int = 1) -> np.ndarray:
    """Per-coordinate density gates, vectorized over both probe signs."""
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
    counts = np.sum(sq <= h * h + 1e-12, axis=1)
    return (counts[:d] >= min_count) & (counts[d:] >= min_count)


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
    rows = {}
    width = None
    for i in range(d):
        if not mask[i]:
            continue
        step = np.zeros(d)
        step[i] = t
        row = (np.asarray(evaluator(x + step), dtype=float)
               - np.asarray(evaluator(x - step), dtype=float)) / (2.0 * t)
        rows[i] = row
        width = row.shape
    if width is None or width == ():
        values = np.zeros(d)
    else:
        values = np.zeros((d,) + width)
    for i, row in rows.items():
        values[i] = row
    return GradientEstimate(values=values, mask=mask)


@dataclass(frozen=True)
class GradientMetricEstimate:
    """Averaged gradient outer product with its eigendecomposition."""

    g: np.ndarray
    kind: str
    eig: EigenDecomp = field(compare=False)

    def transform(self, rank_tol: float = 1e-9) -> np.ndarray:
        """Whitening map: distances under it square to the quadratic form g."""
        return whitening_transform(self.g, rank_tol=rank_tol)


def _plugin_rows(train: Dataset, spec: KernelSpec, x, idx, active, t):
    """Kernel weight rows for the 2m probes around sample ``idx``.

    Zeroing the queried point's column before normalizing reproduces
    kernel weights on the dataset with that point removed, including the
    uniform fallback over the remaining points.
    """
    m = len(active)
    probes = np.repeat(np.asarray(x, dtype=float)[None, :], 2 * m, axis=0)
    probes[np.arange(m), active] += t
    probes[m + np.arange(m), active] -= t
    feats = train.features
    sq = np.maximum(
        np.sum(feats**2, axis=1)[None, :]
        - 2.0 * probes @ feats.T
        + np.sum(probes**2, axis=1)[:, None],
        0.0,
    )
    raw = spec(np.sqrt(sq) / spec.bandwidth)
    raw[:, idx] = 0.0
    totals = raw.sum(axis=1)
    weights = np.empty_like(raw)
    live = totals > 0
    weights[live] = raw[live] / totals[live, None]
    weights[~live] = 1.0 / (train.n - 1)
    weights[~live, idx] = 0.0
    return weights


def _plugin_gradient(train: Dataset, spec: KernelSpec, t, idx, mask) -> np.ndarray:
    """Leave-one-out central differences of the kernel regressor, batched."""
    active = np.flatnonzero(mask)
    weights = _plugin_rows(train, spec, train.features[idx], idx, active, t)
    vals = weights @ np.asarray(train.labels, dtype=float)
    m = len(active)
    grad = np.zeros(train.d)
    grad[active] = (vals[:m] - vals[m:]) / (2.0 * t)
    return grad


def _plugin_jacobian(train: Dataset, spec: KernelSpec, t, idx, mask, temperature):
    """Leave-one-out central differences of the softmaxed class masses."""
    active = np.flatnonzero(mask)
    weights = _plugin_rows(train, spec, train.features[idx], idx, active, t)
    onehot = np.zeros((train.n, train.n_classes))
    onehot[np.arange(train.n), np.asarray(train.labels, dtype=int) - 1] = 1.0
    scores = (weights @ onehot) / temperature
    scores -= scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    probs = e / e.sum(axis=1, keepdims=True)
    m = len(active)
    jac = np.zeros((train.d, train.n_classes))
    jac[active] = (probs[:m] - probs[m:]) / (2.0 * t)
    return jac


def _finish(g, kind, any_gate) -> GradientMetricEstimate:
    if not any_gate:
        warnings.warn(f"{kind}: every density gate failed; estimate is zero")
    g = symmetrize(g)
    return GradientMetricEstimate(g=g, kind=kind, eig=sym_eig(g))


def estimate_egop(
    train: Dataset,
    spec: KernelSpec,
    t: float,
    min_count: int = 1,
    evaluator=None,
) -> GradientMetricEstimate:
    """Average outer product of gated gradient estimates over the sample.

    The plug-in regressor drops the queried point (its probes would
    otherwise lean on the point itself).  ``evaluator`` overrides the
    plug-in entirely, for callers that already have a function to probe.
    """
    if train.n < 2:
        raise ValueError("need at least two points")
    g = np.zeros((train.d, train.d))
    any_gate = False
    for idx in range(train.n):
        x = train.features[idx]
        mask = gate_mask(train, x, t, spec.bandwidth, min_count)
        if not mask.any():
            continue
        any_gate = True
        if evaluator is None:
            grad = _plugin_gradient(train, spec, t, idx, mask)
        else:
            grad = finite_diff_gradient(evaluator, x, t, mask).values
        g += np.outer(grad, grad)
    return _finish(g / train.n, "egop", any_gate)


def estimate_gw(
    train: Dataset,
    spec: KernelSpec,
    t: float,
    min_count: int = 1,
    evaluator=None,
) -> np.ndarray:
    """Diagonal weights: mean absolute coordinate difference over gated
    samples.  Coordinates never gated come out zero."""
    if train.n < 2:
        raise ValueError("need at least two points")
    sums = np.zeros(train.d)
    counts = np.zeros(train.d)
    any_gate = False
    for idx in range(train.n):
        x = train.features[idx]
        mask = gate_mask(train, x, t, spec.bandwidth, min_count)
        if not mask.any():
            continue
        any_gate = True
        if evaluator is None:
            grad = _plugin_gradient(train, spec, t, idx, mask)
        else:
            grad = finite_diff_gradient(evaluator, x, t, mask).values
        sums += np.abs(grad)
        counts += mask
    if not any_gate:
        warnings.warn("gw: every density gate failed; weights are zero")
    return sums / np.maximum(counts, 1.0)


def estimate_ejop(
    train: Dataset,
    spec: KernelSpec,
    t: float,
    temperature: float = 1.0,
    min_count: int = 1,
    evaluator=None,
) -> GradientMetricEstimate:
    """Average J J^T where J stacks central differences of the softmaxed
    class-mass vector, one row per input coordinate."""
    if train.kind != CLASS:
        raise ValueError("estimate_ejop needs a classed dataset")
    if train.n_classes < 2:
        raise ValueError("need at least two classes")
    g = np.zeros((train.d, train.d))
    any_gate = False
    for idx in range(train.n):
        x = train.features[idx]
        mask = gate_mask(train, x, t, spec.bandwidth, min_count)
        if not mask.any():
            continue
        any_gate = True
        if evaluator is None:
            jac = _plugin_jacobian(train, spec, t, idx, mask, temperature)
        else:
            jac = finite_diff_gradient(evaluator, x, t, mask).values
        g += jac @ jac.T
    return _finish(g / train.n, "ejop", any_gate)


def ejop_predict(train: Dataset, spec: KernelSpec, x, temperature: float = 1.0) -> int:
    """Class with the largest kernel mass at ``x``."""
    return int(np.argmax(kernel_class_probs(train, spec, x, temperature)) + 1)


def relieff_weights(
    train: Dataset, k_hits: int = 5, n_probes: int = 100, seed: int = 0
) -> np.ndarray:
    """Hit/miss feature scoring: coordinates whose values agree within a
    class but differ across classes score high.  Clipped at zero."""
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
    probes = rng.choice(train.n, size=n_probes, replace=n_probes > train.n)
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
    return np.maximum(w / n_probes, 0.0)
