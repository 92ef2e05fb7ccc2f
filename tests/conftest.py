"""Shared synthetic fixtures for the test suite."""

import numpy as np

from nnmetric.bruteforce import explicit_loo
from nnmetric.dataset import CLASS, Dataset
from nnmetric.gradient_metrics import GradientPass


def gauss_blobs(centers, n_per_class, scales, seed):
    """Isotropic-per-coordinate Gaussian clusters, one class per center.

    centers: (R, d) array; scales: scalar or length-d per-coordinate stds.
    """
    centers = np.asarray(centers, dtype=float)
    rng = np.random.default_rng(seed)
    scales = np.broadcast_to(np.asarray(scales, dtype=float), (centers.shape[1],))
    feats, labs = [], []
    for r, center in enumerate(centers, start=1):
        feats.append(center + rng.normal(size=(n_per_class, len(center))) * scales)
        labs.append(np.full(n_per_class, r))
    return Dataset(
        features=np.vstack(feats), labels=np.concatenate(labs).astype(int), kind=CLASS
    )


def anisotropic_blobs(n_per_class, d, seed, separation=2.0, noise_scale=10.0):
    """Two classes split along coordinate 0 at unit noise; the remaining
    coordinates are pure noise at ``noise_scale``, swamping Euclidean
    distances."""
    centers = np.zeros((2, d))
    centers[0, 0] = separation
    centers[1, 0] = -separation
    scales = np.full(d, noise_scale)
    scales[0] = 1.0
    return gauss_blobs(centers, n_per_class, scales, seed)


def loo_pass(train, spec, t, plug_in, temperature=None):
    """The :class:`GradientPass` of ``plug_in(rest, z)`` on ``train``: the
    central differences of ``bruteforce.explicit_loo``, summed as
    ``gradient_pass`` sums its plug-in's, with every reference gate open, as
    0 < t <= h makes it.  ``temperature`` None gives the real surface of GW
    and EGOP (``plug_in`` scalar), otherwise the class surface of EJOP at
    that temperature (``plug_in`` a vector)."""
    d = train.d
    outer, abs_sums = np.zeros((d, d)), np.zeros(d)
    for mask, grad in explicit_loo(train, spec, t, plug_in):
        assert mask.all()
        if temperature is None:
            abs_sums += np.abs(grad)
            outer += np.outer(grad, grad)
        else:
            outer += grad @ grad.T
    return GradientPass(train.n, spec.bandwidth, t, temperature, outer, abs_sums)


def probed_pass(train, spec, t, f, temperature=None):
    """:func:`loo_pass` of a known function ``f``, the same whichever sample
    is left out."""
    return loo_pass(train, spec, t, lambda rest, z: f(z), temperature)


def fallback_rows(X, h, t):
    """The number of probe rows x +- t e_i of the samples of ``X`` with no
    other sample closer than h, the rows whose weights fall back to uniform."""
    d = X.shape[1]
    rows = 0
    for idx, x in enumerate(X):
        probes = np.vstack([x + t * np.eye(d), x - t * np.eye(d)])
        sq = np.sum((probes[:, None, :] - np.delete(X, idx, axis=0)[None]) ** 2, axis=2)
        rows += int(np.sum(~np.any(sq < h * h, axis=1)))
    return rows
