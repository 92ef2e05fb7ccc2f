"""Dense symmetric eigendecomposition, PSD projection, and spectral whitening.

All routines work on plain float ndarrays.  Inputs meant to be symmetric are
canonicalized with :func:`symmetrize` (upper triangle authoritative), so the
decompositions below never see an asymmetric residue.

The eigensolver is LAPACK's symmetric driver behind ``np.linalg.eigh``, with
the values put in descending order by one private helper that
:func:`sym_eig` and :func:`psd_project` share.  :func:`sym_eig` also fixes
each vector's sign (largest-magnitude entry positive); :func:`psd_project`
does not need to, as a column's sign cancels in V diag(lam+) V^T.
:func:`psd_project` first tests its input with one Cholesky factorization,
and a positive-definite input, already in the cone, comes back as it is;
only an input that fails the test is eigendecomposed.  The slow
independent oracle, a cyclic Jacobi iteration, is
:func:`nnmetric.bruteforce.brute_sym_eig`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np


class EigenDecomp(NamedTuple):
    """Eigenvectors (columns of ``vectors``) with eigenvalues descending."""

    vectors: np.ndarray
    values: np.ndarray


@lru_cache(maxsize=64)
def _strict_lower(d: int) -> np.ndarray:
    mask = np.tri(d, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return a copy of ``a`` with the upper triangle mirrored onto the lower."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # + 0.0 maps -0.0 to +0.0, as the sum of the two triangles always did
    return np.where(_strict_lower(a.shape[0]), a.T, a) + 0.0


def _checked_symmetric(a: np.ndarray, caller: str) -> np.ndarray:
    """``symmetrize(a)``; a non-finite entry raises naming ``caller``."""
    work = symmetrize(a)
    if not np.isfinite(work).all():
        raise ValueError(f"{caller} requires finite entries")
    return work


def _eigh_descending(work: np.ndarray):
    """(values, vectors) of the symmetric ``work`` by ``np.linalg.eigh``,
    values descending (stable order)."""
    values, vecs = np.linalg.eigh(work)
    order = np.argsort(-values, kind="stable")
    return values[order], vecs[:, order]


def sym_eig(a: np.ndarray) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Parameters
    ----------
    a : (d, d) array
        Symmetric matrix (upper triangle authoritative).

    Returns
    -------
    EigenDecomp
        ``vectors`` orthogonal, ``values`` sorted descending.  Each column's
        sign is fixed so its largest-magnitude entry is positive, which makes
        the output deterministic up to eigenvalue multiplicity.
    """
    values, vecs = _eigh_descending(_checked_symmetric(a, "sym_eig"))
    lead = np.argmax(np.abs(vecs), axis=0)
    flip = vecs[lead, np.arange(vecs.shape[1])] < 0.0
    vecs[:, flip] = -vecs[:, flip]
    return EigenDecomp(vectors=vecs, values=values)


def psd_project(a: np.ndarray) -> np.ndarray:
    """Project onto the PSD cone by zeroing negative eigenvalues.

    ``symmetrize(a)`` is tested with one ``np.linalg.cholesky``.  When the
    factorization succeeds, the input is positive definite to working
    precision, already in the cone, and it comes back as it is.  Every
    other input takes the eigen route: ``symmetrize((V * max(lam, 0)) @
    V.T)`` with the descending eigenpairs of :func:`sym_eig` but without its
    sign fix, as negating a column of V negates both factors of each of its
    products, so the result is the same bit for bit.  Raises ``ValueError``
    on a non-finite entry.
    """
    work = _checked_symmetric(a, "psd_project")
    try:
        np.linalg.cholesky(work)
    except np.linalg.LinAlgError:
        values, vecs = _eigh_descending(work)
        return symmetrize((vecs * np.maximum(values, 0.0)) @ vecs.T)
    return work


# eigenvalues below this fraction of the largest are zeroed by the whitening
# map, and an eigenvalue below its negative means the input is not PSD
_RANK_TOL = 1e-9


def whitening_transform(g: np.ndarray) -> np.ndarray:
    """Linear map ``T`` with ``|T x - T x'|^2 = (x - x')^T G (x - x')``.

    Built from the spectral decomposition ``G = V diag(lam) V^T`` as
    ``T = diag(sqrt(lam)) V^T``.  Eigenvalues below ``_RANK_TOL * lam_max``
    are zeroed, so rank-deficient ``G`` yields a rank-deficient map.

    Raises
    ------
    ValueError
        If ``G`` has an eigenvalue below ``-_RANK_TOL``.
    """
    vecs, values = sym_eig(g)
    if values[-1] < -_RANK_TOL:
        raise ValueError(
            f"matrix is not PSD within tolerance: min eigenvalue {values[-1]:g}"
        )
    cutoff = _RANK_TOL * max(values[0], 0.0)
    kept = np.where(values > cutoff, values, 0.0)
    return np.sqrt(kept)[:, None] * vecs.T


def save_matrix_csv(path, m: np.ndarray) -> None:
    """Write a matrix as row-major CSV with exact (repr) float round-trip."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in m:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def load_matrix_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [
            [float(tok) for tok in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    return np.asarray(rows, dtype=float)
