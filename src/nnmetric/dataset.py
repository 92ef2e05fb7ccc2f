"""Dataset ingestion, normalization, splitting, and synthetic generation.

CSV contract: UTF-8, one header row, comma separated, decimal-point reals.
Class labels may be arbitrary strings; they are re-indexed to contiguous ids
1..R in order of first appearance.  Real targets must parse as finite floats.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

CLASS = "class"
REAL = "real"


class DatasetFormatError(ValueError):
    """Raised for malformed dataset files, with row/column context."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable feature matrix with class ids (1..R) or real targets.

    ``label_names`` holds a CSV's own label value of each class id, id r at
    position r - 1; it is empty for data that came from no file, whose ids
    are their labels.
    """

    features: np.ndarray
    labels: np.ndarray
    kind: str
    name: str = ""
    label_names: tuple = ()

    def __post_init__(self):
        features = _checked_features(self.features)
        if self.kind not in (CLASS, REAL):
            raise ValueError(f"unknown label kind: {self.kind!r}")
        if self.kind == CLASS:
            labels = np.asarray(self.labels, dtype=int)
            present = np.unique(labels)
            if len(labels) and not np.array_equal(
                present, np.arange(1, present[-1] + 1)
            ):
                raise ValueError("class ids must be contiguous 1..R")
        else:
            labels = np.asarray(self.labels, dtype=float)
            if not np.all(np.isfinite(labels)):
                raise ValueError("labels contain non-finite values")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be a vector matching the row count")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        if self.kind != CLASS:
            raise ValueError("n_classes is only defined for classed datasets")
        return int(self.labels.max())

    def class_label(self, cls: int) -> str:
        """The data's own label value of class id ``cls``."""
        return self.label_names[cls - 1] if cls <= len(self.label_names) else str(cls)

    def _replace(self, **changes) -> "Dataset":
        # dataclasses.replace without __post_init__'s contiguity check: a split
        # may drop classes, callers that need re-indexing do it explicitly
        out = Dataset.__new__(Dataset)
        vars(out).update(vars(self), **changes)
        return out

    def subset(self, idx, name=None) -> "Dataset":
        idx = np.asarray(idx)
        name = self.name if name is None else name
        return self._replace(features=self.features[idx], labels=self.labels[idx], name=name)

    def with_features(self, features) -> "Dataset":
        """New features, checked as the constructor checks them, under the same labels."""
        features = _checked_features(features)
        if features.shape[0] != self.n:
            raise ValueError("labels must be a vector matching the row count")
        return self._replace(features=features)


def _checked_features(features) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError("features must be a 2-d array")
    if features.shape[0] < 1 or features.shape[1] < 1:
        raise ValueError("need n >= 1 rows and d >= 1 columns")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")
    return features


@dataclass(frozen=True, eq=False)
class NormStats:
    """Per-column mean and (floored) standard deviation fitted on train data."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, features: np.ndarray) -> np.ndarray:
        """(x - mean) / std per column.  A column whose difference overflows
        (values of opposite sign near the largest double) is computed again
        as x / std - mean / std, which stays in range; every other column
        keeps the bits of the plain form."""
        features = np.asarray(features, dtype=float)
        with np.errstate(over="ignore"):
            out = (features - self.mean) / self.std
        odd = np.flatnonzero(~np.isfinite(out).all(axis=0))
        if len(odd):
            std = self.std[odd]
            out[:, odd] = features[:, odd] / std - self.mean[odd] / std
        return out


@dataclass(frozen=True, eq=False)
class SplitSpec:
    """A seeded partition of [0, n) into folds whose sizes differ by <= 1."""

    n_folds: int
    seed: int
    assignment: np.ndarray = field(repr=False)

    def fold_indices(self, fold: int):
        return np.flatnonzero(self.assignment == fold)


def load_csv(path, label_column: str, label_kind: str) -> Dataset:
    """Load a dataset from CSV.

    Parameters
    ----------
    path : path-like
    label_column : str
        Header name of the label column.
    label_kind : "class" or "real"
        Class labels are taken verbatim (any string) and re-indexed to 1..R
        by first appearance; real labels must be finite floats.

    Raises
    ------
    DatasetFormatError
        On a missing label column, a repeated column name, no feature
        column, a non-numeric or non-finite cell, or an empty file.
        Messages include the offending row and column.
    """
    if label_kind not in (CLASS, REAL):
        raise ValueError(f"label_kind must be 'class' or 'real', got {label_kind!r}")
    # utf-8-sig drops the byte-order mark that Excel and PowerShell write
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: file is empty") from None
        header = [name.strip() for name in header]
        for col_idx, name in enumerate(header):
            if name in header[:col_idx]:
                raise DatasetFormatError(
                    f"{path}: column {name!r} appears more than once in the header; "
                    "give each column its own name"
                )
        if label_column not in header:
            raise DatasetFormatError(
                f"{path}: missing label column {label_column!r} "
                f"(columns: {', '.join(header)})"
            )
        if len(header) == 1:
            raise DatasetFormatError(
                f"{path}: no feature columns besides the label column {label_column!r}; "
                "add at least one"
            )
        label_idx = header.index(label_column)
        rows = []
        raw_labels = []
        for row_num, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise DatasetFormatError(
                    f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}"
                )
            values = []
            for col_idx, cell in enumerate(row):
                if col_idx == label_idx:
                    continue
                value = _parse_real(path, cell, row_num, header[col_idx])
                values.append(value)
            rows.append(values)
            raw = row[label_idx].strip()
            raw_labels.append(
                raw if label_kind == CLASS else _parse_real(path, raw, row_num, label_column)
            )
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")

    features = np.asarray(rows, dtype=float)
    seen: dict[str, int] = {}
    if label_kind == CLASS:
        labels = np.empty(len(raw_labels), dtype=int)
        for i, raw in enumerate(raw_labels):
            labels[i] = seen.setdefault(raw, len(seen) + 1)
    else:
        labels = np.array(raw_labels)
    name = getattr(path, "name", str(path))
    return Dataset(features=features, labels=labels, kind=label_kind, name=name,
                   label_names=tuple(seen))


def _parse_real(path, cell, row_num, col_name):
    try:
        value = float(cell)
    except ValueError:
        raise DatasetFormatError(
            f"{path}: non-numeric cell {cell!r} at row {row_num}, column {col_name!r}"
        ) from None
    if not np.isfinite(value):
        raise DatasetFormatError(
            f"{path}: non-finite value {cell!r} at row {row_num}, column {col_name!r}"
        )
    return value


def save_csv(path, ds: Dataset) -> None:
    """Write a dataset as CSV with columns x1..xd and ``label``; floats
    serialized via repr so the file round-trips through :func:`load_csv`
    exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        cols = [f"x{i + 1}" for i in range(ds.d)] + ["label"]
        fh.write(",".join(cols) + "\n")
        for row, label in zip(ds.features, ds.labels):
            cells = [repr(float(v)) for v in row]
            cells.append(str(int(label)) if ds.kind == CLASS else repr(float(label)))
            fh.write(",".join(cells) + "\n")


# std entries this close to zero (relative to the mean's size) are measured
# again on the column scaled to unit magnitude; still under it, the column is
# constant and its std is 1
_STD_FLOOR_REL = 1e-12


def zscore_fit_apply(train: Dataset, others=()) -> tuple[NormStats, list[Dataset]]:
    """Fit column-wise z-scoring on ``train`` only, apply to all datasets.

    Uses the population (divide-by-n) standard deviation.  A column whose
    std overflows or is under the floor is divided by its largest |x| and
    measured again, so that features of extreme magnitude are scaled, not
    zeroed; the stored mean and std are scaled back.  A column still under
    the floor is constant: its std is 1, so it maps to zeros rather than
    dividing by zero.  Returns the stats and the normalized datasets,
    ``train`` first.
    """
    with np.errstate(over="ignore"):
        mean = train.features.mean(axis=0)
        std = train.features.std(axis=0)
    odd = np.flatnonzero(~(std > _STD_FLOOR_REL * (1.0 + np.abs(mean))) | np.isinf(std))
    if len(odd):
        scale = np.abs(train.features[:, odd]).max(axis=0)
        scale[scale == 0.0] = 1.0
        scaled = train.features[:, odd] / scale
        m, s = scaled.mean(axis=0), scaled.std(axis=0)
        spread = s > _STD_FLOOR_REL * (1.0 + np.abs(m))
        # a constant column keeps its mean, unless its std overflowed: that
        # mean missed the column's value, and the scaled one is exact
        mean[odd] = np.where(spread | np.isinf(std[odd]), m * scale, mean[odd])
        std[odd] = np.where(spread, s * scale, 1.0)
    stats = NormStats(mean=mean, std=std)
    out = []
    for ds in (train, *others):
        if ds.d != train.d:
            raise ValueError(
                f"dimension mismatch: train has d={train.d}, {ds.name or 'dataset'} has d={ds.d}"
            )
        out.append(ds.with_features(stats.apply(ds.features)))
    return stats, out


def kfold(n: int, n_folds: int, seed: int) -> SplitSpec:
    """Assign each of n points to one of n_folds folds, sizes within 1."""
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if n < n_folds:
        raise ValueError(f"cannot split n={n} points into {n_folds} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assignment = np.empty(n, dtype=int)
    assignment[perm] = np.arange(n) % n_folds
    return SplitSpec(n_folds=n_folds, seed=seed, assignment=assignment)


def sin_targets(features: np.ndarray, c1: float, decay: float) -> np.ndarray:
    """Noise-free targets y_j = sum_i sin(c_i x_ji) with c_i = decay * c_{i-1}."""
    d = features.shape[1]
    c = c1 * decay ** np.arange(d)
    return np.sin(features * c).sum(axis=1)


def synth_sin(
    n: int,
    d: int,
    c1: float = 50.0,
    decay: float = 0.6,
    rotate: bool = False,
    noise_std: float = 0.1,
    seed: int = 0,
) -> Dataset:
    """Synthetic regression data: sums of sines at geometrically decaying
    frequencies, optionally followed by a random rotation of feature space.

    Features are uniform on [0,1]^d.  Targets are generated before the
    rotation is applied, so ``rotate`` changes features only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0.0 < c1 < np.inf:
        raise ValueError("c1 must be finite and > 0")
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must be in (0, 1]")
    if not 0.0 <= noise_std < np.inf:
        raise ValueError("noise_std must be finite and >= 0")
    rng = np.random.default_rng(seed)
    features = rng.uniform(0.0, 1.0, size=(n, d))
    targets = sin_targets(features, c1, decay)
    if noise_std > 0.0:
        targets = targets + noise_std * rng.standard_normal(n)
    if rotate:
        features = features @ _rotation_from_rng(rng, d)
    return Dataset(features=features, labels=targets, kind=REAL, name="synth_sin")


def random_rotation(d: int, seed: int) -> np.ndarray:
    """A seeded d x d rotation matrix (orthogonal, det +1)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return _rotation_from_rng(np.random.default_rng(seed), d)


def _rotation_from_rng(rng, d):
    gauss = rng.standard_normal((d, d))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))  # make the factorization unique
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q
