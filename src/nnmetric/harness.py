"""Experiment orchestration: config files, tuning, evaluation, reports.

A run is described by a flat ``key = value`` config file (dotted keys group
sections).  The pipeline fits z-scoring on the training split only, then
runs one tuning loop per method: each grid point is scored on (fit, val)
splits of the training rows, the lowest mean score wins, and the winner is
refit on the full training split.  The transform methods and ``hamming``
tune on ``cv.folds`` folds; ``gerry_sym``, ``gerry_asym`` and ``gerry_reg``
tune on one seeded 75/25 split.  Every ``grid.k`` value must be below the
row count of the smallest fit split.  ``predict.rule = hnn`` applies to the
transform methods only; the learned methods always predict by kNN with
their tuned k.  GW, EGOP and EJOP are estimated once per (fit split, h, t)
in a run, GW and EGOP from one shared gradient pass, and every other grid
value of that split reuses the estimate.  Each model is evaluated once on
the held-out test split, and the run writes results.csv plus model
artifacts.  Every random choice derives from the config seed, so rerunning
a (config, seed) pair reproduces the report bytes exactly.

This module is what ``nnmetric run`` and ``nnmetric synth`` load; the
oracle suites that check the fast routines live in :mod:`nnmetric.oracles`
and the references they call in :mod:`nnmetric.bruteforce`, and neither is
imported here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import (
    CLASS,
    REAL,
    Dataset,
    kfold,
    load_csv,
    save_csv,
    synth_sin,
    zscore_fit_apply,
)
from .gerrymander import GerryTrainConfig, metric_predictions, train_sgd
from .gradient_metrics import (
    KernelSpec,
    estimate_egop,
    estimate_ejop,
    estimate_gw,
    gradient_passes,
    relieff_weights,
)
from .hamming import HammingTrainConfig, hamming_predictions, train_hamming
from .numerics import save_matrix_csv
from .predictors import NeighborRule, evaluate, predict_batch, transform_features
from .regression_ml import RegTrainConfig, metric_reg_predictions, train_reg_sgd


class ConfigError(ValueError):
    """Config validation failure; the message names the offending field."""


METHODS = (
    "euclidean",
    "gw",
    "egop",
    "ejop",
    "relieff",
    "gerry_sym",
    "gerry_asym",
    "gerry_reg",
    "hamming",
)
_TRANSFORM_METHODS = ("euclidean", "relieff", "gw", "egop", "ejop")
_CLASSIFY_ONLY = ("ejop", "relieff", "gerry_sym", "gerry_asym", "hamming")
_REGRESS_ONLY = ("gerry_reg",)

# independent seed streams so the split, the tuning split, and the oracle
# draws (:mod:`nnmetric.oracles`) never alias each other
_SPLIT_STREAM = 11
_TUNE_STREAM = 13

# radius candidates for the hnn rule, as quantiles of the pairwise distances
# of the transformed training features (the grid stays scale-free this way)
_RADIUS_QUANTILES = (0.05, 0.1, 0.2, 0.35)
_RADIUS_SAMPLE = 400


def _as_choice(raw, key, options):
    if raw not in options:
        raise ConfigError(f"{key}: expected one of {', '.join(options)}, got {raw!r}")
    return raw


def _as_int(raw, key, lo=None):
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if lo is not None and value < lo:
        raise ConfigError(f"{key}: must be >= {lo}, got {value}")
    return value


def _as_float(raw, key, lo=None, strict=False):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    if lo is not None and (value < lo or (strict and value == lo)):
        bound = ">" if strict else ">="
        raise ConfigError(f"{key}: must be {bound} {lo}, got {value}")
    return value


def _as_bool(raw, key):
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected true or false, got {raw!r}")


def _split_list(raw, key):
    parts = [part.strip() for part in raw.split(",")]
    if not parts or any(not part for part in parts):
        raise ConfigError(f"{key}: expected a comma-separated list, got {raw!r}")
    return parts


def _as_int_list(raw, key, lo=None):
    return tuple(_as_int(part, key, lo) for part in _split_list(raw, key))


def _as_float_list(raw, key, lo=None, strict=False):
    return tuple(_as_float(part, key, lo, strict) for part in _split_list(raw, key))


def _as_methods(raw, key):
    methods = tuple(_as_choice(part, key, METHODS) for part in _split_list(raw, key))
    if len(set(methods)) != len(methods):
        raise ConfigError(f"{key}: duplicate method in {raw!r}")
    return methods


def _as_fraction(raw, key):
    value = _as_float(raw, key, lo=0.0, strict=True)
    if value >= 1.0:
        raise ConfigError(f"{key}: must be < 1, got {value}")
    return value


def _as_decay(raw, key):
    value = _as_float(raw, key, lo=0.0, strict=True)
    if value > 1.0:
        raise ConfigError(f"{key}: must be <= 1, got {value}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment; every field holds a concrete value."""

    task: str
    methods: tuple
    rule: str = "knn"
    source: str = "synth"
    path: str | None = None
    label_column: str = "label"
    n: int | None = None
    d: int | None = None
    c1: float = 50.0
    decay: float = 0.6
    rotate: bool = False
    noise_std: float = 0.1
    test_fraction: float = 0.25
    folds: int = 2
    seed: int = 0
    out_dir: str = "runs"
    grid_k: tuple = (3,)
    grid_h: tuple = (1.0,)
    grid_t: tuple = (0.25,)
    grid_c: tuple = (1.0,)
    grid_gamma: tuple = (1.0,)
    epochs: int = 20
    bits: int = 8
    temperature: float = 1.0
    hstar: str = "upper_bound"

    @staticmethod
    def from_mapping(mapping) -> "ExperimentConfig":
        kwargs = {}
        for key, raw in mapping.items():
            if key not in _SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            attr, parse = _SCHEMA[key]
            kwargs[attr] = parse(raw, key)
        for key in _REQUIRED_KEYS:
            attr, _ = _SCHEMA[key]
            if attr not in kwargs:
                raise ConfigError(f"{key}: required")
        config = ExperimentConfig(**kwargs)
        _check_config(config, set(mapping))
        return config


_SCHEMA = {
    "task": ("task", lambda r, k: _as_choice(r, k, ("classify", "regress"))),
    "method": ("methods", _as_methods),
    "predict.rule": ("rule", lambda r, k: _as_choice(r, k, ("knn", "hnn"))),
    "data.source": ("source", lambda r, k: _as_choice(r, k, ("synth", "csv"))),
    "data.path": ("path", lambda r, k: r),
    "data.label_column": ("label_column", lambda r, k: r),
    "data.n": ("n", lambda r, k: _as_int(r, k, lo=4)),
    "data.d": ("d", lambda r, k: _as_int(r, k, lo=1)),
    "data.c1": ("c1", lambda r, k: _as_float(r, k, lo=0.0, strict=True)),
    "data.decay": ("decay", _as_decay),
    "data.rotate": ("rotate", _as_bool),
    "data.noise_std": ("noise_std", lambda r, k: _as_float(r, k, lo=0.0)),
    "data.test_fraction": ("test_fraction", _as_fraction),
    "cv.folds": ("folds", lambda r, k: _as_int(r, k, lo=2)),
    "seed": ("seed", lambda r, k: _as_int(r, k, lo=0)),
    "out.dir": ("out_dir", lambda r, k: r),
    "grid.k": ("grid_k", lambda r, k: _as_int_list(r, k, lo=1)),
    "grid.h": ("grid_h", lambda r, k: _as_float_list(r, k, lo=0.0, strict=True)),
    "grid.t": ("grid_t", lambda r, k: _as_float_list(r, k, lo=0.0, strict=True)),
    "grid.c": ("grid_c", lambda r, k: _as_float_list(r, k, lo=0.0, strict=True)),
    "grid.gamma": ("grid_gamma", lambda r, k: _as_float_list(r, k, lo=0.0, strict=True)),
    "train.epochs": ("epochs", lambda r, k: _as_int(r, k, lo=0)),
    "hamming.bits": ("bits", lambda r, k: _as_int(r, k, lo=1)),
    "ejop.temperature": ("temperature", lambda r, k: _as_float(r, k, lo=0.0, strict=True)),
    "reg.hstar": ("hstar", lambda r, k: _as_choice(r, k, ("upper_bound", "min_loss"))),
}
_REQUIRED_KEYS = ("task", "method", "data.source")
_SYNTH_KEYS = ("data.n", "data.d", "data.c1", "data.decay", "data.rotate", "data.noise_std")
_CSV_KEYS = ("data.path", "data.label_column")


def _check_config(config: ExperimentConfig, given: set) -> None:
    if config.source == "csv":
        if config.path is None:
            raise ConfigError("data.path: required when data.source = csv")
        for key in _SYNTH_KEYS:
            if key in given:
                raise ConfigError(f"{key}: only valid when data.source = synth")
    else:
        for key in _CSV_KEYS:
            if key in given:
                raise ConfigError(f"{key}: only valid when data.source = csv")
        if config.n is None:
            raise ConfigError("data.n: required when data.source = synth")
        if config.d is None:
            raise ConfigError("data.d: required when data.source = synth")
        if config.task != "regress":
            raise ConfigError(
                "task: data.source = synth generates real targets; use task = regress"
            )
    for method in config.methods:
        if method in _CLASSIFY_ONLY and config.task != "classify":
            raise ConfigError(f"method: {method} requires task = classify")
        if method in _REGRESS_ONLY and config.task != "regress":
            raise ConfigError(f"method: {method} requires task = regress")


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines; # comments and blank lines are skipped."""
    mapping = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {line_no}: expected key = value, got {stripped!r}")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key in mapping:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def config_json(config: ExperimentConfig) -> str:
    """The resolved config (defaults filled in) as deterministic JSON."""
    skip = _SYNTH_KEYS if config.source == "csv" else _CSV_KEYS
    obj = {key: getattr(config, attr) for key, (attr, _) in _SCHEMA.items() if key not in skip}
    return _json_text(obj)


def _holdout(n: int, fraction: float, stream: int, seed: int):
    """(kept, held out) row indices of one seeded permutation, each in row
    order; round(n * fraction) rows, clipped to [1, n - 2], are held out."""
    perm = np.random.default_rng([stream, seed]).permutation(n)
    n_out = min(max(int(round(n * fraction)), 1), n - 2)
    return np.sort(perm[n_out:]), np.sort(perm[:n_out])


def split_indices(n: int, test_fraction: float, seed: int):
    """Seeded train/test split; both index arrays come back in row order."""
    return _holdout(n, test_fraction, _SPLIT_STREAM, seed)


def load_experiment_data(config: ExperimentConfig):
    """Load or generate the dataset and split it into (train, test)."""
    if config.source == "csv":
        kind = CLASS if config.task == "classify" else REAL
        ds = load_csv(config.path, config.label_column, kind)
    else:
        ds = synth_sin(
            config.n,
            config.d,
            c1=config.c1,
            decay=config.decay,
            rotate=config.rotate,
            noise_std=config.noise_std,
            seed=config.seed,
        )
    if ds.n < 4:
        raise ConfigError(f"data: need at least 4 rows to split, got {ds.n}")
    train_idx, test_idx = split_indices(ds.n, config.test_fraction, config.seed)
    if ds.kind == REAL:
        # a sum of n squared errors, each at most the squared spread, must stay finite
        low, high = float(ds.labels.min()), float(ds.labels.max())
        if not np.isfinite(ds.n * (high - low) * (high - low)):
            raise ConfigError(
                f"data: the targets span {low!r} to {high!r}, so sums of their squared "
                "errors overflow; rescale the targets"
            )
        if float(np.var(ds.labels[test_idx])) == 0.0:
            raise ConfigError(
                f"data: the {len(test_idx)} targets of the test split all equal "
                f"{float(ds.labels[test_idx[0]])!r}, so their nMSE is undefined"
            )
    return ds.subset(train_idx, name="train"), ds.subset(test_idx, name="test")


@dataclass
class FittedModel:
    """A tuned method: chosen params, a query scorer, and saveable arrays."""

    method: str
    params: dict
    predictor: object
    artifacts: dict
    meta: dict = field(default_factory=dict)

    def predict(self, queries):
        return self.predictor(queries)


def _objective(predictions, truth, task: str) -> float:
    if task == "classify":
        return float(np.mean(np.asarray(predictions) != np.asarray(truth)))
    diff = np.asarray(predictions, dtype=float) - np.asarray(truth, dtype=float)
    return float(np.mean(diff**2))


def _radii(feats: np.ndarray) -> dict:
    """The hnn radius of each of _RADIUS_QUANTILES on transformed features:
    that quantile of their pairwise distances, or the largest distance
    (1 when all are 0) where the quantile is 0."""
    n = feats.shape[0]
    if n > _RADIUS_SAMPLE:
        feats = feats[:: -(-n // _RADIUS_SAMPLE)]
    sq_norms = np.sum(feats**2, axis=1)
    sq = np.maximum(sq_norms[:, None] - 2.0 * feats @ feats.T + sq_norms[None, :], 0.0)
    upper = np.sqrt(sq[np.triu_indices(feats.shape[0], k=1)])
    quantiles = np.quantile(upper, _RADIUS_QUANTILES)
    top = float(upper.max())
    fallback = top if top > 0 else 1.0
    return {q: float(r) if r > 0 else fallback for q, r in zip(_RADIUS_QUANTILES, quantiles)}


def _indicator_dataset(ds: Dataset, method: str) -> Dataset:
    """Two-class data as a real regression surface on class-1 membership."""
    if ds.kind == REAL:
        return ds
    top = int(ds.labels.max())
    if top != 2:
        if top > 2:
            found = (f"class {ds.class_label(3)} has {int(np.sum(ds.labels == 3))} of the "
                     f"{ds.n} rows of a fit split")
        else:
            found = f"all {ds.n} rows of a fit split are class {ds.class_label(1)}"
        raise ConfigError(
            f"method: {method} on task = classify needs exactly two classes; {found}"
        )
    return Dataset(
        features=ds.features,
        labels=(np.asarray(ds.labels, dtype=int) == 1).astype(float),
        kind=REAL,
        name=ds.name,
    )


def _relieff_weights_for(ds: Dataset, seed: int, memo: dict) -> np.ndarray:
    """ReliefF weights of a fit split, computed once per (split content,
    k_hits, seed) in the run's ``memo``."""
    counts = np.bincount(np.asarray(ds.labels, dtype=int))[1:]
    if counts.min() < 2:
        cls = 1 + int(np.argmin(counts))
        raise ConfigError(
            "method: relieff computes ReliefF weights, which need at least 2 rows per "
            f"class; class {ds.class_label(cls)} has {int(counts[cls - 1])} of the {ds.n} "
            "rows of a fit split"
        )
    k_hits = min(5, int(counts.min()) - 1)
    return _memoised(
        memo,
        ("relieff", _content_key(ds), k_hits, seed),
        lambda: relieff_weights(ds, k_hits=k_hits, seed=seed),
    )


def _content_key(ds: Dataset) -> str:
    """Digest of a dataset's features and labels (values, dtypes, shapes)."""
    digest = hashlib.blake2b(digest_size=16)
    for array in (ds.features, ds.labels):
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _memoised(memo: dict, key, compute):
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _fit_transform(
    method: str, ds: Dataset, params: dict, config: ExperimentConfig, memo: dict, grid=()
):
    """Returns (transform matrix or None, raw estimate to save or None).

    ``memo`` lives for one run.  It holds one gradient pass per (fit-split
    content, h, t, and the EJOP temperature), shared by GW and EGOP because
    they probe the same real surface, one result per method and pass, and
    the ReliefF weights of each fit split (see :func:`_relieff_weights_for`);
    the ``grid.k`` and hnn quantile axes reuse them.  A pass the memo lacks
    comes from one :func:`gradient_passes` call over the (h, t) of
    ``params`` and every (h, t) of ``grid`` not yet memoised, each memoised
    under its own key: a tuning split passes its method's whole grid, so
    one loop over its samples serves every point, and the refit passes
    none and computes only its chosen point.
    """
    if method == "euclidean":
        return None, None
    if method == "relieff":
        weights = _relieff_weights_for(ds, config.seed, memo)
        return np.diag(np.sqrt(weights)), weights[None, :]
    spec = KernelSpec(bandwidth=float(params["h"]))
    t = float(params["t"])
    if method == "ejop":
        surface, temperature = ds, config.temperature
    else:
        surface, temperature = _indicator_dataset(ds, method), None
    content = _content_key(surface)
    key = (content, spec.bandwidth, t, temperature)

    def estimate():
        if ("pass", *key) not in memo:
            points = dict.fromkeys([(spec.bandwidth, t), *grid])
            missing = [p for p in points if ("pass", content, *p, temperature) not in memo]
            passes = gradient_passes(
                surface, [(KernelSpec(bandwidth=h), pt) for h, pt in missing], temperature
            )
            for point, passed in zip(missing, passes):
                memo["pass", content, *point, temperature] = passed
        passed = memo["pass", *key]
        if method == "gw":
            weights = estimate_gw(surface, spec, t, passed=passed)
            return np.diag(np.sqrt(weights)), weights[None, :]
        if method == "egop":
            est = estimate_egop(surface, spec, t, passed=passed)
        else:
            est = estimate_ejop(surface, spec, t, temperature=temperature, passed=passed)
        return est.transform(), est.g

    return _memoised(memo, (method, *key), estimate)


def _kfold_splits(train: Dataset, config: ExperimentConfig):
    """The cv.folds (fit, val) pairs of the training rows."""
    folds = kfold(train.n, config.folds, config.seed)
    return [
        (
            train.subset(np.flatnonzero(folds.assignment != f)),
            train.subset(folds.fold_indices(f)),
        )
        for f in range(folds.n_folds)
    ]


def _tune_split(train: Dataset, config: ExperimentConfig):
    """One seeded 75/25 (fit, val) pair of the training rows for tuning C and friends."""
    fit_idx, val_idx = _holdout(train.n, 0.25, _TUNE_STREAM, config.seed)
    return [(train.subset(fit_idx, name="tune_fit"), train.subset(val_idx, name="tune_val"))]


# Each family below returns (grid, splits, fit) for _fit_method, where
# fit(ds, params) -> (predictor, chosen params, artifacts, meta) trains one
# grid point on ds.  Trainers and predictors are looked up by global name at
# call time, so perfbench/tracer.py can patch them on this module.


def _transform_family(method, train, config, memo):
    if config.rule == "knn":
        grid = [{"k": k} for k in config.grid_k]
    else:
        grid = [{"q": q} for q in _RADIUS_QUANTILES]
    points = ()
    if method not in ("euclidean", "relieff"):
        grid = [{"h": h, "t": t, **r} for h in config.grid_h for t in config.grid_t for r in grid]
        points = tuple(dict.fromkeys((float(p["h"]), float(p["t"])) for p in grid))

    def fit(ds, params):
        # a tuning split runs its whole (h, t) grid in one pass; the refit its point alone
        transform, estimate = _fit_transform(
            method, ds, params, config, memo, () if ds is train else points
        )
        if config.rule == "knn":
            rule, extra = NeighborRule("knn", k=int(params["k"])), {}
        else:
            # one set of radii per transformed split serves every quantile
            radii = _memoised(
                memo,
                ("radii", method, _content_key(ds), params.get("h"), params.get("t")),
                lambda: _radii(transform_features(ds.features, transform)),
            )
            radius = radii[params["q"]]
            rule, extra = NeighborRule("hnn", radius=radius), {"radius": radius}
        artifacts = {"transform": transform if transform is not None else np.eye(ds.d)}
        meta = {}
        if estimate is not None:
            artifacts["estimate"] = estimate
            meta["estimate"] = {
                "kind": method,
                "h": float(params["h"]) if "h" in params else None,
                "t": float(params["t"]) if "t" in params else None,
                "temperature": config.temperature if method == "ejop" else None,
                "n": ds.n,
                "seed": config.seed,
            }

        def predictor(queries):
            return predict_batch(ds, transform, queries, rule)

        return predictor, {**params, **extra}, artifacts, meta

    return grid, _kfold_splits(train, config), fit


def _gerry_family(method, train, config, memo):
    variant = "symmetric" if method == "gerry_sym" else "asymmetric"
    grid = [{"k": k, "c": c} for k in config.grid_k for c in config.grid_c]

    def fit(ds, params):
        gcfg = GerryTrainConfig(
            k=params["k"], c=params["c"], epochs=config.epochs, seed=config.seed
        )
        metric = train_sgd(ds, gcfg, variant=variant).metric
        if variant == "symmetric":
            artifacts = {"w": metric.w}
        else:
            artifacts = {"u": metric.u, "v": metric.v}

        def predictor(queries):
            return metric_predictions(metric, ds, queries, params["k"])

        return predictor, params, artifacts, {"variant": variant}

    return grid, _tune_split(train, config), fit


def _gerry_reg_family(method, train, config, memo):
    grid = [
        {"k": k, "gamma": g, "c": c}
        for k in config.grid_k
        for g in config.grid_gamma
        for c in config.grid_c
    ]

    def fit(ds, params):
        rcfg = RegTrainConfig(
            k=params["k"], c=params["c"], epochs=config.epochs, seed=config.seed,
            gamma=params["gamma"], hstar=config.hstar,
        )
        metric = train_reg_sgd(ds, rcfg).metric

        def predictor(queries):
            return metric_reg_predictions(metric, ds, queries, params["k"])

        return predictor, params, {"w": metric.w}, {"hstar": config.hstar}

    return grid, _tune_split(train, config), fit


def _hamming_family(method, train, config, memo):
    grid = [{"k": k} for k in config.grid_k]

    def fit(ds, params):
        hcfg = HammingTrainConfig(
            c=config.bits, k=params["k"], epochs=config.epochs, seed=config.seed
        )
        hasher = train_hamming(ds, hcfg).metric

        def predictor(queries):
            return hamming_predictions(hasher, ds, queries, params["k"])

        chosen = {**params, "bits": config.bits}
        return predictor, chosen, {"u": hasher.u, "v": hasher.v}, {}

    return grid, _kfold_splits(train, config), fit


def _fit_method(method, train, config, rows, memo) -> FittedModel:
    """Tune one method's grid on its (fit, val) splits, then refit on train.

    Every grid point is trained on each fit split and scored on its val
    split; one row per (point, split) goes to ``rows``.  The point with the
    lowest mean score wins, ties going to the earlier point.  ``memo`` is
    the run's memo of estimates and ReliefF weights (see
    :func:`_fit_transform`).
    """
    if method in _TRANSFORM_METHODS:
        family = _transform_family
    elif method in ("gerry_sym", "gerry_asym"):
        family = _gerry_family
    elif method == "gerry_reg":
        family = _gerry_reg_family
    else:
        family = _hamming_family
    grid, splits, fit = family(method, train, config, memo)
    if min(val.n for _, val in splits) == 0:
        # only the 75/25 split of 2 training rows holds out none
        raise ConfigError(
            f"data: {method} tunes on a 75/25 split of the training rows, which needs at "
            f"least 3 of them; got {train.n} training rows"
        )
    n_fit = min(fit_ds.n for fit_ds, _ in splits)
    if method in _TRANSFORM_METHODS and config.rule == "hnn" and n_fit < 2:
        raise ConfigError(
            f"predict.rule: {method} takes its hnn radii from the pairwise distances of "
            f"each fit split, which needs at least 2 rows, and its smallest fit split has "
            f"{n_fit} training row; use more training rows or fewer cv.folds"
        )
    for params in grid:
        if params.get("k", 0) >= n_fit:
            raise ConfigError(
                f"grid.k: {method} tunes on fit splits of {n_fit} training rows, "
                f"so every k must be below {n_fit}; got k = {params['k']}"
            )
    metric = "error" if config.task == "classify" else "mse"
    means = []
    for params in grid:
        values = []
        for fit_ds, val in splits:
            predictor = fit(fit_ds, params)[0]
            values.append(_objective(predictor(val.features), val.labels, config.task))
        for fold, value in enumerate(values):
            rows.append((method, fold, dict(params), metric, value))
        means.append(float(np.mean(values)))
    best = grid[min(range(len(grid)), key=lambda i: (means[i], i))]
    predictor, chosen, artifacts, meta = fit(train, best)
    return FittedModel(method, chosen, predictor, artifacts, meta)


@dataclass
class RunResult:
    reports: dict
    models: dict
    stats: object
    out_dir: Path


def run_experiment(config: ExperimentConfig) -> RunResult:
    """The full pipeline for every configured method, plus report files.

    A method's failure other than a :class:`ConfigError` is raised again as
    a ``RuntimeError`` whose message starts with the method's name.
    """
    train_raw, test_raw = load_experiment_data(config)
    if train_raw.n < config.folds:
        raise ConfigError(
            f"cv.folds: {config.folds} folds need at least that many training rows"
        )
    stats, (train, test) = zscore_fit_apply(train_raw, [test_raw])
    rows = []
    models = {}
    reports = {}
    memo = {}
    for method in config.methods:
        try:
            model = _fit_method(method, train, config, rows, memo)
            preds = model.predict(test.features)
            report = evaluate(preds, test.labels, config.task)
        except ConfigError:
            raise
        except Exception as exc:  # name the method in the run's failure
            raise RuntimeError(f"{method}: {exc}") from exc
        rows.append((method, -1, dict(model.params), report.metric_name, report.value))
        models[method] = model
        reports[method] = report
    out_dir = Path(config.out_dir)
    _write_outputs(out_dir, config, rows, models, reports, stats)
    return RunResult(reports=reports, models=models, stats=stats, out_dir=out_dir)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def _write_outputs(out_dir, config, rows, models, reports, stats) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "fold", "params_json", "metric", "value", "seed"])
        for method, fold, params, metric, value in rows:
            writer.writerow(
                [
                    method,
                    fold,
                    json.dumps(_jsonable(params), sort_keys=True),
                    metric,
                    repr(float(value)),
                    config.seed,
                ]
            )
    (out_dir / "resolved_config.json").write_text(config_json(config), encoding="utf-8")
    models_dir = out_dir / "models"
    models_dir.mkdir(exist_ok=True)
    norm = {"mean": list(stats.mean), "std": list(stats.std)}
    (models_dir / "norm_stats.json").write_text(_json_text(norm), encoding="utf-8")
    for method, model in models.items():
        mdir = models_dir / method
        mdir.mkdir(exist_ok=True)
        files = {}
        for stem, matrix in model.artifacts.items():
            save_matrix_csv(mdir / f"{stem}.csv", matrix)
            files[stem] = f"{stem}.csv"
        info = {
            "method": method,
            "task": config.task,
            "seed": config.seed,
            "params": model.params,
            "files": files,
            "metric": reports[method].metric_name,
            "value": reports[method].value,
            **model.meta,
        }
        (mdir / "model.json").write_text(_json_text(info), encoding="utf-8")


def cmd_run(config_path, seed=None, out=None) -> int:
    """Exit 0 on success, 1 on a runtime failure, 2 on a config problem."""
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        mapping = parse_config_text(text)
        if seed is not None:
            mapping["seed"] = str(seed)
        if out is not None:
            mapping["out.dir"] = str(out)
        config = ExperimentConfig.from_mapping(mapping)
        with warnings.catch_warnings():
            # one line per all-gated pass, not one per distinct text
            warnings.filterwarnings("always", message="every density gate failed")
            result = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # CLI boundary: report instead of crashing
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    for method in config.methods:
        report = result.reports[method]
        print(f"{method}: {report.metric_name} = {repr(report.value)} (n_test = {report.n_test})")
    print(f"report: {result.out_dir / 'results.csv'}")
    return 0


def cmd_synth(
    out_path,
    n: int = 200,
    d: int = 5,
    c1: float = 50.0,
    decay: float = 0.6,
    rotate: bool = False,
    noise_std: float = 0.1,
    seed: int = 0,
) -> int:
    """Write a synthetic regression CSV that reloads bit-for-bit."""
    try:
        ds = synth_sin(n, d, c1=c1, decay=decay, rotate=rotate, noise_std=noise_std, seed=seed)
    except ValueError as exc:
        print(f"synth error: {exc}", file=sys.stderr)
        return 2
    try:
        save_csv(out_path, ds)
    except OSError as exc:
        print(f"cannot write {out_path}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out_path}: {ds.n} rows, {ds.d} feature columns")
    return 0

