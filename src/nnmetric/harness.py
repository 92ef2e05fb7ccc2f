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

The oracle suites compare the fast inference, prediction, gradient,
estimator and eigendecomposition routines against the exhaustive references in
:mod:`nnmetric.bruteforce` on randomized instances; a violation serializes
the failing instance for replay.
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

from . import bruteforce
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
from .gerrymander import (
    AsymmetricMetric,
    GerryTrainConfig,
    InfeasibleTargetError,
    MahalanobisMetric,
    asym_score_grads,
    feature_map_psi,
    loss_augmented_inference_core,
    metric_predictions,
    score,
    surrogate_core,
    targeted_inference_core,
    train_sgd,
)
from .gradient_metrics import (
    KernelSpec,
    estimate_egop,
    estimate_ejop,
    estimate_gw,
    gradient_pass,
    kernel_class_probs,
    kernel_regress,
    relieff_weights,
)
from .hamming import (
    HammingTrainConfig,
    asym_hamming_distance,
    calibrate_scales,
    hamming_predictions,
    hamming_score,
    random_hasher,
    train_hamming,
)
from .numerics import psd_project, save_matrix_csv, sym_eig
from .predictors import NeighborRule, evaluate, predict_batch, transform_features
from .regression_ml import (
    RegTrainConfig,
    delta_reg,
    delta_reg_ub,
    metric_reg_predictions,
    reg_inference_core,
    train_reg_sgd,
)


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
# draws never alias each other
_SPLIT_STREAM = 11
_TUNE_STREAM = 13
_ORACLE_STREAM = 17

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
    grid_eps: tuple = (0.0,)
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

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        return ExperimentConfig.from_mapping(parse_config_file(path))


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
    "grid.eps": ("grid_eps", lambda r, k: _as_float_list(r, k, lo=0.0)),
    "train.epochs": ("epochs", lambda r, k: _as_int(r, k, lo=0)),
    "hamming.bits": ("bits", lambda r, k: _as_int(r, k, lo=1)),
    "ejop.temperature": ("temperature", lambda r, k: _as_float(r, k, lo=0.0, strict=True)),
    "reg.hstar": (
        "hstar",
        lambda r, k: _as_choice(r, k, ("upper_bound", "eps_insensitive", "min_loss")),
    ),
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


def parse_config_file(path) -> dict:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


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
    if ds.kind == REAL and float(np.var(ds.labels[test_idx])) == 0.0:
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


def _radius_from_quantile(feats: np.ndarray, q: float) -> float:
    n = feats.shape[0]
    if n > _RADIUS_SAMPLE:
        feats = feats[:: -(-n // _RADIUS_SAMPLE)]
    sq_norms = np.sum(feats**2, axis=1)
    sq = np.maximum(sq_norms[:, None] - 2.0 * feats @ feats.T + sq_norms[None, :], 0.0)
    upper = np.sqrt(sq[np.triu_indices(feats.shape[0], k=1)])
    radius = float(np.quantile(upper, q))
    if radius > 0:
        return radius
    top = float(upper.max())
    return top if top > 0 else 1.0


def _make_rule(config: ExperimentConfig, params: dict, transformed_feats):
    """The neighbor rule for one grid point; hnn resolves its radius here."""
    if config.rule == "knn":
        return NeighborRule("knn", k=int(params["k"])), {}
    radius = _radius_from_quantile(transformed_feats, float(params["q"]))
    return NeighborRule("hnn", radius=radius), {"radius": radius}


def _indicator_dataset(ds: Dataset, method: str) -> Dataset:
    """Two-class data as a real regression surface on class-1 membership."""
    if ds.kind == REAL:
        return ds
    top = int(ds.labels.max())
    if top != 2:
        cls = 3 if top > 2 else 2
        raise ConfigError(
            f"method: {method} on task = classify needs exactly two classes; class {cls} "
            f"(numbered by first appearance) has {int(np.sum(ds.labels == cls))} of the "
            f"{ds.n} rows of a fit split"
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
            f"class; class {cls} (numbered by first appearance) has {int(counts[cls - 1])} "
            f"of the {ds.n} rows of a fit split"
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
    method: str, ds: Dataset, params: dict, config: ExperimentConfig, memo: dict
):
    """Returns (transform matrix or None, raw estimate to save or None).

    ``memo`` lives for one run.  It holds one gradient pass per (fit-split
    content, h, t, and the EJOP temperature), shared by GW and EGOP because
    they probe the same real surface, one result per method and pass, and
    the ReliefF weights of each fit split (see :func:`_relieff_weights_for`);
    the ``grid.k`` and hnn quantile axes reuse them.
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
    key = (_content_key(surface), spec.bandwidth, t, temperature)

    def estimate():
        passed = _memoised(
            memo, ("pass", *key), lambda: gradient_pass(surface, spec, t, temperature)
        )
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
    if method not in ("euclidean", "relieff"):
        grid = [{"h": h, "t": t, **r} for h in config.grid_h for t in config.grid_t for r in grid]

    def fit(ds, params):
        transform, estimate = _fit_transform(method, ds, params, config, memo)
        rule, extra = _make_rule(config, params, transform_features(ds.features, transform))
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
            return predict_batch(ds, transform, queries, rule, config.task)

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
    eps_axis = config.grid_eps if config.hstar == "eps_insensitive" else (0.0,)
    grid = [
        {"k": k, "gamma": g, "c": c, "eps": e}
        for k in config.grid_k
        for g in config.grid_gamma
        for c in config.grid_c
        for e in eps_axis
    ]

    def fit(ds, params):
        rcfg = RegTrainConfig(
            k=params["k"], c=params["c"], epochs=config.epochs, seed=config.seed,
            gamma=params["gamma"], hstar=config.hstar, eps=params["eps"],
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
    n_fit = min(fit_ds.n for fit_ds, _ in splits)
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
    """The full pipeline for every configured method, plus report files."""
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
        model = _fit_method(method, train, config, rows, memo)
        preds = model.predict(test.features)
        report = evaluate(preds, test.labels, config.task)
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


def _random_vote_instance(rng, n_max=12):
    """A random metric, query, and labeled pool for the inference oracles."""
    n = int(rng.integers(5, n_max + 1))
    d = int(rng.integers(2, 5))
    n_classes = int(rng.integers(2, 5))
    labels = np.concatenate(
        [np.arange(1, n_classes + 1), rng.integers(1, n_classes + 1, size=n - n_classes)]
    )
    labels = labels[rng.permutation(n)].astype(int)
    feats = rng.normal(size=(n, d))
    ell = rng.normal(size=(d, d))
    metric = MahalanobisMetric(w=ell.T @ ell)
    x = rng.normal(size=d)
    k = int(rng.integers(1, min(5, n - 1) + 1))
    return feats, labels, metric, x, k, n_classes


def _suite_inference(budget, rng):
    for i in range(budget):
        feats, labels, metric, x, k, n_classes = _random_vote_instance(rng)
        dists = metric.distances(x, feats)
        y = int(rng.integers(1, n_classes + 1))
        tau = int(rng.integers(0, 2))
        try:
            h = targeted_inference_core(dists, labels, y, k, tau)
            got = -float(dists[h].sum())
        except InfeasibleTargetError:
            got = None
        expected = bruteforce.brute_targeted(dists, labels, y, k, tau)
        want = None if expected is None else float(expected[1])
        bad = (got is None) != (want is None) or (
            got is not None and abs(got - want) > 1e-9
        )
        if bad:
            return i + 1, {
                "check": "targeted",
                "dists": dists,
                "labels": labels,
                "target": y,
                "k": k,
                "tau": tau,
                "got": got,
                "want": want,
            }
        _, value = loss_augmented_inference_core(dists, labels, y, k)
        expected = bruteforce.brute_loss_augmented(dists, labels, y, k)
        if expected is None or abs(value - float(expected[1])) > 1e-9:
            return i + 1, {
                "check": "loss_augmented",
                "dists": dists,
                "labels": labels,
                "y": y,
                "k": k,
                "got": value,
                "want": None if expected is None else expected[1],
            }
    return budget, None


def _suite_surrogate(budget, rng):
    """Draws with no feasible h* are skipped and not counted as checked."""
    compared = 0
    for i in range(budget):
        feats, labels, metric, x, k, n_classes = _random_vote_instance(rng, n_max=16)
        y = int(rng.integers(1, n_classes + 1))
        dists = metric.distances(x, feats)
        try:
            value = surrogate_core(dists, labels, y, k)[0]
        except InfeasibleTargetError:
            continue  # no h* for this draw; the trainer skips these too
        compared += 1
        top_k = np.argsort(dists, kind="stable")[:k]
        bound = bruteforce.max_tied_loss(y, labels[top_k])
        if value < -1e-9 or value < bound - 1e-9:
            return i + 1, {
                "check": "surrogate",
                "dists": dists,
                "labels": labels,
                "y": y,
                "k": k,
                "surrogate": value,
                "task_loss": bound,
            }
    return compared, None


def _suite_regbound(budget, rng):
    for i in range(budget):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, min(5, n) + 1))
        targets = rng.normal(size=n)
        y = float(rng.normal())
        h = rng.choice(n, size=k, replace=False)
        if delta_reg_ub(y, h, targets) < delta_reg(y, h, targets) - 1e-12:
            return i + 1, {
                "check": "loss_bound",
                "targets": targets,
                "y": y,
                "h": h,
                "relaxed": delta_reg_ub(y, h, targets),
                "exact": delta_reg(y, h, targets),
            }
        dists = rng.uniform(size=n)
        gamma = float(rng.uniform(0.1, 3.0))
        direction = "targeted" if rng.integers(0, 2) else "loss_augmented"
        h_core = reg_inference_core(dists, targets, y, k, gamma, direction)
        sign = -1.0 if direction == "targeted" else 1.0
        got = -float(dists[h_core].sum()) + sign * gamma * delta_reg_ub(y, h_core, targets)
        _, want = bruteforce.brute_reg_inference(dists, targets, y, k, gamma, direction)
        if abs(got - want) > 1e-9:
            return i + 1, {
                "check": "reg_inference",
                "dists": dists,
                "targets": targets,
                "y": y,
                "k": k,
                "gamma": gamma,
                "direction": direction,
                "got": got,
                "want": want,
            }
    return budget, None


def _suite_psd(budget, rng):
    checked = 0
    for _ in range(budget):
        d = int(rng.integers(2, 7))
        raw = rng.normal(size=(d, d))
        sym = (raw + raw.T) / 2.0
        projected = psd_project(sym)
        low = float(bruteforce.brute_sym_eig(projected)[1][-1])
        if low < -1e-9:
            return checked + 1, {"check": "projection", "matrix": sym, "min_eig": low}
        checked += 1
    # one short training run per invocation, auditing after every update
    n_per = 20
    centers = np.array([[1.5, 0.0, 0.0], [-1.5, 0.0, 0.0]])
    feats = np.vstack(
        [rng.normal(size=(n_per, 3)) * 0.6 + centers[0], rng.normal(size=(n_per, 3)) * 0.6 + centers[1]]
    )
    labels = np.repeat([1, 2], n_per)
    train = Dataset(features=feats, labels=labels, kind=CLASS)
    gcfg = GerryTrainConfig(k=3, c=1.0, epochs=3, seed=int(rng.integers(0, 2**31)))
    result = train_sgd(train, gcfg, variant="symmetric", audit_psd=True)
    low = min(min(result.psd_audit), float(bruteforce.brute_sym_eig(result.metric.w)[1][-1]))
    if low < -1e-9:
        return checked + 1, {"check": "training_audit", "min_eig": low}
    return checked + 1, None


def _suite_eig(budget, rng):
    """sym_eig against the Jacobi brute_sym_eig at d from 1 to 50, drawn
    log-uniformly as Jacobi's cost grows with d cubed.  Half the matrices are
    Q diag(lam) Q^T with small integer lam, so eigenvalues repeat and a
    cluster's eigenvectors are defined only up to a rotation; each cluster is
    compared by the projector onto its span.  Jacobi stops once the
    off-diagonal part is below 1e-12 |A|_F, which bounds its projector error
    by about that over the gap to the other eigenvalues (Davis-Kahan)."""
    for i in range(budget):
        d = int(np.exp(rng.uniform(0.0, np.log(51.0))))
        if rng.integers(0, 2):
            q = np.linalg.qr(rng.normal(size=(d, d)))[0]
            a = (q * rng.integers(-3, 4, size=d)) @ q.T
        else:
            raw = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
            a = (raw + raw.T) / 2.0
        vecs, values = sym_eig(a)
        ref_vecs, want = bruteforce.brute_sym_eig(a)
        scale = max(abs(want[0]), abs(want[-1]))
        lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(d)]
        checks = [
            ("descending", np.all(np.diff(values) <= 0.0)),
            ("sign", np.all(lead > 0.0)),
            ("orthogonal", np.abs(vecs.T @ vecs - np.eye(d)).max() <= 1e-12),
            ("values", np.abs(values - want).max() <= 1e-12 * scale),
        ]
        cuts = np.flatnonzero(-np.diff(want) > 1e-8 * scale) + 1
        for cluster in np.split(np.arange(d), cuts):
            outside = np.delete(want, cluster)
            gap = np.abs(outside[:, None] - want[cluster]).min() if outside.size else np.inf
            got_p = vecs[:, cluster] @ vecs[:, cluster].T
            want_p = ref_vecs[:, cluster] @ ref_vecs[:, cluster].T
            tol = 1e-12 + 2e-12 * np.linalg.norm(a) / gap
            checks.append(("projector", np.abs(got_p - want_p).max() <= tol))
        for name, ok in checks:
            if not ok:
                return i + 1, {
                    "check": name,
                    "matrix": a,
                    "got_values": values,
                    "want_values": want,
                    "got_vectors": vecs,
                    "want_vectors": ref_vecs,
                }
    return budget, None


def _suite_gradients(budget, rng):
    eps = 1e-6
    for i in range(budget):
        n = int(rng.integers(4, 10))
        d = int(rng.integers(2, 5))
        feats = rng.normal(size=(n, d))
        train = Dataset(features=feats, labels=rng.normal(size=n), kind=REAL)
        x = rng.normal(size=d)
        k = int(rng.integers(1, min(4, n) + 1))
        h = rng.choice(n, size=k, replace=False)
        raw = rng.normal(size=(d, d))
        w = raw.T @ raw
        psi = feature_map_psi(x, h, train)
        direction = rng.normal(size=(d, d))
        direction = (direction + direction.T) / 2.0
        up = score(MahalanobisMetric(w=w + eps * direction), x, h, train)
        down = score(MahalanobisMetric(w=w - eps * direction), x, h, train)
        fd = (up - down) / (2.0 * eps)
        got = float(np.sum(direction * psi))
        if abs(got - fd) > 1e-6 * max(1.0, abs(fd)):
            return i + 1, {
                "check": "psi",
                "x": x,
                "h": h,
                "features": feats,
                "got": got,
                "fd": fd,
            }
        c = int(rng.integers(2, 5))
        u = rng.normal(size=(c, d))
        v = rng.normal(size=(c, d))
        grad_u, grad_v = asym_score_grads(u, v, x, h, train)
        for name, grad, bump in (("u", grad_u, True), ("v", grad_v, False)):
            direction = rng.normal(size=(c, d))
            if bump:
                up_m = AsymmetricMetric(u=u + eps * direction, v=v)
                down_m = AsymmetricMetric(u=u - eps * direction, v=v)
            else:
                up_m = AsymmetricMetric(u=u, v=v + eps * direction)
                down_m = AsymmetricMetric(u=u, v=v - eps * direction)
            fd = (score(up_m, x, h, train) - score(down_m, x, h, train)) / (2.0 * eps)
            got = float(np.sum(direction * grad))
            if abs(got - fd) > 1e-5 * max(1.0, abs(fd)):
                return i + 1, {
                    "check": f"asym_{name}",
                    "x": x,
                    "h": h,
                    "features": feats,
                    "got": got,
                    "fd": fd,
                }
    return budget, None


def _suite_hamming(budget, rng):
    for i in range(budget):
        d = int(rng.integers(2, 6))
        c = int(rng.integers(2, 10))
        n = int(rng.integers(4, 12))
        hasher = random_hasher(d, c, seed=int(rng.integers(0, 2**31)))
        feats = rng.normal(size=(n, d))
        labels = np.concatenate([[1, 2], rng.integers(1, 3, size=n - 2)])
        labels = labels[rng.permutation(n)].astype(int)
        train = Dataset(features=feats, labels=labels, kind=CLASS)
        x = rng.normal(size=d)
        k = int(rng.integers(1, min(4, n) + 1))
        h = rng.choice(n, size=k, replace=False)
        got = hamming_score(hasher, x, h, train)
        dists = hasher.distances(x, feats)
        want = float(np.sum(c - 2.0 * dists[h]))
        if abs(got - want) > 1e-9:
            return i + 1, {
                "check": "score_identity",
                "x": x,
                "h": h,
                "got": got,
                "want": want,
            }
        y = int(rng.integers(1, 3))
        _, value = loss_augmented_inference_core(dists, labels, y, k)
        expected = bruteforce.brute_loss_augmented(dists, labels, y, k)
        if expected is None or abs(value - float(expected[1])) > 1e-9:
            return i + 1, {
                "check": "hamming_inference",
                "dists": dists,
                "labels": labels,
                "y": y,
                "k": k,
                "got": value,
                "want": None if expected is None else expected[1],
            }
    return budget, None


def _suite_neighbors(budget, rng):
    """Every public predictor against brute_neighbor_predict, on integer rows
    with repeats: distances are exact, so ties are real and k often cuts one,
    and a radius of 0.5 leaves the ball empty unless a row equals the query."""
    for i in range(budget):
        n, d = int(rng.integers(4, 15)), int(rng.integers(1, 4))
        pool = rng.integers(-2, 3, size=(int(rng.integers(2, n + 1)), d))
        feats = pool[rng.integers(0, len(pool), size=n)].astype(float)
        queries = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), d)).astype(float)
        n_classes = int(rng.integers(2, 5))
        labels = np.concatenate([np.arange(1, n_classes + 1),
                                 rng.integers(1, n_classes + 1, size=n - n_classes)])
        classed = Dataset(features=feats, labels=labels[rng.permutation(n)], kind=CLASS)
        real = Dataset(features=feats, labels=rng.integers(-5, 6, size=n).astype(float),
                       kind=REAL)
        k = int(rng.integers(1, n + 1))
        knn = NeighborRule("knn", k=k)
        hnn = NeighborRule("hnn", radius=float(rng.choice([0.5, 1.0, 1.5, 2.0])))
        t, ell, u, v = rng.integers(-2, 3, size=(4, d, d)).astype(float)
        transform = t if rng.integers(0, 2) else None
        w = ell.T @ ell
        hasher = random_hasher(d, int(rng.integers(2, 6)), seed=int(rng.integers(0, 2**31)))
        codes = np.where(feats @ hasher.v.T >= 0.0, 1.0, -1.0)
        scales = calibrate_scales(classed, hasher.u)
        tx = feats if transform is None else feats @ transform.T

        def euclid(x):
            tq = x if transform is None else transform @ x
            return np.array([np.sqrt(np.sum((row - tq) ** 2)) for row in tx])

        def mahalanobis(x):
            return np.array([(x - row) @ w @ (x - row) for row in feats])

        def asymmetric(x):
            return np.array([np.sum((u @ x - v @ row) ** 2) for row in feats])

        def soft(x):
            return np.array([asym_hamming_distance(hasher.u @ x, c, scales) for c in codes])

        cases = [
            ("predict_batch", classed, knn, "classify", euclid,
             predict_batch(classed, transform, queries, knn, "classify")),
            ("predict_batch", classed, hnn, "classify", euclid,
             predict_batch(classed, transform, queries, hnn, "classify")),
            ("predict_batch", real, knn, "regress", euclid,
             predict_batch(real, transform, queries, knn, "regress")),
            ("predict_batch", real, hnn, "regress", euclid,
             predict_batch(real, transform, queries, hnn, "regress")),
            ("metric_predictions", classed, knn, "classify", mahalanobis,
             metric_predictions(MahalanobisMetric(w=w), classed, queries, k)),
            ("metric_predictions", classed, knn, "classify", asymmetric,
             metric_predictions(AsymmetricMetric(u=u, v=v), classed, queries, k)),
            ("metric_reg_predictions", real, knn, "regress", mahalanobis,
             metric_reg_predictions(MahalanobisMetric(w=w), real, queries, k)),
            ("hamming_predictions", classed, knn, "classify", soft,
             hamming_predictions(hasher, classed, queries, k)),
        ]
        for name, ds, rule, mode, distances, got in cases:
            for x, pred in zip(queries, got):
                dists = distances(x)
                want = bruteforce.brute_neighbor_predict(dists, ds.labels, rule, mode)
                if not abs(pred - want) <= 1e-12:
                    return i + 1, {
                        "check": name,
                        "rule": rule.kind,
                        "k": rule.k,
                        "radius": rule.radius,
                        "mode": mode,
                        "dists": dists,
                        "labels": ds.labels,
                        "got": pred,
                        "want": want,
                    }
    return budget, None


def _suite_estimators(budget, rng):
    """GW, EGOP and EJOP as the harness fits them (one memo per instance, so
    EGOP reduces the pass GW ran) against bruteforce.explicit_loo.  Odd
    instances draw t < h, where every gate is open; even ones t > h, where
    gates close for some samples or coordinates, or for all of them."""
    for i in range(budget):
        n_classes = int(rng.integers(2, 4))
        n, d = int(rng.integers(2 * n_classes, 13)), int(rng.integers(1, 4))
        feats = rng.uniform(size=(n, d))
        labels = np.concatenate([np.arange(1, n_classes + 1)] * 2
                                + [rng.integers(1, n_classes + 1, size=n - 2 * n_classes)])
        classed = Dataset(features=feats, labels=labels[rng.permutation(n)], kind=CLASS)
        real = Dataset(features=feats, labels=rng.normal(size=n), kind=REAL)
        h = float(rng.uniform(0.2, 0.6))
        t = h * float(rng.uniform(0.2, 0.9) if i % 2 else rng.uniform(1.1, 2.0))
        temperature = float(rng.choice([0.5, 1.0, 2.0]))
        spec = KernelSpec(bandwidth=h)
        params = {"h": h, "t": t}
        config = ExperimentConfig(task="classify", methods=("ejop",), temperature=temperature)
        memo = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # every gate may fail on purpose
            got = {method: _fit_transform(method, ds, params, config, memo)[1]
                   for method, ds in (("gw", real), ("egop", real), ("ejop", classed))}
        loo = bruteforce.explicit_loo(real, spec, t, lambda rest, z: kernel_regress(rest, spec, z))
        jac = bruteforce.explicit_loo(
            classed, spec, t, lambda rest, z: kernel_class_probs(rest, spec, z, temperature)
        )
        counts = sum(mask for mask, _ in loo)
        want = {
            "gw": sum(np.abs(g) for _, g in loo) / np.maximum(counts, 1.0),
            "egop": sum(np.outer(g, g) for _, g in loo) / n,
            # a sample with every gate closed yields a zero gradient, not a Jacobian
            "ejop": sum(j.reshape(d, -1) @ j.reshape(d, -1).T for _, j in jac) / n,
        }
        for method in want:
            value, ref = np.asarray(got[method]).reshape(want[method].shape), want[method]
            if not np.abs(value - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max()):
                return i + 1, {
                    "check": method,
                    "features": feats,
                    "labels": (real if method != "ejop" else classed).labels,
                    "h": h,
                    "t": t,
                    "temperature": temperature,
                    "got": value,
                    "want": ref,
                }
    return budget, None


# suite name -> (seed stream, implementation)
ORACLE_SUITES = {
    "inference": (1, _suite_inference),
    "surrogate": (2, _suite_surrogate),
    "regbound": (3, _suite_regbound),
    "psd": (4, _suite_psd),
    "gradients": (5, _suite_gradients),
    "hamming": (6, _suite_hamming),
    "neighbors": (7, _suite_neighbors),
    "eig": (8, _suite_eig),
    "estimators": (9, _suite_estimators),
}


@dataclass(frozen=True)
class OracleOutcome:
    suite: str
    checked: int
    failure: dict | None


def run_oracle(suite: str, budget: int, seed: int = 0) -> OracleOutcome:
    if suite not in ORACLE_SUITES:
        raise ValueError(
            f"unknown oracle suite {suite!r}; available: {', '.join(sorted(ORACLE_SUITES))}"
        )
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    stream, suite_fn = ORACLE_SUITES[suite]
    rng = np.random.default_rng([_ORACLE_STREAM, stream, seed])
    checked, failure = suite_fn(budget, rng)
    return OracleOutcome(suite=suite, checked=checked, failure=failure)


def cmd_oracle(suite: str, budget: int = 200, seed: int = 0, out: str = ".") -> int:
    """Exit 0 when every check passes, 1 on a violation, 2 on bad usage."""
    try:
        outcome = run_oracle(suite, budget, seed)
    except ValueError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 2
    if outcome.failure is None:
        print(f"{suite}: {outcome.checked} checks passed")
        return 0
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    replay = out_dir / f"oracle_{suite}_failure.json"
    replay.write_text(_json_text(outcome.failure), encoding="utf-8")
    print(
        f"{suite}: violation on check {outcome.checked}; instance saved to {replay}",
        file=sys.stderr,
    )
    return 1
