"""Outside-in tracing of one ``nnmetric run`` for the per-layer metrics.

The tracer replaces each traced public function with a timing wrapper in
every ``nnmetric`` module that holds a reference to it.  Consumer modules
bind names at import (``psd_project`` lives in ``gerrymander``,
``regression_ml`` and ``harness``), so patching only the defining module
would miss calls.  Nothing under ``src/`` changes.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the wrapped calls it made.  Spans nest on one stack, so the
tracer assumes the run is single-threaded (``threads = 1``).  Work the
tracer does for its own counters (digesting training rows, checking
whether a PSD projection input is already PSD) runs outside the timed
interval and is charged to no layer.

A traced function that a later refactor renames or removes is reported
absent; its metrics read 0 and the run goes on.  A counter hook that no
longer fits its function's arguments or result is reported too, and only
that counter is lost.

The harness is attributed by the arguments of its calls: a fit on the full
training split is a refit, a prediction on the test split is the predict
phase, and everything else inside a method's fit is tuning.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (span name, module under nnmetric, function name)
LAYER_FUNCTIONS = (
    ("numerics.sym_eig", "numerics", "sym_eig"),
    ("numerics.psd_project", "numerics", "psd_project"),
    ("numerics.whitening_transform", "numerics", "whitening_transform"),
    ("gerrymander.targeted", "gerrymander", "targeted_inference_core"),
    ("gerrymander.loss_augmented", "gerrymander", "loss_augmented_inference_core"),
    ("gerrymander.train", "gerrymander", "train_sgd"),
    ("gerrymander.predict", "gerrymander", "metric_predictions"),
    ("regression_ml.inference", "regression_ml", "reg_inference_core"),
    ("regression_ml.hstar_alternate", "regression_ml", "hstar_alternate"),
    ("regression_ml.train", "regression_ml", "train_reg_sgd"),
    ("regression_ml.predict", "regression_ml", "metric_reg_predictions"),
    ("hamming.train", "hamming", "train_hamming"),
    ("hamming.calibrate_scales", "hamming", "calibrate_scales"),
    ("hamming.predict", "hamming", "hamming_predictions"),
    ("gradient_metrics.gw", "gradient_metrics", "estimate_gw"),
    ("gradient_metrics.egop", "gradient_metrics", "estimate_egop"),
    ("gradient_metrics.ejop", "gradient_metrics", "estimate_ejop"),
    ("gradient_metrics.relieff", "gradient_metrics", "relieff_weights"),
    ("gradient_metrics.gate_mask", "gradient_metrics", "gate_mask"),
    ("predictors.predict_batch", "predictors", "predict_batch"),
    ("dataset.load_csv", "dataset", "load_csv"),
    ("dataset.synth_sin", "dataset", "synth_sin"),
    ("dataset.zscore_fit_apply", "dataset", "zscore_fit_apply"),
    ("dataset.kfold", "dataset", "kfold"),
)

# harness-level names whose calls mark a fit (refit when the dataset is the
# full training split) or a prediction (predict when the queries are the
# test split); ``_fit_method`` spans one method's tuning plus refit
HARNESS_FIT_CALLS = (
    "_fit_transform",
    "_relieff_weights_for",
    "train_sgd",
    "train_reg_sgd",
    "train_hamming",
)
HARNESS_PREDICT_CALLS = (
    "predict_batch",
    "metric_predictions",
    "metric_reg_predictions",
    "hamming_predictions",
)
HARNESS_METHOD_CALL = "_fit_method"

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

_ESTIMATORS = ("gradient_metrics.gw", "gradient_metrics.egop", "gradient_metrics.ejop")
_TRAINERS = ("gerrymander.train", "regression_ml.train", "hamming.train")
_PREDICTORS = ("gerrymander.predict", "regression_ml.predict", "hamming.predict")


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    raised: int = 0


@dataclass
class _Frame:
    child_s: float = 0.0


@dataclass
class _HarnessState:
    method: str | None = None
    train_n: int | None = None
    test_features: np.ndarray | None = None
    marker_depth: int = 0
    fit_s: dict = field(default_factory=dict)
    refit_s: dict = field(default_factory=dict)
    predict_s: dict = field(default_factory=dict)


def _first_dataset(args, kwargs):
    for value in (*args, *kwargs.values()):
        if hasattr(value, "features") and hasattr(value, "labels"):
            return value
    return None


def _digest(array) -> str:
    data = np.ascontiguousarray(np.asarray(array, dtype=float))
    return hashlib.blake2b(data.tobytes(), digest_size=16).hexdigest() + str(data.shape)


class Tracer:
    """Per-span counters for one traced run; create, ``install``, run."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self.originals: dict[str, object] = {}
        self.top_s = 0.0
        self._stack: list[_Frame] = []
        self._passes_seen: set = set()
        self._harness = _HarnessState()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Import nnmetric and patch every binding of the traced functions."""
        importlib.import_module("nnmetric.cli")
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("nnmetric")]
        for span, module_name, func_name in LAYER_FUNCTIONS:
            module = sys.modules.get(f"nnmetric.{module_name}")
            original = getattr(module, func_name, None) if module else None
            if not callable(original):
                self.absent.append(span)
                continue
            self.originals[span] = original
            wrapper = self._layer_wrapper(span, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
        harness = sys.modules.get("nnmetric.harness")
        for name, kind in (
            [(HARNESS_METHOD_CALL, "method")]
            + [(n, "fit") for n in HARNESS_FIT_CALLS]
            + [(n, "predict") for n in HARNESS_PREDICT_CALLS]
        ):
            current = getattr(harness, name, None) if harness else None
            if not callable(current):
                self.absent.append(f"harness.{name}")
                continue
            setattr(harness, name, self._harness_wrapper(kind, current))

    # -- layer spans -------------------------------------------------------

    def _layer_wrapper(self, span, fn):
        before = _BEFORE.get(span)
        after = _AFTER.get(span)

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            name = (self._hook(span, before, args, kwargs) if before else None) or span
            frame = _Frame()
            self._stack.append(frame)
            t1 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t2 = time.perf_counter()
                self._stack.pop()
                self._close(name, t2 - t1, frame, t1 - t0, raised=True)
                raise
            t2 = time.perf_counter()
            self._stack.pop()
            if after:
                self._hook(span, after, args, kwargs, result)
            hooks_s = (t1 - t0) + (time.perf_counter() - t2)
            self._close(name, t2 - t1, frame, hooks_s, raised=False)
            return result

        return traced

    def _close(self, name, duration, frame, hooks_s, raised):
        stats = self.stats.setdefault(name, SpanStats())
        stats.calls += 1
        stats.self_s += duration - frame.child_s
        stats.raised += int(raised)
        # the tracer's own hook time is charged to no layer
        if self._stack:
            self._stack[-1].child_s += duration + hooks_s
        else:
            self.top_s += duration + hooks_s

    def _hook(self, span, hook, *args):
        """Run a counter hook; a refactor that changes a signature or a
        return type costs that counter, never the traced run."""
        try:
            return hook(self, *args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            self.hook_errors.setdefault(span, repr(exc))
            return None

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    # -- harness attribution -----------------------------------------------

    def _harness_wrapper(self, kind, fn):
        state = self._harness

        def marked(*args, **kwargs):
            if kind == "method":
                state.method = args[0] if args else kwargs.get("method")
                dataset = _first_dataset(args, kwargs)
                state.train_n = dataset.n if dataset is not None else None
                depth = 0
            else:
                # only the outermost fit or predict call is attributed
                depth = 1
            outermost = state.marker_depth == 0
            state.marker_depth += depth
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                state.marker_depth -= depth
                if outermost:
                    self._attribute(kind, elapsed, args, kwargs)

        return marked

    def _attribute(self, kind, elapsed, args, kwargs):
        state = self._harness
        method = state.method
        if method is None:
            return
        if kind == "method":
            state.fit_s[method] = state.fit_s.get(method, 0.0) + elapsed
        elif kind == "fit":
            dataset = _first_dataset(args, kwargs)
            if dataset is not None and dataset.n == state.train_n:
                state.refit_s[method] = state.refit_s.get(method, 0.0) + elapsed
        elif self._is_test_query(args, kwargs):
            state.predict_s[method] = state.predict_s.get(method, 0.0) + elapsed

    def _is_test_query(self, args, kwargs) -> bool:
        test = self._harness.test_features
        if test is None:
            return False
        for value in (*args, *kwargs.values()):
            if value is test:
                return True
            if (
                isinstance(value, np.ndarray)
                and value.shape == test.shape
                and np.array_equal(value, test)
            ):
                return True
        return False

    # -- results -----------------------------------------------------------

    def metrics(self, run_s: float) -> dict:
        """Flat per-layer metric values; see perfbench/README.md for each."""
        out = {}

        def span(name):
            return self.stats.get(name, SpanStats())

        def ratio(num, den):
            den = self.counters.get(den, 0.0)
            return self.counters.get(num, 0.0) / den if den else 0.0

        for name in ("numerics.sym_eig", "numerics.psd_project", "numerics.whitening_transform"):
            out[f"{name}.calls"] = span(name).calls
            out[f"{name}.self_s"] = span(name).self_s
        out["numerics.psd_project.already_psd_ratio"] = ratio("psd.already", "psd.inputs")

        for name in ("gerrymander.targeted", "gerrymander.loss_augmented"):
            out[f"{name}.calls"] = span(name).calls
            out[f"{name}.self_s"] = span(name).self_s
            out[f"{name}.infeasible"] = span(name).raised
        for name in ("regression_ml.inference", "regression_ml.hstar_alternate",
                     "hamming.calibrate_scales", "gradient_metrics.gate_mask",
                     *_ESTIMATORS, "gradient_metrics.relieff"):
            out[f"{name}.calls"] = span(name).calls
            out[f"{name}.self_s"] = span(name).self_s
        for name in _TRAINERS:
            out[f"{name}.self_s"] = span(name).self_s
            out[f"{name}.epochs_run_ratio"] = ratio(f"{name}.epochs_run", f"{name}.epochs_max")
            out[f"{name}.skipped_ratio"] = ratio(f"{name}.skipped", f"{name}.samples")
        for name in _PREDICTORS:
            out[f"{name}.queries"] = int(self.counters.get(f"{name}.queries", 0))
            out[f"{name}.self_s"] = span(name).self_s
        out["gradient_metrics.gate_pass_ratio"] = ratio("gate.passed", "gate.checked")
        out["gradient_metrics.duplicate_pass_ratio"] = ratio("pass.duplicate", "pass.calls")
        for rule in ("knn", "hnn"):
            name = f"predictors.predict_batch.{rule}"
            out[f"{name}.calls"] = span(name).calls
            out[f"{name}.queries"] = int(self.counters.get(f"{name}.queries", 0))
            out[f"{name}.self_s"] = span(name).self_s

        dataset_spans = [s for s, module, _ in LAYER_FUNCTIONS if module == "dataset"]
        out["dataset.calls"] = sum(span(s).calls for s in dataset_spans)
        out["dataset.self_s"] = sum(span(s).self_s for s in dataset_spans)

        state = self._harness
        for method in METHODS:
            fit = state.fit_s.get(method, 0.0)
            refit = state.refit_s.get(method, 0.0)
            out[f"harness.{method}.tune_s"] = max(fit - refit, 0.0)
            out[f"harness.{method}.refit_s"] = refit
            out[f"harness.{method}.predict_s"] = state.predict_s.get(method, 0.0)
        out["harness.self_s"] = max(run_s - self.top_s, 0.0)
        return out


# -- per-span hooks: run outside the timed interval ------------------------


def _before_psd_project(tracer, args, kwargs):
    a = np.asarray(args[0] if args else kwargs["a"], dtype=float)
    tracer.count("psd.inputs")
    if np.all(np.isfinite(a)) and np.linalg.eigvalsh(a, UPLO="U")[0] >= 0.0:
        tracer.count("psd.already")
    return "numerics.psd_project"


def _before_estimator(span):
    def before(tracer, args, kwargs):
        train = _first_dataset(args, kwargs)
        spec = args[1] if len(args) > 1 else kwargs.get("spec")
        t = args[2] if len(args) > 2 else kwargs.get("t")
        key = (_digest(train.features), float(spec.bandwidth), float(t))
        tracer.count("pass.calls")
        if key in tracer._passes_seen:
            tracer.count("pass.duplicate")
        tracer._passes_seen.add(key)
        return span

    return before


def _after_gate_mask(tracer, args, kwargs, mask):
    mask = np.asarray(mask)
    tracer.count("gate.checked", mask.size)
    tracer.count("gate.passed", int(mask.sum()))


def _after_trainer(span):
    def after(tracer, args, kwargs, result):
        train = _first_dataset(args, kwargs)
        config = args[1] if len(args) > 1 else kwargs.get("config")
        tracer.count(f"{span}.epochs_run", result.epochs_run)
        tracer.count(f"{span}.epochs_max", config.epochs)
        tracer.count(f"{span}.skipped", sum(row.skipped for row in result.trace))
        tracer.count(f"{span}.samples", result.epochs_run * train.n)

    return after


def _after_predictor(span):
    def after(tracer, args, kwargs, result):
        tracer.count(f"{span}.queries", len(result))

    return after


def _before_predict_batch(tracer, args, kwargs):
    rule = args[3] if len(args) > 3 else kwargs.get("rule")
    return f"predictors.predict_batch.{rule.kind}"


def _after_predict_batch(tracer, args, kwargs, result):
    rule = args[3] if len(args) > 3 else kwargs.get("rule")
    tracer.count(f"predictors.predict_batch.{rule.kind}.queries", len(result))


def _after_zscore(tracer, args, kwargs, result):
    _, datasets = result
    if len(datasets) > 1:
        tracer._harness.test_features = datasets[1].features


# a before-hook returns the span name the call is recorded under
_BEFORE = {
    "numerics.psd_project": _before_psd_project,
    "predictors.predict_batch": _before_predict_batch,
    **{span: _before_estimator(span) for span in _ESTIMATORS},
}
_AFTER = {
    "gradient_metrics.gate_mask": _after_gate_mask,
    "predictors.predict_batch": _after_predict_batch,
    "dataset.zscore_fit_apply": _after_zscore,
    **{span: _after_trainer(span) for span in _TRAINERS},
    **{span: _after_predictor(span) for span in _PREDICTORS},
}


class CallCounter:
    """Independent call counts per code object, from ``sys.setprofile``.

    Used to check that the tracer saw every call of every traced function,
    whichever module binding the caller went through.
    """

    def __init__(self, originals: dict):
        self._codes = {fn.__code__: span for span, fn in originals.items()}
        self.counts = {span: 0 for span in originals}

    def _profile(self, frame, event, arg):
        if event == "call":
            span = self._codes.get(frame.f_code)
            if span is not None:
                self.counts[span] += 1

    def __enter__(self):
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False


def traced_calls(tracer: Tracer) -> dict:
    """Tracer call counts keyed like CallCounter (predict_batch summed)."""
    out = {}
    for span in tracer.originals:
        if span == "predictors.predict_batch":
            out[span] = sum(
                s.calls for name, s in tracer.stats.items() if name.startswith(span + ".")
            )
        else:
            out[span] = tracer.stats.get(span, SpanStats()).calls
    return out
