"""SGD training behavior: PSD maintenance, stopping, learning on blobs."""

import numpy as np
import pytest
from conftest import anisotropic_blobs, gauss_blobs

from nnmetric.bruteforce import feature_map_psi
from nnmetric.dataset import CLASS, REAL, Dataset
from nnmetric.gerrymander import (
    AsymmetricMetric,
    GerryTrainConfig,
    MahalanobisMetric,
    latent_sgd,
    metric_predictions,
    sgd_rule,
    train_sgd,
)
from nnmetric.hamming import HammingTrainConfig, train_hamming
from nnmetric.numerics import psd_project
from nnmetric.predictors import NeighborRule, predict_batch
from nnmetric.regression_ml import RegTrainConfig, train_reg_sgd


def knn_error(metric, train, test, k=3):
    pred = metric_predictions(metric, train, test.features, k)
    return float(np.mean(pred != test.labels))


def euclidean_error(train, test, k=3):
    pred = predict_batch(train, None, test.features, NeighborRule("knn", k=k))
    return float(np.mean(pred != test.labels))


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GerryTrainConfig(k=0)
        with pytest.raises(ValueError):
            GerryTrainConfig(k=3, c=0.0)

    @pytest.mark.parametrize("field", ["epochs", "seed"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda **kw: GerryTrainConfig(k=3, **kw),
            lambda **kw: RegTrainConfig(k=3, **kw),
            lambda **kw: HammingTrainConfig(c=4, k=3, **kw),
        ],
        ids=["gerry", "reg", "hamming"],
    )
    def test_rejects_negative_epochs_and_seed(self, make, field):
        """Caught at construction, naming the field: a negative epoch count
        would train nothing and a negative seed fail inside numpy."""
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            make(**{field: -5})
        assert getattr(make(**{field: 0}), field) == 0

    def test_unknown_variant(self):
        train = gauss_blobs([[0.0], [4.0]], 5, 1.0, seed=0)
        with pytest.raises(ValueError):
            train_sgd(train, GerryTrainConfig(k=1, epochs=1), variant="banana")


class TestSymmetricTraining:
    def test_zero_epochs_returns_init(self):
        """No update leaves the start: W = 0, and U = V = I asymmetric."""
        train = gauss_blobs([[0.0, 0.0], [3.0, 3.0]], 10, 1.0, seed=1)
        config = GerryTrainConfig(k=3, epochs=0)
        result = train_sgd(train, config)
        assert isinstance(result.metric, MahalanobisMetric)
        assert np.array_equal(result.metric.w, np.zeros((2, 2)))
        assert result.epochs_run == 0
        assert result.trace == []
        asym = train_sgd(train, config, variant="asymmetric")
        assert isinstance(asym.metric, AsymmetricMetric)
        assert np.array_equal(asym.metric.u, np.eye(2))
        assert np.array_equal(asym.metric.v, np.eye(2))
        assert asym.trace == []

    def test_psd_after_every_update(self):
        train = gauss_blobs([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]], 20, 1.0, seed=2)
        config = GerryTrainConfig(k=3, epochs=3, stop_rel_tol=None)
        result = train_sgd(train, config, audit_psd=True)
        assert len(result.psd_audit) > 0
        assert min(result.psd_audit) >= -1e-9

    def test_trace_rows_and_full_run_without_stopping(self):
        train = gauss_blobs([[0.0, 0.0], [2.5, 0.0]], 15, 1.0, seed=3)
        config = GerryTrainConfig(k=3, epochs=4, stop_rel_tol=None)
        result = train_sgd(train, config)
        assert result.epochs_run == 4
        assert [row.epoch for row in result.trace] == [0, 1, 2, 3]
        assert all(np.isfinite(row.mean_surrogate) for row in result.trace)
        assert all(row.skipped == 0 for row in result.trace)

    def test_stops_when_loss_plateaus(self):
        # a constant surrogate never falls, so the second epoch mean stops training
        train = gauss_blobs([[0.0, 0.0], [3.0, 3.0]], 3, 1.0, seed=4)
        result = latent_sgd(
            train, GerryTrainConfig(k=3, epochs=10),
            infer=lambda i, dists: (0.5, None, None),
            start=lambda rng: MahalanobisMetric(w=np.eye(2)),
            update=lambda metric, t, x, h_hat, h_star: metric,
        )
        assert result.trace == [(0, 0.5, 0), (1, 0.5, 0)]

    def test_skips_samples_without_enough_same_class_neighbors(self):
        features = np.vstack([np.random.default_rng(5).normal(size=(8, 2)), [[9.0, 9.0]]])
        labels = np.array([1] * 8 + [2])
        train = Dataset(features=features, labels=labels, kind=CLASS)
        # the lone class-2 point has no class-2 neighbors once left out
        result = train_sgd(train, GerryTrainConfig(k=1, epochs=1, stop_rel_tol=None))
        assert result.trace[0].skipped >= 1

    def test_single_class_data_never_moves(self):
        train = gauss_blobs([[0.0, 0.0]], 12, 1.0, seed=6)
        result = train_sgd(train, GerryTrainConfig(k=3, epochs=2, stop_rel_tol=None))
        assert np.allclose(result.metric.w, 0.0)
        assert result.trace[0].mean_surrogate == pytest.approx(0.0, abs=1e-12)

    def test_learns_to_ignore_noise_coordinates(self):
        train = anisotropic_blobs(30, 4, seed=7)
        test = anisotropic_blobs(30, 4, seed=107)
        config = GerryTrainConfig(k=3, c=1.0, epochs=12)
        result = train_sgd(train, config)
        base = euclidean_error(train, test)
        learned = knn_error(result.metric, train, test)
        assert learned < base
        # the informative coordinate should carry the dominant weight
        w = result.metric.w
        assert w[0, 0] > np.max(np.abs(np.diag(w)[1:]))


class TestSymmetricUpdate:
    def test_bytes_match_feature_map_route(self):
        """The update's one gather and one symmetrize give W bit for bit as
        psd_project((1 - 1/t) W - C (Psi(x, h-hat) - Psi(x, h*)))."""
        rng = np.random.default_rng(31)
        for _ in range(300):
            n, d, k = int(rng.integers(8, 40)), int(rng.integers(1, 21)), int(rng.integers(1, 8))
            train = Dataset(features=rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-2, 2),
                            labels=np.ones(n, dtype=int), kind=CLASS)
            c, t = float(rng.uniform(0.1, 3.0)), int(rng.integers(1, 50))
            b = rng.standard_normal((d, d))
            metric = MahalanobisMetric(w=psd_project(b @ b.T))
            x = train.features[int(rng.integers(0, n))]
            h_hat, h_star = (rng.choice(n, size=k, replace=False) for _ in range(2))
            _, update = sgd_rule(train, c, "symmetric")
            got = update(metric, t, x, h_hat, h_star).w
            delta = feature_map_psi(x, h_hat, train) - feature_map_psi(x, h_star, train)
            want = psd_project((1.0 - 1.0 / t) * metric.w - c * delta)
            assert got.tobytes() == want.tobytes()


class TestSharedEpochLoop:
    def test_all_skipped_epochs_stop_every_trainer(self):
        """With no h* for any sample, every trainer's epoch mean is NaN and
        the shared stop rule ends training after the second epoch.  Each
        class has one point, and the regression k equals the row count, so
        no sample has enough other points for its target set."""
        features = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        classed = Dataset(features=features, labels=np.array([1, 2, 3]), kind=CLASS)
        real = Dataset(features=features, labels=np.array([0.0, 1.0, 3.0]), kind=REAL)
        results = [
            train_sgd(classed, GerryTrainConfig(k=1, epochs=5)),
            train_reg_sgd(real, RegTrainConfig(k=3, epochs=5)),
            train_hamming(classed, HammingTrainConfig(c=4, k=1, epochs=5)),
        ]
        for result in results:
            assert result.epochs_run == 2
            assert [row.skipped for row in result.trace] == [3, 3]


class TestAsymmetricTraining:
    def test_block_matrix_stays_psd(self):
        train = gauss_blobs([[0.0, 0.0], [2.0, 0.0]], 10, 1.0, seed=10)
        config = GerryTrainConfig(k=3, epochs=3, stop_rel_tol=None)
        result = train_sgd(train, config, variant="asymmetric")
        assert isinstance(result.metric, AsymmetricMetric)
        stacked = np.hstack([result.metric.u, -result.metric.v])
        block = stacked.T @ stacked  # [[U^T U, -U^T V], [-V^T U, V^T V]]
        assert np.min(np.linalg.eigvalsh(block)) >= -1e-9
        assert np.isfinite(result.metric.u).all()
        assert np.isfinite(result.metric.v).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_raises_with_the_update_count(self):
        """At C = 20 the cubic penalty step overflows U and V within the
        first epoch; training stops there with a plain ValueError and no
        numpy warning."""
        centers = [[1.7, 0.0, 0.0, 0.0], [0.0, 1.7, 0.0, 0.0], [0.0, 0.0, 1.7, 0.0]]
        train = gauss_blobs(centers, 20, [1.0, 1.0, 1.0, 3.0], seed=0)
        config = GerryTrainConfig(k=3, c=20.0, epochs=5)
        with pytest.raises(ValueError, match=r"^training diverged after \d+ updates: .*"
                           "lower grid.c$"):
            train_sgd(train, config, variant="asymmetric")

    def test_reduces_surrogate_on_blobs(self):
        train = gauss_blobs([[0.0, 0.0, 0.0], [2.0, 0.5, 0.0]], 20, 1.0, seed=12)
        config = GerryTrainConfig(k=3, epochs=8)
        result = train_sgd(train, config, variant="asymmetric")
        first = result.trace[0].mean_surrogate
        best = min(row.mean_surrogate for row in result.trace)
        assert best <= first


class TestMetricPredictions:
    def test_identity_metric_matches_euclidean(self):
        train = gauss_blobs([[0.0, 0.0], [3.0, 0.0]], 10, 1.0, seed=13)
        queries = np.random.default_rng(14).normal(size=(10, 2)) * 2.0
        rule = NeighborRule("knn", k=3)
        expected = predict_batch(train, None, queries, rule)
        got = metric_predictions(MahalanobisMetric(w=np.eye(2)), train, queries, 3)
        assert np.array_equal(got, expected)
