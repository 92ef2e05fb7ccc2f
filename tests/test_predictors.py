import numpy as np
import pytest

from nnmetric.bruteforce import brute_neighbor_predict
from nnmetric.dataset import Dataset
from nnmetric.predictors import (
    NeighborRule,
    evaluate,
    neighbor_predict,
    predict_batch,
    vote,
)


def classed(features, labels):
    return Dataset(np.asarray(features, dtype=float), np.asarray(labels), "class")


def realds(features, targets):
    return Dataset(np.asarray(features, dtype=float), np.asarray(targets, dtype=float), "real")


class TestNeighborPredict:
    def test_one_nn(self):
        train = classed([[0.0], [10.0]], [1, 2])
        assert neighbor_predict(train, None, [1.0], NeighborRule("knn", k=1), "classify") == 1

    def test_tie_broken_by_nearest(self):
        """A 1-1 vote goes to the class of the nearer selected neighbor."""
        train = classed([[1.0], [-2.0]], [1, 2])
        assert neighbor_predict(train, None, [0.0], NeighborRule("knn", k=2), "classify") == 1

    def test_regression_mean(self):
        train = realds([[0.0], [1.0], [2.0], [50.0]], [1.0, 2.0, 3.0, 99.0])
        pred = neighbor_predict(train, None, [1.0], NeighborRule("knn", k=3), "regress")
        assert pred == pytest.approx(2.0)

    def test_matches_bruteforce_under_transform(self):
        """Ranking under transform T equals brute-force kNN on |Tx - Tx'|."""
        rng = np.random.default_rng(42)
        n, d = 120, 4
        train = classed(rng.standard_normal((n, d)), rng.integers(1, 4, size=n))
        t = rng.standard_normal((d, d))
        for _ in range(25):
            q = rng.standard_normal(d)
            dists = np.linalg.norm(train.features @ t.T - t @ q, axis=1)
            brute_label = train.labels[np.argsort(dists, kind="stable")[0]]
            got = neighbor_predict(train, t, q, NeighborRule("knn", k=1), "classify")
            assert got == brute_label

    def test_hnn_fallback_to_global(self):
        train = classed([[0.0], [1.0], [2.0]], [2, 2, 1])
        rule = NeighborRule("hnn", radius=1e-6)
        # query far outside every ball: global majority
        assert neighbor_predict(train, None, [100.0], rule, "classify") == 2
        train_r = realds([[0.0], [1.0]], [4.0, 8.0])
        assert neighbor_predict(train_r, None, [100.0], rule, "regress") == pytest.approx(6.0)

    def test_hnn_in_ball(self):
        train = realds([[0.0], [0.5], [5.0]], [1.0, 3.0, 100.0])
        rule = NeighborRule("hnn", radius=1.0)
        assert neighbor_predict(train, None, [0.25], rule, "regress") == pytest.approx(2.0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        train = realds(rng.standard_normal((30, 3)), rng.standard_normal(30))
        queries = rng.standard_normal((8, 3))
        rule = NeighborRule("knn", k=4)
        batch = predict_batch(train, None, queries, rule, "regress")
        singles = [neighbor_predict(train, None, q, rule, "regress") for q in queries]
        np.testing.assert_allclose(batch, singles, atol=1e-9)

    def test_vote_remaining_tie_smallest_label(self):
        assert vote(np.array([2, 1]), np.array([1, 2])) == 2  # nearest wins
        assert vote(np.array([1, 2]), np.array([1, 2])) == 1


class TestEvaluate:
    def test_mean_predictor_nmse_one(self):
        truth = np.array([1.0, 2.0, 3.0, 6.0])
        preds = np.full(4, truth.mean())
        assert evaluate(preds, truth, "regress").value == pytest.approx(1.0)

    def test_perfect(self):
        truth = np.array([1.0, 2.0])
        assert evaluate(truth, truth, "regress").value == 0.0
        labels = np.array([1, 2, 1])
        assert evaluate(labels, labels, "classify").value == 0.0

    def test_half_wrong(self):
        truth = np.array([1, 1, 2, 2])
        preds = np.array([1, 2, 2, 1])
        assert evaluate(preds, truth, "classify").value == pytest.approx(0.5)

    def test_loss_matrix_mean(self):
        lam = np.array([[0.0, 3.0], [1.0, 0.0]])
        truth = np.array([1, 2])
        preds = np.array([2, 2])
        assert evaluate(preds, truth, "classify", loss_matrix=lam).value == pytest.approx(1.5)

    def test_zero_variance_flagged(self):
        with pytest.raises(ValueError, match="zero variance"):
            evaluate(np.array([1.0]), np.array([1.0]), "regress")


class TestBruteNeighborPredict:
    """The independent oracle on hand-checked instances."""

    def test_tie_cut_by_index(self):
        """k = 2 cuts the three-way tie at distance 1: indices 1 and 2 win."""
        dists = [3.0, 1.0, 1.0, 1.0]
        labels = [1, 2, 2, 1]
        assert brute_neighbor_predict(dists, labels, NeighborRule("knn", k=2), "classify") == 2
        assert brute_neighbor_predict(dists, labels, NeighborRule("knn", k=2), "regress") == 2.0

    def test_vote_tie_goes_to_nearest_tied_label(self):
        dists = [0.5, 0.1, 0.3, 0.2]
        labels = [1, 3, 1, 3]
        rule = NeighborRule("knn", k=4)
        assert brute_neighbor_predict(dists, labels, rule, "classify") == 3

    def test_empty_ball_falls_back_to_all_points(self):
        dists = [2.0, 3.0, 4.0]
        rule = NeighborRule("hnn", radius=1.0)
        assert brute_neighbor_predict(dists, [1, 2, 2], rule, "classify") == 2
        assert brute_neighbor_predict(dists, [1.0, 2.0, 6.0], rule, "regress") == 3.0

    def test_ball_includes_its_boundary(self):
        rule = NeighborRule("hnn", radius=1.0)
        assert brute_neighbor_predict([1.0, 1.5, 0.0], [4.0, 9.0, 2.0], rule, "regress") == 3.0
