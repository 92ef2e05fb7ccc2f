from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nnmetric import predictors
from nnmetric.bruteforce import brute_neighbor_predict
from nnmetric.dataset import Dataset
from nnmetric.predictors import NeighborRule, evaluate, predict_batch, predict_each


def classed(features, labels):
    return Dataset(np.asarray(features, dtype=float), np.asarray(labels), "class")


def realds(features, targets):
    return Dataset(np.asarray(features, dtype=float), np.asarray(targets, dtype=float), "real")


def predict_one(train, transform, query, rule):
    return predict_batch(train, transform, [query], rule)[0]


class TestNeighborPredict:
    def test_one_nn(self):
        train = classed([[0.0], [10.0]], [1, 2])
        assert predict_one(train, None, [1.0], NeighborRule("knn", k=1)) == 1

    def test_tie_broken_by_nearest(self):
        """A 1-1 vote goes to the class of the nearer selected neighbor."""
        train = classed([[1.0], [-2.0]], [1, 2])
        assert predict_one(train, None, [0.0], NeighborRule("knn", k=2)) == 1

    def test_regression_mean(self):
        train = realds([[0.0], [1.0], [2.0], [50.0]], [1.0, 2.0, 3.0, 99.0])
        pred = predict_one(train, None, [1.0], NeighborRule("knn", k=3))
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
            got = predict_one(train, t, q, NeighborRule("knn", k=1))
            assert got == brute_label

    def test_hnn_fallback_to_global(self):
        train = classed([[0.0], [1.0], [2.0]], [2, 2, 1])
        rule = NeighborRule("hnn", radius=1e-6)
        # query far outside every ball: global majority
        assert predict_one(train, None, [100.0], rule) == 2
        train_r = realds([[0.0], [1.0]], [4.0, 8.0])
        assert predict_one(train_r, None, [100.0], rule) == pytest.approx(6.0)

    def test_hnn_in_ball(self):
        train = realds([[0.0], [0.5], [5.0]], [1.0, 3.0, 100.0])
        rule = NeighborRule("hnn", radius=1.0)
        assert predict_one(train, None, [0.25], rule) == pytest.approx(2.0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        train = realds(rng.standard_normal((30, 3)), rng.standard_normal(30))
        queries = rng.standard_normal((8, 3))
        rule = NeighborRule("knn", k=4)
        batch = predict_batch(train, None, queries, rule)
        dists = [np.linalg.norm(train.features - q, axis=1) for q in queries]
        singles = [brute_neighbor_predict(d, train.labels, rule, "regress") for d in dists]
        np.testing.assert_allclose(batch, singles, atol=1e-9)


# integer distances tie often, and at the k-th place; some entries are inf or NaN
_DIST_ENTRIES = st.one_of(st.integers(0, 4).map(float), st.sampled_from([np.inf, np.nan]))


def selected_rows(dists, rule):
    """:func:`predictors._select` on a block: each row's selected columns,
    in index order."""
    take = predictors._select(np.asarray(dists, dtype=float), rule)
    assert take.dtype == bool and take.shape == np.shape(dists)
    return [np.flatnonzero(row) for row in take]


class TestSelected:
    @settings(deadline=None, max_examples=300)
    @given(
        st.integers(1, 25).flatmap(
            lambda n: hnp.arrays(float, st.tuples(st.integers(1, 6), st.just(n)),
                                 elements=_DIST_ENTRIES)
        ),
        st.integers(1, 30),
        st.sampled_from([0.5, 1.0, 2.5]),
    )
    def test_matches_full_stable_sort(self, dists, k, radius):
        """Integer distances repeat, so k often cuts a run of exact ties;
        every row of the block still selects the set of the first k of its
        full (distance, index) order, NaN after inf, and the radius ball, or
        every point when the ball is empty."""
        knn = selected_rows(dists, NeighborRule("knn", k=k))
        hnn = selected_rows(dists, NeighborRule("hnn", radius=radius))
        for row, got_knn, got_hnn in zip(dists, knn, hnn):
            order = np.argsort(row, kind="stable")
            np.testing.assert_array_equal(got_knn, np.sort(order[:k]))
            ball = np.flatnonzero(row <= radius)
            np.testing.assert_array_equal(got_hnn, ball if len(ball) else np.arange(len(row)))

    def test_tie_cut_keeps_lowest_indices(self):
        """The first row ties four points at its k-th value, the second none."""
        dists = [[2.0, 1.0, 2.0, 0.0, 2.0, 2.0], [5.0, 0.0, 1.0, 3.0, 4.0, 2.0]]
        got = selected_rows(dists, NeighborRule("knn", k=4))
        np.testing.assert_array_equal(got[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(got[1], [1, 2, 3, 5])

    def test_nan_at_the_cut_falls_back_to_full_order(self):
        """A row with fewer than k non-NaN distances fills from its NaNs in
        index order."""
        dists = [[np.nan, 1.0, np.nan, np.inf], [np.nan, 1.0, 0.0, 2.0]]
        got = selected_rows(dists, NeighborRule("knn", k=3))
        np.testing.assert_array_equal(got[0], [0, 1, 3])
        np.testing.assert_array_equal(got[1], [1, 2, 3])

    def test_k_at_least_n_takes_every_point(self):
        dists = [[2.0, np.nan, 0.0, 2.0], [1.0, 1.0, 1.0, 1.0]]
        for k in (4, 9):
            for got in selected_rows(dists, NeighborRule("knn", k=k)):
                np.testing.assert_array_equal(got, [0, 1, 2, 3])

    def test_empty_ball_takes_every_point(self):
        """Only the second row's ball is empty."""
        dists = [[0.5, 3.0, 0.0], [3.0, 2.0, 2.0]]
        got = selected_rows(dists, NeighborRule("hnn", radius=1.0))
        np.testing.assert_array_equal(got[0], [0, 2])
        np.testing.assert_array_equal(got[1], [0, 1, 2])


def row_distances(dists):
    """A distances closure over a fixed matrix: each query is its row index."""
    calls = []

    def distances(block):
        calls.append(len(block))
        return dists[np.asarray(block, dtype=int)[:, 0]]

    return distances, calls


def per_row(dists, labels, rule, mode):
    """Predictions from :func:`brute_neighbor_predict` row by row."""
    return np.array([brute_neighbor_predict(row, labels, rule, mode) for row in dists])


class TestPredictEach:
    @pytest.mark.parametrize("mode,dtype", [("classify", int), ("regress", float)])
    def test_no_queries_give_an_empty_array_of_the_mode_dtype(self, mode, dtype):
        train = (classed if mode == "classify" else realds)([[0.0], [1.0]], [1, 2])
        distances, calls = row_distances(np.zeros((0, 2)))
        got = predict_each(distances, train, np.zeros((0, 1)), NeighborRule("knn", k=1))
        assert got.shape == (0,) and got.dtype == dtype
        assert calls == []

    @pytest.mark.parametrize("dists,labels,k,want", [
        # the infs at 1 and 2 are selected and tie labels 3 and 2; the NaN at
        # 0 is not selected, and the tie goes to the inf at 1
        ([np.nan, np.inf, np.inf], [1, 3, 2], 2, 3),
        # labels 1 and 2 tie at two NaN members each, over label 3 at 0.5;
        # the NaN met first in index order, at 1, takes the tie
        ([0.5, np.nan, np.nan, np.nan, np.nan], [3, 2, 1, 1, 2], 5, 2),
    ])
    def test_vote_tie_at_a_non_finite_nearest_member(self, dists, labels, k, want):
        """A tie whose nearest tied member is at inf, then at NaN, goes to
        that member's label in (distance, index) order, NaN after inf."""
        distances, _ = row_distances(np.array([dists]))
        train = classed(np.zeros((len(dists), 1)), labels)
        got = predict_each(distances, train, np.zeros((1, 1)), NeighborRule("knn", k=k))
        assert got.tolist() == [want]

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: hnp.arrays(float, st.tuples(st.integers(1, 30), st.just(n)),
                                 elements=_DIST_ENTRIES)
        ),
        st.integers(1, 14),
        st.sampled_from([0.5, 1.0, 2.5]),
        st.integers(1, 40),
        st.randoms(use_true_random=False),
    )
    def test_matches_brute_force_over_blocks(self, dists, k, radius, block, random):
        """Every mode and rule against brute_neighbor_predict, with blocks
        of max(1, block // n) rows, so most draws end in a remainder block.
        The reference sorts NaN after inf, as the predictors do."""
        n = dists.shape[1]
        labels = [1 + i % 3 for i in range(n)]
        random.shuffle(labels)
        labels = np.array(labels)
        ranked = np.where(np.isnan(dists), 6.0, np.where(np.isinf(dists), 5.0, dists))
        queries = np.arange(len(dists))[:, None]
        with mock.patch.object(predictors, "_BLOCK", block):
            for rule in (NeighborRule("knn", k=k), NeighborRule("hnn", radius=radius)):
                for mode, ds in (("classify", classed(np.zeros((n, 1)), labels)),
                                 ("regress", realds(np.zeros((n, 1)), labels))):
                    distances, calls = row_distances(dists)
                    got = predict_each(distances, ds, queries, rule)
                    want = [brute_neighbor_predict(row, ds.labels, rule, mode) for row in ranked]
                    np.testing.assert_array_equal(got, want)
                    assert sum(calls) == len(dists)
                    assert max(calls) <= max(1, block // n)

    @pytest.mark.parametrize("n", [2000, predictors._BLOCK + 1])
    @pytest.mark.parametrize("mode", ["classify", "regress"])
    def test_blocks_stay_within_the_bound(self, n, mode):
        """Three full blocks plus a remainder, none over max(1, _BLOCK // n)
        rows, predict as brute_neighbor_predict does row by row."""
        rng = np.random.default_rng(n)
        rows = max(1, predictors._BLOCK // n)
        dists = rng.integers(0, 40, size=(3 * rows + 1, n)).astype(float)
        labels = rng.integers(1, 4, size=n)
        train = (classed if mode == "classify" else realds)(np.zeros((n, 1)), labels)
        for rule in (NeighborRule("knn", k=5), NeighborRule("hnn", radius=0.5)):
            distances, calls = row_distances(dists)
            got = predict_each(distances, train, np.arange(len(dists))[:, None], rule)
            assert calls == [rows, rows, rows, 1]
            np.testing.assert_array_equal(got, per_row(dists, train.labels, rule, mode))


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
