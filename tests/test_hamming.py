"""Hash codes, Hamming-space inference, relaxed gradients, and the trainer."""

import numpy as np
import pytest

from nnmetric import bruteforce
from nnmetric.bruteforce import (
    asym_hamming_distance,
    binarize,
    db_side_grad,
    hamming_score,
    query_side_grad,
)
from nnmetric.dataset import CLASS, REAL, Dataset
from nnmetric.gerrymander import surrogate_core
from nnmetric.hamming import (
    _normalize,
    HammingHasher,
    HammingTrainConfig,
    calibrate_scales,
    encode,
    hamming_predictions,
    random_hasher,
    sign_pm1,
    train_hamming,
)


def make_class_dataset(features, labels):
    return Dataset(
        features=np.asarray(features, dtype=float),
        labels=np.asarray(labels, dtype=int),
        kind=CLASS,
    )


class TestBinarize:
    def test_identity_projection(self):
        np.testing.assert_array_equal(
            binarize(np.eye(2), [0.5, -2.0]), [1.0, -1.0]
        )

    def test_zero_maps_to_plus_one(self):
        np.testing.assert_array_equal(binarize(np.eye(3), np.zeros(3)), np.ones(3))

    def test_invariant_to_positive_row_scaling(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 3))
        x = rng.normal(size=3)
        scaled = m * rng.uniform(0.1, 10.0, size=(4, 1))
        np.testing.assert_array_equal(binarize(m, x), binarize(scaled, x))

    def test_encode_rows_match_binarize(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(3, 4))
        feats = rng.normal(size=(6, 4))
        codes = encode(m, feats)
        for i in range(6):
            np.testing.assert_array_equal(codes[i], binarize(m, feats[i]))


class TestHammingScore:
    def test_identical_code_scores_c(self):
        train = make_class_dataset([[1.0, 1.0, 1.0]], [1])
        hasher = HammingHasher(u=np.eye(3), v=np.eye(3))
        assert hamming_score(hasher, [1.0, 1.0, 1.0], [0], train) == 3.0

    def test_opposite_code_scores_minus_c(self):
        train = make_class_dataset([[-1.0, -1.0, -1.0]], [1])
        hasher = HammingHasher(u=np.eye(3), v=np.eye(3))
        assert hamming_score(hasher, [1.0, 1.0, 1.0], [0], train) == -3.0

    def test_score_is_sum_of_c_minus_two_d(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            c, d, n = rng.integers(1, 6), rng.integers(2, 5), rng.integers(3, 9)
            hasher = HammingHasher(
                u=rng.normal(size=(c, d)), v=rng.normal(size=(c, d))
            )
            labels = rng.integers(1, 3, size=n)
            labels[0] = 1
            train = make_class_dataset(rng.normal(size=(n, d)), labels)
            x = rng.normal(size=d)
            k = int(rng.integers(1, n + 1))
            h = rng.choice(n, size=k, replace=False)
            dists = hasher.distances(x, train.features)
            expected = float(np.sum(c - 2.0 * dists[h]))
            assert hamming_score(hasher, x, h, train) == pytest.approx(expected)

    def test_distances_are_bit_counts(self):
        hasher = HammingHasher(u=np.eye(2), v=np.eye(2))
        train = make_class_dataset([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]], [1, 1, 1])
        np.testing.assert_array_equal(
            hasher.distances([1.0, 1.0], train.features), [0.0, 1.0, 2.0]
        )


class TestHardDistances:
    """The hard distances count the bits where the signs of the projections
    differ, without forming either code."""

    def test_equal_the_code_product_bit_for_bit(self):
        """300 random hashers, half Gaussian and half on rows, hashes and
        queries of -1, 0 and 1, where many projections are exactly zero (or
        -0.0) on the query side, the database side or both: the bytes of
        (c - encode(V, F) @ binarize(U, x)) / 2, in either memory layout of
        the database, and a count of the differing signs."""
        rng = np.random.default_rng(139)
        zeros = {"query": 0, "database": 0}
        for trial in range(300):
            c, d, n = int(rng.integers(1, 40)), int(rng.integers(1, 12)), int(rng.integers(1, 60))
            if trial % 2:
                u, v = rng.normal(size=(c, d)), rng.normal(size=(c, d))
                features, x = rng.normal(size=(n, d)), rng.normal(size=d)
            else:
                u, v = (rng.integers(-1, 2, size=(c, d)).astype(float) for _ in range(2))
                features = rng.integers(-1, 2, size=(n, d)).astype(float)
                x = rng.integers(-1, 2, size=d) * rng.choice([0.0, -0.0, 1.0], size=d)
            zeros["query"] += bool((u @ x == 0.0).any())
            zeros["database"] += bool((features @ v.T == 0.0).any())
            want = (c - encode(v, features) @ binarize(u, x)) / 2.0
            count = np.sum(encode(v, features) != binarize(u, x), axis=1)
            for database in (features, np.asfortranarray(features)):
                got = HammingHasher(u=u, v=v).distances(x, database)
                assert got.dtype == np.float64 and got.shape == (n,)
                assert got.tobytes() == want.tobytes()
                assert got.tolist() == count.tolist()
        assert min(zeros.values()) >= 100, zeros

    def test_count_the_signs_of_exact_projections(self):
        """On rows of small integers every projection is exact, so a plain
        Python count of the differing signs, sign(0) = +1, is the reference."""
        rng = np.random.default_rng(149)

        def signs(row, m):
            return [sum(a * b for a, b in zip(row, m_row)) >= 0 for m_row in m.tolist()]

        for _ in range(100):
            c, d, n = int(rng.integers(1, 12)), int(rng.integers(1, 6)), int(rng.integers(1, 30))
            u, v = (rng.integers(-2, 3, size=(c, d)).astype(float) for _ in range(2))
            features = rng.integers(-2, 3, size=(n, d)).astype(float)
            x = rng.integers(-2, 3, size=d).astype(float)
            query = signs(x.tolist(), u)
            want = [sum(a != b for a, b in zip(signs(row, v), query)) for row in features.tolist()]
            assert HammingHasher(u=u, v=v).distances(x, features).tolist() == want


class TestInferenceOnHammingDistances:
    """Hamming distances are per-point additive, so the set-inference cores
    apply unchanged; check them against exhaustive search on tiny instances."""

    def test_matches_brute_force(self):
        from nnmetric.gerrymander import (
            loss_augmented_inference_core,
            targeted_inference_core,
        )

        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(5, 11))
            d = int(rng.integers(2, 5))
            r = int(rng.integers(2, 4))
            k = int(rng.integers(1, 5))
            labels = np.concatenate([np.arange(1, r + 1), rng.integers(1, r + 1, size=n - r)])
            feats = rng.normal(size=(n, d))
            hasher = HammingHasher(u=rng.normal(size=(4, d)), v=rng.normal(size=(4, d)))
            dists = hasher.distances(rng.normal(size=d), feats)
            y = int(rng.integers(1, r + 1))

            _, aug_value = loss_augmented_inference_core(dists, labels, y, k)
            _, brute_value = bruteforce.brute_loss_augmented(dists, labels, y, k)
            assert aug_value == pytest.approx(brute_value, abs=1e-9)

            brute = bruteforce.brute_targeted(dists, labels, y, k, tau=0)
            if brute is not None:
                h = targeted_inference_core(dists, labels, y, k, tau=0)
                assert dists[h].sum() == pytest.approx(-brute[1], abs=1e-9)


class TestRelaxedGradients:
    """Finite differences on the relaxed (tanh) surrogate, with the set
    assignments and the opposite side's codes held fixed."""

    @staticmethod
    def _fd_grad(fn, m, eps=1e-6):
        g = np.zeros_like(m)
        for idx in np.ndindex(m.shape):
            up, down = m.copy(), m.copy()
            up[idx] += eps
            down[idx] -= eps
            g[idx] = (fn(up) - fn(down)) / (2 * eps)
        return g

    def test_query_side_matches_fd(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            c, d = 3, 4
            u = rng.normal(size=(c, d))
            x = rng.normal(size=d)
            code_diff = rng.choice([-2.0, 0.0, 2.0], size=c)

            def surrogate(m):
                return float(np.tanh(m @ x) @ code_diff)

            fd = self._fd_grad(surrogate, u)
            grad = query_side_grad(u, x, code_diff)
            assert np.linalg.norm(grad - fd) <= 1e-5 * (1 + np.linalg.norm(fd))

    def test_db_side_matches_fd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c, d, k = 3, 4, 3
            v = rng.normal(size=(c, d))
            members = rng.normal(size=(k, d))
            q = sign_pm1(rng.normal(size=c))

            def surrogate(m):
                return float(q @ np.tanh(members @ m.T).sum(axis=0))

            fd = self._fd_grad(surrogate, v)
            grad = db_side_grad(v, members, q)
            assert np.linalg.norm(grad - fd) <= 1e-5 * (1 + np.linalg.norm(fd))


class TestAsymHammingDistance:
    def test_zero_projection_gives_quarter_c(self):
        code = np.array([1.0, -1.0, 1.0, -1.0])
        assert asym_hamming_distance(np.zeros(4), code, np.ones(4)) == pytest.approx(1.0)

    def test_matching_soft_code_gives_zero(self):
        p = np.array([0.3, -1.2, 2.0])
        code = np.tanh(p)
        assert asym_hamming_distance(p, code, np.ones(3)) == pytest.approx(0.0)

    def test_refines_hamming_ties(self):
        # Both codes disagree with the hard query on one bit, but B differs
        # on the low-confidence bit and should land closer.
        p = np.array([2.0, 0.1])
        code_b = np.array([1.0, -1.0])
        code_c = np.array([-1.0, 1.0])
        q = sign_pm1(p)
        assert np.sum(q != code_b) == np.sum(q != code_c) == 1
        s = np.ones(2)
        assert asym_hamming_distance(p, code_b, s) < asym_hamming_distance(p, code_c, s)


class TestCalibrateScales:
    def test_multiplier_near_one_when_already_on_target(self):
        a = np.arctanh(0.4)
        train = make_class_dataset([[a], [-a]], [1, 2])
        s = calibrate_scales(train, np.array([[1.0]]))
        assert s.shape == (1,)
        assert abs(s[0] - 1.0) < 0.05

    def test_doubling_projections_halves_multiplier(self):
        rng = np.random.default_rng(8)
        train = make_class_dataset(rng.normal(size=(20, 4)), np.ones(20, dtype=int))
        u = rng.normal(size=(3, 4))
        s1 = calibrate_scales(train, u)
        s2 = calibrate_scales(train, 2.0 * u)
        np.testing.assert_allclose(s2, s1 / 2.0, rtol=1e-12)

    def test_target_met_within_tolerance(self):
        rng = np.random.default_rng(9)
        train = make_class_dataset(rng.normal(size=(30, 5)), np.ones(30, dtype=int))
        u = rng.normal(size=(4, 5))
        s = calibrate_scales(train, u)
        level = np.mean(np.abs(np.tanh(s[0] * train.features @ u.T)))
        assert abs(level - 0.4) <= 1e-2

    def test_scales_are_shared(self):
        rng = np.random.default_rng(10)
        train = make_class_dataset(rng.normal(size=(10, 3)), np.ones(10, dtype=int))
        s = calibrate_scales(train, rng.normal(size=(5, 3)))
        assert s.min() == s.max()

    def test_degenerate_projections_fall_back_to_ones(self):
        train = make_class_dataset(np.zeros((6, 3)), np.ones(6, dtype=int))
        np.testing.assert_array_equal(
            calibrate_scales(train, np.ones((2, 3))), np.ones(2)
        )


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            HammingTrainConfig(c=0, k=1)
        with pytest.raises(ValueError):
            HammingTrainConfig(c=4, k=0)

    def test_hasher_validates_shapes_and_relaxation(self):
        with pytest.raises(ValueError):
            HammingHasher(u=np.eye(2), v=np.eye(3))


class TestTrainer:
    @staticmethod
    def _blobs(seed, n_per_class=40):
        rng = np.random.default_rng(seed)
        centers = np.array([[2.0, 2.0, 0.0, 0.0, 0.0], [-2.0, -2.0, 0.0, 0.0, 0.0]])
        feats, labels = [], []
        for label, center in enumerate(centers, start=1):
            feats.append(center + rng.normal(size=(n_per_class, 5)))
            labels.extend([label] * n_per_class)
        return make_class_dataset(np.vstack(feats), labels)

    def test_requires_classed_data(self):
        train = Dataset(
            features=np.zeros((4, 2)), labels=np.zeros(4), kind=REAL
        )
        with pytest.raises(ValueError):
            train_hamming(train, HammingTrainConfig(c=2, k=1))

    def test_zero_epochs_returns_normalized_init(self):
        train = self._blobs(0, n_per_class=5)
        result = train_hamming(train, HammingTrainConfig(c=3, k=2, epochs=0, seed=7))
        reference = random_hasher(train.d, 3, seed=7)
        np.testing.assert_array_equal(result.metric.u, reference.u)
        np.testing.assert_array_equal(result.metric.v, reference.v)
        assert result.trace == [] and result.epochs_run == 0

    def test_unit_frobenius_norm_after_training(self):
        train = self._blobs(1, n_per_class=10)
        cfg = HammingTrainConfig(c=4, k=3, epochs=3, seed=1, stop_rel_tol=None)
        result = train_hamming(train, cfg)
        assert abs(np.linalg.norm(result.metric.u) - 1.0) < 1e-10
        assert abs(np.linalg.norm(result.metric.v) - 1.0) < 1e-10

    def test_skips_samples_with_no_feasible_target(self):
        feats = np.vstack([np.zeros((8, 2)), np.ones((1, 2))])
        train = make_class_dataset(feats, [1] * 8 + [2])
        cfg = HammingTrainConfig(c=2, k=1, epochs=1, seed=0, stop_rel_tol=None)
        result = train_hamming(train, cfg)
        assert result.trace[0].skipped == 1

    def test_surrogate_decreases_and_beats_random_hashes(self):
        train = self._blobs(0)
        test = self._blobs(100)
        cfg = HammingTrainConfig(c=8, k=3, epochs=15, seed=0, stop_rel_tol=None)
        result = train_hamming(train, cfg)
        assert result.trace[-1].mean_surrogate < result.trace[0].mean_surrogate

        trained = hamming_predictions(result.metric, train, test.features, k=3)
        random_h = random_hasher(train.d, 8, seed=0)
        untrained = hamming_predictions(random_h, train, test.features, k=3)
        trained_err = float((trained != test.labels).mean())
        untrained_err = float((untrained != test.labels).mean())
        assert trained_err < untrained_err
        assert trained_err <= 0.1

    def test_two_updates_match_hand_computation(self):
        # Class 2 has one row, so it is skipped: one epoch applies exactly two
        # updates, U, V <- normalize(U - grad / t, V - grad / t) with t = 1, 2.
        feats = np.array([[1.0, 0.2, -0.5], [0.3, -1.0, 0.8], [-0.7, 0.4, 0.9]])
        labels = np.array([1, 1, 2])
        train = make_class_dataset(feats, labels)
        c, k, seed = 4, 1, 3
        result = train_hamming(
            train, HammingTrainConfig(c=c, k=k, epochs=1, seed=seed, stop_rel_tol=None)
        )

        # the start draws U, then V, and the same generator permutes the epoch
        rng = np.random.default_rng(seed)
        u = _normalize(rng.normal(size=(c, 3)))
        v = _normalize(rng.normal(size=(c, 3)))
        applied = [i for i in rng.permutation(3) if labels[i] == 1]
        moved = 0
        for t, i in enumerate(applied, start=1):
            x = feats[i]
            dists = HammingHasher(u=u, v=v).distances(x, feats)
            dists[i] = np.inf
            _, h_hat, h_star = surrogate_core(dists, labels, 1, k)
            moved += set(h_hat) != set(h_star)
            q = binarize(u, x)
            code_diff = encode(v, feats[h_hat]).sum(axis=0) - encode(v, feats[h_star]).sum(axis=0)
            grad_u = query_side_grad(u, x, code_diff)
            grad_v = db_side_grad(v, feats[h_hat], q) - db_side_grad(v, feats[h_star], q)
            eta = 1.0 / t
            u, v = _normalize(u - eta * grad_u), _normalize(v - eta * grad_v)
        assert len(applied) == 2 and moved >= 1
        assert result.trace[0].skipped == 1
        np.testing.assert_allclose(result.metric.u, u, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(result.metric.v, v, rtol=1e-12, atol=1e-15)
