"""Score gradients checked against central finite differences."""

import time

import numpy as np
import pytest

from nnmetric.bruteforce import score
from nnmetric.dataset import CLASS, Dataset
from nnmetric.gerrymander import (
    AsymmetricMetric,
    MahalanobisMetric,
    asym_reg_grads,
    asym_score_grads,
    feature_map_psi,
)


def make_train(features):
    n = len(features)
    labels = np.ones(n, dtype=int)
    return Dataset(features=np.asarray(features, dtype=float), labels=labels, kind=CLASS)


def sym_direction(rng, d):
    e = rng.normal(size=(d, d))
    return (e + e.T) / 2.0


class TestFeatureMap:
    def test_single_point_outer_product(self):
        train = make_train([[0.0, 0.0]])
        psi = feature_map_psi([1.0, 0.0], [0], train)
        assert np.allclose(psi, [[-1.0, 0.0], [0.0, 0.0]])

    def test_additive_over_members(self):
        rng = np.random.default_rng(5)
        train = make_train(rng.normal(size=(6, 3)))
        x = rng.normal(size=3)
        whole = feature_map_psi(x, [0, 2, 4], train)
        parts = sum(feature_map_psi(x, [j], train) for j in (0, 2, 4))
        assert np.allclose(whole, parts)

    def test_symmetric(self):
        rng = np.random.default_rng(6)
        train = make_train(rng.normal(size=(5, 4)))
        psi = feature_map_psi(rng.normal(size=4), [1, 3], train)
        assert np.array_equal(psi, psi.T)

    def test_score_is_inner_product_with_w(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            train = make_train(rng.normal(size=(7, 3)))
            x = rng.normal(size=3)
            w = sym_direction(rng, 3)
            h = rng.choice(7, size=3, replace=False)
            psi = feature_map_psi(x, h, train)
            s = score(MahalanobisMetric(w=w), x, h, train)
            assert s == pytest.approx(float(np.sum(w * psi)), rel=1e-12, abs=1e-12)

    def test_directional_derivative_fd(self):
        rng = np.random.default_rng(9)
        start = time.monotonic()
        eps = 1e-6
        for _ in range(50):
            d = int(rng.integers(2, 6))
            train = make_train(rng.normal(size=(8, d)))
            x = rng.normal(size=d)
            h = rng.choice(8, size=3, replace=False)
            a = rng.normal(size=(d, d))
            w = a.T @ a
            e = sym_direction(rng, d)
            psi = feature_map_psi(x, h, train)
            up = score(MahalanobisMetric(w=w + eps * e), x, h, train)
            down = score(MahalanobisMetric(w=w - eps * e), x, h, train)
            fd = (up - down) / (2.0 * eps)
            analytic = float(np.sum(e * psi))
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-8)
        assert time.monotonic() - start < 10.0


class TestAsymmetricGrads:
    def test_match_finite_differences(self):
        rng = np.random.default_rng(13)
        start = time.monotonic()
        eps = 1e-6
        for _ in range(50):
            d = int(rng.integers(2, 6))
            c = int(rng.integers(1, d + 1))
            train = make_train(rng.normal(size=(8, d)))
            x = rng.normal(size=d)
            h = rng.choice(8, size=3, replace=False)
            u = rng.normal(size=(c, d))
            v = rng.normal(size=(c, d))
            gu, gv = asym_score_grads(u, v, x, h, train)
            eu = rng.normal(size=(c, d))
            ev = rng.normal(size=(c, d))
            up = score(AsymmetricMetric(u=u + eps * eu, v=v), x, h, train)
            down = score(AsymmetricMetric(u=u - eps * eu, v=v), x, h, train)
            assert float(np.sum(eu * gu)) == pytest.approx(
                (up - down) / (2 * eps), rel=1e-5, abs=1e-7
            )
            up = score(AsymmetricMetric(u=u, v=v + eps * ev), x, h, train)
            down = score(AsymmetricMetric(u=u, v=v - eps * ev), x, h, train)
            assert float(np.sum(ev * gv)) == pytest.approx(
                (up - down) / (2 * eps), rel=1e-5, abs=1e-7
            )
        assert time.monotonic() - start < 10.0

    def test_gradient_shapes(self):
        rng = np.random.default_rng(17)
        train = make_train(rng.normal(size=(5, 4)))
        gu, gv = asym_score_grads(
            rng.normal(size=(2, 4)), rng.normal(size=(2, 4)), rng.normal(size=4), [0, 1], train
        )
        assert gu.shape == (2, 4)
        assert gv.shape == (2, 4)

    def test_block_frobenius_identity(self):
        # |block|_F^2 splits into the three projection gram terms
        rng = np.random.default_rng(19)
        for _ in range(20):
            u = rng.normal(size=(3, 5))
            v = rng.normal(size=(3, 5))
            stacked = np.hstack([u, -v])  # the block is stacked^T stacked
            block = stacked.T @ stacked
            expected = (
                np.sum((u.T @ u) ** 2)
                + 2.0 * np.sum((u.T @ v) ** 2)
                + np.sum((v.T @ v) ** 2)
            )
            assert np.sum(block**2) == pytest.approx(expected, rel=1e-10)

    def test_reg_grads_pinned_form(self):
        # the penalty steps use these exact products (note the 2/4 split)
        rng = np.random.default_rng(23)
        u = rng.normal(size=(3, 5))
        v = rng.normal(size=(3, 5))
        gu, gv = asym_reg_grads(u, v)
        assert np.allclose(gu, 2.0 * (u @ u.T) @ u + 4.0 * (v @ v.T) @ u)
        assert np.allclose(gv, 2.0 * (v @ v.T) @ v + 4.0 * (u @ u.T) @ v)

    def test_reg_grads_vanish_at_zero(self):
        gu, gv = asym_reg_grads(np.zeros((2, 3)), np.zeros((2, 3)))
        assert not gu.any()
        assert not gv.any()
