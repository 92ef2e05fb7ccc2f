import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnmetric.bruteforce import brute_sym_eig
from nnmetric.numerics import (
    load_matrix_csv,
    psd_project,
    save_matrix_csv,
    sym_eig,
    symmetrize,
    whitening_transform,
)


def random_symmetric(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) * scale
    return symmetrize(a + a.T)


class TestSymEig:
    def test_diagonal(self):
        vecs, values = sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(values, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(vecs), np.eye(2), atol=1e-12)

    def test_identity(self):
        _, values = sym_eig(np.eye(5))
        np.testing.assert_allclose(values, np.ones(5))

    def test_reconstruction_residual(self):
        """VLV^T must reproduce A within 1e-8 of its max entry."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = random_symmetric(rng, 6, scale=3.0)
            vecs, values = sym_eig(a)
            recon = (vecs * values) @ vecs.T
            bound = 1e-8 * max(np.abs(a).max(), 1e-30)
            assert np.abs(recon - a).max() <= bound

    def test_matches_reference_eigenvalues(self):
        """Eigenvalues agree with numpy's eigvalsh and with the Jacobi oracle."""
        rng = np.random.default_rng(7)
        for d in (1, 2, 3, 8, 15):
            a = random_symmetric(rng, d, scale=2.0)
            _, values = sym_eig(a)
            ref = np.linalg.eigvalsh(a)[::-1]
            np.testing.assert_allclose(values, ref, atol=1e-10 * max(1, d))
            _, jacobi = brute_sym_eig(a)
            np.testing.assert_allclose(values, jacobi, atol=1e-10 * max(1, d))

    def test_repeated_eigenvalues_match_oracle_projectors(self):
        """Q diag(2,2,2,-1,0) Q^T: each eigenvalue cluster spans the same
        subspace as the Jacobi oracle's, though its basis is arbitrary."""
        rng = np.random.default_rng(13)
        q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        a = (q * np.array([2.0, 2.0, 2.0, -1.0, 0.0])) @ q.T
        vecs, values = sym_eig(a)
        ref_vecs, ref_values = brute_sym_eig(a)
        np.testing.assert_allclose(values, [2.0, 2.0, 2.0, 0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(values, ref_values, atol=1e-12)
        # descending positions of each cluster -> the columns of q spanning it
        for cluster, span in (([0, 1, 2], [0, 1, 2]), ([3], [4]), ([4], [3])):
            exact = q[:, span] @ q[:, span].T
            got = vecs[:, cluster] @ vecs[:, cluster].T
            ref = ref_vecs[:, cluster] @ ref_vecs[:, cluster].T
            np.testing.assert_allclose(got, ref, atol=1e-12)
            np.testing.assert_allclose(got, exact, atol=1e-12)

    def test_orthogonal_and_descending(self):
        rng = np.random.default_rng(3)
        a = random_symmetric(rng, 9)
        vecs, values = sym_eig(a)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(9), atol=1e-8)
        assert np.all(np.diff(values) <= 1e-12)

    def test_eigenpair_residuals(self):
        rng = np.random.default_rng(11)
        a = random_symmetric(rng, 7)
        vecs, values = sym_eig(a)
        for lam, v in zip(values, vecs.T):
            assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * (1 + abs(lam))

    def test_sign_convention(self):
        # largest-magnitude entry of each eigenvector is positive
        rng = np.random.default_rng(5)
        vecs, _ = sym_eig(random_symmetric(rng, 6))
        for v in vecs.T:
            assert v[np.argmax(np.abs(v))] > 0

    def test_rejects_nonfinite(self):
        bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError):
            sym_eig(bad)


class TestSymmetrize:
    def test_bytes_match_triangle_sum(self):
        """Same bytes as triu(a) + triu(a, 1).T, with -0.0, NaN and inf entries."""
        rng = np.random.default_rng(21)
        for _ in range(1000):
            d = int(rng.integers(1, 21))
            a = rng.standard_normal((d, d))
            pick = rng.random((d, d))
            a[pick < 0.1] = -0.0
            a[(pick >= 0.1) & (pick < 0.15)] = np.nan
            a[(pick >= 0.15) & (pick < 0.2)] = np.inf
            a[(pick >= 0.2) & (pick < 0.25)] = -np.inf
            assert symmetrize(a).tobytes() == (np.triu(a) + np.triu(a, 1).T).tobytes()

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            symmetrize(np.zeros((2, 3)))


class TestBruteSymEig:
    def test_diagonal_and_contract(self):
        vecs, values = brute_sym_eig(np.diag([1.0, 3.0, -2.0]))
        np.testing.assert_array_equal(values, [3.0, 1.0, -2.0])
        np.testing.assert_array_equal(vecs, np.eye(3)[:, [1, 0, 2]])

    def test_upper_triangle_authoritative(self):
        a = np.array([[2.0, 1.0], [-7.0, 2.0]])
        _, values = brute_sym_eig(a)
        np.testing.assert_allclose(values, [3.0, 1.0], atol=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            brute_sym_eig(np.array([[1.0, np.inf], [0.0, 1.0]]))


class TestPsdProject:
    def test_clips_negative_diagonal(self):
        out = psd_project(np.diag([1.0, -2.0]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((4, 4))
        a = symmetrize(b @ b.T)
        np.testing.assert_allclose(psd_project(a), a, atol=1e-10)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        a = random_symmetric(rng, 6)
        once = psd_project(a)
        twice = psd_project(once)
        _, lam_once = sym_eig(once)
        _, lam_twice = sym_eig(twice)
        np.testing.assert_allclose(lam_once, lam_twice, atol=1e-12)

    def test_matches_eigenclip_oracle(self):
        """Nearest-PSD point in Frobenius norm equals clipping with LAPACK."""
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = random_symmetric(rng, 5)
            lam, q = np.linalg.eigh(a)
            oracle = (q * np.maximum(lam, 0.0)) @ q.T
            np.testing.assert_allclose(psd_project(a), oracle, atol=1e-9)

    @pytest.mark.parametrize("case", ["zero", "repeated", "rank_deficient", "d1", "random"])
    def test_bytes_match_sym_eig_route(self, case):
        """A positive-definite input passes the Cholesky test and comes back
        as symmetrize(a), bit for bit.  An input with a negative eigenvalue
        takes the eigen route, which skips sym_eig's sign fix: a column's
        sign cancels in V diag(lam+) V^T, so the result is the sym_eig
        route's bit for bit.  An input within roundoff of singular may take
        either route."""
        rng = np.random.default_rng(12)
        for _ in range(200):
            d = 1 if case == "d1" else int(rng.integers(2, 12))
            if case == "zero":
                a = np.zeros((d, d))
            elif case == "repeated":
                q = np.linalg.qr(rng.standard_normal((d, d)))[0]
                a = (q * rng.integers(-2, 3, size=d)) @ q.T
            elif case == "rank_deficient":
                b = rng.standard_normal((d, max(1, d // 3)))
                a = b @ b.T - 2.0 * np.outer(b[:, 0], b[:, 0])
            else:
                a = random_symmetric(rng, d, scale=10.0 ** rng.uniform(-3, 3))
            vecs, values = sym_eig(a)
            eigen_route = symmetrize((vecs * np.maximum(values, 0.0)) @ vecs.T).tobytes()
            unchanged = symmetrize(a).tobytes()
            margin = 1e-8 * np.abs(values).max()
            got = psd_project(a).tobytes()
            if values[-1] > margin:
                assert got == unchanged
            elif values[-1] < -margin:
                assert got == eigen_route
            else:
                assert got in (unchanged, eigen_route)

    @pytest.mark.parametrize("case", ["zero", "rank_deficient", "projected"])
    def test_psd_singular_input_stays_in_the_cone(self, case):
        """A PSD input with zero eigenvalues, which the Cholesky test may
        pass or fail in roundoff, comes back with no eigenvalue below
        -1e-12 |a| whichever route it takes."""
        rng = np.random.default_rng(31)
        for _ in range(200):
            d = int(rng.integers(2, 12))
            if case == "zero":
                a = np.zeros((d, d))
            elif case == "rank_deficient":
                b = rng.standard_normal((d, int(rng.integers(1, d))))
                a = b @ b.T
            else:
                a = psd_project(random_symmetric(rng, d))
            low = np.linalg.eigvalsh(psd_project(a))[0]
            assert low >= -1e-12 * np.linalg.norm(a)

    def test_rejects_nonfinite_naming_itself(self):
        with pytest.raises(ValueError, match="psd_project"):
            psd_project(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_always_psd(self, d, seed):
        a = random_symmetric(np.random.default_rng(seed), d)
        _, values = sym_eig(psd_project(a))
        assert values[-1] >= -1e-9


class TestWhitening:
    def test_identity_metric(self):
        t = whitening_transform(np.eye(3))
        np.testing.assert_allclose(t.T @ t, np.eye(3), atol=1e-10)

    def test_diagonal_scaling(self):
        t = whitening_transform(np.diag([4.0, 1.0]))
        x = np.array([1.0, 0.0])
        assert np.linalg.norm(t @ x) == pytest.approx(2.0)

    def test_quadratic_form_identity(self):
        """|Tx - Tx'|^2 equals the G-quadratic form on random pairs."""
        rng = np.random.default_rng(9)
        for d in (2, 5, 11):
            b = rng.standard_normal((d, d))
            g = symmetrize(b @ b.T)
            t = whitening_transform(g)
            for _ in range(100):
                x, xp = rng.standard_normal((2, d))
                diff = x - xp
                lhs = np.sum((t @ diff) ** 2)
                rhs = diff @ g @ diff
                assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)

    def test_rank_truncation(self):
        g = np.diag([1.0, 1e-15])
        t = whitening_transform(g)
        np.testing.assert_allclose(t @ np.array([0.0, 1.0]), 0.0, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            whitening_transform(np.diag([1.0, -0.5]))


def test_matrix_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 5))
    path = tmp_path / "m.csv"
    save_matrix_csv(path, m)
    np.testing.assert_array_equal(load_matrix_csv(path), m)
