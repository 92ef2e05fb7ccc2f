"""Kernel plug-ins and gated finite differences (the references in
``bruteforce``), and the averaged-outer-product metric estimators, checked
against hand values, oracles, and known geometry."""

import numpy as np
import pytest
from conftest import loo_pass, probed_pass
from hypothesis import given, settings
from hypothesis import strategies as st

from nnmetric.bruteforce import (
    explicit_loo,
    finite_diff_gradient,
    kernel_class_probs,
    kernel_regress,
    kernel_weights,
)
from nnmetric.dataset import CLASS, REAL, Dataset, random_rotation, synth_sin
from nnmetric.gradient_metrics import (
    GradientPass,
    KernelSpec,
    estimate_egop,
    estimate_ejop,
    estimate_gw,
    gate_mask,
    gradient_pass,
    relieff_weights,
)
from nnmetric.numerics import sym_eig


def real_dataset(features, targets):
    return Dataset(
        features=np.asarray(features, dtype=float),
        labels=np.asarray(targets, dtype=float),
        kind=REAL,
    )


def class_dataset(features, labels):
    return Dataset(
        features=np.asarray(features, dtype=float),
        labels=np.asarray(labels, dtype=int),
        kind=CLASS,
    )


def partly_gated(kind=REAL):
    """30 uniform points in the unit cube with t > h, so a probe ball never
    holds its own sample: some samples pass every gate, some a few, some none.
    Classed targets split the cube at x0 = 0.5."""
    X = np.random.default_rng(6).uniform(size=(30, 3))
    if kind == REAL:
        train = real_dataset(X, np.sin(3.0 * X[:, 0]))
    else:
        train = class_dataset(X, 1 + (X[:, 0] > 0.5).astype(int))
    return train, KernelSpec(bandwidth=0.35), 0.4


def blobs2(seed, n_per=80, d=5):
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for lab, center in enumerate(([1.5, 0.8], [-1.5, -0.8]), start=1):
        block = rng.normal(size=(n_per, d))
        block[:, :2] = np.array(center) + rng.normal(size=(n_per, 2))
        feats.append(block)
        labels.extend([lab] * n_per)
    return class_dataset(np.vstack(feats), labels)


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=0.0)

    @pytest.mark.parametrize("bandwidth", [1.0], ids=["triangle"])
    def test_admissibility(self, bandwidth):
        # the weights of points at distances u * h, from u = 0 out past the rim
        spec = KernelSpec(bandwidth=bandwidth)
        u = np.linspace(0.0, 1.5, 200)
        vals = kernel_weights(spec, (u * bandwidth)[:, None], [0.0])
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals[u < 1.0] > 0)
        assert kernel_weights(spec, [[0.0], [bandwidth]], [0.0])[1] == 0.0
        assert np.all(vals[u >= 1.0] == 0.0)

    def test_triangle_values(self):
        spec = KernelSpec(bandwidth=2.0)
        vals = kernel_weights(spec, [[0.0], [1.0], [-2.0]], [0.0])
        np.testing.assert_allclose(vals, np.array([1.0, 0.5, 0.0]) / 1.5)


class TestKernelRegress:
    def test_constant_targets(self):
        train = real_dataset([[0.0], [1.0], [2.0]], [4.0, 4.0, 4.0])
        spec = KernelSpec(bandwidth=1.0)
        for x in ([0.5], [100.0]):
            assert kernel_regress(train, spec, x) == pytest.approx(4.0)

    def test_far_query_falls_back_to_mean(self):
        train = real_dataset([[0.0], [1.0]], [0.0, 3.0])
        assert kernel_regress(train, KernelSpec(bandwidth=0.5), [50.0]) == pytest.approx(1.5)

    def test_hand_computed_two_points(self):
        train = real_dataset([[0.25], [-0.75]], [0.0, 1.0])
        spec = KernelSpec(bandwidth=1.0)
        assert kernel_regress(train, spec, [0.0]) == pytest.approx(0.25)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 10_000))
    def test_stays_within_target_range(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        train = real_dataset(rng.normal(size=(n, 2)), rng.normal(size=n))
        value = kernel_regress(train, KernelSpec(bandwidth=1.0), rng.normal(size=2))
        assert train.labels.min() - 1e-12 <= value <= train.labels.max() + 1e-12


class TestKernelClassProbs:
    def test_requires_classed_data(self):
        train = real_dataset([[0.0]], [1.0])
        with pytest.raises(ValueError):
            kernel_class_probs(train, KernelSpec(bandwidth=1.0), [0.0])

    def test_temperature_must_be_positive(self):
        train = class_dataset([[0.0], [1.0]], [1, 2])
        with pytest.raises(ValueError):
            kernel_class_probs(train, KernelSpec(bandwidth=1.0), [0.0], temperature=0.0)

    def test_single_class_argmax(self):
        train = class_dataset([[0.0], [0.2]], [1, 1])
        probs = kernel_class_probs(train, KernelSpec(bandwidth=1.0), [0.1])
        assert probs.argmax() == 0

    def test_fallback_softmaxes_class_frequencies(self):
        train = class_dataset([[0.0], [0.1], [0.2], [0.3]], [1, 1, 1, 2])
        probs = kernel_class_probs(train, KernelSpec(bandwidth=0.5), [99.0])
        raw = np.array([0.75, 0.25])
        expected = np.exp(raw) / np.exp(raw).sum()
        np.testing.assert_allclose(probs, expected)

    def test_simplex_on_random_queries(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(1, 4, size=20)
        labels[:3] = [1, 2, 3]
        train = class_dataset(rng.normal(size=(20, 3)), labels)
        spec = KernelSpec(bandwidth=1.0)
        for _ in range(25):
            probs = kernel_class_probs(train, spec, rng.normal(size=3))
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert np.all(probs > 0)

    def test_higher_temperature_flattens(self):
        train = class_dataset([[0.0], [0.1], [5.0]], [1, 1, 2])
        spec = KernelSpec(bandwidth=1.0)
        sharp = kernel_class_probs(train, spec, [0.05], temperature=0.1)
        flat = kernel_class_probs(train, spec, [0.05], temperature=10.0)
        assert sharp.max() > flat.max()


class TestDensityGate:
    def test_dense_cluster_gates_true(self):
        rng = np.random.default_rng(1)
        train = real_dataset(rng.normal(scale=0.1, size=(30, 2)), np.zeros(30))
        assert gate_mask(train, [0.0, 0.0], t=0.05, h=0.5)[0]
        assert gate_mask(train, [0.0, 0.0], t=0.05, h=0.5)[1]

    def test_isolated_point_gates_false(self):
        train = real_dataset([[0.0, 0.0]], [0.0])
        assert not gate_mask(train, [10.0, 10.0], t=0.1, h=0.5)[0]

    def test_loo_fixture_has_closed_partial_and_open_gates(self):
        train, spec, t = partly_gated()
        masks = np.array([gate_mask(train, x, t, spec.bandwidth) for x in train.features])
        assert (~masks.any(axis=1)).any()
        assert (masks.any(axis=1) & ~masks.all(axis=1)).any()
        assert masks.all(axis=1).any()

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_gates_never_close_when_t_below_h(self, seed):
        """The gate counts the queried point, which sits at distance t from
        its own probes, so with t < h every coordinate of every sample opens
        (this is why the bench grids report gate_pass_ratio 1.0)."""
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 20)), int(rng.integers(1, 5))
        train = real_dataset(rng.uniform(size=(n, d)) * 10.0, rng.normal(size=n))
        h = float(rng.uniform(0.01, 2.0))
        t = h * float(rng.uniform(0.01, 0.99))
        assert all(gate_mask(train, x, t, h).all() for x in train.features)
        np.testing.assert_array_equal(gradient_pass(train, KernelSpec(h), t).counts, n)

    def test_gate_rate_grows_with_sample_size(self):
        rng = np.random.default_rng(3)
        h, t = 0.08, 0.05
        queries = rng.uniform(size=(40, 2))
        rates = []
        for n in (40, 400):
            train = real_dataset(rng.uniform(size=(n, 2)), np.zeros(n))
            hits = [gate_mask(train, q, t, h).mean() for q in queries]
            rates.append(float(np.mean(hits)))
        assert rates[1] > rates[0]


class TestFiniteDiffGradient:
    def test_exact_on_linear(self):
        grad = finite_diff_gradient(lambda x: 3.0 * x[0], np.zeros(3), 0.5, np.ones(3, bool))
        np.testing.assert_allclose(grad, [3.0, 0.0, 0.0])

    def test_exact_on_quadratic(self):
        grad = finite_diff_gradient(lambda x: float(x[0] ** 2), np.array([1.0]), 0.5, [True])
        assert grad[0] == pytest.approx(2.0)

    def test_gated_coordinate_is_zero(self):
        mask = np.array([True, False, True])
        grad = finite_diff_gradient(lambda x: float(x.sum()), np.zeros(3), 0.1, mask)
        np.testing.assert_allclose(grad, [1.0, 0.0, 1.0])

    def test_vector_evaluator_builds_jacobian(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        grad = finite_diff_gradient(lambda x: a.T @ x, np.zeros(3), 0.25, np.ones(3, bool))
        assert grad.shape == (3, 2)
        np.testing.assert_allclose(grad, a)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda x: 0.0, np.zeros(2), 0.0, np.ones(2, bool))


class TestEstimateEgop:
    def test_linear_oracle_recovers_outer_product(self):
        rng = np.random.default_rng(4)
        train = real_dataset(rng.normal(size=(50, 2)), np.zeros(50))
        a = np.array([1.0, 2.0])
        spec = KernelSpec(bandwidth=1.0)
        passed = probed_pass(train, spec, 0.1, lambda q: float(a @ q))
        est = estimate_egop(train, spec, t=0.1, passed=passed)
        assert np.abs(est.g - np.outer(a, a)).max() <= 1e-8
        assert est.kind == "egop"

    def test_rotation_conjugates_oracle_estimate(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        a = np.array([0.5, -1.0, 2.0])
        q = random_rotation(3, seed=11)
        spec = KernelSpec(bandwidth=1.0)
        train = real_dataset(X, np.zeros(40))
        base = estimate_egop(
            train, spec, 0.1, passed=probed_pass(train, spec, 0.1, lambda z: float(a @ z))
        )
        ar = q.T @ a
        turned = real_dataset(X @ q, np.zeros(40))
        rotated = estimate_egop(
            turned, spec, 0.1, passed=probed_pass(turned, spec, 0.1, lambda z: float(ar @ z))
        )
        assert np.abs(rotated.g - q.T @ base.g @ q).max() <= 1e-8

    def test_plugin_matches_explicit_leave_one_out(self):
        train, spec, t = partly_gated()
        fast = estimate_egop(train, spec, t)
        slow = np.zeros((3, 3))
        for _, grad in explicit_loo(
            train, spec, t, lambda rest, z: kernel_regress(rest, spec, z)
        ):
            slow += np.outer(grad, grad)
        np.testing.assert_allclose(fast.g, slow / train.n, atol=1e-12)

    def test_psd_on_random_runs(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            X = rng.uniform(size=(30, 3))
            train = real_dataset(X, rng.normal(size=30))
            est = estimate_egop(train, KernelSpec(bandwidth=0.6), t=0.15)
            assert sym_eig(est.g).values[-1] >= -1e-9

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            estimate_egop(real_dataset([[0.0]], [1.0]), KernelSpec(bandwidth=1.0), 0.1)

    def test_all_gates_false_warns_and_zeroes(self):
        train = real_dataset([[0.0, 0.0], [100.0, 100.0]], [0.0, 1.0])
        with pytest.warns(UserWarning, match=r"on 2 rows at h = 0\.01, t = 5;"):
            est = estimate_egop(train, KernelSpec(bandwidth=0.01), t=5.0)
        np.testing.assert_array_equal(est.g, np.zeros((2, 2)))

    def test_single_index_direction_recovered(self):
        angles = []
        for seed in range(3):
            rng = np.random.default_rng(seed)
            v = rng.normal(size=4)
            v /= np.linalg.norm(v)
            X = rng.uniform(size=(600, 4))
            train = real_dataset(X, np.sin(5.0 * X @ v))
            est = estimate_egop(train, KernelSpec(bandwidth=0.45), t=0.12)
            cos = abs(float(sym_eig(est.g).vectors[:, 0] @ v))
            angles.append(np.degrees(np.arccos(min(1.0, cos))))
        assert np.median(angles) < 15.0

    def test_transform_squares_to_the_estimate(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(40, 3))
        train = real_dataset(X, np.sin(2.0 * X[:, 0] + X[:, 1]))
        est = estimate_egop(train, KernelSpec(bandwidth=0.5), t=0.1)
        T = est.transform()
        np.testing.assert_allclose(T.T @ T, est.g, atol=1e-9)


class TestEstimateGw:
    def test_oracle_single_coordinate(self):
        rng = np.random.default_rng(9)
        train = real_dataset(rng.normal(size=(30, 2)), np.zeros(30))
        spec = KernelSpec(bandwidth=1.0)
        w = estimate_gw(
            train, spec, t=0.1, passed=probed_pass(train, spec, 0.1, lambda q: 3.0 * q[0])
        )
        np.testing.assert_allclose(w, [3.0, 0.0], atol=1e-12)

    def test_plugin_matches_explicit_leave_one_out(self):
        train, spec, t = partly_gated()
        fast = estimate_gw(train, spec, t)
        sums, counts = np.zeros(3), np.zeros(3)
        for mask, grad in explicit_loo(
            train, spec, t, lambda rest, z: kernel_regress(rest, spec, z)
        ):
            sums += np.abs(grad)
            counts += mask
        assert counts.min() > 0
        np.testing.assert_allclose(fast, sums / counts, atol=1e-12)

    def test_nonnegative_always(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            X = rng.uniform(size=(25, 3))
            train = real_dataset(X, rng.normal(size=25))
            w = estimate_gw(train, KernelSpec(bandwidth=0.6), t=0.15)
            assert np.all(w >= 0)

    def test_rotation_spreads_weights_but_not_egop(self):
        rng = np.random.default_rng(3)
        d, n = 4, 800
        X = rng.uniform(size=(n, d))
        y = np.sin(4.0 * X[:, 0])
        q = random_rotation(d, seed=9)
        spec = KernelSpec(bandwidth=0.45)
        t = 0.12
        w_axis = estimate_gw(real_dataset(X, y), spec, t)
        w_rot = estimate_gw(real_dataset(X @ q, y), spec, t)
        # axis-aligned data concentrates the weight mass on the one relevant
        # coordinate; rotation spreads it out
        assert w_axis.max() / w_axis.sum() > 0.6
        assert w_rot.max() / w_rot.sum() < 0.5
        est = estimate_egop(real_dataset(X @ q, y), spec, t)
        relevant = q[0, :] / np.linalg.norm(q[0, :])
        cos = abs(float(sym_eig(est.g).vectors[:, 0] @ relevant))
        assert np.degrees(np.arccos(min(1.0, cos))) < 15.0


class TestEstimateEjop:
    def test_requires_two_classes(self):
        train = class_dataset([[0.0], [1.0]], [1, 1])
        with pytest.raises(ValueError):
            estimate_ejop(train, KernelSpec(bandwidth=1.0), 0.1)

    def test_constant_evaluator_gives_zero_matrix(self):
        train = blobs2(0, n_per=10, d=3)
        spec = KernelSpec(bandwidth=1.0)
        passed = probed_pass(train, spec, 0.1, lambda q: np.array([0.5, 0.5]), temperature=1.0)
        est = estimate_ejop(train, spec, t=0.1, passed=passed)
        np.testing.assert_array_equal(est.g, np.zeros((3, 3)))

    def test_plugin_matches_explicit_leave_one_out(self):
        train, spec, t = partly_gated(CLASS)
        fast = estimate_ejop(train, spec, t, temperature=0.5)
        slow = np.zeros((3, 3))
        for _, jac in explicit_loo(
            train, spec, t, lambda rest, z: kernel_class_probs(rest, spec, z, 0.5)
        ):
            slow += jac @ jac.T
        np.testing.assert_allclose(fast.g, slow / train.n, atol=1e-12)

    def test_psd_on_random_runs(self):
        rng = np.random.default_rng(11)
        for seed in range(4):
            train = blobs2(seed, n_per=20, d=4)
            est = estimate_ejop(train, KernelSpec(bandwidth=2.5), t=0.5)
            assert sym_eig(est.g).values[-1] >= -1e-9
            assert est.kind == "ejop"

    def test_agrees_with_egop_of_class_one_mass(self):
        train = blobs2(0)
        spec = KernelSpec(bandwidth=3.0)
        ej = estimate_ejop(train, spec, t=0.8, temperature=0.2)
        surface = real_dataset(train.features, (train.labels == 1).astype(float))
        eg = estimate_egop(surface, spec, t=0.8)
        cos = abs(float(sym_eig(ej.g).vectors[:, 0] @ sym_eig(eg.g).vectors[:, 0]))
        assert np.degrees(np.arccos(min(1.0, cos))) < 10.0


class TestReliefF:
    def test_requires_classed_data_and_enough_points(self):
        with pytest.raises(ValueError):
            relieff_weights(real_dataset([[0.0]], [1.0]))
        small = class_dataset([[0.0], [1.0], [2.0]], [1, 1, 2])
        with pytest.raises(ValueError):
            relieff_weights(small, k_hits=2)

    def test_constant_feature_scores_zero(self):
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(30, 3))
        feats[:, 1] = 7.0
        labels = np.repeat([1, 2], 15)
        w = relieff_weights(class_dataset(feats, labels), k_hits=3, seed=0)
        assert w[1] == 0.0

    def test_separating_feature_scores_highest(self):
        train = blobs2(3, n_per=40, d=5)
        w = relieff_weights(train, k_hits=5, seed=0)
        assert w.argmax() in (0, 1)
        assert w[:2].min() > w[2:].max()

    def test_deterministic_under_seed(self):
        train = blobs2(4, n_per=20, d=4)
        w1 = relieff_weights(train, k_hits=3, seed=5)
        w2 = relieff_weights(train, k_hits=3, seed=5)
        np.testing.assert_array_equal(w1, w2)


class TestGradientPass:
    def test_gw_and_egop_reduce_one_pass(self):
        train, spec, t = partly_gated()
        passed = gradient_pass(train, spec, t)
        np.testing.assert_array_equal(
            estimate_gw(train, spec, t, passed=passed), estimate_gw(train, spec, t)
        )
        np.testing.assert_array_equal(
            estimate_egop(train, spec, t, passed=passed).g, estimate_egop(train, spec, t).g
        )

    def test_ejop_reduces_its_own_pass(self):
        train, spec, t = partly_gated(CLASS)
        passed = gradient_pass(train, spec, t, temperature=0.5)
        np.testing.assert_array_equal(
            estimate_ejop(train, spec, t, temperature=0.5, passed=passed).g,
            estimate_ejop(train, spec, t, temperature=0.5).g,
        )

    def test_rejects_a_pass_of_other_arguments(self):
        train, spec, t = partly_gated()
        passed = gradient_pass(train, spec, t)
        with pytest.raises(ValueError, match="other data or parameters"):
            estimate_egop(train, spec, t / 2.0, passed=passed)
        with pytest.raises(ValueError, match="other data or parameters"):
            estimate_gw(train, KernelSpec(bandwidth=0.5), t, passed=passed)
        classed, _, _ = partly_gated(CLASS)
        with pytest.raises(ValueError, match="other data or parameters"):
            estimate_ejop(classed, spec, t, passed=passed)

    @pytest.mark.parametrize(
        "estimate, kind, sums",
        [(estimate_gw, REAL, "abs_sums"), (estimate_egop, REAL, "outer"),
         (estimate_ejop, CLASS, "outer")],
    )
    def test_estimators_refuse_non_finite_sums(self, estimate, kind, sums):
        train, spec, t = partly_gated(kind)
        passed = gradient_pass(train, spec, t, None if kind == REAL else 1.0)
        broken = GradientPass(**{**vars(passed), sums: np.full_like(getattr(passed, sums), np.inf)})
        with pytest.raises(ValueError, match=r"gradient pass at h = 0\.35, t = 0\.4 .* not finite"):
            estimate(train, spec, t, passed=broken)


def dyadic_grid(kind):
    """25 points on the 0.25-spaced grid of [0, 1]^2, three of them doubled:
    with t and h multiples of 0.25 every probe of every sample lands on a
    grid point and many points sit exactly h from a probe, and every
    squared distance is exact in floating point."""
    g = np.arange(5) * 0.25
    X = np.array([[a, b] for a in g for b in g])
    X = np.vstack([X, X[[0, 12, 18]]])
    rng = np.random.default_rng(2)
    if kind == REAL:
        return real_dataset(X, rng.normal(size=len(X)))
    labels = np.concatenate([[1, 2, 3], rng.integers(1, 4, size=len(X) - 3)])
    return class_dataset(X, labels)


class TestExactGeometry:
    """Duplicate rows, training points exactly on a probe and points exactly
    h from a probe: the pass agrees with the explicit leave-one-out refit,
    gate for gate."""

    @pytest.mark.parametrize("h, t", [(0.5, 0.25), (0.25, 0.5), (0.25, 0.25)])
    @pytest.mark.parametrize("temperature", [None, 0.5])
    def test_pass_matches_explicit_leave_one_out(self, h, t, temperature):
        train = dyadic_grid(REAL if temperature is None else CLASS)
        spec = KernelSpec(bandwidth=h)

        def plug_in(rest, z):
            if temperature is None:
                return kernel_regress(rest, spec, z)
            return kernel_class_probs(rest, spec, z, temperature)

        passed = gradient_pass(train, spec, t, temperature)
        want = loo_pass(train, spec, t, plug_in, temperature)
        np.testing.assert_array_equal(passed.counts, want.counts)
        np.testing.assert_allclose(passed.outer, want.outer, atol=1e-12)
        np.testing.assert_allclose(passed.abs_sums, want.abs_sums, atol=1e-12)
        for sums in (passed.outer, passed.abs_sums):
            assert np.isfinite(sums).all()

    def test_geometry_is_present(self):
        """The grid holds each case the class above is about."""
        train = dyadic_grid(REAL)
        X = train.features
        x, t, h = X[6], 0.25, 0.5
        on_probe = x + np.array([t, 0.0])
        assert (X == on_probe).all(axis=1).any()
        rim = np.sqrt(np.sum((X - on_probe) ** 2, axis=1))
        assert (rim == h).any()
        assert len(np.unique(X, axis=0)) < train.n

    def test_gate_opens_on_a_point_exactly_h_away(self):
        """With t > h only the middle sample's probes each hold a point, and
        that point sits exactly h away; a smaller h closes every gate."""
        train = real_dataset([[-1.25], [0.0], [1.25]], [1.0, 0.0, 2.0])
        t = 0.75
        np.testing.assert_array_equal(gate_mask(train, [0.0], t, 0.5), [True])
        np.testing.assert_array_equal(gradient_pass(train, KernelSpec(0.5), t).counts, [1.0])
        with pytest.warns(UserWarning, match="every density gate failed"):
            closed = gradient_pass(train, KernelSpec(0.4375), t)
        np.testing.assert_array_equal(closed.counts, [0.0])


class TestConsistencyTrend:
    def test_estimate_gap_shrinks_with_sample_size(self):
        spec = KernelSpec(bandwidth=0.6)
        step = 0.15
        gaps = {250: [], 500: [], 1000: []}
        for seed in range(5):
            cache = {}
            for n in (250, 500, 1000, 2000, 4000):
                ds = synth_sin(n, 5, c1=5.0, decay=0.5, noise_std=0.1, seed=seed)
                cache[n] = estimate_egop(ds, spec, step).g
            for n in gaps:
                gaps[n].append(float(np.linalg.norm(cache[n] - cache[4 * n])))
        medians = [np.median(gaps[n]) for n in (250, 500, 1000)]
        assert medians[0] > medians[1] > medians[2]
