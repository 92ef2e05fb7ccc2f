"""Regression-loss bounds, sort-based inference, and the regression trainer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnmetric.bruteforce import brute_reg_inference
from nnmetric.dataset import REAL, Dataset, synth_sin
from nnmetric.gerrymander import InfeasibleTargetError, MahalanobisMetric
from nnmetric.predictors import NeighborRule, evaluate, predict_batch
from nnmetric.regression_ml import (
    RegTrainConfig,
    delta_reg,
    delta_reg_ub,
    hstar_alternate,
    metric_reg_predictions,
    reg_inference_core,
    reg_surrogate_core,
    train_reg_sgd,
)


def make_reg_dataset(features, targets):
    return Dataset(
        features=np.asarray(features, dtype=float),
        labels=np.asarray(targets, dtype=float),
        kind=REAL,
    )


def random_reg_instance(rng, n_max=12, k_max=5, d=3):
    n = int(rng.integers(3, n_max + 1))
    k = int(rng.integers(1, min(k_max, n) + 1))
    features = rng.normal(size=(n, d))
    targets = rng.normal(size=n) * 2.0
    a = rng.normal(size=(d, d))
    w = a.T @ a
    x = rng.normal(size=d)
    diff = features - x
    dists = np.einsum("ij,jk,ik->i", diff, w, diff)
    y = float(rng.normal() * 2.0)
    return dists, targets, y, k


class TestLosses:
    def test_delta_reg_examples(self):
        assert delta_reg(1.0, [0, 1], [1.0, 1.0]) == 0.0
        assert delta_reg(0.0, [0, 1], [1.0, -1.0]) == 0.0
        assert delta_reg(0.0, [0, 1], [2.0, 4.0]) == 9.0

    def test_upper_bound_examples(self):
        assert delta_reg_ub(0.0, [0, 1], [1.0, -1.0]) == 1.0
        assert delta_reg_ub(3.0, [0, 1, 2], [3.0, 3.0, 3.0]) == 0.0

    def test_bound_dominates_on_1000_draws(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            k = int(rng.integers(1, 8))
            targets = rng.normal(size=k) * rng.uniform(0.1, 5.0)
            y = float(rng.normal() * 3.0)
            h = np.arange(k)
            assert delta_reg_ub(y, h, targets) >= delta_reg(y, h, targets) - 1e-12

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=10),
        st.floats(-100, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_bound_dominates_property(self, targets, y):
        h = np.arange(len(targets))
        assert delta_reg_ub(y, h, targets) >= delta_reg(y, h, targets) - 1e-9


class TestRegInference:
    def test_gamma_zero_is_plain_knn(self):
        dists = np.array([3.0, 1.0, 2.0, 0.5])
        targets = np.array([0.0, 10.0, -10.0, 5.0])
        h = reg_inference_core(dists, targets, 0.0, 2, 0.0, "targeted")
        assert sorted(h.tolist()) == [1, 3]

    def test_large_gamma_targeted_matches_targets(self):
        dists = np.array([0.1, 0.2, 0.3, 0.4])
        targets = np.array([5.0, -5.0, 1.01, 0.99])
        h = reg_inference_core(dists, targets, 1.0, 2, 1e6, "targeted")
        assert sorted(h.tolist()) == [2, 3]

    def test_large_gamma_augmented_prefers_far_targets(self):
        dists = np.array([0.1, 0.2, 0.3, 0.4])
        targets = np.array([5.0, -5.0, 1.01, 0.99])
        h = reg_inference_core(dists, targets, 1.0, 2, 1e6, "loss_augmented")
        assert sorted(h.tolist()) == [0, 1]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            dists, targets, y, k = random_reg_instance(rng)
            gamma = float(rng.uniform(0.0, 10.0))
            for direction in ("targeted", "loss_augmented"):
                h = reg_inference_core(dists, targets, y, k, gamma, direction)
                sign = -1.0 if direction == "targeted" else 1.0
                got = -dists[h].sum() + sign * gamma * delta_reg_ub(y, h, targets)
                _, expected = brute_reg_inference(dists, targets, y, k, gamma, direction)
                assert got == pytest.approx(expected, abs=1e-9)

    def test_excluded_points_never_selected(self):
        dists = np.array([np.inf, 1.0, 2.0])
        targets = np.array([0.0, 1.0, 2.0])
        h = reg_inference_core(dists, targets, 0.0, 2, 1.0, "loss_augmented")
        assert 0 not in h.tolist()

    def test_too_few_candidates_raises(self):
        dists = np.array([np.inf, 1.0])
        with pytest.raises(InfeasibleTargetError):
            reg_inference_core(dists, np.array([0.0, 1.0]), 0.0, 2, 1.0, "targeted")

    @pytest.mark.parametrize("case", ["fewer_rows_than_k", "plus_inf_member",
                                      "minus_inf_member", "nan_member"])
    def test_a_set_with_a_score_not_finite_raises(self, case):
        """The set of k best scores is infeasible when its worst member is
        +inf or NaN (fewer than k finite scores) or its best is -inf."""
        dists = {
            "fewer_rows_than_k": [1.0],
            "plus_inf_member": [0.5, np.inf, np.inf],
            "minus_inf_member": [-np.inf, 1.0, 2.0],
            "nan_member": [0.5, np.nan, np.nan],
        }[case]
        dists = np.array(dists)
        for direction in ("targeted", "loss_augmented"):
            with pytest.raises(InfeasibleTargetError):
                reg_inference_core(dists, np.zeros(len(dists)), 0.0, 2, 1.0, direction)

    def test_a_nan_score_is_never_a_member(self):
        dists = np.array([np.nan, 2.0, np.nan, 1.0])
        h = reg_inference_core(dists, np.zeros(4), 0.0, 2, 1.0, "targeted")
        assert h.tolist() == [3, 1]

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            reg_inference_core(np.array([1.0]), np.array([1.0]), 0.0, 1, 1.0, "sideways")

    def test_gamma_monotonically_tightens_targeted_gap(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            dists, targets, y, k = random_reg_instance(rng, n_max=10)
            gaps = []
            for gamma in np.logspace(-5, 2, 8):
                h = reg_inference_core(dists, targets, y, k, float(gamma), "targeted")
                gaps.append(delta_reg_ub(y, h, targets))
            assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_leave_one_out_under_a_metric(self):
        # the trainer's leave-one-out: the query's own row at infinite distance
        train = make_reg_dataset([[0.0], [0.1], [5.0]], [1.0, 2.0, 3.0])
        dists = MahalanobisMetric(w=np.eye(1)).distances([0.0], train.features)
        dists[0] = np.inf
        h = reg_inference_core(dists, train.labels, 1.0, 2, 0.0, "targeted")
        assert 0 not in h.tolist()


class TestSurrogate:
    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            d = 3
            n = int(rng.integers(4, 10))
            train = make_reg_dataset(rng.normal(size=(n, d)), rng.normal(size=n))
            a = rng.normal(size=(d, d))
            dists = MahalanobisMetric(w=a.T @ a).distances(rng.normal(size=d), train.features)
            value, _, _ = reg_surrogate_core(
                dists, train.labels, float(rng.normal()), 2, float(rng.uniform(0, 5))
            )
            assert value >= -1e-9

    def test_zero_when_gamma_zero(self):
        train = make_reg_dataset([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
        dists = MahalanobisMetric(w=np.eye(1)).distances([0.2], train.features)
        assert reg_surrogate_core(dists, train.labels, 0.5, 2, 0.0)[0] == pytest.approx(0.0)


def old_formula_top_k(dists, targets, y, k, gamma, direction):
    """The top-k by (descending score, index) of the per-point scores
    -D -+ gamma (y - y_i)^2 / k, formed in one expression and sorted
    explicitly; None when fewer than k are finite."""
    sign = -1.0 if direction == "targeted" else 1.0
    scores = -dists + sign * gamma * (y - targets) ** 2 / k
    ranked = sorted((i for i in range(len(scores)) if np.isfinite(scores[i])),
                    key=lambda i: (-scores[i], i))
    return ranked[:k] if len(ranked) >= k else None


# few distinct values, so scores tie; inf marks an excluded point
_tie_floats = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                        st.floats(-100.0, 100.0, allow_nan=False))


@st.composite
def shared_gap_instances(draw):
    n = draw(st.integers(1, 9))
    dists = np.array(draw(st.lists(st.one_of(_tie_floats.map(abs), st.just(np.inf)),
                                   min_size=n, max_size=n)))
    targets = np.array(draw(st.lists(_tie_floats, min_size=n, max_size=n)))
    y = draw(_tie_floats)
    k = draw(st.integers(1, n + 1))
    gamma = draw(st.one_of(st.sampled_from([0.0, 1.0, 3.0]), st.floats(0.01, 10.0)))
    return dists, targets, y, k, gamma


class TestSharedGaps:
    """reg_surrogate_core forms gamma (y - targets)^2 / k once and hands it
    to both inference calls; its sets and value must be bit for bit those of
    the one-expression scores and delta_reg_ub."""

    @given(shared_gap_instances(), st.sampled_from(["targeted", "loss_augmented"]))
    @settings(max_examples=300, deadline=None)
    def test_inference_with_and_without_gaps(self, instance, direction):
        dists, targets, y, k, gamma = instance
        gaps = gamma * (y - targets) ** 2 / k
        want = old_formula_top_k(dists, targets, y, k, gamma, direction)
        for kwargs in ({}, {"gaps": gaps}):
            if want is None:
                with pytest.raises(InfeasibleTargetError):
                    reg_inference_core(dists, targets, y, k, gamma, direction, **kwargs)
            else:
                got = reg_inference_core(dists, targets, y, k, gamma, direction, **kwargs)
                assert got.tolist() == want

    @given(shared_gap_instances(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_surrogate_bytes_match_delta_reg_ub_formula(self, instance, given_h_star):
        dists, targets, y, k, gamma = instance
        if old_formula_top_k(dists, targets, y, k, gamma, "targeted") is None:
            return
        h_star = None
        if given_h_star:  # as the alternate h* rules hand one in
            h_star = np.array(sorted(np.flatnonzero(np.isfinite(dists))[::-1][:k]))
        value, h_hat, h_star_out = reg_surrogate_core(dists, targets, y, k, gamma, h_star)
        want_hat = reg_inference_core(dists, targets, y, k, gamma, "loss_augmented")
        want_star = (reg_inference_core(dists, targets, y, k, gamma, "targeted")
                     if h_star is None else h_star)
        assert h_hat.tolist() == want_hat.tolist()
        assert h_star_out.tolist() == want_star.tolist()
        up = -dists[want_hat].sum() + gamma * delta_reg_ub(y, want_hat, targets)
        down = -dists[want_star].sum() - gamma * delta_reg_ub(y, want_star, targets)
        assert np.float64(value).tobytes() == np.float64(float(up - down)).tobytes()


def swap_loop_hstar(dists, targets, y, k):
    """hstar_alternate with one delta_reg call per swap candidate, in
    (distance, index) order: the reference for its vectorized swap scan."""
    finite = [i for i in range(len(dists)) if np.isfinite(dists[i])]
    if len(finite) < k:
        raise InfeasibleTargetError("too few candidates")
    gap_order = np.lexsort((dists, np.abs(targets - y)))
    h = [i for i in gap_order if np.isfinite(dists[i])][:k]
    for _ in range(5 * k):
        current = delta_reg(y, h, targets)
        sel = targets[h]
        pos = int(np.argmax((sel - y) * np.sign(sel.mean() - y)))
        for i in sorted((i for i in finite if i not in h), key=lambda i: (dists[i], i)):
            trial = h[:pos] + h[pos + 1 :] + [i]
            if delta_reg(y, trial, targets) < current - 1e-15:
                h = trial
                break
        else:
            break
    return sorted(h, key=lambda i: (dists[i], i))


class TestAlternateHStar:
    def test_matches_swap_loop_reference(self):
        rng = np.random.default_rng(21)
        swapped = infeasible = 0
        for _ in range(300):
            n = int(rng.integers(3, 40))
            k = int(rng.integers(1, min(n, 12) + 1))
            # rounded values give distance and target ties; excluding n - k + 1
            # points leaves too few candidates
            dists = np.round(rng.uniform(size=n), int(rng.integers(1, 4)))
            dists[rng.choice(n, size=int(rng.integers(0, n - k + 2)), replace=False)] = np.inf
            targets = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
            y = float(np.round(rng.normal(), 1))
            try:
                want = swap_loop_hstar(dists, targets, y, k)
            except InfeasibleTargetError:
                with pytest.raises(InfeasibleTargetError):
                    hstar_alternate(dists, targets, y, k)
                infeasible += 1
                continue
            got = hstar_alternate(dists, targets, y, k).tolist()
            assert got == [int(i) for i in want]
            gap_order = np.lexsort((dists, np.abs(targets - y)))
            start = [i for i in gap_order if np.isfinite(dists[i])][:k]
            swapped += sorted(got) != sorted(start)
        assert swapped > 10 and infeasible > 0

    def test_min_loss_picks_nearest_targets(self):
        train = make_reg_dataset(
            [[0.0], [1.0], [2.0], [3.0]], [0.9, 1.1, 5.0, 6.0]
        )
        dists = MahalanobisMetric(w=np.eye(1)).distances([2.0], train.features)
        h = hstar_alternate(dists, train.labels, 1.0, 2)
        assert sorted(h.tolist()) == [0, 1]

    def test_variant_validation(self):
        for hstar in ("upper_bound", "min_loss"):
            assert RegTrainConfig(k=1, hstar=hstar).hstar == hstar
        with pytest.raises(ValueError):
            RegTrainConfig(k=1, hstar="exact")


class TestTrainer:
    def test_requires_real_targets(self):
        from nnmetric.dataset import CLASS

        classed = Dataset(
            features=np.zeros((4, 2)), labels=np.array([1, 1, 2, 2]), kind=CLASS
        )
        with pytest.raises(ValueError):
            train_reg_sgd(classed, RegTrainConfig(k=1, epochs=1))

    def test_psd_audit_over_full_run(self):
        rng = np.random.default_rng(97)
        train = make_reg_dataset(rng.normal(size=(30, 3)), rng.normal(size=30))
        config = RegTrainConfig(k=3, gamma=1.0, epochs=3, stop_rel_tol=None)
        result = train_reg_sgd(train, config, audit_psd=True)
        assert len(result.psd_audit) > 0
        assert min(result.psd_audit) >= -1e-9

    def test_learns_on_sin_data(self):
        # low frequencies keep the target learnable at this sample size, with
        # the trailing coordinates contributing almost nothing but distance
        train = synth_sin(150, 5, c1=2.0, decay=0.25, noise_std=0.05, seed=3)
        test = synth_sin(100, 5, c1=2.0, decay=0.25, noise_std=0.05, seed=103)
        config = RegTrainConfig(k=5, gamma=1.0, c=1.0, epochs=10, seed=0)
        result = train_reg_sgd(train, config)
        rule = NeighborRule("knn", k=5)
        base_pred = predict_batch(train, None, test.features, rule)
        base = evaluate(base_pred, test.labels, "regress").value
        learned_pred = metric_reg_predictions(result.metric, train, test.features, 5)
        learned = evaluate(learned_pred, test.labels, "regress").value
        assert learned < base

    def test_min_loss_variant_runs(self):
        rng = np.random.default_rng(107)
        train = make_reg_dataset(rng.normal(size=(15, 2)), rng.normal(size=15))
        config = RegTrainConfig(k=2, gamma=1.0, epochs=2, hstar="min_loss",
                                stop_rel_tol=None)
        result = train_reg_sgd(train, config)
        assert result.epochs_run == 2
        assert np.isfinite(result.metric.w).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RegTrainConfig(k=0)
        with pytest.raises(ValueError):
            RegTrainConfig(k=1, gamma=-1.0)
