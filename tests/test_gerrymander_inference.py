"""Greedy neighbor-set inference against exhaustive enumeration."""

import itertools
import time

import numpy as np
import pytest

from nnmetric.bruteforce import (
    brute_loss_augmented,
    brute_targeted,
    brute_unconstrained,
    max_tied_loss,
    score,
    shared_winners,
)
from nnmetric.dataset import CLASS, Dataset
from nnmetric.gerrymander import (
    AsymmetricMetric,
    _candidates,
    InfeasibleTargetError,
    MahalanobisMetric,
    loss_augmented_inference_core,
    n_star,
    surrogate_core,
    targeted_inference_core,
)
from nnmetric.numerics import psd_project
from nnmetric.predictors import vote


def make_class_dataset(features, labels):
    return Dataset(
        features=np.asarray(features, dtype=float),
        labels=np.asarray(labels, dtype=int),
        kind=CLASS,
    )


def random_instance(rng, n_max=12, k_max=5, r_max=4, d=3):
    n = int(rng.integers(4, n_max + 1))
    r = int(rng.integers(2, r_max + 1))
    labels = rng.integers(1, r + 1, size=n)
    # force every class to appear so class ids stay contiguous
    labels[: r] = np.arange(1, r + 1)
    features = rng.normal(size=(n, d))
    a = rng.normal(size=(d, d))
    w = a.T @ a
    x = rng.normal(size=d)
    k = int(rng.integers(1, min(k_max, n - 1) + 1))
    return features, labels, w, x, k


class TestScore:
    def test_identity_metric_two_points(self):
        train = make_class_dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1, 1, 2])
        metric = MahalanobisMetric(w=np.eye(2))
        assert score(metric, [0.0, 0.0], [1, 2], train) == pytest.approx(-2.0)

    def test_diagonal_weights(self):
        train = make_class_dataset([[1.0, 0.0], [0.0, 1.0]], [1, 2])
        metric = MahalanobisMetric(w=np.diag([2.0, 1.0]))
        assert score(metric, [0.0, 0.0], [0, 1], train) == pytest.approx(-3.0)

    def test_asymmetric_identity_matches_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            features = rng.normal(size=(6, 4))
            train = make_class_dataset(features, [1, 2, 1, 2, 1, 2])
            x = rng.normal(size=4)
            h = rng.choice(6, size=3, replace=False)
            sym = score(MahalanobisMetric(w=np.eye(4)), x, h, train)
            asym = score(AsymmetricMetric(u=np.eye(4), v=np.eye(4)), x, h, train)
            assert sym == pytest.approx(asym, abs=1e-10)

    def test_asym_block_matrix_psd_for_random_uv(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = rng.normal(size=(3, 5))
            v = rng.normal(size=(3, 5))
            stacked = np.hstack([u, -v])  # the block is stacked^T stacked
            block = stacked.T @ stacked
            assert np.min(np.linalg.eigvalsh(block)) >= -1e-9


class TestTaskLoss:
    def test_tied_loss_takes_worst_winner(self):
        # one vote each for classes 1 and 3: the worst winner for y=1 is class 3
        assert max_tied_loss(1, [1, 3]) == 1.0
        assert max_tied_loss(3, [1, 3]) == 1.0
        # y=1 wins alone, with or without a vote for another class
        assert max_tied_loss(1, [1, 1, 3]) == 0.0
        assert max_tied_loss(1, [1]) == 0.0
        assert max_tied_loss(3, [1, 1, 3]) == 1.0


class TestNStar:
    def test_examples(self):
        assert n_star(2, 3, ties_forbidden=True) == 2
        assert n_star(3, 9, ties_forbidden=False) == 3
        assert n_star(10, 7, ties_forbidden=True) == 2
        assert n_star(2, 1, ties_forbidden=True) == 1
        assert n_star(3, 5, ties_forbidden=True) == 3

    def test_matches_ceiling_formula(self):
        for r in range(2, 6):
            for k in range(1, 12):
                for tau in (0, 1):
                    expected = int(np.ceil((k + tau * (r - 1)) / r))
                    assert n_star(r, k, ties_forbidden=bool(tau)) == expected

    def test_necessity_exhaustive(self):
        # n_star - 1 copies of the target class can never produce a strict
        # win, and n_star copies always admit a completion that does.
        start = time.monotonic()
        for r in (2, 3, 4):
            for k in range(1, 8):
                need = n_star(r, k, ties_forbidden=True)
                others = list(range(r - 1))
                # every assignment of the leftover votes beats need - 1
                for combo in itertools.product(others, repeat=k - (need - 1)):
                    counts = [0] * (r - 1)
                    for c in combo:
                        counts[c] += 1
                    assert max(counts) >= need - 1
                # round-robin filling shows need itself suffices
                counts = [0] * (r - 1)
                for i in range(k - need):
                    counts[i % (r - 1)] += 1
                assert all(cnt < need for cnt in counts)
        assert time.monotonic() - start < 5.0


class TestTargetedInference:
    def test_worked_example(self):
        # class 1 at distances 1 and 4, class 2 at 2 and 3, k=3, no ties:
        # need two class-1 points, then the nearest remaining fits
        dists = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([1, 2, 2, 1])
        h = targeted_inference_core(dists, labels, target=1, k=3, tau=1)
        assert list(h) == [0, 1, 3]
        assert dists[h].sum() == pytest.approx(7.0)

    def test_tau_zero_takes_nearest_filler(self):
        dists = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([1, 2, 2, 1])
        h = targeted_inference_core(dists, labels, target=1, k=3, tau=0)
        # one class-1 seed suffices when ties count as wins, but adding the
        # two nearest class-2 points would outvote; greedy keeps balance
        selected = labels[h]
        counts = np.bincount(selected, minlength=3)
        assert counts[1] >= counts[2]

    def test_result_votes_for_target(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            features, labels, w, x, k = random_instance(rng)
            diff = features - x
            dists = np.einsum("ij,jk,ik->i", diff, w, diff)
            for target in np.unique(labels):
                for tau in (0, 1):
                    try:
                        h = targeted_inference_core(dists, labels, int(target), k, tau)
                    except InfeasibleTargetError:
                        continue
                    counts = np.bincount(labels[h], minlength=labels.max() + 1)
                    top = counts.max()
                    if tau == 1:
                        assert counts[target] == top
                        assert np.sum(counts == top) == 1
                    else:
                        assert counts[target] == top

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        checked = 0
        start = time.monotonic()
        while checked < 200:
            features, labels, w, x, k = random_instance(rng)
            diff = features - x
            dists = np.einsum("ij,jk,ik->i", diff, w, diff)
            for target in np.unique(labels):
                for tau in (0, 1):
                    expected = brute_targeted(dists, labels, int(target), k, tau)
                    try:
                        h = targeted_inference_core(dists, labels, int(target), k, tau)
                    except InfeasibleTargetError:
                        assert expected is None
                        continue
                    assert expected is not None
                    got = -float(dists[h].sum())
                    assert got == pytest.approx(expected[1], abs=1e-9)
            checked += 1
        assert time.monotonic() - start < 30.0

    def test_infeasible_when_class_absent(self):
        dists = np.array([1.0, 2.0, 3.0])
        labels = np.array([1, 1, 1])
        with pytest.raises(InfeasibleTargetError):
            targeted_inference_core(dists, labels, target=2, k=2, tau=1)

    def test_infeasible_when_too_few_target_points(self):
        dists = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([1, 2, 2, 2])
        # strict win for class 1 with k=3 needs two class-1 points
        with pytest.raises(InfeasibleTargetError):
            targeted_inference_core(dists, labels, target=1, k=3, tau=1)

    def test_excluded_points_ignored(self):
        dists = np.array([np.inf, 1.0, 2.0])
        labels = np.array([1, 1, 2])
        h = targeted_inference_core(dists, labels, target=1, k=1, tau=1)
        assert list(h) == [1]

    def test_too_few_candidates(self):
        dists = np.array([np.inf, 1.0])
        labels = np.array([1, 1])
        with pytest.raises(InfeasibleTargetError):
            targeted_inference_core(dists, labels, target=1, k=2, tau=1)


class TestLossAugmentedInference:
    def test_hand_example(self):
        # y=1; picking the two nearest class-2 points pays distance 3 and
        # earns loss 1; any 1-winning pair costs at least distance 5
        dists = np.array([4.0, 1.0, 2.0, 5.0])
        labels = np.array([1, 2, 2, 1])
        h, value = loss_augmented_inference_core(dists, labels, 1, 2)
        assert sorted(labels[h]) == [2, 2]
        assert value == pytest.approx(-3.0 + 1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(37)
        checked = 0
        start = time.monotonic()
        while checked < 200:
            features, labels, w, x, k = random_instance(rng)
            diff = features - x
            dists = np.einsum("ij,jk,ik->i", diff, w, diff)
            y = int(rng.choice(labels))
            expected = brute_loss_augmented(dists, labels, y, k)
            h, value = loss_augmented_inference_core(dists, labels, y, k)
            assert value == pytest.approx(expected[1], abs=1e-9)
            checked += 1
        assert time.monotonic() - start < 30.0

    def test_class_tie_prefers_smaller_id(self):
        # classes 1 and 2 offer identical value for a true class 3
        dists = np.array([1.0, 1.0, 0.5])
        labels = np.array([1, 2, 3])
        h, _ = loss_augmented_inference_core(dists, labels, 3, 1)
        assert labels[h[0]] == 1


class TestNoFinitePoint:
    """A metric that overflowed leaves no finite distance; every core says
    so with InfeasibleTargetError, not a division by zero."""

    @pytest.mark.parametrize("core", ["targeted", "loss_augmented", "surrogate"])
    def test_all_infinite_distances_are_infeasible(self, core):
        dists = np.full(5, np.inf)
        labels = np.array([1, 2, 1, 2, 1])
        with pytest.raises(InfeasibleTargetError):
            if core == "targeted":
                targeted_inference_core(dists, labels, target=1, k=2, tau=1)
            elif core == "loss_augmented":
                loss_augmented_inference_core(dists, labels, 1, 2)
            else:
                surrogate_core(dists, labels, 1, 2)


class TestSurrogate:
    def test_single_class_pool_is_zero(self):
        train = make_class_dataset([[0.0], [1.0], [2.0]], [1, 1, 1])
        metric = MahalanobisMetric(w=np.eye(1))
        dists = metric.distances([0.1], train.features)
        value, _, _ = surrogate_core(dists, train.labels, 1, 2)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_four_points(self):
        train = make_class_dataset([[1.0], [2.0], [4.0], [5.0]], [1, 2, 2, 1])
        metric = MahalanobisMetric(w=np.eye(1))
        # query 0, y=1, k=2: distances 1, 4, 16, 25.  The only strictly
        # 1-voting pair is {x1, x4} scoring -26; the offender is {x1, x2},
        # a tie whose worst winner is class 2, scoring -5 + 1
        dists = metric.distances([0.0], train.features)
        value, _, _ = surrogate_core(dists, train.labels, 1, 2)
        assert value == pytest.approx((-5.0 + 1.0) - (-26.0))

    def test_nonnegative_and_bounds_task_loss(self):
        rng = np.random.default_rng(53)
        start = time.monotonic()
        for _ in range(500):
            features, labels, w, x, k = random_instance(rng)
            diff = features - x
            dists = np.einsum("ij,jk,ik->i", diff, w, diff)
            y = int(rng.choice(labels))
            try:
                value, _, _ = surrogate_core(dists, labels, y, k)
            except InfeasibleTargetError:
                continue
            assert value >= -1e-9
            topk, _ = brute_unconstrained(dists, k)
            assert value >= max_tied_loss(y, labels[topk]) - 1e-9
        assert time.monotonic() - start < 60.0

    def test_augmented_term_dominates_every_set(self):
        # the maximizer's value must top score + tied loss of arbitrary sets
        rng = np.random.default_rng(59)
        for _ in range(50):
            features, labels, w, x, k = random_instance(rng, n_max=9, k_max=3)
            diff = features - x
            dists = np.einsum("ij,jk,ik->i", diff, w, diff)
            y = int(rng.choice(labels))
            _, value = loss_augmented_inference_core(dists, labels, y, k)
            for combo in itertools.combinations(range(len(labels)), k):
                other = -float(dists[list(combo)].sum()) + max_tied_loss(y, labels[list(combo)])
                assert value >= other - 1e-9


def loo_instance(rng, n_max=10, k_max=5):
    """Leave-one-out distances as a trainer sees them: the queried point and
    sometimes others at inf, integer distances with many ties (as Hamming
    distances have) in half the draws, and sometimes a class whose only
    member is the queried point."""
    n = int(rng.integers(5, n_max + 1))
    r = int(rng.integers(2, 5))
    labels = np.concatenate([np.arange(1, r + 1), rng.integers(1, r + 1, size=n - r)])
    labels = labels[rng.permutation(n)].astype(int)
    i = int(rng.integers(0, n))
    if rng.random() < 0.3:  # the queried point is its class's only member
        lone = labels[i]
        labels[labels == lone] = lone % r + 1
        labels[i] = lone
    if rng.random() < 0.5:
        dists = rng.integers(0, 4, size=n).astype(float)
    else:
        dists = rng.random(n)
    dists[rng.choice(n, size=int(rng.integers(0, 3)), replace=False)] = np.inf
    dists[i] = np.inf
    k = int(rng.integers(1, min(k_max, n - 1) + 1))
    return dists, labels, int(labels[i]), k, r


def loop_targeted(dists, labels, target, k, tau):
    """Reference targeted inference: the per-m greedy fill as a plain loop
    over the whole finite pool, each non-target class capped at m - tau."""
    order = [i for i in np.argsort(dists, kind="stable") if np.isfinite(dists[i])]
    if len(order) < k:
        return None
    need = n_star(len({labels[i] for i in order}), k, ties_forbidden=bool(tau))
    target_sorted = [i for i in order if labels[i] == target]
    best_h, best_total = None, np.inf
    for m in range(need, min(k, len(target_sorted)) + 1):
        fill, counts = [], {}
        for i in order:
            if len(fill) < k - m and labels[i] != target and counts.get(labels[i], 0) < m - tau:
                fill.append(i)
                counts[labels[i]] = counts.get(labels[i], 0) + 1
        if len(fill) == k - m:
            h = np.array(target_sorted[:m] + fill, dtype=int)
            if float(dists[h].sum()) < best_total:
                best_h, best_total = h, float(dists[h].sum())
    return None if best_h is None else best_h[np.lexsort((best_h, dists[best_h]))]


def loop_inference(dists, labels, y, k):
    """Reference (h-hat, its value, h*) built on :func:`loop_targeted`: the
    best tau=0 set of each class with a finite point, valued on its
    nearest-first order, the first maximum class, and h* at tau=1; None for
    an infeasible part."""
    best_h, best_value = None, -np.inf
    for r in sorted({int(labels[i]) for i in np.flatnonzero(np.isfinite(dists))}):
        h = loop_targeted(dists, labels, r, k, 0)
        if h is not None:
            value = -float(dists[h].sum()) + float(r != y)
            if value > best_value:
                best_h, best_value = h, value
    return best_h, best_value, loop_targeted(dists, labels, y, k, 1)


class TestLeaveOneOutInstances:
    """Cases the ``inference`` oracle stream never draws: excluded points,
    integer ties, a class present only at the excluded point."""

    def test_cores_match_brute_force(self):
        rng = np.random.default_rng(71)
        start = time.monotonic()
        for _ in range(150):
            dists, labels, y, k, r = loo_instance(rng)
            for target in range(1, r + 1):
                for tau in (0, 1):
                    expected = brute_targeted(dists, labels, target, k, tau)
                    try:
                        h = targeted_inference_core(dists, labels, target, k, tau)
                    except InfeasibleTargetError:
                        assert expected is None
                        continue
                    assert expected is not None
                    assert -float(dists[h].sum()) == pytest.approx(expected[1], abs=1e-9)
            augmented = brute_loss_augmented(dists, labels, y, k)
            if augmented is None:  # fewer than k finite distances
                with pytest.raises(InfeasibleTargetError):
                    surrogate_core(dists, labels, y, k)
                continue
            _, value = loss_augmented_inference_core(dists, labels, y, k)
            assert value == pytest.approx(augmented[1], abs=1e-9)
            star = brute_targeted(dists, labels, y, k, 1)
            try:
                surrogate, _, _ = surrogate_core(dists, labels, y, k)
            except InfeasibleTargetError:
                assert star is None
                continue
            assert surrogate == pytest.approx(augmented[1] - star[1], abs=1e-9)
        assert time.monotonic() - start < 60.0

    def test_passed_candidates_give_the_loop_sets(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            dists, labels, y, k, r = loo_instance(rng)
            cands = _candidates(dists, labels, k)
            assert np.all(cands.rank < k)
            for target in range(1, r + 1):
                for tau in (0, 1):
                    want = loop_targeted(dists, labels, target, k, tau)
                    try:
                        built = targeted_inference_core(dists, labels, target, k, tau)
                    except InfeasibleTargetError:
                        assert want is None
                        with pytest.raises(InfeasibleTargetError):
                            targeted_inference_core(dists, labels, target, k, tau, cands)
                        continue
                    passed = targeted_inference_core(dists, labels, target, k, tau, cands)
                    assert np.array_equal(built, want) and np.array_equal(passed, want)
            if cands.n_finite < k:
                continue
            h_built, v_built = loss_augmented_inference_core(dists, labels, y, k)
            h_passed, v_passed = loss_augmented_inference_core(dists, labels, y, k, cands)
            assert np.array_equal(h_built, h_passed) and v_built == v_passed

    def test_cores_equal_the_plain_loop_bit_for_bit(self):
        """The same sets and the same float bits as the per-class, per-m
        loop.  k reaches 12 because numpy sums 8 or more terms in pairwise
        blocks, so the order each set's terms are added in shows from there."""
        rng = np.random.default_rng(79)
        pairwise = {"h_hat": 0, "h_star": 0}
        for _ in range(600):
            dists, labels, y, k, _ = loo_instance(rng, n_max=20, k_max=12)
            # the integer draws become tenths, whose sums tie in exact
            # arithmetic but not in floating point, so the order a sum adds
            # its terms in can pick the set
            dists = 0.1 * dists
            want_hat, want_value, want_star = loop_inference(dists, labels, y, k)
            if want_hat is None:
                with pytest.raises(InfeasibleTargetError):
                    loss_augmented_inference_core(dists, labels, y, k)
                continue
            h_hat, value = loss_augmented_inference_core(dists, labels, y, k)
            assert np.array_equal(h_hat, want_hat)
            assert value.hex() == want_value.hex()
            pairwise["h_hat"] += k >= 8
            if want_star is None:
                with pytest.raises(InfeasibleTargetError):
                    surrogate_core(dists, labels, y, k)
                continue
            surrogate, h_hat, h_star = surrogate_core(dists, labels, y, k)
            assert np.array_equal(h_hat, want_hat) and np.array_equal(h_star, want_star)
            assert surrogate.hex() == (want_value + float(dists[want_star].sum())).hex()
            pairwise["h_star"] += k >= 8
        assert min(pairwise.values()) >= 50, pairwise


class TestBruteForceInternals:
    def test_unconstrained_is_plain_topk(self):
        dists = np.array([3.0, 1.0, 2.0, 0.5])
        h, s = brute_unconstrained(dists, 2)
        assert list(h) == [3, 1]
        assert s == pytest.approx(-1.5)

    def test_vote_agreement_with_predictor(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            labels = rng.integers(1, 4, size=6)
            h = rng.choice(6, size=3, replace=False)
            y = int(rng.integers(1, 4))
            predicted = vote(labels[h], labels)
            assert predicted in shared_winners(labels[h], 3)
            assert max_tied_loss(y, labels[h]) >= float(predicted != y)
            assert (max_tied_loss(y, labels[h]) == 0.0) == (shared_winners(labels[h], 3) == [y])


class TestMahalanobisDistances:
    @pytest.mark.parametrize("case", ["random_psd", "rank_deficient", "d1"])
    def test_equal_the_per_row_quadratic_form(self, case):
        rng = np.random.default_rng(83)
        d = 1 if case == "d1" else 6
        a = rng.normal(size=(d, d))
        w = psd_project(a + a.T) if case == "rank_deficient" else a.T @ a
        if case == "rank_deficient":
            assert np.linalg.matrix_rank(w) < d
        features = 3.0 * rng.normal(size=(200, d))
        x = rng.normal(size=d)
        got = MahalanobisMetric(w=w).distances(x, features)
        diffs = features - x
        want = np.array([diff @ w @ diff for diff in diffs])
        atol = 1e-12 * np.abs(w).max() * np.sum(diffs ** 2, axis=1)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + atol)
