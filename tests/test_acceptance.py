"""Release gate: one test per advertised guarantee.

Each test is self-contained, prints the quantity it measured, and fails
loudly if the guarantee does not hold at the stated tolerance.  Synthetic
fixtures stand in for the large public datasets; the statistical checks
use fixed seeds and median aggregation so they are deterministic.
"""

import itertools

import numpy as np
from conftest import probed_pass

from nnmetric.bruteforce import (
    asym_score_grads,
    brute_loss_augmented,
    brute_reg_inference,
    brute_targeted,
    brute_unconstrained,
    feature_map_psi,
    hamming_score,
    max_tied_loss,
    score,
)
from nnmetric.dataset import CLASS, REAL, Dataset, kfold, synth_sin
from nnmetric.gerrymander import (
    AsymmetricMetric,
    GerryTrainConfig,
    InfeasibleTargetError,
    MahalanobisMetric,
    loss_augmented_inference_core,
    metric_predictions,
    n_star,
    surrogate_core,
    targeted_inference_core,
    train_sgd,
)
from nnmetric.gradient_metrics import (
    KernelSpec,
    estimate_egop,
    estimate_ejop,
    estimate_gw,
    gradient_pass,
)
from nnmetric.hamming import (
    HammingTrainConfig,
    binarize,
    encode,
    hamming_predictions,
    random_hasher,
    train_hamming,
)
from nnmetric.harness import cmd_run
from nnmetric.numerics import sym_eig
from nnmetric.predictors import NeighborRule, predict_batch, transform_features
from nnmetric.regression_ml import delta_reg, delta_reg_ub, reg_inference_core


def random_vote_instance(rng):
    """Small classed dataset with a random PSD metric and query point."""
    n = int(rng.integers(5, 13))
    d = int(rng.integers(2, 5))
    r = int(rng.integers(2, 5))
    labels = np.concatenate([np.arange(1, r + 1), rng.integers(1, r + 1, n - r)])
    labels = labels[rng.permutation(n)]
    features = rng.normal(size=(n, d))
    train = Dataset(features=features, labels=labels.astype(float), kind=CLASS)
    low = rng.normal(size=(d, d))
    metric = MahalanobisMetric(w=low @ low.T)
    x = rng.normal(size=d)
    k = int(rng.integers(1, min(5, n - 1) + 1))
    return train, metric, x, k, r


def anisotropic_blobs(seed, n_per):
    """Two classes separated along coordinate 0, four scale-10 noise axes."""
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for c, center in enumerate((1.5, -1.5)):
        block = rng.normal(0.0, 10.0, (n_per, 5))
        block[:, 0] = rng.normal(center, 1.0, n_per)
        feats.append(block)
        labels.append(np.full(n_per, c + 1))
    order = rng.permutation(2 * n_per)
    return Dataset(features=np.concatenate(feats)[order],
                   labels=np.concatenate(labels)[order].astype(float), kind=CLASS)


def test_criterion_01_inference_matches_bruteforce():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        train, metric, x, k, r = random_vote_instance(rng)
        dists = metric.distances(x, train.features)
        labels = train.labels.astype(int)
        target = int(rng.integers(1, r + 1))
        for tau in (0, 1):
            brute = brute_targeted(dists, labels, target, k, tau)
            try:
                h = targeted_inference_core(dists, train.labels, target, k, tau)
            except InfeasibleTargetError:
                assert brute is None
                continue
            assert brute is not None
            worst = max(worst, abs(-dists[h].sum() - brute[1]))
        y = int(rng.integers(1, r + 1))
        h, _ = loss_augmented_inference_core(dists, train.labels, y, k)
        value = -dists[h].sum() + max_tied_loss(y, labels[h])
        worst = max(worst, abs(value - brute_loss_augmented(dists, labels, y, k)[1]))
    print(f"criterion 1: 200 instances, worst objective gap {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_02_surrogate_bounds_task_loss():
    rng = np.random.default_rng(202)
    checked, attempts = 0, 0
    while checked < 500:
        attempts += 1
        assert attempts < 2000
        train, metric, x, k, r = random_vote_instance(rng)
        y = int(rng.integers(1, r + 1))
        dists = metric.distances(x, train.features)
        try:
            value = surrogate_core(dists, train.labels, y, k)[0]
        except InfeasibleTargetError:
            continue
        top_k, _ = brute_unconstrained(dists, k)
        floor = max_tied_loss(y, train.labels.astype(int)[top_k])
        assert value >= -1e-9
        assert value >= floor - 1e-9
        checked += 1
    print(f"criterion 2: {checked} surrogate evaluations, no bound violations")


def test_criterion_03_minimum_winning_votes_exact():
    for r in (2, 3, 4):
        for k in range(1, 8):
            need = n_star(r, k, ties_forbidden=True)
            achieved = False
            for counts in itertools.product(range(k + 1), repeat=r):
                if sum(counts) != k:
                    continue
                wins = counts[0] > max(counts[1:])
                if counts[0] < need:
                    assert not wins, (r, k, counts)
                if counts[0] == need and wins:
                    achieved = True
            assert achieved, (r, k, need)
    print("criterion 3: n_star exact for R in 2..4, k in 1..7")


def test_criterion_04_score_gradients_match_finite_differences():
    rng = np.random.default_rng(404)
    train, _, x, k, _ = random_vote_instance(rng)
    h = rng.choice(train.n, size=k, replace=False)
    psi = feature_map_psi(x, h, train)
    d = train.d
    eps = 1e-6
    for _ in range(50):
        e = rng.normal(size=(d, d))
        e = (e + e.T) / 2.0
        up = score(MahalanobisMetric(w=eps * e), x, h, train)
        down = score(MahalanobisMetric(w=-eps * e), x, h, train)
        fd = (up - down) / (2.0 * eps)
        ip = float(np.sum(e * psi))
        assert abs(ip - fd) <= 1e-6 * max(1.0, abs(fd))
    u = rng.normal(size=(3, d))
    v = rng.normal(size=(3, d))
    grad_u, grad_v = asym_score_grads(u, v, x, h, train)
    asym = lambda uu, vv: score(AsymmetricMetric(u=uu, v=vv), x, h, train)
    for _ in range(50):
        eu = rng.normal(size=(3, d))
        ev = rng.normal(size=(3, d))
        fd_u = (asym(u + eps * eu, v) - asym(u - eps * eu, v)) / (2.0 * eps)
        fd_v = (asym(u, v + eps * ev) - asym(u, v - eps * ev)) / (2.0 * eps)
        assert abs(float(np.sum(eu * grad_u)) - fd_u) <= 1e-5 * max(1.0, abs(fd_u))
        assert abs(float(np.sum(ev * grad_v)) - fd_v) <= 1e-5 * max(1.0, abs(fd_v))
    print("criterion 4: 50 directions each, symmetric and asymmetric grads match")


def test_criterion_05_psd_maintained_throughout_training():
    train = anisotropic_blobs(0, 100)
    config = GerryTrainConfig(k=3, c=1.0, epochs=20, seed=0, stop_rel_tol=None)
    result = train_sgd(train, config, variant="symmetric", audit_psd=True)
    assert result.epochs_run == 20
    assert len(result.psd_audit) > 0
    floor = min(result.psd_audit)
    print(f"criterion 5: {len(result.psd_audit)} updates, min eigenvalue {floor:.3e}")
    assert floor >= -1e-9


def test_criterion_06_learned_metric_cuts_blob_error():
    rule = NeighborRule("knn", k=3)
    reductions = []
    for seed in range(5):
        train = anisotropic_blobs(seed, 100)
        test = anisotropic_blobs(seed + 100, 50)
        base = predict_batch(train, None, test.features, rule)
        base_err = float(np.mean(base != test.labels))
        assert base_err > 0
        config = GerryTrainConfig(k=3, c=10.0, epochs=30, seed=seed, stop_rel_tol=None)
        result = train_sgd(train, config, variant="symmetric")
        learned = metric_predictions(result.metric, train, test.features, 3)
        learned_err = float(np.mean(learned != test.labels))
        reductions.append((base_err - learned_err) / base_err)
    med = float(np.median(reductions))
    print(f"criterion 6: relative error reductions {[round(r, 2) for r in reductions]},"
          f" median {med:.2f}")
    assert med >= 0.30


def test_criterion_07_regression_bound_and_exact_inference():
    rng = np.random.default_rng(707)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        targets = rng.normal(scale=3.0, size=n)
        y = float(rng.normal(scale=3.0))
        h = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        assert delta_reg_ub(y, h, targets) >= delta_reg(y, h, targets) - 1e-12
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(5, 13))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, min(5, n - 1) + 1))
        train = Dataset(features=rng.normal(size=(n, d)),
                        labels=rng.normal(scale=2.0, size=n), kind=REAL)
        low = rng.normal(size=(d, d))
        metric = MahalanobisMetric(w=low @ low.T)
        x = rng.normal(size=d)
        y = float(rng.normal(scale=2.0))
        gamma = float(rng.uniform(0.1, 3.0))
        direction = ("targeted", "loss_augmented")[int(rng.integers(2))]
        sign = -1.0 if direction == "targeted" else 1.0
        dists = metric.distances(x, train.features)
        h = reg_inference_core(dists, train.labels, y, k, gamma, direction)
        value = -dists[h].sum() + sign * gamma * delta_reg_ub(y, h, train.labels)
        brute = brute_reg_inference(dists, train.labels, y, k, gamma, direction)
        worst = max(worst, abs(value - brute[1]))
    print(f"criterion 7: 1000 bound draws clean, worst inference gap {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_08_egop_recovers_linear_outer_product():
    rng = np.random.default_rng(808)
    train = Dataset(features=rng.normal(size=(60, 3)), labels=np.zeros(60), kind=REAL)
    a = np.array([0.7, -1.3, 2.0])
    spec = KernelSpec(bandwidth=1.0)
    est = estimate_egop(train, spec, t=0.1,
                        passed=probed_pass(train, spec, 0.1, lambda q: float(a @ q)))
    dev = float(np.abs(est.g - np.outer(a, a)).max())
    print(f"criterion 8: max entry deviation from aa^T is {dev:.3e}")
    assert dev <= 1e-8


def _radius_by_cv(train, transform, seed):
    feats = transform_features(train.features, transform)
    sq = np.sum(feats**2, axis=1)
    d2 = np.maximum(sq[:, None] - 2.0 * feats @ feats.T + sq[None, :], 0.0)
    pairwise = np.sqrt(d2[np.triu_indices(len(feats), 1)])
    candidates = [float(np.quantile(pairwise, q)) for q in (0.02, 0.05, 0.1, 0.2)]
    folds = kfold(train.n, 2, seed)
    best, best_mse = candidates[0], np.inf
    for radius in candidates:
        rule = NeighborRule("hnn", radius=radius)
        mses = []
        for f in range(2):
            fit = train.subset(np.flatnonzero(folds.assignment != f))
            val = train.subset(folds.fold_indices(f))
            preds = predict_batch(fit, transform, val.features, rule)
            mses.append(float(np.mean((preds - val.labels) ** 2)))
        mean = float(np.mean(mses))
        if mean < best_mse:
            best, best_mse = radius, mean
    return best


def _ball_nmse(train, test, transform, seed):
    radius = _radius_by_cv(train, transform, seed)
    rule = NeighborRule("hnn", radius=radius)
    preds = predict_batch(train, transform, test.features, rule)
    return float(np.mean((preds - test.labels) ** 2) / np.var(test.labels))


def test_criterion_09_whitening_absorbs_rotation():
    spec = KernelSpec(bandwidth=2.0)
    nmse = {m: {False: [], True: []} for m in ("eucl", "egop", "gw")}
    for rotate in (False, True):
        for seed in range(5):
            pool = synth_sin(1500, 20, c1=50.0, decay=0.6, rotate=rotate,
                             noise_std=0.1, seed=seed)
            train = pool.subset(np.arange(1000))
            test = pool.subset(np.arange(1000, 1500))
            nmse["eucl"][rotate].append(_ball_nmse(train, test, None, seed))
            # GW and EGOP reduce one gradient pass, as the harness shares it
            passed = gradient_pass(train, spec, 0.5)
            egop = estimate_egop(train, spec, 0.5, passed=passed).transform()
            nmse["egop"][rotate].append(_ball_nmse(train, test, egop, seed))
            gw = np.diag(np.sqrt(estimate_gw(train, spec, 0.5, passed=passed)))
            nmse["gw"][rotate].append(_ball_nmse(train, test, gw, seed))
    med = {m: {rot: float(np.median(v)) for rot, v in by.items()}
           for m, by in nmse.items()}
    egop_gap = med["egop"][True] - med["egop"][False]
    gw_gap = med["gw"][True] - med["gw"][False]
    print(f"criterion 9: median nMSE eucl {med['eucl']}, egop {med['egop']},"
          f" gw {med['gw']}; gaps egop {egop_gap:+.4f} gw {gw_gap:+.4f}")
    assert med["egop"][False] < med["eucl"][False]
    assert med["egop"][True] < med["eucl"][True]
    assert abs(egop_gap) < abs(gw_gap)


def test_criterion_10_single_index_direction_recovery():
    angles = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=10)
        v /= np.linalg.norm(v)
        x = rng.uniform(0.0, 1.0, (2000, 10))
        train = Dataset(features=x, labels=np.sin(5.0 * x @ v), kind=REAL)
        est = estimate_egop(train, KernelSpec(bandwidth=0.8), t=0.2)
        top = sym_eig(est.g).vectors[:, 0]
        cos = min(abs(float(top @ v)), 1.0)
        angles.append(float(np.degrees(np.arccos(cos))))
    med = float(np.median(angles))
    print(f"criterion 10: angles {[round(a, 2) for a in angles]} deg, median {med:.2f}")
    assert med < 15.0


def three_class_blobs(seed, n_per):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    feats, labels = [], []
    for c, center in enumerate(centers):
        block = rng.normal(0.0, 3.0, (n_per, 10))
        block[:, :2] = center + rng.normal(0.0, 1.0, (n_per, 2))
        feats.append(block)
        labels.append(np.full(n_per, c + 1))
    order = rng.permutation(3 * n_per)
    return Dataset(features=np.concatenate(feats)[order],
                   labels=np.concatenate(labels)[order].astype(float), kind=CLASS)


def test_criterion_11_ejop_helps_multiclass():
    rule = NeighborRule("knn", k=5)
    errs_eucl, errs_ejop = [], []
    for seed in range(5):
        train = three_class_blobs(seed, 150)
        test = three_class_blobs(seed + 100, 60)
        base = predict_batch(train, None, test.features, rule)
        errs_eucl.append(float(np.mean(base != test.labels)))
        est = estimate_ejop(train, KernelSpec(bandwidth=8.0), t=1.0, temperature=0.1)
        assert sym_eig(est.g).values[-1] >= -1e-9
        preds = predict_batch(train, est.transform(), test.features, rule)
        errs_ejop.append(float(np.mean(preds != test.labels)))
    med_e, med_j = float(np.median(errs_eucl)), float(np.median(errs_ejop))
    print(f"criterion 11: median error euclidean {med_e:.3f} vs ejop {med_j:.3f}")
    assert med_j <= med_e


def hamming_blobs(seed, n_per):
    rng = np.random.default_rng(seed)
    centers = np.array([[2.0, 2.0, 0.0, 0.0, 0.0], [-2.0, -2.0, 0.0, 0.0, 0.0]])
    feats, labels = [], []
    for c, center in enumerate(centers):
        feats.append(center + rng.normal(0.0, 1.0, (n_per, 5)))
        labels.append(np.full(n_per, c + 1))
    order = rng.permutation(2 * n_per)
    return Dataset(features=np.concatenate(feats)[order],
                   labels=np.concatenate(labels)[order].astype(float), kind=CLASS)


def test_criterion_12_hamming_identity_and_training_gain():
    rng = np.random.default_rng(1212)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        c = int(rng.integers(2, 10))
        n = int(rng.integers(4, 10))
        train = Dataset(features=rng.normal(size=(n, d)), labels=np.ones(n), kind=CLASS)
        hasher = random_hasher(d, c, int(rng.integers(1000)))
        x = rng.normal(size=d)
        h = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        q = binarize(hasher.u, x)
        codes = encode(hasher.v, train.features[h])
        dists = np.sum(codes != q, axis=1).astype(float)
        got = hamming_score(hasher, x, h, train)
        worst = max(worst, abs(got - float(np.sum(c - 2.0 * dists))))
    assert worst <= 1e-9
    errs_trained, errs_random = [], []
    for seed in range(5):
        train = hamming_blobs(seed, 100)
        test = hamming_blobs(seed + 100, 50)
        result = train_hamming(train, HammingTrainConfig(c=8, k=3, epochs=15, seed=seed))
        preds = hamming_predictions(result.metric, train, test.features, k=3)
        errs_trained.append(float(np.mean(preds != test.labels)))
        baseline = hamming_predictions(random_hasher(5, 8, seed), train,
                                       test.features, k=3)
        errs_random.append(float(np.mean(baseline != test.labels)))
    med_t, med_r = float(np.median(errs_trained)), float(np.median(errs_random))
    print(f"criterion 12: identity gap {worst:.1e}; median error trained {med_t:.3f}"
          f" vs random {med_r:.3f}")
    assert med_t < med_r


def test_criterion_13_identical_runs_byte_identical(tmp_path):
    config = tmp_path / "repro.cfg"
    config.write_text(
        "task = regress\n"
        "method = euclidean, gw\n"
        "data.source = synth\n"
        "data.n = 60\n"
        "data.d = 3\n"
        "grid.k = 3, 5\n"
        "seed = 4\n"
    )
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cmd_run(str(config), out=str(out)) == 0
        outs.append((out / "results.csv").read_bytes())
    print(f"criterion 13: results.csv identical across reruns ({len(outs[0])} bytes)")
    assert outs[0] == outs[1]
