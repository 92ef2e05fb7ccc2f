import functools
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from conftest import fallback_rows, gauss_blobs

from nnmetric import bruteforce, cli, gerrymander, harness, oracles, predictors, regression_ml
from nnmetric import gradient_metrics as gm
from nnmetric.dataset import CLASS, REAL, Dataset, load_csv, save_csv, synth_sin
from nnmetric.harness import (
    ConfigError,
    ExperimentConfig,
    config_json,
    load_experiment_data,
    parse_config_text,
    run_experiment,
    split_indices,
)
from nnmetric.numerics import EigenDecomp, sym_eig, symmetrize
from nnmetric.oracles import ORACLE_SUITES, run_oracle


def write_config(tmp_path, mapping, name="exp.cfg"):
    path = tmp_path / name
    lines = [f"{key} = {value}" for key, value in mapping.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_config(path):
    return ExperimentConfig.from_mapping(parse_config_text(path.read_text(encoding="utf-8")))


def read_results(out_dir):
    import csv

    with open(out_dir / "results.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def final_values(rows):
    return {
        row["method"]: float(row["value"]) for row in rows if row["fold"] == "-1"
    }


def noisy_blobs_csv(path, seed, n_per=100, d=8, sep=1.5):
    """Two classes split along coordinate 0; every other coordinate is
    large-scale noise that survives z-scoring as unit-variance noise."""
    rng = np.random.default_rng(seed)
    f1 = rng.normal(0.0, 1.0, (n_per, d)) * 10.0
    f2 = rng.normal(0.0, 1.0, (n_per, d)) * 10.0
    f1[:, 0] = rng.normal(-sep, 1.0, n_per)
    f2[:, 0] = rng.normal(sep, 1.0, n_per)
    ds = Dataset(
        features=np.vstack([f1, f2]),
        labels=np.repeat([1, 2], n_per),
        kind=CLASS,
    )
    save_csv(path, ds)
    return ds


class TestConfigParsing:
    def test_comments_blanks_and_spacing(self):
        text = "# a comment\n\n task = regress \nmethod=egop\n"
        mapping = parse_config_text(text)
        assert mapping == {"task": "regress", "method": "egop"}

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2: duplicate key 'task'"):
            parse_config_text("task = regress\ntask = classify\n")

    def test_line_without_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just words\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("= value\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown config key 'grid.z'"):
            ExperimentConfig.from_mapping(
                {"task": "regress", "method": "egop", "data.source": "synth",
                 "data.n": "50", "data.d": "3", "grid.z": "1"}
            )

    def test_missing_required_field_named(self):
        with pytest.raises(ConfigError, match="data.source: required"):
            ExperimentConfig.from_mapping({"task": "regress", "method": "egop"})

    def test_bad_integer_names_field(self):
        with pytest.raises(ConfigError, match="grid.k: expected an integer"):
            ExperimentConfig.from_mapping(
                {"task": "regress", "method": "euclidean", "data.source": "synth",
                 "data.n": "50", "data.d": "3", "grid.k": "three"}
            )

    def test_bad_choice_lists_options(self):
        with pytest.raises(ConfigError, match="predict.rule: expected one of knn, hnn"):
            ExperimentConfig.from_mapping(
                {"task": "regress", "method": "euclidean", "data.source": "synth",
                 "data.n": "50", "data.d": "3", "predict.rule": "ball"}
            )

    def test_duplicate_method_rejected(self):
        with pytest.raises(ConfigError, match="method: duplicate"):
            ExperimentConfig.from_mapping(
                {"task": "regress", "method": "egop, egop", "data.source": "synth",
                 "data.n": "50", "data.d": "3"}
            )

    def test_csv_source_requires_path(self):
        with pytest.raises(ConfigError, match="data.path: required"):
            ExperimentConfig.from_mapping(
                {"task": "classify", "method": "euclidean", "data.source": "csv"}
            )

    def test_synth_source_requires_dimensions(self):
        with pytest.raises(ConfigError, match="data.n: required"):
            ExperimentConfig.from_mapping(
                {"task": "regress", "method": "euclidean", "data.source": "synth"}
            )

    def test_synth_keys_rejected_for_csv(self):
        with pytest.raises(ConfigError, match="data.c1: only valid"):
            ExperimentConfig.from_mapping(
                {"task": "classify", "method": "euclidean", "data.source": "csv",
                 "data.path": "x.csv", "data.c1": "2.0"}
            )

    def test_synth_data_is_regression_only(self):
        with pytest.raises(ConfigError, match="task: data.source = synth"):
            ExperimentConfig.from_mapping(
                {"task": "classify", "method": "euclidean", "data.source": "synth",
                 "data.n": "50", "data.d": "3"}
            )

    def test_classify_method_rejects_regress_task(self):
        with pytest.raises(ConfigError, match="method: gerry_sym requires task = classify"):
            ExperimentConfig.from_mapping(
                {"task": "regress", "method": "gerry_sym", "data.source": "synth",
                 "data.n": "50", "data.d": "3"}
            )

    def test_regress_method_rejects_classify_task(self):
        with pytest.raises(ConfigError, match="method: gerry_reg requires task = regress"):
            ExperimentConfig.from_mapping(
                {"task": "classify", "method": "gerry_reg", "data.source": "csv",
                 "data.path": "x.csv"}
            )

    def test_from_file_and_resolved_json(self, tmp_path):
        path = write_config(
            tmp_path,
            {"task": "regress", "method": "euclidean", "data.source": "synth",
             "data.n": "60", "data.d": "3", "grid.k": "3, 7"},
        )
        config = read_config(path)
        assert config.grid_k == (3, 7)
        resolved = json.loads(config_json(config))
        assert resolved["grid.k"] == [3, 7]
        assert resolved["cv.folds"] == 2  # defaults are filled in
        assert resolved["data.n"] == 60
        assert "data.path" not in resolved


class TestSplitIndices:
    def test_partition_and_determinism(self):
        train, test = split_indices(40, 0.25, seed=3)
        again_train, again_test = split_indices(40, 0.25, seed=3)
        assert len(test) == 10
        combined = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(combined, np.arange(40))
        np.testing.assert_array_equal(train, again_train)
        np.testing.assert_array_equal(test, again_test)

    def test_different_seeds_differ(self):
        _, test_a = split_indices(40, 0.25, seed=0)
        _, test_b = split_indices(40, 0.25, seed=1)
        assert not np.array_equal(test_a, test_b)

    def test_at_least_one_test_and_two_train_rows(self):
        train, test = split_indices(4, 0.01, seed=0)
        assert len(test) == 1 and len(train) == 3
        train, test = split_indices(4, 0.99, seed=0)
        assert len(train) == 2 and len(test) == 2


class TestCmdSynth:
    def test_writes_requested_shape(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert cli.main(["synth", "--out", str(out), "--n", "100", "--d", "5"]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 101
        assert lines[0].count(",") == 5  # 5 features + label

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--n", "50", "--d", "4", "--seed", "9"]
        assert cli.main(["synth", "--out", str(a), *args]) == 0
        assert cli.main(["synth", "--out", str(b), *args]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_roundtrips_through_load_csv(self, tmp_path):
        out = tmp_path / "rt.csv"
        cli.main(["synth", "--out", str(out), "--n", "30", "--d", "3", "--seed", "2"])
        back = load_csv(out, "label", "real")
        direct = synth_sin(30, 3, seed=2)
        np.testing.assert_array_equal(back.features, direct.features)
        np.testing.assert_array_equal(back.labels, direct.labels)

    def test_rotate_changes_features_only(self, tmp_path):
        plain, rotated = tmp_path / "p.csv", tmp_path / "r.csv"
        args = ["--n", "40", "--d", "4", "--seed", "7"]
        cli.main(["synth", "--out", str(plain), *args])
        cli.main(["synth", "--out", str(rotated), *args, "--rotate"])
        ds_p = load_csv(plain, "label", "real")
        ds_r = load_csv(rotated, "label", "real")
        np.testing.assert_array_equal(ds_p.labels, ds_r.labels)
        assert not np.array_equal(ds_p.features, ds_r.features)

    def test_invalid_parameters_exit_2(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        cases = [
            (["--d", "0"], "d must be"),
            (["--n", "-5"], "n must be"),
            (["--c1", "-5"], "c1 must be"),
            (["--c1", "nan"], "c1 must be"),
            (["--noise-std", "-1"], "noise_std must be"),
            (["--noise-std", "inf"], "noise_std must be"),
        ]
        for args, message in cases:
            assert cli.main(["synth", "--out", str(out), "--n", "10", "--d", "2", *args]) == 2
            err = capsys.readouterr().err
            assert "synth error" in err and message in err
        assert not out.exists()


def rechecks(suite, failure) -> bool:
    """Whether a failure record, read back from the JSON text the CLI saves,
    re-checks to the same check, got and want."""
    record = json.loads(harness._json_text(failure))
    saved = [record.pop(key) for key in ("check", "got", "want")]
    return harness._json_text(ORACLE_SUITES[suite][2](**record)) == harness._json_text(saved)


class TestCmdOracle:
    def test_inference_suite_passes(self, capsys):
        assert cli.main(["oracle", "--suite", "inference", "--budget", "200"]) == 0
        assert "200 checks passed" in capsys.readouterr().out

    def test_regbound_suite_passes(self, capsys):
        assert cli.main(["oracle", "--suite", "regbound", "--budget", "1000"]) == 0
        assert "1000 checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "suite", ["surrogate", "psd", "gradients", "hamming", "neighbors", "eig", "estimators"]
    )
    def test_remaining_suites_pass(self, suite):
        assert cli.main(["oracle", "--suite", suite, "--budget", "60"]) == 0

    def test_surrogate_suite_counts_only_compared_draws(self):
        """Draws with no feasible h* are skipped, not counted as checks:
        at seed 0, 58 of 500 draws have none."""
        outcome = run_oracle("surrogate", 500)
        assert outcome.failure is None
        assert outcome.checked == 442

    @pytest.mark.parametrize("suite,check", [("inference", "loss_augmented"),
                                             ("hamming", "hamming_inference")])
    def test_inference_suites_fail_without_the_loss_term(self, monkeypatch, suite, check):
        original = oracles.loss_augmented_inference_core

        def plain_score(dists, labels, y, k, cands=None):
            h, _ = original(dists, labels, y, k, cands)
            return h, -float(np.asarray(dists, dtype=float)[h].sum())

        monkeypatch.setattr(oracles, "loss_augmented_inference_core", plain_score)
        outcome = run_oracle(suite, 200)
        assert outcome.failure is not None
        assert outcome.failure["check"] == check
        assert rechecks(suite, outcome.failure)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # an empty ball's mean is 0 / 0
    @pytest.mark.parametrize(
        "broken", ["reversed_index_ties", "no_empty_ball_fallback", "block_accepts_cut_ties"]
    )
    def test_neighbors_suite_fails_on_broken_selection(self, monkeypatch, broken):
        original = predictors._select

        def reversed_index_ties(dists, rule):
            """Equal distances cut at the k-th place by descending index."""
            return original(dists[:, ::-1], rule)[:, ::-1]

        def no_empty_ball_fallback(dists, rule):
            """A query outside every ball selects no point."""
            take = original(dists, rule)
            return take if rule.kind == "knn" else take & (dists <= rule.radius)

        def block_accepts_cut_ties(dists, rule):
            """Rows with a tie at the k-th place keep the first k points at
            or under it in index order, dropping nearer later ones."""
            k = rule.k
            if rule.kind != "knn" or k >= dists.shape[1]:
                return original(dists, rule)
            near = dists <= np.partition(dists, k - 1, axis=1)[:, k - 1:k]
            tied = np.count_nonzero(near, axis=1) > k
            dropped = tied[:, None] & near & (np.cumsum(near, axis=1) > k)
            return original(np.where(dropped, np.nan, dists), rule)

        mutants = (reversed_index_ties, no_empty_ball_fallback, block_accepts_cut_ties)
        monkeypatch.setattr(predictors, "_select", {m.__name__: m for m in mutants}[broken])
        outcome = run_oracle("neighbors", 200)
        assert outcome.failure is not None
        assert outcome.failure["got"] != outcome.failure["want"]
        assert rechecks("neighbors", outcome.failure)

    def test_estimators_suite_fails_when_queried_point_keeps_weight(self, monkeypatch):
        def keeps_own(h, dists, own, out):
            np.maximum(0.0, h - dists, out=out)
            out[out.sum(axis=1) == 0.0] = 1.0
            return out, out.sum(axis=1)

        monkeypatch.setattr(gm, "_loo_weights", keeps_own)
        outcome = run_oracle("estimators", 200)
        assert outcome.failure is not None
        assert outcome.failure["check"] in ("gw", "egop", "ejop")
        assert rechecks("estimators", outcome.failure)

    def test_estimators_suite_fails_when_an_h_overwrites_shared_roots(self, monkeypatch):
        """Weights written over the probe distances that every h of a t
        shares: the next h of that t weighs the first h's weights."""
        original = gm._loo_weights

        def in_place(h, dists, own, out):
            return original(h, dists, own, dists)

        monkeypatch.setattr(gm, "_loo_weights", in_place)
        outcome = run_oracle("estimators", 200)
        assert outcome.failure is not None
        assert outcome.failure["check"] in ("gw", "egop", "ejop")
        assert rechecks("estimators", outcome.failure)

    def test_estimators_suite_draws_the_rim_fallback_rows_and_open_gates(self, monkeypatch):
        """Some draws put t at min h itself, the rim, and some hold probe
        rows whose ball holds no point but their own sample, which fall back
        to uniform weights; the reference's gate is open on every draw."""
        instances, masks = [], []
        weight, draw, check = ORACLE_SUITES["estimators"]
        original = bruteforce.explicit_loo

        def recording_draw(rng, i):
            instances.append(draw(rng, i))
            return instances[-1]

        def recording(train, spec, t, plug_in):
            out = original(train, spec, t, plug_in)
            masks.extend(mask for mask, _ in out)
            return out

        monkeypatch.setitem(ORACLE_SUITES, "estimators", (weight, recording_draw, check))
        monkeypatch.setattr(bruteforce, "explicit_loo", recording)
        assert run_oracle("estimators", 60).failure is None
        assert len(instances) == 60 and all(mask.all() for mask in masks)
        assert any(inst["ts"][0] == min(inst["hs"]) for inst in instances)
        assert any(fallback_rows(inst["features"], h, t)
                   for inst in instances for h in inst["hs"] for t in inst["ts"])

    @pytest.mark.parametrize(
        "broken,check", [("ascending", "descending"), ("no_sign_flip", "sign")]
    )
    def test_eig_suite_fails_on_broken_sym_eig(self, monkeypatch, broken, check):
        if broken == "ascending":
            def mutant(a):
                vecs, values = sym_eig(a)
                return EigenDecomp(vectors=vecs[:, ::-1], values=values[::-1])
        else:
            def mutant(a):
                values, vecs = np.linalg.eigh(symmetrize(a))
                order = np.argsort(-values, kind="stable")
                return EigenDecomp(vectors=vecs[:, order], values=values[order])

        monkeypatch.setattr(oracles, "sym_eig", mutant)
        outcome = run_oracle("eig", 200)
        assert outcome.failure is not None
        assert outcome.failure["check"] == check
        assert rechecks("eig", outcome.failure)

    def test_psd_suite_fails_on_zero_projection(self, monkeypatch):
        """Zeros are PSD, so only the comparison with the clipped Jacobi
        spectrum can catch this."""
        monkeypatch.setattr(oracles, "psd_project", np.zeros_like)
        outcome = run_oracle("psd", 200)
        assert outcome.failure is not None
        assert outcome.failure["check"] == "nearest"
        assert rechecks("psd", outcome.failure)

    @pytest.mark.parametrize("broken", ["swapped_sign", "gaps_without_over_k"])
    def test_regbound_suite_fails_on_broken_shared_gaps(self, monkeypatch, broken):
        """The suite's direct inference check passes no gaps; only the
        surrogate's shared-gaps calls run the mutant."""
        original = regression_ml.reg_inference_core
        swap = {"targeted": "loss_augmented", "loss_augmented": "targeted"}

        def mutant(dists, targets, y, k, gamma, direction, gaps=None):
            if gaps is not None:
                if broken == "swapped_sign":
                    direction = swap[direction]
                else:
                    gaps = gaps * k
            return original(dists, targets, y, k, gamma, direction, gaps)

        monkeypatch.setattr(regression_ml, "reg_inference_core", mutant)
        outcome = run_oracle("regbound", 200)
        assert outcome.failure is not None
        assert outcome.failure["check"].startswith("surrogate")
        assert rechecks("regbound", outcome.failure)

    @pytest.mark.parametrize("broken", ["k_minus_1_per_class", "cap_off_by_one",
                                        "index_ties_reversed"])
    def test_inference_suite_fails_on_broken_candidates(self, monkeypatch, broken):
        """Three broken candidate builders: k - 1 candidates per class; the
        tie-allowing and tie-forbidding tiers swapped, so every cap is off by
        one; and ties broken by descending index, whose sets score the same,
        so that only the suite's floored draws and its order check catch it."""
        original = gerrymander._candidates
        if broken == "k_minus_1_per_class":
            def mutant(dists, labels, k):
                return original(dists, labels, k - 1)
        elif broken == "cap_off_by_one":
            tiers = gerrymander._tiers
            monkeypatch.setattr(gerrymander, "_tiers", lambda n, k: tiers(n, k)[::-1])
            # the set tables are cached: a cache of the mutant's own, dropped
            # with it, builds them from the swapped tiers
            monkeypatch.setattr(gerrymander, "_set_tables",
                                functools.lru_cache(gerrymander._set_tables.__wrapped__))
            mutant = original
        else:
            def mutant(dists, labels, k):
                cands = original(dists[::-1], labels[::-1], k)
                return cands._replace(order=len(dists) - 1 - cands.order)

        monkeypatch.setattr(gerrymander, "_candidates", mutant)
        outcome = run_oracle("inference", 200)
        assert outcome.failure is not None
        checks = ("targeted", "loss_augmented")
        if broken == "index_ties_reversed":
            checks = tuple(f"{check}_order" for check in checks)
        assert outcome.failure["check"] in checks
        assert rechecks("inference", outcome.failure)

    def test_unknown_suite_exits_2(self, capsys):
        assert cli.main(["oracle", "--suite", "nope", "--budget", "5"]) == 2
        assert "unknown oracle suite" in capsys.readouterr().err

    def test_bad_budget_exits_2(self):
        assert cli.main(["oracle", "--suite", "inference", "--budget", "0"]) == 2

    @pytest.mark.parametrize("error", [ValueError, gerrymander.InfeasibleTargetError])
    def test_error_in_checked_code_exits_1(self, tmp_path, monkeypatch, capsys, error):
        """A ValueError from the checked code is a fault, not bad usage.  The
        instance it was checking is saved with the error."""
        def broken(*args):
            raise error("fast routine broke")

        monkeypatch.setattr(oracles, "predict_batch", broken)
        code = cli.main(["oracle", "--suite", "neighbors", "--budget", "5", "--out",
                         str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        replay = tmp_path / "oracle_neighbors_failure.json"
        assert err == (f"neighbors: the suite raised {error.__name__}: fast routine broke; "
                       f"instance saved to {replay}\n")
        payload = json.loads(replay.read_text("utf-8"))
        assert payload["check"] == "raised"
        assert payload["error"] == f"{error.__name__}: fast routine broke"
        _, draw, _ = ORACLE_SUITES["neighbors"]
        assert set(payload) == {"check", "error", *draw(np.random.default_rng(0), 0)}

    def test_error_in_draw_code_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("draw broke")

        monkeypatch.setattr(oracles, "random_hasher", broken)
        code = cli.main(["oracle", "--suite", "neighbors", "--budget", "5", "--out",
                         str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "neighbors: the suite raised ValueError: draw broke\n"
        assert not list(tmp_path.iterdir())

    def test_violation_writes_replay_file(self, tmp_path, monkeypatch, capsys):
        """The record is the failing instance with the check's name, got
        and want; its draw number is reported."""
        def draw(rng, i):
            return {"x": np.arange(2) + i}

        def check(x):
            return None if x[0] < 2 else ("fake", 1.0, np.float64(2.0))

        monkeypatch.setitem(ORACLE_SUITES, "broken", (99, draw, check))
        code = cli.main(
            ["oracle", "--suite", "broken", "--budget", "5", "--out", str(tmp_path)]
        )
        assert code == 1
        replay = tmp_path / "oracle_broken_failure.json"
        assert replay.exists()
        payload = json.loads(replay.read_text(encoding="utf-8"))
        assert payload == {"check": "fake", "x": [2, 3], "got": 1.0, "want": 2.0}
        assert "violation on check 3" in capsys.readouterr().err

    def test_run_oracle_validates_arguments(self):
        with pytest.raises(ValueError, match="unknown oracle suite"):
            run_oracle("none", 5)
        with pytest.raises(ValueError, match="budget"):
            run_oracle("inference", 0)

    def test_outcome_is_seed_deterministic(self):
        a = run_oracle("inference", 25, seed=4)
        b = run_oracle("inference", 25, seed=4)
        assert (a.checked, a.failure) == (b.checked, b.failure)


def three_class_csv(path, n_per, seed, n_last=None):
    """Three 2-d Gaussian classes of n_per rows; class 3 keeps n_last rows."""
    ds = gauss_blobs([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], n_per, 1.0, seed)
    if n_last is not None:
        keep = np.concatenate(
            [np.flatnonzero(ds.labels != 3), np.flatnonzero(ds.labels == 3)[:n_last]]
        )
        ds = Dataset(features=ds.features[keep], labels=ds.labels[keep], kind=CLASS)
    save_csv(path, ds)


class TestCmdRun:
    def rotated_config(self, tmp_path, out_name, seed="3"):
        return write_config(
            tmp_path,
            {
                "task": "regress",
                "method": "euclidean, gw, egop",
                "data.source": "synth",
                "data.n": "300",
                "data.d": "5",
                "data.c1": "2.0",
                "data.decay": "0.5",
                "data.rotate": "true",
                "data.noise_std": "0.05",
                "grid.k": "3, 5",
                "grid.h": "2.0",
                "grid.t": "0.5",
                "seed": seed,
                "out.dir": str(tmp_path / out_name),
            },
            name=f"{out_name}.cfg",
        )

    def test_rotated_synth_ranks_whitening_first(self, tmp_path):
        """Three nMSE rows come back; the gradient outer-product transform
        handles the rotation and lands below both diagonal competitors."""
        config = self.rotated_config(tmp_path, "run")
        assert cli.main(["run", "--config", str(config)]) == 0
        rows = read_results(tmp_path / "run")
        finals = final_values(rows)
        assert set(finals) == {"euclidean", "gw", "egop"}
        assert all(
            row["metric"] == "nmse" for row in rows if row["fold"] == "-1"
        )
        assert finals["egop"] < finals["gw"]
        assert finals["egop"] < finals["euclidean"]

    def test_learned_metric_beats_euclidean_on_noisy_blobs(self, tmp_path):
        data = tmp_path / "blobs.csv"
        noisy_blobs_csv(data, seed=1)
        config = write_config(
            tmp_path,
            {
                "task": "classify",
                "method": "euclidean, gerry_sym",
                "data.source": "csv",
                "data.path": str(data),
                "grid.k": "3",
                "grid.c": "1.0, 10.0",
                "train.epochs": "20",
                "seed": "1",
                "out.dir": str(tmp_path / "out"),
            },
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        finals = final_values(read_results(tmp_path / "out"))
        assert finals["gerry_sym"] < finals["euclidean"]

    def test_malformed_config_exits_2_naming_field(self, tmp_path, capsys):
        base = {"task": "regress", "method": "egop", "data.source": "synth",
                "data.n": "50", "data.d": "3"}
        for key, value, message in (
            ("grid.h", "wide", "grid.h"),
            ("threads", "2", "unknown config key 'threads'"),
            ("train.init", "relieff", "unknown config key 'train.init'"),
            ("hamming.mode", "symmetric", "unknown config key 'hamming.mode'"),
            ("grid.eps", "0.1", "unknown config key 'grid.eps'"),
            ("reg.hstar", "eps_insensitive",
             "reg.hstar: expected one of upper_bound, min_loss, got 'eps_insensitive'"),
        ):
            config = write_config(tmp_path, {**base, key: value})
            assert cli.main(["run", "--config", str(config)]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid_h, grid_t", [("0.01", "5.0"), ("2.0, 1.0, 3.0", "0.25, 1.5, 0.5")],
        ids=["one_point", "several_values"],
    )
    def test_t_above_the_smallest_h_exits_2(self, tmp_path, capsys, grid_h, grid_t):
        """The gradient pass needs 0 < t <= h at every grid point."""
        config = estimator_config(tmp_path, "wide_t", 0, **{"grid.h": grid_h, "grid.t": grid_t})
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "grid.t" in err and "grid.h" in err, err
        assert not (tmp_path / "wide_t").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "gone.cfg")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_non_utf8_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"task = classify\n\xff\xfe\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_missing_data_file_exits_1(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"task": "classify", "method": "euclidean", "data.source": "csv",
             "data.path": str(tmp_path / "gone.csv")},
        )
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "run failed" in capsys.readouterr().err

    def test_method_failure_names_the_method(self, tmp_path, capsys, monkeypatch):
        """An EGOP estimate that fails after euclidean and gw have run fails
        the run as egop, with exit 1."""
        ds = synth_sin(120, 3, seed=0)
        data = tmp_path / "data.csv"
        save_csv(data, ds)
        config = write_config(
            tmp_path,
            {"task": "regress", "method": "euclidean, gw, egop", "data.source": "csv",
             "data.path": str(data), "seed": "0", "out.dir": str(tmp_path / "out")},
        )

        def broken(*args, **kwargs):
            raise ArithmeticError("the estimate is not finite")

        monkeypatch.setattr(harness, "estimate_egop", broken)
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "run failed: egop: the estimate is not finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gradient_pass_names_h_and_t(self, tmp_path, capsys):
        """40 points, each flanked 1e-6 away along x0 by targets of -1e150
        and 1e150: the plug-in's slope there is near 1e155, so EGOP's summed
        outer products overflow and the run fails as egop, naming the pass,
        h and t, with no numpy warning on the way."""
        centers = np.random.default_rng(0).uniform(size=(40, 3))
        step = np.array([1e-6, 0.0, 0.0])
        data = tmp_path / "steep.csv"
        save_csv(data, Dataset(
            features=np.vstack([centers, centers + step, centers - step]),
            labels=np.repeat([0.0, 1e150, -1e150], 40),
            kind=REAL,
        ))
        config = write_config(
            tmp_path,
            {"task": "regress", "method": "euclidean, gw, egop", "data.source": "csv",
             "data.path": str(data), "grid.h": "1e-5", "grid.t": "1e-6", "seed": "0",
             "out.dir": str(tmp_path / "out")},
        )
        assert cli.main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "run failed: egop: the gradient pass at h = 1e-05, t = 1e-06 summed gradient outer "
            "products that are not finite: its central differences overflow; use a larger t "
            "or smaller targets"
        ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_training_exits_1_with_one_line(self, tmp_path, capsys):
        """gerry_asym at grid.c = 20 overflows its projections within the
        first epoch: the run fails as gerry_asym with one line that counts
        the updates and says to lower grid.c, and no numpy warning."""
        centers = [[1.7, 0.0, 0.0, 0.0], [0.0, 1.7, 0.0, 0.0], [0.0, 0.0, 1.7, 0.0]]
        data = tmp_path / "blobs.csv"
        save_csv(data, gauss_blobs(centers, 20, [1.0, 1.0, 1.0, 3.0], seed=0))
        config = write_config(
            tmp_path,
            {"task": "classify", "method": "gerry_asym", "data.source": "csv",
             "data.path": str(data), "grid.c": "20.0", "train.epochs": "5", "seed": "0",
             "out.dir": str(tmp_path / "out")},
        )
        assert cli.main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(
            r"run failed: gerry_asym: training diverged after \d+ updates: the metric's "
            r"distances are no longer finite; lower grid\.c",
            err[0],
        ), err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e160, 1e199])
    def test_huge_targets_exit_2_at_the_split(self, tmp_path, capsys, scale):
        """Squared errors of targets this far apart overflow, in the nMSE
        and in EGOP's outer products, so the run stops before any method."""
        ds = synth_sin(120, 3, seed=0)
        data = tmp_path / "huge.csv"
        save_csv(data, Dataset(features=ds.features, labels=scale * (1.0 + ds.labels), kind=REAL))
        config = write_config(
            tmp_path,
            {"task": "regress", "method": "euclidean, gw", "data.source": "csv",
             "data.path": str(data), "seed": "0", "out.dir": str(tmp_path / "out")},
        )
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: data: the targets span ")
        assert err[0].endswith("so sums of their squared errors overflow; rescale the targets")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_targets_below_overflow_run(self, tmp_path, capsys):
        ds = synth_sin(120, 3, seed=0)
        data = tmp_path / "large.csv"
        save_csv(data, Dataset(features=ds.features, labels=1e150 * (1.0 + ds.labels), kind=REAL))
        config = write_config(
            tmp_path,
            {"task": "regress", "method": "euclidean, gw", "data.source": "csv",
             "data.path": str(data), "seed": "0", "out.dir": str(tmp_path / "out")},
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        finals = final_values(read_results(tmp_path / "out"))
        assert all(np.isfinite(value) for value in finals.values())

    @pytest.mark.parametrize(
        "method, rule, n_fit",
        [("euclidean", "knn", 15), ("hamming", "knn", 15), ("gerry_sym", "hnn", 22)],
    )
    def test_oversized_grid_k_exits_2(self, tmp_path, capsys, method, rule, n_fit):
        """40 rows leave 30 for training: 15-row fit folds, or a 22-row fit
        split for the learned metrics, which use grid.k under hnn too."""
        data = tmp_path / "small.csv"
        three_class_csv(data, 14, seed=0, n_last=12)
        config = write_config(
            tmp_path,
            {"task": "classify", "method": method, "predict.rule": rule,
             "data.source": "csv", "data.path": str(data), "grid.k": "3, 40",
             "train.epochs": "1", "out.dir": str(tmp_path / "out")},
        )
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "grid.k" in err and method in err
        assert f"{n_fit} training rows" in err and "k = 40" in err

    def test_one_row_hnn_fit_split_exits_2(self, tmp_path, capsys):
        """4 rows at test_fraction 0.5 leave 2 for training, so each of the
        2 folds fits on 1 row, which has no pairwise distance for a radius."""
        config = write_config(
            tmp_path,
            {"task": "regress", "method": "euclidean, gw", "predict.rule": "hnn",
             "data.source": "synth", "data.n": "4", "data.d": "2",
             "data.test_fraction": "0.5", "out.dir": str(tmp_path / "out")},
        )
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: predict.rule: euclidean ")
        assert "smallest fit split has 1 training row" in err[0]
        assert err[0].endswith("use more training rows or fewer cv.folds")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_two_training_rows_leave_no_tuning_validation_row_exits_2(self, tmp_path, capsys):
        """The learned metrics' 75/25 tuning split of 2 training rows holds
        out none, so no grid point could be scored."""
        config = write_config(
            tmp_path,
            {"task": "regress", "method": "gerry_reg", "data.source": "synth",
             "data.n": "4", "data.d": "2", "data.test_fraction": "0.5", "grid.k": "1",
             "out.dir": str(tmp_path / "out")},
        )
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "config error: data: gerry_reg tunes on a 75/25 split of the training rows, "
            "which needs at least 3 of them; got 2 training rows"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "method, n_last, seed, message",
        [
            ("gw", None, 0, "needs exactly two classes; class 3"),
            ("relieff", 2, 2, "at least 2 rows per class; class 3"),
        ],
    )
    def test_data_unfit_for_method_exits_2(self, tmp_path, capsys, method, n_last, seed,
                                          message):
        data = tmp_path / "three.csv"
        three_class_csv(data, 14, seed=seed, n_last=n_last)
        config = write_config(
            tmp_path,
            {"task": "classify", "method": method, "data.source": "csv",
             "data.path": str(data), "seed": str(seed), "out.dir": str(tmp_path / "out")},
        )
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"config error: method: {method}" in err and message in err
        assert re.search(r"; class \S+ has \d+ of the \d+ rows of a fit split", err)

    @pytest.mark.parametrize(
        "method, labels, n_first, message",
        [
            ("gw", (3, 1, 2), None, "needs exactly two classes; class 2 has 6 of the 16 rows"),
            ("relieff", (3, 1, 2), 2, "at least 2 rows per class; class 3 has 1 of the 11 rows"),
            ("gw", (3,), None, "needs exactly two classes; all 5 rows of a fit split are class 3"),
            ("ejop", (3,), None, "at least two classes; all 5 rows of a fit split are class 3"),
            ("ejop", (3, 1), 1, "at least two classes; all 5 rows of a fit split are class 1"),
        ],
    )
    def test_unfit_data_names_the_csv_label(self, tmp_path, capsys, method, labels, n_first,
                                            message):
        """The file lists label 3 first, then 1, then 2, so class ids 1, 2, 3
        stand for labels 3, 1, 2: the error names the file's label, not the id.
        A fit split of label 1 alone holds class 2 but not class 1."""
        ds = gauss_blobs([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], 14, 1.0, seed=0)
        rows = []
        for label in labels:
            idx = np.flatnonzero(ds.labels == label)[: n_first if label == 3 else None]
            rows += [f"{float(a)!r},{float(b)!r},{label}" for a, b in ds.features[idx]]
        data = tmp_path / "three_first.csv"
        data.write_text("x1,x2,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert load_csv(data, "label", CLASS).label_names == tuple(map(str, labels))
        config = write_config(
            tmp_path,
            {"task": "classify", "method": method, "data.source": "csv",
             "data.path": str(data), "seed": "0", "out.dir": str(tmp_path / "out")},
        )
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"config error: method: {method}" in err and message in err

    def test_constant_test_targets_exit_2_before_training(self, tmp_path, capsys,
                                                          monkeypatch):
        ds = synth_sin(40, 2, seed=0)
        _, test_idx = split_indices(ds.n, 0.25, 0)
        labels = ds.labels.copy()
        labels[test_idx] = 1.5
        data = tmp_path / "flat.csv"
        save_csv(data, Dataset(features=ds.features, labels=labels, kind=REAL))
        config = write_config(
            tmp_path,
            {"task": "regress", "method": "euclidean, gerry_reg", "data.source": "csv",
             "data.path": str(data), "data.test_fraction": "0.25", "seed": "0",
             "out.dir": str(tmp_path / "out")},
        )

        def never(*args, **kwargs):
            raise AssertionError("trained before the split was checked")

        monkeypatch.setattr(harness, "train_reg_sgd", never)
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "config error: data: the 10 targets of the test split all equal 1.5" in err

    @pytest.mark.parametrize("case", ["class_only_in_test", "constant_column"])
    def test_awkward_classify_data_runs_every_method(self, tmp_path, case):
        """A third class whose one row lands in the test split (so no fit
        split has it), or a constant feature column: every classify method
        still exits 0 with a finite final row."""
        methods = ["euclidean", "gw", "egop", "ejop", "relieff", "gerry_sym", "gerry_asym",
                   "hamming"]
        ds = gauss_blobs([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]], 20, 1.0, seed=4)
        features, labels = ds.features, ds.labels
        if case == "class_only_in_test":
            _, test_idx = split_indices(ds.n, 0.25, 0)
            labels = labels.copy()
            labels[test_idx.max()] = 3  # rows before it hold classes 1 and 2
        else:
            features = features.copy()
            features[:, 1] = 7.0
        data = tmp_path / "data.csv"
        save_csv(data, Dataset(features=features, labels=labels, kind=CLASS))
        config = write_config(
            tmp_path,
            {"task": "classify", "method": ", ".join(methods), "data.source": "csv",
             "data.path": str(data), "data.test_fraction": "0.25", "grid.k": "3",
             "grid.h": "2.0", "grid.t": "0.5", "train.epochs": "2", "hamming.bits": "4",
             "seed": "0", "out.dir": str(tmp_path / "out")},
        )
        train, test = load_experiment_data(read_config(config))
        assert (3 in test.labels and 3 not in train.labels) == (case == "class_only_in_test")
        assert cli.main(["run", "--config", str(config)]) == 0
        finals = final_values(read_results(tmp_path / "out"))
        assert set(finals) == set(methods)
        assert all(np.isfinite(value) for value in finals.values())

    def test_test_split_lacking_a_middle_class_runs(self, tmp_path):
        """Class 2 has 2 of 200 rows and seed 1 puts both in the training
        split, so the test split holds classes 1 and 3 only."""
        rng = np.random.default_rng(0)
        sizes = (100, 2, 98)
        features = np.vstack([rng.normal(2.0 * c, 1.0, size=(n, 2)) for c, n in enumerate(sizes)])
        data = tmp_path / "data.csv"
        save_csv(data, Dataset(features=features, labels=np.repeat([1, 2, 3], sizes), kind=CLASS))
        config = write_config(
            tmp_path,
            {"task": "classify", "method": "euclidean", "data.source": "csv",
             "data.path": str(data), "seed": "1", "out.dir": str(tmp_path / "out")},
        )
        _, test = load_experiment_data(read_config(config))
        assert set(test.labels) == {1, 3}
        assert cli.main(["run", "--config", str(config)]) == 0
        assert np.isfinite(final_values(read_results(tmp_path / "out"))["euclidean"])

    def test_rerun_is_byte_identical(self, tmp_path):
        config = self.rotated_config(tmp_path, "r1")
        assert cli.main(["run", "--config", str(config)]) == 0
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "r2")]) == 0
        assert (tmp_path / "r1" / "results.csv").read_bytes() == (
            tmp_path / "r2" / "results.csv"
        ).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        config = self.rotated_config(tmp_path, "s1")
        assert cli.main(
            ["run", "--config", str(config), "--seed", "8", "--out", str(tmp_path / "s2")]
        ) == 0
        resolved = json.loads(
            (tmp_path / "s2" / "resolved_config.json").read_text(encoding="utf-8")
        )
        assert resolved["seed"] == 8
        rows = read_results(tmp_path / "s2")
        assert all(row["seed"] == "8" for row in rows)


def estimator_config(tmp_path, name, seed, **extra):
    mapping = {
        "task": "regress", "method": "gw, egop", "data.source": "synth", "data.n": "80",
        "data.d": "3", "data.c1": "2.0", "data.decay": "0.5", "cv.folds": "2",
        "grid.k": "3, 5", "grid.h": "1.0, 2.0", "grid.t": "0.5", "seed": str(seed),
        "out.dir": str(tmp_path / name), **extra,
    }
    return write_config(tmp_path, mapping, name=f"{name}.cfg")


def cli_env():
    """The environment of a child ``python -m nnmetric.cli``: this package
    first on the path, the default warning filters."""
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(harness.__file__)), env.get("PYTHONPATH", "")]
    )
    return env


def output_bytes(out_dir):
    files = [out_dir / "results.csv", *sorted(out_dir.glob("models/*/*.csv"))]
    return {str(path.relative_to(out_dir)): path.read_bytes() for path in files}


class TestEstimatorMemo:
    def test_one_pass_per_split_h_and_t(self, tmp_path, monkeypatch):
        """GW and EGOP share each pass, and the two k values reuse it: each
        tuning split computes its 2 h x 2 t in one call, each refit its
        chosen (h, t) alone, and no (split, h, t) is computed twice."""
        calls, egop_calls = [], []
        passes_fn, egop_fn = harness.gradient_passes, harness.estimate_egop

        def counted_passes(train, points, temperature=None):
            key = (train.features.tobytes(), train.labels.tobytes())
            calls.append([(key, spec.bandwidth, t, temperature) for spec, t in points])
            return passes_fn(train, points, temperature)

        def counted_egop(train, spec, t, **kwargs):
            egop_calls.append(1)
            return egop_fn(train, spec, t, **kwargs)

        monkeypatch.setattr(harness, "gradient_passes", counted_passes)
        monkeypatch.setattr(harness, "estimate_egop", counted_egop)
        result = run_experiment(
            read_config(estimator_config(tmp_path, "m", 2, **{"grid.t": "0.5, 0.75"}))
        )
        refits = {(result.models[m].params["h"], result.models[m].params["t"])
                  for m in ("gw", "egop")}
        points = [point for call in calls for point in call]
        assert len(points) == len(set(points)) == 2 * 4 + len(refits)
        assert sorted(len(call) for call in calls) == [1] * len(refits) + [4, 4]
        assert len(egop_calls) == 2 * 4 + 1

    def test_relieff_once_per_split_and_radii_once_per_fit_point(self, tmp_path,
                                                                monkeypatch):
        """The k and hnn quantile axes only change prediction: ReliefF runs
        once per fold and once for the refit, and the hnn radii once per
        (fold, h, t) and once for the refit."""
        relieff_calls, radii_calls = [], []
        relieff_fn, radii_fn = harness.relieff_weights, harness._radii
        monkeypatch.setattr(harness, "relieff_weights",
                            lambda *a, **kw: relieff_calls.append(1) or relieff_fn(*a, **kw))
        monkeypatch.setattr(harness, "_radii",
                            lambda feats: radii_calls.append(1) or radii_fn(feats))
        data = tmp_path / "blobs.csv"
        noisy_blobs_csv(data, seed=1, n_per=30, d=3)
        config = write_config(
            tmp_path,
            {"task": "classify", "method": "relieff", "data.source": "csv",
             "data.path": str(data), "grid.k": "3, 5", "cv.folds": "2",
             "out.dir": str(tmp_path / "relieff")},
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        assert len(relieff_calls) == 2 + 1
        run_experiment(read_config(estimator_config(
            tmp_path, "hnn", 0, **{"method": "gw", "predict.rule": "hnn"})))
        assert len(radii_calls) == 2 * 2 + 1

    def test_runs_in_one_process_match_fresh_runs(self, tmp_path):
        """A run after another run on other data writes what a run in a
        fresh interpreter writes, so no estimate outlives its run."""
        first = estimator_config(tmp_path, "first", 1)
        second = estimator_config(tmp_path, "second", 2)
        assert cli.main(["run", "--config", str(first)]) == 0
        assert cli.main(["run", "--config", str(second)]) == 0
        subprocess.run(
            [sys.executable, "-W", "ignore", "-m", "nnmetric.cli", "run", "--config",
             str(second), "--out", str(tmp_path / "fresh")],
            env=cli_env(), capture_output=True, timeout=300, check=True,
        )
        assert output_bytes(tmp_path / "second") == output_bytes(tmp_path / "fresh")
        assert output_bytes(tmp_path / "first")["results.csv"] != output_bytes(
            tmp_path / "second")["results.csv"]

    def test_cli_prints_one_line_per_all_gated_pass(self, tmp_path):
        """Rows far apart, with t < h and a small h: no probe's ball holds a
        point but its own sample, so every difference of EJOP's class surface
        is zero.  Under Python's default filter a text is printed once per
        process; two of the 3 passes (the 30-row folds) warn with the same
        text, and ``nnmetric run`` still prints all 3."""
        data = tmp_path / "blobs.csv"
        noisy_blobs_csv(data, seed=1, n_per=40, d=3)
        config = write_config(
            tmp_path,
            {"task": "classify", "method": "ejop", "data.source": "csv",
             "data.path": str(data), "grid.k": "3, 5", "grid.h": "0.01", "grid.t": "0.005",
             "cv.folds": "2", "out.dir": str(tmp_path / "zero")},
        )
        done = subprocess.run(
            [sys.executable, "-m", "nnmetric.cli", "run", "--config", str(config)],
            env=cli_env(), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        lines = [line for line in done.stderr.splitlines()
                 if "every central difference was zero" in line]
        assert len(lines) == 3, done.stderr
        assert len(set(lines)) == 2, done.stderr


class TestTrainTestHygiene:
    def test_sentinel_test_rows_leave_fit_unchanged(self, tmp_path):
        """Poisoning the held-out rows must not move the normalization
        stats, the tuned choices, or the fitted model."""
        ds = synth_sin(n=80, d=4, c1=2.0, decay=0.5, seed=5)
        clean_csv = tmp_path / "clean.csv"
        save_csv(clean_csv, ds)
        base = {
            "task": "regress",
            "method": "egop",
            "data.source": "csv",
            "grid.k": "3",
            "grid.h": "2.0",
            "grid.t": "0.5",
            "seed": "5",
        }
        clean_cfg = ExperimentConfig.from_mapping(
            {**base, "data.path": str(clean_csv), "out.dir": str(tmp_path / "clean")}
        )
        run_experiment(clean_cfg)

        _, test_idx = split_indices(ds.n, clean_cfg.test_fraction, clean_cfg.seed)
        poisoned = ds.features.copy()
        poisoned[test_idx] = 1e9
        labels = ds.labels.copy()
        labels[test_idx] = 1e6 * (1.0 + np.arange(len(test_idx)))
        bad_csv = tmp_path / "poisoned.csv"
        save_csv(bad_csv, Dataset(features=poisoned, labels=labels, kind="real"))
        bad_cfg = ExperimentConfig.from_mapping(
            {**base, "data.path": str(bad_csv), "out.dir": str(tmp_path / "bad")}
        )
        run_experiment(bad_cfg)

        for name in (
            "models/norm_stats.json",
            "models/egop/transform.csv",
            "models/egop/estimate.csv",
        ):
            assert (tmp_path / "clean" / name).read_bytes() == (
                tmp_path / "bad" / name
            ).read_bytes()
        clean_cv = [r for r in read_results(tmp_path / "clean") if r["fold"] != "-1"]
        bad_cv = [r for r in read_results(tmp_path / "bad") if r["fold"] != "-1"]
        assert clean_cv == bad_cv

    def test_split_respects_fraction_and_kind(self, tmp_path):
        data = tmp_path / "c.csv"
        noisy_blobs_csv(data, seed=0, n_per=20, d=3)
        config = ExperimentConfig.from_mapping(
            {"task": "classify", "method": "euclidean", "data.source": "csv",
             "data.path": str(data), "data.test_fraction": "0.5",
             "out.dir": str(tmp_path / "o")}
        )
        train, test = load_experiment_data(config)
        assert train.kind == CLASS and test.kind == CLASS
        assert train.n == 20 and test.n == 20


class TestRemainingMethodPipelines:
    def test_regression_learner_and_radius_rule_run(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "task": "regress",
                "method": "gerry_reg",
                "data.source": "synth",
                "data.n": "100",
                "data.d": "3",
                "data.c1": "2.0",
                "data.decay": "0.5",
                "grid.k": "3",
                "grid.gamma": "1.0",
                "grid.c": "0.5",
                "train.epochs": "4",
                "seed": "1",
                "out.dir": str(tmp_path / "reg"),
            },
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        finals = final_values(read_results(tmp_path / "reg"))
        assert 0.0 <= finals["gerry_reg"] < 1.5

        radius_cfg = write_config(
            tmp_path,
            {
                "task": "regress",
                "method": "euclidean",
                "predict.rule": "hnn",
                "data.source": "synth",
                "data.n": "100",
                "data.d": "3",
                "data.c1": "2.0",
                "data.decay": "0.5",
                "seed": "1",
                "out.dir": str(tmp_path / "hnn"),
            },
            name="radius.cfg",
        )
        assert cli.main(["run", "--config", str(radius_cfg)]) == 0
        rows = read_results(tmp_path / "hnn")
        chosen = json.loads([r for r in rows if r["fold"] == "-1"][0]["params_json"])
        assert chosen["radius"] > 0

    def test_classify_stack_runs_and_saves_models(self, tmp_path):
        data = tmp_path / "blobs.csv"
        noisy_blobs_csv(data, seed=2, n_per=40, d=4)
        config = write_config(
            tmp_path,
            {
                "task": "classify",
                "method": "ejop, relieff, gerry_asym, hamming",
                "data.source": "csv",
                "data.path": str(data),
                "grid.k": "3",
                "grid.h": "2.0",
                "grid.t": "0.5",
                "grid.c": "1.0",
                "train.epochs": "4",
                "hamming.bits": "6",
                "seed": "2",
                "out.dir": str(tmp_path / "stack"),
            },
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        models = tmp_path / "stack" / "models"
        assert (models / "ejop" / "estimate.csv").exists()
        assert (models / "relieff" / "transform.csv").exists()
        assert (models / "gerry_asym" / "u.csv").exists()
        assert (models / "gerry_asym" / "v.csv").exists()
        assert (models / "hamming" / "u.csv").exists()
        info = json.loads(
            (models / "ejop" / "model.json").read_text(encoding="utf-8")
        )
        assert info["estimate"]["kind"] == "ejop"
        assert info["estimate"]["temperature"] == 1.0
