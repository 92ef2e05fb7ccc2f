import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnmetric.dataset import (
    Dataset,
    DatasetFormatError,
    kfold,
    load_csv,
    random_rotation,
    save_csv,
    sin_targets,
    synth_sin,
    zscore_fit_apply,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_class_reindexing_by_first_appearance(self, tmp_path):
        p = write(tmp_path, "f1,f2,lab\n0,1,a\n2,3,b\n4,5,a\n")
        ds = load_csv(p, "lab", "class")
        assert ds.n_classes == 2
        np.testing.assert_array_equal(ds.labels, [1, 2, 1])

    def test_label_names_follow_first_appearance_through_subsets(self, tmp_path):
        p = write(tmp_path, "f1,lab\n0,3\n1,1\n2,3\n3,2\n")
        ds = load_csv(p, "lab", "class")
        np.testing.assert_array_equal(ds.labels, [1, 2, 1, 3])
        assert ds.label_names == ("3", "1", "2")
        part = ds.subset([1, 3])
        assert part.label_names == ("3", "1", "2")
        assert [part.class_label(r) for r in (1, 2, 3)] == ["3", "1", "2"]
        assert Dataset(features=[[0.0]], labels=[1], kind="class").class_label(1) == "1"
        real = load_csv(write(tmp_path, "f1,y\n0,0.5\n", name="real.csv"), "y", "real")
        assert real.label_names == ()

    def test_nan_cell_reports_row(self, tmp_path):
        p = write(tmp_path, "f1,y\n1.5,0\nNaN,1\n")
        with pytest.raises(DatasetFormatError, match="row 2"):
            load_csv(p, "y", "real")

    def test_counts_on_generated_file(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["a,b,c,d,y"]
        for _ in range(150):
            lines.append(",".join(repr(float(v)) for v in rng.standard_normal(5)))
        p = write(tmp_path, "\n".join(lines) + "\n")
        ds = load_csv(p, "y", "real")
        assert (ds.n, ds.d) == (150, 4)

    def test_missing_column(self, tmp_path):
        p = write(tmp_path, "f1,f2\n1,2\n")
        with pytest.raises(DatasetFormatError, match="missing label column"):
            load_csv(p, "y", "real")

    def test_non_numeric_cell_location(self, tmp_path):
        p = write(tmp_path, "f1,y\n1,0\noops,1\n")
        with pytest.raises(DatasetFormatError, match="row 2, column 'f1'"):
            load_csv(p, "y", "real")

    def test_bad_label_after_a_blank_line_reports_its_row(self, tmp_path):
        """A blank line counts as a row for a real label as for a feature."""
        p = write(tmp_path, "x1,label\n1.0,2.0\n\n2.0,3.0\n3.0,oops\n")
        with pytest.raises(DatasetFormatError, match="row 4, column 'label'"):
            load_csv(p, "label", "real")
        p = write(tmp_path, "x1,label\n1.0,2.0\n\n2.0,3.0\noops,4.0\n", name="feature.csv")
        with pytest.raises(DatasetFormatError, match="row 4, column 'x1'"):
            load_csv(p, "label", "real")

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(DatasetFormatError, match="empty"):
            load_csv(p, "y", "real")

    def test_header_only(self, tmp_path):
        p = write(tmp_path, "f1,y\n")
        with pytest.raises(DatasetFormatError, match="no data rows"):
            load_csv(p, "y", "real")

    def test_byte_order_mark_is_not_part_of_the_first_column(self, tmp_path):
        text = "label,x\nb,1.0\na,2.0\nb,3.0\n"
        plain = load_csv(write(tmp_path, text), "label", "class")
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        back = load_csv(marked, "label", "class")
        np.testing.assert_array_equal(back.features, plain.features)
        np.testing.assert_array_equal(back.labels, plain.labels)
        assert (back.kind, back.label_names) == (plain.kind, ("b", "a"))

    def test_no_feature_columns_names_the_file(self, tmp_path):
        p = write(tmp_path, "label\n1\n2\n")
        with pytest.raises(DatasetFormatError, match=r"data\.csv: no feature columns besides "
                                                     r"the label column 'label'"):
            load_csv(p, "label", "class")

    def test_save_load_roundtrip(self, tmp_path):
        ds = synth_sin(n=20, d=3, seed=1)
        p = tmp_path / "rt.csv"
        save_csv(p, ds)
        back = load_csv(p, "label", "real")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)


class TestZscore:
    def test_two_point_column(self):
        train = Dataset(np.array([[1.0], [3.0]]), np.array([0.0, 0.0]), "real")
        stats, (norm,) = zscore_fit_apply(train)
        assert stats.mean[0] == 2.0
        assert stats.std[0] == 1.0  # population convention
        np.testing.assert_allclose(norm.features[:, 0], [-1.0, 1.0])

    def test_constant_column_floored(self):
        train = Dataset(np.full((3, 1), 5.0), np.zeros(3), "real")
        _, (norm,) = zscore_fit_apply(train)
        np.testing.assert_array_equal(norm.features, np.zeros((3, 1)))

    @pytest.mark.parametrize("factor", [1e200, 1e-300])
    def test_extreme_magnitudes_scale_as_unit_magnitude(self, factor):
        """Features x 1e200 overflow the plain variance and x 1e-300 fall
        under the floor; both z-score as the unit-scale features do, and
        print no warning."""
        x = np.random.default_rng(0).standard_normal((120, 3))
        _, (unit,) = zscore_fit_apply(Dataset(x, np.zeros(120), "real"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, (scaled,) = zscore_fit_apply(Dataset(x * factor, np.zeros(120), "real"))
        np.testing.assert_allclose(scaled.features, unit.features, rtol=1e-12)

    @pytest.mark.parametrize("value", [2.0 ** -997, 1e300])
    def test_constant_column_of_extreme_magnitude_maps_to_zero(self, value):
        """120 copies of 1e300 have a mean an ulp off, so their plain std
        overflows; the column is still constant."""
        train = Dataset(np.full((120, 1), value), np.zeros(120), "real")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, (norm,) = zscore_fit_apply(train)
        np.testing.assert_array_equal(norm.features, np.zeros((120, 1)))

    def test_out_of_range_point_not_clipped(self):
        train = Dataset(np.array([[0.0], [1.0]]), np.zeros(2), "real")
        test = Dataset(np.array([[100.0]]), np.zeros(1), "real")
        _, (_, norm_test) = zscore_fit_apply(train, [test])
        assert np.isfinite(norm_test.features).all()
        assert norm_test.features[0, 0] > 10

    def test_stats_from_train_only(self):
        train = Dataset(np.array([[0.0], [2.0]]), np.zeros(2), "real")
        poisoned = Dataset(np.array([[1e9]]), np.zeros(1), "real")
        stats_a, _ = zscore_fit_apply(train)
        stats_b, _ = zscore_fit_apply(train, [poisoned])
        np.testing.assert_array_equal(stats_a.mean, stats_b.mean)
        np.testing.assert_array_equal(stats_a.std, stats_b.std)

    def test_dimension_mismatch(self):
        train = Dataset(np.zeros((2, 2)), np.zeros(2), "real")
        other = Dataset(np.zeros((2, 3)), np.zeros(2), "real")
        with pytest.raises(ValueError, match="dimension mismatch"):
            zscore_fit_apply(train, [other])

    def test_split_lacking_a_middle_class(self):
        """A test split may hold classes 1 and 3 but not 2; z-scoring keeps
        its labels instead of re-checking them for contiguity."""
        full = Dataset(np.arange(8.0).reshape(4, 2), np.array([1, 2, 3, 3]), "class")
        train, test = full.subset([0, 1, 2]), full.subset([0, 3])
        stats, (_, norm_test) = zscore_fit_apply(train, [test])
        np.testing.assert_array_equal(norm_test.labels, [1, 3])
        np.testing.assert_array_equal(norm_test.features, stats.apply(test.features))

    def test_with_features_checks_features(self):
        ds = Dataset(np.zeros((2, 2)), np.zeros(2), "real")
        for bad, message in (
            (np.zeros(2), "2-d"),
            (np.full((2, 2), np.nan), "non-finite"),
            (np.zeros((3, 2)), "row count"),
        ):
            with pytest.raises(ValueError, match=message):
                ds.with_features(bad)


class TestKfold:
    def test_even_split(self):
        spec = kfold(4, 2, seed=0)
        sizes = [len(spec.fold_indices(f)) for f in range(2)]
        assert sizes == [2, 2]

    def test_deterministic(self):
        np.testing.assert_array_equal(kfold(10, 3, 7).assignment, kfold(10, 3, 7).assignment)

    def test_uneven_sizes(self):
        spec = kfold(5, 2, seed=1)
        sizes = sorted(len(spec.fold_indices(f)) for f in range(2))
        assert sizes == [2, 3]

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            kfold(1, 2, seed=0)

    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, n, n_folds, seed):
        if n < n_folds:
            n = n_folds
        spec = kfold(n, n_folds, seed)
        all_idx = np.sort(np.concatenate([spec.fold_indices(f) for f in range(n_folds)]))
        np.testing.assert_array_equal(all_idx, np.arange(n))
        sizes = [len(spec.fold_indices(f)) for f in range(n_folds)]
        assert max(sizes) - min(sizes) <= 1


class TestSynthSin:
    def test_frequency_sequence(self):
        # first frequencies: 50, 30, 18, ...
        x = np.eye(3) * 0.01
        y = sin_targets(x, c1=50.0, decay=0.6)
        expected = [np.sin(0.5), np.sin(0.3), np.sin(0.18)]
        np.testing.assert_allclose(y, expected)

    def test_zero_input_zero_target(self):
        assert sin_targets(np.zeros((1, 1)), c1=50.0, decay=0.6)[0] == 0.0

    def test_noiseless_targets_match_formula(self):
        ds = synth_sin(n=50, d=4, noise_std=0.0, seed=3)
        np.testing.assert_allclose(ds.labels, sin_targets(ds.features, 50.0, 0.6))

    def test_rotation_preserves_targets(self):
        plain = synth_sin(n=40, d=5, seed=11, rotate=False)
        rotated = synth_sin(n=40, d=5, seed=11, rotate=True)
        np.testing.assert_array_equal(plain.labels, rotated.labels)
        # features related by a single orthogonal matrix
        q, *_ = np.linalg.lstsq(plain.features, rotated.features, rcond=None)
        np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-8)
        np.testing.assert_allclose(plain.features @ q, rotated.features, atol=1e-8)

    def test_features_in_unit_cube(self):
        ds = synth_sin(n=100, d=3, seed=5)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_determinism(self):
        a = synth_sin(n=10, d=2, seed=4)
        b = synth_sin(n=10, d=2, seed=4)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            synth_sin(n=5, d=2, decay=0.0)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"n": 0}, "n"),
            ({"n": -5}, "n"),
            ({"c1": -5.0}, "c1"),
            ({"c1": 0.0}, "c1"),
            ({"c1": float("nan")}, "c1"),
            ({"c1": float("inf")}, "c1"),
            ({"noise_std": -1.0}, "noise_std"),
            ({"noise_std": float("nan")}, "noise_std"),
            ({"noise_std": float("inf")}, "noise_std"),
        ],
    )
    def test_rejects_bad_parameters_naming_them(self, kwargs, name):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            synth_sin(**{"n": 5, "d": 2, **kwargs})

    def test_boundary_values_accepted(self):
        ds = synth_sin(n=1, d=1, c1=1e-3, noise_std=0.0, seed=2)
        assert ds.n == 1 and np.isfinite(ds.labels).all()


class TestRandomRotation:
    def test_d1(self):
        np.testing.assert_array_equal(random_rotation(1, seed=0), [[1.0]])

    def test_orthogonal(self):
        q = random_rotation(3, seed=2)
        assert np.abs(q.T @ q - np.eye(3)).max() < 1e-10

    def test_proper(self):
        for seed in range(5):
            assert np.linalg.det(random_rotation(4, seed)) == pytest.approx(1.0)

    def test_deterministic(self):
        np.testing.assert_array_equal(random_rotation(5, 8), random_rotation(5, 8))
