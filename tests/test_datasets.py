"""Dataset construction, CSV round trips, standardization, and the
synthetic generator's distributional and determinism guarantees."""

import numpy as np
import pytest

from fenkit.datasets import (
    ProcessDataset,
    SyntheticConfig,
    attach_onset_labels,
    fit_standardize,
    generate_synthetic,
    load_csv,
    read_synthetic_config,
    standardized,
    write_csv,
    write_sidecar,
)


def _dataset(values):
    values = np.asarray(values, dtype=np.float64)
    return ProcessDataset(values, np.zeros(values.shape[0], dtype=np.int64))


class TestProcessDataset:
    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            ProcessDataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            _dataset([[1.0, np.nan]])

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError):
            ProcessDataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64))

    def test_rejects_negative_labels(self):
        """Labels have two classes: 0 normal, positive a fault id."""
        with pytest.raises(ValueError, match="non-negative"):
            ProcessDataset(np.zeros((3, 2)), np.array([0, -1, 1]))

    def test_values_frozen(self):
        ds = _dataset([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            ds.values[0, 0] = 5.0

    def test_split_preserves_rows_and_labels(self):
        values = np.arange(12, dtype=np.float64).reshape(6, 2)
        labels = np.array([0, 0, 0, 1, 1, 1])
        ds = ProcessDataset(values, labels)
        head, tail = ds.split(4)
        np.testing.assert_array_equal(head.values, values[:4])
        np.testing.assert_array_equal(tail.values, values[4:])
        np.testing.assert_array_equal(tail.labels, [1, 1])

    def test_split_bounds(self):
        ds = _dataset([[1.0], [2.0]])
        with pytest.raises(ValueError):
            ds.split(0)
        with pytest.raises(ValueError):
            ds.split(2)


class TestCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = _dataset(rng.standard_normal((10, 4)) * 1e3)
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.values, ds.values)

    def test_bytes_match_per_value_repr(self, tmp_path):
        """The file holds repr(float(v)) of every numpy value, as it did
        when each value was formatted alone, at signed zero, the smallest
        subnormal, the largest finite double and an inexact decimal."""
        values = np.array([[-0.0, 5e-324, 1.7976931348623157e308, 0.1],
                           [0.0, -5e-324, -1.7976931348623157e308, -0.1]])
        values = np.vstack([values, np.random.default_rng(1).standard_normal((6, 4)) * 1e3])
        path = tmp_path / "data.csv"
        write_csv(_dataset(values), path)
        expected = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in values)
        assert path.read_bytes() == expected.encode("utf-8")
        assert path.read_text().startswith("-0.0,5e-324,1.7976931348623157e+308,0.1\n")
        assert load_csv(path).values.tobytes() == values.tobytes()

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1.0,2.0\n")
        loaded = load_csv(path, has_header=True)
        np.testing.assert_array_equal(loaded.values, [[1.0, 2.0]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path)

    def test_non_numeric_reports_position(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match="line 2, column 2"):
            load_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,nan\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_csv(path)

    def test_labels_default_normal_then_attach(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        ds = load_csv(path)
        assert not ds.labels.any()
        labeled = attach_onset_labels(ds, onset=1)
        np.testing.assert_array_equal(labeled.labels, [0, 1, 1])


class TestStandardize:
    def test_train_standardizes_to_zero_mean_unit_std(self):
        rng = np.random.default_rng(1)
        ds = _dataset(rng.standard_normal((200, 5)) * [1, 2, 3, 4, 5] + 10)
        stats = fit_standardize(ds.values)
        out = standardized(ds.values, stats)
        np.testing.assert_allclose(out.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0, ddof=1), 1, rtol=1e-12)

    def test_constant_column_maps_to_zero(self):
        ds = _dataset(np.column_stack([np.arange(5.0), np.full(5, 7.0)]))
        stats = fit_standardize(ds.values)
        out = standardized(ds.values, stats)
        np.testing.assert_array_equal(out[:, 1], 0.0)

    def test_test_phase_uses_train_stats(self):
        train = _dataset([[0.0], [2.0]])
        test = _dataset([[4.0]])
        out = standardized(test.values, fit_standardize(train.values))
        expected = (4.0 - 1.0) / np.std([0.0, 2.0], ddof=1)
        np.testing.assert_allclose(out, [[expected]])


class TestSyntheticConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_variables=0, n_train=10, n_test=10)
        with pytest.raises(ValueError):
            SyntheticConfig(n_variables=3, n_train=10, n_test=10, fault_type="bogus")
        with pytest.raises(ValueError):
            SyntheticConfig(n_variables=3, n_train=10, n_test=10, fault_onset=10,
                            fault_type="step", fault_channels=(0,))
        with pytest.raises(ValueError):
            SyntheticConfig(n_variables=3, n_train=10, n_test=10, fault_type="step",
                            fault_channels=(3,))
        with pytest.raises(ValueError):
            SyntheticConfig(n_variables=3, n_train=10, n_test=10, fault_type="step")

    def test_sidecar_round_trip(self, tmp_path):
        config = SyntheticConfig(n_variables=4, n_train=100, n_test=50,
                                 fault_type="slow_drift", fault_amplitude=0.75,
                                 fault_channels=(1, 3), fault_onset=10, seed=42)
        path = tmp_path / "meta.ini"
        write_sidecar(config, path)
        assert read_synthetic_config(path) == config

    def test_recipe_unknown_key_rejected(self, tmp_path):
        """fault_typ used to be skipped, generating a fault-free record."""
        path = tmp_path / "recipe.ini"
        path.write_text("[synthetic]\nn_variables = 3\nn_train = 20\nn_test = 10\n"
                        "fault_typ = step\nfault_channels = 1\n")
        with pytest.raises(ValueError, match="unknown key 'fault_typ'"):
            read_synthetic_config(path)

    def test_recipe_unknown_section_rejected(self, tmp_path):
        """A recipe holds only the [synthetic] section."""
        path = tmp_path / "recipe.ini"
        path.write_text("[synthetic]\nn_variables = 3\nn_train = 20\nn_test = 10\n"
                        "[fault]\nfault_type = step\n")
        with pytest.raises(ValueError, match=r"unknown section \[fault\]"):
            read_synthetic_config(path)

    def test_recipe_missing_required_key(self, tmp_path):
        path = tmp_path / "recipe.ini"
        path.write_text("[synthetic]\nn_train = 20\nn_test = 10\n")
        with pytest.raises(ValueError, match="missing key 'n_variables'"):
            read_synthetic_config(path)


class TestGenerateSynthetic:
    def test_deterministic(self):
        config = SyntheticConfig(n_variables=5, n_train=300, n_test=200,
                                 fault_type="step", fault_channels=(2,), seed=9)
        a = generate_synthetic(config)
        b = generate_synthetic(config)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_shapes_and_labels(self):
        config = SyntheticConfig(n_variables=4, n_train=100, n_test=80,
                                 fault_type="step", fault_channels=(0,), fault_onset=30)
        ds = generate_synthetic(config)
        assert ds.values.shape == (180, 4)
        np.testing.assert_array_equal(ds.labels[:130], 0)
        np.testing.assert_array_equal(ds.labels[130:], 1)

    def test_stationary_without_fault(self):
        """Per-channel variance of the two halves agrees within 30%."""
        config = SyntheticConfig(n_variables=6, n_train=1000, n_test=1000, seed=3)
        ds = generate_synthetic(config)
        half = ds.n_samples // 2
        var_a = ds.values[:half].var(axis=0, ddof=1)
        var_b = ds.values[half:].var(axis=0, ddof=1)
        assert np.all(np.abs(var_b - var_a) / var_a < 0.3)

    def test_channels_are_cross_correlated(self):
        config = SyntheticConfig(n_variables=4, n_train=2000, n_test=1000, seed=5)
        ds = generate_synthetic(config)
        corr = np.corrcoef(ds.values.T)
        assert abs(corr[0, 1]) > 0.1

    def test_zero_amplitude_step_matches_no_fault(self):
        """With the same seed the injected noise stream is shared, so an
        amplitude-0 step leaves the values bit-identical to no fault."""
        base = dict(n_variables=5, n_train=200, n_test=200, seed=11)
        faulty = generate_synthetic(SyntheticConfig(
            fault_type="step", fault_amplitude=0.0, fault_channels=(1,),
            fault_onset=50, **base))
        clean = generate_synthetic(SyntheticConfig(fault_type="none", **base))
        np.testing.assert_array_equal(faulty.values, clean.values)

    def test_step_shifts_mean_by_amplitude_in_channel_units(self):
        config = SyntheticConfig(n_variables=3, n_train=4000, n_test=4000,
                                 fault_type="step", fault_amplitude=2.0,
                                 fault_channels=(1,), fault_onset=0, seed=17)
        ds = generate_synthetic(config)
        clean = generate_synthetic(SyntheticConfig(n_variables=3, n_train=4000,
                                                   n_test=4000, seed=17))
        train_std = clean.values[:4000, 1].std(ddof=1)
        shift = (ds.values[4000:, 1] - clean.values[4000:, 1]).mean()
        np.testing.assert_allclose(shift, 2.0 * train_std, rtol=1e-12)
        np.testing.assert_array_equal(ds.values[:, 0], clean.values[:, 0])

    def test_random_variation_scales_noise_injection(self):
        base = dict(n_variables=3, n_train=3000, n_test=3000, seed=23)
        faulty = generate_synthetic(SyntheticConfig(
            fault_type="random_variation", fault_amplitude=3.0,
            fault_channels=(2,), fault_onset=0, **base))
        clean = generate_synthetic(SyntheticConfig(fault_type="none", **base))
        ratio = faulty.values[3000:, 2].var(ddof=1) / clean.values[3000:, 2].var(ddof=1)
        assert ratio > 4.0
        np.testing.assert_array_equal(faulty.values[:3000], clean.values[:3000])

    def test_slow_drift_reaches_amplitude_at_end(self):
        config = SyntheticConfig(n_variables=2, n_train=500, n_test=500,
                                 fault_type="slow_drift", fault_amplitude=4.0,
                                 fault_channels=(0,), fault_onset=100, seed=29)
        ds = generate_synthetic(config)
        clean = generate_synthetic(SyntheticConfig(n_variables=2, n_train=500,
                                                   n_test=500, seed=29))
        train_std = clean.values[:500, 0].std(ddof=1)
        drift = ds.values[:, 0] - clean.values[:, 0]
        np.testing.assert_array_equal(drift[:600], 0.0)
        np.testing.assert_allclose(drift[-1], 4.0 * train_std, rtol=1e-12)
        np.testing.assert_allclose(np.diff(drift[600:]),
                                   drift[-1] / (999 - 600), rtol=1e-9)

    def test_sticking_freezes_channel(self):
        config = SyntheticConfig(n_variables=3, n_train=200, n_test=200,
                                 fault_type="sticking", fault_channels=(1,),
                                 fault_onset=50, seed=31)
        ds = generate_synthetic(config)
        stuck = ds.values[250:, 1]
        np.testing.assert_array_equal(stuck, stuck[0])
        assert ds.values[200:250, 1].std() > 0
