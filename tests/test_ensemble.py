"""Feature integration matrix: shape, column composition and alignment."""

import numpy as np
import pytest

import fenkit.ensemble as ensemble_module
import fenkit.transform as transform_module
from fenkit.datasets import ProcessDataset
from fenkit.detectors import (
    DetectorBankConfig,
    detector_control_limit,
    detector_features,
    fit_detector_bank,
)
from fenkit.ensemble import FeatureMatrix, build_feature_matrix
from fenkit.numerics import frozen
from fenkit.transform import build_fused_matrix


def make_data(seed, n=300, m=5):
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((n, 2))
    values = latent @ rng.standard_normal((2, m)) + 0.1 * rng.standard_normal((n, m))
    return ProcessDataset(values, np.zeros(n, dtype=np.int64))


class TestFeatureMatrix:
    def test_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            FeatureMatrix(np.zeros(3))
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMatrix(np.array([[np.inf]]))
        with pytest.raises(ValueError, match="sample_offset"):
            FeatureMatrix(np.zeros((2, 1)), sample_offset=-1)

    def test_properties(self):
        fm = FeatureMatrix(np.zeros((4, 2)), sample_offset=3)
        assert fm.n_samples == 4
        assert fm.n_features == 2
        assert fm.sample_offset == 3

    def test_caller_array_is_copied_and_stays_writable(self):
        values = np.arange(8.0).reshape(4, 2)
        fm = FeatureMatrix(values)
        assert not np.shares_memory(fm.values, values)
        assert values.flags.writeable and not fm.values.flags.writeable
        values[0, 0] = 99.0
        assert fm.values[0, 0] == 0.0
        read_only_float32 = frozen(values.astype(np.float32))
        converted = FeatureMatrix(read_only_float32).values
        assert converted.dtype == np.float64 and not converted.flags.writeable
        assert not np.shares_memory(converted, read_only_float32)

    def test_read_only_float64_array_is_wrapped_as_is(self):
        values = frozen(np.arange(8.0).reshape(4, 2))
        assert FeatureMatrix(values).values is values
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMatrix(frozen(np.array([[1.0, np.nan]])))

    def test_library_built_matrices_are_not_copied(self, monkeypatch):
        """The bank's feature matrix and a fused spectra matrix wrap the
        array the library built, not a copy of it."""
        for module in (ensemble_module, transform_module):
            built = []
            monkeypatch.setattr(module, "frozen",
                                lambda array, built=built: built.append(array) or frozen(array))
            if module is ensemble_module:
                data = make_data(6)
                fm = build_feature_matrix(fit_detector_bank(data), data)
            else:
                fm = build_fused_matrix(FeatureMatrix(make_data(7).values), [(0, 1, 2)], 20)
            assert len(built) == 1 and np.shares_memory(fm.values, built[0])


class TestBuildFeatureMatrix:
    def test_default_bank_shape(self):
        data = make_data(0, n=400)
        bank = fit_detector_bank(data)
        features = build_feature_matrix(bank, data)
        assert features.values.shape == (400, 7)
        assert features.sample_offset == 0

    def test_columns_match_individual_detectors(self):
        """Each column stays bit-identical to scoring with that detector
        alone."""
        data = make_data(1)
        bank = fit_detector_bank(data)
        features = build_feature_matrix(bank, data)
        col = 0
        for det in bank.detectors:
            alone = detector_features(det, data.values)
            np.testing.assert_array_equal(
                features.values[:, col:col + alone.shape[1]], alone)
            col += alone.shape[1]

    def test_single_detector_bank_gives_one_column(self):
        data = make_data(2)
        bank = fit_detector_bank(data, DetectorBankConfig(members=("md1",)))
        features = build_feature_matrix(bank, data)
        assert features.values.shape == (data.n_samples, 1)
        alone = detector_features(bank.detectors[0], data.values)
        np.testing.assert_array_equal(features.values, alone)

    def test_training_quantiles_match_control_limits(self):
        """Column-wise 0.99 quantiles of the training feature matrix are
        exactly the per-detector control limits."""
        data = make_data(3)
        bank = fit_detector_bank(data)
        features = build_feature_matrix(bank, data)
        for j in range(features.n_features):
            column = features.values[:, j]
            assert detector_control_limit(column, 0.99) == \
                np.sort(column)[int(np.ceil(0.99 * len(column))) - 1]

    def test_dimension_mismatch(self):
        bank = fit_detector_bank(make_data(4, m=5))
        with pytest.raises(ValueError):
            build_feature_matrix(bank, make_data(5, m=4))
