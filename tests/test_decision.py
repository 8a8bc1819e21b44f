"""Decision-layer contracts: index formula against a direct oracle,
control-limit calibration, and strict-inequality alarms."""

import numpy as np
import pytest

from fenkit.datasets import ScalerStats
from fenkit.decision import DecisionModel, alarms, detection_index, fit_decision
from fenkit.numerics import EPS_STD


def decision_model(mean, std, limit):
    return DecisionModel(ScalerStats(mean, std), limit)


def gaussian_codes(seed, n=500, dim=6):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)) * [1, 2, 3, 1, 2, 3] + [0, 1, -1, 2, -2, 0]


class TestFitDecision:
    def test_limit_is_order_statistic_of_training_index(self):
        codes = gaussian_codes(0, n=1000)
        model = fit_decision(codes, confidence=0.99)
        train_d = detection_index(model, codes)
        assert model.limit == np.sort(train_d)[989]
        assert np.mean(train_d > model.limit) <= 0.01

    def test_identical_codes_degenerate(self):
        codes = np.tile([1.0, 2.0, 3.0], (50, 1))
        model = fit_decision(codes)
        np.testing.assert_array_equal(model.scaler.std, EPS_STD)
        train_d = detection_index(model, codes)
        np.testing.assert_array_equal(train_d, 0.0)
        assert model.limit == 0.0

    def test_held_out_false_alarm_rate(self):
        """FAR on held-out codes from the training distribution stays
        near 1% (+-1.5 points)."""
        model = fit_decision(gaussian_codes(1, n=4000), confidence=0.99)
        held_out = gaussian_codes(2, n=4000)
        far = np.mean(alarms(model, detection_index(model, held_out)))
        assert abs(far - 0.01) <= 0.015

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_decision(np.zeros((1, 3)))

    def test_validation(self):
        with pytest.raises(ValueError):
            decision_model(np.zeros(3), np.ones(3), -1.0)
        with pytest.raises(ValueError):
            fit_decision(gaussian_codes(0), confidence=1.0)
        with pytest.raises(ValueError):
            decision_model(np.zeros(3), np.zeros(3), 1.0)

    @pytest.mark.parametrize("field", ["limit", "mean", "std"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_state_rejected(self, field, value):
        """A NaN limit would never alarm, and a NaN or infinite mean or
        std makes every index NaN or zero; none of them is a model."""
        state = {"mean": np.zeros(3), "std": np.ones(3), "limit": 1.0}
        state[field] = np.full(3, value) if field != "limit" else value
        with pytest.raises(ValueError, match="finite"):
            decision_model(state["mean"], state["std"], state["limit"])


class TestDetectionIndex:
    def test_mean_code_scores_zero(self):
        model = fit_decision(gaussian_codes(3))
        assert detection_index(model, model.scaler.mean[None, :])[0] == 0.0

    def test_one_std_step_scores_code_dim(self):
        model = fit_decision(gaussian_codes(4))
        (d,) = detection_index(model, (model.scaler.mean + model.scaler.std)[None, :])
        assert d == pytest.approx(model.code_dim, rel=1e-12)

    def test_matches_elementwise_oracle(self):
        model = fit_decision(gaussian_codes(5))
        rng = np.random.default_rng(6)
        for _ in range(10):
            code = rng.standard_normal(6) * 3
            expected = sum(abs((code[j] - model.scaler.mean[j]) / model.scaler.std[j])
                           for j in range(6))
            np.testing.assert_allclose(detection_index(model, code[None, :]), expected,
                                       rtol=1e-12)

    def test_translation_covariance(self):
        """Shifting codes and mean together leaves every index fixed."""
        model = fit_decision(gaussian_codes(8))
        shift = np.arange(6.0)
        shifted = decision_model(model.scaler.mean + shift, model.scaler.std, model.limit)
        rng = np.random.default_rng(9)
        codes = rng.standard_normal((20, 6))
        np.testing.assert_allclose(detection_index(shifted, codes + shift),
                                   detection_index(model, codes), rtol=1e-12)

    def test_enlarging_one_deviation_increases_index(self):
        model = fit_decision(gaussian_codes(10))
        code = model.scaler.mean + model.scaler.std * 0.5
        (base,) = detection_index(model, code[None, :])
        bumped = code.copy()
        bumped[2] += model.scaler.std[2]
        assert detection_index(model, bumped[None, :])[0] > base

    def test_zero_iff_mean(self):
        model = fit_decision(gaussian_codes(11))
        assert detection_index(model, model.scaler.mean[None, :])[0] == 0.0
        off = model.scaler.mean.copy()
        off[0] += 1e-9
        assert detection_index(model, off[None, :])[0] > 0.0

    def test_matrix_input(self):
        model = fit_decision(gaussian_codes(12))
        codes = gaussian_codes(13, n=15)
        d = detection_index(model, codes)
        assert d.shape == (15,)
        np.testing.assert_allclose(d[3], detection_index(model, codes[3:4])[0], rtol=1e-12)

    def test_dimension_mismatch(self):
        model = fit_decision(gaussian_codes(14))
        with pytest.raises(ValueError):
            detection_index(model, np.zeros((1, 5)))


class TestAlarms:
    def make_model(self, limit):
        return decision_model(np.zeros(2), np.ones(2), limit)

    def test_all_below_limit(self):
        model = self.make_model(10.0)
        np.testing.assert_array_equal(alarms(model, np.array([1.0, 9.9, 5.0])),
                                      [False, False, False])

    def test_exact_limit_does_not_alarm(self):
        model = self.make_model(3.0)
        np.testing.assert_array_equal(alarms(model, np.array([3.0])), [False])
        np.testing.assert_array_equal(alarms(model, np.array([np.nextafter(3.0, 4)])),
                                      [True])

    def test_mixed_sequence(self):
        model = self.make_model(2.0)
        d = np.array([0.0, 2.0, 2.1, 5.0, 1.9])
        np.testing.assert_array_equal(alarms(model, d), d > 2.0)
