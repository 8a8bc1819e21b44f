"""Detector contracts: component selection, score formulas against direct
quadratic-form oracles, lag handling, kernel baselines, bank assembly and
control limits."""

import contextlib

import numpy as np
import pytest

import fenkit.detectors as detectors_module
from fenkit.datasets import ProcessDataset, ScalerStats, SyntheticConfig, generate_synthetic
from fenkit.detectors import (
    DetectorBankConfig,
    KpcaDetector,
    MdDetector,
    PcaDetector,
    detector_control_limit,
    detector_features,
    fit_detector_bank,
    fit_dpca_detector,
    fit_kpca_detector,
    fit_md_detector,
    fit_pca_detector,
    kernel_matrix,
    median_pairwise_distance,
    member_feature_names,
    score_dpca,
    score_kpca,
    score_md,
)


def as_dataset(values):
    values = np.asarray(values, dtype=np.float64)
    return ProcessDataset(values, np.zeros(values.shape[0], dtype=np.int64))


def correlated_data(seed, n=400, m=5):
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((n, 2))
    mixing = rng.standard_normal((2, m))
    return as_dataset(latent @ mixing + 0.1 * rng.standard_normal((n, m)))


class TestFitPca:
    def test_dominated_spectrum_keeps_one(self):
        rng = np.random.default_rng(0)
        factor = rng.standard_normal(500)
        data = as_dataset(np.column_stack([factor, factor, factor])
                          + 1e-3 * rng.standard_normal((500, 3)))
        model = fit_pca_detector(data, variance_fraction=0.9)
        assert model.projection.shape[1] == 1

    def test_full_fraction_keeps_rank(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(300)
        b = rng.standard_normal(300)
        data = as_dataset(np.column_stack([a, b, a + b]))
        model = fit_pca_detector(data, variance_fraction=1.0)
        assert model.projection.shape[1] == 2

    def test_three_factor_data_keeps_three(self):
        rng = np.random.default_rng(2)
        factors = rng.standard_normal((600, 3))
        columns = np.column_stack([factors[:, 0], factors[:, 0], factors[:, 1],
                                   factors[:, 1], factors[:, 2], factors[:, 2]])
        data = as_dataset(columns + 1e-3 * rng.standard_normal((600, 6)))
        model = fit_pca_detector(data, variance_fraction=0.95)
        assert model.projection.shape[1] == 3

    def test_constant_data_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_pca_detector(as_dataset(np.full((50, 3), 2.0)))

    def test_bad_fraction_rejected(self):
        data = correlated_data(3)
        for fraction in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                fit_pca_detector(data, variance_fraction=fraction)

    def test_projection_orthonormal(self):
        model = fit_pca_detector(correlated_data(4))
        gram = model.projection.T @ model.projection
        np.testing.assert_allclose(gram, np.eye(model.projection.shape[1]), atol=1e-10)


class TestScorePca:
    def test_training_mean_scores_zero(self):
        model = fit_pca_detector(correlated_data(5))
        (t2,), (q,) = score_dpca(model, model.scaler.mean[None, :])
        assert t2 == pytest.approx(0.0, abs=1e-20)
        assert q == pytest.approx(0.0, abs=1e-20)

    def test_unit_step_along_first_component(self):
        model = fit_pca_detector(correlated_data(6))
        v1 = model.projection[:, 0]
        lam1 = model.retained_eigenvalues[0]
        x = model.scaler.mean + v1 * np.sqrt(lam1) * model.scaler.std
        (t2,), (q,) = score_dpca(model, x[None, :])
        assert t2 == pytest.approx(1.0, rel=1e-10)
        assert q == pytest.approx(0.0, abs=1e-16)

    def test_t2_matches_quadratic_form_oracle(self):
        model = fit_pca_detector(correlated_data(7))
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.standard_normal(5) * 2
            x_std = (x - model.scaler.mean) / model.scaler.std
            p, lam = model.projection, model.retained_eigenvalues
            expected_t2 = x_std @ p @ np.diag(1.0 / lam) @ p.T @ x_std
            expected_q = np.sum((x_std - p @ (p.T @ x_std)) ** 2)
            (t2,), (q,) = score_dpca(model, x[None, :])
            np.testing.assert_allclose(t2, expected_t2, rtol=1e-8)
            np.testing.assert_allclose(q, expected_q, rtol=1e-8, atol=1e-12)

    def test_matrix_input_matches_per_row(self):
        model = fit_pca_detector(correlated_data(9))
        batch = np.random.default_rng(10).standard_normal((6, 5))
        t2s, qs = score_dpca(model, batch)
        for i in range(6):
            (t2,), (q,) = score_dpca(model, batch[i:i + 1])
            np.testing.assert_allclose(t2s[i], t2, rtol=1e-12)
            np.testing.assert_allclose(qs[i], q, rtol=1e-12)

    def test_scores_non_negative(self):
        model = fit_pca_detector(correlated_data(11))
        t2, q = score_dpca(model, np.random.default_rng(12).standard_normal((100, 5)))
        assert np.all(t2 >= 0) and np.all(q >= 0)
        assert np.all(np.isfinite(t2)) and np.all(np.isfinite(q))

    def test_dimension_mismatch(self):
        model = fit_pca_detector(correlated_data(13))
        with pytest.raises(ValueError, match="variables"):
            score_dpca(model, np.zeros((1, 4)))

    def test_empty_matrix_scores_empty(self):
        model = fit_pca_detector(correlated_data(13))
        t2, q = score_dpca(model, np.zeros((0, 5)))
        assert t2.shape == (0,) and q.shape == (0,)


class TestDpca:
    def test_lag_zero_matches_plain_pca(self):
        data = correlated_data(14)
        plain = fit_pca_detector(data, variance_fraction=0.9)
        dynamic = fit_dpca_detector(data, lags=0, variance_fraction=0.9)
        t2_p, q_p = score_dpca(plain, data.values)
        t2_d, q_d = score_dpca(dynamic, data.values)
        np.testing.assert_allclose(t2_d, t2_p, rtol=1e-10)
        np.testing.assert_allclose(q_d, q_p, rtol=1e-10, atol=1e-12)

    def test_augmented_dimensions(self):
        rng = np.random.default_rng(15)
        data = as_dataset(rng.standard_normal((4000, 3)))
        model = fit_dpca_detector(data, lags=2)
        assert model.projection.shape[0] == 9
        assert model.lags == 2

    def test_output_aligned_with_input_length(self):
        data = correlated_data(16, n=50)
        model = fit_dpca_detector(data, lags=2)
        t2, q = score_dpca(model, data.values)
        assert t2.shape == (50,)
        # first `lags` rows reuse the earliest complete window
        assert t2[0] == t2[1] == t2[2]
        assert q[0] == q[1] == q[2]

    def test_too_short_sequence_rejected(self):
        data = correlated_data(17, n=50)
        model = fit_dpca_detector(data, lags=3)
        with pytest.raises(ValueError, match="shorter"):
            score_dpca(model, data.values[:3])

    def test_fit_needs_more_rows_than_lags(self):
        with pytest.raises(ValueError):
            fit_dpca_detector(correlated_data(18, n=4), lags=4)

    def test_white_noise_false_alarm_rate_near_one_percent(self):
        """Control limit at 0.99 on training T2 flags about 1% of
        held-out normal rows (tolerance +-1.5 points)."""
        rng = np.random.default_rng(19)
        train = as_dataset(rng.standard_normal((3000, 4)))
        held_out = rng.standard_normal((3000, 4))
        model = fit_dpca_detector(train, lags=2)
        train_t2, _ = score_dpca(model, train.values)
        limit = detector_control_limit(train_t2, 0.99)
        test_t2, _ = score_dpca(model, held_out)
        far = np.mean(test_t2 > limit)
        assert abs(far - 0.01) <= 0.015


class TestMd:
    def test_training_mean_scores_zero_all_variants(self):
        data = correlated_data(20)
        for variant in ("MD1", "MD2", "MD3"):
            model = fit_md_detector(data, variant)
            if variant == "MD3":
                # two rows whose standardized lag-1 augmentation is the
                # training mean of the augmented space
                m = model.scaler.mean.shape[0]
                lagged = np.stack([model.mean[m:], model.mean[:m]])
                d = score_md(model, model.scaler.mean + model.scaler.std * lagged)[-1]
            else:
                (d,) = score_md(model, model.scaler.mean[None, :])
            assert d == pytest.approx(0.0, abs=1e-12)

    def test_identity_covariance_unit_step(self):
        """With identity training covariance the distance to mean + c*e1
        is |c| up to the 1e-6 ridge, and strictly increasing in |c|."""
        scaler = ScalerStats(np.zeros(3), np.ones(3))
        ridge_inverse = np.eye(3) / (1.0 + 1e-6)
        model = MdDetector("MD1", np.zeros(3), ridge_inverse, scaler)
        previous = -1.0
        for c in (0.5, 1.0, 2.0, 7.5):
            (d,) = score_md(model, np.array([[c, 0.0, 0.0]]))
            assert d == pytest.approx(c, rel=1e-5)
            assert d > previous
            previous = d

    def test_matches_explicit_inverse_oracle(self):
        data = correlated_data(21)
        rng = np.random.default_rng(22)
        for variant in ("MD1", "MD2"):
            model = fit_md_detector(data, variant)
            x = rng.standard_normal(5)
            z = (x - model.scaler.mean) / model.scaler.std
            if variant == "MD2":
                z = z @ model.projection
            diff = z - model.mean
            expected = np.sqrt(diff @ model.inverse_covariance @ diff)
            np.testing.assert_allclose(score_md(model, x[None, :]), expected, rtol=1e-8)

    def test_md3_sequence_alignment(self):
        data = correlated_data(23, n=60)
        model = fit_md_detector(data, "MD3")
        d = score_md(model, data.values)
        assert d.shape == (60,)
        assert d[0] == d[1]
        assert np.all(d >= 0)

    def test_md3_oracle_on_augmented_vector(self):
        data = correlated_data(24, n=80)
        model = fit_md_detector(data, "MD3")
        z = np.random.default_rng(25).standard_normal(10)
        diff = z - model.mean
        expected = np.sqrt(diff @ model.inverse_covariance @ diff)
        # the two rows whose standardized lag-1 augmentation is z
        rows = model.scaler.mean + model.scaler.std * np.stack([z[5:], z[:5]])
        np.testing.assert_allclose(score_md(model, rows)[-1], expected, rtol=1e-8)

    def test_md2_uses_reduced_space(self):
        rng = np.random.default_rng(26)
        factor = rng.standard_normal(400)
        data = as_dataset(np.column_stack([factor, factor, factor])
                          + 1e-3 * rng.standard_normal((400, 3)))
        model = fit_md_detector(data, "MD2")
        assert model.projection.shape[1] < 3
        assert model.mean.shape[0] == model.projection.shape[1]

    def test_inverse_symmetric(self):
        model = fit_md_detector(correlated_data(27), "MD1")
        asym = np.max(np.abs(model.inverse_covariance - model.inverse_covariance.T))
        assert asym <= 1e-9

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            fit_md_detector(correlated_data(28), "MD4")

    def test_dimension_mismatch(self):
        model = fit_md_detector(correlated_data(29), "MD1")
        with pytest.raises(ValueError):
            score_md(model, np.zeros((1, 4)))


class TestKpca:
    def test_linear_kernel_reproduces_pca_ordering(self):
        """Degree-1 offset-0 polynomial kernel is the linear kernel; its
        T2 must rank samples exactly like plain PCA T2."""
        data = correlated_data(30, n=200)
        kpca = fit_kpca_detector(data, "poly", variance_fraction=0.95,
                                 degree=1.0, offset=0.0)
        pca = fit_pca_detector(data, variance_fraction=0.95)
        samples = np.random.default_rng(31).standard_normal((50, 5))
        t2_k = score_kpca(kpca, samples)
        t2_p, _ = score_dpca(pca, samples)
        np.testing.assert_array_equal(np.argsort(t2_k), np.argsort(t2_p))

    def test_rbf_infinite_bandwidth_centers_to_zero(self):
        rng = np.random.default_rng(32)
        rows = rng.standard_normal((40, 3))
        gram = kernel_matrix("rbf", rows, rows, bandwidth=1e12)
        np.testing.assert_allclose(gram, 1.0, atol=1e-12)
        row_mean = gram.mean(axis=1)
        centered = gram - row_mean[None, :] - row_mean[:, None] + gram.mean()
        np.testing.assert_allclose(centered, 0.0, atol=1e-12)

    def test_cosine_self_similarity_is_one(self):
        rng = np.random.default_rng(33)
        rows = rng.standard_normal((10, 4))
        gram = kernel_matrix("cosine", rows, rows)
        np.testing.assert_allclose(np.diag(gram), 1.0, rtol=1e-12)

    def test_training_cap_is_deterministic_stride(self):
        data = correlated_data(34, n=1000)
        model = fit_kpca_detector(data, "rbf", max_train_rows=250)
        assert model.train_rows.shape[0] == 250
        again = fit_kpca_detector(data, "rbf", max_train_rows=250)
        np.testing.assert_array_equal(model.train_rows, again.train_rows)
        np.testing.assert_array_equal(model.alphas, again.alphas)

    def test_median_heuristic_bandwidth_stored(self):
        data = correlated_data(35, n=100)
        model = fit_kpca_detector(data, "rbf")
        standardized = (data.values - model.scaler.mean) / model.scaler.std
        assert model.bandwidth == pytest.approx(
            median_pairwise_distance(standardized))

    def test_scores_non_negative_and_finite(self):
        data = correlated_data(36, n=150)
        for kernel in ("poly", "rbf", "cosine"):
            model = fit_kpca_detector(data, kernel)
            t2 = score_kpca(model, data.values)
            assert np.all(t2 >= 0) and np.all(np.isfinite(t2))

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            fit_kpca_detector(correlated_data(37), "sigmoid")

    @pytest.mark.parametrize("seed", range(4))
    def test_poly_fit_with_far_outliers(self, seed):
        """Two training rows near +-10 sigma on ten channels give poly
        kernel entries near 1e8, where one rounding step of the centring
        exceeds sym_eig's absolute symmetry bound; the fit still succeeds."""
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((200, 10))
        values[5] = 10.0 + rng.standard_normal(10)
        values[100] = -10.0 + rng.standard_normal(10)
        model = fit_kpca_detector(as_dataset(values), "poly")
        assert np.all(np.isfinite(score_kpca(model, values)))

    @staticmethod
    def force_dual(monkeypatch):
        monkeypatch.setattr(detectors_module, "_feature_map_width", lambda *args: None)

    @pytest.mark.parametrize("kernel, degree, offset", [("cosine", 3.0, 1.0)] + [
        ("poly", degree, offset) for degree in (1.0, 2.0, 3.0) for offset in (0.0, 1.0, 2.5)])
    def test_primal_matches_dual(self, monkeypatch, kernel, degree, offset):
        """The thin SVD of the centred feature map gives the dual fit's
        retained count and T2, on training and on new rows."""
        data = correlated_data(45)
        samples = 2.0 * np.random.default_rng(46).standard_normal((60, 5))
        primal = fit_kpca_detector(data, kernel, degree=degree, offset=offset)
        self.force_dual(monkeypatch)
        dual = fit_kpca_detector(data, kernel, degree=degree, offset=offset)
        assert primal.train_rows.shape[0] == 0 and dual.train_rows.shape[0] == 400
        assert primal.alphas.shape[1] == dual.alphas.shape[1]
        for values in (data.values, samples):
            np.testing.assert_allclose(score_kpca(primal, values),
                                       score_kpca(dual, values), rtol=1e-10)

    @pytest.mark.parametrize("kernel, kwargs, m", [
        ("rbf", {}, 5),
        ("poly", {"degree": 2.5, "offset": 100.0}, 5),
        ("poly", {"degree": 1.0, "offset": -1.0}, 5),
        ("poly", {"degree": 3.0, "offset": 1.0}, 10),  # C(13, 3) = 286 columns
    ])
    def test_dual_dispatch(self, monkeypatch, kernel, kwargs, m):
        """RBF, non-integer degrees, negative offsets and a feature map at
        least as wide as the 200 training rows eigendecompose the kernel
        matrix."""
        real_eig = detectors_module.sym_eig
        shapes = []
        monkeypatch.setattr(detectors_module, "sym_eig",
                            lambda matrix: shapes.append(matrix.shape) or real_eig(matrix))
        with contextlib.suppress(ValueError):  # a fractional power need not be PSD
            fit_kpca_detector(correlated_data(47, n=200, m=m), kernel, **kwargs)
        assert shapes == [(200, 200)]

    @pytest.mark.parametrize("kernel", ["poly", "cosine", "rbf"])
    def test_constant_training_data_rejected_on_both_paths(self, monkeypatch, kernel):
        """The column mean of a constant such as 3.7 is off by rounding,
        so standardizing leaves noise a kernel fit would model; every
        exactly constant input fails by name instead."""
        for dual in (False, True):
            if dual:
                self.force_dual(monkeypatch)
            for constant in (0.0, 3.7, 0.1):
                with pytest.raises(ValueError, match="all columns are constant"):
                    fit_kpca_detector(as_dataset(np.full((200, 3), constant)), kernel)

    def test_nan_kernel_matrix_rejected(self):
        """A fractional power of a negative kernel base is NaN; the fit
        fails instead of keeping no components and scoring every row 0."""
        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match="degenerate kernel matrix"):
            fit_kpca_detector(correlated_data(48), "poly", degree=2.5)

    @pytest.mark.parametrize("n", [1, 40, 42])
    def test_rbf_matches_reference_bitwise(self, n):
        """One squared-distance matrix serves the median heuristic and the
        kernel; both stay bit-equal to the upper-triangle median and the
        direct kernel formula (780 and 861 pairs: even and odd counts)."""
        rows = np.random.default_rng(49).standard_normal((n, 4))
        sq = (np.sum(rows * rows, axis=1)[:, None] + np.sum(rows * rows, axis=1)[None, :]
              - 2.0 * (rows @ rows.T))
        upper = np.sqrt(np.clip(sq, 0.0, None))[np.triu_indices(n, k=1)]
        bandwidth = float(np.median(upper)) if upper.size else 1.0
        assert median_pairwise_distance(rows) == bandwidth
        np.testing.assert_array_equal(
            kernel_matrix("rbf", rows, rows, bandwidth=bandwidth),
            np.exp(-np.clip(sq, 0.0, None) / (2.0 * bandwidth ** 2)))


class TestBank:
    def test_default_bank_has_seven_features(self):
        data = correlated_data(38)
        bank = fit_detector_bank(data)
        assert [type(d) for d in bank.detectors] == [PcaDetector] * 2 + [MdDetector] * 3
        assert sum(detector_features(d, data.values).shape[1]
                   for d in bank.detectors) == 7

    def test_names_follow_members_at_lag_zero(self):
        """A dpca member fitted at lag 0 keeps its own names, so no two
        of the seven columns share one."""
        config = DetectorBankConfig(dpca_lags=0)
        bank = fit_detector_bank(correlated_data(38), config)
        names = [name for member in config.members for name in member_feature_names(member)]
        assert names == ["pca_t2", "pca_q", "dpca_t2", "dpca_q", "md1", "md2", "md3"]
        assert [d.lags for d in bank.detectors[:2]] == [0, 0]

    def test_feature_counts_sum(self):
        data = correlated_data(39)
        config = DetectorBankConfig()
        bank = fit_detector_bank(data, config)
        assert [detector_features(d, data.values).shape[1] for d in bank.detectors] == [
            len(member_feature_names(member)) for member in config.members]

    def test_bank_determinism(self):
        data = correlated_data(40)
        a = fit_detector_bank(data)
        b = fit_detector_bank(data)
        values = np.random.default_rng(41).standard_normal((20, 5))
        for det_a, det_b in zip(a.detectors, b.detectors):
            np.testing.assert_array_equal(detector_features(det_a, values),
                                          detector_features(det_b, values))

    def test_single_member_bank(self):
        data = correlated_data(42)
        bank = fit_detector_bank(data, DetectorBankConfig(members=("md1",)))
        assert len(bank.detectors) == 1
        assert bank.detectors[0].variant == "MD1"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectorBankConfig(members=())
        with pytest.raises(ValueError):
            DetectorBankConfig(members=("pca", "kpca"))
        with pytest.raises(ValueError):
            DetectorBankConfig(pca_variance_fraction=0.0)
        with pytest.raises(ValueError):
            DetectorBankConfig(dpca_lags=-1)

    def test_synthetic_normal_data_fits_cleanly(self):
        ds = generate_synthetic(SyntheticConfig(n_variables=6, n_train=500,
                                                n_test=100, seed=43))
        train, _ = ds.split(500)
        bank = fit_detector_bank(train)
        assert sum(detector_features(d, train.values).shape[1]
                   for d in bank.detectors) == 7

    def test_md2_fraction_reaches_the_detector(self):
        """The configured MD2 variance fraction controls the retained
        subspace width."""
        data = correlated_data(44)
        narrow = fit_detector_bank(data, DetectorBankConfig(
            members=("md2",), md2_variance_fraction=0.4))
        wide = fit_detector_bank(data, DetectorBankConfig(
            members=("md2",), md2_variance_fraction=0.999))
        assert narrow.detectors[0].projection.shape[1] \
            < wide.detectors[0].projection.shape[1]


class TestControlLimit:
    def test_rank_990_of_1000(self):
        scores = np.random.default_rng(44).permutation(np.arange(1.0, 1001.0))
        assert detector_control_limit(scores, 0.99) == 990.0

    def test_constant_scores(self):
        assert detector_control_limit(np.full(100, 3.5), 0.99) == 3.5

    def test_held_out_false_alarm_rate(self):
        """FAR of a PCA T2 limit fitted at 0.99 stays within 1% +- 1.5
        points on held-out normal data."""
        rng = np.random.default_rng(45)
        latent = rng.standard_normal((4000, 2))
        mixing = rng.standard_normal((2, 5))
        noise = 0.1 * rng.standard_normal((8000, 5))
        all_values = np.vstack([latent, rng.standard_normal((4000, 2))]) @ mixing
        all_values = all_values + noise
        train = as_dataset(all_values[:4000])
        model = fit_pca_detector(train)
        t2_train, _ = score_dpca(model, train.values)
        limit = detector_control_limit(t2_train, 0.99)
        t2_test, _ = score_dpca(model, all_values[4000:])
        far = np.mean(t2_test > limit)
        assert abs(far - 0.01) <= 0.015
