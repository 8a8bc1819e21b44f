"""Detector contracts: component selection, score formulas against direct
quadratic-form oracles, lag handling, kernel baselines, bank assembly and
control limits."""

import tracemalloc

import numpy as np
import pytest

import fenkit.detectors as detectors_module
from fenkit.datasets import (
    ProcessDataset,
    ScalerStats,
    SyntheticConfig,
    generate_synthetic,
    standardized,
)
from fenkit.numerics import retained_count
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
        kernel entries near 1e8, where one rounding step exceeds the
        eigensolver's absolute symmetry bound; the centring rounds (i, j) and (j, i)
        alike, so the fit still succeeds."""
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
        ("poly", {"degree": 1.0, "offset": -1.0}, 5),
        ("poly", {"degree": 3.0, "offset": 1.0}, 10),  # C(13, 3) = 286 columns
    ], ids=["rbf-kwargs0-5", "poly-kwargs2-5", "poly-kwargs3-10"])  # stable ids
    def test_dual_dispatch(self, monkeypatch, kernel, kwargs, m):
        """RBF, a negative offset at degree 1 and a feature map at least as
        wide as the 200 training rows eigendecompose the kernel matrix.
        The centring keeps it exactly symmetric, so leading_eigenvectors
        uses it without a copy."""
        real_solver = detectors_module.leading_eigenvectors
        received = []
        monkeypatch.setattr(detectors_module, "leading_eigenvectors",
                            lambda matrix, variance_fraction: received.append(
                                (matrix.shape, np.array_equal(matrix, matrix.T)))
                            or real_solver(matrix, variance_fraction))
        fit_kpca_detector(correlated_data(47, n=200, m=m), kernel, **kwargs)
        assert received == [((200, 200), True)]

    @staticmethod
    def eigh_leading_eigenvectors(matrix, variance_fraction):
        """The full-eigh path the Krylov solver replaces."""
        eigenvalues, eigenvectors = np.linalg.eigh((matrix + matrix.T) / 2.0)
        t = retained_count(eigenvalues[::-1], variance_fraction)
        return eigenvalues[::-1][:t], eigenvectors[:, ::-1][:, :t]

    @pytest.mark.parametrize("kernel, n, kwargs", [
        ("rbf", 600, {}),
        ("cosine", 400, {}),  # rank 5, below the Krylov block
        ("poly", 400, {"degree": 2.0, "offset": 1.0}),
    ])
    def test_dual_fit_matches_eigh(self, monkeypatch, kernel, n, kwargs):
        """The Krylov eigenvectors give the T2 of a fit on every
        eigenvector from np.linalg.eigh, on training and on new rows."""
        self.force_dual(monkeypatch)
        data = correlated_data(55, n=n)
        samples = 2.0 * np.random.default_rng(56).standard_normal((60, 5))
        krylov = fit_kpca_detector(data, kernel, **kwargs)
        monkeypatch.setattr(detectors_module, "leading_eigenvectors",
                            self.eigh_leading_eigenvectors)
        reference = fit_kpca_detector(data, kernel, **kwargs)
        assert krylov.alphas.shape == reference.alphas.shape
        for values in (data.values, samples):
            np.testing.assert_allclose(score_kpca(krylov, values),
                                       score_kpca(reference, values), rtol=1e-10)

    @pytest.mark.parametrize("kernel, n, kwargs", [
        ("rbf", 600, {}),
        ("rbf", 600, {"bandwidth": 2.5}),
        ("rbf", 600, {"bandwidth": 25.0}),
        ("cosine", 400, {}),  # rank 5, forced dual
        ("poly", 400, {"degree": 2.0, "offset": 1.0}),
    ])
    def test_dual_count_matches_eigvalsh(self, monkeypatch, kernel, n, kwargs):
        """The retained count from the Ritz values and the trace equals
        retained_count of the centred kernel matrix's eigvalsh spectrum."""
        self.force_dual(monkeypatch)
        real_solver = detectors_module.leading_eigenvectors
        expected = []
        monkeypatch.setattr(detectors_module, "leading_eigenvectors",
                            lambda matrix, variance_fraction: expected.append(retained_count(
                                np.linalg.eigvalsh(matrix)[::-1], variance_fraction))
                            or real_solver(matrix, variance_fraction))
        model = fit_kpca_detector(correlated_data(58, n=n), kernel, **kwargs)
        assert model.alphas.shape[1] == expected[0]

    def test_dual_fit_rejects_indefinite_kernel(self, monkeypatch):
        """(x.y - 1)^2 centres to a matrix whose lambda_min is -0.37
        lambda_1, and (x.y - 100)^2 to one whose trace is negative: both
        fail at entry, before the fit standardizes the data.  (x.y - 1)
        centres to the linear kernel, rank 2 here."""
        data = correlated_data(47, n=200)
        monkeypatch.setattr(detectors_module, "fit_standardize", self.unreached)
        for offset in (-1.0, -100.0):
            with pytest.raises(ValueError, match=f"poly kernel needs an integer degree >= 1 "
                                                 f".*got degree 2.0, offset {offset}"):
                fit_kpca_detector(data, "poly", degree=2.0, offset=offset)
        monkeypatch.undo()
        model = fit_kpca_detector(data, "poly", degree=1.0, offset=-1.0)
        assert model.train_rows.shape[0] == 200 and model.alphas.shape[1] == 2

    @staticmethod
    def unreached(*args, **kwargs):
        raise AssertionError("the fit went past its entry checks")

    @pytest.mark.parametrize("degree, offset", [
        (0.0, 1.0), (-1.0, 1.0), (2.5, 1.0), (float("nan"), 1.0),
        (1.0, float("nan")), (3.0, float("nan")), (3.0, float("inf")),
    ])
    def test_bad_poly_parameters_rejected(self, monkeypatch, degree, offset):
        """A degree that is not an integer >= 1 or an offset that is not
        finite may make an indefinite or non-finite kernel; the fit fails
        by name before it standardizes the data."""
        monkeypatch.setattr(detectors_module, "fit_standardize", self.unreached)
        with pytest.raises(ValueError, match=f"poly kernel needs an integer degree >= 1 "
                                             f".*got degree {degree}, offset {offset}"):
            fit_kpca_detector(correlated_data(52, n=100), "poly", degree=degree,
                              offset=offset)

    @staticmethod
    def peak_ratio(call, n):
        """Peak traced bytes of call() in units of one n x n float64 array."""
        call()  # imports and caches outside the trace
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (n * n * 8)

    def fit_peak(self, n):
        data = correlated_data(51, n=n)
        return self.peak_ratio(lambda: fit_kpca_detector(data, "rbf"), n)

    def score_peak(self, n):
        model = fit_kpca_detector(correlated_data(51, n=n), "rbf")
        samples = 2.0 * np.random.default_rng(54).standard_normal((n, 5))
        return self.peak_ratio(lambda: score_kpca(model, samples), n)

    def test_rbf_dual_fit_peak_memory(self):
        """An RBF dual fit holds one n x n float64 array, as tracemalloc
        sees it, plus at most about half of a second: the squared
        distances written over their product beside 256-row blocks, then
        beside the median's n (n - 1) / 2 upper-triangle distances, then
        the kernel matrix beside the eigensolver's basis, its copies only
        when its store grows.  At n = 600 the blocks and the basis are a
        large share of n x n."""
        assert self.fit_peak(600) < 2.5

    def test_rbf_dual_fit_peak_memory_n1200(self):
        """As above at n = 1200, where a whole second n x n temporary in
        any step breaks the bound."""
        assert self.fit_peak(1200) < 1.8

    def test_rbf_dual_full_fraction_fit_peak_memory(self):
        """At variance fraction 1.0 the Krylov basis grows to all n columns
        (545 of 600 components kept).  The last step holds the kernel
        matrix, the n-column basis store, the n x n projected matrix,
        eigh's n x n coefficients and the n x t eigenvectors; the basis is
        copied only when its store doubles, and the spanning step computes
        no residuals."""
        n = 600
        data = correlated_data(51, n=n)
        assert self.peak_ratio(
            lambda: fit_kpca_detector(data, "rbf", variance_fraction=1.0), n) < 5.5

    def test_rbf_dual_score_peak_memory(self):
        """Scoring n rows against n training rows holds no n x n array:
        the sample rows are scored in near-equal blocks of at most 256,
        each block's squared distances written over its product and
        centred in place."""
        assert self.score_peak(600) < 1.5

    def test_rbf_dual_score_peak_memory_n1200(self):
        assert self.score_peak(1200) < 0.75

    @staticmethod
    def whole_matrix_score(model, values):
        """score_kpca of the dual form before it scored in row blocks."""
        centered = kernel_matrix(model.kernel, standardized(values, model.scaler),
                                 model.train_rows, degree=model.degree,
                                 offset=model.offset, bandwidth=model.bandwidth)
        centered -= centered.mean(axis=1, keepdims=True)
        centered -= model.row_mean
        centered += model.grand_mean
        scores = centered @ model.alphas
        return np.sum(scores * scores / model.score_variance, axis=1)

    @pytest.fixture(scope="class")
    def step_record_model(self):
        """The RBF fit of the benchmark's seed-7 step record: 2000 training
        rows of 10 variables, 55 components."""
        train, test = generate_synthetic(SyntheticConfig(
            n_variables=10, n_train=2000, n_test=2000, fault_type="step",
            fault_amplitude=0.5, fault_channels=(2, 7), fault_onset=0, seed=7)).split(2000)
        return fit_kpca_detector(train, "rbf"), test.values

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 600, 2000])
    def test_blocked_score_matches_whole_matrix_bytes(self, step_record_model, rows):
        """On the benchmark's kernel PCA shapes, blocks of at most 256
        sample rows give the whole-matrix T2 to the byte."""
        model, test = step_record_model
        assert model.alphas.shape == (2000, 55)
        assert (score_kpca(model, test[:rows]).tobytes()
                == self.whole_matrix_score(model, test[:rows]).tobytes())

    @pytest.mark.parametrize("kernel, kwargs", [
        ("rbf", {}), ("poly", {"degree": 2.0, "offset": 1.0}), ("cosine", {})])
    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 600])
    def test_blocked_score_matches_whole_matrix(self, monkeypatch, kernel, kwargs, rows):
        """Blocked and whole-matrix T2 agree to rounding on any shape.  To
        the byte only where BLAS computes a row block's product as those
        rows of the whole one: OpenBLAS picks its small-matrix kernels by
        the product's size, and those round 400 x (2 to 11) products
        differently from its general ones."""
        self.force_dual(monkeypatch)
        model = fit_kpca_detector(correlated_data(59, n=400), kernel, **kwargs)
        samples = 2.0 * np.random.default_rng(60).standard_normal((rows, 5))
        np.testing.assert_allclose(score_kpca(model, samples),
                                   self.whole_matrix_score(model, samples), rtol=1e-12)

    def test_dual_score_of_no_rows_is_empty(self):
        model = fit_kpca_detector(correlated_data(59, n=100), "rbf")
        assert score_kpca(model, np.empty((0, 5))).shape == (0,)

    @staticmethod
    def two_array_squared_distances(a, b):
        """_squared_distances before it wrote over its product."""
        sq = np.add(np.sum(a * a, axis=1)[:, None], np.sum(b * b, axis=1)[None, :])
        product = a @ b.T
        product *= 2.0
        sq -= product
        return np.clip(sq, 0.0, None, out=sq)

    @pytest.mark.parametrize("rows, other", [(1, None), (255, None), (257, None),
                                             (600, None), (257, 300), (600, 7), (3, 513)])
    def test_squared_distances_match_two_array_path(self, rows, other):
        """Row counts off the 256-row blocks, for a is b (exactly
        symmetric) and for two different row sets."""
        rng = np.random.default_rng(61)
        a = rng.standard_normal((rows, 5))
        b = a if other is None else rng.standard_normal((other, 5))
        sq = detectors_module._squared_distances(a, b)
        assert sq.tobytes() == self.two_array_squared_distances(a, b).tobytes()
        if other is None:
            np.testing.assert_array_equal(sq, sq.T)

    @staticmethod
    def off_diagonal_median(sq):
        """_median_distance before it read only the upper triangle."""
        n = sq.shape[0]
        distances = np.sqrt(sq.ravel()[1:].reshape(n - 1, n + 1)[:, :-1])
        return float(np.median(distances, overwrite_input=True))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 257])
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_median_matches_off_diagonal(self, n, duplicates):
        """1, 3, 6, 10 and 32 896 pairs: odd and even counts; duplicate
        rows put zero distances at the bottom of the order."""
        rows = np.random.default_rng(62).standard_normal((n, 3))
        if duplicates:
            rows[n // 2:] = rows[0]
        sq = detectors_module._squared_distances(rows, rows)
        assert detectors_module._median_distance(sq) == self.off_diagonal_median(sq)

    @pytest.mark.parametrize("max_train_rows", [0, -5, -400, 1])
    def test_max_train_rows_below_two_rejected(self, max_train_rows):
        with pytest.raises(ValueError, match=f"max_train_rows must be at least 2, "
                                             f"got {max_train_rows}"):
            fit_kpca_detector(correlated_data(57, n=100), "rbf",
                              max_train_rows=max_train_rows)

    @pytest.mark.parametrize("bandwidth", [0.0, -2.0, float("nan"), float("inf")])
    def test_bad_explicit_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ValueError, match=f"bandwidth must be finite and positive, "
                                             f"got {bandwidth}"):
            fit_kpca_detector(correlated_data(52, n=100), "rbf", bandwidth=bandwidth)

    def test_explicit_bandwidth_stored_and_used(self):
        data = correlated_data(53, n=100)
        model = fit_kpca_detector(data, "rbf", bandwidth=2.5)
        assert model.bandwidth == 2.5
        wide = fit_kpca_detector(data, "rbf", bandwidth=25.0)
        assert wide.alphas.shape[1] < model.alphas.shape[1]

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

    def test_nan_kernel_matrix_rejected(self, monkeypatch):
        """A fractional power of a negative kernel base would be NaN, so
        such a degree fails at entry.  A kernel that overflows float64
        centres to inf - inf = NaN; the dual fit fails by name instead of
        keeping no components and scoring every row 0."""
        data = correlated_data(48)
        with pytest.raises(ValueError, match="poly kernel needs an integer degree >= 1"):
            fit_kpca_detector(data, "poly", degree=2.5)
        self.force_dual(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match="degenerate kernel matrix: non-finite entries"):
            fit_kpca_detector(data, "poly", degree=3.0, offset=1e200)

    @pytest.mark.filterwarnings("error")
    def test_primal_weight_overflow_named(self):
        """A feature-map weight C(d, k) c^(d-k) past the float range fails
        the primal fit with the dual form's error, where the weight used to
        raise a bare OverflowError; offsets whose weights fit still fit."""
        data = correlated_data(48)
        with pytest.raises(ValueError, match="degenerate kernel matrix: non-finite entries"):
            fit_kpca_detector(data, "poly", degree=3.0, offset=1e200)
        for offset in (1e50, 1e100):
            model = fit_kpca_detector(data, "poly", degree=3.0, offset=offset)
            assert model.train_rows.shape[0] == 0  # the primal form

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
