"""Contract tests for the numeric kernels, each checked against a
brute-force oracle that never shares code with the implementation."""

import numpy as np
import pytest

from helpers import gram_singular_values

from fenkit.numerics import (
    EPS_STD,
    SymmetricEig,
    column_std,
    covariance,
    empirical_quantile,
    principal_subspace,
    singular_values,
    sym_eig,
)


class TestColumnStd:
    def test_n_minus_one_and_floor(self):
        data = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
        np.testing.assert_array_equal(column_std(data),
                                      [np.std(np.arange(5.0), ddof=1), EPS_STD])


class TestCovariance:
    def test_hand_expanded_2x2(self):
        # rows [1,0],[0,1]: means (.5,.5), centered rows (+-.5), n-1 = 1
        cov = covariance(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(cov, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_identical_rows_give_zero(self):
        cov = covariance(np.tile([3.0, -1.0, 2.0], (5, 1)))
        np.testing.assert_allclose(cov, 0.0, atol=1e-15)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((40, 6))
        perm = rng.permutation(40)
        np.testing.assert_allclose(covariance(data), covariance(data[perm]), atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        cov = covariance(rng.standard_normal((30, 8)))
        assert np.max(np.abs(cov - cov.T)) <= 1e-12

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="2 rows"):
            covariance(np.ones((1, 3)))


class TestPrincipalSubspace:
    def test_constant_columns_rejected(self):
        """Each column constant, at its own value: no direction varies."""
        data = np.tile([3.7, 0.1, -2.2, 1 / 3], (200, 1))
        with pytest.raises(ValueError, match="all columns are constant"):
            principal_subspace(data, 0.99)

    def test_one_varying_entry_fits(self):
        data = np.tile([3.7, 0.1], (50, 1))
        data[7, 1] = 0.2
        loadings, eigenvalues = principal_subspace(data, 0.99)
        assert loadings.shape == (2, 1) and eigenvalues[0] > 0.0


class TestSymEig:
    def test_identity(self):
        eig = sym_eig(np.eye(3))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        eig = sym_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 2.0, 1.0])

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            base = rng.standard_normal((6, 6))
            matrix = (base + base.T) / 2
            eig = sym_eig(matrix)
            recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
            scale = max(np.linalg.norm(matrix), 1.0)
            assert np.linalg.norm(recon - matrix) <= 1e-8 * scale

    def test_eigenpair_residuals_and_orthonormality(self):
        rng = np.random.default_rng(22)
        base = rng.standard_normal((9, 9))
        matrix = base @ base.T
        eig = sym_eig(matrix)
        norm = np.linalg.norm(matrix)
        for i in range(9):
            vec = eig.eigenvectors[:, i]
            resid = np.linalg.norm(matrix @ vec - eig.eigenvalues[i] * vec)
            assert resid <= 1e-8 * norm
        gram = eig.eigenvectors.T @ eig.eigenvectors
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-8

    def test_asymmetric_rejected(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            sym_eig(bad)

    def test_returns_dataclass(self):
        assert isinstance(sym_eig(np.eye(2)), SymmetricEig)


class TestSingularValues:
    def test_scaled_orthonormal_columns(self):
        # QR of a random 150x5 block gives orthonormal columns; scale by c
        rng = np.random.default_rng(31)
        q, _ = np.linalg.qr(rng.standard_normal((150, 5)))
        sv = singular_values(2.5 * q)
        np.testing.assert_allclose(sv, 2.5, atol=1e-10)

    def test_zero_matrix(self):
        np.testing.assert_allclose(singular_values(np.zeros((10, 4))), 0.0)

    def test_gram_oracle_150x5(self):
        rng = np.random.default_rng(32)
        matrix = rng.standard_normal((150, 5))
        sv = singular_values(matrix)
        oracle = gram_singular_values(matrix)
        np.testing.assert_allclose(sv, oracle, rtol=1e-8, atol=1e-8)

    def test_descending_order(self):
        rng = np.random.default_rng(33)
        sv = singular_values(rng.standard_normal((40, 7)))
        assert np.all(np.diff(sv) <= 0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(34)
        matrix = rng.standard_normal((60, 5))
        base = singular_values(matrix)
        for c in (0.5, 3.0, 1e4):
            np.testing.assert_allclose(singular_values(c * matrix), c * base, rtol=1e-10)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(35)
        stack = rng.standard_normal((8, 20, 3))
        batched = singular_values(stack)
        for i in range(8):
            np.testing.assert_allclose(batched[i], singular_values(stack[i]), rtol=1e-12)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="rows >= columns"):
            singular_values(np.ones((3, 5)))

    def test_nonfinite_rejected(self):
        bad = np.ones((4, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            singular_values(bad)


class TestEmpiricalQuantile:
    def test_99th_of_100(self):
        assert empirical_quantile(np.arange(1.0, 101.0), 0.99) == 99.0

    def test_level_one_is_maximum(self):
        rng = np.random.default_rng(41)
        values = rng.standard_normal(37)
        assert empirical_quantile(values, 1.0) == values.max()

    def test_990th_of_1000(self):
        assert empirical_quantile(np.arange(1.0, 1001.0), 0.99) == 990.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(42)
        values = rng.standard_normal(101)
        shuffled = values[rng.permutation(101)]
        for level in (0.1, 0.5, 0.95, 0.99, 1.0):
            assert empirical_quantile(values, level) == empirical_quantile(shuffled, level)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            empirical_quantile(np.array([]), 0.5)

    def test_bad_level_rejected(self):
        for level in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="level"):
                empirical_quantile(np.ones(3), level)
