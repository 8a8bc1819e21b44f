"""Contract tests for the numeric kernels, each checked against a
brute-force oracle that never shares code with the implementation."""

import tracemalloc

import numpy as np
import pytest

from helpers import gram_singular_values

from fenkit.numerics import (
    EPS_STD,
    column_std,
    covariance,
    _symmetric,
    empirical_quantile,
    leading_eigenvectors,
    positive_definite,
    principal_subspace,
    retained_count,
    singular_values,
    sym_eig,
)


class TestColumnStd:
    def test_n_minus_one_and_floor(self):
        data = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
        np.testing.assert_array_equal(column_std(data),
                                      [np.std(np.arange(5.0), ddof=1), EPS_STD])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1e200])
    def test_non_finite_or_overflowing_named(self, entry):
        """A NaN or inf entry, or a spread whose square overflows, fails
        by name and without a float warning."""
        data = np.random.default_rng(1).standard_normal((50, 4))
        data[3, 2] = entry
        with pytest.raises(ValueError, match="column std is not finite"):
            column_std(data)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("shape, scale", [((50, 4), 1e200), ((2, 8), 5.6e153)])
    def test_overflow_named(self, shape, scale):
        """Products past the float range fail by name, without a float
        warning; so does a symmetrisation or a trace past it (2 x 8 rows
        at 5.6e153 overflow only there)."""
        data = np.random.default_rng(0).standard_normal(shape) * scale
        with pytest.raises(ValueError, match="covariance is not finite"):
            covariance(data)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_entry_named(self, entry):
        data = np.random.default_rng(2).standard_normal((50, 4))
        data[10, 1] = entry
        with pytest.raises(ValueError, match="covariance is not finite"):
            covariance(data)


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
        eigenvalues, _ = sym_eig(np.eye(3))
        np.testing.assert_allclose(eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        eigenvalues, _ = sym_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(eigenvalues, [3.0, 2.0, 1.0])

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            base = rng.standard_normal((6, 6))
            matrix = (base + base.T) / 2
            eigenvalues, eigenvectors = sym_eig(matrix)
            recon = eigenvectors @ np.diag(eigenvalues) @ eigenvectors.T
            scale = max(np.linalg.norm(matrix), 1.0)
            assert np.linalg.norm(recon - matrix) <= 1e-8 * scale

    def test_eigenpair_residuals_and_orthonormality(self):
        rng = np.random.default_rng(22)
        base = rng.standard_normal((9, 9))
        matrix = base @ base.T
        eigenvalues, eigenvectors = sym_eig(matrix)
        norm = np.linalg.norm(matrix)
        for i in range(9):
            vec = eigenvectors[:, i]
            resid = np.linalg.norm(matrix @ vec - eigenvalues[i] * vec)
            assert resid <= 1e-8 * norm
        gram = eigenvectors.T @ eigenvectors
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-8

    def test_asymmetric_rejected(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            sym_eig(bad)

    def test_returns_eigh_pair(self):
        """(eigenvalues, eigenvectors), in np.linalg.eigh's order of fields."""
        eigenvalues, eigenvectors = sym_eig(np.diag([1.0, 2.0]))
        np.testing.assert_array_equal(eigenvalues, [2.0, 1.0])
        np.testing.assert_array_equal(eigenvectors, [[0.0, 1.0], [1.0, 0.0]])


class TestSymmetricCheck:
    def test_inexact_input_symmetrised_as_before(self):
        """A matrix within the bound but not exactly symmetric is replaced
        by (M + M^T) / 2, bit for bit, and sym_eig decomposes that."""
        rng = np.random.default_rng(23)
        base = rng.standard_normal((300, 300))
        matrix = base + base.T
        matrix[7, 250] += 1e-12
        expected = (matrix + matrix.T) / 2.0
        np.testing.assert_array_equal(_symmetric(matrix), expected)
        eigenvalues, eigenvectors = np.linalg.eigh(expected)
        got_values, got_vectors = sym_eig(matrix)
        np.testing.assert_array_equal(got_values, eigenvalues[::-1])
        np.testing.assert_array_equal(got_vectors, eigenvectors[:, ::-1])

    def test_exact_input_returned_as_is(self):
        matrix = np.diag([1.0, 2.0, 3.0])
        assert _symmetric(matrix) is matrix

    @pytest.mark.parametrize("offset, limit", [(0.0, 0.75), (1e-12, 1.5)])
    def test_no_float_temporary(self, offset, limit):
        """The check itself makes no n x n float64 temporary, only row
        blocks of M - M^T (half of n x n here); an inexact input adds its
        one symmetrised copy.  The unblocked check reached two n x n."""
        n = 1024
        base = np.random.default_rng(24).standard_normal((n, n))
        matrix = base + base.T
        matrix[3, 900] += offset
        _symmetric(matrix)
        tracemalloc.start()
        try:
            _symmetric(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (n * n * 8) < limit

    def test_largest_asymmetry_reported(self):
        """The blocked check finds the largest |M - M^T| anywhere, past the
        first row block too."""
        matrix = np.zeros((700, 700))
        matrix[650, 3] = 2e-9
        matrix[100, 600] = 5e-9
        with pytest.raises(ValueError, match="max \\|M - M\\^T\\| = 5.000e-09"):
            sym_eig(matrix)


def centred_rbf(rows: np.ndarray) -> np.ndarray:
    """H K H for an RBF kernel at the median distance, by broadcasting."""
    n = rows.shape[0]
    sq = np.sum((rows[:, None, :] - rows[None, :, :]) ** 2, axis=2)
    bandwidth = np.median(np.sqrt(sq[np.triu_indices(n, k=1)]))
    centring = np.eye(n) - 1.0 / n
    return centring @ np.exp(-sq / (2.0 * bandwidth ** 2)) @ centring


def centred_cosine(rows: np.ndarray) -> np.ndarray:
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    centring = np.eye(rows.shape[0]) - 1.0 / rows.shape[0]
    return centring @ (unit @ unit.T) @ centring


def clustered_at_cut(n: int, count: int) -> np.ndarray:
    """Q diag(lambda) Q^T whose eigenvalues count - 2 .. count + 1 agree to
    1e-10, so the cut falls inside a cluster of four."""
    rng = np.random.default_rng(25)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigenvalues = np.concatenate([np.linspace(10.0, 2.0, count - 2),
                                  1.0 + 1e-10 * np.arange(4.0)[::-1],
                                  0.5 ** np.arange(1.0, n - count - 1)])
    return (q * eigenvalues) @ q.T


def fraction_for(matrix: np.ndarray, count: int) -> float:
    """A variance fraction midway between the eigvalsh shares of the
    leading count - 1 and count eigenvalues, so the rule keeps count."""
    eigenvalues = np.clip(np.linalg.eigvalsh(matrix)[::-1], 0.0, None)
    shares = np.concatenate([[0.0], np.cumsum(eigenvalues) / eigenvalues.sum()])
    return float(shares[count - 1] + shares[count]) / 2.0


def rank_five_cosine() -> np.ndarray:
    rng = np.random.default_rng(27)
    return centred_cosine(rng.standard_normal((400, 2)) @ rng.standard_normal((2, 5))
                          + 0.1 * rng.standard_normal((400, 5)))


def flat_tail(n: int) -> np.ndarray:
    """Ten well-separated eigenvalues 10 .. 1 above n - 10 at 0.01: the
    leading pairs converge at once, while the tail holds 5% of the trace
    that no partial basis captures."""
    q = np.linalg.qr(np.random.default_rng(38).standard_normal((n, n)))[0]
    return (q * np.concatenate([np.linspace(10.0, 1.0, 10), np.full(n - 10, 0.01)])) @ q.T


class TestLeadingEigenvectors:
    """Oracle: np.linalg.eigh of the same matrix."""

    @staticmethod
    def check_ritz_pairs(matrix, result, count):
        """Orthonormal columns with residuals within the solver's bound,
        whose Rayleigh quotients and returned values are the leading
        eigenvalues."""
        values, vectors = result
        eigenvalues = np.linalg.eigvalsh(matrix)[::-1]
        assert vectors.shape == (matrix.shape[0], count)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(count), rtol=0, atol=1e-13)
        image = matrix @ vectors
        quotients = np.sum(vectors * image, axis=0)
        residuals = np.linalg.norm(image - vectors * quotients, axis=0)
        assert np.all(residuals <= 2e-12 * eigenvalues[0])
        for estimate in (quotients, values):
            np.testing.assert_allclose(estimate, eigenvalues[:count], rtol=0,
                                       atol=1e-12 * eigenvalues[0])

    @staticmethod
    def assert_same_span(vectors, reference):
        """Equal orthogonal projectors: the same leading subspace."""
        np.testing.assert_allclose(vectors @ vectors.T, reference @ reference.T,
                                   rtol=0, atol=1e-10)

    def test_rbf_kernel(self):
        matrix = centred_rbf(np.random.default_rng(26).standard_normal((600, 5)))
        result = leading_eigenvectors(matrix, fraction_for(matrix, 30))
        self.check_ritz_pairs(matrix, result, 30)
        self.assert_same_span(result[1], np.linalg.eigh(matrix)[1][:, ::-1][:, :30])

    @pytest.mark.parametrize("count", [3, 5])
    def test_rank_below_block(self, count):
        """A rank-5 cosine kernel: every Krylov block after the first is
        rounding noise inside the basis, and must not spoil
        orthonormality."""
        matrix = rank_five_cosine()
        assert np.linalg.matrix_rank(matrix) == 5
        result = leading_eigenvectors(matrix, fraction_for(matrix, count))
        self.check_ritz_pairs(matrix, result, count)
        self.assert_same_span(result[1], np.linalg.eigh(matrix)[1][:, ::-1][:, :count])

    def test_cluster_at_cut(self):
        """Inside a cluster no eigenvector is determined, but the kept
        vectors still lie in the span of the eigenvectors above and
        within the cluster."""
        n, count = 300, 10
        matrix = clustered_at_cut(n, count)
        result = leading_eigenvectors(matrix, fraction_for(matrix, count))
        self.check_ritz_pairs(matrix, result, count)
        vectors = result[1]
        reference = np.linalg.eigh(matrix)[1][:, ::-1]
        self.assert_same_span(vectors[:, :count - 2], reference[:, :count - 2])
        outside = vectors - reference[:, :count + 2] @ (reference[:, :count + 2].T @ vectors)
        assert np.max(np.abs(outside)) <= 1e-10

    def test_basis_spans_all_columns(self):
        """n below the 64-column start block: the start block spans every
        column, and the Ritz pairs are the exact eigenpairs."""
        rng = np.random.default_rng(28)
        base = rng.standard_normal((12, 12))
        matrix = base @ base.T
        result = leading_eigenvectors(matrix, fraction_for(matrix, 3))
        self.check_ritz_pairs(matrix, result, 3)
        reference = np.linalg.eigh(matrix)[1][:, ::-1][:, :3]
        np.testing.assert_allclose(np.abs(np.sum(result[1] * reference, axis=0)), 1.0,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind, fraction", [
        ("cluster", 0.5), ("cluster", 0.9),
        ("cosine", 0.95), ("cosine", 1.0),
        ("flat_tail", 0.9),
        ("rbf", 0.95),
        # The Ritz values of a partial basis never reach this trace, so the
        # basis grows to all 300 columns, where the count is the rank.
        ("rbf", 1.0),
    ])
    def test_count_matches_eigvalsh_rule(self, kind, fraction):
        """The count from the converged Ritz values and the trace equals
        retained_count of the full eigvalsh spectrum it replaces."""
        matrix = {"cluster": lambda: clustered_at_cut(300, 10),
                  "cosine": rank_five_cosine,
                  "flat_tail": lambda: flat_tail(300),
                  "rbf": lambda: centred_rbf(
                      np.random.default_rng(29).standard_normal((300, 4)))}[kind]()
        expected = retained_count(np.linalg.eigvalsh(matrix)[::-1], fraction)
        result = leading_eigenvectors(matrix, fraction)
        self.check_ritz_pairs(matrix, result, expected)

    def test_non_positive_trace_keeps_leading_pair(self):
        """An indefinite matrix whose trace is negative has no share of it
        to reach: the leading pair alone is kept, from the start block,
        instead of growing the basis to all n columns."""
        rng = np.random.default_rng(37)
        q = np.linalg.qr(rng.standard_normal((200, 200)))[0]
        matrix = (q * np.concatenate([[3.0, 2.0], -np.ones(198)])) @ q.T
        matrix = (matrix + matrix.T) / 2.0
        self.check_ritz_pairs(matrix, leading_eigenvectors(matrix, 0.95), 1)

    @pytest.mark.parametrize("matrix", [np.zeros((70, 70)), -np.eye(70)])
    def test_no_positive_ritz_value_keeps_nothing(self, matrix):
        values, vectors = leading_eigenvectors(matrix, 0.95)
        assert values.shape == (0,) and vectors.shape == (70, 0)

    @pytest.mark.parametrize("fraction", [0, 5])
    def test_fraction_out_of_range_rejected(self, fraction):
        with pytest.raises(ValueError, match="variance_fraction must lie in"):
            leading_eigenvectors(np.eye(4), fraction)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            leading_eigenvectors(np.array([[1.0, 2.0], [0.0, 1.0]]), 0.95)


class TestPositiveDefinite:
    """Oracle: the eigvalsh verdict lambda_min >= -1e-8 lambda_1 that the
    kernel PCA fit's PSD check used."""

    @pytest.mark.parametrize("n", [5, 300])
    @pytest.mark.parametrize("ratio", [-2.0, -0.5])
    def test_verdict_matches_eigvalsh(self, n, ratio):
        """lambda_min at -2 and -0.5 times 1e-8 lambda_1, spread over every
        row by a random rotation; 300 rows span several blocks."""
        rng = np.random.default_rng(36)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        eigenvalues = np.concatenate([np.linspace(4.0, 1e-3, n - 1), [ratio * 1e-8 * 4.0]])
        matrix = (q * eigenvalues) @ q.T
        matrix = (matrix + matrix.T) / 2.0
        spectrum = np.linalg.eigvalsh(matrix)
        expected = bool(spectrum[0] >= -1e-8 * spectrum[-1])
        assert expected == (ratio > -1.0)
        assert positive_definite(matrix, 1e-8 * spectrum[-1]) == expected

    def test_input_untouched(self):
        matrix = np.diag([3.0, 2.0, 1.0])
        assert positive_definite(matrix, 1.0)
        np.testing.assert_array_equal(matrix, np.diag([3.0, 2.0, 1.0]))


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
