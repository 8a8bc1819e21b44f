"""Deterministic numeric kernels shared by every stage of the detection engine.

Covariance, symmetric eigendecomposition (full, or only the leading
eigenvectors), singular values and empirical quantiles, each with a
contract narrow enough to validate against a brute-force oracle (see
tests).  Every variance uses the n-1 denominator,
here and where transform._normalized and detectors.fit_kpca_detector
call ddof=1 on axes of their own.
"""

import numpy as np

# Floor applied to standard deviations before any division.
EPS_STD = 1e-8

SYMMETRY_TOL = 1e-9

# Eigenvalues at or below this fraction of the largest are numerically zero.
_EIG_FLOOR = 1e-12


def frozen(array: np.ndarray) -> np.ndarray:
    """The array itself, made read-only."""
    array.setflags(write=False)
    return array


def freeze_arrays(instance, **arrays) -> None:
    """Make each array read-only and store it on a frozen dataclass."""
    for name, array in arrays.items():
        object.__setattr__(instance, name, frozen(array))


@np.errstate(over="ignore", invalid="ignore")
def column_std(matrix: np.ndarray) -> np.ndarray:
    """Per-column n-1 standard deviation, floored at EPS_STD."""
    std = matrix.std(axis=0, ddof=1)
    if not np.all(np.isfinite(std)):
        raise ValueError("column std is not finite: a non-finite entry or float64 overflow")
    return np.maximum(std, EPS_STD)


def covariance(data: np.ndarray) -> np.ndarray:
    """Sample covariance (1/(n-1)) * (X - mean)^T (X - mean).

    Parameters
    ----------
    data : (n, m) array with n >= 2 rows.

    Returns
    -------
    (m, m) symmetric matrix.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"covariance expects a 2-d matrix, got shape {data.shape}")
    n = data.shape[0]
    if n < 2:
        raise ValueError(f"covariance requires at least 2 rows, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
        # enforce exact symmetry against accumulated rounding
        cov = (cov + cov.T) / 2.0
        # the trace, the eigenvalue sum of a PCA fit, may overflow alone
        if not (np.all(np.isfinite(cov)) and np.isfinite(np.trace(cov))):
            raise ValueError("covariance is not finite: a non-finite entry or float64 overflow")
    return cov


_SYMMETRY_BLOCK_ROWS = 256


def _symmetric(matrix: np.ndarray) -> np.ndarray:
    """The square matrix itself when it is exactly symmetric, else
    (M + M^T) / 2 as one copy; ValueError when max |M - M^T| exceeds
    SYMMETRY_TOL.  The asymmetry is taken over row blocks, so the check
    makes no n x n float temporary."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    asym = np.max([np.max(np.abs(matrix[start:start + _SYMMETRY_BLOCK_ROWS]
                                 - matrix[:, start:start + _SYMMETRY_BLOCK_ROWS].T))
                   for start in range(0, matrix.shape[0], _SYMMETRY_BLOCK_ROWS)],
                  initial=0.0)
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric: max |M - M^T| = {asym:.3e}")
    if asym == 0.0:
        return matrix
    symmetric = matrix + matrix.T
    symmetric /= 2.0
    return symmetric


def sym_eig(matrix: np.ndarray) -> tuple:
    """(eigenvalues, eigenvectors) of a symmetric matrix, as np.linalg.eigh
    returns them but sorted by descending eigenvalue.

    Raises ValueError if the input is not symmetric within 1e-9.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(_symmetric(matrix))
    order = np.argsort(eigenvalues)[::-1]
    return eigenvalues[order], eigenvectors[:, order]


# Columns of the Krylov start block beyond the requested count, and the
# residual bound |K u - theta u| <= _KRYLOV_TOL * theta_1 of a kept Ritz pair.
_KRYLOV_EXTRA_COLUMNS = 16
_KRYLOV_TOL = 1e-12


def _orthonormal_complement(block: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning block with span(basis) projected out
    twice.  When block lies (nearly) inside span(basis), as the Krylov
    blocks of a low-rank matrix come to, its QR factor is rounding noise
    that need not be orthogonal to basis, so that factor is projected out
    and factored once more."""
    block = block - basis @ (basis.T @ block)
    block -= basis @ (basis.T @ block)
    block = np.linalg.qr(block)[0]
    block -= basis @ (basis.T @ block)
    return np.linalg.qr(block)[0]


def leading_eigenvectors(matrix: np.ndarray, select) -> np.ndarray:
    """Eigenvectors of the largest eigenvalues of a symmetric matrix, in
    descending order, as the columns of an (n, count) array.

    select receives every eigenvalue in descending order (from
    np.linalg.eigvalsh) and returns the count, between 1 and n.  Only
    those eigenvectors are computed, by block-Krylov Rayleigh-Ritz (Halko,
    Martinsson & Tropp 2011): a seeded random start block of count + 16
    columns is expanded by K times the newest block until the kept Ritz
    pairs have residuals within 1e-12 of the largest Ritz value, or until
    the basis spans all n columns, where the Ritz pairs are exact.  The
    solver holds no n x n array beside the matrix and eigvalsh's copy.

    Raises ValueError if the input is not symmetric within 1e-9.
    """
    matrix = _symmetric(matrix)
    n = matrix.shape[0]
    count = select(np.linalg.eigvalsh(matrix)[::-1])
    if not 1 <= count <= n:
        raise ValueError(f"eigenvector count must lie in [1, {n}], got {count}")
    block = np.linalg.qr(np.random.default_rng(0).standard_normal(
        (n, min(count + _KRYLOV_EXTRA_COLUMNS, n))))[0]
    block_image = matrix @ block
    basis, image, projected = block, block_image, block.T @ block_image
    while True:
        ritz_values, coefficients = np.linalg.eigh((projected + projected.T) / 2.0)
        ritz_values = ritz_values[::-1][:count]
        coefficients = coefficients[:, ::-1][:, :count]
        vectors = basis @ coefficients
        residuals = np.linalg.norm(image @ coefficients - vectors * ritz_values, axis=0)
        if basis.shape[1] == n or np.all(residuals <= _KRYLOV_TOL * ritz_values[0]):
            return vectors
        block = _orthonormal_complement(block_image, basis)[:, :n - basis.shape[1]]
        block_image = matrix @ block
        cross = basis.T @ block_image
        projected = np.block([[projected, cross], [cross.T, block.T @ block_image]])
        basis = np.hstack([basis, block])
        image = np.hstack([image, block_image])


def retained_count(eigenvalues: np.ndarray, variance_fraction: float) -> int:
    """Smallest leading count of descending eigenvalues whose cumulative
    share of the total reaches variance_fraction, capped at the numerical
    rank, so a fraction of 1.0 retains exactly the rank.

    Negative eigenvalues count as zero; the largest must be positive,
    which each caller checks with its own message.
    """
    if not (0.0 < variance_fraction <= 1.0):
        raise ValueError("variance_fraction must lie in (0, 1]")
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    rank = int(np.count_nonzero(eigenvalues > _EIG_FLOOR * eigenvalues[0]))
    cumulative = np.cumsum(eigenvalues) / eigenvalues.sum()
    reached = np.nonzero(cumulative >= variance_fraction)[0]
    return rank if reached.size == 0 else min(int(reached[0]) + 1, rank)


def require_variation(data: np.ndarray) -> None:
    """ValueError when every column of data is exactly constant.  Such a
    matrix need not centre to exact zeros, as its column means may round
    off the constant, and a fit would then keep components of rounding
    noise."""
    if np.all(data == data[:1]):
        raise ValueError("degenerate input: all columns are constant")


def principal_subspace(data: np.ndarray, variance_fraction: float) -> tuple:
    """(loadings, eigenvalues) of the sample covariance spanning the
    requested variance fraction (see retained_count); ValueError when no
    column varies."""
    require_variation(data)
    eigenvalues, eigenvectors = sym_eig(covariance(data))
    if eigenvalues[0] <= 0.0:
        raise ValueError("degenerate input: all columns are constant")
    t = retained_count(eigenvalues, variance_fraction)
    return eigenvectors[:, :t], eigenvalues[:t]


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Descending singular values of a tall matrix (rows >= columns).

    Supports stacked input: for shape (..., w, h) the decomposition runs
    batched over the leading axes and returns shape (..., h).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim < 2:
        raise ValueError(f"singular_values expects a matrix, got shape {matrix.shape}")
    rows, cols = matrix.shape[-2], matrix.shape[-1]
    if rows < cols:
        raise ValueError(f"singular_values requires rows >= columns, got {rows}x{cols}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("singular_values requires finite entries")
    return np.linalg.svd(matrix, compute_uv=False)


def empirical_quantile(values: np.ndarray, level: float) -> float:
    """Order-statistic quantile: the ceil(level*N)-th smallest value (1-indexed).

    Used for every control limit in the repository; deterministic and
    assumption-free, unlike kernel density estimates.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("empirical_quantile of an empty vector")
    if not (0.0 < level <= 1.0):
        raise ValueError(f"quantile level must be in (0, 1], got {level}")
    rank = int(np.ceil(level * values.size))  # 1-indexed order statistic
    return float(np.sort(values)[rank - 1])
