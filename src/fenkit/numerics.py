"""Deterministic numeric kernels shared by every stage of the detection engine.

Covariance, symmetric eigendecomposition, singular values and empirical
quantiles, each with a contract narrow enough to validate against a
brute-force oracle (see tests).  Every variance uses the n-1 denominator,
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


def sym_eig(matrix: np.ndarray) -> tuple:
    """(eigenvalues, eigenvectors) of a symmetric matrix, as np.linalg.eigh
    returns them but sorted by descending eigenvalue.

    Raises ValueError if the input is not symmetric within 1e-9.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"sym_eig expects a square matrix, got shape {matrix.shape}")
    asym = np.max(np.abs(matrix - matrix.T)) if matrix.size else 0.0
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric: max |M - M^T| = {asym:.3e}")
    if asym:  # an exactly symmetric input is used as is, without an n x n copy
        matrix = (matrix + matrix.T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    order = np.argsort(eigenvalues)[::-1]
    return eigenvalues[order], eigenvectors[:, order]


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
