"""Deterministic numeric kernels shared by every stage of the detection engine.

Covariance, symmetric eigendecomposition (full, or only the leading
eigenpairs that a variance fraction keeps, found without the full
spectrum), singular values and empirical quantiles, each with a
contract narrow enough to validate against a brute-force oracle (see
tests).  Every variance uses the n-1 denominator, here and where
transform._normalized and detectors.fit_kpca_detector call ddof=1 on
axes of their own.
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


# Columns of the seeded Krylov start block and of each block added to the
# basis, and the residual bound |K u - theta u| <= _KRYLOV_TOL * theta_1 of a
# kept Ritz pair.
_KRYLOV_BLOCK_COLUMNS = 64
_KRYLOV_TOL = 1e-12


def _outside(block: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """block with span(basis) projected out twice, written over block;
    basis has orthonormal columns."""
    block -= basis @ (basis.T @ block)
    block -= basis @ (basis.T @ block)
    return block


def _orthonormal_complement(outside: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning outside, a block already projected off
    span(basis).  When the block lies (nearly) inside span(basis), as the
    Krylov blocks of a low-rank matrix come to, its QR factor is rounding
    noise that need not be orthogonal to basis, so that factor is
    projected out and factored once more."""
    block = np.linalg.qr(outside)[0]
    block -= basis @ (basis.T @ block)
    return np.linalg.qr(block)[0]


def leading_eigenvectors(matrix: np.ndarray, variance_fraction: float) -> tuple:
    """(eigenvalues, eigenvectors) of the leading eigenpairs of a symmetric
    matrix that retained_count keeps, descending, the vectors as the
    columns of an (n, t) array; t = 0 when no Ritz value is positive.

    The full spectrum is never computed.  Block-Krylov Rayleigh-Ritz
    (Halko, Martinsson & Tropp 2011) grows a basis from a seeded 64-column
    block by K times the newest block.  At each step retained_count reads
    t from the descending Ritz values with the trace as the total; Ritz
    values never exceed the eigenvalues, so t only falls toward the true
    count as the basis grows.  The solver stops when the fraction is
    reached and the first t Ritz pairs have residuals within 1e-12 of the
    largest Ritz value, or when the basis spans all n columns: the pairs
    are then exact and the total is the sum of the clipped Ritz values, so
    a fraction of 1.0 keeps exactly the rank.  K times every block but the
    newest lies in the basis, so a pair's residual is the newest block's
    image, projected off the basis, times the pair's coefficients on that
    block, and no image of the basis is kept.  The basis grows inside one
    column-major store whose capacity doubles, up to n columns, so it is
    copied only when the store grows; unless it grows to most of the n
    columns, no n x n array is made beside the matrix.

    Raises ValueError if the input is not symmetric within 1e-9.
    """
    matrix = _symmetric(matrix)
    n = matrix.shape[0]
    trace = float(np.trace(matrix))
    block = np.linalg.qr(np.random.default_rng(0).standard_normal(
        (n, min(_KRYLOV_BLOCK_COLUMNS, n))))[0]
    store, projected = np.empty((n, block.shape[1]), order="F"), np.empty((0, 0))
    columns = 0
    while True:
        if columns + block.shape[1] > store.shape[1]:
            grown = np.empty((n, min(n, 2 * store.shape[1])), order="F")
            grown[:, :columns] = store[:, :columns]
            store = grown
        store[:, columns:columns + block.shape[1]] = block
        columns += block.shape[1]
        basis = store[:, :columns]
        outside = matrix @ block
        cross = basis.T @ outside
        head, corner = cross[:-block.shape[1]], cross[-block.shape[1]:]
        projected = np.block([[projected, head], [head.T, (corner + corner.T) / 2.0]])
        _outside(outside, basis)
        ritz_values, coefficients = np.linalg.eigh(projected)
        ritz_values, coefficients = ritz_values[::-1], coefficients[:, ::-1]
        if not ritz_values[0] > 0.0:
            return ritz_values[:0], np.empty((n, 0))
        spanned = basis.shape[1] == n
        count = retained_count(ritz_values, variance_fraction,
                               total=None if spanned else trace)
        # a spanning basis leaves no residual, so none is computed
        if count is not None and (spanned or np.all(np.linalg.norm(
                outside @ coefficients[-block.shape[1]:, :count], axis=0)
                <= _KRYLOV_TOL * ritz_values[0])):
            return ritz_values[:count], basis @ coefficients[:, :count]
        # freed before the next block's QR steps, and before the basis may
        # grow into a new store beside the old
        del coefficients
        block = _orthonormal_complement(outside, basis)[:, :n - columns]
        del outside, basis


def retained_count(eigenvalues: np.ndarray, variance_fraction: float,
                   total: float | None = None) -> int | None:
    """Smallest leading count of descending eigenvalues whose cumulative
    share of the total reaches variance_fraction, capped at the numerical
    rank (the values above 1e-12 of the largest), so a fraction of 1.0
    retains exactly the rank.

    The total defaults to the sum of the eigenvalues.  Given a total, such
    as the trace, eigenvalues may be a leading slice of the spectrum, and
    the count is None when the slice's share stays below the fraction; a
    total that is not positive, the trace of an indefinite matrix, has no
    share to reach and keeps 1.  Negative eigenvalues count as zero; the
    largest must be positive, which each caller checks with its own
    message.
    """
    if not (0.0 < variance_fraction <= 1.0):
        raise ValueError("variance_fraction must lie in (0, 1]")
    if total is not None and not total > 0.0:
        return 1
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    rank = int(np.count_nonzero(eigenvalues > _EIG_FLOOR * eigenvalues[0]))
    cumulative = np.cumsum(eigenvalues) / (eigenvalues.sum() if total is None else total)
    reached = np.nonzero(cumulative >= variance_fraction)[0]
    if reached.size == 0:
        return rank if total is None else None
    return min(int(reached[0]) + 1, rank)


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
