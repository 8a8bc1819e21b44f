"""Base fault detectors fitted on normal operating data.

Each detector maps a sample to one or two scalar detection features; the
default bank stacks PCA (T2, Q), lag-augmented dynamic PCA (T2, Q) and
three Mahalanobis-distance views (raw standardized space, PCA-score
subspace, lag-1 augmented space) for seven features total.  Kernel PCA
detectors are provided as standalone baselines and stay out of the bank.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .datasets import ProcessDataset, ScalerStats, fit_standardize, standardized
from .numerics import (
    EPS_STD,
    covariance,
    empirical_quantile,
    freeze_arrays,
    leading_eigenvectors,
    principal_subspace,
    require_variation,
    retained_count,
)

MD_VARIANTS = ("MD1", "MD2", "MD3")
KPCA_KERNELS = ("poly", "rbf", "cosine")
BANK_MEMBERS = ("pca", "dpca", "md1", "md2", "md3")

_COVARIANCE_RIDGE = 1e-6


@dataclass(frozen=True)
class PcaDetector:
    """Principal-component detector; lags > 0 marks the dynamic variant
    fitted on lag-augmented sample vectors."""

    projection: np.ndarray
    retained_eigenvalues: np.ndarray
    scaler: ScalerStats
    lags: int = 0

    def __post_init__(self):
        projection = np.array(self.projection, dtype=np.float64)
        eigenvalues = np.array(self.retained_eigenvalues, dtype=np.float64)
        if projection.ndim != 2 or eigenvalues.shape != (projection.shape[1],):
            raise ValueError(f"projection shape {projection.shape} does not match "
                             f"{eigenvalues.shape} retained eigenvalues")
        gram = projection.T @ projection
        if np.max(np.abs(gram - np.eye(projection.shape[1]))) > 1e-8:
            raise ValueError("projection columns must be orthonormal within 1e-8")
        if np.any(eigenvalues <= 0) or np.any(np.diff(eigenvalues) > 0):
            raise ValueError("eigenvalues must be positive and descending")
        if self.lags < 0:
            raise ValueError("lags must be non-negative")
        freeze_arrays(self, projection=projection, retained_eigenvalues=eigenvalues)


@dataclass(frozen=True)
class MdDetector:
    """Mahalanobis-distance detector in one of three sample spaces:
    MD1 standardized, MD2 PCA scores, MD3 lag-1 augmented."""

    variant: str
    mean: np.ndarray
    inverse_covariance: np.ndarray
    scaler: ScalerStats
    projection: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in MD_VARIANTS:
            raise ValueError(f"variant must be one of {MD_VARIANTS}, got {self.variant!r}")
        mean = np.array(self.mean, dtype=np.float64)
        inverse = np.array(self.inverse_covariance, dtype=np.float64)
        if mean.ndim != 1 or inverse.shape != (mean.shape[0], mean.shape[0]):
            raise ValueError("inverse_covariance must be square in the mean's length")
        if np.max(np.abs(inverse - inverse.T)) > 1e-9:
            raise ValueError("inverse_covariance must be symmetric within 1e-9")
        if self.variant == "MD2":
            if self.projection is None:
                raise ValueError("MD2 needs a score-space projection")
            freeze_arrays(self, projection=np.array(self.projection, dtype=np.float64))
        freeze_arrays(self, mean=mean, inverse_covariance=inverse)


@dataclass(frozen=True)
class KpcaDetector:
    """Kernel-PCA baseline; scores new samples by T2 in the retained
    kernel eigenspace, calibrated against the training score variances.

    Dual form: a sample's kernel row against train_rows, centred with
    row_mean and grand_mean, times the kernel eigenvectors alphas.  Primal
    form, marked by empty train_rows: the sample's explicit feature map
    less its training mean row_mean, times alphas = V S from the thin SVD
    of the centred training feature matrix; grand_mean is unused."""

    kernel: str
    scaler: ScalerStats
    train_rows: np.ndarray
    alphas: np.ndarray
    row_mean: np.ndarray
    grand_mean: float
    score_variance: np.ndarray
    degree: float = 3.0
    offset: float = 1.0
    bandwidth: float = 1.0

    def __post_init__(self):
        if self.kernel not in KPCA_KERNELS:
            raise ValueError(f"kernel must be one of {KPCA_KERNELS}, got {self.kernel!r}")
        freeze_arrays(self, **{name: np.array(getattr(self, name), dtype=np.float64)
                               for name in ("train_rows", "alphas", "row_mean",
                                            "score_variance")})


@dataclass(frozen=True)
class DetectorBankConfig:
    """Which detectors enter the bank and their fit settings."""

    members: tuple[str, ...] = BANK_MEMBERS
    pca_variance_fraction: float = 0.9
    md2_variance_fraction: float = 0.95
    dpca_lags: int = 2

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("bank needs at least one member")
        for member in self.members:
            if member not in BANK_MEMBERS:
                raise ValueError(f"unknown bank member {member!r}")
        for fraction in (self.pca_variance_fraction, self.md2_variance_fraction):
            if not (0.0 < fraction <= 1.0):
                raise ValueError("variance fractions must lie in (0, 1]")
        if self.dpca_lags < 0:
            raise ValueError("dpca_lags must be non-negative")


@dataclass(frozen=True)
class DetectorBank:
    """Fitted detectors in a fixed order."""

    detectors: tuple[PcaDetector | MdDetector, ...]

    def __post_init__(self):
        object.__setattr__(self, "detectors", tuple(self.detectors))
        if not self.detectors:
            raise ValueError("bank needs at least one detector")


def _augment_lags(values: np.ndarray, lags: int) -> np.ndarray:
    """Rows [x_t, x_{t-1}, ..., x_{t-lags}] for t = lags..n-1."""
    n = values.shape[0]
    if lags and n < lags + 1:
        raise ValueError(f"sequence of {n} rows is shorter than lags+1 = {lags + 1}")
    return np.column_stack([values[lags - k: n - k] for k in range(lags + 1)])


def _regularized_inverse(matrix: np.ndarray) -> np.ndarray:
    m = matrix.shape[0]
    trace = float(np.trace(matrix))
    if trace <= 0.0:
        raise ValueError("degenerate covariance: training data has no variance")
    ridge = _COVARIANCE_RIDGE * trace / m
    inverse = np.linalg.inv(matrix + ridge * np.eye(m))
    return (inverse + inverse.T) / 2.0


def _sample_matrix(values, detector) -> np.ndarray:
    """Samples as float rows of the width the detector was fitted on."""
    values = np.asarray(values, dtype=np.float64)
    width = input_width(detector)
    if values.ndim != 2 or values.shape[1] != width:
        raise ValueError(
            f"sample matrix has shape {values.shape}, detector expects {width} variables"
        )
    return values


def _pad_head(scores: np.ndarray, lags: int) -> np.ndarray:
    """The first `lags` samples reuse the earliest complete lag window, so
    output length equals input length."""
    return np.concatenate([np.repeat(scores[:1], lags), scores])


def fit_pca_detector(train: ProcessDataset, variance_fraction: float = 0.9) -> PcaDetector:
    """Static PCA detector: the dynamic one at lag 0."""
    return fit_dpca_detector(train, 0, variance_fraction)


def fit_dpca_detector(train: ProcessDataset, lags: int = 2,
                      variance_fraction: float = 0.9) -> PcaDetector:
    """PCA over lag-augmented sample vectors, retaining the smallest
    component count whose cumulative eigenvalue fraction reaches
    variance_fraction."""
    augmented = _augment_lags(train.values, lags)
    if augmented.shape[0] < 2:
        raise ValueError("not enough rows after lag augmentation")
    scaler = fit_standardize(augmented)
    projection, eigenvalues = principal_subspace(
        standardized(augmented, scaler), variance_fraction)
    return PcaDetector(projection, eigenvalues, scaler, lags=lags)


def score_dpca(model: PcaDetector, values: np.ndarray) -> tuple:
    """(T2, Q) per row of a sample sequence: retained-subspace energy and
    squared reconstruction residual of the standardized lag-augmented
    sample; the first `lags` rows reuse the earliest complete window."""
    values = _sample_matrix(values, model)
    rows = standardized(_augment_lags(values, model.lags), model.scaler)
    scores = rows @ model.projection
    t2 = np.sum(scores * scores / model.retained_eigenvalues, axis=1)
    residual = rows - scores @ model.projection.T
    q = np.sum(residual * residual, axis=1)
    return _pad_head(t2, model.lags), _pad_head(q, model.lags)


def fit_md_detector(train: ProcessDataset, variant: str,
                    md2_variance_fraction: float = 0.95) -> MdDetector:
    if variant not in MD_VARIANTS:
        raise ValueError(f"variant must be one of {MD_VARIANTS}, got {variant!r}")
    scaler = fit_standardize(train.values)
    rows = standardized(train.values, scaler)
    projection = None
    if variant == "MD1":
        space = rows
    elif variant == "MD2":
        projection, _ = principal_subspace(rows, md2_variance_fraction)
        space = rows @ projection
    else:
        space = _augment_lags(rows, 1)
    if space.shape[0] < 2:
        raise ValueError("need at least 2 rows in the detector space")
    inverse = _regularized_inverse(covariance(space))
    return MdDetector(variant, space.mean(axis=0), inverse, scaler, projection)


def _mahalanobis(model: MdDetector, space: np.ndarray) -> np.ndarray:
    diff = space - model.mean
    quad = np.einsum("ij,jk,ik->i", diff, model.inverse_covariance, diff)
    return np.sqrt(np.clip(quad, 0.0, None))


def score_md(model: MdDetector, values: np.ndarray) -> np.ndarray:
    """Mahalanobis distance per sample row in the variant's space; MD3's
    first row reuses the earliest complete lag window."""
    values = _sample_matrix(values, model)
    space = standardized(values, model.scaler)
    if model.variant == "MD3":
        return _pad_head(_mahalanobis(model, _augment_lags(space, 1)), 1)
    if model.variant == "MD2":
        space = space @ model.projection
    return _mahalanobis(model, space)


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    return rows / np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), EPS_STD)


# Rows per block of the n x n kernel steps: squared distances, centring
# and scoring.
_CENTER_BLOCK_ROWS = 256


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances (|a|^2 + |b|^2) - 2 a.b,
    clipped at zero, written over the one product a @ b.T in row blocks
    beside one block of |a_i|^2 + |b_j|^2; exactly symmetric when b is a,
    as numpy evaluates a @ a.T symmetrically."""
    a_sq, b_sq = np.sum(a * a, axis=1), np.sum(b * b, axis=1)
    sq = a @ b.T
    norms = np.empty((min(_CENTER_BLOCK_ROWS, sq.shape[0]), sq.shape[1]))
    for start in range(0, sq.shape[0], _CENTER_BLOCK_ROWS):
        block = sq[start:start + _CENTER_BLOCK_ROWS]
        rows = block.shape[0]
        block *= 2.0
        np.subtract(np.add(a_sq[start:start + rows, None], b_sq[None, :], out=norms[:rows]),
                    block, out=block)
        np.clip(block, 0.0, None, out=block)
    return sq


def _rbf_from_squared(sq: np.ndarray, bandwidth: float) -> np.ndarray:
    """exp(-sq / (2 bandwidth^2)), written over sq."""
    np.negative(sq, out=sq)
    sq /= 2.0 * bandwidth ** 2
    return np.exp(sq, out=sq)


def kernel_matrix(kind: str, a: np.ndarray, b: np.ndarray, degree: float = 3.0,
                  offset: float = 1.0, bandwidth: float = 1.0) -> np.ndarray:
    if kind == "poly":
        gram = a @ b.T
        gram += offset
        gram **= degree
        return gram
    if kind == "rbf":
        return _rbf_from_squared(_squared_distances(a, b), bandwidth)
    if kind == "cosine":
        return _unit_rows(a) @ _unit_rows(b).T
    raise ValueError(f"kernel must be one of {KPCA_KERNELS}, got {kind!r}")


def _median_distance(sq: np.ndarray) -> float:
    """Median distance over the strict upper triangle of an exactly
    symmetric squared-distance matrix, copied once as n (n - 1) / 2 square
    roots.  The whole off-diagonal holds each of those pairs twice, so it
    has the same two middle order statistics and the same median."""
    n = sq.shape[0]
    if n < 2:
        return 1.0
    distances = np.concatenate([sq[i, i + 1:] for i in range(n - 1)])
    return float(np.median(np.sqrt(distances, out=distances), overwrite_input=True))


def median_pairwise_distance(rows: np.ndarray) -> float:
    return _median_distance(_squared_distances(rows, rows))


def _feature_map_width(kernel: str, m: int, degree: float, offset: float):
    """Columns of the kernel's explicit feature map over m inputs, or None
    when it has none: rbf, and poly at a negative offset, which
    fit_kpca_detector admits at degree 1 only.  At offset 0 only the
    top-degree monomials remain."""
    if kernel == "cosine":
        return m
    if kernel == "poly" and offset >= 0:
        d = int(degree)
        return math.comb(m + d, d) if offset > 0 else math.comb(m + d - 1, d)
    return None


def _feature_map(kernel: str, rows: np.ndarray, degree: float, offset: float) -> np.ndarray:
    """phi with phi(x) . phi(y) = k(x, y) for a kernel _feature_map_width
    accepts.  (x.y + c)^d expands into the monomials x^a with |a| = k <= d,
    each weighted by sqrt(C(d, k) c^(d-k) multinomial(k; a))."""
    if kernel == "cosine":
        return _unit_rows(rows)
    d = int(degree)
    columns = []
    for k in range(0 if offset > 0 else d, d + 1):
        scale = math.comb(d, k) * offset ** (d - k)
        for combo in itertools.combinations_with_replacement(range(rows.shape[1]), k):
            multinomial = math.factorial(k) // math.prod(
                math.factorial(combo.count(i)) for i in set(combo))
            columns.append(math.sqrt(scale * multinomial) * np.prod(rows[:, combo], axis=1))
    return np.column_stack(columns)


def _center_symmetric(gram: np.ndarray, row_mean: np.ndarray, grand_mean: float) -> None:
    """gram_ij - (row_mean_i + row_mean_j) + grand_mean, written over gram
    in row blocks; r_i + r_j == r_j + r_i, so an exactly symmetric gram
    stays exactly symmetric and leading_eigenvectors needs no copy of it."""
    pair_sums = np.empty((_CENTER_BLOCK_ROWS, gram.shape[1]))
    for start in range(0, gram.shape[0], _CENTER_BLOCK_ROWS):
        block = gram[start:start + _CENTER_BLOCK_ROWS]
        rows = block.shape[0]
        block -= np.add(row_mean[start:start + rows, None], row_mean[None, :],
                        out=pair_sums[:rows])
        block += grand_mean


def _require_positive(eigenvalues: np.ndarray) -> None:
    """ValueError unless the leading eigenvalue of a centred kernel matrix,
    from either form, exists and is positive."""
    if not (eigenvalues.size and eigenvalues[0] > 0.0):
        raise ValueError("degenerate kernel matrix: no positive eigenvalues")


def fit_kpca_detector(train: ProcessDataset, kernel: str,
                      variance_fraction: float = 0.95, degree: float = 3.0,
                      offset: float = 1.0, bandwidth: float | None = None,
                      max_train_rows: int = 2000) -> KpcaDetector:
    """Kernel PCA on (capped) standardized training rows.

    Every kernel admitted here is positive semi-definite by construction
    (Shawe-Taylor & Cristianini 2004, ch. 3): rbf, cosine, and poly with
    an integer degree >= 1 and a finite offset >= 0, as a sum of products
    of the linear kernel with non-negative weights.  At degree 1 any
    finite offset is admitted, since the constant centres away and leaves
    the linear kernel.  Other poly parameters raise ValueError before any
    work, as they may give an indefinite or non-finite kernel matrix.

    A kernel with an explicit feature map narrower than the training rows
    is fitted in primal form, by a thin SVD of the centred feature matrix
    (Schoelkopf, Smola & Mueller 1998); every other kernel in dual form,
    on the n x n kernel matrix, which is centred in place.  The dual fit
    takes the retained count and only that many eigenvectors from Ritz
    values, without the full spectrum (numerics.leading_eigenvectors).
    Both forms give the same T2.  The dual fit holds one n x n array, the
    squared distances that become the kernel matrix, plus at most about
    half of a second (the median's upper triangle), so training rows
    beyond max_train_rows (at least 2) are thinned by a deterministic
    stride.  The rbf bandwidth defaults to the median pairwise distance of
    the retained rows; an explicit one must be finite and positive.
    """
    if max_train_rows < 2:
        raise ValueError(f"max_train_rows must be at least 2, got {max_train_rows}")
    if bandwidth is not None and not (math.isfinite(bandwidth) and bandwidth > 0.0):
        raise ValueError(f"rbf bandwidth must be finite and positive, got {bandwidth}")
    if kernel == "poly" and not (float(degree).is_integer() and degree >= 1
                                 and math.isfinite(offset) and (offset >= 0 or degree == 1)):
        raise ValueError(f"poly kernel needs an integer degree >= 1 and a finite offset "
                         f">= 0 (any finite offset at degree 1), got degree {degree}, "
                         f"offset {offset}")
    require_variation(train.values)
    scaler = fit_standardize(train.values)
    rows = standardized(train.values, scaler)
    if rows.shape[0] > max_train_rows:
        stride = math.ceil(rows.shape[0] / max_train_rows)
        rows = rows[::stride][:max_train_rows]
    width = _feature_map_width(kernel, rows.shape[1], degree, offset)
    sq = _squared_distances(rows, rows) if kernel == "rbf" else None
    if sq is not None and bandwidth is None:
        bandwidth = max(_median_distance(sq), EPS_STD)
    params = {"degree": degree, "offset": offset,
              "bandwidth": 1.0 if bandwidth is None else float(bandwidth)}

    if width is not None and width < rows.shape[0]:
        centered = _feature_map(kernel, rows, degree, offset)
        row_mean = centered.mean(axis=0)
        centered -= row_mean
        _, singular, vt = np.linalg.svd(centered, full_matrices=False)
        eigenvalues = singular * singular
        _require_positive(eigenvalues)
        t = retained_count(eigenvalues, variance_fraction)
        alphas = vt[:t].T * singular[:t]
        train_scores = centered @ alphas
        train_rows, grand_mean = rows[:0], 0.0
    else:
        centered = (kernel_matrix(kernel, rows, rows, **params) if sq is None
                    else _rbf_from_squared(sq, params["bandwidth"]))
        row_mean = centered.mean(axis=1)
        grand_mean = float(centered.mean())
        _center_symmetric(centered, row_mean, grand_mean)
        if not np.all(np.isfinite(centered)):  # the eigensolver would raise LinAlgError
            raise ValueError("degenerate kernel matrix: non-finite entries")
        eigenvalues, alphas = leading_eigenvectors(centered, variance_fraction)
        _require_positive(eigenvalues)
        train_scores = centered @ alphas
        train_rows = rows

    score_variance = np.maximum(train_scores.var(axis=0, ddof=1), EPS_STD ** 2)
    return KpcaDetector(kernel, scaler, train_rows, alphas, row_mean, grand_mean,
                        score_variance, **params)


def score_kpca(model: KpcaDetector, values: np.ndarray) -> np.ndarray:
    """T2 per sample row in the retained kernel eigenspace.

    The dual form scores the rows in near-equal blocks of at most
    _CENTER_BLOCK_ROWS, as a row's kernel row, centring and T2 depend on
    that row alone, so n samples make no n x n array.  No block has one
    row unless the input has: numpy hands a one-row product to gemv, whose
    rounding differs from gemm's.  The T2 equals the whole-matrix path's
    to the byte wherever BLAS computes a row block's product as those rows
    of the whole one, as OpenBLAS does on the benchmark's fits (2000
    training rows, 52 to 55 components); elsewhere its size-dependent
    kernel choice may move the last bits."""
    rows = standardized(_sample_matrix(values, model), model.scaler)
    if model.train_rows.shape[0] == 0:
        return _t2(model, _feature_map(model.kernel, rows, model.degree, model.offset)
                   - model.row_mean)
    t2 = []
    for block in np.array_split(rows, max(1, -(-rows.shape[0] // _CENTER_BLOCK_ROWS))):
        centered = kernel_matrix(model.kernel, block, model.train_rows, degree=model.degree,
                                 offset=model.offset, bandwidth=model.bandwidth)
        centered -= centered.mean(axis=1, keepdims=True)
        centered -= model.row_mean
        centered += model.grand_mean
        t2.append(_t2(model, centered))
    return np.concatenate(t2)


def _t2(model: KpcaDetector, centered: np.ndarray) -> np.ndarray:
    scores = centered @ model.alphas
    return np.sum(scores * scores / model.score_variance, axis=1)


def input_width(detector) -> int:
    """Number of process variables per sample the detector scores; a
    dynamic PCA detector is fitted on lags + 1 of them per row."""
    width = detector.scaler.mean.shape[0]
    return width // (detector.lags + 1) if isinstance(detector, PcaDetector) else width


def detector_features(detector, values: np.ndarray) -> np.ndarray:
    """Feature columns for a whole sequence, one row per input sample."""
    if isinstance(detector, PcaDetector):
        return np.column_stack(score_dpca(detector, values))
    if isinstance(detector, MdDetector):
        return score_md(detector, values)[:, None]
    if isinstance(detector, KpcaDetector):
        return score_kpca(detector, values)[:, None]
    raise TypeError(f"not a detector: {type(detector).__name__}")


def fit_bank_member(train: ProcessDataset, member: str,
                    config: DetectorBankConfig = DetectorBankConfig()):
    """One bank member (see BANK_MEMBERS) fitted with the config's
    settings."""
    if member == "pca":
        return fit_pca_detector(train, config.pca_variance_fraction)
    if member == "dpca":
        return fit_dpca_detector(train, config.dpca_lags, config.pca_variance_fraction)
    if member in ("md1", "md2", "md3"):
        return fit_md_detector(train, member.upper(), config.md2_variance_fraction)
    raise ValueError(f"unknown bank member {member!r}")


def member_feature_names(member: str) -> tuple:
    """Names of a detector's feature columns: <member>_t2 and <member>_q
    for pca and dpca, the member itself for md1-md3 and kpca_<kernel>."""
    return (f"{member}_t2", f"{member}_q") if member in ("pca", "dpca") else (member,)


def fit_detector_bank(train: ProcessDataset,
                      config: DetectorBankConfig = DetectorBankConfig()) -> DetectorBank:
    """Fit the configured members in their fixed order; their feature
    columns are named by member_feature_names, seven for the default bank."""
    return DetectorBank(tuple(fit_bank_member(train, member, config)
                              for member in config.members))


def detector_control_limit(train_scores: np.ndarray, confidence: float) -> float:
    """Alarm threshold as the empirical confidence-level quantile of the
    training scores."""
    return empirical_quantile(np.asarray(train_scores, dtype=np.float64), confidence)
