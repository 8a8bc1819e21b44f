"""Base fault detectors fitted on normal operating data.

Each detector maps a sample to one or two scalar detection features; the
default bank stacks PCA (T2, Q), lag-augmented dynamic PCA (T2, Q) and
three Mahalanobis-distance views (raw standardized space, PCA-score
subspace, lag-1 augmented space) for seven features total.  Kernel PCA
detectors are provided as standalone baselines and stay out of the bank.
"""

import math
from dataclasses import dataclass

import numpy as np

from .datasets import ProcessDataset, ScalerStats, fit_standardize
from .numerics import (
    EPS_STD,
    covariance,
    empirical_quantile,
    retained_count,
    sym_eig,
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
    t: int
    lags: int = 0

    def __post_init__(self):
        projection = np.array(self.projection, dtype=np.float64)
        eigenvalues = np.array(self.retained_eigenvalues, dtype=np.float64)
        if projection.ndim != 2 or projection.shape[1] != self.t:
            raise ValueError(f"projection shape {projection.shape} does not match t={self.t}")
        if eigenvalues.shape != (self.t,):
            raise ValueError("retained_eigenvalues length must equal t")
        gram = projection.T @ projection
        if np.max(np.abs(gram - np.eye(self.t))) > 1e-8:
            raise ValueError("projection columns must be orthonormal within 1e-8")
        if np.any(eigenvalues <= 0) or np.any(np.diff(eigenvalues) > 0):
            raise ValueError("eigenvalues must be positive and descending")
        if self.lags < 0:
            raise ValueError("lags must be non-negative")
        projection.setflags(write=False)
        eigenvalues.setflags(write=False)
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "retained_eigenvalues", eigenvalues)


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
        if inverse.shape != (mean.shape[0], mean.shape[0]):
            raise ValueError("inverse_covariance shape must match mean length")
        if np.max(np.abs(inverse - inverse.T)) > 1e-9:
            raise ValueError("inverse_covariance must be symmetric within 1e-9")
        if self.variant == "MD2":
            if self.projection is None:
                raise ValueError("MD2 needs a score-space projection")
            projection = np.array(self.projection, dtype=np.float64)
            projection.setflags(write=False)
            object.__setattr__(self, "projection", projection)
        mean.setflags(write=False)
        inverse.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "inverse_covariance", inverse)


@dataclass(frozen=True)
class KpcaDetector:
    """Kernel-PCA baseline; scores new samples by T2 in the retained
    kernel eigenspace, calibrated against the training score variances."""

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
        for field_name in ("train_rows", "alphas", "row_mean", "score_variance"):
            arr = np.array(getattr(self, field_name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, field_name, arr)


@dataclass(frozen=True)
class DetectorBankConfig:
    """Which detectors enter the bank and their fit settings."""

    members: tuple = BANK_MEMBERS
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
    """Fitted detectors in a fixed order with one name per feature."""

    detectors: tuple
    feature_names: tuple

    def __post_init__(self):
        object.__setattr__(self, "detectors", tuple(self.detectors))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        total = sum(feature_count(det) for det in self.detectors)
        if total != len(self.feature_names):
            raise ValueError(
                f"{total} detector features but {len(self.feature_names)} names"
            )

    @property
    def k(self) -> int:
        return len(self.feature_names)


def _standardized(values: np.ndarray, scaler: ScalerStats) -> np.ndarray:
    return (values - scaler.mean) / scaler.std


def _principal_subspace(standardized: np.ndarray, variance_fraction: float):
    """Loadings and eigenvalues spanning the requested variance fraction.

    Components below a relative rank floor never enter, so a fraction of
    1.0 retains exactly the covariance rank.
    """
    eig = sym_eig(covariance(standardized))
    if eig.eigenvalues[0] <= 0.0:
        raise ValueError("degenerate covariance: training data has no variance")
    t = retained_count(eig.eigenvalues, variance_fraction)
    return eig.eigenvectors[:, :t], eig.eigenvalues[:t]


def _augment_lags(values: np.ndarray, lags: int) -> np.ndarray:
    """Rows [x_t, x_{t-1}, ..., x_{t-lags}] for t = lags..n-1."""
    n = values.shape[0]
    if n < lags + 1:
        raise ValueError(f"sequence of {n} rows is shorter than lags+1 = {lags + 1}")
    return np.column_stack([values[lags - k: n - k] for k in range(lags + 1)])


def _matrix_stats(matrix: np.ndarray) -> ScalerStats:
    return ScalerStats(matrix.mean(axis=0),
                       np.maximum(matrix.std(axis=0, ddof=1), EPS_STD))


def _regularized_inverse(matrix: np.ndarray) -> np.ndarray:
    m = matrix.shape[0]
    trace = float(np.trace(matrix))
    if trace <= 0.0:
        raise ValueError("degenerate covariance: training data has no variance")
    ridge = _COVARIANCE_RIDGE * trace / m
    inverse = np.linalg.inv(matrix + ridge * np.eye(m))
    return (inverse + inverse.T) / 2.0


def fit_pca_detector(train: ProcessDataset, variance_fraction: float = 0.9) -> PcaDetector:
    """Retain the smallest component count whose cumulative eigenvalue
    fraction reaches variance_fraction."""
    scaler = fit_standardize(train)
    projection, eigenvalues = _principal_subspace(
        _standardized(train.values, scaler), variance_fraction)
    return PcaDetector(projection, eigenvalues, scaler, t=projection.shape[1])


def score_pca(model: PcaDetector, x: np.ndarray) -> tuple:
    """(T2, Q): retained-subspace energy and squared reconstruction
    residual of the standardized sample.  Vector in, scalars out; matrix
    in, arrays out."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    values = x[None, :] if single else x
    if values.shape[1] != model.scaler.mean.shape[0]:
        raise ValueError(
            f"sample has {values.shape[1]} variables, detector expects "
            f"{model.scaler.mean.shape[0]}"
        )
    standardized = _standardized(values, model.scaler)
    scores = standardized @ model.projection
    t2 = np.sum(scores * scores / model.retained_eigenvalues, axis=1)
    residual = standardized - scores @ model.projection.T
    q = np.sum(residual * residual, axis=1)
    if single:
        return float(t2[0]), float(q[0])
    return t2, q


def fit_dpca_detector(train: ProcessDataset, lags: int = 2,
                      variance_fraction: float = 0.9) -> PcaDetector:
    """PCA detector over lag-augmented sample vectors."""
    if lags == 0:
        return fit_pca_detector(train, variance_fraction)
    augmented = _augment_lags(train.values, lags)
    if augmented.shape[0] < 2:
        raise ValueError("not enough rows after lag augmentation")
    scaler = _matrix_stats(augmented)
    projection, eigenvalues = _principal_subspace(
        _standardized(augmented, scaler), variance_fraction)
    return PcaDetector(projection, eigenvalues, scaler, t=projection.shape[1], lags=lags)


def score_dpca(model: PcaDetector, values: np.ndarray) -> tuple:
    """Scores a whole sequence; the first `lags` samples reuse the
    earliest complete lag window so output length equals input length."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("dynamic scoring needs a sequence matrix")
    if model.lags == 0:
        return score_pca(model, values)
    augmented = _augment_lags(values, model.lags)
    t2, q = score_pca(model, augmented)
    head = np.full(model.lags, t2[0]), np.full(model.lags, q[0])
    return np.concatenate([head[0], t2]), np.concatenate([head[1], q])


def fit_md_detector(train: ProcessDataset, variant: str,
                    md2_variance_fraction: float = 0.95) -> MdDetector:
    if variant not in MD_VARIANTS:
        raise ValueError(f"variant must be one of {MD_VARIANTS}, got {variant!r}")
    scaler = fit_standardize(train)
    standardized = _standardized(train.values, scaler)
    projection = None
    if variant == "MD1":
        space = standardized
    elif variant == "MD2":
        projection, _ = _principal_subspace(standardized, md2_variance_fraction)
        space = standardized @ projection
    else:
        space = _augment_lags(standardized, 1)
    if space.shape[0] < 2:
        raise ValueError("need at least 2 rows in the detector space")
    inverse = _regularized_inverse(covariance(space))
    return MdDetector(variant, space.mean(axis=0), inverse, scaler, projection)


def _mahalanobis(model: MdDetector, space: np.ndarray) -> np.ndarray:
    diff = space - model.mean
    quad = np.einsum("ij,jk,ik->i", diff, model.inverse_covariance, diff)
    return np.sqrt(np.clip(quad, 0.0, None))


def score_md(model: MdDetector, x: np.ndarray):
    """Mahalanobis distance in the variant's space.

    MD1/MD2 accept a sample vector (scalar out) or matrix (array out).
    MD3 scores a sequence matrix with the first sample reusing the
    earliest complete lag window; a single already-augmented vector of
    length 2m is also accepted.
    """
    x = np.asarray(x, dtype=np.float64)
    m = model.scaler.mean.shape[0]
    if model.variant == "MD3":
        if x.ndim == 1:
            if x.shape[0] != 2 * m:
                raise ValueError(f"augmented vector must have length {2 * m}")
            return float(_mahalanobis(model, x[None, :])[0])
        if x.shape[1] != m:
            raise ValueError(f"sequence has {x.shape[1]} variables, expected {m}")
        augmented = _augment_lags(_standardized(x, model.scaler), 1)
        d = _mahalanobis(model, augmented)
        return np.concatenate([[d[0]], d])
    single = x.ndim == 1
    values = x[None, :] if single else x
    if values.shape[1] != m:
        raise ValueError(f"sample has {values.shape[1]} variables, expected {m}")
    space = _standardized(values, model.scaler)
    if model.variant == "MD2":
        space = space @ model.projection
    d = _mahalanobis(model, space)
    return float(d[0]) if single else d


def kernel_matrix(kind: str, a: np.ndarray, b: np.ndarray, degree: float = 3.0,
                  offset: float = 1.0, bandwidth: float = 1.0) -> np.ndarray:
    if kind == "poly":
        return (a @ b.T + offset) ** degree
    if kind == "rbf":
        sq = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
              - 2.0 * (a @ b.T))
        return np.exp(-np.clip(sq, 0.0, None) / (2.0 * bandwidth ** 2))
    if kind == "cosine":
        na = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), EPS_STD)
        nb = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), EPS_STD)
        return na @ nb.T
    raise ValueError(f"kernel must be one of {KPCA_KERNELS}, got {kind!r}")


def median_pairwise_distance(rows: np.ndarray) -> float:
    sq = (np.sum(rows * rows, axis=1)[:, None] + np.sum(rows * rows, axis=1)[None, :]
          - 2.0 * (rows @ rows.T))
    distances = np.sqrt(np.clip(sq, 0.0, None))
    upper = distances[np.triu_indices(rows.shape[0], k=1)]
    return float(np.median(upper)) if upper.size else 1.0


def fit_kpca_detector(train: ProcessDataset, kernel: str,
                      variance_fraction: float = 0.95, degree: float = 3.0,
                      offset: float = 1.0, bandwidth: float | None = None,
                      max_train_rows: int = 2000) -> KpcaDetector:
    """Kernel PCA on (capped) standardized training rows.

    The kernel matrix is n x n, so training rows beyond max_train_rows
    are thinned by a deterministic stride.  The rbf bandwidth defaults to
    the median pairwise distance of the retained rows.
    """
    scaler = fit_standardize(train)
    rows = _standardized(train.values, scaler)
    if rows.shape[0] > max_train_rows:
        stride = math.ceil(rows.shape[0] / max_train_rows)
        rows = rows[::stride][:max_train_rows]
    if kernel == "rbf" and bandwidth is None:
        bandwidth = max(median_pairwise_distance(rows), EPS_STD)
    params = {"degree": degree, "offset": offset, "bandwidth": bandwidth or 1.0}

    gram = kernel_matrix(kernel, rows, rows, **params)
    row_mean = gram.mean(axis=1)
    grand_mean = float(gram.mean())
    centered = gram - row_mean[None, :] - row_mean[:, None] + grand_mean
    eig = sym_eig((centered + centered.T) / 2.0)
    top = float(eig.eigenvalues[0])
    if top <= 0.0:
        raise ValueError("degenerate kernel matrix: no positive eigenvalues")
    if float(eig.eigenvalues[-1]) < -1e-8 * top:
        raise ValueError("centered kernel matrix is not positive semi-definite")
    t = retained_count(eig.eigenvalues, variance_fraction)

    alphas = eig.eigenvectors[:, :t]
    train_scores = centered @ alphas
    score_variance = np.maximum(train_scores.var(axis=0, ddof=1), EPS_STD ** 2)
    return KpcaDetector(kernel, scaler, rows, alphas, row_mean, grand_mean,
                        score_variance, **params)


def score_kpca(model: KpcaDetector, x: np.ndarray):
    """T2 in the retained kernel eigenspace; vector in, scalar out."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    values = x[None, :] if single else x
    if values.shape[1] != model.scaler.mean.shape[0]:
        raise ValueError(
            f"sample has {values.shape[1]} variables, detector expects "
            f"{model.scaler.mean.shape[0]}"
        )
    rows = _standardized(values, model.scaler)
    cross = kernel_matrix(model.kernel, rows, model.train_rows, degree=model.degree,
                          offset=model.offset, bandwidth=model.bandwidth)
    centered = (cross - cross.mean(axis=1, keepdims=True)
                - model.row_mean[None, :] + model.grand_mean)
    scores = centered @ model.alphas
    t2 = np.sum(scores * scores / model.score_variance, axis=1)
    return float(t2[0]) if single else t2


def feature_count(detector) -> int:
    if isinstance(detector, PcaDetector):
        return 2
    if isinstance(detector, (MdDetector, KpcaDetector)):
        return 1
    raise TypeError(f"not a detector: {type(detector).__name__}")


def feature_names(detector) -> tuple:
    if isinstance(detector, PcaDetector):
        prefix = "dpca" if detector.lags > 0 else "pca"
        return (f"{prefix}_t2", f"{prefix}_q")
    if isinstance(detector, MdDetector):
        return (detector.variant.lower(),)
    if isinstance(detector, KpcaDetector):
        return (f"kpca_{detector.kernel}_t2",)
    raise TypeError(f"not a detector: {type(detector).__name__}")


def detector_features(detector, values: np.ndarray) -> np.ndarray:
    """Feature columns for a whole sequence, one row per input sample."""
    values = np.asarray(values, dtype=np.float64)
    if isinstance(detector, PcaDetector):
        t2, q = score_dpca(detector, values) if detector.lags > 0 \
            else score_pca(detector, values)
        return np.column_stack([t2, q])
    if isinstance(detector, MdDetector):
        return score_md(detector, values)[:, None]
    if isinstance(detector, KpcaDetector):
        return score_kpca(detector, values)[:, None]
    raise TypeError(f"not a detector: {type(detector).__name__}")


def fit_detector_bank(train: ProcessDataset,
                      config: DetectorBankConfig = DetectorBankConfig()) -> DetectorBank:
    """Fit the configured members in their fixed order; the default bank
    yields seven features."""
    fitted = []
    for member in config.members:
        if member == "pca":
            fitted.append(fit_pca_detector(train, config.pca_variance_fraction))
        elif member == "dpca":
            fitted.append(fit_dpca_detector(train, config.dpca_lags,
                                            config.pca_variance_fraction))
        elif member == "md1":
            fitted.append(fit_md_detector(train, "MD1"))
        elif member == "md2":
            fitted.append(fit_md_detector(train, "MD2",
                                          config.md2_variance_fraction))
        else:
            fitted.append(fit_md_detector(train, "MD3"))
    names = tuple(name for det in fitted for name in feature_names(det))
    return DetectorBank(tuple(fitted), names)


def detector_control_limit(train_scores: np.ndarray, confidence: float) -> float:
    """Alarm threshold as the empirical confidence-level quantile of the
    training scores."""
    return empirical_quantile(np.asarray(train_scores, dtype=np.float64), confidence)
