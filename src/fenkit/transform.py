"""One feature-transformation layer: sliding-window singular values over
random column subsets, horizontal fusion, PCA reduction, and an
autoencoder encoding that becomes the next layer's feature matrix.

Every window is normalized by the pooled scalar mean and standard
deviation of all its entries before the singular value decomposition, so
the extracted spectra react to correlation structure rather than raw
scale.  Each layer consumes window_width - 1 leading rows; sample_offset
tracks the alignment with the original samples.
"""

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .autoencoder import (
    DEFAULT_HIDDEN_DIMS,
    Autoencoder,
    TrainConfig,
    TrainingDivergedError,
    Variant,
    encode,
    init_autoencoder,
    loss,
    train,
)
from .ensemble import FeatureMatrix
from .numerics import (
    EPS_STD,
    column_std,
    freeze_arrays,
    frozen,
    principal_subspace,
    singular_values,
)


def derive_seed(*components) -> int:
    """Deterministic 64-bit child seed from integer components."""
    state = np.random.SeedSequence([int(c) for c in components])
    return int(state.generate_state(1, np.uint64)[0])


# Windows per batched decomposition, chosen for memory per thread.  Each
# spectra thread holds two block-sized float64 work arrays, 0.8 MB each
# for a (128, 150, 5) block, plus the block's masks; at 512 windows such
# 3 MB temporaries set the resident peak of a two-layer fit and detect.
# Do not go below 128: on the two-thread pool 64-window blocks took 1.6 to
# 1.9 times as long as 128 or 512, which tie (21 five-column subsets of a
# 4000-row record, w = 150), most likely from more interpreter lock
# hand-offs per window.
_BLOCK_WINDOWS = 128


@dataclass(frozen=True)
class LayerConfig:
    """Settings for one transformation layer.

    window_width must exceed the incoming feature count and subset_size
    must not; both are checked at fit time when that count is known.
    """

    window_width: int
    subset_size: int
    max_subsets: int = 30
    pca_variance_fraction: float = 0.95
    code_dim: int = 20
    ae_variant: Variant = Variant("plain")
    training: TrainConfig = TrainConfig(epochs=2000)
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        if self.window_width < 2:
            raise ValueError("window_width must be at least 2")
        if self.subset_size < 1:
            raise ValueError("subset_size must be positive")
        if self.subset_size >= self.window_width:
            raise ValueError("window_width must exceed subset_size")
        if self.max_subsets < 1:
            raise ValueError("max_subsets must be positive")
        if not (0.0 < self.pca_variance_fraction <= 1.0):
            raise ValueError("pca_variance_fraction must lie in (0, 1]")
        if self.code_dim < 1:
            raise ValueError("code_dim must be positive")
        if any(width < 1 for width in self.hidden_dims):
            raise ValueError(f"hidden_dims widths must be positive, got {self.hidden_dims}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class PcaReduction:
    """Column-mean centering plus an orthonormal projection."""

    mean: np.ndarray
    projection: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64)
        projection = np.array(self.projection, dtype=np.float64)
        if projection.ndim != 2 or mean.shape != (projection.shape[0],):
            raise ValueError("mean length must match projection rows")
        gram = projection.T @ projection
        if np.max(np.abs(gram - np.eye(projection.shape[1]))) > 1e-8:
            raise ValueError("projection columns must be orthonormal within 1e-8")
        freeze_arrays(self, mean=mean, projection=projection)


@dataclass(frozen=True)
class TransformLayer:
    """Frozen state of one fitted layer: the window width and column
    subsets, the PCA reduction with its per-column score scale, and the
    trained autoencoder; the recipe stays in the model's config."""

    window_width: int
    input_features: int
    subsets: tuple[tuple[int, ...], ...]
    reduction: PcaReduction
    score_scale: np.ndarray
    autoencoder: Autoencoder

    def __post_init__(self):
        object.__setattr__(self, "subsets", tuple(tuple(s) for s in self.subsets))
        freeze_arrays(self, score_scale=np.array(self.score_scale, dtype=np.float64))
        if self.input_features < 1:
            raise ValueError("input_features must be positive")
        # with input_features >= 1 this also gives window_width >= 2
        _require_wider_window(self.window_width, self.input_features)
        if not self.subsets:
            raise ValueError("layer needs at least one column subset")
        for subset in self.subsets:
            if not subset or len(set(subset)) != len(subset) or any(
                    not (0 <= idx < self.input_features) for idx in subset):
                raise ValueError(f"subset {subset} invalid for {self.input_features} columns")


def _require_wider_window(window_width: int, input_features: int) -> None:
    if window_width <= input_features:
        raise ValueError(f"window_width {window_width} must exceed the "
                         f"{input_features} input features")


def select_column_subsets(m_l: int, h_l: int, max_subsets: int, seed: int) -> list:
    """All h_l-of-m_l column combinations when few enough, otherwise a
    seeded sample without replacement; always sorted lexicographically."""
    if not (0 < h_l <= m_l):
        raise ValueError(f"subset size {h_l} outside (0, {m_l}]")
    if max_subsets < 1:
        raise ValueError("max_subsets must be positive")
    total = math.comb(m_l, h_l)
    if total <= max_subsets:
        return [tuple(c) for c in itertools.combinations(range(m_l), h_l)]
    rng = np.random.default_rng(seed)
    chosen = {}
    while len(chosen) < max_subsets:
        candidate = tuple(sorted(rng.choice(m_l, size=h_l, replace=False).tolist()))
        chosen[candidate] = None
    return sorted(chosen)


def window_singular_values(features: FeatureMatrix, q: int, subset, window_width: int) -> np.ndarray:
    """Descending singular values of the pooled-normalized window ending
    at row q, restricted to the subset columns.  They match the row of
    build_fused_matrix to rounding, not to the byte: numpy reduces a lone
    window in another order than a stack of them."""
    if q < window_width - 1:
        raise ValueError(
            f"window ending at row {q} extends before row 0 (width {window_width})"
        )
    if q >= features.n_samples:
        raise ValueError(f"row {q} outside feature matrix of {features.n_samples} rows")
    window = features.values[q - window_width + 1: q + 1, list(subset)]
    return _normalized_singular_values(window[None, :, :])[0]


def _normalized_singular_values(windows: np.ndarray, work: tuple | None = None) -> np.ndarray:
    """Pooled-scalar normalization then SVD over a (batch, w, h) stack."""
    return singular_values(_normalized(windows, work))


# A finite window whose pooled variance overflows is mended below; a
# window with a non-finite entry stays non-finite for singular_values
# to reject.
@np.errstate(over="ignore", invalid="ignore")
def _normalized(windows: np.ndarray, work: tuple | None = None) -> np.ndarray:
    """Each window minus its pooled mean, over its pooled std.

    The mean and the n - 1 std are numpy's mean and std to the byte, with
    the mean computed and subtracted once.  A window whose entries are all
    equal normalises to exactly zero, as its pooled mean need not round to
    that entry.  A finite window whose std overflows is divided by its
    largest magnitude first, which leaves its normalised form unchanged.
    work is a pair of arrays laid out like windows, with at least as many
    windows, for the result and the squared deviations; a caller that
    normalises block after block passes one pair to every block.  The
    layout matters: the pooled sums run in memory order, and a column
    subset taken by fancy indexing is column-major.
    """
    count = windows.shape[1] * windows.shape[2]
    if work is None:
        work = np.empty_like(windows), np.empty_like(windows)
    centred, square = (buffer[:len(windows)] for buffer in work)
    np.subtract(windows, windows.sum(axis=(1, 2), keepdims=True) / count, out=centred)
    std = np.sqrt(np.multiply(centred, centred, out=square).sum(axis=(1, 2), keepdims=True)
                  / (count - 1))
    centred /= np.maximum(std, EPS_STD)
    centred[np.all(windows == windows[:, :1, :1], axis=(1, 2))] = 0.0
    if not np.all(np.isfinite(std)):
        huge = ~np.isfinite(std[:, 0, 0]) & np.all(np.isfinite(windows), axis=(1, 2))
        scaled = windows[huge]
        centred[huge] = _normalized(
            scaled / np.abs(scaled).max(axis=(1, 2), keepdims=True))
    return centred


def _sliding_windows(values: np.ndarray, window_width: int) -> np.ndarray:
    """(n - w + 1, w, cols) view of every full-height window."""
    view = np.lib.stride_tricks.sliding_window_view(values, window_width, axis=0)
    return np.swapaxes(view, 1, 2)


def _block_bounds(count: int) -> list:
    """[start, stop) bounds of _BLOCK_WINDOWS-window blocks over count
    windows.  A trailing one-window block joins the block before it, so
    every window's pooled mean is reduced in the same order as in one
    stack of all windows."""
    starts = list(range(0, count, _BLOCK_WINDOWS))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [count]))


def _subset_spectra(values: np.ndarray, subset, window_width: int, out: np.ndarray) -> None:
    """Write the spectra of every window over the subset columns into out,
    one row per window, block by block, normalising every block in one
    pair of work arrays."""
    windows = _sliding_windows(values[:, list(subset)], window_width)
    bounds = _block_bounds(len(windows))
    largest = windows[:max(stop - start for start, stop in bounds)]
    work = np.empty_like(largest), np.empty_like(largest)
    for start, stop in bounds:
        out[start:stop] = _normalized_singular_values(windows[start:stop], work)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def _helpers():
    """A pool of _cpu_count() - 1 helper threads, at least one, beside the
    calling thread; a helper starts only when a queued job needs it.  On
    exit the jobs still queued are cancelled and every helper is joined."""
    pool = ThreadPoolExecutor(max_workers=max(1, _cpu_count() - 1))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _queue_spectra(pool, features: FeatureMatrix, subsets, window_width: int):
    """Queue one _subset_spectra job per subset on pool.  Returns a call
    that runs on the calling thread each queued job no helper has started,
    waits for the rest and returns _spectra's (values, sample_offset).  The
    first failing job in queue order raises from that call."""
    n = features.n_samples
    if n < window_width:
        raise ValueError(f"{n} rows cannot host a window of width {window_width}")
    if not subsets:
        raise ValueError("fused matrix needs at least one column subset")
    edges = np.cumsum([0] + [len(subset) for subset in subsets])
    fused = np.empty((n - window_width + 1, edges[-1]))
    jobs = []
    for subset, start, stop in zip(subsets, edges[:-1], edges[1:]):
        args = (features.values, subset, window_width, fused[:, start:stop])
        jobs.append((pool.submit(_subset_spectra, *args), args))

    def finish() -> tuple:
        failed = None
        for index, (future, args) in enumerate(jobs):
            if future.cancel():
                try:
                    _subset_spectra(*args)
                except Exception as error:  # raised after any earlier job's error
                    failed = index, error
                    break
        for future, _ in jobs[:failed[0] if failed else None]:
            if not future.cancelled():
                future.result()
        if failed:
            raise failed[1]
        return fused, features.sample_offset + window_width - 1
    return finish


def _spectra(features: FeatureMatrix, subsets, window_width: int) -> tuple:
    """build_fused_matrix's values, as a new writable array the caller
    owns, and its sample_offset."""
    with _helpers() as pool:
        return _queue_spectra(pool, features, subsets, window_width)()


def build_fused_matrix(features: FeatureMatrix, subsets, window_width: int) -> FeatureMatrix:
    """Concatenate per-subset singular-value rows across all windows.

    Row r holds the spectra of the windows ending at sample r + w - 1;
    the sample_offset advances accordingly.  The subsets run on the
    calling thread and its helpers, which are joined before the call
    returns; every window is decomposed alone, so the bytes do not depend
    on which thread ran it.
    """
    values, sample_offset = _spectra(features, subsets, window_width)
    return FeatureMatrix(frozen(values), sample_offset=sample_offset)


def fit_pca_reduction(values: np.ndarray, variance_fraction: float) -> tuple:
    """Center by column means, keep the smallest eigenvector count whose
    cumulative variance reaches variance_fraction (capped at the
    numerical rank); returns (PcaReduction, reduced matrix)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 2:
        raise ValueError("PCA reduction needs at least 2 rows")
    projection, _ = principal_subspace(values, variance_fraction)
    reduction = PcaReduction(values.mean(axis=0), projection)
    return reduction, (values - reduction.mean) @ reduction.projection


def fit_layer(features: FeatureMatrix, config: LayerConfig,
              test: FeatureMatrix | None = None, error_prefix: str = "") -> tuple:
    """Fit one layer on U^l and run an optional test record through it:
    (TransformLayer, U^{l+1}, the test record's U^{l+1} or None).

    The principal-component scores are scaled to unit per-column std
    before the autoencoder sees them, so every retained direction
    carries equal reconstruction weight and the learned code spreads
    across directions instead of tracking the single largest one.
    Subset sampling and autoencoder initialization derive their seeds
    from config.seed; the training seed lives in config.training.

    The test record's spectra need only the column subsets, so their jobs
    are queued on helper threads once the training spectra are built and
    run while the autoencoder trains; the test codes equal apply_layer's
    to the byte.  A ValueError or TrainingDivergedError of the training
    side carries error_prefix.  The test side raises apply_layer's errors,
    unprefixed and only after the training side has finished.
    """
    with _helpers() as pool:
        try:
            m_l = features.n_features
            _require_wider_window(config.window_width, m_l)
            if config.subset_size > m_l:
                raise ValueError(f"subset_size {config.subset_size} exceeds {m_l} input features")
            subsets = select_column_subsets(m_l, config.subset_size, config.max_subsets,
                                            derive_seed(config.seed, 0))
            fused = build_fused_matrix(features, subsets, config.window_width)
            if test is not None:
                try:  # raised once the training side has finished
                    _require_input_width(m_l, test)
                    test_spectra = _queue_spectra(pool, test, subsets, config.window_width)
                except ValueError as error:
                    test_spectra = error
            reduction, scaled = fit_pca_reduction(fused.values, config.pca_variance_fraction)
            sample_offset = fused.sample_offset
            del fused  # the spectra are not needed while the autoencoder trains
            score_scale = column_std(scaled)
            scaled /= score_scale

            ae = init_autoencoder(scaled.shape[1], config.code_dim, config.ae_variant,
                                  derive_seed(config.seed, 1), hidden_dims=config.hidden_dims)
            trained, _ = train(ae, scaled, config.training)
            codes = encode(trained, scaled)
            layer = TransformLayer(config.window_width, m_l, tuple(subsets), reduction,
                                   score_scale, trained)
            train_codes = FeatureMatrix(frozen(codes), sample_offset=sample_offset)
        except (ValueError, TrainingDivergedError) as error:
            error.args = (f"{error_prefix}{error}",)
            raise
        if test is None:
            return layer, train_codes, None
        if isinstance(test_spectra, ValueError):
            raise test_spectra
        return layer, train_codes, _encode(layer, *_scaled(layer, *test_spectra()))


def _require_input_width(input_features: int, features: FeatureMatrix) -> None:
    if features.n_features != input_features:
        raise ValueError(
            f"feature matrix has {features.n_features} columns, layer was fitted "
            f"on {input_features}"
        )


def _scaled_inputs(layer: TransformLayer, features: FeatureMatrix) -> tuple:
    """(autoencoder inputs, sample_offset) of U^l through the frozen
    spectra, PCA reduction and score scale."""
    _require_input_width(layer.input_features, features)
    return _scaled(layer, *_spectra(features, layer.subsets, layer.window_width))


def _scaled(layer: TransformLayer, values: np.ndarray, sample_offset: int) -> tuple:
    """(autoencoder inputs, sample_offset) of a record's _spectra through
    the frozen PCA reduction and score scale.  The spectra are centred in
    place, so no second array of their size is made."""
    reduced = np.subtract(values, layer.reduction.mean, out=values) @ layer.reduction.projection
    reduced /= layer.score_scale
    return reduced, sample_offset


def _encode(layer: TransformLayer, scaled: np.ndarray, sample_offset: int) -> FeatureMatrix:
    return FeatureMatrix(frozen(encode(layer.autoencoder, scaled)), sample_offset=sample_offset)


def layer_loss(layer: TransformLayer, features: FeatureMatrix, l1_weight: float) -> tuple:
    """(total, parts, U^{l+1}) of the stored autoencoder on this layer's
    scaled inputs at its training l1_weight; on the fit-time features the
    loss is the post-training loss and U^{l+1} equals apply_layer's output."""
    scaled, sample_offset = _scaled_inputs(layer, features)
    total, parts = loss(layer.autoencoder, scaled, l1_weight)
    return total, parts, _encode(layer, scaled, sample_offset)


def apply_layer(layer: TransformLayer, features: FeatureMatrix) -> FeatureMatrix:
    """Run U^l through the frozen layer; bit-identical to the fit-time
    output on the training features."""
    return _encode(layer, *_scaled_inputs(layer, features))
