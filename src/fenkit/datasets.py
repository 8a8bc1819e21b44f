"""Process data handling: CSV ingestion, standardization, a seeded
synthetic generator for coupled multivariate data with injected faults,
and the field codec every fenkit text file is read and written with.

Datasets are frozen after construction; every operation returns a new
object, so instances are safe to share across threads.
"""

import configparser
import math
from dataclasses import MISSING, dataclass, fields, replace
from typing import get_args, get_origin

import numpy as np

from .numerics import EPS_STD, column_std, freeze_arrays

FAULT_TYPES = ("step", "random_variation", "slow_drift", "sticking", "none")

_BURN_IN = 500


@dataclass(frozen=True)
class ProcessDataset:
    """A samples-by-variables measurement matrix with per-row labels.

    Labels are integers: 0 marks a normal sample, any positive value is a
    fault id.  Labels record when a fault is declared active, not whether
    it is visible in the data.
    """

    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"dataset needs a non-empty 2-d matrix, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("dataset contains non-finite entries")
        labels = np.array(self.labels, dtype=np.int64)
        if labels.shape != (values.shape[0],):
            raise ValueError(
                f"labels length {labels.shape} does not match row count {values.shape[0]}"
            )
        if np.any(labels < 0):
            raise ValueError(
                "labels must be non-negative: 0 is normal, a positive value a fault id")
        freeze_arrays(self, values=values, labels=labels)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_variables(self) -> int:
        return self.values.shape[1]

    def split(self, n_first: int) -> tuple["ProcessDataset", "ProcessDataset"]:
        """Split into leading/trailing phases of n_first and n - n_first rows."""
        if not (0 < n_first < self.n_samples):
            raise ValueError(f"split point {n_first} outside (0, {self.n_samples})")
        head = ProcessDataset(self.values[:n_first], self.labels[:n_first])
        tail = ProcessDataset(self.values[n_first:], self.labels[n_first:])
        return head, tail


@dataclass(frozen=True)
class ScalerStats:
    """Per-column mean and (floored) standard deviation of a training set."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64)
        std = np.array(self.std, dtype=np.float64)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean/std must be matching 1-d vectors")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
            raise ValueError("mean and std must be finite")
        if np.any(std < EPS_STD):
            raise ValueError(f"std entries must be >= {EPS_STD}")
        freeze_arrays(self, mean=mean, std=std)


@dataclass(frozen=True)
class SyntheticConfig:
    """Settings for the coupled linear-Gaussian generator with one injected fault."""

    n_variables: int
    n_train: int
    n_test: int
    fault_type: str = "none"
    fault_amplitude: float = 1.0
    fault_channels: tuple[int, ...] = ()
    fault_onset: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "fault_channels", tuple(int(c) for c in self.fault_channels))
        if self.n_variables < 1 or self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_variables, n_train and n_test must be positive")
        if self.fault_type not in FAULT_TYPES:
            raise ValueError(f"fault_type must be one of {FAULT_TYPES}, got {self.fault_type!r}")
        if not (0 <= self.fault_onset < self.n_test):
            raise ValueError(f"fault_onset {self.fault_onset} outside test phase [0, {self.n_test})")
        for ch in self.fault_channels:
            if not (0 <= ch < self.n_variables):
                raise ValueError(f"fault channel {ch} outside [0, {self.n_variables})")
        if self.fault_type != "none" and not self.fault_channels:
            raise ValueError("fault_channels must be non-empty for a declared fault")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")


def load_csv(path, has_header: bool = False) -> ProcessDataset:
    """Load a comma-separated numeric export, one row per sampling instant.

    All labels default to normal; fault labels are attached afterwards from
    a sidecar or an onset index (exports carry no label column).
    Malformed input reports the offending line and column.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except FileNotFoundError:
        raise FileNotFoundError(f"data file not found: {path}") from None

    start = 0
    if has_header:
        if not lines:
            raise ValueError(f"{path}: empty file cannot carry a header")
        start = 1
    rows = []
    width = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ValueError(
                f"{path}: ragged row at line {lineno}: expected {width} fields, got {len(fields)}"
            )
        parsed = []
        for col, token in enumerate(fields):
            try:
                value = float(token)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric field at line {lineno}, column {col + 1}: {token!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: non-finite field at line {lineno}, column {col + 1}: {token!r}"
                )
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    values = np.array(rows, dtype=np.float64)
    return ProcessDataset(values, np.zeros(len(rows), dtype=np.int64))


def write_csv(dataset: ProcessDataset, path) -> None:
    """Write the value matrix as comma-separated text, full float precision."""
    with open(path, "w", encoding="utf-8") as handle:
        for row in dataset.values.tolist():  # Python floats: repr is repr(float(v))
            handle.write(",".join(map(repr, row)))
            handle.write("\n")


def attach_onset_labels(dataset: ProcessDataset, onset: int) -> ProcessDataset:
    """Label rows >= onset as faulty; the usual transport for exported data."""
    if not (0 <= onset <= dataset.n_samples):
        raise ValueError(f"onset {onset} outside [0, {dataset.n_samples}]")
    labels = np.zeros(dataset.n_samples, dtype=np.int64)
    labels[onset:] = 1
    return ProcessDataset(dataset.values, labels)


def fit_standardize(values: np.ndarray) -> ScalerStats:
    """Per-column mean/std of a training matrix, std floored so constant
    (frozen-sensor) columns standardize to zero instead of erroring."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 2:
        raise ValueError("standardization needs a matrix of at least 2 rows")
    std = column_std(values)  # before the mean, which warns where this raises
    return ScalerStats(values.mean(axis=0), std)


def standardized(values: np.ndarray, scaler: ScalerStats) -> np.ndarray:
    """Rows minus the scaler's mean, over its std."""
    return (values - scaler.mean) / scaler.std


def _coupling_matrix(m: int) -> np.ndarray:
    """Tridiagonal transition matrix rescaled to spectral radius 0.95."""
    a = np.zeros((m, m))
    np.fill_diagonal(a, 0.8)
    idx = np.arange(m - 1)
    a[idx, idx + 1] = 0.1
    a[idx + 1, idx] = 0.1
    radius = np.max(np.abs(np.linalg.eigvals(a)))
    return a * (0.95 / radius)


def generate_synthetic(config: SyntheticConfig) -> ProcessDataset:
    """Generate a coupled stationary sequence with the configured fault.

    The normal dynamics are x_t = A x_{t-1} + w_t with A stable and
    non-diagonal, so channels are cross- and auto-correlated.  The fault
    acts on fault_channels from fault_onset (an index into the test phase):

      step             additive fault_amplitude * channel std
      random_variation injected noise std scaled by (1 + fault_amplitude)
      slow_drift       linear ramp reaching fault_amplitude * channel std
                       at the end of the sequence
      sticking         channel frozen at its onset value

    Identical configs produce bit-identical datasets.  Split the result
    with dataset.split(config.n_train).
    """
    m = config.n_variables
    n_total = config.n_train + config.n_test
    onset_abs = config.n_train + config.fault_onset
    rng = np.random.default_rng(config.seed)
    a = _coupling_matrix(m)

    # One noise draw for every step regardless of fault type keeps the
    # zero-amplitude fault bit-identical to the no-fault sequence.
    noise = rng.standard_normal((_BURN_IN + n_total, m))
    if config.fault_type == "random_variation":
        scale_rows = _BURN_IN + onset_abs
        for ch in config.fault_channels:
            noise[scale_rows:, ch] *= 1.0 + config.fault_amplitude

    states = np.zeros((_BURN_IN + n_total, m))
    prev = np.zeros(m)
    for t in range(_BURN_IN + n_total):
        prev = a @ prev + noise[t]
        states[t] = prev
    values = states[_BURN_IN:]

    channel_std = column_std(values[: config.n_train])

    if config.fault_type == "step":
        for ch in config.fault_channels:
            values[onset_abs:, ch] += config.fault_amplitude * channel_std[ch]
    elif config.fault_type == "slow_drift":
        last = n_total - 1
        span = max(last - onset_abs, 1)
        ramp = (np.arange(onset_abs, n_total) - onset_abs) / span
        for ch in config.fault_channels:
            values[onset_abs:, ch] += config.fault_amplitude * channel_std[ch] * ramp
    elif config.fault_type == "sticking":
        for ch in config.fault_channels:
            values[onset_abs:, ch] = values[onset_abs, ch]

    labels = np.zeros(n_total, dtype=np.int64)
    if config.fault_type != "none":
        labels[onset_abs:] = 1
    return ProcessDataset(values, labels)


def field_text(value) -> str:
    """A field value as file text: tuple items space-separated, None empty."""
    if value is None:
        return ""
    return " ".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _parse_field(text: str, annotation):
    """Text as a field annotated int, float, str, tuple[X, ...] or X | None."""
    if get_origin(annotation) is tuple:
        return tuple(_parse_field(token, get_args(annotation)[0]) for token in text.split())
    if type(None) in get_args(annotation):
        return None if text == "" else _parse_field(text, get_args(annotation)[0])
    return annotation(text)


def read_section(section, label: str, target, keys=None, shared=(), **given):
    """Build (target a dataclass type) or update (an instance) a dataclass
    from a parsed section, each value parsed as its field's annotation.

    keys maps each accepted key to its field (default: every field not in
    `given`, which sets fields from elsewhere); keys in `shared` belong to
    another reader of the section.  An unknown key, an unreadable value or
    a missing required field raises ValueError naming the key and `label`.
    """
    if keys is None:
        keys = {f.name: f.name for f in fields(target) if f.name not in given}
    unknown = section.keys() - keys.keys() - set(shared)
    if unknown:
        raise ValueError(f"[{label}]: unknown key {min(unknown)!r}")
    declared = {f.name: f for f in fields(target)}
    values = dict(given)
    for key, field in keys.items():
        if key in section:
            try:
                values[field] = _parse_field(section[key], declared[field].type)
            except ValueError:
                raise ValueError(f"[{label}]: cannot read {key} = {section[key]!r}") from None
        elif isinstance(target, type) and declared[field].default is MISSING:
            raise ValueError(f"[{label}]: missing key {key!r}")
    return target(**values) if isinstance(target, type) else replace(target, **values)


def read_ini(path, kind: str, *sections, optional=()) -> configparser.ConfigParser:
    """A parsed key-value file that must hold the named sections and may
    hold the optional ones (a name ending in ':' admits every section with
    that prefix); any other section raises ValueError naming it."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(f"{kind} file not found: {path}")
    for section in sections:
        if section not in parser:
            raise ValueError(f"{path}: missing [{section}] section")
    for section in parser.sections():
        if section not in sections + optional and not any(
                name.endswith(":") and section.startswith(name) for name in optional):
            raise ValueError(f"{path}: unknown section [{section}] in a {kind} file")
    return parser


def write_sidecar(config: SyntheticConfig, path) -> None:
    """Key-value metadata recording exactly how a dataset was produced."""
    parser = configparser.ConfigParser()
    parser["synthetic"] = {f.name: field_text(getattr(config, f.name))
                           for f in fields(config)}
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)


def read_synthetic_config(path) -> SyntheticConfig:
    parser = read_ini(path, "recipe", "synthetic")
    return read_section(parser["synthetic"], "synthetic", SyntheticConfig)
