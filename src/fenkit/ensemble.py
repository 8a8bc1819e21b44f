"""Input feature layer: stack every detector's scores into one
samples-by-features integration matrix."""

from dataclasses import dataclass

import numpy as np

from .datasets import ProcessDataset
from .detectors import DetectorBank, detector_features
from .numerics import frozen


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-layer feature matrix; row i stays aligned with original
    sample i + sample_offset.

    A read-only float64 array, such as one the library has just built and
    frozen, is wrapped as it is; any other input is copied, so a caller's
    writable array stays theirs and stays writable."""

    values: np.ndarray
    sample_offset: int = 0

    def __post_init__(self):
        values = self.values
        if not (isinstance(values, np.ndarray) and values.dtype == np.float64
                and not values.flags.writeable):
            values = frozen(np.array(values, dtype=np.float64))
        if values.ndim != 2:
            raise ValueError(f"feature matrix must be 2-d, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("feature matrix contains non-finite entries")
        if self.sample_offset < 0:
            raise ValueError("sample_offset must be non-negative")
        object.__setattr__(self, "values", values)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


def build_feature_matrix(bank: DetectorBank, data: ProcessDataset) -> FeatureMatrix:
    """Row i holds every bank feature evaluated at sample i; columns are
    bit-identical to scoring with each detector alone."""
    return FeatureMatrix(frozen(np.hstack([detector_features(det, data.values)
                                           for det in bank.detectors])))
