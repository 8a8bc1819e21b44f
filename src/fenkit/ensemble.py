"""Input feature layer: stack every detector's scores into one
samples-by-features integration matrix."""

from dataclasses import dataclass

import numpy as np

from .datasets import ProcessDataset
from .detectors import DetectorBank, detector_features


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-layer feature matrix; row i stays aligned with original
    sample i + sample_offset."""

    values: np.ndarray
    layer: int
    feature_names: tuple
    sample_offset: int = 0

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"feature matrix must be 2-d, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("feature matrix contains non-finite entries")
        names = tuple(self.feature_names)
        if len(names) != values.shape[1]:
            raise ValueError(
                f"{values.shape[1]} feature columns but {len(names)} names"
            )
        if self.layer < 0 or self.sample_offset < 0:
            raise ValueError("layer and sample_offset must be non-negative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


def build_feature_matrix(bank: DetectorBank, data: ProcessDataset) -> FeatureMatrix:
    """Row i holds every bank feature evaluated at sample i; columns are
    bit-identical to scoring with each detector alone."""
    columns = [detector_features(det, data.values) for det in bank.detectors]
    return FeatureMatrix(np.hstack(columns), layer=0,
                         feature_names=bank.feature_names, sample_offset=0)

