"""Decision layer: standardize final-layer codes against their training
statistics, collapse each sample to a 1-norm detection index, and flag
samples whose index strictly exceeds the empirical control limit."""

from dataclasses import dataclass

import numpy as np

from .datasets import ScalerStats, fit_standardize, standardized
from .numerics import empirical_quantile


@dataclass(frozen=True)
class DecisionModel:
    """Per-dimension training scaler and control limit."""

    scaler: ScalerStats
    limit: float

    def __post_init__(self):
        if not (0.0 <= self.limit < np.inf):
            raise ValueError("limit must be finite and non-negative")

    @property
    def code_dim(self) -> int:
        return self.scaler.mean.shape[0]


def detection_index(model: DecisionModel, code: np.ndarray) -> np.ndarray:
    """1-norm of each standardized code row."""
    rows = np.asarray(code, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.code_dim:
        raise ValueError(
            f"code matrix has shape {rows.shape}, model expects {model.code_dim} columns"
        )
    return np.abs(standardized(rows, model.scaler)).sum(axis=1)


def fit_decision(train_codes: np.ndarray, confidence: float = 0.99) -> DecisionModel:
    """Training statistics plus the empirical confidence-quantile limit
    of the training detection indices."""
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must lie in (0, 1)")
    scaler = fit_standardize(train_codes)
    train_d = detection_index(DecisionModel(scaler, limit=0.0), train_codes)
    limit = empirical_quantile(train_d, confidence)
    return DecisionModel(scaler, limit=float(limit))


def alarms(model: DecisionModel, index_values: np.ndarray) -> np.ndarray:
    """Boolean flags; the limit itself does not alarm (strict >)."""
    return np.asarray(index_values, dtype=np.float64) > model.limit
