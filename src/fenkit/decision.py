"""Decision layer: standardize final-layer codes against their training
statistics, collapse each sample to a p-norm detection index, and flag
samples whose index strictly exceeds the empirical control limit."""

from dataclasses import dataclass

import numpy as np

from .datasets import ScalerStats, fit_standardize, standardized
from .numerics import empirical_quantile


@dataclass(frozen=True)
class DecisionModel:
    """Per-dimension training scaler, norm order, and control limit."""

    scaler: ScalerStats
    norm_order: int
    limit: float

    def __post_init__(self):
        if self.norm_order < 1:
            raise ValueError("norm_order must be at least 1")
        if not (0.0 <= self.limit < np.inf):
            raise ValueError("limit must be finite and non-negative")

    @property
    def code_dim(self) -> int:
        return self.scaler.mean.shape[0]


def detection_index(model: DecisionModel, code: np.ndarray) -> np.ndarray:
    """p-norm of each standardized code row; for p > 1 each row is scaled
    by its largest entry first, so z**p cannot overflow."""
    rows = np.asarray(code, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.code_dim:
        raise ValueError(
            f"code matrix has shape {rows.shape}, model expects {model.code_dim} columns"
        )
    z = np.abs(standardized(rows, model.scaler))
    if model.norm_order == 1:
        return z.sum(axis=1)
    peak = z.max(axis=1, keepdims=True, initial=0.0)
    peak[peak == 0.0] = 1.0
    scaled = (z / peak) ** model.norm_order
    return peak[:, 0] * scaled.sum(axis=1) ** (1.0 / model.norm_order)


def fit_decision(train_codes: np.ndarray, confidence: float = 0.99,
                 norm_order: int = 1) -> DecisionModel:
    """Training statistics plus the empirical confidence-quantile limit
    of the training detection indices."""
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must lie in (0, 1)")
    scaler = fit_standardize(train_codes)
    train_d = detection_index(DecisionModel(scaler, norm_order, limit=0.0), train_codes)
    limit = empirical_quantile(train_d, confidence)
    return DecisionModel(scaler, norm_order, limit=float(limit))


def alarms(model: DecisionModel, index_values: np.ndarray) -> np.ndarray:
    """Boolean flags; the limit itself does not alarm (strict >)."""
    return np.asarray(index_values, dtype=np.float64) > model.limit
