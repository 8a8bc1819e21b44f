"""Decision layer: standardize final-layer codes against their training
statistics, collapse each sample to a p-norm detection index, and flag
samples whose index strictly exceeds the empirical control limit."""

from dataclasses import dataclass

import numpy as np

from .numerics import EPS_STD, column_std, empirical_quantile, freeze_arrays


@dataclass(frozen=True)
class DecisionModel:
    """Per-dimension training mean/std, norm order, and control limit."""

    mean: np.ndarray
    std: np.ndarray
    norm_order: int
    limit: float

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64)
        std = np.array(self.std, dtype=np.float64)
        if mean.ndim != 1 or mean.shape != std.shape:
            raise ValueError("mean and std must be matching vectors")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
            raise ValueError("mean and std must be finite")
        if np.any(std < EPS_STD):
            raise ValueError(f"std entries must be >= {EPS_STD}")
        if self.norm_order < 1:
            raise ValueError("norm_order must be at least 1")
        if not (0.0 <= self.limit < np.inf):
            raise ValueError("limit must be finite and non-negative")
        freeze_arrays(self, mean=mean, std=std)

    @property
    def code_dim(self) -> int:
        return self.mean.shape[0]


def detection_index(model: DecisionModel, code: np.ndarray) -> np.ndarray:
    """p-norm of each standardized code row."""
    rows = np.asarray(code, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.code_dim:
        raise ValueError(
            f"code matrix has shape {rows.shape}, model expects {model.code_dim} columns"
        )
    z = np.abs((rows - model.mean) / model.std)
    if model.norm_order == 1:
        return z.sum(axis=1)
    return (z ** model.norm_order).sum(axis=1) ** (1.0 / model.norm_order)


def fit_decision(train_codes: np.ndarray, confidence: float = 0.99,
                 norm_order: int = 1) -> DecisionModel:
    """Training statistics plus the empirical confidence-quantile limit
    of the training detection indices."""
    codes = np.asarray(train_codes, dtype=np.float64)
    if codes.ndim != 2 or codes.shape[0] < 2:
        raise ValueError("fitting needs a matrix of at least 2 code rows")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must lie in (0, 1)")
    mean = codes.mean(axis=0)
    std = column_std(codes)
    probe = DecisionModel(mean, std, norm_order, limit=0.0)
    train_d = detection_index(probe, codes)
    limit = empirical_quantile(train_d, confidence)
    return DecisionModel(mean, std, norm_order, limit=float(limit))


def alarms(model: DecisionModel, index_values: np.ndarray) -> np.ndarray:
    """Boolean flags; the limit itself does not alarm (strict >)."""
    return np.asarray(index_values, dtype=np.float64) > model.limit
