"""Independent oracles shared across test modules.

These deliberately avoid the library's own code paths: singular values
come from a Gram-matrix eigendecomposition, gradients from central finite
differences of the public loss function.  The one exception is
per_subset_spectra, the single-stack reference of the blocked spectra.
"""

import numpy as np

from fenkit import autoencoder
from fenkit.transform import _normalized_singular_values


def gram_singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values via eigenvalues of M^T M, descending."""
    gram = matrix.T @ matrix
    eigenvalues = np.linalg.eigvalsh(gram)
    return np.sqrt(np.clip(eigenvalues, 0.0, None))[::-1]


def finite_difference_gradients(ae, batch, l1_weight=1.0, noise=None, step=1e-5):
    """Central differences of loss() over every parameter entry, in
    parameters() order."""
    params = autoencoder.parameters(ae)
    grads = []
    for index in range(len(params)):
        grad = np.zeros_like(params[index])
        for pos in np.ndindex(*params[index].shape):
            perturbed = [p.copy() for p in params]
            perturbed[index][pos] += step
            plus, _ = autoencoder.loss(
                autoencoder.with_parameters(ae, perturbed), batch, l1_weight, noise)
            perturbed[index][pos] -= 2.0 * step
            minus, _ = autoencoder.loss(
                autoencoder.with_parameters(ae, perturbed), batch, l1_weight, noise)
            grad[pos] = (plus - minus) / (2.0 * step)
        grads.append(grad)
    return grads


def assert_gradients_close(analytic, oracle, rtol=1e-4, atol=1e-6):
    """Entrywise |a - f| <= max(rtol * |f|, atol) across the whole set."""
    assert len(analytic) == len(oracle)
    for a, f in zip(analytic, oracle):
        bound = np.maximum(rtol * np.abs(f), atol)
        worst = np.max(np.abs(a - f) - bound)
        assert worst <= 0, f"gradient mismatch by {worst:.3e} beyond tolerance"


def per_subset_spectra(values: np.ndarray, subsets, window_width: int) -> np.ndarray:
    """build_fused_matrix's values from one _normalized_singular_values
    call over each subset's whole (windows, w, h) stack, on one thread."""
    stacks = [np.swapaxes(np.lib.stride_tricks.sliding_window_view(
        values[:, list(subset)], window_width, axis=0), 1, 2) for subset in subsets]
    return np.hstack([_normalized_singular_values(stack) for stack in stacks])
