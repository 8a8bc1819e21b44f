"""Fully connected autoencoder with hand-derived reverse-mode gradients
and an Adam optimizer, written directly against numpy.

Three variants share one architecture: plain (reconstruction + L1 code
penalty), sparse (sigmoid code layer with a KL activity penalty toward a
target rate rho), and variational (encoder emits mean and log-variance,
code sampled by reparameterization during training, posterior mean at
inference).  Training is full-batch and fully deterministic for a given
seed.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import freeze_arrays

ACTIVATIONS = ("linear", "relu", "sigmoid")
VARIANT_KINDS = ("plain", "sparse", "variational")

DEFAULT_HIDDEN_DIMS = (128, 64)


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss or a gradient stops being finite.

    Carries the loss history collected up to the point of divergence.
    """

    def __init__(self, history):
        super().__init__("training diverged: loss is no longer finite")
        self.history = np.asarray(history, dtype=np.float64)


@dataclass(frozen=True)
class Layer:
    """One affine map followed by an elementwise activation."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64)
        bias = np.array(self.bias, dtype=np.float64)
        if weights.ndim != 2 or bias.shape != (weights.shape[1],):
            raise ValueError(
                f"layer shapes disagree: weights {weights.shape}, bias {bias.shape}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
            raise ValueError("layer parameters must be finite")
        freeze_arrays(self, weights=weights, bias=bias)


@dataclass(frozen=True)
class Variant:
    """Loss-family tag; rho/beta only matter for the sparse kind."""

    kind: str
    rho: float = 0.05
    beta: float = 1.0

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"variant must be one of {VARIANT_KINDS}, got {self.kind!r}")
        if self.kind == "sparse":
            if not (0.0 < self.rho < 1.0):
                raise ValueError(f"sparse target rate must lie in (0, 1), got {self.rho}")
            if self.beta < 0:
                raise ValueError("sparse penalty weight must be non-negative")


@dataclass(frozen=True)
class Autoencoder:
    encoder_layers: tuple[Layer, ...]
    decoder_layers: tuple[Layer, ...]
    variant: Variant

    def __post_init__(self):
        object.__setattr__(self, "encoder_layers", tuple(self.encoder_layers))
        object.__setattr__(self, "decoder_layers", tuple(self.decoder_layers))
        if not self.encoder_layers or not self.decoder_layers:
            raise ValueError("encoder and decoder each need at least one layer")
        if self.code_dim < 1:
            raise ValueError("code_dim must be positive")
        chain = list(self.encoder_layers) + list(self.decoder_layers)
        for prev, nxt in zip(chain[:-1], chain[1:]):
            # The variational head emits mean plus log-variance of the
            # code the decoder consumes, so twice its width.
            head = prev is self.encoder_layers[-1] and self.variant.kind == "variational"
            if prev.weights.shape[1] != nxt.weights.shape[0] * (2 if head else 1):
                raise ValueError(
                    f"layer dimensions do not chain: {prev.weights.shape} -> {nxt.weights.shape}"
                )
        if self.decoder_layers[-1].weights.shape[1] != self.input_dim:
            raise ValueError("decoder output dim must equal encoder input dim")

    @property
    def code_dim(self) -> int:
        return self.decoder_layers[0].weights.shape[0]

    @property
    def input_dim(self) -> int:
        return self.encoder_layers[0].weights.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 0.001
    l1_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.l1_weight < 0:
            raise ValueError("l1_weight must be non-negative")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass
class AdamState:
    first_moment: list
    second_moment: list
    step: int = 0


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e) for z >= 0 and e / (1 + e) otherwise, with e = exp(-|z|),
    which never overflows.  e is exp(-z) or exp(z) by the same mask, not
    exp(-abs(z)), so a NaN keeps its sign bit."""
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    denominator = 1.0 + e
    return np.where(pos, 1.0 / denominator, e / denominator)


def init_autoencoder(input_dim: int, code_dim: int, variant: Variant, seed: int,
                     hidden_dims: tuple = DEFAULT_HIDDEN_DIMS) -> Autoencoder:
    """Symmetric funnel: input -> hidden_dims -> code and its mirror.

    Hidden layers use ReLU; code and output layers are linear, except the
    sparse variant whose code layer is sigmoid so activation rates stay in
    (0, 1).  The variational head doubles the final encoder width to emit
    mean and log-variance.  Weights draw uniformly from the symmetric
    fan-balanced range +-sqrt(6/(fan_in+fan_out)); biases start at zero.
    """
    if input_dim < 1 or code_dim < 1:
        raise ValueError("input_dim and code_dim must be positive")
    rng = np.random.default_rng(seed)

    def make_layer(fan_in, fan_out, activation):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        return Layer(weights, np.zeros(fan_out), activation)

    head_dim = 2 * code_dim if variant.kind == "variational" else code_dim
    code_activation = "sigmoid" if variant.kind == "sparse" else "linear"

    encoder = []
    fan_in = input_dim
    for width in hidden_dims:
        encoder.append(make_layer(fan_in, width, "relu"))
        fan_in = width
    encoder.append(make_layer(fan_in, head_dim, code_activation))

    decoder = []
    fan_in = code_dim
    for width in reversed(hidden_dims):
        decoder.append(make_layer(fan_in, width, "relu"))
        fan_in = width
    decoder.append(make_layer(fan_in, input_dim, "linear"))

    return Autoencoder(tuple(encoder), tuple(decoder), variant)


def _buffer(workspace: dict, key, shape, dtype=np.float64) -> np.ndarray:
    """The workspace's array under key, made on first use.  train passes
    one workspace to every epoch; every other pass brings a fresh one."""
    if key not in workspace:
        workspace[key] = np.empty(shape, dtype=dtype)
    return workspace[key]


def _run_stack(layers, params, batch, workspace, name):
    """Forward through a layer stack whose weights and biases alternate in
    params, into workspace buffers under name, caching each layer's input
    and output.  ReLU writes its output over the pre-activation."""
    caches = []
    a = batch
    for k, (layer, weights, bias) in enumerate(zip(layers, params[0::2], params[1::2])):
        z = _buffer(workspace, (name, k, "z"), (a.shape[0], weights.shape[1]))
        np.matmul(a, weights, out=z)
        z += bias
        if layer.activation == "relu":
            out = np.maximum(z, 0.0, out=z)
        elif layer.activation == "sigmoid":
            out = _sigmoid(z)
        else:
            out = z
        caches.append((a, out))
        a = out
    return a, caches


def _backprop_stack(layers, params, caches, upstream, workspace, name, input_gradient=True):
    """Gradient of the stack given dLoss/d(stack output), which a ReLU
    top layer overwrites; returns the (dW, db) of every layer, in params
    order, plus dLoss/d(stack input), or None without input_gradient."""
    grads = [None] * (2 * len(layers))
    da = upstream
    for k in range(len(layers) - 1, -1, -1):
        activation = layers[k].activation
        a_prev, out = caches[k]
        if activation == "relu":
            # output > 0 exactly where the pre-activation is, NaN included.
            mask = _buffer(workspace, (name, k, "mask"), out.shape, bool)
            delta = np.multiply(da, np.greater(out, 0.0, out=mask), out=da)
        elif activation == "sigmoid":
            delta = da * (out * (1.0 - out))
        else:
            delta = da
        grads[2 * k], grads[2 * k + 1] = a_prev.T @ delta, delta.sum(axis=0)
        da = None
        if k or input_gradient:
            da = np.matmul(delta, params[2 * k].T,
                           out=_buffer(workspace, (name, k, "da"), a_prev.shape))
    return grads, da


def _encode(ae: Autoencoder, params: list, batch, workspace, noise=None) -> tuple:
    """The encoder step of every pass: (code, encoder caches, head).

    head is None except for the variational variant, where it is
    (mu, logvar, sigma) and the code is mu + sigma * noise; when noise
    is None, the code is the posterior mean mu and sigma is None.
    """
    head, caches = _run_stack(ae.encoder_layers, params, batch, workspace, "encoder")
    if ae.variant.kind != "variational":
        return head, caches, None
    mu, logvar = head[:, :ae.code_dim], head[:, ae.code_dim:]
    if noise is None:
        return mu, caches, (mu, logvar, None)
    sigma = np.exp(0.5 * logvar)
    return mu + sigma * noise, caches, (mu, logvar, sigma)


# Overflow surfaces as non-finite values that callers detect and report;
# the IEEE warnings would only duplicate that.
@np.errstate(over="ignore", invalid="ignore")
def _evaluate(ae: Autoencoder, params: list, batch, l1_weight, noise, workspace):
    """Shared forward/backward core of loss(), gradients() and train(),
    over a parameters()-ordered list; the gradients come in that order.

    Reconstruction error and the variational KL sum over dimensions and
    average over batch rows; the code L1 penalty averages over rows and
    code dimensions; the sparse KL sums per-unit activity penalties.
    """
    n_rows = batch.shape[0]
    variant = ae.variant
    dec_params = params[2 * len(ae.encoder_layers):]
    code, enc_caches, head = _encode(ae, params, batch, workspace, noise)
    recon, dec_caches = _run_stack(ae.decoder_layers, dec_params, code, workspace, "decoder")

    err = np.subtract(recon, batch, out=_buffer(workspace, "err", batch.shape))
    mse = float(np.multiply(err, err, out=_buffer(workspace, "err_sq", batch.shape)).sum()
                / n_rows)
    parts = {"mse": mse}
    if variant.kind == "plain":
        parts["l1"] = float(l1_weight * np.mean(np.abs(code)))
    elif variant.kind == "sparse":
        rho_hat = code.mean(axis=0)
        if np.any(rho_hat <= 0.0) or np.any(rho_hat >= 1.0):
            raise ValueError(
                "sparse activity rate left (0, 1); the code layer must be sigmoid"
            )
        rho = variant.rho
        kl = rho * np.log(rho / rho_hat) + (1 - rho) * np.log((1 - rho) / (1 - rho_hat))
        parts["kl_sparse"] = float(variant.beta * kl.sum())
    else:
        mu, logvar, sigma = head
        kl_terms = 0.5 * (mu * mu + np.exp(logvar) - 1.0 - logvar)
        parts["kl_vae"] = float(kl_terms.sum() / n_rows)
    total = float(sum(parts.values()))

    # dLoss/d(recon) = 2 err / rows, in err's own buffer.
    d_recon = np.divide(np.multiply(2.0, err, out=err), n_rows, out=err)
    dec_grads, d_code = _backprop_stack(ae.decoder_layers, dec_params, dec_caches, d_recon,
                                        workspace, "decoder")

    if variant.kind == "plain":
        d_code = d_code + l1_weight * np.sign(code) / code.size
        d_head = d_code
    elif variant.kind == "sparse":
        rho = variant.rho
        d_rho_hat = variant.beta * (-rho / rho_hat + (1 - rho) / (1 - rho_hat))
        d_code = d_code + d_rho_hat / n_rows
        d_head = d_code
    else:
        d_mu = d_code + mu / n_rows
        d_logvar = 0.5 * (np.exp(logvar) - 1.0) / n_rows
        if noise is not None:
            d_logvar = d_logvar + d_code * 0.5 * sigma * noise
        d_head = np.concatenate([d_mu, d_logvar], axis=1)

    # The encoder's input gradient would be dLoss/d(data), which nothing reads.
    enc_grads, _ = _backprop_stack(ae.encoder_layers, params, enc_caches, d_head,
                                   workspace, "encoder", input_gradient=False)
    return total, parts, enc_grads + dec_grads


def _check_batch(ae: Autoencoder, batch) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[0] < 1:
        raise ValueError(f"batch must be a non-empty 2-d matrix, got shape {batch.shape}")
    if batch.shape[1] != ae.input_dim:
        raise ValueError(
            f"batch has {batch.shape[1]} columns, autoencoder expects {ae.input_dim}"
        )
    return batch


def encode(ae: Autoencoder, x: np.ndarray) -> np.ndarray:
    """Codes of a sample matrix, one row per sample, from the encoder
    alone; sampling-free, the variational code is the posterior mean.
    Raises ValueError on a non-finite code."""
    batch = _check_batch(ae, x)
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, _ = _encode(ae, parameters(ae), batch, {})
    if not np.all(np.isfinite(code)):
        raise ValueError("non-finite values in encoder pass")
    return code


def forward(ae: Autoencoder, x: np.ndarray) -> tuple:
    """Inference pass over a sample matrix: (codes, reconstructions), one
    row per sample, with encode's codes."""
    code = encode(ae, x)
    with np.errstate(over="ignore", invalid="ignore"):
        recon, _ = _run_stack(ae.decoder_layers, parameters(ae)[2 * len(ae.encoder_layers):],
                              code, {}, "decoder")
    if not np.all(np.isfinite(recon)):
        raise ValueError("non-finite values in forward pass")
    return code, recon


def loss(ae: Autoencoder, batch, l1_weight: float = 1.0, noise=None) -> tuple:
    """Variant loss as (total, parts); parts always sum to the total.

    noise is the variational reparameterization draw (rows x code_dim);
    omitted, the code is the posterior mean, which keeps evaluation
    deterministic.
    """
    batch = _check_batch(ae, batch)
    total, parts, _ = _evaluate(ae, parameters(ae), batch, l1_weight, noise, {})
    return total, parts


def gradients(ae: Autoencoder, batch, l1_weight: float = 1.0, noise=None) -> list:
    """Analytic loss gradients, ordered like parameters(): encoder then
    decoder, weights before bias within each layer.  The L1 subgradient
    at zero is zero."""
    batch = _check_batch(ae, batch)
    _, _, grads = _evaluate(ae, parameters(ae), batch, l1_weight, noise, {})
    for name, grad in zip(_parameter_names(ae), grads):
        if not np.all(np.isfinite(grad)):
            raise ValueError(f"non-finite gradient for {name}")
    return grads


def parameters(ae: Autoencoder) -> list:
    """Flat parameter list: encoder then decoder, weights then bias."""
    flat = []
    for layer in ae.encoder_layers + ae.decoder_layers:
        flat.extend((layer.weights, layer.bias))
    return flat


def _parameter_names(ae: Autoencoder) -> list:
    names = []
    for side, stack in (("encoder", ae.encoder_layers), ("decoder", ae.decoder_layers)):
        for k in range(len(stack)):
            names.extend((f"{side}[{k}].weights", f"{side}[{k}].bias"))
    return names


def with_parameters(ae: Autoencoder, params: list) -> Autoencoder:
    """Rebuild the autoencoder around a parameters()-ordered list."""
    expected = len(parameters(ae))
    if len(params) != expected:
        raise ValueError(f"expected {expected} parameter arrays, got {len(params)}")
    layers = [Layer(weights, bias, layer.activation) for layer, weights, bias
              in zip(ae.encoder_layers + ae.decoder_layers, params[0::2], params[1::2])]
    n_encoder = len(ae.encoder_layers)
    return Autoencoder(layers[:n_encoder], layers[n_encoder:], ae.variant)


def init_adam(params: list) -> AdamState:
    return AdamState(
        first_moment=[np.zeros_like(p) for p in params],
        second_moment=[np.zeros_like(p) for p in params],
        step=0,
    )


def adam_step(params: list, grads: list, state: AdamState, learning_rate: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> tuple:
    """One bias-corrected Adam update; returns (new params, new state)."""
    if not (len(params) == len(grads) == len(state.first_moment)):
        raise ValueError("parameter, gradient and moment counts disagree")
    t = state.step + 1
    new_params, first, second = [], [], []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        new_params.append(p - learning_rate * m_hat / (np.sqrt(v_hat) + eps))
        first.append(m)
        second.append(v)
    return new_params, AdamState(first, second, t)


def train(ae: Autoencoder, data, config: TrainConfig) -> tuple:
    """Full-batch training; returns (trained autoencoder, loss history).

    The history holds the loss at the start of each epoch.  Every epoch
    writes its activations and gradients into one workspace, whose
    buffers the first epoch makes.  A non-finite loss or gradient aborts
    with TrainingDivergedError carrying the history collected so far.
    """
    batch = _check_batch(ae, data)
    rng = np.random.default_rng(config.seed)
    params = parameters(ae)
    state = init_adam(params)
    workspace = {}
    history = []

    for _ in range(config.epochs):
        noise = None
        if ae.variant.kind == "variational":
            noise = rng.standard_normal((batch.shape[0], ae.code_dim))
        total, _, grads = _evaluate(ae, params, batch, config.l1_weight, noise, workspace)
        if not np.isfinite(total):
            raise TrainingDivergedError(history)
        history.append(total)
        if any(not np.all(np.isfinite(g)) for g in grads):
            raise TrainingDivergedError(history)
        params, state = adam_step(params, grads, state, config.learning_rate)

    if any(not np.all(np.isfinite(p)) for p in params):
        raise TrainingDivergedError(history)
    return with_parameters(ae, params), np.asarray(history, dtype=np.float64)
