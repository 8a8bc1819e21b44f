"""Autoencoder contracts: initialization, forward evaluation against a
layer-by-layer oracle, variant losses against closed forms, analytic
gradients against central finite differences, Adam against its first-step
closed form, and full training behaviour."""

import numpy as np
import pytest

from helpers import assert_gradients_close, finite_difference_gradients

from fenkit.autoencoder import (
    Autoencoder,
    AdamState,
    Layer,
    TrainConfig,
    TrainingDivergedError,
    Variant,
    _evaluate,
    _sigmoid,
    adam_step,
    encode,
    forward,
    gradients,
    init_adam,
    init_autoencoder,
    loss,
    parameters,
    train,
    with_parameters,
)

PLAIN = Variant("plain")
SPARSE = Variant("sparse", rho=0.05, beta=1.0)
VAE = Variant("variational")


def small_net(variant, seed=0):
    """6 -> 4 -> 2 funnel with mirrored decoder; cheap enough for
    entrywise finite differences."""
    return init_autoencoder(6, 2, variant, seed=seed, hidden_dims=(4,))


def zero_net(variant, input_dim=3, code_dim=2, hidden=4):
    head = 2 * code_dim if variant.kind == "variational" else code_dim
    code_act = "sigmoid" if variant.kind == "sparse" else "linear"
    encoder = (
        Layer(np.zeros((input_dim, hidden)), np.zeros(hidden), "relu"),
        Layer(np.zeros((hidden, head)), np.zeros(head), code_act),
    )
    decoder = (
        Layer(np.zeros((code_dim, hidden)), np.zeros(hidden), "relu"),
        Layer(np.zeros((hidden, input_dim)), np.zeros(input_dim), "linear"),
    )
    return Autoencoder(encoder, decoder, variant)


class TestInit:
    def test_funnel_shapes(self):
        ae = init_autoencoder(105, 20, PLAIN, seed=0)
        enc_shapes = [l.weights.shape for l in ae.encoder_layers]
        dec_shapes = [l.weights.shape for l in ae.decoder_layers]
        assert enc_shapes == [(105, 128), (128, 64), (64, 20)]
        assert dec_shapes == [(20, 64), (64, 128), (128, 105)]

    def test_variational_head_doubles(self):
        ae = init_autoencoder(10, 3, VAE, seed=0, hidden_dims=(8,))
        assert ae.encoder_layers[-1].weights.shape == (8, 6)
        assert ae.decoder_layers[0].weights.shape == (3, 8)

    def test_activation_assignment(self):
        plain = init_autoencoder(10, 3, PLAIN, seed=0)
        assert [l.activation for l in plain.encoder_layers] == ["relu", "relu", "linear"]
        assert [l.activation for l in plain.decoder_layers] == ["relu", "relu", "linear"]
        sparse = init_autoencoder(10, 3, SPARSE, seed=0)
        assert sparse.encoder_layers[-1].activation == "sigmoid"

    def test_same_seed_bit_identical(self):
        a = init_autoencoder(12, 4, PLAIN, seed=7)
        b = init_autoencoder(12, 4, PLAIN, seed=7)
        for la, lb in zip(a.encoder_layers + a.decoder_layers,
                          b.encoder_layers + b.decoder_layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_weight_range_and_zero_bias(self):
        ae = init_autoencoder(30, 5, PLAIN, seed=1)
        first = ae.encoder_layers[0]
        limit = np.sqrt(6.0 / (30 + 128))
        assert np.all(np.abs(first.weights) <= limit)
        assert np.all(first.weights.std() > 0)
        for layer in ae.encoder_layers + ae.decoder_layers:
            np.testing.assert_array_equal(layer.bias, 0.0)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            init_autoencoder(0, 2, PLAIN, seed=0)
        with pytest.raises(ValueError):
            init_autoencoder(5, 0, PLAIN, seed=0)

    def test_chain_validation(self):
        good = Layer(np.zeros((3, 2)), np.zeros(2), "linear")
        with pytest.raises(ValueError, match="chain"):
            Autoencoder((good,), (Layer(np.zeros((5, 3)), np.zeros(3), "linear"),),
                        PLAIN)
        # a variational head emits twice the decoder's input width
        plain = zero_net(PLAIN, code_dim=2)
        with pytest.raises(ValueError, match="chain"):
            Autoencoder(plain.encoder_layers, plain.decoder_layers, VAE)

    @pytest.mark.parametrize("variant", [PLAIN, SPARSE, VAE])
    def test_code_dim_is_decoder_input_width(self, variant):
        assert zero_net(variant, code_dim=3).code_dim == 3


def _masked_sigmoid(z):
    """The sigmoid as two boolean gathers and scatters, each side in its
    overflow-free form."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bytes_match_masked_form():
    """Same per-element operations as the masked form, so the same bytes,
    NaN sign bits included, and no overflow warning at +-800 or +-inf."""
    rng = np.random.default_rng(60)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
                        745.2, -745.2, 36.8, -36.8, 1e-300, -1e-300])
    for z in (special, 10.0 * rng.standard_normal(5000),
              1000.0 * rng.standard_normal((40, 6))):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            assert _sigmoid(z).tobytes() == _masked_sigmoid(z).tobytes()


class TestForward:
    def test_zero_net_maps_to_zero(self):
        ae = zero_net(PLAIN)
        code, recon = forward(ae, np.array([[1.0, -2.0, 3.0]]))
        np.testing.assert_array_equal(code, 0.0)
        np.testing.assert_array_equal(recon, 0.0)

    def test_identity_single_layer(self):
        eye = Layer(np.eye(3), np.zeros(3), "linear")
        ae = Autoencoder((eye,), (eye,), PLAIN)
        x = np.array([[0.5, -1.5, 2.0]])
        code, recon = forward(ae, x)
        np.testing.assert_array_equal(code, x)
        np.testing.assert_array_equal(recon, x)

    def test_matches_manual_layer_walk(self):
        """Oracle: re-evaluate the net with explicit numpy expressions."""
        rng = np.random.default_rng(3)
        ae = small_net(PLAIN, seed=5)
        x = rng.standard_normal((1, 6))
        a = x
        for layer in ae.encoder_layers:
            z = a @ layer.weights + layer.bias
            a = np.maximum(z, 0) if layer.activation == "relu" else z
        expected_code = a
        for layer in ae.decoder_layers:
            z = a @ layer.weights + layer.bias
            a = np.maximum(z, 0) if layer.activation == "relu" else z
        code, recon = forward(ae, x)
        np.testing.assert_allclose(code, expected_code, atol=1e-12)
        np.testing.assert_allclose(recon, a, atol=1e-12)

    def test_variational_inference_code_is_mean(self):
        ae = small_net(VAE, seed=2)
        x = np.random.default_rng(0).standard_normal((1, 6))
        code_a, _ = forward(ae, x)
        code_b, _ = forward(ae, x)
        assert code_a.shape == (1, 2)
        np.testing.assert_array_equal(code_a, code_b)

    def test_batch_rows_match_single(self):
        ae = small_net(PLAIN, seed=5)
        batch = np.random.default_rng(1).standard_normal((4, 6))
        codes, recons = forward(ae, batch)
        for i in range(4):
            (code,), (recon,) = forward(ae, batch[i:i + 1])
            np.testing.assert_allclose(codes[i], code, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(recons[i], recon, rtol=1e-12, atol=1e-15)

    def test_dimension_mismatch(self):
        ae = small_net(PLAIN)
        with pytest.raises(ValueError, match="columns"):
            forward(ae, np.zeros((1, 5)))

    def test_non_finite_intermediate(self):
        big = Layer(np.full((1, 1), 1e200), np.zeros(1), "linear")
        ae = Autoencoder((big,), (big,), PLAIN)
        with pytest.raises(ValueError, match="non-finite"):
            forward(ae, np.array([[1e200]]))


class TestEncode:
    @pytest.mark.parametrize("variant", [PLAIN, SPARSE, VAE])
    def test_codes_equal_forward_codes(self, variant):
        """The encoder alone gives forward's codes to the byte."""
        ae = small_net(variant, seed=7)
        x = np.random.default_rng(8).standard_normal((5, 6))
        assert encode(ae, x).tobytes() == forward(ae, x)[0].tobytes()

    def test_non_finite_code_named(self):
        big = Layer(np.full((1, 1), 1e200), np.zeros(1), "linear")
        ae = Autoencoder((big,), (Layer(np.ones((1, 1)), np.zeros(1), "linear"),), PLAIN)
        with pytest.raises(ValueError, match="non-finite values in encoder pass"):
            encode(ae, np.array([[1e200]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            encode(small_net(PLAIN), np.zeros((1, 5)))


class TestLoss:
    def test_zero_everything_is_zero(self):
        ae = zero_net(PLAIN)
        total, parts = loss(ae, np.zeros((4, 3)))
        assert total == 0.0
        assert parts == {"mse": 0.0, "l1": 0.0}

    def test_parts_sum_to_total(self):
        rng = np.random.default_rng(9)
        batch = rng.standard_normal((8, 6))
        for variant in (PLAIN, SPARSE, VAE):
            ae = small_net(variant, seed=4)
            total, parts = loss(ae, batch)
            np.testing.assert_allclose(total, sum(parts.values()), rtol=1e-15)

    def test_mse_is_batch_mean_of_summed_error(self):
        """Reconstruction error sums over dimensions, averages over rows."""
        ae = zero_net(PLAIN)
        batch = np.array([[1.0, 2.0, 2.0], [0.0, 0.0, 0.0]])
        total, parts = loss(ae, batch, l1_weight=0.0)
        np.testing.assert_allclose(parts["mse"], (1 + 4 + 4) / 2)
        np.testing.assert_allclose(total, parts["mse"])

    def test_sparse_penalty_closed_form_at_half(self):
        """Zero sparse net: every code unit sits at sigmoid(0) = 0.5."""
        ae = zero_net(SPARSE, code_dim=2)
        _, parts = loss(ae, np.zeros((5, 3)))
        per_unit = 0.05 * np.log(0.05 / 0.5) + 0.95 * np.log(0.95 / 0.5)
        np.testing.assert_allclose(parts["kl_sparse"], 2 * per_unit, rtol=1e-12)

    def test_sparse_penalty_zero_at_target_rate(self):
        ae = zero_net(SPARSE, code_dim=2)
        bias = np.full(2, np.log(0.05 / 0.95))
        params = parameters(ae)
        params[3] = bias  # encoder code-layer bias
        tuned = with_parameters(ae, params)
        _, parts = loss(tuned, np.zeros((5, 3)))
        np.testing.assert_allclose(parts["kl_sparse"], 0.0, atol=1e-12)

    def test_sparse_beta_scales_penalty(self):
        base = zero_net(SPARSE)
        doubled = Autoencoder(base.encoder_layers, base.decoder_layers,
                              Variant("sparse", rho=0.05, beta=2.0))
        _, parts_a = loss(base, np.zeros((5, 3)))
        _, parts_b = loss(doubled, np.zeros((5, 3)))
        np.testing.assert_allclose(parts_b["kl_sparse"], 2 * parts_a["kl_sparse"],
                                   rtol=1e-15)

    def test_sparse_saturated_rate_rejected(self):
        ae = zero_net(SPARSE, code_dim=2)
        params = parameters(ae)
        params[3] = np.full(2, -800.0)  # saturates sigmoid to exactly 0
        saturated = with_parameters(ae, params)
        with pytest.raises(ValueError, match="sparse activity rate"):
            loss(saturated, np.zeros((5, 3)))

    def test_vae_kl_zero_at_standard_posterior(self):
        """Zero net emits mean 0 and log-variance 0: KL must vanish."""
        ae = zero_net(VAE)
        _, parts = loss(ae, np.zeros((4, 3)))
        assert parts["kl_vae"] == 0.0

    def test_vae_kl_non_negative(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            ae = small_net(VAE, seed=seed)
            _, parts = loss(ae, rng.standard_normal((6, 6)))
            assert parts["kl_vae"] >= 0.0

    def test_l1_weight_scales_linearly(self):
        ae = small_net(PLAIN, seed=8)
        batch = np.random.default_rng(2).standard_normal((5, 6))
        t0, p0 = loss(ae, batch, l1_weight=0.0)
        t1, p1 = loss(ae, batch, l1_weight=1.0)
        t2, p2 = loss(ae, batch, l1_weight=2.0)
        np.testing.assert_allclose(p2["l1"], 2 * p1["l1"], rtol=1e-15)
        np.testing.assert_allclose(p0["mse"], p1["mse"])
        assert p0["l1"] == 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            loss(small_net(PLAIN), np.zeros((0, 6)))


class TestGradients:
    """Analytic gradients vs central finite differences, 1e-4 relative
    with a 1e-6 absolute floor, for every parameter of every variant."""

    def test_plain_matches_finite_differences(self):
        ae = small_net(PLAIN, seed=12)
        batch = np.random.default_rng(3).standard_normal((7, 6))
        analytic = gradients(ae, batch, l1_weight=1.0)
        oracle = finite_difference_gradients(ae, batch, l1_weight=1.0)
        assert_gradients_close(analytic, oracle)

    def test_sparse_matches_finite_differences(self):
        ae = small_net(SPARSE, seed=13)
        batch = np.random.default_rng(4).standard_normal((7, 6))
        analytic = gradients(ae, batch)
        oracle = finite_difference_gradients(ae, batch)
        assert_gradients_close(analytic, oracle)

    def test_variational_matches_finite_differences(self):
        ae = small_net(VAE, seed=14)
        rng = np.random.default_rng(5)
        batch = rng.standard_normal((7, 6))
        noise = rng.standard_normal((7, 2))
        analytic = gradients(ae, batch, noise=noise)
        oracle = finite_difference_gradients(ae, batch, noise=noise)
        assert_gradients_close(analytic, oracle)

    def test_variational_mean_mode_matches_finite_differences(self):
        ae = small_net(VAE, seed=15)
        batch = np.random.default_rng(6).standard_normal((5, 6))
        analytic = gradients(ae, batch, noise=None)
        oracle = finite_difference_gradients(ae, batch, noise=None)
        assert_gradients_close(analytic, oracle)

    @pytest.mark.parametrize("variant", [PLAIN, SPARSE, VAE], ids=lambda v: v.kind)
    def test_two_hidden_layers_match_finite_differences(self, variant):
        """Stacked ReLU layers, each with its own buffers within a pass.
        Non-zero biases keep a row that a whole ReLU layer zeroes off the
        next layer's kink."""
        rng = np.random.default_rng(9)
        ae = init_autoencoder(6, 2, variant, seed=17, hidden_dims=(5, 4))
        ae = with_parameters(ae, [p + 0.1 * rng.standard_normal(p.shape)
                                  for p in parameters(ae)])
        batch = rng.standard_normal((7, 6))
        noise = rng.standard_normal((7, 2)) if variant.kind == "variational" else None
        analytic = gradients(ae, batch, noise=noise)
        oracle = finite_difference_gradients(ae, batch, noise=noise)
        assert_gradients_close(analytic, oracle)

    def test_zero_net_zero_batch_all_zero(self):
        grads = gradients(zero_net(PLAIN), np.zeros((3, 3)))
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    def test_l1_component_linear_in_weight(self):
        ae = small_net(PLAIN, seed=16)
        batch = np.random.default_rng(7).standard_normal((5, 6))
        g0 = gradients(ae, batch, l1_weight=0.0)
        g1 = gradients(ae, batch, l1_weight=1.0)
        g2 = gradients(ae, batch, l1_weight=2.0)
        # differencing the shared reconstruction term leaves rounding noise
        # far below the 1e-3-scale penalty component
        for a, b, c in zip(g0, g1, g2):
            np.testing.assert_allclose(c - a, 2 * (b - a), atol=1e-15)

    def test_l1_subgradient_at_zero_code_is_zero(self):
        """Zero weights give an exactly-zero code; the penalty must not
        contribute there no matter the weight."""
        ae = zero_net(PLAIN)
        batch = np.random.default_rng(8).standard_normal((4, 3))
        g_on = gradients(ae, batch, l1_weight=5.0)
        g_off = gradients(ae, batch, l1_weight=0.0)
        for a, b in zip(g_on, g_off):
            np.testing.assert_array_equal(a, b)


class TestAdam:
    def test_first_step_closed_form(self):
        """Bias corrections cancel at t=1: w <- w - lr * g/(|g| + eps)."""
        params = [np.array([1.0])]
        grads = [np.array([1.0])]
        new_params, state = adam_step(params, grads, init_adam(params),
                                      learning_rate=0.001)
        expected = 1.0 - 0.001 * (1.0 / (1.0 + 1e-8))
        np.testing.assert_allclose(new_params[0], [expected], rtol=1e-12)
        assert state.step == 1

    def test_zero_gradient_leaves_parameters(self):
        params = [np.array([[1.0, -2.0]]), np.array([3.0])]
        state = init_adam(params)
        for _ in range(5):
            params, state = adam_step(params, [np.zeros((1, 2)), np.zeros(1)],
                                      state, learning_rate=0.1)
        np.testing.assert_array_equal(params[0], [[1.0, -2.0]])
        np.testing.assert_array_equal(params[1], [3.0])

    def test_deterministic_trajectory(self):
        rng = np.random.default_rng(21)
        grads_seq = [[rng.standard_normal((2, 2))] for _ in range(10)]

        def run():
            params = [np.ones((2, 2))]
            state = init_adam(params)
            for g in grads_seq:
                params, state = adam_step(params, g, state, learning_rate=0.01)
            return params[0]

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        params = [np.zeros(2)]
        with pytest.raises(ValueError):
            adam_step(params, [], init_adam(params), learning_rate=0.1)


class TestTrain:
    def test_rank_one_data_reconstructs(self):
        """Rank-1 data fits through any code width; MSE must collapse."""
        rng = np.random.default_rng(30)
        data = np.outer(rng.standard_normal(40), rng.standard_normal(6))
        ae = small_net(PLAIN, seed=31)
        initial, _ = loss(ae, data, l1_weight=0.0)
        trained, history = train(ae, data, TrainConfig(epochs=3000, l1_weight=0.0))
        final, parts = loss(trained, data, l1_weight=0.0)
        assert parts["mse"] < 0.01 * initial
        assert len(history) == 3000

    def test_zero_epochs_returns_unchanged(self):
        ae = small_net(PLAIN, seed=32)
        trained, history = train(ae, np.zeros((4, 6)), TrainConfig(epochs=0))
        assert history.size == 0
        for la, lb in zip(ae.encoder_layers + ae.decoder_layers,
                          trained.encoder_layers + trained.decoder_layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_large_l1_shrinks_code(self):
        rng = np.random.default_rng(33)
        data = rng.standard_normal((30, 6))
        ae = small_net(PLAIN, seed=34)
        free, _ = train(ae, data, TrainConfig(epochs=500, l1_weight=0.0))
        taxed, _ = train(ae, data, TrainConfig(epochs=500, l1_weight=1000.0))
        code_free, _ = forward(free, data)
        code_taxed, _ = forward(taxed, data)
        assert np.abs(code_taxed).mean() < np.abs(code_free).mean()

    def test_loss_trends_downward(self):
        """Trailing-100-epoch mean never exceeds the leading-100 mean."""
        rng = np.random.default_rng(35)
        data = rng.standard_normal((50, 6))
        for variant in (PLAIN, SPARSE, VAE):
            ae = small_net(variant, seed=36)
            _, history = train(ae, data, TrainConfig(epochs=400, seed=1))
            assert history[-100:].mean() <= history[:100].mean()

    def test_identical_seeds_identical_models(self):
        rng = np.random.default_rng(37)
        data = rng.standard_normal((20, 6))
        for variant in (PLAIN, VAE):
            a, hist_a = train(small_net(variant, seed=38), data,
                              TrainConfig(epochs=50, seed=9))
            b, hist_b = train(small_net(variant, seed=38), data,
                              TrainConfig(epochs=50, seed=9))
            np.testing.assert_array_equal(hist_a, hist_b)
            for la, lb in zip(a.encoder_layers + a.decoder_layers,
                              b.encoder_layers + b.decoder_layers):
                np.testing.assert_array_equal(la.weights, lb.weights)

    def test_divergence_raises_with_history(self):
        """Adam steps are bounded by the learning rate, so only a rate
        large enough to overflow float64 through the layer products can
        diverge; the abort must still carry the finite prefix."""
        rng = np.random.default_rng(39)
        data = rng.standard_normal((10, 6)) * 100
        ae = small_net(PLAIN, seed=40)
        with pytest.raises(TrainingDivergedError) as excinfo:
            train(ae, data, TrainConfig(epochs=200, learning_rate=1e100))
        assert excinfo.value.history.size >= 1
        assert np.all(np.isfinite(excinfo.value.history))

    @staticmethod
    def assert_matches_public_gradient_loop(ae, data, config):
        """train is gradients() plus adam_step at Adam's recommended
        constants over a parameters() list, byte for byte, with the
        variational noise drawn from the config seed; history[i] is the
        loss before step i, and the caller's data keeps its bytes."""
        data_bytes = data.tobytes()
        trained, history = train(ae, data, config)
        assert data.tobytes() == data_bytes

        rng = np.random.default_rng(config.seed)
        params = parameters(ae)
        state = init_adam(params)
        for epoch in range(config.epochs):
            noise = (rng.standard_normal((len(data), ae.code_dim))
                     if ae.variant.kind == "variational" else None)
            current = with_parameters(ae, params)
            assert history[epoch] == loss(current, data, config.l1_weight, noise)[0]
            grads = gradients(current, data, config.l1_weight, noise)
            params, state = adam_step(params, grads, state, config.learning_rate,
                                      beta1=0.9, beta2=0.999, eps=1e-8)
        assert len(history) == config.epochs
        for expected, actual in zip(params, parameters(trained), strict=True):
            assert expected.tobytes() == actual.tobytes()

    @pytest.mark.parametrize("variant", [PLAIN, SPARSE, VAE], ids=lambda v: v.kind)
    def test_matches_public_gradient_loop(self, variant):
        data = np.random.default_rng(41).standard_normal((25, 6))
        self.assert_matches_public_gradient_loop(
            small_net(variant, seed=42), data, TrainConfig(epochs=3, l1_weight=0.5, seed=13))

    @pytest.mark.parametrize("variant", [PLAIN, SPARSE, VAE], ids=lambda v: v.kind)
    def test_two_hidden_layers_match_public_gradient_loop(self, variant):
        """The same at 8 -> 16 -> 8 -> 4 and its mirror: stacked ReLU
        layers, whose buffers train reuses across epochs."""
        data = np.random.default_rng(43).standard_normal((200, 8))
        ae = init_autoencoder(8, 4, variant, seed=44, hidden_dims=(16, 8))
        self.assert_matches_public_gradient_loop(
            ae, data, TrainConfig(epochs=4, l1_weight=0.5, seed=15))

    @pytest.mark.parametrize("variant", [PLAIN, SPARSE, VAE], ids=lambda v: v.kind)
    def test_workspace_buffers_are_reused(self, variant):
        """A second pass over the same workspace, as train's next epoch,
        makes no new buffer, writes into the same arrays, and returns
        what a pass over a fresh workspace does, byte for byte."""
        rng = np.random.default_rng(45)
        ae = init_autoencoder(8, 4, variant, seed=46, hidden_dims=(16, 8))
        data = rng.standard_normal((50, 8))
        noise = rng.standard_normal((50, 4)) if variant.kind == "variational" else None
        workspace = {}
        _evaluate(ae, parameters(ae), data, 0.5, noise, workspace)
        first = dict(workspace)
        assert first
        # Other parameters, so that anything left from the first pass would show.
        params = [p + 0.1 * rng.standard_normal(p.shape) for p in parameters(ae)]
        reused = _evaluate(ae, params, data, 0.5, noise, workspace)
        assert workspace.keys() == first.keys()
        assert all(workspace[key] is array for key, array in first.items())
        fresh = _evaluate(ae, params, data, 0.5, noise, {})
        assert reused[:2] == fresh[:2]
        for left, right in zip(reused[2], fresh[2], strict=True):
            assert left.tobytes() == right.tobytes()

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train(small_net(PLAIN), np.zeros((4, 5)), TrainConfig(epochs=1))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_64_bits_rejected(self, seed):
        """Seed -1 used to fail only at fit, inside numpy, and 2**70 was
        accepted and saved."""
        with pytest.raises(ValueError, match="seed must fit in 64 unsigned bits"):
            TrainConfig(epochs=1, seed=seed)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, learning_rate=0.0)
