"""Transformation-layer contracts: subset selection, window spectra
against the Gram oracle, fusion bookkeeping, PCA reduction, and the full
fit/apply cycle with its determinism and alignment guarantees."""

import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import gram_singular_values, per_subset_spectra

from fenkit import autoencoder, transform
from fenkit.autoencoder import TrainConfig, Variant
from fenkit.ensemble import FeatureMatrix
from fenkit.transform import (
    LayerConfig,
    PcaReduction,
    TransformLayer,
    apply_layer,
    build_fused_matrix,
    derive_seed,
    fit_layer,
    fit_pca_reduction,
    layer_loss,
    select_column_subsets,
    window_singular_values,
)


def feature_matrix(values, offset=0):
    return FeatureMatrix(np.asarray(values, dtype=np.float64), sample_offset=offset)


def small_config(**overrides):
    defaults = dict(
        window_width=20, subset_size=3, max_subsets=10,
        pca_variance_fraction=0.95, code_dim=4, ae_variant=Variant("plain"),
        training=TrainConfig(epochs=60, seed=5), hidden_dims=(16, 8), seed=11,
    )
    defaults.update(overrides)
    return LayerConfig(**defaults)


class TestSelectColumnSubsets:
    def test_enumerates_when_under_cap(self):
        subsets = select_column_subsets(7, 5, 30, seed=0)
        assert len(subsets) == math.comb(7, 5) == 21
        assert subsets == sorted(subsets)
        assert all(len(s) == 5 and len(set(s)) == 5 for s in subsets)

    def test_samples_exactly_cap_when_over(self):
        subsets = select_column_subsets(20, 5, 30, seed=1)
        assert len(subsets) == 30
        assert len(set(subsets)) == 30
        assert subsets == sorted(subsets)
        assert all(max(s) < 20 and min(s) >= 0 for s in subsets)

    def test_sampling_reproducible_per_seed(self):
        a = select_column_subsets(20, 5, 30, seed=2)
        b = select_column_subsets(20, 5, 30, seed=2)
        c = select_column_subsets(20, 5, 30, seed=3)
        assert a == b
        assert a != c

    def test_subset_equal_to_all_columns(self):
        assert select_column_subsets(4, 4, 10, seed=0) == [(0, 1, 2, 3)]

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            select_column_subsets(5, 0, 10, seed=0)
        with pytest.raises(ValueError):
            select_column_subsets(5, 6, 10, seed=0)
        with pytest.raises(ValueError):
            select_column_subsets(5, 2, 0, seed=0)


class TestWindowSingularValues:
    def test_orthonormal_window_gives_equal_values(self):
        """Zero-column-sum orthonormal columns survive pooled
        normalization up to one global scale, so every singular value
        equals sqrt((w*h - 1)/h)."""
        rng = np.random.default_rng(4)
        w, h = 30, 4
        raw = rng.standard_normal((w, h))
        raw -= raw.mean(axis=0)
        q, _ = np.linalg.qr(raw)
        fm = feature_matrix(q)
        values = window_singular_values(fm, q=w - 1, subset=range(h), window_width=w)
        expected = np.sqrt((w * h - 1) / h)
        np.testing.assert_allclose(values, expected, rtol=1e-10)

    def test_constant_window_gives_zeros(self):
        fm = feature_matrix(np.full((25, 3), 7.0))
        values = window_singular_values(fm, q=24, subset=(0, 1, 2), window_width=25)
        np.testing.assert_array_equal(values, 0.0)

    def test_huge_entries_keep_their_spectra(self):
        """Squared deviations of entries near 1e160 overflow the pooled
        std, which read every such window as 0/0/0; the spectra are scale
        invariant, so they must match the unscaled matrix's, silently."""
        values = np.random.default_rng(9).standard_normal((40, 3))
        reference = build_fused_matrix(feature_matrix(values), [(0, 1, 2)], 20).values
        for scale in (1e150, 1e160, 1e200, 1e300, 1e308 / np.abs(values).max()):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fused = build_fused_matrix(feature_matrix(values * scale), [(0, 1, 2)], 20)
            np.testing.assert_allclose(fused.values, reference, rtol=1e-14)

    def test_huge_rows_rescale_only_their_windows(self):
        """Windows whose std stays finite keep their bytes beside windows
        of huge entries, and a NaN still fails by name."""
        values = np.cumsum(np.random.default_rng(10).standard_normal((60, 3)), axis=0)
        reference = build_fused_matrix(feature_matrix(values), [(0, 1, 2)], 20).values
        values[50:] *= 1e200
        fused = build_fused_matrix(feature_matrix(values), [(0, 1, 2)], 20).values
        assert fused[:31].tobytes() == reference[:31].tobytes()
        assert np.all(np.isfinite(fused)) and np.all(fused[31:, 0] > 0.0)
        values[55, 1] = np.nan
        stand_in = SimpleNamespace(values=values, n_samples=60, sample_offset=0)
        with pytest.raises(ValueError, match="requires finite entries"):
            build_fused_matrix(stand_in, [(0, 1, 2)], 20)

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(5)
        fm = feature_matrix(rng.standard_normal((200, 5)))
        values = window_singular_values(fm, q=199, subset=(0, 1, 2, 3, 4),
                                        window_width=150)
        window = fm.values[50:200, :]
        pooled = (window - window.mean()) / window.std(ddof=1)
        np.testing.assert_allclose(values, gram_singular_values(pooled), rtol=1e-8)

    def test_affine_rescale_invariance(self):
        """a*W + b normalizes to the same window, so the spectra agree
        within 1e-10."""
        rng = np.random.default_rng(6)
        base = rng.standard_normal((40, 4))
        for a, b in ((2.5, 0.0), (0.3, -7.0), (1e4, 123.0)):
            fm_base = feature_matrix(base)
            fm_scaled = feature_matrix(a * base + b)
            sv_base = window_singular_values(fm_base, 39, (0, 1, 2, 3), 40)
            sv_scaled = window_singular_values(fm_scaled, 39, (0, 1, 2, 3), 40)
            np.testing.assert_allclose(sv_scaled, sv_base, rtol=1e-10)

    def test_descending_order(self):
        rng = np.random.default_rng(7)
        fm = feature_matrix(rng.standard_normal((60, 5)))
        values = window_singular_values(fm, 59, (0, 2, 4), 50)
        assert np.all(np.diff(values) <= 0)

    def test_window_bounds(self):
        fm = feature_matrix(np.random.default_rng(8).standard_normal((30, 3)))
        with pytest.raises(ValueError, match="before row 0"):
            window_singular_values(fm, 18, (0, 1), 20)
        with pytest.raises(ValueError, match="outside"):
            window_singular_values(fm, 30, (0, 1), 20)


class TestBuildFusedMatrix:
    def test_row_and_column_accounting(self):
        rng = np.random.default_rng(9)
        fm = feature_matrix(rng.standard_normal((200, 7)))
        subsets = select_column_subsets(7, 5, 30, seed=0)
        fused = build_fused_matrix(fm, subsets, window_width=150)
        assert fused.values.shape == (51, 21 * 5)
        assert fused.sample_offset == 149

    def test_rows_match_per_window_calls(self):
        rng = np.random.default_rng(10)
        fm = feature_matrix(rng.standard_normal((40, 4)))
        subsets = [(0, 1, 2), (1, 2, 3)]
        fused = build_fused_matrix(fm, subsets, window_width=20)
        for r in (0, 7, 20):
            row = np.concatenate([
                window_singular_values(fm, r + 19, s, 20) for s in subsets])
            np.testing.assert_allclose(fused.values[r], row, rtol=1e-12, atol=1e-12)

    def test_single_full_subset_reduces_to_plain_window_svd(self):
        rng = np.random.default_rng(11)
        fm = feature_matrix(rng.standard_normal((30, 3)))
        fused = build_fused_matrix(fm, [(0, 1, 2)], window_width=10)
        assert fused.values.shape == (21, 3)
        direct = window_singular_values(fm, 9, (0, 1, 2), 10)
        np.testing.assert_allclose(fused.values[0], direct, rtol=1e-12)

    def test_subset_order_permutes_column_blocks(self):
        rng = np.random.default_rng(12)
        fm = feature_matrix(rng.standard_normal((25, 4)))
        fw = build_fused_matrix(fm, [(0, 1), (2, 3)], window_width=10)
        bw = build_fused_matrix(fm, [(2, 3), (0, 1)], window_width=10)
        np.testing.assert_array_equal(fw.values[:, :2], bw.values[:, 2:])
        np.testing.assert_array_equal(fw.values[:, 2:], bw.values[:, :2])

    def test_too_few_rows(self):
        fm = feature_matrix(np.zeros((5, 2)))
        with pytest.raises(ValueError, match="window"):
            build_fused_matrix(fm, [(0, 1)], window_width=6)

    def test_offset_accumulates(self):
        fm = feature_matrix(np.random.default_rng(13).standard_normal((30, 2)),
                            offset=9)
        fused = build_fused_matrix(fm, [(0, 1)], window_width=10)
        assert fused.sample_offset == 18


class TestBlockedSpectra:
    """The spectra run in blocks of windows on a thread pool; the bytes
    equal one decomposition call over each subset's whole stack."""

    @staticmethod
    def assert_matches_reference(fm, subsets, window_width):
        fused = build_fused_matrix(fm, subsets, window_width)
        reference = per_subset_spectra(fm.values, subsets, window_width)
        assert fused.values.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("remainder", [0, 1, 2])
    def test_trailing_block_remainders(self, remainder):
        """A lone trailing window would reduce its pooled mean in another
        order than inside a stack, so it joins the block before it."""
        rng = np.random.default_rng(30)
        values = np.cumsum(rng.standard_normal((149 + 2 * transform._BLOCK_WINDOWS
                                                + remainder, 7)), axis=0) + 3.0
        values[:, 4] = 2.5
        subsets = [(0, 1, 2, 3, 4), (1, 3, 4, 5, 6), (0, 2, 4, 5, 6)]
        self.assert_matches_reference(feature_matrix(values), subsets, 150)

    @pytest.mark.parametrize("m, count", [(7, 21), (20, 30)])
    def test_deployed_shapes(self, m, count):
        rng = np.random.default_rng(31)
        fm = feature_matrix(np.cumsum(rng.standard_normal((700, m)), axis=0))
        subsets = select_column_subsets(m, 5, 30, seed=3)
        assert len(subsets) == count
        self.assert_matches_reference(fm, subsets, 150)

    def test_more_workers_than_cores(self, monkeypatch):
        """Eight workers writing their column blocks of one output under a
        short switch interval still give the reference bytes."""
        monkeypatch.setattr(transform, "_cpu_count", lambda: 8)
        rng = np.random.default_rng(33)
        fm = feature_matrix(np.cumsum(rng.standard_normal((300, 7)), axis=0))
        subsets = select_column_subsets(7, 3, 30, seed=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.assert_matches_reference(fm, subsets, 40)
        finally:
            sys.setswitchinterval(interval)

    def test_pool_closed_on_success_and_error(self):
        """No worker thread outlives the call, and a worker's error
        reaches the caller."""
        values = np.random.default_rng(32).standard_normal((60, 4))
        subsets = [(0, 1), (1, 2), (2, 3)]
        before = threading.active_count()
        build_fused_matrix(feature_matrix(values), subsets, 20)
        assert threading.active_count() == before
        values[45, 2] = np.nan
        stand_in = SimpleNamespace(values=values, n_samples=60, sample_offset=0)
        with pytest.raises(ValueError, match="requires finite entries"):
            build_fused_matrix(stand_in, subsets, 20)
        assert threading.active_count() == before

    def test_no_subsets_rejected(self):
        with pytest.raises(ValueError, match="column subset"):
            build_fused_matrix(feature_matrix(np.zeros((30, 2))), [], 10)


class TestFitPcaReduction:
    def test_exact_low_rank_keeps_three(self):
        rng = np.random.default_rng(14)
        values = rng.standard_normal((100, 3)) @ rng.standard_normal((3, 8))
        reduction, reduced = fit_pca_reduction(values, variance_fraction=0.999)
        assert reduction.projection.shape == (8, 3)
        assert reduced.shape == (100, 3)

    def test_full_fraction_keeps_numerical_rank(self):
        rng = np.random.default_rng(15)
        values = rng.standard_normal((80, 2)) @ rng.standard_normal((2, 6))
        _, reduced = fit_pca_reduction(values, variance_fraction=1.0)
        assert reduced.shape[1] == 2

    def test_variance_accounting(self):
        """Reconstruction from the retained subspace keeps at least the
        requested fraction of total variance."""
        rng = np.random.default_rng(16)
        values = rng.standard_normal((300, 6)) * np.array([5, 3, 2, 1, 0.5, 0.1])
        fraction = 0.9
        reduction, reduced = fit_pca_reduction(values, fraction)
        recon = reduced @ reduction.projection.T + reduction.mean
        total = ((values - values.mean(axis=0)) ** 2).sum()
        residual = ((values - recon) ** 2).sum()
        assert residual <= (1 - fraction) * total + 1e-9

    def test_centering_uses_column_means(self):
        rng = np.random.default_rng(17)
        values = rng.standard_normal((50, 4)) + [10, -5, 3, 0]
        reduction, reduced = fit_pca_reduction(values, 0.95)
        np.testing.assert_allclose(reduction.mean, values.mean(axis=0))
        np.testing.assert_allclose(reduced.mean(axis=0), 0.0, atol=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            fit_pca_reduction(np.full((40, 3), 2.0), 0.95)

    @pytest.mark.parametrize("shape", [(50, 4), (200, 10), (2000, 7)])
    def test_any_constant_rejected(self, shape):
        """Column means of a constant such as 3.7 round off it, which left
        one component of rounding noise; every constant fails by name."""
        for constant in (0.0, 3.7, 0.1, 1e-3, 123.456, -2.2, 1 / 3):
            with pytest.raises(ValueError, match="all columns are constant"):
                fit_pca_reduction(np.full(shape, constant), 0.95)

    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError, match="orthonormal"):
            PcaReduction(np.zeros(2), np.array([[1.0, 1.0], [0.0, 0.0]]))


class TestFitLayer:
    @staticmethod
    def layer_input(seed=18, n=120, m=5):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((n, 2)) @ rng.standard_normal((2, m))
        return feature_matrix(base + 0.2 * rng.standard_normal((n, m)))

    def test_output_shape_and_offset(self):
        fm = self.layer_input()
        config = small_config()
        layer, nxt, test_codes = fit_layer(fm, config)
        assert nxt.values.shape == (120 - 19, 4)
        assert nxt.sample_offset == 19
        assert layer.input_features == 5
        assert test_codes is None

    def test_test_record_codes_equal_apply_layer(self):
        """A test record fitted beside the layer gets apply_layer's codes
        to the byte."""
        fm, test = self.layer_input(seed=19), self.layer_input(seed=30, n=90)
        layer, _, test_codes = fit_layer(fm, small_config(), test)
        replay = apply_layer(layer, test)
        np.testing.assert_array_equal(test_codes.values, replay.values)
        assert test_codes.sample_offset == replay.sample_offset

    def test_apply_reproduces_fit_output(self):
        fm = self.layer_input(seed=19)
        config = small_config()
        layer, nxt, _ = fit_layer(fm, config)
        replay = apply_layer(layer, fm)
        np.testing.assert_array_equal(replay.values, nxt.values)
        assert replay.sample_offset == nxt.sample_offset
        _, _, summarized = layer_loss(layer, fm, config.training.l1_weight)
        np.testing.assert_array_equal(summarized.values, nxt.values)
        assert summarized.sample_offset == nxt.sample_offset

    def test_layer_outputs_run_no_decoder(self, monkeypatch):
        """fit_layer's and apply_layer's codes come from the encoder alone;
        the training epochs are the only decoder passes."""
        stacks = []
        real_run_stack = autoencoder._run_stack
        monkeypatch.setattr(autoencoder, "_run_stack", lambda layers, params, batch,
                            workspace, name: stacks.append(name)
                            or real_run_stack(layers, params, batch, workspace, name))
        fm = self.layer_input(seed=28)
        config = small_config(training=TrainConfig(epochs=3, seed=5))
        layer, _, _ = fit_layer(fm, config)
        assert stacks.count("decoder") == 3
        apply_layer(layer, fm)
        assert stacks.count("decoder") == 3

    def test_fit_is_deterministic(self):
        fm = self.layer_input(seed=20)
        layer_a, next_a, _ = fit_layer(fm, small_config())
        layer_b, next_b, _ = fit_layer(fm, small_config())
        assert layer_a.subsets == layer_b.subsets
        np.testing.assert_array_equal(layer_a.reduction.projection,
                                      layer_b.reduction.projection)
        for la, lb in zip(
                layer_a.autoencoder.encoder_layers + layer_a.autoencoder.decoder_layers,
                layer_b.autoencoder.encoder_layers + layer_b.autoencoder.decoder_layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(next_a.values, next_b.values)

    def test_different_seed_changes_sampled_subsets(self):
        fm = feature_matrix(
            np.random.default_rng(21).standard_normal((80, 10)))
        config_a = small_config(window_width=20, subset_size=4, max_subsets=5, seed=1)
        config_b = small_config(window_width=20, subset_size=4, max_subsets=5, seed=2)
        layer_a, _, _ = fit_layer(fm, config_a)
        layer_b, _, _ = fit_layer(fm, config_b)
        assert layer_a.subsets != layer_b.subsets

    def test_two_stacked_layers_row_accounting(self):
        """n_l = n - l*(w - 1) exactly."""
        fm = self.layer_input(seed=22, n=150)
        config = small_config()
        layer1, u1, _ = fit_layer(fm, config)
        config2 = small_config(subset_size=3, window_width=20)
        layer2, u2, _ = fit_layer(u1, config2)
        assert u1.n_samples == 150 - 19
        assert u2.n_samples == 150 - 2 * 19
        assert u2.sample_offset == 38

    def test_shifted_input_shifts_output(self):
        """Dropping the first s rows drops exactly the windows that
        needed them; remaining rows are bit-identical."""
        fm = self.layer_input(seed=23)
        layer, full, _ = fit_layer(fm, small_config())
        s = 7
        shifted = feature_matrix(fm.values[s:])
        replay = apply_layer(layer, shifted)
        np.testing.assert_array_equal(replay.values, full.values[s:])

    def test_window_wider_than_features_required(self):
        fm = self.layer_input()
        with pytest.raises(ValueError, match="exceed"):
            fit_layer(fm, small_config(window_width=5, subset_size=3))

    def test_subset_size_capped_by_features(self):
        fm = self.layer_input(m=4)
        with pytest.raises(ValueError, match="subset_size"):
            fit_layer(fm, small_config(subset_size=5))

    def test_apply_rejects_wrong_width(self):
        fm = self.layer_input(seed=24)
        layer, _, _ = fit_layer(fm, small_config())
        with pytest.raises(ValueError, match="columns"):
            apply_layer(layer, self.layer_input(seed=25, m=6))

    @pytest.mark.parametrize("subsets", [(), ((0, 1), ())])
    def test_layer_without_columns_rejected(self, subsets):
        """An empty subset list or subset used to load from a model file
        and then warn on the mean of an empty window in detect."""
        layer, _, _ = fit_layer(self.layer_input(seed=27), small_config())
        with pytest.raises(ValueError, match="subset"):
            replace(layer, subsets=subsets)

    def test_sparse_and_variational_variants_fit(self):
        fm = self.layer_input(seed=26)
        for kind in ("sparse", "variational"):
            config = small_config(ae_variant=Variant(kind))
            layer, nxt, _ = fit_layer(fm, config)
            assert nxt.values.shape == (101, 4)
            assert np.all(np.isfinite(nxt.values))


class TestLayerWorkingMemory:
    """The layer centres and scales a record's spectra in place; the
    spectra that build_fused_matrix returns are never written."""

    # 21 five-column subsets of 7 features: 105 spectra columns.
    CONFIG = small_config(subset_size=5, max_subsets=30, training=TrainConfig(epochs=5, seed=5))

    @staticmethod
    def layer_input(seed, n):
        return TestFitLayer.layer_input(seed, n, m=7)

    @pytest.fixture(scope="class")
    def layer(self):
        layer, _, _ = fit_layer(self.layer_input(60, 300), self.CONFIG)
        assert len(layer.subsets) == 21
        return layer

    @staticmethod
    def scaled_before_in_place(layer, fused):
        """The autoencoder inputs as the layer computed them before it
        centred and scaled in place."""
        reduced = (fused.values - layer.reduction.mean) @ layer.reduction.projection
        return reduced / layer.score_scale

    def test_apply_peak_memory(self, layer, monkeypatch):
        """On a long record apply_layer holds the spectra, the reduced
        scores and each spectra thread's blocks, as tracemalloc sees them:
        1.28 fused matrices with two threads.  A centred copy of the
        spectra (2.06 in all) breaks the bound.  Every further thread adds
        about 0.12 of blocks, so the thread count is pinned."""
        monkeypatch.setattr(transform, "_cpu_count", lambda: 2)
        record = self.layer_input(61, 5000)
        fused_bytes = 4981 * 105 * 8
        apply_layer(layer, record)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            apply_layer(layer, record)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / fused_bytes < 1.5

    def test_apply_matches_copying_path(self, layer):
        record = self.layer_input(62, 700)
        fused = build_fused_matrix(record, layer.subsets, layer.window_width)
        expected = autoencoder.encode(layer.autoencoder,
                                      self.scaled_before_in_place(layer, fused))
        assert apply_layer(layer, record).values.tobytes() == expected.tobytes()

    def test_fit_leaves_built_spectra_read_only_and_unchanged(self, monkeypatch):
        """The fit reduces build_fused_matrix's frozen values and drops
        them; neither the fit nor apply_layer writes them, and the fit's
        codes equal those of the copying path."""
        built = []
        real_build = transform.build_fused_matrix

        def recording(*args):
            fused = real_build(*args)
            built.append((fused, fused.values.tobytes()))
            return fused

        monkeypatch.setattr(transform, "build_fused_matrix", recording)
        record = self.layer_input(63, 300)
        layer, codes, _ = fit_layer(record, self.CONFIG)
        apply_layer(layer, record)
        (fused, before), = built
        assert not fused.values.flags.writeable
        assert fused.values.tobytes() == before
        expected = autoencoder.encode(layer.autoencoder,
                                      self.scaled_before_in_place(layer, fused))
        assert codes.values.tobytes() == expected.tobytes()


class TestLayerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(window_width=1)
        with pytest.raises(ValueError):
            small_config(subset_size=0)
        with pytest.raises(ValueError):
            small_config(window_width=10, subset_size=10)
        with pytest.raises(ValueError):
            small_config(max_subsets=0)
        with pytest.raises(ValueError):
            small_config(pca_variance_fraction=1.5)
        with pytest.raises(ValueError):
            small_config(code_dim=0)

    @pytest.mark.parametrize("hidden_dims", [(0,), (-3,), (16, 0), (0, 8)])
    def test_hidden_width_below_one_rejected(self, hidden_dims):
        """A zero width used to fit a model whose limit is 0.0 and which
        never alarms; a negative one failed only at fit, inside numpy."""
        with pytest.raises(ValueError, match="hidden_dims widths must be positive"):
            small_config(hidden_dims=hidden_dims)

    def test_no_hidden_layers_accepted(self):
        assert small_config(hidden_dims=()).hidden_dims == ()

    def test_derive_seed_deterministic(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert derive_seed(42, 0) != derive_seed(42, 1)
        assert derive_seed(42, 0) != derive_seed(43, 0)
