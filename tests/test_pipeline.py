"""End-to-end pipeline tests: fitting, detection, the binary model
container, and the sectioned config file."""

import hashlib
import json
import struct
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fenkit import transform
from fenkit.autoencoder import TrainConfig, TrainingDivergedError, Variant
from fenkit.datasets import SyntheticConfig, generate_synthetic
from fenkit.detectors import DetectorBankConfig
from fenkit.ensemble import FeatureMatrix, build_feature_matrix
from fenkit.pipeline import (
    DEFAULT_LAYER_TEMPLATE,
    FORMAT_VERSION,
    MAGIC,
    DetectionResult,
    DetectionSummary,
    PipelineConfig,
    detect,
    encode,
    fit,
    load,
    read_pipeline_config,
    resolve_layer_configs,
    save,
    stages,
    write_pipeline_config,
)
from fenkit.transform import LayerConfig

SMALL_TEMPLATE = LayerConfig(
    window_width=20,
    subset_size=3,
    max_subsets=10,
    code_dim=4,
    training=TrainConfig(epochs=60),
    hidden_dims=(16, 8),
)


def small_config(**overrides) -> PipelineConfig:
    settings = dict(l_max=2, layer_template=SMALL_TEMPLATE, master_seed=3)
    settings.update(overrides)
    return PipelineConfig(**settings)


def synthetic_pair(fault_type="step", amplitude=4.0, seed=42):
    config = SyntheticConfig(
        n_variables=6, n_train=160, n_test=140, fault_type=fault_type,
        fault_amplitude=amplitude, fault_channels=(1, 4), fault_onset=60,
        seed=seed,
    )
    return generate_synthetic(config).split(config.n_train)


@pytest.fixture(scope="module")
def data_pair():
    return synthetic_pair()


@pytest.fixture(scope="module")
def fitted(data_pair):
    train, _ = data_pair
    return fit(train, small_config())


@pytest.fixture(scope="module", params=["plain", "sparse", "variational"])
def variant_model(request, data_pair, fitted):
    """The small two-layer model of each autoencoder variant."""
    if request.param == "plain":
        return fitted
    template = replace(SMALL_TEMPLATE, ae_variant=Variant(request.param))
    return fit(data_pair[0], small_config(layer_template=template))


class TestPipelineConfig:
    def test_defaults(self):
        """The default recipe is two layers over the full bank."""
        config = PipelineConfig()
        assert config.l_max == 2
        assert config.layer_template == DEFAULT_LAYER_TEMPLATE
        assert config.layers == ()
        assert config.confidence == 0.99

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="l_max"):
            PipelineConfig(l_max=-1)

    def test_layer_count_must_match_depth(self):
        with pytest.raises(ValueError, match="l_max"):
            PipelineConfig(l_max=2, layers=(SMALL_TEMPLATE,))

    def test_confidence_bounds(self):
        with pytest.raises(ValueError, match="confidence"):
            PipelineConfig(confidence=1.0)

    def test_template_resolution_derives_distinct_seeds(self):
        """Each layer gets its own subset seed and training seed, all
        reproducible from the master seed."""
        config = small_config()
        first = resolve_layer_configs(config)
        second = resolve_layer_configs(config)
        assert first == second
        assert len(first) == 2
        seeds = {c.seed for c in first} | {c.training.seed for c in first}
        assert len(seeds) == 4
        other = resolve_layer_configs(small_config(master_seed=4))
        assert first[0].seed != other[0].seed

    def test_explicit_layers_pass_through(self):
        layers = (SMALL_TEMPLATE, LayerConfig(window_width=15, subset_size=2))
        config = small_config(layers=layers)
        assert resolve_layer_configs(config) == list(layers)


class TestFit:
    def test_depth_accounting(self, fitted, data_pair):
        """Each layer consumes window_width - 1 rows; the fitted chain
        reports per-layer feature widths via its stored layers."""
        assert len(fitted.layers) == 2
        assert fitted.layers[0].input_features == 7
        assert fitted.layers[1].input_features == 4
        assert fitted.decision.code_dim == 4

    def test_faulty_training_labels_rejected(self, data_pair):
        _, test = data_pair
        with pytest.raises(ValueError, match="all-normal"):
            fit(test, small_config())

    def test_too_short_training_names_layer(self):
        train, _ = synthetic_pair(fault_type="none")
        short = train.split(30)[0]
        with pytest.raises(ValueError, match="layer 1"):
            fit(short, small_config())

    def test_diverged_training_names_layer(self, data_pair):
        """A layer whose training diverges raises TrainingDivergedError
        with its index in the message and the history up to divergence."""
        train, _ = data_pair
        first, second = resolve_layer_configs(small_config())
        second = replace(second, training=replace(second.training, learning_rate=1e100))
        with pytest.raises(TrainingDivergedError,
                           match=r"^layer 1: training diverged") as excinfo:
            fit(train, small_config(layers=(first, second)))
        history = excinfo.value.history
        assert history.size >= 1
        assert np.all(np.isfinite(history))

    def test_zero_depth_skips_transform(self, data_pair):
        """l_max=0 calibrates the decision directly on the seven bank
        features."""
        train, _ = data_pair
        model = fit(train, small_config(l_max=0))
        assert model.layers == ()
        assert model.decision.code_dim == 7

    def test_refit_is_deterministic(self, data_pair, fitted):
        train, _ = data_pair
        again = fit(train, small_config())
        for left, right in zip(fitted.layers, again.layers):
            assert left.subsets == right.subsets
            for a, b in zip(left.autoencoder.encoder_layers,
                            right.autoencoder.encoder_layers):
                assert np.array_equal(a.weights, b.weights)
        assert again.decision.limit == fitted.decision.limit

    def test_master_seed_changes_weights(self, data_pair, fitted):
        train, _ = data_pair
        other = fit(train, small_config(master_seed=99))
        assert not np.array_equal(
            other.layers[0].autoencoder.encoder_layers[0].weights,
            fitted.layers[0].autoencoder.encoder_layers[0].weights,
        )

    def test_shallower_fit_is_a_prefix_of_deeper(self, data_pair, fitted):
        """Layer l depends only on the master seed and layer index, so a
        depth-1 fit reproduces the deeper model's first layer exactly."""
        train, _ = data_pair
        shallow = fit(train, small_config(l_max=1))
        assert shallow.layers[0].subsets == fitted.layers[0].subsets
        for a, b in zip(shallow.layers[0].autoencoder.encoder_layers,
                        fitted.layers[0].autoencoder.encoder_layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)


class TestStages:
    def test_two_record_walk_equals_the_frozen_chain(self, data_pair, fitted,
                                                     monkeypatch):
        """Walking the training and test records together fits fit's
        layers, and every test stage equals those layers applied to the
        test record alone, byte for byte, with seven helper threads under a
        short switch interval."""
        monkeypatch.setattr(transform, "_cpu_count", lambda: 8)
        depth0 = [build_feature_matrix(fitted.bank, data) for data in data_pair]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            walked = list(stages(fitted.config.layers, *depth0))
        finally:
            sys.setswitchinterval(interval)
        walked_blob, fitted_blob = bytearray(), bytearray()
        assert encode(walked[-1][0], walked_blob) == encode(fitted.layers, fitted_blob)
        assert walked_blob == fitted_blob
        alone = [test for _, _, test in stages(fitted.layers, test=depth0[1])]
        assert len(alone) == len(walked) == 3
        for (_, _, test), reference in zip(walked, alone):
            assert test.sample_offset == reference.sample_offset
            assert test.values.tobytes() == reference.values.tobytes()

    def test_non_finite_test_record_fails_unnamed_after_training(self):
        """A NaN in the test record surfaces the spectra's own error once
        layer 0 has trained, without the layer's name; no helper thread
        outlives the walk."""
        train = FeatureMatrix(np.random.default_rng(41).standard_normal((160, 6)))
        values = np.random.default_rng(42).standard_normal((140, 6))
        values[70, 2] = np.nan
        test = SimpleNamespace(values=values, n_samples=140, n_features=6,
                               sample_offset=0)
        walk = stages(resolve_layer_configs(small_config()), train, test)
        before = threading.active_count()
        next(walk)
        with pytest.raises(ValueError) as raised:
            next(walk)
        assert threading.active_count() == before
        assert str(raised.value) == "singular_values requires finite entries"


class TestDetect:
    def test_scored_length_and_offset(self, fitted, data_pair):
        """Two stacked width-20 windows leave n - 38 scored rows."""
        _, test = data_pair
        result = detect(fitted, test)
        assert result.valid_from == 38
        assert result.index_values.shape == (test.n_samples - 38,)
        assert result.flags.shape == result.index_values.shape
        assert result.limit == fitted.decision.limit

    def test_flags_match_limit(self, fitted, data_pair):
        _, test = data_pair
        result = detect(fitted, test)
        np.testing.assert_array_equal(
            result.flags, result.index_values > result.limit)

    def test_summary_matches_flags(self, fitted, data_pair):
        _, test = data_pair
        result = detect(fitted, test)
        labels = test.labels[result.valid_from:]
        fault = labels > 0
        assert result.summary.fault_rows == int(fault.sum())
        assert result.summary.normal_rows == int((~fault).sum())
        assert result.summary.fdr == pytest.approx(result.flags[fault].mean())
        assert result.summary.far == pytest.approx(result.flags[~fault].mean())

    def test_summary_rate_none_without_fault_rows(self, fitted, data_pair):
        train, _ = data_pair
        result = detect(fitted, train)
        assert result.summary.fdr is None
        assert result.summary.fault_rows == 0
        assert result.summary.far is not None

    def test_detects_large_step(self, data_pair):
        """The direct bank index flags a 4-sigma step almost everywhere,
        with a quiet pre-onset region. Stacked layers need full-width
        windows for reliable detection, so depth 0 carries this check."""
        train, test = data_pair
        model = fit(train, small_config(l_max=0))
        result = detect(model, test)
        assert result.flags[-40:].mean() > 0.9
        assert result.summary.far < 0.3

    def test_variable_count_mismatch(self, fitted):
        wrong = generate_synthetic(
            SyntheticConfig(n_variables=5, n_train=60, n_test=20, seed=1))
        with pytest.raises(ValueError, match="5 variables"):
            detect(fitted, wrong)

    def test_record_shorter_than_the_windows_rejected(self, fitted, data_pair):
        """Two width-20 windows need 1 + 19 + 19 = 39 rows; detect names
        the record's row count and that need before the bank scores."""
        _, test = data_pair
        with pytest.raises(ValueError, match="38 rows, model needs at least 39"):
            detect(fitted, test.split(38)[0])
        result = detect(fitted, test.split(39)[0])
        assert result.valid_from == 38
        assert result.index_values.shape == (1,)

    def test_zero_depth_scores_every_row(self, data_pair):
        train, test = data_pair
        model = fit(train, small_config(l_max=0))
        result = detect(model, test)
        assert result.valid_from == 0
        assert result.index_values.shape == (test.n_samples,)

    def test_detection_is_frozen(self, fitted, data_pair):
        """Repeated detection on the same data is bit-identical."""
        _, test = data_pair
        first = detect(fitted, test)
        second = detect(fitted, test)
        np.testing.assert_array_equal(first.index_values, second.index_values)
        np.testing.assert_array_equal(first.flags, second.flags)


EMPTY_ARRAY = '{"type": "ndarray", "shape": [0], "offset": 0}'
# Arrays of the single 1.0 in the data block that write_header appends.
ONE = '{"type": "ndarray", "shape": [1], "offset": 0}'
ONE_BY_ONE = '{"type": "ndarray", "shape": [1, 1], "offset": 0}'
MD1_BANK = ('{"type": "DetectorBank", "detectors": '
            '[{"type": "MdDetector", "variant": "MD1", "mean": %s, '
            '"inverse_covariance": %s, "scaler": {"type": "ScalerStats", '
            '"mean": %s, "std": %s}}]}' % (ONE, ONE_BY_ONE, ONE, ONE))


def model_header(bank=MD1_BANK, layers="[]", config='{"type": "PipelineConfig"}') -> str:
    """Header of a depth-0 FenetModel over one variable: an MD1 bank and
    a decision whose arrays all read the data block's 1.0."""
    decision = ('{"type": "DecisionModel", "scaler": {"type": "ScalerStats", "mean": %s, '
                '"std": %s}, "limit": 0.0}' % (ONE, ONE))
    return ('{"type": "FenetModel", "bank": %s, "layers": %s, "decision": %s, '
            '"config": %s}' % (bank, layers, decision, config))


def write_header(path, header: str, extra_length: int = 0) -> None:
    """Checksum-valid model file holding the header and a data block of
    one float64 1.0."""
    header_bytes = header.encode("utf-8")
    body = (MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header_bytes) + extra_length)
            + header_bytes + struct.pack("<d", 1.0))
    path.write_bytes(body + hashlib.sha256(body).digest())


def rewrite_model(path, edit) -> None:
    """Re-checksum a saved model after edit(header, data) changed its
    decoded JSON header or its bytearray data block in place."""
    body = path.read_bytes()[:-32]
    (header_len,) = struct.unpack_from("<Q", body, len(MAGIC) + 4)
    start = len(MAGIC) + 12
    header = json.loads(body[start:start + header_len])
    data = bytearray(body[start + header_len:])
    edit(header, data)
    header_bytes = json.dumps(header).encode("utf-8")
    body = (MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header_bytes))
            + header_bytes + bytes(data))
    path.write_bytes(body + hashlib.sha256(body).digest())


def poke_inf(array_node: dict, data: bytearray) -> None:
    """Overwrite the first entry of a stored array with +inf."""
    struct.pack_into("<d", data, array_node["offset"], np.inf)


def typed_nodes(node):
    """Every dataclass node of a decoded header, with its type name."""
    if isinstance(node, dict):
        if "type" in node:
            yield node["type"], node
        for child in node.values():
            yield from typed_nodes(child)
    elif isinstance(node, list):
        for child in node:
            yield from typed_nodes(child)


class TestModelFile:
    def test_round_trip_detection_is_bit_identical(self, variant_model, data_pair,
                                                   tmp_path):
        _, test = data_pair
        path = tmp_path / "model.fenet"
        save(variant_model, path)
        restored = load(path)
        original = detect(variant_model, test)
        replayed = detect(restored, test)
        np.testing.assert_array_equal(original.index_values,
                                      replayed.index_values)
        np.testing.assert_array_equal(original.flags, replayed.flags)
        assert replayed.valid_from == original.valid_from

    def test_save_is_deterministic(self, variant_model, tmp_path):
        """Saving the same fit twice, and saving a reloaded model, all
        produce byte-identical files."""
        first = tmp_path / "a.fenet"
        second = tmp_path / "b.fenet"
        third = tmp_path / "c.fenet"
        save(variant_model, first)
        save(variant_model, second)
        save(load(first), third)
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes() == third.read_bytes()

    def test_refit_writes_identical_bytes(self, data_pair, fitted, tmp_path):
        train, _ = data_pair
        again = fit(train, small_config())
        first = tmp_path / "a.fenet"
        second = tmp_path / "b.fenet"
        save(fitted, first)
        save(again, second)
        assert first.read_bytes() == second.read_bytes()

    def test_restored_config_round_trips(self, fitted, tmp_path):
        """The loaded model carries explicit per-layer configs equal to
        the resolved originals."""
        path = tmp_path / "model.fenet"
        save(fitted, path)
        restored = load(path)
        assert restored.config.layers == tuple(
            resolve_layer_configs(fitted.config))
        assert restored.config.bank == fitted.config.bank
        assert restored.config.master_seed == fitted.config.master_seed

    def test_corrupt_byte_rejected(self, fitted, tmp_path):
        path = tmp_path / "model.fenet"
        save(fitted, path)
        data = bytearray(path.read_bytes())
        index = len(data) // 2
        data[index] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="checksum"):
            load(path)

    def test_truncated_file_rejected(self, fitted, tmp_path):
        path = tmp_path / "model.fenet"
        save(fitted, path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ValueError, match="checksum"):
            load(path)

    def test_wrong_magic_rejected(self, fitted, tmp_path):
        path = tmp_path / "model.fenet"
        save(fitted, path)
        data = path.read_bytes()
        path.write_bytes(b"NOTMODEL" + data[8:])
        with pytest.raises(ValueError, match="not a model file"):
            load(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "model.fenet"
        path.write_bytes(MAGIC)
        with pytest.raises(ValueError, match="not a model file"):
            load(path)

    def test_future_version_rejected(self, fitted, tmp_path):
        """A file from a newer format fails with an explicit version
        message, not a parse error."""
        path = tmp_path / "model.fenet"
        save(fitted, path)
        body = bytearray(path.read_bytes()[:-32])
        struct.pack_into("<I", body, len(MAGIC), FORMAT_VERSION + 1)
        tampered = bytes(body)
        path.write_bytes(tampered + hashlib.sha256(tampered).digest())
        with pytest.raises(ValueError, match=f"version {FORMAT_VERSION + 1}"):
            load(path)

    def test_old_version_asks_for_refit(self, fitted, tmp_path):
        """Files of versions 1 to 5 are not read; the message names the
        version and says to refit."""
        path = tmp_path / "model.fenet"
        save(fitted, path)
        for version in (1, 2, 3, 4, 5):
            body = bytearray(path.read_bytes()[:-32])
            struct.pack_into("<I", body, len(MAGIC), version)
            path.write_bytes(bytes(body) + hashlib.sha256(body).digest())
            with pytest.raises(ValueError, match=f"version {version} .*refit"):
                load(path)

    @pytest.mark.parametrize("header, extra_length, message", [
        pytest.param(model_header(bank="5"), 0, "'bank' of FenetModel holds int",
                     id="bank-not-a-bank"),
        pytest.param(model_header(bank='{"type": "DetectorBank", "detectors": []}'), 0,
                     "bank needs at least one detector", id="empty-bank"),
        pytest.param(model_header(layers="[5]"), 0,
                     "'layers' of FenetModel holds tuple", id="layer-not-a-layer"),
        pytest.param(model_header(bank=(
            '{"type": "DetectorBank", "detectors": [{"type": "PcaDetector", '
            '"projection": %s, '
            '"retained_eigenvalues": %s, "scaler": {"type": "ScalerStats", '
            '"mean": %s, "std": %s}, "lags": 1.5}]}'
            % ((EMPTY_ARRAY,) * 4))), 0, "'lags' of PcaDetector holds float",
            id="lags-not-an-int"),
        pytest.param(model_header(config='{"type": "PipelineConfig", "master_seed": true}'),
                     0, "'master_seed' of PipelineConfig holds bool",
                     id="bool-in-int-field"),
        pytest.param("{}", 0, "unknown type None", id="empty-object"),
        pytest.param('{"bank": {}}', 0, "unknown type None", id="untyped"),
        pytest.param("[]", 0, "does not describe a model", id="list"),
        pytest.param('"x"', 0, "does not describe a model", id="string"),
        pytest.param("{}", 100, "past the end of the file", id="long-header"),
        pytest.param('{"type": "Popen"}', 0, "unknown type 'Popen'",
                     id="unknown-type"),
        pytest.param('{"type": "Variant", "kind": "plain", "extra": 1}', 0,
                     "unknown field 'extra'", id="unknown-field"),
        pytest.param('{"type": "Layer"}', 0, "malformed Layer",
                     id="missing-fields"),
        pytest.param('{"type": "ScalerStats", "mean": {"type": "ndarray", '
                     '"shape": [-1], "offset": 0}, "std": []}', 0,
                     "malformed array reference", id="negative-shape"),
        pytest.param('{"type": "ScalerStats", "mean": {"type": "ndarray", '
                     '"shape": [4], "offset": 0}, "std": []}', 0,
                     "past the data block", id="array-past-data"),
        pytest.param(model_header().replace('"limit": 0.0', '"limit": 0.0, "confidence": 0.99'),
                     0, "unknown field 'confidence' in DecisionModel",
                     id="v2-decision-confidence"),
        pytest.param(model_header().replace('"limit": 0.0', '"norm_order": 1, "limit": 0.0'),
                     0, "unknown field 'norm_order' in DecisionModel",
                     id="v5-decision-norm-order"),
        pytest.param(model_header(config='{"type": "PipelineConfig", "norm_order": 1}'),
                     0, "unknown field 'norm_order' in PipelineConfig",
                     id="v5-config-norm-order"),
        pytest.param('{"type": "TrainConfig", "epochs": 1, "beta1": 0.9}', 0,
                     "unknown field 'beta1' in TrainConfig", id="v5-train-beta1"),
        pytest.param('{"type": "TrainConfig", "epochs": 1, "seed": -1}', 0,
                     "seed must fit in 64 unsigned bits", id="negative-train-seed"),
        pytest.param(model_header()[:-1] + ', "format_version": 2}', 0,
                     "unknown field 'format_version' in FenetModel",
                     id="v2-format-version"),
        pytest.param(model_header(bank=MD1_BANK.replace(
            '"detectors"', '"feature_names": ["md1"], "detectors"')), 0,
            "unknown field 'feature_names' in DetectorBank", id="v3-feature-names"),
        pytest.param(model_header(bank=(
            '{"type": "DetectorBank", "detectors": [{"type": "PcaDetector", '
            '"projection": %s, '
            '"retained_eigenvalues": %s, "scaler": {"type": "ScalerStats", '
            '"mean": %s, "std": %s}, "t": 0, "lags": 0}]}'
            % ((EMPTY_ARRAY,) * 4))), 0, "unknown field 't' in PcaDetector",
            id="v2-pca-t"),
        pytest.param(model_header(bank=(
            '{"type": "DetectorBank", "detectors": [{"type": "KpcaDetector"}]}')), 0,
            "unknown type 'KpcaDetector'", id="kpca-in-bank"),
        pytest.param(model_header().replace('"limit": 0.0', '"limit": NaN'), 0,
                     "limit must be finite", id="nan-limit"),
        pytest.param(model_header().replace('"limit": 0.0', '"limit": 1' + "0" * 400), 0,
                     "'limit' of DecisionModel holds int", id="limit-past-float-range"),
        pytest.param("[" * 5000 + "]" * 5000, 0, "nested too deeply",
                     id="deep-nesting"),
    ])
    def test_malformed_header_rejected(self, tmp_path, header, extra_length,
                                       message):
        """Checksum-valid files whose header is malformed fail with a
        named ValueError, never a KeyError or TypeError."""
        path = tmp_path / "model.fenet"
        write_header(path, header, extra_length)
        with pytest.raises(ValueError, match=message):
            load(path)

    def test_header_stores_each_fact_once(self, variant_model, tmp_path):
        """A layer keeps its window width but not its LayerConfig, which
        lives only in the model's config; the autoencoder's code width is
        its decoder's input width; the decision's mean and std are its
        ScalerStats; the fixed norm order and Adam constants are stored
        nowhere."""
        path = tmp_path / "model.fenet"
        save(variant_model, path)
        headers = []
        rewrite_model(path, lambda header, data: headers.append(header))
        nodes = list(typed_nodes(headers[0]))
        layers = [node for kind, node in nodes if kind == "TransformLayer"]
        assert len(layers) == 2
        for layer, config in zip(layers, variant_model.config.layers):
            assert layer["window_width"] == config.window_width
            assert "LayerConfig" not in {kind for kind, _ in typed_nodes(layer)}
        assert all("code_dim" not in node for kind, node in nodes if kind == "Autoencoder")
        (decision,) = [node for kind, node in nodes if kind == "DecisionModel"]
        assert set(decision) == {"type", "scaler", "limit"}
        assert decision["scaler"]["type"] == "ScalerStats"
        (config,) = [node for kind, node in nodes if kind == "PipelineConfig"]
        assert set(config) == {"type", "bank", "l_max", "layer_template", "layers",
                               "confidence", "master_seed"}
        trainings = [node for kind, node in nodes if kind == "TrainConfig"]
        assert len(trainings) == 3
        assert all(set(node) == {"type", "epochs", "learning_rate", "l1_weight", "seed"}
                   for node in trainings)

    @pytest.mark.parametrize("locate", [
        pytest.param(lambda header: header["bank"]["detectors"][0]["scaler"]["std"],
                     id="bank-scaler-std"),
        pytest.param(lambda header: header["layers"][0]["score_scale"],
                     id="layer-score-scale"),
    ])
    def test_non_finite_array_rejected(self, fitted, tmp_path, locate):
        """An inf in any stored array fails at load, whichever class
        would hold it."""
        path = tmp_path / "model.fenet"
        save(fitted, path)
        rewrite_model(path, lambda header, data: poke_inf(locate(header), data))
        with pytest.raises(ValueError, match="non-finite"):
            load(path)

    def test_window_not_wider_than_inputs_rejected(self, fitted, tmp_path):
        path = tmp_path / "model.fenet"
        save(fitted, path)

        def narrow(header, data):
            layer = header["layers"][1]
            layer["window_width"] = layer["input_features"]

        rewrite_model(path, narrow)
        with pytest.raises(ValueError, match="window_width 4 must exceed the 4 input"):
            load(path)

    def test_numbers_load_into_int_and_float_fields(self, tmp_path):
        """Variant("sparse", beta=1) is saved with the JSON integer 1 and
        master_seed=5.0 with the JSON float 5.0; both load back equal, the
        seed as an int."""
        variant = Variant("sparse", beta=1)
        template = replace(DEFAULT_LAYER_TEMPLATE, ae_variant=variant)
        path = tmp_path / "model.fenet"
        write_header(path, model_header(
            config='{"type": "PipelineConfig", "master_seed": 5.0, "layer_template": %s}'
            % json.dumps(encode(template))))
        config = load(path).config
        assert config.layer_template.ae_variant == variant
        assert config.master_seed == 5 and isinstance(config.master_seed, int)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        """Writing and re-reading a template-based config preserves every
        semantic field."""
        config = PipelineConfig(
            bank=DetectorBankConfig(members=("pca", "md1"),
                                    pca_variance_fraction=0.8, dpca_lags=3),
            l_max=1,
            layer_template=LayerConfig(
                window_width=25, subset_size=2, max_subsets=5,
                pca_variance_fraction=0.9, code_dim=3,
                ae_variant=Variant("sparse", rho=0.1, beta=2.0),
                training=TrainConfig(epochs=10, learning_rate=0.01),
                hidden_dims=(8,),
            ),
            confidence=0.95, master_seed=17,
        )
        path = tmp_path / "pipeline.ini"
        write_pipeline_config(config, path)
        assert read_pipeline_config(path) == config

    def test_defaults_round_trip(self, tmp_path):
        path = tmp_path / "pipeline.ini"
        write_pipeline_config(PipelineConfig(), path)
        assert read_pipeline_config(path) == PipelineConfig()

    def test_empty_sections_read_as_defaults(self, tmp_path):
        """Every absent key falls back to the PipelineConfig() default."""
        path = tmp_path / "pipeline.ini"
        path.write_text("[pipeline]\n[detectors]\n[layer]\n[training]\n")
        assert read_pipeline_config(path) == PipelineConfig()

    @pytest.mark.parametrize("section, key", [
        ("pipeline", "lmax"), ("detectors", "member"), ("layer", "window"),
        ("layer", "sparse_rh"), ("training", "epoch"), ("pipeline", "norm_order"),
        ("training", "beta1"), ("training", "beta2"), ("training", "eps_adam"),
    ])
    def test_unknown_key_rejected(self, tmp_path, section, key):
        """A mistyped key fails by name instead of leaving its field at the
        default ([training] epoch = 5 used to train 2000 epochs), and so do
        the keys of the fixed norm order and Adam constants that older
        files hold."""
        path = tmp_path / "pipeline.ini"
        write_pipeline_config(PipelineConfig(), path)
        text = path.read_text().replace(f"[{section}]\n", f"[{section}]\n{key} = 5\n")
        path.write_text(text)
        with pytest.raises(ValueError, match=f"\\[{section}\\]: unknown key '{key}'"):
            read_pipeline_config(path)

    @pytest.mark.parametrize("section", ["detector", "grid", "synthetic"])
    def test_unknown_section_rejected(self, tmp_path, section):
        """[detector] dpca_lags = 0 used to be skipped, leaving dpca_lags
        at 2; a config file holds only the four pipeline sections."""
        path = tmp_path / "pipeline.ini"
        write_pipeline_config(PipelineConfig(), path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(f"[{section}]\ndpca_lags = 0\n")
        with pytest.raises(ValueError, match=f"unknown section \\[{section}\\]"):
            read_pipeline_config(path)

    def test_unreadable_value_names_key(self, tmp_path):
        path = tmp_path / "pipeline.ini"
        path.write_text("[pipeline]\n[detectors]\n[layer]\nhidden_dims = 8 x\n[training]\n")
        with pytest.raises(ValueError, match="hidden_dims = '8 x'"):
            read_pipeline_config(path)

    def test_zero_hidden_width_rejected(self, tmp_path):
        path = tmp_path / "pipeline.ini"
        path.write_text("[pipeline]\n[detectors]\n[layer]\nhidden_dims = 0\n[training]\n")
        with pytest.raises(ValueError, match="hidden_dims widths must be positive"):
            read_pipeline_config(path)

    def test_fitted_model_config_writes(self, tmp_path):
        """A fitted model stores its resolved layers; they come from one
        template, so the config writes and reads back to the same layers."""
        train, _ = synthetic_pair()
        config = small_config(l_max=1, layer_template=replace(
            SMALL_TEMPLATE, training=TrainConfig(epochs=2)))
        model = fit(train, config)
        path = tmp_path / "pipeline.ini"
        write_pipeline_config(model.config, path)
        assert read_pipeline_config(path) == config
        assert resolve_layer_configs(read_pipeline_config(path)) \
            == list(model.config.layers)

    def test_explicit_layers_beyond_one_template_rejected(self, tmp_path):
        """Two layers that differ in width and L1 weight cannot be written as
        one template; the file would read back as a different config."""
        second = replace(SMALL_TEMPLATE, code_dim=6, seed=1,
                         training=TrainConfig(epochs=60, l1_weight=0.1))
        config = small_config(layers=(SMALL_TEMPLATE, second))
        path = tmp_path / "pipeline.ini"
        with pytest.raises(ValueError, match="one layer template"):
            write_pipeline_config(config, path)
        assert not path.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_pipeline_config(tmp_path / "absent.ini")

    def test_missing_section(self, tmp_path):
        path = tmp_path / "pipeline.ini"
        path.write_text("[pipeline]\nl_max = 1\n")
        with pytest.raises(ValueError, match="detectors"):
            read_pipeline_config(path)


class TestResultTypes:
    def test_flag_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            DetectionResult(np.zeros(4), 1.0, np.zeros(3, dtype=bool), 0,
                            DetectionSummary(None, 0.0, 0, 3))

    def test_arrays_read_only(self):
        result = DetectionResult(np.zeros(3), 1.0, np.zeros(3, dtype=bool), 0,
                                 DetectionSummary(None, 0.0, 0, 3))
        with pytest.raises(ValueError):
            result.index_values[0] = 5.0
