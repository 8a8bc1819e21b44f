"""End-to-end orchestration: detector bank, stacked transformation
layers, decision model; fitting, detection, and a checksummed binary
model container.

The master seed deterministically derives every per-layer seed, so a
model refitted on equal data with an equal config is byte-identical on
disk.
"""

import configparser
import hashlib
import json
import math
import struct
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import get_args, get_origin

import numpy as np

from .autoencoder import Autoencoder, Layer, TrainConfig, Variant
from .datasets import ProcessDataset, ScalerStats, field_text, read_ini, read_section
from .decision import DecisionModel, alarms, detection_index, fit_decision
from .detectors import (
    DetectorBank,
    DetectorBankConfig,
    MdDetector,
    PcaDetector,
    fit_detector_bank,
    input_width,
)
from .ensemble import FeatureMatrix, build_feature_matrix
from .numerics import freeze_arrays
from .transform import (
    LayerConfig,
    PcaReduction,
    TransformLayer,
    apply_layer,
    derive_seed,
    fit_layer,
)

MAGIC = b"FENETAE1"
FORMAT_VERSION = 6

DEFAULT_LAYER_TEMPLATE = LayerConfig(window_width=150, subset_size=5)


@dataclass(frozen=True)
class PipelineConfig:
    """Full fitting recipe.

    Per-layer configs come either from `layers` (one per layer) or are
    derived from `layer_template` with seeds spawned from master_seed.
    """

    bank: DetectorBankConfig = DetectorBankConfig()
    l_max: int = 2
    layer_template: LayerConfig = DEFAULT_LAYER_TEMPLATE
    layers: tuple[LayerConfig, ...] = ()
    confidence: float = 0.99
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.l_max < 0:
            raise ValueError("l_max must be non-negative")
        if self.layers and len(self.layers) != self.l_max:
            raise ValueError(
                f"{len(self.layers)} layer configs given but l_max={self.l_max}"
            )
        if not (0.0 < self.confidence < 1.0):
            raise ValueError("confidence must lie in (0, 1)")
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class DetectionSummary:
    """Detection and false-alarm rates over the scored region; a rate is
    None when its row class is absent."""

    fdr: float | None
    far: float | None
    fault_rows: int
    normal_rows: int


@dataclass(frozen=True)
class DetectionResult:
    index_values: np.ndarray
    limit: float
    flags: np.ndarray
    valid_from: int
    summary: DetectionSummary

    def __post_init__(self):
        index_values = np.array(self.index_values, dtype=np.float64)
        flags = np.array(self.flags, dtype=bool)
        if flags.shape != index_values.shape:
            raise ValueError("flags and index_values must have equal length")
        freeze_arrays(self, index_values=index_values, flags=flags)


@dataclass(frozen=True)
class FenetModel:
    bank: DetectorBank
    layers: tuple[TransformLayer, ...]
    decision: DecisionModel
    config: PipelineConfig

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))


def resolve_layer_configs(config: PipelineConfig) -> list:
    """Explicit per-layer configs, deriving seeds from the master seed
    when only a template is given."""
    if config.layers:
        return list(config.layers)
    resolved = []
    for index in range(config.l_max):
        training = replace(config.layer_template.training,
                           seed=derive_seed(config.master_seed, index, 1))
        resolved.append(replace(config.layer_template,
                                seed=derive_seed(config.master_seed, index),
                                training=training))
    return resolved


def stages(steps, train: FeatureMatrix | None = None,
           test: FeatureMatrix | None = None):
    """Walk the chain one stage at a time, yielding (layers, training
    features, test features) at every depth from the depth-0 bank features
    on. With training features each step is a LayerConfig fitted on the
    previous training stage, else a fitted TransformLayer; test features
    pass through the same layers, so each test stage is computed once, its
    window spectra while the layer trains. A side given as None yields
    None. A fit's ValueError or TrainingDivergedError is raised again with
    its layer named; the test side's errors follow it unnamed."""
    layers = ()
    yield layers, train, test
    for index, step in enumerate(steps):
        if train is not None:
            layer, train, test = fit_layer(train, step, test, f"layer {index}: ")
        else:
            layer = step
            if test is not None:
                test = apply_layer(layer, test)
        layers += (layer,)
        yield layers, train, test


def summarize(flags, labels) -> DetectionSummary:
    """Rates of alarm flags against row labels: 0 marks a normal row and a
    positive value a fault row."""
    flags = np.asarray(flags, dtype=bool)
    labels = np.asarray(labels)
    if flags.shape != labels.shape:
        raise ValueError("flags and labels must have equal length")
    if np.any(labels < 0):
        raise ValueError("labels must be non-negative")
    fault = labels > 0
    normal = ~fault
    return DetectionSummary(float(flags[fault].mean()) if fault.any() else None,
                            float(flags[normal].mean()) if normal.any() else None,
                            int(fault.sum()), int(normal.sum()))


def score(decision: DecisionModel, features: FeatureMatrix,
          test: ProcessDataset) -> DetectionResult:
    """Flag each row of a test stage against the decision and summarize
    the rates; rows before the stage's sample_offset are not scored."""
    index_values = detection_index(decision, features.values)
    flags = alarms(decision, index_values)
    valid_from = features.sample_offset
    return DetectionResult(index_values, decision.limit, flags, valid_from,
                           summarize(flags, test.labels[valid_from:]))


def fit(train: ProcessDataset, config: PipelineConfig = PipelineConfig()) -> FenetModel:
    """Fit the bank, the transformation stack, and the decision model on
    all-normal training data."""
    if train.labels.any():
        raise ValueError("training data must be all-normal (labels all zero)")
    layer_configs = resolve_layer_configs(config)

    rows = train.n_samples
    for index, layer_config in enumerate(layer_configs):
        if rows < layer_config.window_width + 1:
            raise ValueError(
                f"training too short: layer {index} needs more than "
                f"{layer_config.window_width} rows, has {rows}"
            )
        rows = rows - layer_config.window_width + 1
    if rows < 2:
        raise ValueError("training too short: fewer than 2 rows reach the decision layer")

    bank = fit_detector_bank(train, config.bank)
    for layers, features, _ in stages(layer_configs, build_feature_matrix(bank, train)):
        pass
    decision = fit_decision(features.values, config.confidence)
    return FenetModel(bank, layers, decision,
                      replace(config, layers=tuple(layer_configs)))


def detect(model: FenetModel, test: ProcessDataset) -> DetectionResult:
    """Apply the frozen chain; rows before the first full window chain
    are not scored (valid_from gives their count)."""
    expected = input_width(model.bank.detectors[0])
    if test.n_variables != expected:
        raise ValueError(
            f"test data has {test.n_variables} variables, model expects {expected}"
        )
    # Each layer's window consumes width - 1 leading rows.
    needed = 1 + sum(layer.window_width - 1 for layer in model.layers)
    if test.n_samples < needed:
        raise ValueError(f"test data has {test.n_samples} rows, model needs at least {needed}")
    for _, _, features in stages(model.layers,
                                 test=build_feature_matrix(model.bank, test)):
        pass
    return score(model.decision, features, test)


# The only types a model file can build.
_CODEC_TYPES = {cls.__name__: cls for cls in (
    FenetModel, PipelineConfig, DetectorBankConfig, LayerConfig, Variant,
    TrainConfig, DetectorBank, PcaDetector, MdDetector, ScalerStats,
    TransformLayer, PcaReduction, Autoencoder, Layer, DecisionModel,
)}


def encode(value, blob: bytearray | None = None):
    """JSON-ready form of a value built from dataclasses: each dataclass
    becomes a dict of its fields tagged with its type name, tuples become
    lists, and each array is appended to `blob` as little-endian float64
    and replaced by its shape and byte offset there (a value holding
    arrays needs a blob)."""
    if is_dataclass(value):
        node = {"type": type(value).__name__}
        node.update((f.name, encode(getattr(value, f.name), blob))
                    for f in fields(value))
        return node
    if isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value, dtype="<f8")
        node = {"type": "ndarray", "shape": list(array.shape), "offset": len(blob)}
        blob += array.tobytes()
        return node
    if isinstance(value, (tuple, list)):
        return [encode(item, blob) for item in value]
    return value


def _decode_array(node: dict, blob: bytes) -> np.ndarray:
    shape, offset = node.get("shape"), node.get("offset")
    if (not isinstance(shape, list) or type(offset) is not int or offset < 0
            or not all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError("malformed array reference")
    count = math.prod(shape)
    if offset + 8 * count > len(blob):
        raise ValueError("array extends past the data block")
    array = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
    if not np.all(np.isfinite(array)):
        raise ValueError("array holds a non-finite entry")
    return array.reshape(shape).copy()


def _typed(value, annotation):
    """A decoded value as its field's declared type; TypeError (or
    OverflowError past the float range) if it does not fit.  A field set to
    1 or 5.0 in code (beta=1, master_seed=5.0) is saved as written, so a
    float field takes any JSON number and an int field an integral one,
    loaded as int; a boolean fits neither."""
    if annotation in (int, float):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            number = float(value)
            if annotation is float:
                return value
            if number.is_integer():
                return int(value)
    elif get_origin(annotation) is tuple:
        if isinstance(value, tuple):
            return tuple(_typed(item, get_args(annotation)[0]) for item in value)
    elif isinstance(value, annotation):
        return value
    raise TypeError(type(value).__name__)


def _decode(node, blob: bytes):
    """Inverse of `encode` for the types a model file can hold; any other
    type name, an unknown field, a value of the wrong type or a bad array
    reference raises ValueError."""
    if isinstance(node, list):
        return tuple(_decode(item, blob) for item in node)
    if not isinstance(node, dict):
        return node
    kind = node.get("type")
    if kind == "ndarray":
        return _decode_array(node, blob)
    cls = _CODEC_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown type {kind!r}")
    unknown = node.keys() - {"type"} - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown field {min(unknown)!r} in {kind}")
    values = {key: _decode(value, blob) for key, value in node.items()
              if key != "type"}
    for f in fields(cls):
        if f.name in values:
            try:
                values[f.name] = _typed(values[f.name], f.type)
            except (TypeError, OverflowError):
                raise ValueError(f"field {f.name!r} of {kind} holds "
                                 f"{type(values[f.name]).__name__}") from None
    try:
        return cls(**values)
    except (TypeError, AttributeError) as error:
        raise ValueError(f"malformed {kind}: {error}") from error


def save(model: FenetModel, path) -> None:
    """Single self-describing binary: magic, version, JSON header, raw
    float64 block, trailing content checksum."""
    blob = bytearray()
    header = json.dumps(encode(model, blob), separators=(",", ":")).encode("utf-8")
    body = (MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header
            + bytes(blob))
    with open(path, "wb") as handle:
        handle.write(body)
        handle.write(hashlib.sha256(body).digest())


def load(path) -> FenetModel:
    """Checksum is verified before anything is parsed; corrupt or
    truncated files never yield a partial model."""
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < len(MAGIC) + 12 + 32 or not data.startswith(MAGIC):
        raise ValueError(f"{path}: not a model file")
    body, digest = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ValueError(f"{path}: checksum mismatch, file is corrupt or truncated")
    version, header_len = struct.unpack_from("<IQ", body, len(MAGIC))
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: model format version {version} is not readable by this "
            f"fenkit, which reads version {FORMAT_VERSION}; refit the model"
        )
    header_start = len(MAGIC) + 12
    header_end = header_start + header_len
    if header_end > len(body):
        raise ValueError(f"{path}: model header extends past the end of the file")
    try:
        header = json.loads(body[header_start:header_end].decode("utf-8"))
        model = _decode(header, body[header_end:])
    except RecursionError:
        raise ValueError(f"{path}: malformed model header: nested too deeply") from None
    except ValueError as error:
        raise ValueError(f"{path}: malformed model header: {error}") from error
    if not isinstance(model, FenetModel):
        raise ValueError(f"{path}: model header does not describe a model")
    return model


# INI key -> field per section: the class's fields less nested ones and the
# seeds derived from master_seed; [layer] also holds the variant's keys.
_INI_FIELDS = {section: {f.name: f.name for f in fields(cls) if f.name not in (
    "bank", "layer_template", "layers", "ae_variant", "training", "seed")}
    for section, cls in (("pipeline", PipelineConfig), ("detectors", DetectorBankConfig),
                         ("layer", LayerConfig), ("training", TrainConfig))}
_VARIANT_FIELDS = {"variant": "kind", "sparse_rho": "rho", "sparse_beta": "beta"}
CONFIG_SECTIONS = tuple(_INI_FIELDS)


def write_pipeline_config(config: PipelineConfig, path) -> None:
    """Sectioned key = value rendering of a template-based config; explicit
    layers that one template cannot reproduce raise ValueError (a fitted
    model's config, resolved from a template, writes)."""
    template = config.layers[0] if config.layers else config.layer_template
    sources = {"pipeline": config, "detectors": config.bank, "layer": template,
               "training": template.training}
    parser = configparser.ConfigParser()
    for section, names in _INI_FIELDS.items():
        parser[section] = {key: field_text(getattr(sources[section], field))
                           for key, field in names.items()}
    parser["layer"].update({key: field_text(getattr(template.ae_variant, field))
                            for key, field in _VARIANT_FIELDS.items()})
    if (resolve_layer_configs(pipeline_config_from_parser(parser))
            != resolve_layer_configs(config)):
        raise ValueError("a config file holds one layer template, which does "
                         "not reproduce this config's explicit layers")
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)


def read_pipeline_config(path) -> PipelineConfig:
    return pipeline_config_from_parser(read_ini(path, "config", *CONFIG_SECTIONS))


def pipeline_config_from_parser(parser: configparser.ConfigParser) -> PipelineConfig:
    """Config from already-parsed sections; absent sections and keys fall
    back to the defaults of PipelineConfig(), so embedding files may carry
    only the overrides.  [layer] holds the layer and the variant keys."""
    def read(section, target, keys=None, shared=(), **given):
        values = parser[section] if section in parser else {}
        return read_section(values, section, target, keys or _INI_FIELDS[section],
                            shared, **given)

    template = DEFAULT_LAYER_TEMPLATE
    layer = read("layer", template, shared=_VARIANT_FIELDS,
                 ae_variant=read("layer", template.ae_variant, _VARIANT_FIELDS,
                                 _INI_FIELDS["layer"]),
                 training=read("training", template.training))
    return read("pipeline", PipelineConfig(), layer_template=layer,
                bank=read("detectors", PipelineConfig().bank))
