"""Property tests for fenkit's files and window spectra: generated
configs, recipes and report cells survive a write/read round trip, any
unknown key in any section is rejected by name, a checksum-valid model
file with a mutated header loads or raises ValueError, a CSV export with
malformed rows loads or raises ValueError naming a line, constant,
collinear and rank-deficient windows give finite spectra, zero where a
window is constant, and such codes give a finite PCA reduction and
decision or raise ValueError."""

import configparser
import copy
import functools
import hashlib
import json
import re
import string
import struct
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import numpy_normalized, per_subset_spectra

from fenkit import transform
from fenkit.autoencoder import VARIANT_KINDS, TrainConfig, Variant
from fenkit.datasets import (
    FAULT_TYPES,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    read_synthetic_config,
    write_sidecar,
)
from fenkit.decision import detection_index, fit_decision
from fenkit.detectors import BANK_MEMBERS, DetectorBankConfig
from fenkit.evaluation import (
    ExperimentReport,
    ReportCell,
    read_grid,
    read_report_csv,
    write_report,
)
from fenkit.pipeline import (
    FORMAT_VERSION,
    MAGIC,
    FenetModel,
    PipelineConfig,
    detect,
    fit,
    load,
    read_pipeline_config,
    resolve_layer_configs,
    save,
    write_pipeline_config,
)
from fenkit.ensemble import FeatureMatrix
from fenkit.transform import LayerConfig, build_fused_matrix, fit_pca_reduction

SETTINGS = settings(max_examples=25, derandomize=True, deadline=None)

SEEDS = st.integers(0, 2**64 - 1)
COUNTS = st.integers(1, 10_000)


def unit_interval(closed_top=True):
    """Floats in (0, 1] or (0, 1)."""
    return st.floats(0.0, 1.0, exclude_min=True, exclude_max=not closed_top)


def positive_floats():
    return st.floats(0.0, 1e6, exclude_min=True)


@st.composite
def layer_templates(draw):
    subset_size = draw(st.integers(1, 50))
    variant = Variant(draw(st.sampled_from(VARIANT_KINDS)),
                      rho=draw(unit_interval(closed_top=False)),
                      beta=draw(st.floats(0.0, 1e6)))
    training = TrainConfig(
        epochs=draw(st.integers(0, 10_000)), learning_rate=draw(positive_floats()),
        l1_weight=draw(st.floats(0.0, 1e6)))
    return LayerConfig(
        window_width=draw(st.integers(subset_size + 1, 500)), subset_size=subset_size,
        max_subsets=draw(COUNTS), pca_variance_fraction=draw(unit_interval()),
        code_dim=draw(COUNTS), ae_variant=variant, training=training,
        hidden_dims=tuple(draw(st.lists(COUNTS, max_size=4))))


@st.composite
def template_configs(draw):
    bank = DetectorBankConfig(
        members=tuple(draw(st.lists(st.sampled_from(BANK_MEMBERS), min_size=1,
                                    max_size=6))),
        pca_variance_fraction=draw(unit_interval()),
        md2_variance_fraction=draw(unit_interval()),
        dpca_lags=draw(st.integers(0, 20)))
    return PipelineConfig(
        bank=bank, l_max=draw(st.integers(0, 4)), layer_template=draw(layer_templates()),
        confidence=draw(unit_interval(closed_top=False)), master_seed=draw(SEEDS))


@st.composite
def synthetic_configs(draw):
    n_variables = draw(st.integers(1, 50))
    n_test = draw(COUNTS)
    fault_type = draw(st.sampled_from(FAULT_TYPES))
    channels = draw(st.lists(st.integers(0, n_variables - 1),
                             min_size=0 if fault_type == "none" else 1, max_size=5))
    return SyntheticConfig(
        n_variables=n_variables, n_train=draw(COUNTS), n_test=n_test,
        fault_type=fault_type,
        fault_amplitude=draw(st.floats(allow_nan=False, allow_infinity=False)),
        fault_channels=tuple(channels), fault_onset=draw(st.integers(0, n_test - 1)),
        seed=draw(SEEDS))


def optional(strategy):
    return st.none() | strategy


# Cell text may hold anything an error message can: commas, quotes, line
# breaks.  An empty error means no error, so it is drawn as None.
CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\x00"), max_size=20)

report_cells = st.builds(
    ReportCell,
    scenario=CELL_TEXT, method=CELL_TEXT, l_max=optional(st.integers(0, 10)),
    fdr=optional(st.floats(0.0, 1.0)), far=optional(st.floats(0.0, 1.0)),
    excluded_rows=st.integers(0, 10**6), scenario_seed=optional(SEEDS),
    error=optional(CELL_TEXT.filter(bool)))


class TestRoundTrips:
    @SETTINGS
    @given(template_configs())
    def test_pipeline_config(self, config):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "pipeline.ini"
            write_pipeline_config(config, path)
            assert read_pipeline_config(path) == config

    @SETTINGS
    @given(template_configs())
    def test_resolved_layers_write_as_their_template(self, config):
        """The explicit layers a fit stores write as one template again."""
        resolved = replace(config, layers=tuple(resolve_layer_configs(config)))
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "pipeline.ini"
            write_pipeline_config(resolved, path)
            assert read_pipeline_config(path) == config

    @SETTINGS
    @given(synthetic_configs())
    def test_sidecar(self, config):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "synthetic.ini"
            write_sidecar(config, path)
            assert read_synthetic_config(path) == config

    @SETTINGS
    @given(st.lists(report_cells, min_size=1, max_size=5), SEEDS,
           st.text(string.hexdigits.lower(), min_size=12, max_size=12))
    def test_report(self, cells, master_seed, config_hash):
        report = ExperimentReport(tuple(cells), config_hash, master_seed, 1.5)
        with tempfile.TemporaryDirectory() as root:
            _, csv_path = write_report(report, root)
            assert read_report_csv(csv_path) == replace(report, seconds=0.0)


GRID_TEXT = """
[grid]
methods = md1
[pipeline]
[detectors]
[layer]
[training]
[scenario:synthetic]
n_variables = 3
n_train = 40
n_test = 20
[scenario:files]
train = a.csv
test = b.csv
"""


def _known_keys() -> dict:
    """Every key each grid-file section takes, the pipeline and recipe keys
    as the writers list them."""
    with tempfile.TemporaryDirectory() as root:
        write_pipeline_config(PipelineConfig(), Path(root) / "pipeline.ini")
        write_sidecar(SyntheticConfig(1, 1, 1), Path(root) / "synthetic.ini")
        parser = configparser.ConfigParser()
        parser.read([Path(root) / "pipeline.ini", Path(root) / "synthetic.ini"])
    known = {section: set(parser[section]) for section in parser.sections()}
    known["grid"] = {"methods", "depths"}
    known["scenario:files"] = {"train", "test", "onset"}
    # train or test turns a scenario section into a file scenario.
    known["scenario:synthetic"] = known["synthetic"] | known["scenario:files"]
    return known


KNOWN_KEYS = _known_keys()
KEYS = st.text(string.ascii_lowercase + string.digits + "_", min_size=1, max_size=12)


def _rejected(read, path, section, key):
    with pytest.raises(ValueError, match=re.escape(f"[{section}]: unknown key {key!r}")):
        read(path)


class TestUnknownKeys:
    @SETTINGS
    @given(st.sampled_from(["grid", "pipeline", "detectors", "layer", "training",
                            "scenario:synthetic", "scenario:files"]), KEYS)
    def test_grid_file(self, section, key):
        assume(key not in KNOWN_KEYS[section])
        parser = configparser.ConfigParser()
        parser.read_string(GRID_TEXT)
        parser[section][key] = "1"
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "grid.ini"
            with open(path, "w", encoding="utf-8") as handle:
                parser.write(handle)
            _rejected(read_grid, path, section, key)

    @SETTINGS
    @given(KEYS)
    def test_recipe(self, key):
        assume(key not in KNOWN_KEYS["synthetic"])
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "recipe.ini"
            write_sidecar(SyntheticConfig(3, 40, 20), path)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(f"{key} = 1\n")
            _rejected(read_synthetic_config, path, "synthetic", key)


@functools.cache
def _tiny_model_file() -> tuple:
    """(header, data block) of a one-layer model fitted on 120 rows."""
    train, _ = generate_synthetic(SyntheticConfig(4, 120, 10, seed=5)).split(120)
    template = LayerConfig(window_width=12, subset_size=2, max_subsets=3, code_dim=2,
                           training=TrainConfig(epochs=3), hidden_dims=(4,))
    model = fit(train, PipelineConfig(l_max=1, layer_template=template))
    with tempfile.TemporaryDirectory() as root:
        save(model, Path(root) / "model.fenet")
        body = (Path(root) / "model.fenet").read_bytes()[:-32]
    (header_len,) = struct.unpack_from("<Q", body, len(MAGIC) + 4)
    start = len(MAGIC) + 12
    return json.loads(body[start:start + header_len]), body[start + header_len:]


@functools.cache
def _tiny_record():
    """A 40-row record of the tiny model's 4 variables."""
    return generate_synthetic(SyntheticConfig(4, 120, 40, seed=6)).split(120)[1]


def _containers(node):
    """Every object and array in a decoded header, the root first."""
    if isinstance(node, (dict, list)):
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            yield from _containers(child)


def _json_values(header):
    """Any JSON value, NaN and infinities included (Python's json reads
    them), or a well-formed piece of the header moved to where it does not
    belong."""
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    return st.recursive(
        scalars, lambda inner: (st.lists(inner, max_size=3)
                                | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
        max_leaves=6) | st.sampled_from(list(_containers(header))).map(copy.deepcopy)


class TestModelHeader:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.data())
    def test_mutated_header_loads_or_raises_value_error(self, data):
        """Drop a field, add one, replace a value or rename a type anywhere
        in a fitted model's header, re-checksum the file: it loads as a
        model that detects a small record to finite indices, or load or
        detect raises ValueError."""
        original, blob = _tiny_model_file()
        header = copy.deepcopy(original)
        values = _json_values(original)
        node = data.draw(st.sampled_from(list(_containers(header))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = data.draw(st.sampled_from(("drop", "add", "replace", "rename")))
        if action == "add" or not keys:
            value = data.draw(values)
            if isinstance(node, dict):
                node[data.draw(st.text(max_size=8))] = value
            else:
                node.append(value)
        elif action == "drop":
            del node[data.draw(st.sampled_from(keys))]
        elif action == "replace" or isinstance(node, list):
            node[data.draw(st.sampled_from(keys))] = data.draw(values)
        else:
            type_names = sorted({n["type"] for n in _containers(original)
                                 if isinstance(n, dict)})
            node["type"] = data.draw(st.sampled_from(type_names) | st.text(max_size=8))
        header_bytes = json.dumps(header).encode("utf-8")
        body = (MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header_bytes))
                + header_bytes + blob)
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "model.fenet"
            path.write_bytes(body + hashlib.sha256(body).digest())
            try:
                model = load(path)
            except ValueError:
                return
        assert isinstance(model, FenetModel)
        try:
            result = detect(model, _tiny_record())
        except ValueError:
            return
        assert np.all(np.isfinite(result.index_values))


def _finite(token: str) -> bool:
    try:
        return bool(np.isfinite(float(token)))
    except ValueError:
        return False


def _first_malformed_line(lines) -> int | None:
    """1-based number of the first non-blank line whose width differs from
    the first non-blank line's or that holds a token other than a finite
    number; None when every line is well formed."""
    width = None
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        width = width or len(fields)
        if len(fields) != width or not all(map(_finite, fields)):
            return number
    return None


CSV_ROWS = st.lists(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
                    min_size=1, max_size=6)
CSV_EDITS = st.lists(st.tuples(
    st.sampled_from(("ragged", "token", "non-finite", "blank", "stray-comma")),
    st.integers(0, 11)), max_size=3)


class TestCsvRows:
    @SETTINGS
    @given(CSV_ROWS, CSV_EDITS,
           st.sampled_from(("x", "1.0.0", "", " ", "--1", "0x10", "1e")),
           st.sampled_from(("nan", "inf", "-inf", "NaN", "1e999")))
    def test_malformed_rows_name_their_line(self, rows, edits, token, non_finite):
        """Ragged rows, non-numeric or non-finite tokens, blank lines and
        stray commas: the file loads as written, or load_csv raises a
        ValueError naming the first malformed line."""
        lines = [",".join(repr(v) for v in row) for row in rows]
        for kind, at in edits:
            at %= len(lines)
            fields = lines[at].split(",")
            if kind == "blank":
                lines.insert(at, " " * (at % 2))
                continue
            if kind == "ragged":
                fields = fields[:-1] if at % 2 else fields + ["1.0"]
            elif kind == "stray-comma":
                fields = [""] + fields if at % 2 else fields + [""]
            else:
                fields[at % len(fields)] = token if kind == "token" else non_finite
            lines[at] = ",".join(fields)
        bad = _first_malformed_line(lines)
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "data.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            if bad is None:
                expected = [[float(t) for t in line.split(",")]
                            for line in lines if line.strip()]
                np.testing.assert_array_equal(load_csv(path).values, expected)
            else:
                with pytest.raises(ValueError, match=f"line {bad}[:,]"):
                    load_csv(path)


MODERATE = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def degenerate_windows(draw):
    """(values, subsets, window_width) whose columns are all constant,
    collinear or of rank below the column count, with an optional run of
    rows where every column holds one constant."""
    width = draw(st.integers(2, 12))
    m = draw(st.integers(1, min(6, width - 1)))
    n = width + draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(SEEDS))
    kind = draw(st.sampled_from(("constant", "collinear", "rank_deficient")))
    if kind == "constant":
        values = np.full((n, m), draw(MODERATE))
    elif kind == "collinear":
        scales = np.array(draw(st.lists(MODERATE, min_size=m, max_size=m)))
        values = rng.standard_normal((n, 1)) * scales + draw(MODERATE)
    else:
        rank = draw(st.integers(1, m))
        values = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
    start = draw(st.integers(0, n - 1))
    values[start:start + draw(st.integers(0, n))] = draw(MODERATE)
    subsets = draw(st.lists(
        st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True).map(tuple),
        min_size=1, max_size=4))
    return values, subsets, width


@st.composite
def window_stacks(draw):
    """Sliding-window stacks over columns scaled by 1e-3 to 1e3 and offset
    by up to +-50, with an optional run of rows holding one constant and an
    optional run of rows scaled by 1e200."""
    width = draw(st.integers(2, 40))
    m = draw(st.integers(1, 6))
    n = width + draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(SEEDS))
    values = (np.cumsum(rng.standard_normal((n, m)), axis=0)
              * 10.0 ** rng.uniform(-3.0, 3.0, m) + rng.uniform(-50.0, 50.0, m))
    if draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        values[start:start + draw(st.integers(1, n))] = draw(MODERATE)
    if draw(st.booleans()):
        values[draw(st.integers(0, n - 1)):] *= 1e200
    return np.swapaxes(np.lib.stride_tricks.sliding_window_view(values, width, axis=0),
                       1, 2)


class TestWindowSpectra:
    @SETTINGS
    @given(window_stacks())
    def test_normalization_is_numpys_mean_and_std(self, windows):
        """Centring each window once gives np.mean and np.std's bytes."""
        assert (transform._normalized(windows).tobytes()
                == numpy_normalized(windows).tobytes())

    @SETTINGS
    @given(degenerate_windows(), st.integers(2, 8))
    def test_degenerate_windows(self, case, block_windows):
        """Finite, zero on every constant window, and byte-equal to one
        decomposition per subset, at any block size."""
        values, subsets, width = case
        with mock.patch.object(transform, "_BLOCK_WINDOWS", block_windows):
            fused = build_fused_matrix(FeatureMatrix(values), subsets, width).values
        assert np.all(np.isfinite(fused))
        assert fused.tobytes() == per_subset_spectra(values, subsets, width).tobytes()
        column = 0
        for subset in subsets:
            windows = np.lib.stride_tricks.sliding_window_view(
                values[:, list(subset)], width, axis=0)
            constant = np.all(windows == windows[:, :1, :1], axis=(1, 2))
            assert np.all(fused[constant, column:column + len(subset)] == 0.0)
            column += len(subset)


@st.composite
def degenerate_codes(draw):
    """Code matrices that are constant, collinear, rank-deficient or hold
    one constant column, with entries within +-1e3; optionally the rows
    from one on are scaled by 1e150 to 1e300, or one entry is NaN or
    infinite."""
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(SEEDS))
    kind = draw(st.sampled_from(("constant", "collinear", "rank_deficient",
                                 "constant_column")))
    if kind == "constant":
        codes = np.full((n, m), draw(MODERATE))
    elif kind == "collinear":
        scales = np.array(draw(st.lists(MODERATE, min_size=m, max_size=m)))
        codes = rng.standard_normal((n, 1)) * scales + draw(MODERATE)
    elif kind == "rank_deficient":
        rank = draw(st.integers(1, m))
        codes = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
    else:
        codes = rng.standard_normal((n, m))
        codes[:, draw(st.integers(0, m - 1))] = draw(MODERATE)
    peak = np.abs(codes).max()
    if peak > 1e3:
        codes *= 1e3 / peak
    extreme = draw(st.sampled_from(("none", "huge", "non_finite")))
    if extreme == "huge":
        codes[draw(st.integers(0, n - 1)):] *= 10.0 ** draw(st.integers(150, 300))
    elif extreme == "non_finite":
        codes[draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))] = draw(
            st.sampled_from((np.nan, np.inf, -np.inf)))
    return codes


class TestDegenerateCodes:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @SETTINGS
    @given(degenerate_codes(), unit_interval())
    def test_reduction_and_decision(self, codes, fraction):
        """Finite output or ValueError, and no float warning, from both
        fits; an exactly constant matrix raises in the PCA reduction."""
        constant = np.all(codes == codes[:1])
        try:
            reduction, reduced = fit_pca_reduction(codes, fraction)
        except ValueError as error:
            assert not constant or "all columns are constant" in str(error)
        else:
            assert not constant, "a constant code matrix was reduced"
            assert np.all(np.isfinite(reduction.projection))
            assert np.all(np.isfinite(reduced))
        try:
            decision = fit_decision(codes)
        except ValueError:
            return
        assert np.all(np.isfinite(decision.scaler.mean)) and np.isfinite(decision.limit)
        assert np.all(np.isfinite(detection_index(decision, codes)))
