"""Property tests for fenkit's text files: generated configs, recipes and
report cells survive a write/read round trip, and any unknown key in any
section is rejected by name."""

import configparser
import re
import string
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fenkit.autoencoder import VARIANT_KINDS, TrainConfig, Variant
from fenkit.datasets import (
    FAULT_TYPES,
    SyntheticConfig,
    read_synthetic_config,
    write_sidecar,
)
from fenkit.detectors import BANK_MEMBERS, DetectorBankConfig
from fenkit.evaluation import (
    ExperimentReport,
    ReportCell,
    read_grid,
    read_report_csv,
    write_report,
)
from fenkit.pipeline import (
    PipelineConfig,
    read_pipeline_config,
    resolve_layer_configs,
    write_pipeline_config,
)
from fenkit.transform import LayerConfig

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
        l1_weight=draw(st.floats(0.0, 1e6)), beta1=draw(unit_interval(False)),
        beta2=draw(unit_interval(False)), eps_adam=draw(positive_floats()))
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
        confidence=draw(unit_interval(closed_top=False)),
        norm_order=draw(st.integers(1, 8)), master_seed=draw(SEEDS))


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
