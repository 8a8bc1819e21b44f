"""Metric and experiment-runner tests: rate definitions, grid
completeness, per-cell error capture, report determinism, and the
depth-prefix consistency of the pipeline cells."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from fenkit import detectors, evaluation, pipeline
from fenkit.autoencoder import TrainConfig
from fenkit.datasets import ProcessDataset, SyntheticConfig, generate_synthetic, write_csv
from fenkit.detectors import (
    BANK_MEMBERS,
    DetectorBankConfig,
    detector_features,
    fit_bank_member,
    fit_dpca_detector,
    fit_kpca_detector,
    fit_md_detector,
    fit_pca_detector,
)
from fenkit.evaluation import (
    BASE_METHODS,
    ExperimentGrid,
    ReportCell,
    ScenarioSpec,
    far,
    fdr,
    format_report,
    grid_hash,
    read_grid,
    resolve_scenario,
    run_experiment,
    write_report,
)
from fenkit.numerics import empirical_quantile
from fenkit.pipeline import PipelineConfig, detect, fit
from fenkit.transform import LayerConfig

SMALL_TEMPLATE = LayerConfig(
    window_width=20,
    subset_size=3,
    max_subsets=10,
    code_dim=4,
    training=TrainConfig(epochs=60),
    hidden_dims=(16, 8),
)

PIPELINE = PipelineConfig(l_max=2, layer_template=SMALL_TEMPLATE, master_seed=3)


def step_scenario(name="step", seed=21):
    return ScenarioSpec(name, synthetic=SyntheticConfig(
        n_variables=6, n_train=160, n_test=140, fault_type="step",
        fault_amplitude=4.0, fault_channels=(1, 4), fault_onset=60, seed=seed,
    ))


def normal_scenario(name="normal", seed=22):
    return ScenarioSpec(name, synthetic=SyntheticConfig(
        n_variables=6, n_train=160, n_test=140, seed=seed))


@pytest.fixture(scope="module")
def small_report():
    grid = ExperimentGrid(
        scenarios=(step_scenario(), normal_scenario()),
        methods=("pca_t2", "md1", "ae"),
        depths=(0, 1),
        pipeline=PIPELINE,
    )
    return grid, run_experiment(grid)


class TestRates:
    def test_all_fault_flagged_is_one(self):
        assert fdr(np.ones(5, dtype=bool), np.ones(5)) == 1.0

    def test_no_normal_flagged_is_zero(self):
        assert far(np.zeros(5, dtype=bool), np.zeros(5)) == 0.0

    def test_percentage_convention(self):
        """1921 of 2000 fault rows flagged reads as 96.05%."""
        labels = np.ones(2000)
        flags = np.zeros(2000, dtype=bool)
        flags[:1921] = True
        assert fdr(flags, labels) == 1921 / 2000

    def test_mixed_labels_use_own_class(self):
        labels = np.array([0, 0, 1, 1, 1])
        flags = np.array([True, False, True, True, False])
        assert fdr(flags, labels) == pytest.approx(2 / 3)
        assert far(flags, labels) == pytest.approx(1 / 2)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        labels = (rng.random(200) < 0.4).astype(int)
        flags = rng.random(200) < 0.3
        order = rng.permutation(200)
        assert fdr(flags, labels) == fdr(flags[order], labels[order])
        assert far(flags, labels) == far(flags[order], labels[order])

    def test_missing_class_errors(self):
        with pytest.raises(ValueError, match="no fault"):
            fdr(np.zeros(3, dtype=bool), np.zeros(3))
        with pytest.raises(ValueError, match="no normal"):
            far(np.zeros(3, dtype=bool), np.ones(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            fdr(np.zeros(3, dtype=bool), np.ones(4))

    def test_negative_labels_rejected(self):
        labels = np.array([0, -1, 1])
        for rate in (fdr, far):
            with pytest.raises(ValueError, match="non-negative"):
                rate(np.zeros(3, dtype=bool), labels)


class TestScenarios:
    def test_synthetic_resolution(self):
        train, test = resolve_scenario(step_scenario())
        assert train.n_samples == 160
        assert test.n_samples == 140
        assert not train.labels.any()
        assert test.labels[60:].all()

    def test_file_resolution_with_onset(self, tmp_path):
        data = generate_synthetic(SyntheticConfig(n_variables=4, n_train=50,
                                                  n_test=30, seed=5))
        train, test = data.split(50)
        write_csv(train, tmp_path / "train.csv")
        write_csv(test, tmp_path / "test.csv")
        spec = ScenarioSpec("files", train_path=str(tmp_path / "train.csv"),
                            test_path=str(tmp_path / "test.csv"), onset=10)
        loaded_train, loaded_test = resolve_scenario(spec)
        np.testing.assert_allclose(loaded_train.values, train.values)
        assert loaded_test.labels[:10].sum() == 0
        assert loaded_test.labels[10:].all()

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="name"):
            ScenarioSpec("", synthetic=step_scenario().synthetic)
        with pytest.raises(ValueError, match="exactly one source"):
            ScenarioSpec("both", synthetic=step_scenario().synthetic,
                         train_path="a", test_path="b")
        with pytest.raises(ValueError, match="exactly one source"):
            ScenarioSpec("neither")
        with pytest.raises(ValueError, match="both train and test"):
            ScenarioSpec("half", train_path="a")


class TestGridValidation:
    def test_rejects_empty_pieces(self):
        with pytest.raises(ValueError, match="scenario"):
            ExperimentGrid(scenarios=())
        with pytest.raises(ValueError, match="method"):
            ExperimentGrid(scenarios=(normal_scenario(),), methods=())
        with pytest.raises(ValueError, match="depths"):
            ExperimentGrid(scenarios=(normal_scenario(),), depths=())

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            ExperimentGrid(scenarios=(normal_scenario(),), methods=("svm",))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentGrid(scenarios=(normal_scenario(),),
                           methods=("md1", "md1"))
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentGrid(scenarios=(normal_scenario(), normal_scenario()))
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentGrid(scenarios=(normal_scenario(),), depths=(0, 0))

    def test_depth_beyond_explicit_layers(self):
        config = PipelineConfig(l_max=1, layers=(SMALL_TEMPLATE,))
        with pytest.raises(ValueError, match="exceeds"):
            ExperimentGrid(scenarios=(normal_scenario(),), depths=(0, 1, 2),
                           pipeline=config)


class TestRunExperiment:
    def test_grid_is_complete(self, small_report):
        """2 scenarios x (2 base methods + 2 pipeline depths) = 8 cells,
        none failed."""
        _, report = small_report
        assert len(report.cells) == 8
        assert all(cell.error is None for cell in report.cells)
        keys = {(c.scenario, c.method, c.l_max) for c in report.cells}
        assert ("step", "pca_t2", None) in keys
        assert ("normal", "ae", 1) in keys

    def test_fault_cells_carry_fdr(self, small_report):
        _, report = small_report
        for cell in report.cells:
            if cell.scenario == "step":
                assert cell.fdr is not None
                assert cell.far is not None
            else:
                assert cell.fdr is None
                assert cell.far is not None

    def test_excluded_rows_follow_depth(self, small_report):
        _, report = small_report
        for cell in report.cells:
            if cell.method == "ae":
                assert cell.excluded_rows == cell.l_max * 19
            else:
                assert cell.excluded_rows == 0

    def test_pipeline_cells_match_direct_fits(self, small_report):
        """The shared-prefix runner must reproduce exactly what a
        standalone fit at each depth reports."""
        grid, report = small_report
        train, test = resolve_scenario(grid.scenarios[0])
        for depth in grid.depths:
            direct = detect(fit(train, replace(grid.pipeline, l_max=depth)),
                            test)
            cell = next(c for c in report.cells
                        if c.scenario == "step" and c.method == "ae"
                        and c.l_max == depth)
            assert cell.fdr == direct.summary.fdr
            assert cell.far == direct.summary.far

    def test_base_cells_match_direct_computation(self):
        """Each base cell reports the rates of a direct fit, feature
        column, empirical control limit and row count, also when the
        pipeline's bank shares its detectors."""
        sticking = ScenarioSpec("sticking", synthetic=SyntheticConfig(
            n_variables=6, n_train=160, n_test=140, fault_type="sticking",
            fault_amplitude=4.0, fault_channels=(1, 4), fault_onset=60, seed=23))
        grid = ExperimentGrid(scenarios=(step_scenario(), sticking),
                              methods=BASE_METHODS + ("ae",), depths=(0,),
                              pipeline=PIPELINE)
        cells = {(c.scenario, c.method): c for c in run_experiment(grid).cells}
        bank = PIPELINE.bank
        for spec in grid.scenarios:
            train, test = resolve_scenario(spec)
            columns = {}
            for prefix, detector in (
                    ("pca", fit_pca_detector(train, bank.pca_variance_fraction)),
                    ("dpca", fit_dpca_detector(train, bank.dpca_lags,
                                               bank.pca_variance_fraction))):
                columns[f"{prefix}_t2"] = (detector, 0)
                columns[f"{prefix}_q"] = (detector, 1)
            for variant in ("MD1", "MD2", "MD3"):
                columns[variant.lower()] = (
                    fit_md_detector(train, variant, bank.md2_variance_fraction), 0)
            for kernel in ("poly", "rbf", "cosine"):
                columns[f"kpca_{kernel}"] = (fit_kpca_detector(train, kernel), 0)
            assert set(columns) == set(BASE_METHODS)
            for method, (detector, column) in columns.items():
                train_scores = detector_features(detector, train.values)[:, column]
                test_scores = detector_features(detector, test.values)[:, column]
                limit = empirical_quantile(train_scores, PIPELINE.confidence)
                flags = test_scores > limit
                cell = cells[(spec.name, method)]
                assert cell.error is None
                assert cell.fdr == flags[test.labels > 0].mean()
                assert cell.far == flags[test.labels == 0].mean()
            direct = detect(fit(train, replace(PIPELINE, l_max=0)), test).summary
            ae = cells[(spec.name, "ae")]
            assert (ae.fdr, ae.far) == (direct.fdr, direct.far)

    def test_each_detector_fitted_once_per_scenario(self, monkeypatch):
        """The base cells and the pipeline's depth 0 share one fit of each
        bank member: five fits per scenario, not one per base method plus
        the pipeline's own bank."""
        fitted = []

        def counting(train, member, config=DetectorBankConfig()):
            fitted.append(member)
            return fit_bank_member(train, member, config)

        for module in (detectors, evaluation):
            monkeypatch.setattr(module, "fit_bank_member", counting)
        grid = ExperimentGrid(scenarios=(step_scenario(), normal_scenario()),
                              methods=BASE_METHODS + ("ae",), depths=(0,),
                              pipeline=PIPELINE)
        report = run_experiment(grid)
        assert all(cell.error is None for cell in report.cells)
        assert sorted(fitted) == sorted(BANK_MEMBERS * 2)

    def test_short_training_fails_only_lagged_detectors(self):
        """Three training rows leave no lag-2 window: the dpca cells and
        the pipeline, whose bank holds dpca, fail with the fit's message;
        every other detector still scores."""
        spec = ScenarioSpec("short", synthetic=SyntheticConfig(
            n_variables=6, n_train=3, n_test=20, fault_type="step",
            fault_amplitude=4.0, fault_channels=(1, 4), fault_onset=10, seed=21))
        grid = ExperimentGrid(scenarios=(spec,), methods=BASE_METHODS + ("ae",),
                              depths=(0, 1), pipeline=PIPELINE)
        for cell in run_experiment(grid).cells:
            if cell.method.startswith("dpca_") or cell.method == "ae":
                assert cell.error == "not enough rows after lag augmentation"
                assert cell.fdr is None and cell.far is None
            else:
                assert cell.error is None
                assert cell.fdr is not None and cell.far is not None

    def test_narrow_test_file_fails_every_cell(self, tmp_path):
        """A test file narrower than the training file fails the base and
        the pipeline cells with the detectors' own width message."""
        train, test = generate_synthetic(SyntheticConfig(
            n_variables=6, n_train=160, n_test=140, seed=5)).split(160)
        write_csv(train, tmp_path / "train.csv")
        write_csv(ProcessDataset(test.values[:, :5], test.labels),
                  tmp_path / "test.csv")
        spec = ScenarioSpec("narrow", train_path=str(tmp_path / "train.csv"),
                            test_path=str(tmp_path / "test.csv"))
        grid = ExperimentGrid(scenarios=(spec,), methods=("md1", "ae"),
                              depths=(0, 1), pipeline=PIPELINE)
        cells = run_experiment(grid).cells
        assert len(cells) == 3
        assert {cell.error for cell in cells} == {
            "sample matrix has shape (140, 5), detector expects 6 variables"}

    def test_dpca_at_lag_zero_reports_pca(self):
        """At dpca_lags=0 the dpca member is plain PCA, so the dpca cells
        carry the PCA values."""
        grid = ExperimentGrid(
            scenarios=(step_scenario(),),
            methods=("dpca_t2", "dpca_q", "pca_t2", "pca_q"), depths=(0,),
            pipeline=PipelineConfig(bank=DetectorBankConfig(dpca_lags=0), l_max=0))
        dpca_t2, dpca_q, pca_t2, pca_q = run_experiment(grid).cells
        assert (dpca_t2.fdr, dpca_t2.far) == (pca_t2.fdr, pca_t2.far)
        assert (dpca_q.fdr, dpca_q.far) == (pca_q.fdr, pca_q.far)
        assert dpca_t2.error is None and dpca_q.error is None

    def test_each_test_stage_scored_once(self, monkeypatch):
        """Depths 0-2 apply each fitted layer to the test record once:
        two layer applications, not one per layer per deeper depth."""
        applied = []
        apply_layer = pipeline.apply_layer

        def counting(layer, features):
            applied.append(layer)
            return apply_layer(layer, features)

        monkeypatch.setattr(pipeline, "apply_layer", counting)
        grid = ExperimentGrid(scenarios=(step_scenario(),), methods=("ae",),
                              depths=(0, 1, 2), pipeline=PIPELINE)
        report = run_experiment(grid)
        assert all(cell.error is None for cell in report.cells)
        assert len(applied) == 2

    def test_determinism(self, small_report):
        grid, report = small_report
        again = run_experiment(grid)
        assert again.cells == report.cells
        assert again.config_hash == report.config_hash
        assert format_report(again) == format_report(report)

    def test_scenario_failure_is_contained(self, tmp_path):
        """A missing dataset file fails its own cells; the rest of the
        grid still runs."""
        grid = ExperimentGrid(
            scenarios=(ScenarioSpec("ghost", train_path=str(tmp_path / "a.csv"),
                                    test_path=str(tmp_path / "b.csv")),
                       normal_scenario()),
            methods=("md1",),
            depths=(0,),
            pipeline=PIPELINE,
        )
        report = run_experiment(grid)
        ghost = next(c for c in report.cells if c.scenario == "ghost")
        alive = next(c for c in report.cells if c.scenario == "normal")
        assert "not found" in ghost.error
        assert ghost.fdr is None
        assert alive.error is None
        assert alive.far is not None

    def test_layer_failure_keeps_shallower_depths(self):
        """Training too short for the second layer still yields depth-0
        and depth-1 cells; only the deeper cell records the error."""
        spec = ScenarioSpec("short", synthetic=SyntheticConfig(
            n_variables=6, n_train=30, n_test=60, seed=9))
        grid = ExperimentGrid(scenarios=(spec,), methods=("ae",),
                              depths=(0, 1, 2), pipeline=PIPELINE)
        report = run_experiment(grid)
        by_depth = {c.l_max: c for c in report.cells}
        assert by_depth[0].error is None
        assert by_depth[1].error is None
        assert by_depth[2].error is not None
        assert "layer 1" in by_depth[2].error


class TestGridHash:
    def test_stable(self, small_report):
        grid, report = small_report
        assert grid_hash(grid) == report.config_hash
        assert len(report.config_hash) == 12

    def test_sensitive_to_grid_changes(self):
        base = ExperimentGrid(scenarios=(normal_scenario(),), methods=("md1",),
                              depths=(0,), pipeline=PIPELINE)
        other_methods = ExperimentGrid(scenarios=(normal_scenario(),),
                                       methods=("md2",), depths=(0,),
                                       pipeline=PIPELINE)
        other_seed = ExperimentGrid(scenarios=(normal_scenario(seed=99),),
                                    methods=("md1",), depths=(0,),
                                    pipeline=PIPELINE)
        assert grid_hash(base) != grid_hash(other_methods)
        assert grid_hash(base) != grid_hash(other_seed)


class TestReportFiles:
    def test_write_report_round_trip(self, small_report, tmp_path):
        _, report = small_report
        text_path, csv_path = write_report(report, tmp_path)
        assert text_path.name == f"report_{report.config_hash}.txt"
        assert csv_path.name == f"report_{report.config_hash}.csv"
        text = text_path.read_text()
        assert report.config_hash in text
        assert "valid region" in text
        with open(csv_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == len(report.cells) + 1
        header = rows[0]
        fdr_col = header.index("fdr")
        for row, cell in zip(rows[1:], report.cells):
            if cell.fdr is not None:
                assert float(row[fdr_col]) == cell.fdr

    def test_rewrite_is_byte_identical(self, small_report, tmp_path):
        grid, report = small_report
        first_dir = tmp_path / "a"
        second_dir = tmp_path / "b"
        write_report(report, first_dir)
        write_report(run_experiment(grid), second_dir)
        for suffix in ("txt", "csv"):
            name = f"report_{report.config_hash}.{suffix}"
            assert (first_dir / name).read_bytes() \
                == (second_dir / name).read_bytes()

    def test_rate_formatting(self, small_report):
        _, report = small_report
        text = format_report(report)
        assert "96.05" == f"{100 * (1921 / 2000):.2f}"
        assert text.endswith("\n")


class TestGridFile:
    GRID_TEXT = """
[grid]
methods = pca_t2 ae
depths = 0 1

[pipeline]
l_max = 2
master_seed = 3

[layer]
window_width = 20
subset_size = 3
max_subsets = 10
code_dim = 4
hidden_dims = 16 8

[training]
epochs = 60

[scenario:step]
n_variables = 6
n_train = 160
n_test = 140
fault_type = step
fault_amplitude = 4.0
fault_channels = 1 4
fault_onset = 60
seed = 21
"""

    def test_read_grid(self, tmp_path):
        path = tmp_path / "grid.ini"
        path.write_text(self.GRID_TEXT)
        grid = read_grid(path)
        assert grid.methods == ("pca_t2", "ae")
        assert grid.depths == (0, 1)
        assert grid.pipeline.layer_template == SMALL_TEMPLATE
        assert grid.pipeline.master_seed == 3
        assert grid.scenarios == (step_scenario(),)

    def test_file_scenario_sections(self, tmp_path):
        path = tmp_path / "grid.ini"
        path.write_text(
            "[grid]\nmethods = md1\ndepths = 0\n\n"
            "[scenario:real]\ntrain = data/train.csv\ntest = data/test.csv\n"
            "onset = 500\n"
        )
        grid = read_grid(path)
        spec = grid.scenarios[0]
        assert spec.train_path == "data/train.csv"
        assert spec.onset == 500

    @pytest.mark.parametrize("section, line", [
        ("grid", "method = md1"),
        ("scenario:step", "fault_typ = step"),
    ])
    def test_unknown_key_rejected(self, tmp_path, section, line):
        path = tmp_path / "grid.ini"
        path.write_text(self.GRID_TEXT.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        key = line.split()[0]
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            read_grid(path)

    @pytest.mark.parametrize("section", ["trainig", "synthetic", "scenario"])
    def test_unknown_section_rejected(self, tmp_path, section):
        """[trainig] epochs = 5 used to be skipped, training the default
        2000 epochs; a grid file holds the pipeline sections, [grid] and
        [scenario:<name>] sections only."""
        path = tmp_path / "grid.ini"
        path.write_text(self.GRID_TEXT + f"\n[{section}]\nepochs = 5\n")
        with pytest.raises(ValueError, match=f"unknown section \\[{section}\\]"):
            read_grid(path)

    def test_file_scenario_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "grid.ini"
        path.write_text("[grid]\nmethods = md1\n\n[scenario:real]\n"
                        "train = a.csv\ntest = b.csv\nonst = 5\n")
        with pytest.raises(ValueError, match=r"\[scenario:real\]: unknown key 'onst'"):
            read_grid(path)

    def test_missing_grid_section(self, tmp_path):
        path = tmp_path / "grid.ini"
        path.write_text("[scenario:x]\nn_variables = 3\n")
        with pytest.raises(ValueError, match="grid"):
            read_grid(path)

    def test_no_scenarios(self, tmp_path):
        path = tmp_path / "grid.ini"
        path.write_text("[grid]\nmethods = md1\n")
        with pytest.raises(ValueError, match="scenario"):
            read_grid(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_grid(tmp_path / "absent.ini")


class TestReportCell:
    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            ReportCell("s", "md1", None, 1.5, None, 0, None)
