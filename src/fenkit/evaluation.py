"""Detection/false-alarm metrics and a grid runner that compares base
statistical detectors against the stacked-transform pipeline across
fault scenarios and depths.

Reports are pure functions of (datasets, config, seeds): wall time never
enters the report files, so reruns of the same grid are byte-identical.
"""

import configparser
import csv
import hashlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .datasets import (
    ProcessDataset,
    SyntheticConfig,
    attach_onset_labels,
    generate_synthetic,
    load_csv,
    synthetic_config_from_section,
)
from .decision import fit_decision
from .detectors import (
    detector_control_limit,
    detector_features,
    fit_detector_bank,
    fit_dpca_detector,
    fit_kpca_detector,
    fit_md_detector,
    fit_pca_detector,
)
from .pipeline import (
    PipelineConfig,
    encode,
    pipeline_config_from_parser,
    resolve_layer_configs,
    score,
    stages,
)

BASE_METHODS = ("pca_t2", "pca_q", "dpca_t2", "dpca_q", "md1", "md2", "md3",
                "kpca_poly", "kpca_rbf", "kpca_cosine")
PIPELINE_METHOD = "ae"
KNOWN_METHODS = BASE_METHODS + (PIPELINE_METHOD,)

_CSV_COLUMNS = ("scenario", "method", "l_max", "fdr", "far", "excluded_rows",
                "scenario_seed", "master_seed", "config_hash", "error")


def fdr(flags, labels) -> float:
    """Flagged fraction of the fault-labeled rows."""
    flags = np.asarray(flags, dtype=bool)
    labels = np.asarray(labels)
    if flags.shape != labels.shape:
        raise ValueError("flags and labels must have equal length")
    fault = labels > 0
    if not fault.any():
        raise ValueError("no fault samples: detection rate is undefined")
    return float(flags[fault].mean())


def far(flags, labels) -> float:
    """Flagged fraction of the normal-labeled rows."""
    flags = np.asarray(flags, dtype=bool)
    labels = np.asarray(labels)
    if flags.shape != labels.shape:
        raise ValueError("flags and labels must have equal length")
    normal = labels == 0
    if not normal.any():
        raise ValueError("no normal samples: false-alarm rate is undefined")
    return float(flags[normal].mean())


@dataclass(frozen=True)
class ScenarioSpec:
    """One named dataset source: either a synthetic recipe or a pair of
    exported files (with an optional fault onset for the test labels)."""

    name: str
    synthetic: SyntheticConfig | None = None
    train_path: str | None = None
    test_path: str | None = None
    onset: int | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("scenario needs a name")
        from_files = self.train_path is not None or self.test_path is not None
        if (self.synthetic is None) == (not from_files):
            raise ValueError(
                f"scenario {self.name!r} needs exactly one source: synthetic "
                "recipe or file paths"
            )
        if from_files and (self.train_path is None or self.test_path is None):
            raise ValueError(
                f"scenario {self.name!r} needs both train and test paths"
            )

    @property
    def seed(self) -> int | None:
        return None if self.synthetic is None else self.synthetic.seed


@dataclass(frozen=True)
class ExperimentGrid:
    scenarios: tuple
    methods: tuple = (PIPELINE_METHOD,)
    depths: tuple = (0, 1, 2)
    pipeline: PipelineConfig = PipelineConfig()

    def __post_init__(self):
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "depths", tuple(int(d) for d in self.depths))
        if not self.scenarios:
            raise ValueError("grid needs at least one scenario")
        if not self.methods:
            raise ValueError("grid needs at least one method")
        for method in self.methods:
            if method not in KNOWN_METHODS:
                raise ValueError(f"unknown method {method!r}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate methods in grid")
        names = [spec.name for spec in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError("duplicate scenario names in grid")
        if not self.depths or any(d < 0 for d in self.depths):
            raise ValueError("depths must be non-negative and non-empty")
        if len(set(self.depths)) != len(self.depths):
            raise ValueError("duplicate depths in grid")
        if self.pipeline.layers and max(self.depths) > len(self.pipeline.layers):
            raise ValueError(
                f"depth {max(self.depths)} exceeds the {len(self.pipeline.layers)} "
                "explicit layer configs"
            )


@dataclass(frozen=True)
class ReportCell:
    """One grid cell; a rate is None when its row class is absent from
    the scored region, and error carries any per-cell failure."""

    scenario: str
    method: str
    l_max: int | None
    fdr: float | None
    far: float | None
    excluded_rows: int
    scenario_seed: int | None
    error: str | None = None

    def __post_init__(self):
        for rate in (self.fdr, self.far):
            if rate is not None and not (0.0 <= rate <= 1.0):
                raise ValueError(f"rate {rate} outside [0, 1]")


@dataclass(frozen=True)
class ExperimentReport:
    cells: tuple
    config_hash: str
    master_seed: int
    seconds: float

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))


def resolve_scenario(spec: ScenarioSpec) -> tuple:
    """(train, test) datasets for a scenario; file-based test labels come
    from the onset index when one is given."""
    if spec.synthetic is not None:
        full = generate_synthetic(spec.synthetic)
        return full.split(spec.synthetic.n_train)
    train = load_csv(spec.train_path, name=f"{spec.name}/train")
    test = load_csv(spec.test_path, name=f"{spec.name}/test")
    if spec.onset is not None:
        test = attach_onset_labels(test, spec.onset)
    return train, test


def _base_scores(method: str, train: ProcessDataset, test: ProcessDataset,
                 config: PipelineConfig) -> tuple:
    bank = config.bank
    if method in ("pca_t2", "pca_q", "dpca_t2", "dpca_q"):
        if method.startswith("dpca"):
            detector = fit_dpca_detector(train, bank.dpca_lags,
                                         bank.pca_variance_fraction)
        else:
            detector = fit_pca_detector(train, bank.pca_variance_fraction)
        column = 0 if method.endswith("_t2") else 1
    elif method in ("md1", "md2", "md3"):
        detector = fit_md_detector(train, method.upper(),
                                   bank.md2_variance_fraction)
        column = 0
    else:
        kernel = method.split("_", 1)[1]
        detector = fit_kpca_detector(train, kernel)
        column = 0
    return (detector_features(detector, train.values)[:, column],
            detector_features(detector, test.values)[:, column])


def _rates(flags: np.ndarray, labels: np.ndarray) -> tuple:
    fault = labels > 0
    cell_fdr = fdr(flags, labels) if fault.any() else None
    cell_far = far(flags, labels) if (~fault).any() else None
    return cell_fdr, cell_far


def _base_cell(spec: ScenarioSpec, method: str, train: ProcessDataset,
               test: ProcessDataset, config: PipelineConfig) -> ReportCell:
    train_scores, test_scores = _base_scores(method, train, test, config)
    limit = detector_control_limit(train_scores, config.confidence)
    flags = test_scores > limit
    cell_fdr, cell_far = _rates(flags, test.labels)
    return ReportCell(spec.name, method, None, cell_fdr, cell_far, 0, spec.seed)


def _error_cells(spec: ScenarioSpec, methods, depths, message: str) -> list:
    cells = []
    for method in methods:
        if method == PIPELINE_METHOD:
            cells.extend(ReportCell(spec.name, method, depth, None, None, 0,
                                    spec.seed, error=message)
                         for depth in depths)
        else:
            cells.append(ReportCell(spec.name, method, None, None, None, 0,
                                    spec.seed, error=message))
    return cells


def _pipeline_cells(spec: ScenarioSpec, train: ProcessDataset,
                    test: ProcessDataset, grid: ExperimentGrid) -> list:
    """One cell per requested depth, in grid order.

    Layer l depends only on the master seed and its own index, so a
    single pass over the stages of the deepest fit yields every
    shallower model as an exact prefix; each depth only fits its
    decision stage and scores the test stage the pass computed once.
    """
    config = grid.pipeline
    max_depth = max(grid.depths)
    layer_configs = resolve_layer_configs(
        replace(config, l_max=max_depth, layers=config.layers[:max_depth]))
    cells = {}
    depth, failure = 0, None
    try:
        bank = fit_detector_bank(train, config.bank)
        for layers, train_features, test_features in stages(
                bank, layer_configs, train, test):
            depth = len(layers)
            if depth not in grid.depths:
                continue
            try:
                decision = fit_decision(train_features.values, config.confidence,
                                        config.norm_order)
                result = score(decision, test_features, test)
            except ValueError as error:
                cells[depth] = ReportCell(spec.name, PIPELINE_METHOD, depth, None,
                                          None, 0, spec.seed, error=str(error))
                continue
            cells[depth] = ReportCell(
                spec.name, PIPELINE_METHOD, depth, result.summary.fdr,
                result.summary.far, result.valid_from, spec.seed,
            )
    except ValueError as error:
        failure = str(error)
    except RuntimeError as error:
        # Training of the layer after the last yielded stage diverged.
        failure = f"layer {depth}: {error}"
    return [cells[d] if d in cells else
            ReportCell(spec.name, PIPELINE_METHOD, d, None, None, 0, spec.seed,
                       error=failure)
            for d in grid.depths]


def grid_hash(grid: ExperimentGrid) -> str:
    """Short deterministic digest of the full grid configuration; report
    files are named by it."""
    canonical = json.dumps(encode(grid), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def run_experiment(grid: ExperimentGrid) -> ExperimentReport:
    """Evaluate every (scenario, method[, depth]) cell; failures are
    recorded in their cells without aborting the rest of the grid."""
    start = time.perf_counter()
    cells = []
    for spec in grid.scenarios:
        try:
            train, test = resolve_scenario(spec)
        except (ValueError, OSError) as error:
            cells.extend(_error_cells(spec, grid.methods, grid.depths,
                                      str(error)))
            continue
        for method in grid.methods:
            if method == PIPELINE_METHOD:
                cells.extend(_pipeline_cells(spec, train, test, grid))
                continue
            try:
                cells.append(_base_cell(spec, method, train, test,
                                        grid.pipeline))
            except (ValueError, RuntimeError) as error:
                cells.extend(_error_cells(spec, (method,), grid.depths,
                                          str(error)))
    return ExperimentReport(tuple(cells), grid_hash(grid),
                            grid.pipeline.master_seed,
                            time.perf_counter() - start)


def _format_rate(rate: float | None) -> str:
    return "-" if rate is None else f"{100.0 * rate:.2f}"


def format_report(report: ExperimentReport) -> str:
    """Aligned plain-text table; excluded counts the leading unscored
    rows of each cell so rates are comparable across depths."""
    header = ("scenario", "method", "l_max", "fdr%", "far%", "excluded",
              "seed", "error")
    rows = [header]
    for cell in report.cells:
        rows.append((
            cell.scenario, cell.method,
            "-" if cell.l_max is None else str(cell.l_max),
            _format_rate(cell.fdr), _format_rate(cell.far),
            str(cell.excluded_rows),
            "-" if cell.scenario_seed is None else str(cell.scenario_seed),
            cell.error or "",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [
        f"experiment {report.config_hash}",
        f"master seed {report.master_seed}",
        "rates cover the valid region only; excluded = leading unscored rows",
    ]
    for row in rows:
        lines.append("  ".join(field.ljust(width)
                               for field, width in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def write_report(report: ExperimentReport, out_dir) -> tuple:
    """Write report_<hash>.txt and report_<hash>.csv; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    text_path = out_dir / f"report_{report.config_hash}.txt"
    csv_path = out_dir / f"report_{report.config_hash}.csv"
    text_path.write_text(format_report(report), encoding="utf-8")
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_COLUMNS)
        for cell in report.cells:
            writer.writerow((
                cell.scenario, cell.method,
                "" if cell.l_max is None else cell.l_max,
                "" if cell.fdr is None else repr(cell.fdr),
                "" if cell.far is None else repr(cell.far),
                cell.excluded_rows,
                "" if cell.scenario_seed is None else cell.scenario_seed,
                report.master_seed,
                report.config_hash,
                cell.error or "",
            ))
    return text_path, csv_path


def read_report_csv(path) -> ExperimentReport:
    """Rebuild a report from its machine-readable file (timing is not
    stored, so seconds reads back as 0)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except FileNotFoundError:
        raise FileNotFoundError(f"report file not found: {path}") from None
    if not rows or tuple(rows[0]) != _CSV_COLUMNS:
        raise ValueError(f"{path}: not a report file")
    cells = []
    master_seed = 0
    config_hash = ""
    for row in rows[1:]:
        if len(row) != len(_CSV_COLUMNS):
            raise ValueError(f"{path}: malformed report row {row!r}")
        (scenario, method, l_max, cell_fdr, cell_far, excluded, scenario_seed,
         master, digest, error) = row
        cells.append(ReportCell(
            scenario, method,
            None if l_max == "" else int(l_max),
            None if cell_fdr == "" else float(cell_fdr),
            None if cell_far == "" else float(cell_far),
            int(excluded),
            None if scenario_seed == "" else int(scenario_seed),
            error=error or None,
        ))
        master_seed = int(master)
        config_hash = digest
    if not cells:
        raise ValueError(f"{path}: report has no cells")
    return ExperimentReport(tuple(cells), config_hash, master_seed, 0.0)


def read_grid(path) -> ExperimentGrid:
    """Grid file: a [grid] section (methods, depths), optional pipeline
    sections, and one [scenario:<name>] section per dataset."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(f"grid file not found: {path}")
    if "grid" not in parser:
        raise ValueError(f"{path}: missing [grid] section")
    grid_section = parser["grid"]
    methods = tuple(grid_section.get("methods", PIPELINE_METHOD).split())
    depths = tuple(int(tok) for tok in grid_section.get("depths", "0 1 2").split())
    pipeline = pipeline_config_from_parser(parser)

    scenarios = []
    for section_name in parser.sections():
        if not section_name.startswith("scenario:"):
            continue
        name = section_name.split(":", 1)[1]
        section = parser[section_name]
        if "train" in section or "test" in section:
            onset = section.getint("onset") if "onset" in section else None
            scenarios.append(ScenarioSpec(
                name, train_path=section.get("train"),
                test_path=section.get("test"), onset=onset,
            ))
        else:
            scenarios.append(ScenarioSpec(
                name, synthetic=synthetic_config_from_section(section)))
    if not scenarios:
        raise ValueError(f"{path}: no [scenario:<name>] sections")
    return ExperimentGrid(tuple(scenarios), methods, depths, pipeline)
