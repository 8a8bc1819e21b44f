"""Detection/false-alarm metrics and a grid runner that compares base
statistical detectors against the stacked-transform pipeline across
fault scenarios and depths.

Reports are pure functions of (datasets, config, seeds): wall time never
enters the report files, so reruns of the same grid are byte-identical.
"""

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .datasets import (
    ProcessDataset,
    SyntheticConfig,
    attach_onset_labels,
    field_text,
    generate_synthetic,
    load_csv,
    read_ini,
    read_section,
)
from .decision import fit_decision
from .detectors import (
    BANK_MEMBERS,
    KPCA_KERNELS,
    detector_control_limit,
    detector_features,
    fit_bank_member,
    fit_kpca_detector,
    member_feature_names,
)
from .ensemble import FeatureMatrix
from .numerics import frozen
from .pipeline import (
    CONFIG_SECTIONS,
    PipelineConfig,
    encode,
    pipeline_config_from_parser,
    resolve_layer_configs,
    score,
    stages,
    summarize,
)

# A base method is a feature of a bank member or of a kpca_<kernel>
# baseline, named by the bank's rule.
_MEMBER_OF = {name: member
              for member in BANK_MEMBERS + tuple(f"kpca_{k}" for k in KPCA_KERNELS)
              for name in member_feature_names(member)}
BASE_METHODS = tuple(_MEMBER_OF)
PIPELINE_METHOD = "ae"
KNOWN_METHODS = BASE_METHODS + (PIPELINE_METHOD,)

# ReportCell fields plus the report's master_seed and config_hash.
_CSV_COLUMNS = ("scenario", "method", "l_max", "fdr", "far", "excluded_rows",
                "scenario_seed", "master_seed", "config_hash", "error")
_REPORT_COLUMNS = ("master_seed", "config_hash")
_FILE_SCENARIO_KEYS = {"train": "train_path", "test": "test_path", "onset": "onset"}


def fdr(flags, labels) -> float:
    """Flagged fraction of the fault-labeled rows."""
    rate = summarize(flags, labels).fdr
    if rate is None:
        raise ValueError("no fault samples: detection rate is undefined")
    return rate


def far(flags, labels) -> float:
    """Flagged fraction of the normal-labeled rows."""
    rate = summarize(flags, labels).far
    if rate is None:
        raise ValueError("no normal samples: false-alarm rate is undefined")
    return rate


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
    methods: tuple[str, ...] = (PIPELINE_METHOD,)
    depths: tuple[int, ...] = (0, 1, 2)
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
    train = load_csv(spec.train_path)
    test = load_csv(spec.test_path)
    if spec.onset is not None:
        test = attach_onset_labels(test, spec.onset)
    return train, test


def _scenario_columns(train: ProcessDataset, test: ProcessDataset,
                      grid: ExperimentGrid) -> tuple:
    """({feature: (train scores, test scores)}, {feature: error text}) for
    the detectors the grid reads: the pipeline's bank members when `ae`
    runs, then each member or KPCA kernel a base method names. Each is
    fitted once and scores each record once; a failure fails only the
    features of its own detector."""
    members = [_MEMBER_OF[m] for m in grid.methods if m != PIPELINE_METHOD]
    if PIPELINE_METHOD in grid.methods:
        members[:0] = grid.pipeline.bank.members
    columns, errors = {}, {}
    for member in dict.fromkeys(members):
        names = member_feature_names(member)
        try:
            if member.startswith("kpca_"):
                detector = fit_kpca_detector(train, member[len("kpca_"):])
            else:
                detector = fit_bank_member(train, member, grid.pipeline.bank)
            scores = [detector_features(detector, data.values) for data in (train, test)]
        except (ValueError, RuntimeError) as error:
            errors.update(dict.fromkeys(names, str(error)))
            continue
        columns.update((name, (scores[0][:, j], scores[1][:, j]))
                       for j, name in enumerate(names))
    return columns, errors


def _pipeline_cells(spec: ScenarioSpec, columns: dict, errors: dict,
                    test: ProcessDataset, grid: ExperimentGrid) -> list:
    """One cell per requested depth, in grid order, from the bank's columns.

    Layer l depends only on the master seed and its own index, so a
    single pass over the stages of the deepest fit yields every
    shallower model as an exact prefix; each depth only fits its
    decision stage and scores the test stage the pass computed once.
    """
    config = grid.pipeline
    max_depth = max(grid.depths)
    layer_configs = resolve_layer_configs(
        replace(config, l_max=max_depth, layers=config.layers[:max_depth]))
    names = [name for member in config.bank.members
             for name in member_feature_names(member)]
    cells = {}
    failure = None
    try:
        for name in names:
            if name in errors:
                raise ValueError(errors[name])
        depth0 = [FeatureMatrix(frozen(np.column_stack([columns[n][side] for n in names])))
                  for side in (0, 1)]
        for layers, train_features, test_features in stages(layer_configs, *depth0):
            depth = len(layers)
            if depth not in grid.depths:
                continue
            try:
                decision = fit_decision(train_features.values, config.confidence)
                result = score(decision, test_features, test)
            except ValueError as error:
                cells[depth] = ReportCell(spec.name, PIPELINE_METHOD, depth, None,
                                          None, 0, spec.seed, error=str(error))
                continue
            cells[depth] = ReportCell(
                spec.name, PIPELINE_METHOD, depth, result.summary.fdr,
                result.summary.far, result.valid_from, spec.seed,
            )
    except (ValueError, RuntimeError) as error:
        failure = str(error)
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
            # Without data every detector, and so every cell, fails.
            test, columns, errors = None, {}, dict.fromkeys(BASE_METHODS, str(error))
        else:
            columns, errors = _scenario_columns(train, test, grid)
        for method in grid.methods:
            if method == PIPELINE_METHOD:
                cells.extend(_pipeline_cells(spec, columns, errors, test, grid))
            elif method in errors:
                cells.append(ReportCell(spec.name, method, None, None, None, 0,
                                        spec.seed, error=errors[method]))
            else:
                train_scores, test_scores = columns[method]
                limit = detector_control_limit(train_scores,
                                               grid.pipeline.confidence)
                summary = summarize(test_scores > limit, test.labels)
                cells.append(ReportCell(spec.name, method, None, summary.fdr,
                                        summary.far, 0, spec.seed))
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
            values = asdict(cell) | {name: getattr(report, name)
                                     for name in _REPORT_COLUMNS}
            writer.writerow(field_text(values[name]) for name in _CSV_COLUMNS)
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
    for number, row in enumerate(rows[1:], start=2):
        if len(row) != len(_CSV_COLUMNS):
            raise ValueError(f"{path}: malformed report row {row!r}")
        values = dict(zip(_CSV_COLUMNS, row))
        cells.append(read_section(values, f"{path} row {number}", ReportCell,
                                  shared=_REPORT_COLUMNS))
    if not cells:
        raise ValueError(f"{path}: report has no cells")
    return ExperimentReport(tuple(cells), values["config_hash"],
                            int(values["master_seed"]), 0.0)


def read_grid(path) -> ExperimentGrid:
    """Grid file: a [grid] section (methods, depths), optional pipeline
    sections, and one [scenario:<name>] section per dataset."""
    parser = read_ini(path, "grid", "grid", optional=(*CONFIG_SECTIONS, "scenario:"))
    scenarios = []
    for section_name in parser.sections():
        if not section_name.startswith("scenario:"):
            continue
        name = section_name.split(":", 1)[1]
        section = parser[section_name]
        if "train" in section or "test" in section:
            scenarios.append(read_section(section, section_name, ScenarioSpec,
                                          _FILE_SCENARIO_KEYS, name=name))
        else:
            scenarios.append(ScenarioSpec(name, synthetic=read_section(
                section, section_name, SyntheticConfig)))
    if not scenarios:
        raise ValueError(f"{path}: no [scenario:<name>] sections")
    return read_section(parser["grid"], "grid", ExperimentGrid,
                        scenarios=tuple(scenarios),
                        pipeline=pipeline_config_from_parser(parser))
