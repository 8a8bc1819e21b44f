"""The three workloads: seeded inputs, one timed unit, and the output checks.

Every workload shares the shape of the acceptance scenarios: 10 variables,
2000 all-normal training rows and the deployed two-layer pipeline.  The
benchmark seed only chooses the generated data; fenkit sees CSV files.

`setup(seed, workdir)` writes the inputs and returns them.  `unit(inputs)`
runs the timed calls once and returns a `Unit`; its `problems` list the
failed output checks.  Module attributes (`pipeline.fit`, `cli.main`, ...)
are looked up at call time so that a tracer can stand in for them.
"""

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from fenkit import cli, datasets, evaluation, pipeline
from fenkit.autoencoder import TrainConfig, Variant
from fenkit.datasets import SyntheticConfig
from fenkit.transform import LayerConfig

# Epochs per layer.  The deployed config trains 2000 epochs per layer,
# which makes one fit take about 18 s on a 2-core machine; a tenth keeps
# several timed units inside one run while the cost per epoch stays that
# of the deployed layer shapes.
EPOCHS = 200
N_VARIABLES = 10
N_TRAIN = 2000
WINDOW = 150
# Leading test rows the two stacked windows leave unscored.
UNSCORED = 2 * (WINDOW - 1)


def deployed_pipeline(variant_kind: str) -> pipeline.PipelineConfig:
    """The two-layer config of the calibration scenarios, with EPOCHS."""
    variant = Variant(variant_kind)
    first = LayerConfig(
        window_width=WINDOW, subset_size=5, pca_variance_fraction=0.99,
        ae_variant=variant, training=TrainConfig(epochs=EPOCHS, seed=511),
        hidden_dims=(64, 32), seed=11,
    )
    second = LayerConfig(
        window_width=WINDOW, subset_size=5, pca_variance_fraction=0.99,
        ae_variant=variant,
        training=TrainConfig(epochs=EPOCHS, l1_weight=3.0, seed=512),
        hidden_dims=(12, 6), seed=12,
    )
    return pipeline.PipelineConfig(l_max=2, layers=(first, second),
                                   master_seed=0)


def fault_scenario(seed: int, fault_type: str, n_test: int,
                   onset: int) -> SyntheticConfig:
    """0.5-sigma fault on channels 2 and 7, as in the acceptance suite."""
    return SyntheticConfig(
        n_variables=N_VARIABLES, n_train=N_TRAIN, n_test=n_test,
        fault_type=fault_type, fault_amplitude=0.5, fault_channels=(2, 7),
        fault_onset=onset, seed=seed)


def write_scenario(config: SyntheticConfig, workdir: Path, name: str) -> tuple:
    train, test = datasets.generate_synthetic(config).split(config.n_train)
    paths = (workdir / f"{name}_train.csv", workdir / f"{name}_test.csv")
    datasets.write_csv(train, paths[0])
    datasets.write_csv(test, paths[1])
    return paths


@dataclass
class Unit:
    """One timed unit: wall time, the scoring call's rows and time, the
    operations attempted and failed, and a digest of every output."""

    wall_s: float
    rows_scored: int
    score_s: float
    attempted: int
    failed: int
    digest: str
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)


def _rate(flags: list) -> float:
    return sum(flags) / len(flags) if flags else 0.0


class FitScore:
    """Fit and save a plain model, then score a long record with
    `fenkit detect` in-process."""

    n_test = 4000

    def setup(self, seed: int, workdir: Path) -> dict:
        onset = self.n_test // 2
        train_csv, test_csv = write_scenario(
            fault_scenario(seed, "step", self.n_test, onset), workdir, "step")
        return {"train_csv": train_csv, "test_csv": test_csv, "onset": onset,
                "model": workdir / "model.fenet",
                "scores": workdir / "scores.csv"}

    def unit(self, inputs: dict) -> Unit:
        start = time.perf_counter()
        try:
            train = datasets.load_csv(inputs["train_csv"])
            model = pipeline.fit(train, deployed_pipeline("plain"))
            pipeline.save(model, inputs["model"])
        except (ValueError, RuntimeError, OSError) as error:
            return Unit(time.perf_counter() - start, 0, 0.0, 2, 2, "",
                        [f"fit: {error}"])
        scoring = time.perf_counter()
        errors = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(errors):
            code = cli.main(["detect", "--model", str(inputs["model"]),
                             "--test", str(inputs["test_csv"]),
                             "--out", str(inputs["scores"])])
        end = time.perf_counter()
        if code != 0:
            return Unit(end - start, 0, end - scoring, 2, 1, "",
                        [f"detect exited {code}: {errors.getvalue().strip()}"])

        scores = inputs["scores"].read_bytes()
        problems, quality = self.check(scores, model.decision.limit,
                                       inputs["onset"])
        digest = hashlib.sha256(inputs["model"].read_bytes() + scores).hexdigest()
        return Unit(end - start, self.n_test - UNSCORED, end - scoring, 2, 0,
                    digest, problems, quality)

    def check(self, scores: bytes, limit: float, onset: int) -> tuple:
        """Row count, finite values, flags against `value > limit`, the
        model's limit on every row, and the detection/false-alarm rates."""
        lines = scores.decode("utf-8").splitlines()
        problems = []
        if lines[1:2] != ["sample,index_value,limit,flag"]:
            problems.append(f"scores: unexpected header {lines[:2]}")
        rows = [line.split(",") for line in lines[2:]]
        expected = self.n_test - UNSCORED
        if len(rows) != expected:
            problems.append(f"scores: {len(rows)} rows, expected {expected}")
        if any(len(row) != 4 for row in rows):
            problems.append("scores: a row without exactly 4 fields")
            return problems, {}
        fault, normal = [], []
        for number, (sample, value, row_limit, flag) in enumerate(rows):
            value, row_limit = float(value), float(row_limit)
            if int(sample) != UNSCORED + number:
                problems.append(f"scores row {number}: sample {sample}")
            if not math.isfinite(value):
                problems.append(f"sample {sample}: index value {value}")
            if flag != str(int(value > row_limit)):
                problems.append(f"sample {sample}: flag {flag} for {value} "
                                f"against {row_limit}")
            if row_limit != limit:
                problems.append(f"sample {sample}: limit {row_limit!r}, "
                                f"model limit {limit!r}")
            (fault if int(sample) >= onset else normal).append(flag == "1")
            if len(problems) > 10:
                break
        quality = {"decision.fdr_d2": _rate(fault),
                   "decision.far_d2": _rate(normal)}
        problems.extend(f"{name} {rate} outside [0, 1]"
                        for name, rate in quality.items()
                        if not 0.0 <= rate <= 1.0)
        return problems, quality


class Grid:
    """`run_experiment` over file-based scenarios written by the set-up."""

    n_test = N_TRAIN

    def __init__(self, scenarios: tuple, methods: tuple, depths: tuple,
                 variant_kind: str):
        # (label, fault type, seed offset); every test phase is faulty
        # from row 0, as in the layered-gain acceptance test.
        self.scenarios = scenarios
        self.methods = methods
        self.depths = depths
        self.variant_kind = variant_kind

    def setup(self, seed: int, workdir: Path) -> dict:
        specs = []
        for label, fault_type, offset in self.scenarios:
            train_csv, test_csv = write_scenario(
                fault_scenario(seed + offset, fault_type, self.n_test, 0),
                workdir, label)
            specs.append(evaluation.ScenarioSpec(
                label, train_path=str(train_csv), test_path=str(test_csv),
                onset=0))
        return {"grid": evaluation.ExperimentGrid(
            tuple(specs), methods=self.methods, depths=self.depths,
            pipeline=deployed_pipeline(self.variant_kind))}

    def expected_cells(self) -> int:
        per_scenario = sum(len(self.depths) if m == evaluation.PIPELINE_METHOD
                           else 1 for m in self.methods)
        return len(self.scenarios) * per_scenario

    def unit(self, inputs: dict) -> Unit:
        expected = self.expected_cells()
        start = time.perf_counter()
        try:
            report = evaluation.run_experiment(inputs["grid"])
        except (ValueError, RuntimeError, OSError) as error:
            wall = time.perf_counter() - start
            return Unit(wall, 0, wall, expected, expected, "",
                        [f"run_experiment: {error}"])
        wall = time.perf_counter() - start

        cells = report.cells
        failed = sum(cell.error is not None for cell in cells)
        problems = [f"{c.scenario}/{c.method}/{c.l_max}: {c.error}"
                    for c in cells if c.error is not None]
        if len(cells) != expected:
            problems.append(f"grid: {len(cells)} cells, expected {expected}")
        for cell in cells:
            for rate in (cell.fdr, cell.far):
                if rate is not None and not 0.0 <= rate <= 1.0:
                    problems.append(f"{cell.scenario}/{cell.method}: rate {rate}")
            unscored = (0 if cell.l_max is None
                        else cell.l_max * (WINDOW - 1))
            if cell.error is None and cell.excluded_rows != unscored:
                problems.append(f"{cell.scenario}/{cell.method}/{cell.l_max}: "
                                f"{cell.excluded_rows} rows excluded, "
                                f"expected {unscored}")
        rows = sum(self.n_test - cell.excluded_rows for cell in cells
                   if cell.error is None)
        digest = hashlib.sha256(json.dumps(
            [(c.scenario, c.method, c.l_max, repr(c.fdr), repr(c.far),
              c.excluded_rows, c.error) for c in cells]).encode()).hexdigest()
        quality = {}
        for cell in cells:
            if cell.method == evaluation.PIPELINE_METHOD and cell.l_max:
                quality[f"decision.fdr_d{cell.l_max}"] = cell.fdr or 0.0
        return Unit(wall, rows, wall, len(cells), failed, digest, problems,
                    quality)


WORKLOADS = {
    "step7_fit_score": FitScore(),
    "grid_variational": Grid((("step", "step", 0),), ("ae",), (0, 1, 2),
                             "variational"),
    "baselines": Grid((("step", "step", 0), ("sticking", "sticking", 1)),
                      evaluation.BASE_METHODS, (0, 1, 2), "plain"),
}
