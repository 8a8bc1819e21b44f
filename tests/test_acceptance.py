"""Acceptance suite: numeric oracles, gradient and optimizer closed
forms, row accounting, normalization invariance, false-alarm calibration
and layered detectability on seeded synthetic scenarios, variant parity,
byte determinism, and an optional benchmark-data grid.

The calibration tests (06-08) fit full-scale pipelines at 2000 epochs;
deselect them with `-m "not slow"` for a quick pass.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    assert_gradients_close,
    finite_difference_gradients,
    gram_singular_values,
)

from fenkit.autoencoder import (
    TrainConfig,
    Variant,
    adam_step,
    gradients,
    init_adam,
    init_autoencoder,
)
from fenkit.datasets import SyntheticConfig, generate_synthetic
from fenkit.detectors import DetectorBankConfig
from fenkit.ensemble import FeatureMatrix
from fenkit.evaluation import (
    BASE_METHODS,
    ExperimentGrid,
    ScenarioSpec,
    run_experiment,
    write_report,
)
from fenkit.numerics import singular_values, sym_eig
from fenkit.pipeline import PipelineConfig, detect, fit, load, save
from fenkit.transform import LayerConfig, window_singular_values

NORMAL_SEEDS = (101, 102, 103, 104, 105)
FAULT_SEEDS = (7, 8, 9, 10, 11)


def acceptance_pipeline(variant_kind: str) -> PipelineConfig:
    """Deployed two-layer configuration for the calibration scenarios.

    A wide first layer captures the detector-bank geometry; the narrow,
    strongly weight-shrunk second layer keeps the training-index tail
    short so the empirical control limit stays tight at this sample
    count. Window width and epochs follow the full-scale defaults.
    """
    variant = Variant(variant_kind)
    first = LayerConfig(
        window_width=150, subset_size=5, pca_variance_fraction=0.99,
        ae_variant=variant, training=TrainConfig(epochs=2000, seed=511),
        hidden_dims=(64, 32), seed=11,
    )
    second = LayerConfig(
        window_width=150, subset_size=5, pca_variance_fraction=0.99,
        ae_variant=variant,
        training=TrainConfig(epochs=2000, l1_weight=3.0, seed=512),
        hidden_dims=(12, 6), seed=12,
    )
    return PipelineConfig(l_max=2, layers=(first, second), master_seed=0)


def normal_scenario(seed: int) -> ScenarioSpec:
    return ScenarioSpec(f"normal{seed}", synthetic=SyntheticConfig(
        n_variables=10, n_train=2000, n_test=2000, seed=seed))


def fault_scenario(seed: int) -> ScenarioSpec:
    return ScenarioSpec(f"step{seed}", synthetic=SyntheticConfig(
        n_variables=10, n_train=2000, n_test=2000, fault_type="step",
        fault_amplitude=0.5, fault_channels=(2, 7), fault_onset=0,
        seed=seed))


def run_seed(variant_kind: str, kind: str, seed: int) -> dict:
    """One seed's full grid: pipeline cells at depths 0-2 plus, for the
    plain fault runs, every base detector (scenario calibration check)."""
    spec = normal_scenario(seed) if kind == "normal" else fault_scenario(seed)
    methods = ("ae",)
    if kind == "fault" and variant_kind == "plain":
        methods = methods + BASE_METHODS
    grid = ExperimentGrid((spec,), methods=methods, depths=(0, 1, 2),
                          pipeline=acceptance_pipeline(variant_kind))
    report = run_experiment(grid)
    by_depth, base = {}, {}
    for cell in report.cells:
        assert cell.error is None, f"{spec.name}/{cell.method}: {cell.error}"
        if cell.method == "ae":
            by_depth[cell.l_max] = cell
        else:
            base[cell.method] = cell
    return {"seed": seed, "seconds": report.seconds, "ae": by_depth,
            "base": base}


@pytest.fixture(scope="session")
def seed_runs():
    """Lazy per-(variant, scenario-kind) cache of the five seeded runs,
    shared across the calibration tests."""
    cache = {}

    def get(variant_kind: str, kind: str) -> list:
        key = (variant_kind, kind)
        if key not in cache:
            seeds = NORMAL_SEEDS if kind == "normal" else FAULT_SEEDS
            cache[key] = [run_seed(variant_kind, kind, s) for s in seeds]
        return cache[key]

    return get


def check_false_alarms(runs: list) -> None:
    """Deployed-depth FAR within [0%, 2.5%] on every seed, under the
    per-seed runtime budget."""
    rates = [(r["seed"], r["ae"][2].far) for r in runs]
    slowest = max(r["seconds"] for r in runs)
    assert slowest < 300.0, f"slowest seed took {slowest:.0f}s (budget 300s)"
    bad = [(s, f"{100 * v:.2f}%") for s, v in rates if v > 0.025]
    table = ", ".join(f"seed {s}: {100 * v:.2f}%" for s, v in rates)
    assert not bad, f"false-alarm rate above 2.5% on {bad}; all: {table}"


def check_layered_gain(runs: list) -> None:
    """On the incipient step, at least 4 of 5 seeds: depth-2 detection
    at 90%+, 50+ points over depth 0, and within 5 points of depth 1;
    per-seed runtime under budget."""
    slowest = max(r["seconds"] for r in runs)
    assert slowest < 900.0, f"slowest seed took {slowest:.0f}s (budget 900s)"
    lines, passes = [], 0
    for run in runs:
        f0, f1, f2 = (run["ae"][d].fdr for d in (0, 1, 2))
        ok = f2 >= 0.90 and f2 >= f0 + 0.50 and f2 >= f1 - 0.05
        passes += ok
        lines.append(
            f"seed {run['seed']}: depth0 {100 * f0:5.1f}%  "
            f"depth1 {100 * f1:5.1f}%  depth2 {100 * f2:5.1f}%  "
            f"{'pass' if ok else 'FAIL'}")
    assert passes >= 4, "layered detection gain:\n" + "\n".join(lines)


def test_01_singular_value_and_eigen_oracles():
    """Library singular values match a Gram-matrix eigendecomposition,
    and symmetric eigenpairs reconstruct their input, 100 seeded
    instances each within 1e-8 relative, under 10 s total."""
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(100):
        rows = int(rng.integers(8, 40))
        cols = int(rng.integers(2, min(rows, 12) + 1))
        matrix = rng.standard_normal((rows, cols))
        np.testing.assert_allclose(
            singular_values(matrix), gram_singular_values(matrix),
            rtol=1e-8, atol=1e-10)
    for _ in range(100):
        side = int(rng.integers(2, 16))
        raw = rng.standard_normal((side, side))
        matrix = (raw + raw.T) / 2.0
        eigenvalues, eigenvectors = sym_eig(matrix)
        reconstructed = (eigenvectors * eigenvalues) @ eigenvectors.T
        np.testing.assert_allclose(reconstructed, matrix, rtol=1e-8, atol=1e-8)
    assert time.perf_counter() - start < 10.0


def test_02_gradient_checks_all_variants():
    """Analytic gradients of every parameter tensor match central finite
    differences within 1e-4 relative on a 6-4-2 funnel for the plain,
    sparse and variational losses, under 30 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    batch = rng.standard_normal((5, 6))
    for kind in ("plain", "sparse", "variational"):
        # seed chosen so no pre-activation sits within the finite
        # difference step of a ReLU or |code| kink
        ae = init_autoencoder(6, 2, Variant(kind), seed=4, hidden_dims=(4,))
        noise = None
        if kind == "variational":
            noise = rng.standard_normal((batch.shape[0], ae.code_dim))
        analytic = gradients(ae, batch, l1_weight=1.0, noise=noise)
        oracle = finite_difference_gradients(ae, batch, 1.0, noise)
        assert_gradients_close(analytic, oracle, rtol=1e-4, atol=1e-6)
    assert time.perf_counter() - start < 30.0


def test_03_adam_first_step_closed_form():
    """With fresh moments the bias corrections cancel and a scalar
    parameter moves by exactly -lr * g / (|g| + eps)."""
    for w, g in ((0.7, 0.3), (-1.2, -2.5), (3.0, 1e-4)):
        params = [np.array([w])]
        grads = [np.array([g])]
        updated, state = adam_step(params, grads, init_adam(params),
                                   learning_rate=0.05, eps=1e-8)
        expected = w - 0.05 * g / (abs(g) + 1e-8)
        np.testing.assert_allclose(updated[0][0], expected, rtol=0.0,
                                   atol=1e-12)
        assert state.step == 1


def test_04_detection_sequence_row_accounting():
    """Two stacked width-150 windows leave exactly 3702 scored rows of a
    4000-row sequence. Tiny epochs and a reduced bank: the row
    arithmetic does not depend on training quality."""
    config = PipelineConfig(
        bank=DetectorBankConfig(members=("pca", "dpca")),
        l_max=2,
        layer_template=LayerConfig(
            window_width=150, subset_size=4, max_subsets=3, code_dim=4,
            training=TrainConfig(epochs=2), hidden_dims=(16, 8)),
        master_seed=1,
    )
    data = generate_synthetic(SyntheticConfig(
        n_variables=10, n_train=4000, n_test=4000, seed=40))
    train, test = data.split(4000)
    model = fit(train, config)
    result = detect(model, test)
    assert result.valid_from == 298
    assert result.index_values.shape == (3702,)


def test_05_window_scaling_invariance():
    """Window singular values are unchanged (1e-10 absolute) under any
    affine rescaling a*W + b with a > 0 of the raw window."""
    rng = np.random.default_rng(5)
    width, columns = 30, 4
    for _ in range(50):
        values = rng.standard_normal((width, columns))
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(-5.0, 5.0))
        plain = FeatureMatrix(values)
        scaled = FeatureMatrix(a * values + b)
        subset = tuple(range(columns))
        np.testing.assert_allclose(
            window_singular_values(plain, width - 1, subset, width),
            window_singular_values(scaled, width - 1, subset, width),
            rtol=0.0, atol=1e-10)


@pytest.mark.slow
def test_06_false_alarm_calibration(seed_runs):
    """On five seeded normal scenarios (10 channels, 2000/2000 rows) the
    deployed pipeline's false-alarm rate at confidence 0.99 stays within
    [0%, 2.5%], each seed fitting in under 5 minutes."""
    check_false_alarms(seed_runs("plain", "normal"))


@pytest.mark.slow
def test_07_layered_gain_on_incipient_step(seed_runs):
    """A 0.5-sigma step on 2 of 10 channels is incipient: every base
    detector stays at or below 30% detection. The stacked pipeline must
    then reach 90% at depth 2, gain 50+ points over depth 0, and hold
    within 5 points of depth 1, on at least 4 of 5 seeds."""
    runs = seed_runs("plain", "fault")
    for run in runs:
        worst = max(run["base"].items(), key=lambda kv: kv[1].fdr)
        assert worst[1].fdr <= 0.30, (
            f"seed {run['seed']}: base detector {worst[0]} reaches "
            f"{100 * worst[1].fdr:.1f}%, scenario is not incipient")
    check_layered_gain(runs)


@pytest.mark.slow
@pytest.mark.parametrize("variant_kind", ["sparse", "variational"])
def test_08_variant_parity(seed_runs, variant_kind):
    """The sparse and variational autoencoder variants meet the same
    false-alarm and layered-gain bounds as the plain variant on the
    same scenarios and tolerances."""
    check_false_alarms(seed_runs(variant_kind, "normal"))
    check_layered_gain(seed_runs(variant_kind, "fault"))


def test_09_train_save_load_detect_determinism(tmp_path):
    """Fitting twice writes byte-identical model files, and detection
    through a saved-and-reloaded model reproduces the original index
    sequence byte for byte."""
    config = PipelineConfig(
        l_max=2,
        layer_template=LayerConfig(
            window_width=20, subset_size=3, max_subsets=10, code_dim=4,
            training=TrainConfig(epochs=40), hidden_dims=(16, 8)),
        master_seed=5,
    )
    data = generate_synthetic(SyntheticConfig(
        n_variables=6, n_train=160, n_test=120, seed=9))
    train, test = data.split(160)
    first = fit(train, config)
    second = fit(train, config)
    path_a, path_b = tmp_path / "a.fenet", tmp_path / "b.fenet"
    save(first, path_a)
    save(second, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    original = detect(first, test)
    replayed = detect(load(path_a), test)
    repeated = detect(first, test)
    assert original.index_values.tobytes() == replayed.index_values.tobytes()
    assert original.index_values.tobytes() == repeated.index_values.tobytes()
    np.testing.assert_array_equal(original.flags, replayed.flags)


@pytest.mark.slow
@pytest.mark.skipif("FENKIT_TEP_DIR" not in os.environ,
                    reason="benchmark data directory not configured")
def test_10_benchmark_grid_targets(tmp_path):
    """With user-supplied benchmark exports (d03/d09/d15 train and test
    files, 4000-row test, onset at row 2000) the evaluation grid reports
    every method at depths 0-2 and the deployed depth lands within 5
    points of the published detection rates. Data-dependent; runs only
    when the directory is supplied."""
    directory = Path(os.environ["FENKIT_TEP_DIR"])
    targets = {"d03": 0.9755, "d09": 0.9755, "d15": 0.9605}
    scenarios = tuple(
        ScenarioSpec(name,
                     train_path=str(directory / f"{name}_train.csv"),
                     test_path=str(directory / f"{name}_test.csv"),
                     onset=2000)
        for name in targets)
    grid = ExperimentGrid(scenarios, methods=("ae",) + BASE_METHODS,
                          depths=(0, 1, 2),
                          pipeline=acceptance_pipeline("plain"))
    report = run_experiment(grid)
    text_path, csv_path = write_report(report, tmp_path)
    assert text_path.exists() and csv_path.exists()
    cells = {(c.scenario, c.method, c.l_max): c for c in report.cells}
    for name, target in targets.items():
        for depth in (0, 1, 2):
            assert (name, "ae", depth) in cells
        cell = cells[(name, "ae", 2)]
        assert cell.error is None, f"{name}: {cell.error}"
        assert abs(cell.fdr - target) <= 0.05, (
            f"{name}: depth-2 detection {100 * cell.fdr:.2f}% vs "
            f"target {100 * target:.2f}%")
