"""Command-line front-end tests: artifact writing, exit codes, output
cleanup on failure, and determinism of repeated runs."""

import pytest

from fenkit.autoencoder import TrainConfig
from fenkit.cli import main
from fenkit.datasets import SyntheticConfig, write_sidecar
from fenkit.pipeline import PipelineConfig, load, write_pipeline_config
from fenkit.transform import LayerConfig

SMALL_TEMPLATE = LayerConfig(
    window_width=20,
    subset_size=3,
    max_subsets=10,
    code_dim=4,
    training=TrainConfig(epochs=60),
    hidden_dims=(16, 8),
)

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


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated dataset, pipeline config, and a trained model shared by
    the command tests."""
    root = tmp_path_factory.mktemp("cli")
    recipe = root / "synthetic.ini"
    write_sidecar(SyntheticConfig(n_variables=6, n_train=160, n_test=140,
                                  fault_type="step", fault_amplitude=4.0,
                                  fault_channels=(1, 4), fault_onset=60,
                                  seed=21), recipe)
    data_dir = root / "data"
    assert main(["generate", "--config", str(recipe), "--out",
                 str(data_dir)]) == 0
    config_path = root / "pipeline.ini"
    write_pipeline_config(PipelineConfig(l_max=2, layer_template=SMALL_TEMPLATE,
                                         master_seed=3), config_path)
    model_path = root / "model.fenet"
    assert main(["train", "--train", str(data_dir / "train.csv"),
                 "--config", str(config_path),
                 "--model", str(model_path)]) == 0
    return root


class TestGenerate:
    def test_writes_dataset_files(self, workspace):
        data_dir = workspace / "data"
        train_lines = (data_dir / "train.csv").read_text().splitlines()
        test_lines = (data_dir / "test.csv").read_text().splitlines()
        assert len(train_lines) == 160
        assert len(test_lines) == 140
        assert (data_dir / "synthetic.ini").exists()

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        recipe = workspace / "synthetic.ini"
        assert main(["generate", "--config", str(recipe), "--out",
                     str(tmp_path / "again")]) == 0
        for name in ("train.csv", "test.csv", "synthetic.ini"):
            assert (tmp_path / "again" / name).read_bytes() \
                == (workspace / "data" / name).read_bytes()

    def test_seed_is_reported(self, tmp_path, capsys):
        recipe = tmp_path / "synthetic.ini"
        write_sidecar(SyntheticConfig(n_variables=3, n_train=30, n_test=10,
                                      seed=77), recipe)
        assert main(["generate", "--config", str(recipe), "--out",
                     str(tmp_path / "out")]) == 0
        assert "seed 77" in capsys.readouterr().out

    def test_missing_config_fails(self, tmp_path, capsys):
        code = main(["generate", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_partial_output_removed_on_failure(self, workspace, tmp_path,
                                               monkeypatch, capsys):
        """A failure after the first file is written must not leave it
        behind."""
        import fenkit.cli as cli_module
        real_write = cli_module.write_csv
        calls = {"count": 0}

        def flaky(dataset, path):
            calls["count"] += 1
            real_write(dataset, path)
            if calls["count"] == 2:
                raise OSError("disk full")

        monkeypatch.setattr(cli_module, "write_csv", flaky)
        out_dir = tmp_path / "broken"
        code = main(["generate", "--config", str(workspace / "synthetic.ini"),
                     "--out", str(out_dir)])
        assert code == 1
        assert "disk full" in capsys.readouterr().err
        assert not (out_dir / "train.csv").exists()
        assert not (out_dir / "test.csv").exists()


class TestTrain:
    def test_model_loads_and_summary_printed(self, workspace, capsys):
        model_path = workspace / "model.fenet"
        model = load(model_path)
        assert len(model.layers) == 2
        config_path = workspace / "pipeline.ini"
        again = workspace / "again.fenet"
        assert main(["train", "--train", str(workspace / "data" / "train.csv"),
                     "--config", str(config_path),
                     "--model", str(again)]) == 0
        out = capsys.readouterr().out
        assert "master seed 3" in out
        assert "layer 0:" in out
        assert "layer 1:" in out
        assert "final loss" in out
        assert "decision: limit" in out

    def test_summary_builds_each_layer_once(self, workspace, tmp_path, monkeypatch):
        """The fit builds each layer's window spectra once, and the summary
        walk once more: 4 builds for two layers.  Every build runs
        transform._spectra, whether through build_fused_matrix (the fit) or
        not (the summary walk's layer_loss)."""
        import fenkit.transform as transform_module
        real_build = transform_module._spectra
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(transform_module, "_spectra", counting)
        assert main(["train", "--train", str(workspace / "data" / "train.csv"),
                     "--config", str(workspace / "pipeline.ini"),
                     "--model", str(tmp_path / "model.fenet")]) == 0
        assert len(calls) == 4

    def test_retrain_is_byte_identical(self, workspace, tmp_path):
        other = tmp_path / "model.fenet"
        assert main(["train", "--train", str(workspace / "data" / "train.csv"),
                     "--config", str(workspace / "pipeline.ini"),
                     "--model", str(other)]) == 0
        assert other.read_bytes() == (workspace / "model.fenet").read_bytes()

    def test_default_config_when_omitted(self, workspace, tmp_path, capsys):
        """Without --config the full-scale defaults apply, which need more
        rows than this file has."""
        code = main(["train", "--train", str(workspace / "data" / "train.csv"),
                     "--model", str(tmp_path / "model.fenet")])
        assert code == 1
        assert "training too short" in capsys.readouterr().err

    def test_too_short_training_fails(self, workspace, tmp_path, capsys):
        short = tmp_path / "short.csv"
        lines = (workspace / "data" / "train.csv").read_text().splitlines()
        short.write_text("\n".join(lines[:25]) + "\n")
        code = main(["train", "--train", str(short),
                     "--config", str(workspace / "pipeline.ini"),
                     "--model", str(tmp_path / "model.fenet")])
        assert code == 1
        assert not (tmp_path / "model.fenet").exists()
        assert "error:" in capsys.readouterr().err


class TestDetect:
    def test_scores_written_with_summary(self, workspace, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        assert main(["detect", "--model", str(workspace / "model.fenet"),
                     "--test", str(workspace / "data" / "test.csv"),
                     "--onset", "60", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# master_seed=3 ")
        assert lines[1] == "sample,index_value,limit,flag"
        assert len(lines) == 2 + 140 - 38
        first = lines[2].split(",")
        assert first[0] == "38"
        assert set(line.split(",")[3] for line in lines[2:]) <= {"0", "1"}
        printed = capsys.readouterr().out
        assert "FDR" in printed
        assert "FAR" in printed

    def test_training_data_self_check(self, workspace, tmp_path, capsys):
        """Scoring the training file against its own model keeps the
        false-alarm rate within the calibration bound."""
        out = tmp_path / "self.csv"
        assert main(["detect", "--model", str(workspace / "model.fenet"),
                     "--test", str(workspace / "data" / "train.csv"),
                     "--onset", "160", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        far_text = printed.split("FAR ")[1].split("%")[0]
        assert float(far_text) <= 1.5

    def test_missing_model_fails(self, workspace, tmp_path, capsys):
        code = main(["detect", "--model", str(tmp_path / "absent.fenet"),
                     "--test", str(workspace / "data" / "test.csv"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_model_fails(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.fenet"
        data = bytearray((workspace / "model.fenet").read_bytes())
        data[len(data) // 2] ^= 0xFF
        bad.write_bytes(bytes(data))
        code = main(["detect", "--model", str(bad),
                     "--test", str(workspace / "data" / "test.csv"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert "checksum" in capsys.readouterr().err


class TestEvaluate:
    def test_report_files_and_table(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.ini"
        grid_path.write_text(GRID_TEXT)
        out_dir = tmp_path / "reports"
        assert main(["evaluate", "--grid", str(grid_path),
                     "--out", str(out_dir)]) == 0
        printed = capsys.readouterr().out
        assert "experiment" in printed
        assert "ae" in printed
        reports = sorted(out_dir.iterdir())
        assert len(reports) == 2
        assert {p.suffix for p in reports} == {".csv", ".txt"}

    def test_rerun_is_byte_identical(self, tmp_path):
        grid_path = tmp_path / "grid.ini"
        grid_path.write_text(GRID_TEXT)
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["evaluate", "--grid", str(grid_path),
                     "--out", str(first)]) == 0
        assert main(["evaluate", "--grid", str(grid_path),
                     "--out", str(second)]) == 0
        for path in first.iterdir():
            assert path.read_bytes() == (second / path.name).read_bytes()

    def test_grid_without_scenarios_fails(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.ini"
        grid_path.write_text("[grid]\nmethods = md1\n")
        code = main(["evaluate", "--grid", str(grid_path),
                     "--out", str(tmp_path / "reports")])
        assert code == 1
        assert "scenario" in capsys.readouterr().err


@pytest.fixture(scope="module")
def stored_report(tmp_path_factory):
    root = tmp_path_factory.mktemp("report")
    grid_path = root / "grid.ini"
    grid_path.write_text(GRID_TEXT)
    assert main(["evaluate", "--grid", str(grid_path),
                 "--out", str(root)]) == 0
    csv_path = next(root.glob("report_*.csv"))
    text_path = next(root.glob("report_*.txt"))
    return csv_path, text_path


class TestReport:
    def test_renders_stored_results(self, stored_report, capsys):
        csv_path, text_path = stored_report
        capsys.readouterr()
        assert main(["report", "--results", str(csv_path)]) == 0
        assert capsys.readouterr().out == text_path.read_text()

    def test_writes_to_file(self, stored_report, tmp_path):
        csv_path, text_path = stored_report
        out = tmp_path / "table.txt"
        assert main(["report", "--results", str(csv_path),
                     "--out", str(out)]) == 0
        assert out.read_text() == text_path.read_text()

    def test_missing_results_fails(self, tmp_path, capsys):
        code = main(["report", "--results", str(tmp_path / "absent.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_results_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("just,some,fields\n1,2,3\n")
        code = main(["report", "--results", str(bad)])
        assert code == 1
        assert "not a report file" in capsys.readouterr().err


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
