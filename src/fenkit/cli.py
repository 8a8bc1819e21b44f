"""Batch command-line front end: generate synthetic data, fit models,
score test sets, run experiment grids, and render stored reports.

Every command either writes its artifacts completely and exits 0, or
removes any partial output and exits nonzero with a message on the error
stream.  All seeds appear in the outputs they produced.
"""

import argparse
import contextlib
import sys
from pathlib import Path

from .datasets import (
    attach_onset_labels,
    generate_synthetic,
    load_csv,
    read_synthetic_config,
    write_csv,
    write_sidecar,
)
from .ensemble import build_feature_matrix
from .evaluation import (
    format_report,
    read_grid,
    read_report_csv,
    run_experiment,
    write_report,
)
from .pipeline import (
    PipelineConfig,
    detect,
    fit,
    load,
    read_pipeline_config,
    save,
)
from .transform import layer_loss


@contextlib.contextmanager
def _removed_on_failure(*paths):
    """Delete the named outputs if the block raises, then re-raise."""
    try:
        yield
    except BaseException:
        for path in paths:
            with contextlib.suppress(OSError):
                Path(path).unlink(missing_ok=True)
        raise


def _command_generate(args) -> None:
    config = read_synthetic_config(args.config)
    full = generate_synthetic(config)
    train, test = full.split(config.n_train)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_path = out_dir / "train.csv"
    test_path = out_dir / "test.csv"
    sidecar_path = out_dir / "synthetic.ini"
    with _removed_on_failure(train_path, test_path, sidecar_path):
        write_csv(train, train_path)
        write_csv(test, test_path)
        write_sidecar(config, sidecar_path)
    print(f"wrote {train_path} ({train.n_samples} rows), "
          f"{test_path} ({test.n_samples} rows), {sidecar_path}")
    print(f"variables {config.n_variables}, fault {config.fault_type}, "
          f"seed {config.seed}")


def _command_train(args) -> None:
    data = load_csv(args.train)
    config = read_pipeline_config(args.config) if args.config \
        else PipelineConfig()
    model = fit(data, config)
    with _removed_on_failure(args.model):
        save(model, args.model)

    print(f"trained on {data.n_samples} rows x {data.n_variables} variables, "
          f"master seed {config.master_seed}")
    features = build_feature_matrix(model.bank, data)
    print(f"detector bank: {features.n_features} features")
    for index, (layer, recipe) in enumerate(zip(model.layers, model.config.layers)):
        total, parts, features = layer_loss(layer, features, recipe.training.l1_weight)
        parts_text = ", ".join(f"{name} {value:.6g}"
                               for name, value in parts.items())
        print(f"layer {index}: {layer.input_features} -> "
              f"{features.n_features} features, {features.n_samples} rows, "
              f"final loss {total:.6g} ({parts_text})")
    print(f"decision: limit {model.decision.limit:.6g} at "
          f"{100.0 * model.config.confidence:g}% confidence")
    print(f"model written to {args.model}")


def _command_detect(args) -> None:
    model = load(args.model)
    test = load_csv(args.test)
    if args.onset is not None:
        test = attach_onset_labels(test, args.onset)
    result = detect(model, test)
    with _removed_on_failure(args.out), \
            open(args.out, "w", encoding="utf-8") as handle:
        handle.write(f"# master_seed={model.config.master_seed} "
                     f"limit={result.limit!r} "
                     f"valid_from={result.valid_from}\n")
        handle.write("sample,index_value,limit,flag\n")
        for offset, (value, flag) in enumerate(zip(result.index_values,
                                                   result.flags)):
            handle.write(f"{result.valid_from + offset},"
                         f"{float(value)!r},{result.limit!r},"
                         f"{int(flag)}\n")
    print(f"scored {result.index_values.shape[0]} rows "
          f"(first {result.valid_from} excluded), results in {args.out}")
    if args.onset is not None:
        summary = result.summary
        fdr_text = "-" if summary.fdr is None else f"{100.0 * summary.fdr:.2f}%"
        far_text = "-" if summary.far is None else f"{100.0 * summary.far:.2f}%"
        print(f"FDR {fdr_text} over {summary.fault_rows} fault rows, "
              f"FAR {far_text} over {summary.normal_rows} normal rows")


def _command_evaluate(args) -> None:
    grid = read_grid(args.grid)
    report = run_experiment(grid)
    text_path = Path(args.out) / f"report_{report.config_hash}.txt"
    csv_path = Path(args.out) / f"report_{report.config_hash}.csv"
    with _removed_on_failure(text_path, csv_path):
        write_report(report, args.out)
    sys.stdout.write(format_report(report))
    print(f"report written to {text_path} and {csv_path} "
          f"in {report.seconds:.1f}s")


def _command_report(args) -> None:
    report = read_report_csv(args.results)
    text = format_report(report)
    if args.out:
        with _removed_on_failure(args.out):
            Path(args.out).write_text(text, encoding="utf-8")
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fenkit",
        description="Fault detection with a bank of statistical detectors "
                    "and stacked feature-transformation layers.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a synthetic dataset from a recipe file")
    generate.add_argument("--config", required=True,
                          help="recipe file with a [synthetic] section")
    generate.add_argument("--out", required=True,
                          help="output directory for train.csv, test.csv and "
                               "the metadata sidecar")
    generate.set_defaults(run=_command_generate)

    train = commands.add_parser("train", help="fit a model on normal data")
    train.add_argument("--train", required=True, help="training data file")
    train.add_argument("--config", help="pipeline config file "
                                        "(defaults apply when omitted)")
    train.add_argument("--model", required=True, help="model file to write")
    train.set_defaults(run=_command_train)

    detect_cmd = commands.add_parser(
        "detect", help="score a test set against a fitted model")
    detect_cmd.add_argument("--model", required=True, help="model file")
    detect_cmd.add_argument("--test", required=True, help="test data file")
    detect_cmd.add_argument("--onset", type=int,
                            help="first faulty row of the test file; enables "
                                 "the FDR/FAR summary")
    detect_cmd.add_argument("--out", required=True,
                            help="per-sample result file to write")
    detect_cmd.set_defaults(run=_command_detect)

    evaluate = commands.add_parser(
        "evaluate", help="run an experiment grid and write its report")
    evaluate.add_argument("--grid", required=True, help="grid file")
    evaluate.add_argument("--out", required=True, help="report directory")
    evaluate.set_defaults(run=_command_evaluate)

    report = commands.add_parser(
        "report", help="render a stored report file as a text table")
    report.add_argument("--results", required=True,
                        help="machine-readable report file")
    report.add_argument("--out", help="write the table here instead of "
                                      "standard output")
    report.set_defaults(run=_command_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
    except Exception as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
