"""fenkit benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload step7_fit_score --seed 7 --seconds 30 --trace 0

`--workload all` runs the three workloads one after the other, each in a
process of its own, and exits non-zero if any of them does.

Run it from the root of a source checkout; it imports fenkit from `src/`
and exits 2 without a result when that is missing.  The workload process
pins BLAS to one thread before numpy loads: fenkit's results, not only its
timings, depend on the thread count.

Workloads (see workloads.py): `step7_fit_score` fits and saves the plain
two-layer model and scores a 4000-row record through `fenkit detect`;
`grid_variational` runs the variational pipeline grid at depths 0-2;
`baselines` runs the ten base detectors on a step and a sticking scenario.
The seed chooses the generated data only.  Held-out seed: 90001 was never
run while this benchmark was written; re-check a gain claim on it.

A run sets the inputs up three times, then runs timed units back to back
until `--seconds` have passed, setting the inputs up again between units,
and reports medians over the set-ups and over the units.  With
`--trace 0` it reports the end-to-end metrics:

    setup_s            s    writing the seeded CSV inputs
    wall_s             s    one timed unit: fit + save + detect, or one
                            run_experiment call for the grid workloads
    detect_rows_per_s  1/s  scored test rows per second of the call that
                            scores them (`fenkit detect`; run_experiment)
    peak_rss_mb        MB   peak resident set size of the process

With `--trace 1` it alternates untraced and traced units over the same
time and reports per-layer metrics of the traced units (tracing.py): the
self time of every fenkit module, stage times, counts computed from array
shapes (they repeat exactly for one seed and program), the detection
rates, and `trace.overhead_s`, the traced minus the untraced median wall
time.  A metric of a module that does not run in the workload reads 0.
The spans are written to `.perfbench_out/`.

Every unit's outputs are checked (workloads.py) and must be byte-identical
across the units of a run, traced or not.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; a failed check exits 1 after printing it.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUPS = 3
WORKLOADS = ("step7_fit_score", "grid_variational", "baselines")
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "detect_rows_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    return args


def environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        pass
    threads = None
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "process_threads": threads, "numpy": numpy.__version__,
            "blas": blas, "python": platform.python_version()}


class Runner:
    """Sets a workload's inputs up and runs its timed units."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.setup_s, self.plain, self.traced = [], [], []
        self.contents = set()
        self.inputs = None

    def setup(self) -> None:
        """Write the inputs afresh; every set-up must write the same bytes."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        start = time.perf_counter()
        self.inputs = self.workload.setup(self.seed, self.workdir)
        self.setup_s.append(time.perf_counter() - start)
        self.contents.add(tuple(p.read_bytes()
                                for p in sorted(self.workdir.iterdir())))

    def measure(self, seconds: float, tracer, run_prefix: str) -> None:
        """Rounds of one untraced unit, plus one traced unit when tracing,
        until `seconds` have passed.  The inputs are set up SETUPS times
        first and once more before every later round, so `setup_s` samples
        the same stretch of time as the units.  A traced run makes at least
        two rounds and swaps the order of its two units every round, so
        neither side always gets the colder start."""
        for _ in range(SETUPS):
            self.setup()
        start = time.perf_counter()
        while True:
            sides = [None] if tracer is None else [None, tracer]
            if len(self.plain) % 2:
                sides.reverse()
            for side in sides:
                if side is None:
                    self.plain.append(self.workload.unit(self.inputs))
                    continue
                side.run_id = f"{run_prefix}-u{len(self.traced)}"
                with side.installed():
                    self.traced.append(self.workload.unit(self.inputs))
            if any(u.problems or u.failed for u in self.plain + self.traced):
                break
            # Start another round only if it should end within `seconds`.
            elapsed = time.perf_counter() - start
            if (len(self.plain) >= len(sides)
                    and elapsed + elapsed / len(self.plain) > seconds):
                break
            self.setup()


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if "numpy" in sys.modules:
        print("numpy was loaded before the BLAS thread count was fixed",
              file=sys.stderr)
        return 2
    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    if not (ROOT / "src" / "fenkit" / "__init__.py").is_file():
        print(f"no fenkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))

    import tracing
    import workloads

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(workloads.WORKLOADS[args.workload], args.seed,
                    OUT / f"work-{name}-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    try:
        runner.measure(args.seconds, tracer, name)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    plain, traced = runner.plain, runner.traced
    units = plain + traced
    problems = [problem for unit in units for problem in unit.problems]
    if len(runner.contents) != 1:
        problems.append("set-up inputs differ between set-ups")
    digests = {unit.digest for unit in units}
    if len(digests) != 1:
        problems.append(f"outputs differ between units ({len(digests)} digests)")

    if args.trace:
        per_unit = [{**unit.quality,
                     **tracing.unit_metrics(tracer.spans, f"{name}-u{k}")}
                    for k, unit in enumerate(traced)]
        metrics = {key: median(m.get(key, 0.0) for m in per_unit)
                   for key in tracing.UNITS}
        metrics["trace.overhead_s"] = (
            median(u.wall_s for u in traced) - median(u.wall_s for u in plain))
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{name}.jsonl")
        units_of = tracing.UNITS
    else:
        metrics = {
            "setup_s": median(runner.setup_s),
            "wall_s": median(u.wall_s for u in plain),
            "detect_rows_per_s": median(
                u.rows_scored / u.score_s for u in plain if u.score_s > 0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units_of = END_TO_END_UNITS

    env = environment()
    result = {
        "correct": not problems,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": {key: {"value": value, "unit": units_of[key]}
                    for key, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "setup_s": runner.setup_s, "unit_wall_s": [u.wall_s for u in plain],
         "traced_unit_wall_s": [u.wall_s for u in traced], "env": env,
         "problems": problems, **result}, indent=1))
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(plain)} units"
          + (f", {len(traced)} traced" if args.trace else "")
          + f"; env {json.dumps(env)}")
    for key, value in result["metrics"].items():
        print(f"  {key:34} {value['value']:>14.6g} {value['unit']}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
