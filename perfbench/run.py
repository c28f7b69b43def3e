"""Run one workload of the trialcraft benchmark and print its metrics.

    python3 perfbench/run.py --workload mc_lasso --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from anywhere; trialcraft is imported from the `src` directory next to
this one. With --trace 0 a run prints the end-to-end metrics, measured
untraced; with --trace 1 it prints the per-layer metrics of a traced replay
of each round it ran untraced. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 0 when every check passed, 1 when one failed, 2 when the program
cannot be found.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
SETUP_PROBES = 7

END_TO_END = (
    ("estimates_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time; a run makes whole rounds, at least a "
                             "workload's minimum number")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fresh_process_seconds(args) -> float:
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def setup_seconds(workload: str) -> float:
    """Median over fresh processes of the time to import trialcraft and parse
    the workload's plans and specs, rescaled to the reference machine speed by
    the import time of numpy in fresh processes just before and after."""
    numpy_import = ["-c", calibration.NUMPY_IMPORT]
    times = []
    before = _fresh_process_seconds(numpy_import)
    for _ in range(SETUP_PROBES):
        setup = _fresh_process_seconds([str(BENCH / "setup_probe.py"), str(SRC), workload])
        after = _fresh_process_seconds(numpy_import)
        times.append(calibration.to_reference(setup, (before + after) / 2,
                                              calibration.NUMPY_IMPORT_SECONDS))
        before = after
    return statistics.median(times)


class Run:
    """The rounds of one run: operation counts, and each round's first output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.payloads = {}

    def round(self, r: int):
        result = self.workload.run_round(r)
        self.attempted += result.ops
        self.failed += result.failed
        self.payloads.setdefault(r, result.payload)
        return result


def end_to_end(run: Run, args, min_rounds: int) -> dict:
    run.round(0)  # warm-up: caches fill and lazy set-up finishes untimed
    rates, raw = [], []
    before = calibration.seconds()
    deadline = time.perf_counter() + args.seconds
    while len(rates) < min_rounds or time.perf_counter() < deadline:
        res = run.round(len(rates) + 1)
        after = calibration.seconds()
        raw.append((res.ops - res.failed) / res.seconds)
        rates.append((res.ops - res.failed)
                     / calibration.to_reference(res.seconds, (before + after) / 2))
        before = after
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"{len(rates)} timed rounds; unscaled median {statistics.median(raw):.6g} estimates/s")
    return {
        # median over rounds of completed estimates per second, each round
        # rescaled to the reference machine speed measured around it
        "estimates_per_s": statistics.median(rates),
        "setup_s": setup_seconds(args.workload),
        # ru_maxrss is in KiB on Linux; the largest child is added to the
        # process's own peak
        "peak_rss_mb": (own + children) / 1024.0,
    }


def per_layer(run: Run, args, min_rounds: int, failures: list) -> dict:
    """Each round runs untraced, then again traced; adjacent runs of the same
    round make the tracing overhead immune to drifts in machine speed."""
    import tracing

    run.round(0)
    tracer = tracing.Tracer()
    untraced, traced = {}, {}
    busy = wall = 0.0
    deadline = time.perf_counter() + args.seconds
    while len(untraced) < min_rounds or time.perf_counter() < deadline:
        r = len(untraced) + 1
        cpu, start = os.times(), time.perf_counter()
        untraced[r] = run.round(r)
        wall += time.perf_counter() - start
        busy += sum(os.times()[:4]) - sum(cpu[:4])  # user + system, children included
        tracer.install()
        try:
            traced[r] = run.round(r)
        finally:
            tracer.uninstall()
        if traced[r].fingerprint != untraced[r].fingerprint:
            failures.append(f"round {r}: the traced run gave other estimates than the untraced run")

    metrics = tracing.layer_metrics(tracer, sum(res.ops - res.failed for res in traced.values()))
    metrics["simulation.cpu_per_wall"] = busy / wall
    metrics["trace.slowdown"] = (sum(res.seconds for res in traced.values())
                                 / sum(res.seconds for res in untraced.values()))
    return metrics


def run_one(args) -> tuple[dict, list[str]]:
    import specs
    import workloads
    from checks import ContractViolation

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    try:
        workload = workloads.build(args.workload, args.seed, str(workdir))
        run = Run(workload)
        min_rounds = specs.MIN_ROUNDS[args.workload]
        try:
            if args.trace:
                metrics = per_layer(run, args, min_rounds, failures)
            else:
                metrics = end_to_end(run, args, min_rounds)
            failures += workload.check(run.payloads)
        except ContractViolation as exc:
            failures.append(f"result contract broken: {exc}")
            metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": not failures, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    return result, failures


def metric_table(trace: int):
    if trace:
        import tracing

        return tracing.PER_LAYER
    return END_TO_END


def print_result(workload: str, result: dict, failures: list[str], table) -> None:
    for msg in failures:
        print(f"CHECK FAILED {workload}: {msg}", file=sys.stderr)
    print(f"{workload}: attempted {result['attempted']} operations, failed {result['failed']}, "
          f"checks {'passed' if result['correct'] else 'FAILED'}")
    for name, unit, _ in table:
        if name in result["metrics"]:
            print(f"  {name:42s} {result['metrics'][name]:14.6g} {unit}")


def run_all(args, workloads) -> int:
    """Every workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, done.returncode)
        if done.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    if not (SRC / "trialcraft" / "__init__.py").is_file():
        print(f"trialcraft sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import specs

    args = parse_args(argv, specs.WORKLOADS)
    if args.workload == "all":
        return run_all(args, specs.WORKLOADS)
    import trialcraft

    if Path(trialcraft.__file__).resolve().parent != (SRC / "trialcraft").resolve():
        print(f"trialcraft was imported from {trialcraft.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, failures = run_one(args)
    table = metric_table(args.trace)
    print_result(args.workload, result, failures, table)
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit, _ in table if name in result["metrics"]}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
