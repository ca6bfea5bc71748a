"""Benchmark of the `mimo-ee` CLI, driven in-process through `cli.main`.

Run from the root of a checkout:

    python3 perfbench/run.py                 # every workload, one process each
    python3 perfbench/run.py --workload request-mix --seed 7 --seconds 40 --trace 0

Each workload runs in a process of its own, so its set-up time and peak
memory belong to it alone. With `--trace 0` the run reports end-to-end
metrics; with `--trace 1` it runs the workload's ops once untraced and
once with spans around every layer boundary (see tracing.py) and reports
per-layer metrics. Outputs are checked outside the timed region (see
checks.py). The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the exit code is 0 only
when every output passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 15
DEFAULT_SEED = 1
DEFAULT_SECONDS = 40
PROBE_FLAG = "--setup-probe"


def import_cli():
    """The checkout's own `mimo_ee.cli`, never an installed copy."""
    if not (SRC / "mimo_ee" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mimo_ee package under {SRC}")
    sys.path.insert(0, str(SRC))
    from mimo_ee import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's")
    return cli


def machine_record() -> dict:
    import numpy
    record = {"nproc": len(os.sched_getaffinity(0)),
              "cpu": platform.processor() or platform.machine(),
              "python": platform.python_version(),
              "numpy": numpy.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    record["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            record[f"l{level}"] = size
    return record


class Runner:
    """Issues ops through `cli.main` and keeps what the checks need."""

    def __init__(self, cli, workload: workloads.Workload, workdir: Path):
        self.cli = cli
        self.ops = {op.key: op for op in workload.ops}
        self.config_paths = {}
        for op in workload.ops:
            path = workdir / f"{op.key}.json"
            path.write_text(json.dumps(op.config), encoding="utf-8")
            self.config_paths[op.key] = str(path)
        self.out = workdir / "out.csv"
        self.first: dict[str, bytes] = {}
        self.runs: dict[str, int] = dict.fromkeys(self.ops, 0)
        self.failed_runs: dict[str, int] = dict.fromkeys(self.ops, 0)
        self.failures: list[str] = []

    def run(self, op: workloads.Op, threads: int, call=None) -> float:
        """Seconds one invocation took; its outcome is recorded."""
        argv = [op.command, "--config", self.config_paths[op.key],
                "--out", str(self.out), "--threads", str(threads)]
        start = time.perf_counter()
        try:
            rc = call(self.cli.main, argv) if call else self.cli.main(argv)
        except Exception as exc:   # record it; the run goes on
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.runs[op.key] += 1
        problem = None
        if rc != 0:
            problem = f"exit {rc}"
        else:
            data = self.out.read_bytes()
            if self.first.setdefault(op.key, data) != data:
                problem = (f"--threads {threads}: output bytes differ from "
                           "the first run of this op")
        if problem:
            self.failed_runs[op.key] += 1
            self.failures.append(f"{op.key}: {problem}")
        return elapsed

    def run_pass(self, workload, threads: int, call=None) -> list[float]:
        return [self.run(op, threads, call) for op in workload.ops]

    def verify(self) -> tuple[int, int]:
        """(attempted, failed) runs, after checking each op's output once."""
        failed = 0
        for key, op in self.ops.items():
            problems = []
            if key in self.first:
                text = self.first[key].decode("utf-8")
                problems = checks.CHECKS[op.command](op.config, text)
            self.failures.extend(f"{key}: {p}" for p in problems)
            failed += self.runs[key] if problems else self.failed_runs[key]
        return sum(self.runs.values()), failed


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from starting an interpreter to its first request ready."""
    argv = [sys.executable, str(HERE / "run.py"), PROBE_FLAG,
            "--workload", name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as probe:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - start)
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe failed ({probe.returncode})")
    return samples


def end_to_end(cli, workload, workdir: Path, seed: int, seconds: float):
    """Whole passes over the ops for about `seconds`.

    A pass starts only if it would end no later than half a pass past
    `seconds`, so a run of long passes does not overshoot by a whole one.
    A request's latency is the median of its repetitions in the run, so a
    few seconds in which the machine runs slow move it less; p50 and p90
    are taken over the distinct requests of the pool.
    """
    runner = Runner(cli, workload, workdir)
    if workload.check_threads is not None:
        runner.run_pass(workload, workload.check_threads)
    repeats: list[list[float]] = [[] for _ in workload.ops]
    passes, wall = 0, 0.0
    start = time.perf_counter()
    while not passes or wall + wall / passes / 2 < seconds:
        for samples, elapsed in zip(
                repeats, runner.run_pass(workload, workload.threads)):
            samples.append(elapsed)
        passes += 1
        wall = time.perf_counter() - start
    attempted, failed = runner.verify()
    setup = measure_setup(workload.name, seed)
    latencies = [statistics.median(samples) for samples in repeats]
    n = len(latencies)
    sample = f"{n} requests x {passes} passes in {wall:.1f} s"
    requests_per_s = n / sum(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} interpreter starts"),
        "request_p50_ms": (1e3 * statistics.median(latencies), "ms", sample),
        "request_p90_ms": (1e3 * percentile(latencies, 90), "ms", sample),
        "requests_per_s": (requests_per_s, "1/s", sample),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / 1e6, "MB", "one process"),
    }
    extra = []
    if workload.work is not None:
        unit, amount = workload.work
        extra.append(f"{unit}_per_s {amount * requests_per_s:.6g} 1/s "
                     f"({amount} {unit} a request)")
    return runner, attempted, failed, metrics, extra


def per_layer(cli, workload, workdir: Path):
    runner = Runner(cli, workload, workdir)
    single = None
    if workload.check_threads is not None:
        start = time.perf_counter()
        runner.run_pass(workload, workload.check_threads)
        single = time.perf_counter() - start
    start = time.perf_counter()
    runner.run_pass(workload, workload.threads)
    untraced = time.perf_counter() - start

    with tracing.Tracer() as tracer:
        start = time.perf_counter()
        runner.run_pass(workload, workload.threads,
                        lambda main, argv: tracer.call_request(
                            sum(runner.runs.values()), main, argv))
        traced = time.perf_counter() - start
    attempted, failed = runner.verify()

    layers = tracing.layer_metrics(tracer)
    # the threads-1 pass times bound_gap_sweep's thread pool
    speedup = single / untraced if single is not None else 0.0
    metrics = {name: (value, unit, "") for name, (value, unit) in
               layers.items()}
    metrics.update({
        "montecarlo.thread_speedup": (speedup, "ratio",
                                      "wall at --threads 1 over --threads 2"),
        "trace.untraced_s": (untraced, "s", "one pass"),
        "trace.traced_s": (traced, "s", "the same pass, traced"),
        "trace.overhead_s": (traced - untraced, "s", ""),
    })
    extra = [f"not traced, absent from the program: {name}"
             for name in tracer.absent]
    return runner, attempted, failed, metrics, extra


def run_workload(args) -> int:
    cli = import_cli()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_probe:
            Runner(cli, workload, workdir)
            print("ready", flush=True)
            return 0
        print("machine: " + json.dumps(machine_record()))
        if args.trace:
            result = per_layer(cli, workload, workdir)
        else:
            result = end_to_end(cli, workload, workdir, args.seed,
                                args.seconds)
        runner, attempted, failed, metrics, extra = result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass   # another run still uses it

    for failure in runner.failures:
        print(f"FAIL {failure}")
    print(f"{args.workload}: seed {args.seed}, {attempted} requests, "
          f"{failed} failed (error_rate {failed / attempted:.4f})")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit:<10} {note}")
    for line in extra:
        print(f"  {line}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a child process of its own, then one summary."""
    print("machine: " + json.dumps(machine_record()))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                               cwd=ROOT, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(line for line in lines[:-1]
                        if not line.startswith("machine: ")))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {child.returncode})")
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"] and child.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="least time the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(PROBE_FLAG, action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
