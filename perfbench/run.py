"""Benchmark of mediated-rl training and oracle queries.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. Each workload runs in a fresh,
single-threaded interpreter against the package in ``src/``. With
``--trace 0`` the last output line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones; the lines before it are a readable table
with the machine and run settings. ``all`` runs every workload both ways.
Results and spans are written under ``perfbench/out/``. Metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = 1


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # A fixed string-hash seed keeps dict layouts, and so their speed, the
    # same in every process.
    env["PYTHONHASHSEED"] = "0"
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update({var: threads for var in BLAS_THREAD_VARS})
    return env


def run_child(args: list[str], deadline: float) -> str:
    """Run a Python script of the benchmark; return its last output line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached")
    try:
        done = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} exceeded the time limit") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{args[0]} failed ({done.returncode}):\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def setup_seconds(name: str, seed: int, deadline: float) -> tuple[list, list]:
    """Set-up times at reference speed and raw, from fresh interpreters;
    the first, which may still compile bytecode, is discarded."""
    probe = [str(HERE / "setup_probe.py"), name, str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS + 1):
        at_speed, seconds, module = run_child(probe, deadline).split(" ", 2)
        if not Path(module).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"set-up probe imported {module}")
        scaled.append(float(at_speed))
        raw.append(float(seconds))
    return scaled[1:], raw[1:]


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 spec: dict) -> dict:
    """Measure one workload; print its table and return the result object."""
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    setup, setup_raw = ([], []) if trace else setup_seconds(name, seed, deadline)
    worker = json.loads(run_child(
        [str(HERE / "worker.py"), name, str(seed), str(seconds), str(trace),
         str(OUT / f"spans-{name}.jsonl.gz")], deadline))
    if trace:
        values = worker["layers"]
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup), "unit_ms": worker["unit_ms"],
                  "peak_rss_mb": worker["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": worker["failed"] == 0, "attempted": worker["attempted"],
              "failed": worker["failed"], "metrics": metrics}

    print(f"# workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
    print("# machine " + "  ".join(f"{k} {v}" for k, v in worker["machine"].items()))
    if setup:
        print(f"setup_s      median {statistics.median(setup):.4f} s at reference speed "
              f"over {len(setup)} fresh interpreters: {[round(s, 4) for s in setup]}")
        print(f"  raw        median {statistics.median(setup_raw):.4f} s: "
              f"{[round(s, 4) for s in setup_raw]}")
    for line in worker["lines"]:
        print(line)
    print(f"fail_rate    {worker['failed'] / worker['attempted']:.4f} "
          f"({worker['failed']} of {worker['attempted']} seeds, queries and checks)")
    for problem in worker["problems"][:20]:
        print(f"FAILED CHECK {problem}")
    for key, metric in metrics.items():
        print(f"{key:<40} {metric['value']:>16.6g} {metric['unit']}")
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**result, "setup_s_samples": setup, "setup_s_raw": setup_raw,
         "worker": worker}, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mediated_rl" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'mediated_rl'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, spec)
        else:
            parts = {(name, trace): run_workload(name, args.seed, args.seconds,
                                                 trace, spec)
                     for name in workloads.NAMES for trace in (0, 1)}
            result = {
                "correct": all(p["correct"] for p in parts.values()),
                "attempted": sum(p["attempted"] for p in parts.values()),
                "failed": sum(p["failed"] for p in parts.values()),
                "metrics": {f"{name}/{key}": metric
                            for (name, _), p in parts.items()
                            for key, metric in p["metrics"].items()},
            }
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
