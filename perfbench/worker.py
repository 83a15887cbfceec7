"""One workload run in a fresh, single-threaded interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SPANS_PATH

With TRACE 0 it times whole ``harness.train`` calls or oracle queries until
SECONDS have passed. With TRACE 1 it repeats each unit once untraced and
twice traced, derives per-layer metrics from the spans, checks that tracing
changed no result and that counts repeat, and writes the spans to
SPANS_PATH. Either way it prints one JSON object as its only output line.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import mediated_rl
from mediated_rl import agents, approx, harness, mediator, oracle, rollout

import workloads
from reference import at_reference_speed, reference_s
from stats import describe, summarize
from tracer import Tracer, totals, write_spans

# Units of spans that belong to no training iteration.
BUILD, EVAL = -2, -3
WARMUP_ITERATIONS = 10
MIN_UNITS = 3
GAP_TOLERANCE = 1e-9
CROSS_CHECK_EPISODES = 20000
CROSS_CHECK_STDERRS = 5.0

TRAINING_SPANS = (
    "rollout.sample_batch", "rollout.build_agent_batch",
    "rollout.build_mediator_batch", "approx.forward", "approx.backward",
    "approx.adam", "approx.masked_softmax", "approx.sample_categorical",
    "agents.update", "mediator.update", "mediator.td_residuals",
    "mediator.counterfactual_values", "mediator.lagrange_apply",
    "games.step_batch", "games.base_obs_batch",
    "mediation.legal_action_mask_batch",
)
ORACLE_SPANS = (
    "oracle.expected_payoffs", "oracle.best_response_gap",
    "oracle.conditional_commit_values", "oracle.normalization_constants",
)
CALL_SPANS = (
    "approx.forward", "approx.backward", "approx.adam", "agents.update",
    "mediator.counterfactual_values", "oracle.expected_payoffs",
)
# Per-layer metrics that are counts, and so must repeat exactly.
COUNT_METRICS = (
    *(f"{name}.calls" for name in CALL_SPANS), "approx.forward.rows",
    "approx.forward.flops", "rollout.agent_rows",
    "rollout.agent_rows_useful_ratio", "rollout.mediator_rows",
)


# ---------------------------------------------------------------------------
# Tracing


def traced() -> Tracer:
    """A tracer wrapping every traced name where the package looks it up."""
    tracer = Tracer()
    phase = {"iterations": 0, "sampled": 0}

    def start_train(args):
        phase["iterations"] = args[0].iterations
        phase["sampled"] = 0
        tracer.unit = BUILD

    def next_batch(args):
        # train samples one batch per iteration, then one for evaluation.
        index = phase["sampled"]
        phase["sampled"] += 1
        tracer.unit = index if index < phase["iterations"] else EVAL

    def agent_rows(args, batch):
        traj = args[0]
        tracer.count("agent_rows", len(batch))
        tracer.count("agent_slots", traj.horizon * traj.batch)

    def mediator_rows(args, batch):
        tracer.count("mediator_rows", batch.actor_actions.shape[0])

    def forward_work(args, result):
        sizes, rows = args[0].sizes, np.shape(args[1])[0]
        tracer.count("forward_rows", rows)
        # Computed, not measured: a multiply-add per weight, an add per bias.
        tracer.count("forward_flops", rows * sum(
            (2 * d_in + 1) * d_out for d_in, d_out in zip(sizes, sizes[1:])))

    for owner, attr, name, before, after in (
        (harness, "train", "harness.train", start_train, None),
        (harness, "sample_batch", "rollout.sample_batch", next_batch, None),
        (harness, "build_agent_batch", "rollout.build_agent_batch", None, agent_rows),
        (harness, "build_mediator_batch", "rollout.build_mediator_batch",
         None, mediator_rows),
        (harness, "collect_metrics", "harness.collect_metrics", None, None),
        (agents.AgentLearner, "update", "agents.update", None, None),
        (mediator.MediatorLearner, "update", "mediator.update", None, None),
        (mediator.MediatorLearner, "td_residuals", "mediator.td_residuals", None, None),
        (mediator.MediatorLearner, "counterfactual_values",
         "mediator.counterfactual_values", None, None),
        (mediator.LagrangeState, "apply", "mediator.lagrange_apply", None, None),
        (approx.Mlp, "forward_cached", "approx.forward", None, forward_work),
        (approx.Mlp, "backward", "approx.backward", None, None),
        (approx.Adam, "step", "approx.adam", None, None),
        (agents, "masked_softmax", "approx.masked_softmax", None, None),
        (mediator, "masked_softmax", "approx.masked_softmax", None, None),
        (rollout, "sample_categorical", "approx.sample_categorical", None, None),
        (rollout, "step_batch", "games.step_batch", None, None),
        (rollout, "base_obs_batch", "games.base_obs_batch", None, None),
        (rollout, "legal_action_mask_batch", "mediation.legal_action_mask_batch",
         None, None),
        *((oracle, name.split(".")[1], name, None, None) for name in ORACLE_SPANS),
    ):
        tracer.wrap(owner, attr, name, before, after)
    return tracer


def layer_metrics(tracer: Tracer, units: int, training: bool) -> dict[str, float]:
    """Per-layer metrics per unit of work (iteration or query); times are
    self times in ms. On training workloads the oracle runs only at
    evaluation, so its times there are per train call."""
    seconds, calls, counts = totals(tracer, lambda unit: unit >= 0)
    at_eval, _, _ = totals(tracer, lambda unit: unit == EVAL)
    at_build, _, _ = totals(tracer, lambda unit: unit == BUILD)
    out = {f"{name}.ms": 1e3 * seconds[name] / units for name in TRAINING_SPANS}
    for name in ORACLE_SPANS:
        out[f"{name}.ms"] = 1e3 * (at_eval[name] if training else seconds[name] / units)
    out.update({f"{name}.calls": calls[name] / units for name in CALL_SPANS})
    out["approx.forward.rows"] = counts["forward_rows"] / units
    out["approx.forward.flops"] = counts["forward_flops"] / units
    out["rollout.agent_rows"] = counts["agent_rows"] / units
    out["rollout.agent_rows_useful_ratio"] = (
        counts["agent_rows"] / counts["agent_slots"] if counts["agent_slots"] else 0.0)
    out["rollout.mediator_rows"] = counts["mediator_rows"] / units
    # Self times partition the evaluation phase, so their sum is its wall time.
    out["harness.eval.ms"] = 1e3 * sum(at_eval.values())
    out["harness.loop.ms"] = 1e3 * at_build["harness.train"] / units
    return out


def merge_layers(runs: list[dict[str, float]]) -> dict[str, float]:
    """Median of each time over the traced runs; counts from the first run."""
    merged = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
    merged.update({key: runs[0][key] for key in COUNT_METRICS})
    return merged


def count_problems(first: dict, second: dict) -> list[str]:
    return [f"count {key} differs between traced runs: {first[key]} != {second[key]}"
            for key in COUNT_METRICS if first[key] != second[key]]


# ---------------------------------------------------------------------------
# Training workloads


def timed_train(config, seed: int):
    start = time.perf_counter()
    report = harness.train(config, seed)
    return time.perf_counter() - start, report


def report_problems(report) -> list[str]:
    problems = []
    if report.aborted:
        problems.append(f"seed {report.seed} aborted: {report.abort_reason}")
    bad = [key for key, value in report.metrics.items() if not math.isfinite(value)]
    if bad:
        problems.append(f"seed {report.seed} has non-finite metrics {bad}")
    return problems


def should_stop(done: int, deadline: float, last_unit_s: float,
                minimum: int = MIN_UNITS) -> bool:
    """Stop once ``minimum`` units are done and another would pass the deadline."""
    return done >= minimum and time.perf_counter() + last_unit_s > deadline


def measure_training(name: str, seed: int, seconds: float) -> dict:
    config = workloads.timed_config(harness, name)
    zero = workloads.training_config(harness, name, iterations=0)
    seeds = workloads.training_seeds(seed)
    harness.train(workloads.training_config(harness, name, WARMUP_ITERATIONS), seed)
    deadline = time.perf_counter() + seconds
    iter_ms, lines, problems = [], [], []
    attempted = failed = 0
    if name in workloads.SOLVED:
        seed_s, report = timed_train(
            workloads.training_config(harness, name, iterations=None), next(seeds))
        problems += report_problems(report)
        attempted += 1
        failed += bool(problems)
        lines += [f"seed_s       {seed_s:.4f} s for one seed of {report.iterations} "
                  f"iterations (n=1)",
                  f"reward_norm  {report.metrics.get('reward_norm', float('nan')):.4f} "
                  f"(seed {report.seed})"]
    kind = workloads.REFERENCE[name]
    refs = [reference_s(kind)]
    for train_seed in seeds:
        t_zero, r_zero = timed_train(zero, train_seed)
        t_full, report = timed_train(config, train_seed)
        refs.append(reference_s(kind))
        unit = report_problems(r_zero) + report_problems(report)
        attempted += 1
        failed += bool(unit)
        problems += unit
        iter_ms.append(1e3 * (t_full - t_zero) / config.iterations)
        if should_stop(len(iter_ms), deadline, t_zero + t_full):
            break
    scaled = at_reference_speed(iter_ms, refs, kind)
    lines[:0] = [f"iter_ms      {describe(summarize(iter_ms), 'ms')}",
                 f"  scaled     {describe(summarize(scaled), 'ms at reference speed')}",
                 f"reference    {describe(summarize([1e3 * r for r in refs]), 'ms')}"]
    return {"unit_ms": statistics.median(scaled), "attempted": attempted,
            "failed": failed, "problems": problems, "lines": lines,
            "samples": {"iter_ms": iter_ms, "reference_ms": [1e3 * r for r in refs]}}


def trace_training(name: str, seed: int, seconds: float) -> tuple[dict, list[Tracer]]:
    config = workloads.timed_config(harness, name)
    zero = workloads.training_config(harness, name, iterations=0)
    n = config.iterations
    harness.train(workloads.training_config(harness, name, WARMUP_ITERATIONS), seed)
    tracers, runs, overhead, problems = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    for train_seed in workloads.training_seeds(seed):
        unit_start = time.perf_counter()
        t_zero, _ = timed_train(zero, train_seed)
        t_full, report = timed_train(config, train_seed)
        with traced():
            traced_zero, _ = timed_train(zero, train_seed)
        unit = report_problems(report)
        pair = []
        for _ in range(2):
            with traced() as tracer:
                traced_full, traced_report = timed_train(config, train_seed)
            if traced_report != report:
                unit.append(f"seed {train_seed}: traced RunReport differs from untraced")
            tracers.append(tracer)
            pair.append(layer_metrics(tracer, n, training=True))
        unit += count_problems(*pair)
        runs += pair
        overhead.append((traced_full - traced_zero) / (t_full - t_zero))
        attempted += 1
        failed += bool(unit)
        problems += unit
        if should_stop(attempted, deadline, time.perf_counter() - unit_start,
                       minimum=1):
            break
    layers = merge_layers(runs)
    layers["trace.overhead_ratio"] = statistics.median(overhead)
    return ({"layers": layers, "attempted": attempted, "failed": failed,
             "problems": problems,
             "lines": [f"traced seeds {attempted}, traced runs {len(runs)}"]},
            tracers)


# ---------------------------------------------------------------------------
# Oracle workload


def random_profile(spec, rng: np.random.Generator) -> oracle.MixedProfile:
    """A mediated profile with Dirichlet-uniform agent and mediator policies."""
    policies = [[rng.dirichlet(np.ones(a + 1)) for a in spec.num_actions]
                for _ in range(spec.horizon)]
    if spec.kind is mediated_rl.GameKind.ONE_SHOT_PGG:
        return oracle.MixedProfile(policies, mediated=True,
                                   mediator_by_size=rng.random(spec.num_agents + 1))
    by_coalition = [
        {bits: {i: rng.dirichlet(np.ones(spec.num_actions[i]))
                for i in range(spec.num_agents) if bits[i]}
         for bits in itertools.product((0, 1), repeat=spec.num_agents)}
        for _ in range(spec.horizon)]
    return oracle.MixedProfile(policies, mediated=True,
                               mediator_by_coalition=by_coalition)


def oracle_rounds(seed: int):
    """Endless rounds of queries, one per case, with profiles from the seed."""
    rng = np.random.default_rng(seed)
    cases = [(mediated_rl.make_spec(env, n, workloads.PGG_MULTIPLIER), k)
             for env, n, k in workloads.ORACLE_CASES]
    while True:
        yield [(spec, random_profile(spec, rng), k) for spec, k in cases]


def query(spec, profile, k: int) -> tuple:
    """One exploitability query: payoffs, normalized welfare, and every
    agent's best-response gap and conditional commit values."""
    agents_ = range(spec.num_agents)
    payoffs = oracle.expected_payoffs(spec, profile, k)
    welfare = oracle.normalized_reward(spec, float(payoffs.mean()))
    gaps = [oracle.best_response_gap(spec, profile, i, k) for i in agents_]
    commit = [oracle.conditional_commit_values(spec, profile, i, k) for i in agents_]
    return payoffs.tolist(), welfare, gaps, commit


def query_problems(spec, answer: tuple) -> list[str]:
    payoffs, welfare, gaps, commit = answer
    values = [*payoffs, welfare, *gaps, *itertools.chain(*commit)]
    problems = []
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{spec.name}: non-finite oracle output")
    if min(gaps) < -GAP_TOLERANCE:
        problems.append(f"{spec.name}: best-response gap {min(gaps)} < 0")
    return problems


def run_round(batch: list, tracer: Tracer | None = None) -> tuple[list, list[float]]:
    answers, seconds = [], []
    for index, (spec, profile, k) in enumerate(batch):
        if tracer is not None:
            tracer.unit = index
        start = time.perf_counter()
        answers.append(query(spec, profile, k))
        seconds.append(time.perf_counter() - start)
    return answers, seconds


def measure_oracle(seed: int, seconds: float) -> dict:
    rounds = oracle_rounds(seed)
    run_round(next(rounds))  # warm-up
    query_ms, round_ms, problems = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    kind = workloads.REFERENCE[workloads.ORACLE]
    refs = [reference_s(kind)]
    for batch in rounds:
        answers, times = run_round(batch)
        refs.append(reference_s(kind))
        for (spec, _, _), answer in zip(batch, answers):
            unit = query_problems(spec, answer)
            failed += bool(unit)
            problems += unit
        attempted += len(batch)
        query_ms += [1e3 * t for t in times]
        # The geometric mean weighs each query kind equally, although their
        # times differ by two orders of magnitude.
        round_ms.append(1e3 * statistics.geometric_mean(times))
        if should_stop(len(round_ms), deadline, sum(times)):
            break
    scaled = at_reference_speed(round_ms, refs, kind)
    lines = [f"query_ms     {describe(summarize(query_ms), 'ms')}",
             f"round gmean  {describe(summarize(round_ms), 'ms per query')}",
             f"  scaled     {describe(summarize(scaled), 'ms at reference speed')}",
             f"reference    {describe(summarize([1e3 * r for r in refs]), 'ms')}"]
    return {"unit_ms": statistics.median(scaled), "attempted": attempted,
            "failed": failed, "problems": problems, "lines": lines,
            "samples": {"query_ms": query_ms, "round_ms": round_ms,
                        "reference_ms": [1e3 * r for r in refs]}}


def trace_oracle(seed: int, seconds: float) -> tuple[dict, list[Tracer]]:
    rounds = oracle_rounds(seed)
    run_round(next(rounds))  # warm-up
    tracers, runs, overhead, problems = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    for batch in rounds:
        unit_start = time.perf_counter()
        answers, times = run_round(batch)
        unit = [p for (spec, _, _), answer in zip(batch, answers)
                for p in query_problems(spec, answer)]
        pair = []
        for _ in range(2):
            with traced() as tracer:
                traced_answers, traced_times = run_round(batch, tracer)
            if traced_answers != answers:
                unit.append("traced oracle answers differ from untraced")
            tracers.append(tracer)
            pair.append(layer_metrics(tracer, len(batch), training=False))
        unit += count_problems(*pair)
        runs += pair
        overhead.append(sum(traced_times) / sum(times))
        attempted += len(batch)
        failed += len(batch) if unit else 0
        problems += unit
        if should_stop(len(overhead), deadline, time.perf_counter() - unit_start):
            break
    layers = merge_layers(runs)
    layers["trace.overhead_ratio"] = statistics.median(overhead)
    return ({"layers": layers, "attempted": attempted, "failed": failed,
             "problems": problems,
             "lines": [f"traced rounds {len(overhead)} of {len(batch)} queries"]},
            tracers)


# ---------------------------------------------------------------------------
# Run-level checks and settings


def cross_check(seed: int) -> list[str]:
    """Exact expected payoffs against Monte-Carlo ones on one matrix profile."""
    rng = np.random.default_rng([seed, 1])
    spec, k = mediated_rl.make_spec("pd2"), 2
    profile = random_profile(spec, rng)
    exact = oracle.expected_payoffs(spec, profile, k)
    mean, stderr = oracle.sample_profile_payoffs(spec, profile, CROSS_CHECK_EPISODES,
                                                 rng, k)
    if np.all(np.abs(mean - exact) <= CROSS_CHECK_STDERRS * stderr):
        return []
    return [f"cross-check: exact {exact.tolist()} vs sampled {mean.tolist()} "
            f"+- {stderr.tolist()}"]


def machine_info(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload_seed": seed,
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, spans_path = argv
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(mediated_rl.__file__).resolve().parents:
        raise SystemExit(f"mediated_rl imported from {mediated_rl.__file__}, not {src}")
    checks = cross_check(seed)
    tracers = []
    if name == workloads.ORACLE:
        result, tracers = trace_oracle(seed, seconds) if trace else (
            measure_oracle(seed, seconds), [])
    elif trace:
        result, tracers = trace_training(name, seed, seconds)
    else:
        result = measure_training(name, seed, seconds)
    if tracers:
        write_spans(spans_path, tracers)
    result["attempted"] += 1
    result["failed"] += bool(checks)
    result["problems"] = checks + result["problems"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["machine"] = machine_info(seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
