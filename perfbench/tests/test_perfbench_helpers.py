"""Tests of the benchmark's helpers: self time, tail percentiles, rescaling
to reference speed, and restoring the names a tracer wraps.

Run with: python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from reference import at_reference_speed  # noqa: E402
from stats import summarize  # noqa: E402
from tracer import Tracer, self_times, totals  # noqa: E402


def span(name, start, end, parent, unit=0):
    return [name, start, end, parent, unit]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("a", 0.0, 10.0, -1),
        span("b", 1.0, 4.0, 0),
        span("d", 2.0, 3.0, 1),
        span("c", 5.0, 7.0, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_totals_filter_by_unit_and_sum_per_name():
    tracer = Tracer()
    tracer.spans += [
        span("train", 0.0, 10.0, -1, unit=-2),
        span("step", 1.0, 3.0, 0, unit=0),
        span("step", 4.0, 5.0, 0, unit=1),
        span("eval", 6.0, 9.0, 0, unit=-3),
    ]
    tracer.counts += [(0, "rows", 4), (1, "rows", 6), (-3, "rows", 100)]
    seconds, calls, counts = totals(tracer, lambda unit: unit >= 0)
    assert seconds == pytest.approx({"step": 3.0})
    assert calls == {"step": 2}
    assert counts == {"rows": 10}
    seconds, _, _ = totals(tracer, lambda unit: unit == -2)
    assert seconds["train"] == pytest.approx(4.0)


@pytest.mark.parametrize("n, tail", [
    (1, None), (19, None), (99, None),
    (100, ("p90", 90)), (999, ("p90", 900)),
    (1000, ("p99", 990)), (9999, ("p99", 9900)), (10000, ("p99.9", 9990)),
])
def test_tail_needs_ten_samples_beyond_it(n, tail):
    summary = summarize([float(x) for x in range(n, 0, -1)])
    assert summary["n"] == n
    assert summary["median"] == (n + 1) / 2
    assert summary["tail"] == tail


def test_times_rescale_by_the_mean_of_the_neighbouring_references():
    # The NumPy kernel's idle time is 2 ms: references of 2 ms leave a time
    # unchanged, and a machine twice as slow halves it.
    scaled = at_reference_speed([10.0, 20.0], [0.002, 0.002, 0.006], "numpy")
    assert scaled == pytest.approx([10.0, 10.0])


def test_wrapped_names_are_restored_even_after_an_error():
    class Net:
        def forward(self, x):
            return 2 * x

    module = type(sys)("fake_module")
    module.helper = lambda x: x + 1
    original_helper, original_forward = module.helper, Net.__dict__["forward"]
    seen = []
    with pytest.raises(ValueError):
        with Tracer() as tracer:
            tracer.wrap(module, "helper", "fake.helper")
            tracer.wrap(Net, "forward", "fake.forward",
                        before=lambda args: seen.append(args[1]),
                        after=lambda args, result: tracer.count("rows", result))
            tracer.unit = 7
            assert Net().forward(module.helper(1)) == 4
            raise ValueError
    assert module.helper is original_helper
    assert Net.__dict__["forward"] is original_forward
    assert [s[0] for s in tracer.spans] == ["fake.helper", "fake.forward"]
    assert all(s[4] == 7 and s[3] == -1 for s in tracer.spans)
    assert seen == [2] and tracer.counts == [(7, "rows", 4)]


def test_package_names_are_restored_and_spans_nest():
    worker = pytest.importorskip("worker")
    from mediated_rl import agents, approx, harness, mediator, oracle, rollout
    owners = (harness, agents, mediator, rollout, oracle, approx.Mlp, approx.Adam,
              agents.AgentLearner, mediator.MediatorLearner, mediator.LagrangeState)
    before = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    config = worker.workloads.training_config(harness, "pgg-n16", iterations=2)
    with worker.traced() as tracer:
        assert harness.sample_batch is not rollout.sample_batch
        report = harness.train(config, 0)
    assert {(id(o), k): v for o in owners for k, v in vars(o).items()} == before
    assert harness.sample_batch is rollout.sample_batch
    assert report == harness.train(config, 0)
    layers = worker.layer_metrics(tracer, config.iterations, training=True)
    assert layers["agents.update.calls"] == config.num_agents
    assert layers["rollout.agent_rows_useful_ratio"] == 1.0
    assert tracer.spans[0][0] == "harness.train"
    assert all(parent < sid for sid, (_, _, _, parent, _) in enumerate(tracer.spans))
