"""Self-tests of the benchmark harness: `python3 -m pytest perfbench`.

They use a small run (the shipped d=32 benchmark config, K=20), so they take
seconds, not the minutes a workload takes.
"""

import itertools
import json
import tempfile
from pathlib import Path

import check
import pytest
import run
from layers import Meter, instrument, layer_metrics
from tracing import Tracer, patched
from workloads import Workload

SMALL = Workload(
    "run",
    {
        "seed": 0,
        "instance": {"kind": "scsc", "preset": "benchmark", "kappa_y": 4.0, "d": 32},
        "solver": {"algorithm": "accbio", "K": 20, "N": "auto", "M": "auto", "eps": 1e-6},
    },
    ("cli", ("build_instance",)),
)


@pytest.fixture(scope="module")
def bl():
    return run.load_package()


@pytest.fixture()
def small(bl):
    """A Bench on the small run with a reference recorded from its first call."""
    bench = run.Bench(bl, "selftest", SMALL, seed=0, ref=None)
    with patched() as patches:
        bench.meter.install(patches)
        captured = {}

        def capture(out, exit_code, runs):
            captured.update(check.capture("run", out, exit_code, runs, 0))
            return {}

        bench.call(capture)
        bench.ref = captured
        yield bench
    bench.close()


def test_self_time_on_a_synthetic_nest():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        next(ticks)  # one tick of work inside the leaf

    wrapped_leaf = tracer.wrap("b.leaf", leaf)

    def middle():
        wrapped_leaf()
        wrapped_leaf()

    wrapped_middle = tracer.wrap("a.middle", middle)

    def top():
        next(ticks)
        wrapped_middle()

    tracer.wrap("a.top", top)()
    top_node = tracer.root.children["a.top"]
    middle_node = top_node.children["a.middle"]
    leaf_node = middle_node.children["b.leaf"]
    # clock reads: top 0..10, middle 2..9, leaves 3..5 and 6..8
    assert (leaf_node.calls, leaf_node.total, leaf_node.self_time) == (2, 4.0, 4.0)
    assert (middle_node.total, middle_node.self_time) == (7.0, 3.0)
    assert (top_node.total, top_node.self_time) == (10.0, 3.0)
    assert tracer.covered() == 10.0


def test_skip_under_runs_nested_calls_unwrapped():
    tracer = Tracer()
    inner = tracer.wrap("linalg.apply", lambda: None, skip_under=("linalg.",))
    outer = tracer.wrap("linalg.to_dense", lambda: [inner() for _ in range(3)])
    outer()
    inner()
    assert "linalg.apply" not in tracer.root.children["linalg.to_dense"].children
    assert tracer.root.children["linalg.apply"].calls == 1


def test_altered_counter_is_a_failed_operation(small):
    def alter(out, exit_code, runs):
        path = out / "trace.csv"
        lines = path.read_text().splitlines()
        fields = lines[-1].split(",")
        fields[4] = str(int(fields[4]) + 1)  # n_G of the last record
        lines[-1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        return small.check(out, exit_code, runs)

    assert small.call().ops == {"trace.csv": (check.OK, "")}
    status, reason = small.call(alter).ops["trace.csv"]
    assert status == check.MISMATCH and "counter" in reason


def test_float_outside_tolerance_is_a_failed_operation(small):
    def nudge(out, exit_code, runs):
        path = out / "trace.csv"
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[1] = repr(float(fields[1]) * (1 + 1e-4))  # phi_gap
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        return small.check(out, exit_code, runs)

    status, reason = small.call(nudge).ops["trace.csv"]
    assert status == check.MISMATCH and "phi_gap" in reason


def test_traced_and_untraced_counters_are_identical(small, bl):
    plain = small.call()
    tracer = Tracer()
    with patched() as patches:
        instrument(bl, tracer, patches)
        traced = small.call()
    assert traced.counters == plain.counters
    assert traced.ops == plain.ops == {"trace.csv": (check.OK, "")}
    metrics = layer_metrics(tracer, traced.counters, [traced.wall], [plain.wall])
    assert metrics["oracles.complexity"]["value"] == plain.counters["complexity"]
    assert metrics["solvers.outer.iterations"]["value"] == 20
    assert metrics["linalg.apply.calls"]["value"] > 0
    # every hook is removed again: an untraced call records no spans
    spans = sum(n.calls for n in tracer.root.walk())
    small.call()
    assert sum(n.calls for n in tracer.root.walk()) == spans


def test_battery_statuses():
    ref = {"exit": 3, "counter_runs": [], "items": {"a": True, "b": False, "c": False}}

    def statuses(items, exit_code, tmp):
        (tmp / "lower_bound_report.json").write_text(json.dumps({"items": items}))
        return {k: v[0] for k, v in check.check_call("verify-lb", tmp, exit_code, [], ref).items()}

    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench_test-") as tmp:
        tmp = Path(tmp)
        same = {"a": {"passed": True}, "b": {"passed": False}, "c": {"passed": False}}
        assert statuses(same, 3, tmp) == {"a": "ok", "b": "known_fail", "c": "known_fail"}
        fixed = {"a": {"passed": True}, "b": {"passed": True}, "c": {"passed": False}}
        assert statuses(fixed, 3, tmp)["b"] == "fixed"
        regressed = {"a": {"passed": False}, "b": {"passed": False}, "c": {"passed": False}}
        assert statuses(regressed, 3, tmp)["a"] == "mismatch"
        assert set(statuses(same, 0, tmp).values()) == {"mismatch"}


def test_meter_counts_every_counter_handle(bl):
    meter = Meter(bl, ("cli", ("build_instance",)))
    with patched() as patches:
        meter.install(patches)
        _, c1 = bl.solvers.counted(bl.cli._decoupled_oracle(4))
    assert meter.counters == [c1]
    assert bl.solvers.counted is bl.oracles.counted


def test_benchmark_json_lists_what_the_harness_prints():
    from layers import PER_LAYER
    from workloads import WORKLOADS

    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)
