"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench/tests -q

They run shrunk (``Scenario.quick``) variants of the committed workloads, so
the whole file takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run as bench  # noqa: E402

from repro.scenario import Scenario  # noqa: E402


COMMITTED_SPEC = bench.load_spec


def quick_spec(workload: str) -> str:
    return Scenario.from_json(COMMITTED_SPEC(workload)).quick().to_json()


def benchmark_names(section: str) -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def run_main(monkeypatch, capsys, trace: int) -> dict:
    monkeypatch.setattr(bench, "load_spec", quick_spec)
    monkeypatch.setitem(bench.WORKLOADS, "dense_fleet", (1013, 1))
    monkeypatch.setattr(bench, "SETUP_REPS", 1)
    code = bench.main(["--workload", "dense_fleet", "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(out[-1])


@pytest.mark.parametrize(("trace", "section"), [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_benchmark_json(monkeypatch, capsys, trace, section):
    result = run_main(monkeypatch, capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert list(result["metrics"]) == benchmark_names(section)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}


@pytest.fixture(scope="module")
def dense_outcome() -> bench.Outcome:
    done = bench.replay(quick_spec("dense_fleet"), 7)
    bench.check_outcome(done.outcome)
    return done.outcome


def one_completion_too_many(outcome: bench.Outcome) -> bench.Outcome:
    """A self-consistent report whose first function completed more
    requests than it was sent."""
    (submitted, _), *rest = outcome.function_counts
    counts = ((submitted, submitted + 1), *rest)
    return dataclasses.replace(
        outcome,
        function_counts=counts,
        completed=sum(c for _, c in counts),
        latencies_ms=np.append(
            outcome.latencies_ms,
            np.zeros(sum(c for _, c in counts) - outcome.latencies_ms.size),
        ),
    )


@pytest.mark.parametrize(
    "doctor",
    [
        one_completion_too_many,
        lambda o: dataclasses.replace(
            o, function_counts=((5, 6),) + o.function_counts[1:]
        ),
        lambda o: dataclasses.replace(o, latencies_ms=-o.latencies_ms),
        lambda o: dataclasses.replace(o, gpu_seconds=float("nan")),
    ],
    ids=["completed-exceeds-submitted", "function-total-mismatch", "negative-latency", "nan"],
)
def test_checks_fail_on_doctored_report(dense_outcome, doctor):
    with pytest.raises(bench.CheckFailed):
        bench.check_outcome(doctor(dense_outcome))


def test_same_seed_check_catches_a_perturbed_model(dense_outcome):
    perturbed = dataclasses.replace(dense_outcome, latencies_ms=dense_outcome.latencies_ms * 1.0001)
    with pytest.raises(bench.CheckFailed):
        bench.check_same(dense_outcome, perturbed, "traced run")


def test_setup_only_replay_stops_at_the_first_arrival():
    done = bench.replay(quick_spec("dense_fleet"), 7, setup_only=True)
    assert done.outcome is None and done.setup_s > 0


def test_slicing_the_run_does_not_change_the_model(monkeypatch):
    spec = quick_spec("dense_fleet")
    sliced = bench.replay(spec, 7)
    assert len(sliced.slices_s) == bench.SLICES + 1  # the report is the last slice
    assert len(sliced.calibration_s) == bench.SLICES
    assert sliced.run_s == sum(sliced.slices_s)
    monkeypatch.setattr(bench, "sliced", lambda engine, marks, calibration_s: engine.run)
    whole = bench.replay(spec, 7)
    assert len(whole.slices_s) == 1
    bench.check_same(whole.outcome, sliced.outcome, "sliced run")


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_attribution_maps_every_executed_module(workload):
    executed: set[str] = set()

    def profile(frame, event, arg):
        if event == "call":
            executed.add(frame.f_globals.get("__name__", ""))

    spec = quick_spec(workload)
    bench.replay(spec, 1)  # import everything the workload loads first
    sys.setprofile(profile)
    try:
        bench.replay(spec, 1)
    finally:
        sys.setprofile(None)
    program = {m for m in executed if m == "repro" or m.startswith("repro.")}
    assert program, "the workload executed no program code"
    assert {m for m in program if layers.layer_of(m) is None} == set()


def test_traced_run_leaves_no_wrapper_behind():
    from repro.sim.engine import Engine

    original = Engine.schedule_at
    recorder = layers.SpanRecorder()
    with layers.Attribution(recorder):
        assert Engine.schedule_at is not original
        done = bench.replay(quick_spec("dense_fleet"), 7, recorder=recorder)
    assert Engine.schedule_at is original
    bench.check_spans(recorder)
    assert recorder.events_run > 0 and done.outcome.completed > 0
    assert sum(recorder.self_s.values()) == pytest.approx(recorder.window_s)


def test_layer_of_prefers_the_longest_prefix():
    assert layers.layer_of("repro.scheduler.mra") == "scheduler"
    assert layers.layer_of("repro.models.zoo") == "profiler"
    assert layers.layer_of("repro.platform") == "scenario"
    assert layers.layer_of("repro.serve.server") is None
    assert layers.layer_of("numpy.core") is None


@pytest.mark.parametrize(
    ("spec", "counts"),
    [
        ({"measurement": {}}, {"obs.events": 3, "migrate.migrations": 0}),
        ({"cluster": {"defrag": {"threshold": 0.3}}}, {"obs.events": 0, "migrate.migrations": 0}),
    ],
    ids=["telemetry-off-but-events", "defrag-on-but-no-migration"],
)
def test_layer_load_check_fails_when_a_switch_does_not_show(spec, counts):
    with pytest.raises(bench.CheckFailed):
        bench.check_layers_loaded(spec, counts)
