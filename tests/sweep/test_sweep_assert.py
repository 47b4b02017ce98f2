"""Sweep ``assert`` entries: parsing, validation, evaluation and the CLI verdict.

Every bench headline is a spec assertion ``cell.metric <= factor * ref.metric
+ slack``.  The failure-path tests replay the committed quick reports through
``python -m repro sweep`` with one metric moved past its bound (the cells are
substituted for the run, so no simulation is needed) and check the exit code.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.__main__ import main
from repro.sweep import (
    ASSERT_METRICS,
    Sweep,
    SweepAssertion,
    SweepError,
    SweepReport,
    load_sweep,
    load_sweep_report,
)

REPO = pathlib.Path(__file__).resolve().parents[2]
SWEEPS = REPO / "examples" / "sweeps"
BENCHMARKS = REPO / "benchmarks"


def test_assertion_round_trips_and_describes():
    raw = {
        "cell": {"autoscaler": "memtier"},
        "metric": "gpu_seconds",
        "ref": {"autoscaler": "hybrid"},
        "factor": 0.9192,
        "slack": 0.0,
    }
    assertion = SweepAssertion.from_dict(raw)
    assert assertion.to_dict() == raw
    assert assertion.describe() == "autoscaler=memtier.gpu_seconds <= 0.9192 x autoscaler=hybrid"
    defaults = SweepAssertion.from_dict({k: raw[k] for k in ("cell", "metric", "ref")})
    assert (defaults.factor, defaults.slack) == (1.0, 0.0)


def test_every_committed_spec_round_trips():
    for path in sorted(SWEEPS.glob("*.json")):
        if path.name == "swap.json":
            continue  # names its base repo-relative; see test_swap_spec_base_string
        assert load_sweep(str(path)).to_json() == path.read_text(), path.name


def test_swap_spec_base_string_round_trips(monkeypatch):
    monkeypatch.chdir(REPO)
    sweep = load_sweep("examples/sweeps/swap.json")
    assert sweep.base_path == "examples/scenarios/longtail_swap.json"
    assert sweep.base.name == "longtail-swap" and len(sweep.base.functions) == 212
    assert sweep.to_json() == (SWEEPS / "swap.json").read_text()


def test_seed_override_inlines_a_path_base(monkeypatch, capsys):
    """``--seed`` changes the base, so the report must not claim the file's base."""
    monkeypatch.chdir(REPO)
    seen = []

    def capture(sweep, **kwargs):
        seen.append(sweep)
        raise RuntimeError("stop before running any cell")

    monkeypatch.setattr("repro.sweep.run_sweep", capture)
    assert main(["sweep", "examples/sweeps/swap.json", "--seed", "7"]) == 1
    base = seen[0].to_dict()["base"]
    assert isinstance(base, dict) and base["seed"] == 7


def test_assert_metrics_are_in_every_cell():
    report = json.loads((BENCHMARKS / "BENCH_swap_quick.json").read_text())
    for cell in report["cells"]:
        assert set(ASSERT_METRICS) <= set(cell["metrics"]), cell["key"]


def _bad_spec(tmp_path, entry: dict) -> str:
    spec = json.loads((SWEEPS / "swap_quick.json").read_text())
    spec["assert"] = [entry]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    return str(path)


GOOD = {
    "cell": {"autoscaler": "memtier"},
    "metric": "gpu_seconds",
    "ref": {"autoscaler": "hybrid"},
}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"metric": "gpu_secs"}, "unknown metric"),
        ({"cell": {"placement": "binpack"}}, "no axis 'placement'"),
        ({"ref": {"autoscaler": "oracle"}}, "not a value of that axis"),
        ({"factor": 0.0}, "factor must be positive"),
        ({"factor": -1.0}, "factor must be positive"),
        ({"cell": {}}, "non-empty"),
        ({"slack": "0.1"}, "expected a number"),
        ({"typo": 1}, "unknown field"),
    ],
)
def test_malformed_assert_exits_two_before_any_cell_runs(
    tmp_path, capsys, monkeypatch, change, message
):
    def no_run(*args, **kwargs):
        raise AssertionError("a malformed spec must not run any cell")

    monkeypatch.setattr("repro.sweep.run_sweep", no_run)
    assert main(["sweep", _bad_spec(tmp_path, {**GOOD, **change})]) == 2
    err = capsys.readouterr().err
    assert message in err and "assert[0]" in err


def test_assert_coords_must_pick_exactly_one_cell():
    spec = json.loads((SWEEPS / "azure_fleet.json").read_text())
    spec["assert"] = [
        {"cell": {"placement": "affinity"}, "metric": "p95_ms", "ref": {"placement": "binpack"}}
    ]
    with pytest.raises(SweepError, match="exactly one cell"):
        Sweep.from_dict(spec)
    spec["assert"][0]["cell"]["fleet_size"] = 24
    spec["assert"][0]["ref"]["fleet_size"] = 24
    assert len(Sweep.from_dict(spec).assertions) == 1


def _sweep_with_cells(monkeypatch, tmp_path, spec: str, committed: str, tweak: dict):
    """``repro sweep spec`` with the cells of a committed report, one metric moved."""
    report = load_sweep_report(str(BENCHMARKS / committed))
    cells = tuple(
        dataclasses.replace(cell, metrics={**cell.metrics, **tweak.get(cell.key, {})})
        for cell in report.cells
    )
    monkeypatch.setattr(
        "repro.sweep.run_sweep",
        lambda sweep, **kwargs: SweepReport(sweep=sweep, quick=False, cells=cells),
    )
    out = tmp_path / "out.json"
    code = main(["sweep", str(SWEEPS / spec), "--output", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize(
    "spec, committed",
    [
        ("prewarm_quick.json", "BENCH_prewarm_quick.json"),
        ("swap_quick.json", "BENCH_swap_quick.json"),
        ("defrag_spread.json", "BENCH_migrate_quick.json"),
    ],
)
def test_committed_quick_reports_pass_their_assertions(monkeypatch, tmp_path, spec, committed):
    code, report = _sweep_with_cells(monkeypatch, tmp_path, spec, committed, {})
    assert code == 0
    assert report["assertions"] and all(a["passed"] for a in report["assertions"])
    assert report == json.loads((BENCHMARKS / committed).read_text())


def _fails(monkeypatch, tmp_path, capsys, name, tweak, failing):
    spec, committed = {
        "prewarm": ("prewarm_quick.json", "BENCH_prewarm_quick.json"),
        "swap": ("swap_quick.json", "BENCH_swap_quick.json"),
        "migrate": ("defrag_spread.json", "BENCH_migrate_quick.json"),
    }[name]
    code, report = _sweep_with_cells(monkeypatch, tmp_path, spec, committed, tweak)
    assert code == 1
    assert [i for i, a in enumerate(report["assertions"]) if not a["passed"]] == failing
    captured = capsys.readouterr()
    assert "FAIL" in captured.out and "assertions failed" in captured.err


def test_sweep_fails_when_predictive_stops_beating_reactive(monkeypatch, tmp_path, capsys):
    tweak = {"autoscaler=hybrid": {"slo_violation_ratio": 0.30}}
    _fails(monkeypatch, tmp_path, capsys, "prewarm", tweak, [0])


def test_sweep_fails_when_swap_domination_breaks(monkeypatch, tmp_path, capsys):
    tweak = {"autoscaler=memtier": {"effective_violation_ratio": 0.21}}
    _fails(monkeypatch, tmp_path, capsys, "swap", tweak, [0])


def test_sweep_fails_when_swap_saving_shrinks(monkeypatch, tmp_path, capsys):
    # 315 GPU-s keeps memtier cheaper than both baselines (338) but gives
    # back more than 30% of the committed 11.5% saving.
    tweak = {"autoscaler=memtier": {"gpu_seconds": 315.0}}
    _fails(monkeypatch, tmp_path, capsys, "swap", tweak, [2, 3])


def test_sweep_fails_when_defrag_improvement_breaks(monkeypatch, tmp_path, capsys):
    tweak = {"defrag=0.3": {"effective_violation_ratio": 0.60}}
    _fails(monkeypatch, tmp_path, capsys, "migrate", tweak, [0])


def test_sweep_fails_when_defrag_saving_shrinks(monkeypatch, tmp_path, capsys):
    # 2.6 mean GPUs is still below defrag-off's 3.74 but a saving of ~30%,
    # under 70% of the committed 52%.
    tweak = {"defrag=0.3": {"mean_gpus": 2.6}}
    _fails(monkeypatch, tmp_path, capsys, "migrate", tweak, [1])


@pytest.mark.parametrize("name", ["cluster", "prewarm", "swap", "migrate"])
def test_root_bench_reports_are_full_runs_of_their_committed_spec(name):
    """Each root ``BENCH_<name>.json`` is a full-shape run of ``<name>.json`` (no replay)."""
    report = json.loads((REPO / f"BENCH_{name}.json").read_text())
    assert report["benchmark"] == "sweep"
    assert report["quick"] is False
    spec = json.loads((SWEEPS / f"{name}.json").read_text())
    assert report["sweep"] == spec
    results = report.get("assertions", [])
    assert len(results) == len(spec.get("assert", []))
    assert all(result["passed"] for result in results)
