"""Tests for the CI benchmark-regression gate (benchmarks/check_regression.py)."""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib

import pytest

_GATE_PATH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _GATE_PATH)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def make_report(speedup: float, resident: int = 32) -> dict:
    return {
        "benchmark": "engine",
        "quick": False,
        "workload": {"resident_bursts": resident},
        "speedup_vs_reference": speedup,
        "timer_churn": {"events_per_sec": 1_000_000.0},
        "device_churn": {"bursts_per_sec": 180_000.0},
        "device_churn_reference": {"bursts_per_sec": 1_200.0},
    }


def write(tmp_path, name: str, report: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def test_gate_passes_within_tolerance(tmp_path):
    baseline = write(tmp_path, "base.json", make_report(150.0))
    fresh = write(tmp_path, "fresh.json", make_report(120.0))  # -20% < 30% tolerance
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 0


def test_gate_fails_on_large_regression(tmp_path, capsys):
    baseline = write(tmp_path, "base.json", make_report(150.0))
    fresh = write(tmp_path, "fresh.json", make_report(90.0))  # -40% > 30% tolerance
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "REGRESSION" in capsys.readouterr().err


def test_gate_allows_improvement(tmp_path):
    baseline = write(tmp_path, "base.json", make_report(150.0))
    fresh = write(tmp_path, "fresh.json", make_report(400.0))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 0


def test_gate_rejects_workload_mismatch(tmp_path, capsys):
    baseline = write(tmp_path, "base.json", make_report(150.0, resident=32))
    fresh = write(tmp_path, "fresh.json", make_report(150.0, resident=16))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
    assert "workload mismatch" in capsys.readouterr().err


def test_gate_rejects_non_engine_report(tmp_path):
    baseline = write(tmp_path, "base.json", {"benchmark": "something"})
    fresh = write(tmp_path, "fresh.json", make_report(150.0))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2


def test_gate_rejects_bad_tolerance(tmp_path):
    baseline = write(tmp_path, "base.json", make_report(150.0))
    with pytest.raises(SystemExit):
        check_regression.main(["--baseline", baseline, "--fresh", baseline, "--tolerance", "1.5"])


def test_gate_passes_on_committed_baseline_against_itself():
    committed = str(_GATE_PATH.parent.parent / "BENCH_engine.json")
    assert check_regression.main(["--baseline", committed, "--fresh", committed]) == 0


# -- the bench specs' committed quick reports, gated as sweeps -------------------
def committed_sweep(name: str) -> dict:
    return json.loads((_GATE_PATH.parent / f"BENCH_{name}_quick.json").read_text())


def bump(report: dict, key: str, metric: str, factor: float) -> dict:
    """A copy of ``report`` with one cell's metric scaled by ``factor``."""
    report = copy.deepcopy(report)
    cell = next(c for c in report["cells"] if c["key"] == key)
    cell["metrics"][metric] *= factor
    return report


def gate(tmp_path, baseline: dict, fresh: dict) -> int:
    """The gate's exit code on two in-memory reports."""
    baseline_path = write(tmp_path, "b.json", baseline)
    return check_regression.main(
        ["--baseline", baseline_path, "--fresh", write(tmp_path, "f.json", fresh)]
    )


def test_prewarm_gate_passes_within_tolerance(tmp_path):
    baseline = committed_sweep("prewarm")
    fresh = bump(baseline, "autoscaler=hybrid", "slo_violation_ratio", 1.2)
    assert gate(tmp_path, baseline, fresh) == 0


def test_prewarm_gate_fails_on_violation_regression(tmp_path, capsys):
    baseline = committed_sweep("prewarm")
    fresh = bump(baseline, "autoscaler=hybrid", "slo_violation_ratio", 3.0)
    assert gate(tmp_path, baseline, fresh) == 1
    err = capsys.readouterr().err
    assert "REGRESSION" in err and "autoscaler=hybrid" in err


def test_prewarm_gate_allows_near_zero_noise(tmp_path):
    def oracle_at(rate: float) -> dict:
        report = committed_sweep("prewarm")
        cell = next(c for c in report["cells"] if c["key"] == "autoscaler=oracle")
        cell["metrics"].update(slo_violation_ratio=rate, effective_violation_ratio=rate)
        return report

    assert gate(tmp_path, oracle_at(0.0), oracle_at(0.004)) == 0


def test_prewarm_gate_rejects_trace_mismatch(tmp_path, capsys):
    baseline = committed_sweep("prewarm")
    fresh = copy.deepcopy(baseline)
    fresh["sweep"]["base"]["functions"][0]["workload"]["bins"] = 12
    assert gate(tmp_path, baseline, fresh) == 2
    err = capsys.readouterr().err
    assert "sweep mismatch" in err and "base" in err


def test_prewarm_gate_rejects_kind_mismatch(tmp_path, capsys):
    assert gate(tmp_path, committed_sweep("prewarm"), make_report(150.0)) == 2


def test_swap_gate_rejects_fleet_mismatch(tmp_path, capsys):
    baseline = committed_sweep("swap")
    fresh = copy.deepcopy(baseline)
    del fresh["sweep"]["base"]["functions"][-1]
    assert gate(tmp_path, baseline, fresh) == 2
    assert "sweep mismatch" in capsys.readouterr().err


def test_cluster_gate_rejects_node_mismatch(tmp_path, capsys):
    baseline = committed_sweep("cluster")
    fresh = copy.deepcopy(baseline)
    fresh["sweep"]["base"]["cluster"]["nodes"] = ["V100", "V100", "T4"]
    assert gate(tmp_path, baseline, fresh) == 2
    assert "sweep mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["cluster", "prewarm", "swap"])
def test_bench_gate_passes_on_committed_quick_report_against_itself(name):
    committed = str(_GATE_PATH.parent / f"BENCH_{name}_quick.json")
    assert check_regression.main(["--baseline", committed, "--fresh", committed]) == 0


# -- scenario gate ----------------------------------------------------------------
def make_scenario_report(overall=0.05, res=0.02, bq=0.08, completed=400, seed=42):
    return {
        "benchmark": "scenario",
        "scenario": {"name": "tiny", "seed": seed},
        "totals": {"slo_violation_ratio": overall, "completed": completed},
        "functions": {
            "res": {"slo_violation_ratio": res},
            "bq": {"slo_violation_ratio": bq},
        },
    }


def test_scenario_gate_passes_within_tolerance(tmp_path):
    baseline = write(tmp_path, "b.json", make_scenario_report())
    fresh = write(tmp_path, "f.json", make_scenario_report(res=0.024))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 0


def test_scenario_gate_fails_on_function_regression(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_scenario_report())
    fresh = write(tmp_path, "f.json", make_scenario_report(bq=0.20))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "REGRESSION" in capsys.readouterr().err


def test_scenario_gate_fails_on_overall_regression(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_scenario_report(overall=0.05))
    fresh = write(tmp_path, "f.json", make_scenario_report(overall=0.09))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "overall" in capsys.readouterr().err


def test_scenario_gate_fails_on_completed_drop(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_scenario_report(completed=400))
    fresh = write(tmp_path, "f.json", make_scenario_report(completed=200))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "completed" in capsys.readouterr().err


def test_scenario_gate_rejects_scenario_mismatch(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_scenario_report(seed=42))
    fresh = write(tmp_path, "f.json", make_scenario_report(seed=7))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
    assert "scenario mismatch" in capsys.readouterr().err


def test_scenario_gate_rejects_quick_vs_full_mismatch(tmp_path, capsys):
    quick_report = make_scenario_report()
    quick_report["quick"] = True
    full_report = make_scenario_report()
    full_report["quick"] = False
    baseline = write(tmp_path, "b.json", quick_report)
    fresh = write(tmp_path, "f.json", full_report)
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
    assert "scenario mismatch" in capsys.readouterr().err


def test_scenario_gate_passes_on_committed_baseline_against_itself():
    committed = str(_GATE_PATH.parent / "BENCH_scenario_quick.json")
    assert check_regression.main(["--baseline", committed, "--fresh", committed]) == 0


# -- sweep gate -------------------------------------------------------------------
def make_sweep_report(cells=None, name="grid", seed=7, quick=True):
    if cells is None:
        cells = {
            "placement=binpack": (0.01, 500),
            "placement=spread": (0.03, 480),
        }
    return {
        "benchmark": "sweep",
        "quick": quick,
        "sweep": {"name": name, "base": {"seed": seed}},
        "cells": [
            {
                "key": key,
                "metrics": {
                    "slo_violation_ratio": rate,
                    "effective_violation_ratio": rate,
                    "mean_gpus": 2.0,
                    "completed": completed,
                },
            }
            for key, (rate, completed) in cells.items()
        ],
    }


def test_sweep_gate_passes_within_tolerance(tmp_path):
    baseline = write(tmp_path, "b.json", make_sweep_report())
    fresh = write(
        tmp_path,
        "f.json",
        make_sweep_report(
            {"placement=binpack": (0.012, 500), "placement=spread": (0.033, 470)}
        ),
    )
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 0


def test_sweep_gate_fails_on_cell_violation_regression(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_sweep_report())
    fresh = write(
        tmp_path,
        "f.json",
        make_sweep_report(
            {"placement=binpack": (0.01, 500), "placement=spread": (0.08, 480)}
        ),
    )
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    err = capsys.readouterr().err
    assert "REGRESSION" in err and "placement=spread" in err


def test_sweep_gate_fails_on_completed_drop(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_sweep_report())
    fresh = write(
        tmp_path,
        "f.json",
        make_sweep_report(
            {"placement=binpack": (0.01, 100), "placement=spread": (0.03, 480)}
        ),
    )
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "completed requests dropped" in capsys.readouterr().err


def test_sweep_gate_allows_near_zero_noise(tmp_path):
    baseline = write(tmp_path, "b.json", make_sweep_report({"placement=binpack": (0.0, 500)}))
    fresh = write(tmp_path, "f.json", make_sweep_report({"placement=binpack": (0.004, 500)}))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 0


def test_sweep_gate_rejects_missing_cells(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_sweep_report())
    fresh = write(
        tmp_path, "f.json", make_sweep_report({"placement=binpack": (0.01, 500)})
    )
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
    assert "missing baseline cells" in capsys.readouterr().err


def test_sweep_gate_rejects_sweep_mismatch(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_sweep_report(seed=7))
    fresh = write(tmp_path, "f.json", make_sweep_report(seed=8))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
    assert "sweep mismatch" in capsys.readouterr().err


def test_sweep_gate_passes_on_committed_baseline_against_itself():
    committed = str(_GATE_PATH.parent / "BENCH_sweep_quick.json")
    assert check_regression.main(["--baseline", committed, "--fresh", committed]) == 0


# -- serve gate -------------------------------------------------------------------
def make_serve_baseline(max_violation=0.35):
    return {
        "benchmark": "serve",
        "scenario": "tiny-live",
        "quick": True,
        "reference": {"submitted": 100, "completed": 100, "slo_violation_ratio": 0.10},
        "gates": {
            "min_submitted_fraction": 0.98,
            "max_submitted_fraction": 1.10,
            "min_completed_fraction": 0.90,
            "max_slo_violation_ratio": max_violation,
        },
    }


def make_live_report(submitted=100, completed=100, violation=0.12, mode="live", quick=True):
    report = {
        "benchmark": "scenario",
        "scenario": {"name": "tiny-live", "seed": 7},
        "quick": quick,
        "functions": {"fn-a": {"slo_violation_ratio": violation}},
        "totals": {
            "submitted": submitted,
            "completed": completed,
            "slo_violation_ratio": violation,
        },
    }
    if mode is not None:
        report["mode"] = mode
    return report


def test_serve_gate_passes_within_bounds(tmp_path):
    baseline = write(tmp_path, "b.json", make_serve_baseline())
    fresh = write(tmp_path, "f.json", make_live_report())
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 0


def test_serve_gate_rejects_sim_report(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_serve_baseline())
    fresh = write(tmp_path, "f.json", make_live_report(mode=None))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
    assert "want 'live'" in capsys.readouterr().err


def test_serve_gate_fails_on_submitted_drift(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_serve_baseline())
    fresh = write(tmp_path, "f.json", make_live_report(submitted=80, completed=80))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "seed-derived arrival schedule" in capsys.readouterr().err


def test_serve_gate_fails_on_low_completion(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_serve_baseline())
    fresh = write(tmp_path, "f.json", make_live_report(completed=50))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "completed fraction" in capsys.readouterr().err


def test_serve_gate_fails_on_violation_ceiling(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_serve_baseline())
    fresh = write(tmp_path, "f.json", make_live_report(violation=0.50))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "exceeds the documented bound" in capsys.readouterr().err


def test_serve_gate_rejects_scenario_mismatch(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_serve_baseline())
    fresh = write(tmp_path, "f.json", make_live_report(quick=False))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
    assert "serve-smoke mismatch" in capsys.readouterr().err


# -- the migrate bench (defrag_spread.json) as a sweep report ---------------------


def test_migrate_gate_passes_on_identical_reports(tmp_path):
    report = committed_sweep("migrate")
    assert gate(tmp_path, report, report) == 0


def test_migrate_gate_fails_on_violation_growth(tmp_path, capsys):
    """Effective violations count never-served requests; their growth fails."""
    baseline = committed_sweep("migrate")
    fresh = bump(baseline, "defrag=0.3", "effective_violation_ratio", 1.5)
    assert gate(tmp_path, baseline, fresh) == 1
    err = capsys.readouterr().err
    assert "effective_violation_ratio regressed" in err and "defrag=0.3" in err


def test_migrate_gate_fails_on_gpu_growth(tmp_path, capsys):
    baseline = committed_sweep("migrate")
    fresh = bump(baseline, "defrag=0.3", "mean_gpus", 1.5)
    assert gate(tmp_path, baseline, fresh) == 1
    assert "mean GPUs regressed" in capsys.readouterr().err


def test_migrate_gate_rejects_fixture_mismatch(tmp_path, capsys):
    """A different defrag threshold is a different replay: exit 2, not a verdict."""
    baseline = committed_sweep("migrate")
    fresh = copy.deepcopy(baseline)
    fresh["sweep"]["axes"][0]["values"] = [None, 0.4, 0.5]
    assert gate(tmp_path, baseline, fresh) == 2
    err = capsys.readouterr().err
    assert "sweep mismatch" in err and "axes" in err
