"""The committed bench specs reproduce the pinned bench results bit-for-bit.

``tests/data/fig14_quick_baseline.json`` / ``fig15_quick_baseline.json``
pin the quick fig14 (placement) and fig15 (pre-warming) replays, and
``swap_quick_baseline.json`` / ``migrate_quick_baseline.json`` the quick
memory-tier and defragmentation comparisons.  Each was captured from the
bench's own module before the benches became sweep specs, and is
re-verified here, never re-captured: the quick specs
(``examples/sweeps/{cluster,prewarm,swap}_quick.json`` and
``defrag_spread.json``) must replay the same seeds through the same
operations and reproduce every per-policy metric at ``rel=1e-12`` — any
drift means a change altered behaviour, not just structure.

The pins name policies in their bench's terms: fig15's ``predictive`` is the
``autoscaler=hybrid`` cell, migrate's ``off`` / ``on`` are ``defrag=null`` /
``defrag=0.3``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.sweep import load_sweep, run_sweep

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"
SWEEPS = pathlib.Path(__file__).resolve().parents[2] / "examples" / "sweeps"

#: Counters ``cell_metrics`` omits when the memory tier / defragmenter
#: never acted; the pins record them as zero.
OPTIONAL_COUNTERS = frozenset(
    {
        "swap_promotions",
        "demotions",
        "host_evictions",
        "swap_hit_requests",
        "swap_wait_ms_mean",
        "migrations",
        "migration_aborts",
    }
)


def fresh_value(metrics: dict, key: str):
    """One pinned per-policy value, from a sweep cell's flat metrics."""
    if key == "pod_cold_starts":  # fig15: scale-ups + pre-placed pods + pre-warms
        return metrics["scale_ups"] + metrics["initial_pods"] + metrics["prewarms"]
    if key == "unserved_requests":
        return metrics["submitted"] - metrics["completed"]
    if key in OPTIONAL_COUNTERS:
        return metrics.get(key, 0)
    return metrics[key]


def assert_same(fresh, pinned, where) -> None:
    if isinstance(pinned, dict):
        assert set(fresh) == set(pinned), where
        for sub, value in pinned.items():
            assert_same(fresh[sub], value, (*where, sub))
    elif isinstance(pinned, float):
        assert fresh == pytest.approx(pinned, rel=1e-12), where
    else:
        assert fresh == pinned, where


def assert_cells_match(report, pinned: dict, axis: str, policy_of: dict) -> dict:
    """Every pinned per-policy metric equals the matching cell's; returns the cells."""
    cells = {policy_of.get(v, v): report.cell(**{axis: v}) for v in report.sweep.axes[0].values}
    assert set(cells) == set(pinned)
    for policy, base_metrics in pinned.items():
        for key, value in base_metrics.items():
            assert_same(fresh_value(cells[policy].metrics, key), value, (policy, key))
    return {policy: cell.metrics for policy, cell in cells.items()}


def assert_trace_matches(report, baseline: dict) -> None:
    """The spec replays the pinned nodes and synthetic trace shape."""
    base = report.sweep.base
    assert list(base.cluster.nodes) == baseline["nodes"]
    for fn in base.functions:
        workload = fn.workload
        assert workload.kind == "synthetic"
        trace = {"seed": base.seed, "bins": workload.bins, "bin_s": workload.bin_s}
        assert trace == baseline["trace"]


def test_fig14_quick_matches_pre_refactor_baseline(bench_report):
    baseline = json.loads((DATA / "fig14_quick_baseline.json").read_text())
    report = bench_report("cluster_quick")
    assert_trace_matches(report, baseline)
    assert_cells_match(report, baseline["policies"], "placement", {})


def test_fig15_quick_matches_pre_sweep_baseline(bench_report):
    baseline = json.loads((DATA / "fig15_quick_baseline.json").read_text())
    report = bench_report("prewarm_quick")
    assert_trace_matches(report, baseline)
    cells = assert_cells_match(
        report, baseline["policies"], "autoscaler", {"hybrid": "predictive"}
    )
    reactive, predictive = cells["reactive"], cells["predictive"]
    headline = baseline["headline"]
    assert reactive["slo_violation_ratio"] / predictive["slo_violation_ratio"] == (
        pytest.approx(headline["violation_improvement_vs_reactive"], rel=1e-12)
    )
    assert predictive["gpu_seconds"] / reactive["gpu_seconds"] - 1.0 == pytest.approx(
        headline["gpu_seconds_overhead_vs_reactive"], rel=1e-12
    )


def test_swap_quick_matches_swap_bench_baseline(bench_report):
    baseline = json.loads((DATA / "swap_quick_baseline.json").read_text())
    report = bench_report("swap_quick")
    base = report.sweep.base
    assert list(base.cluster.nodes) == baseline["nodes"]
    assert len(base.functions) == baseline["fleet_size"]
    assert base.cluster.host_memory_mb == baseline["host_memory_mb"]
    assert base.cluster.fabric_gbps == baseline["fabric_gbps"]
    cells = assert_cells_match(report, baseline["policies"], "autoscaler", {})
    for other in ("hybrid", "warmidle"):
        saving = 1.0 - cells["memtier"]["gpu_seconds"] / cells[other]["gpu_seconds"]
        label = "scale_to_zero" if other == "hybrid" else "warmidle"
        assert saving == pytest.approx(
            baseline["headline"][f"gpu_seconds_saving_vs_{label}"], rel=1e-12
        )


def test_migrate_quick_matches_migrate_bench_baseline(bench_report):
    baseline = json.loads((DATA / "migrate_quick_baseline.json").read_text())
    report = bench_report("defrag_spread")
    base = report.sweep.base
    assert list(base.cluster.nodes) == baseline["nodes"]
    assert len(base.functions) == baseline["fleet_size"]
    assert [list(s) for s in base.functions[0].workload.steps] == [
        baseline["trace"]["burst"],
        baseline["trace"]["tail"],
    ]
    assert baseline["threshold"] in report.sweep.axes[0].values
    # defrag_spread also sweeps a 0.5 threshold the migrate bench never ran.
    on = report.cell(defrag=baseline["threshold"]).metrics
    off = report.cell(defrag=None).metrics
    for name, metrics in (("off", off), ("on", on)):
        for key, value in baseline["cells"][name].items():
            assert_same(fresh_value(metrics, key), value, (name, key))
    assert 1.0 - on["mean_gpus"] / off["mean_gpus"] == pytest.approx(
        baseline["headline"]["mean_gpus_saving"], rel=1e-12
    )
    assert on["migrations"] == baseline["headline"]["migrations"]


def test_fig14_jobs_matches_serial(bench_report):
    """The pooled per-policy cells reproduce the serial replay exactly."""
    serial = bench_report("cluster_quick")
    parallel = run_sweep(load_sweep(str(SWEEPS / "cluster_quick.json")), jobs=2)
    assert parallel.to_json() == serial.to_json()


def test_fig14_scenarios_differ_only_in_placement_policy():
    """The per-policy cells are identical Scenarios up to the policy field."""
    cells = load_sweep(str(SWEEPS / "cluster_quick.json")).cells()
    specs = {dict(c.coords)["placement"]: c.scenario.to_dict() for c in cells}
    a, b = specs["binpack"], specs["spread"]
    assert a["functions"] == b["functions"]
    assert a["cluster"] == b["cluster"]
    assert a["measurement"] == b["measurement"]
    # to_dict omits defaulted fields, so binpack (the default) is implicit.
    assert a["autoscaler"].get("placement", "binpack") == "binpack"
    assert b["autoscaler"]["placement"] == "spread"
    assert {k: v for k, v in a["autoscaler"].items() if k != "placement"} == {
        k: v for k, v in b["autoscaler"].items() if k != "placement"
    }
