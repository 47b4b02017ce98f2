"""Smoke tests for the experiment runners (quick scale).

The benchmarks assert the paper shapes at slightly larger scale; these tests
guard that every runner executes, returns well-formed results, and that the
headline directions hold even at the smallest scale.  The fig14/fig15, swap
and migrate benches are sweep specs; their tests read the quick specs'
reports and their ``assert`` verdicts.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments import (
    ablations,
    fig01_motivation,
    fig09_isolation,
    fig11_scheduler,
    fig12_autoscaling,
    fig13_modelsharing,
)
from repro.gpu.specs import gpu_spec
from repro.models.scaling import gpu_type_factor
from repro.sweep import load_sweep, run_sweep

REPO = pathlib.Path(__file__).resolve().parents[1]


def test_fig01_quick():
    result = fig01_motivation.run(quick=True)
    assert result.time_sharing.gpu_utilization > result.device_plugin.gpu_utilization
    assert result.time_sharing.sm_occupancy < 10
    assert "Fig. 1" in fig01_motivation.format_result(result)


def test_fig09_quick():
    result = fig09_isolation.run(quick=True)
    assert result.time_sharing.interference_drop > result.spatio_temporal.interference_drop
    assert len(result.time_sharing.resnet_series) > 10
    assert "isolation" in fig09_isolation.format_result(result)


def test_fig11_quick():
    result = fig11_scheduler.run(quick=True)
    assert result.fast_scheduler.gpus_used == 1
    assert result.time_sharing.gpus_used == 4
    assert "GPU 0" in fig11_scheduler.format_result(result)


def test_fig12_quick():
    result = fig12_autoscaling.run(quick=True)
    assert result.completed == result.submitted
    assert result.max_replicas >= 2
    assert len(result.times) == len(result.offered_rps)
    assert "auto-scaling" in fig12_autoscaling.format_result(result)


def test_fig13_quick():
    result = fig13_modelsharing.run(quick=True)
    assert result.bar("resnet50").original_mb == pytest.approx(1525, abs=1)
    assert result.resnext_pods_with_sharing > result.resnext_pods_without_sharing
    assert "memory footprint" in fig13_modelsharing.format_result(result)


def test_fig14_quick(bench_report):
    """fig14 is the ``cluster_quick.json`` spec: one cell per placement policy."""
    report = bench_report("cluster_quick")
    nodes = report.sweep.base.cluster.nodes
    assert len(nodes) >= 3
    assert len({gpu_type_factor(gpu_spec(name)) for name in nodes}) >= 3
    policies = [dict(cell.coords)["placement"] for cell in report.cells]
    assert policies == ["binpack", "spread", "affinity"]
    functions = {fn.name for fn in report.sweep.base.functions}
    for cell in report.cells:
        metrics = cell.metrics
        assert metrics["completed"] > 0
        assert 0.0 <= metrics["slo_violation_ratio"] <= 1.0
        assert 1 <= metrics["peak_gpus"] <= len(nodes)
        assert set(metrics["per_function_violations"]) == functions
    assert "placement=affinity" in report.summary()


def test_fig15_quick(bench_report):
    """fig15 is the ``prewarm_quick.json`` spec: one cell per autoscaler."""
    report = bench_report("prewarm_quick")
    policies = [dict(cell.coords)["autoscaler"] for cell in report.cells]
    assert policies == ["reactive", "hybrid", "oracle"]
    functions = {fn.name for fn in report.sweep.base.functions}
    for cell in report.cells:
        metrics = cell.metrics
        assert metrics["completed"] > 0
        assert 0.0 <= metrics["slo_violation_ratio"] <= 1.0
        assert metrics["gpu_seconds"] > 0
        assert set(metrics["per_function_violations"]) == functions
    reactive = report.cell(autoscaler="reactive").metrics
    assert reactive["prewarms"] == 0 and reactive["promotions"] == 0
    assert report.cell(autoscaler="hybrid").metrics["prewarms"] > 0
    assert report.sweep.assertions and all(r.passed for r in report.check())


def test_fig15_trace_file_roundtrip(tmp_path):
    """A saved trace file replays exactly like the synthetic workload it came from."""
    import dataclasses

    from repro.faas.traces import synthesize_trace_set
    from repro.scenario import WorkloadSpec
    from repro.sweep import SweepAxis

    synthetic = load_sweep(str(REPO / "examples" / "sweeps" / "prewarm_quick.json"))
    synthetic = dataclasses.replace(
        synthetic,
        assertions=(),
        axes=(SweepAxis(axis="autoscaler", values=("reactive", "hybrid")),),
    )
    base = synthetic.base
    trace_set = synthesize_trace_set(
        [(f.name, f.model, f.workload.shape, f.workload.mean_rps) for f in base.functions],
        bins=base.functions[0].workload.bins,
        bin_s=base.functions[0].workload.bin_s,
        seed=base.seed,
    )
    path = tmp_path / "traces.json"
    trace_set.save(str(path))
    from_file = dataclasses.replace(
        synthetic,
        base=dataclasses.replace(
            base,
            functions=tuple(
                dataclasses.replace(f, workload=WorkloadSpec(kind="trace", path=str(path)))
                for f in base.functions
            ),
        ),
    )
    replayed = run_sweep(from_file)
    expected = run_sweep(synthetic)
    assert [c.metrics for c in replayed.cells] == [c.metrics for c in expected.cells]


def test_swap_bench_quick(bench_report):
    report = bench_report("swap_quick")
    policies = [dict(cell.coords)["autoscaler"] for cell in report.cells]
    assert policies == ["hybrid", "warmidle", "memtier"]
    memtier = report.cell(autoscaler="memtier").metrics
    assert memtier["demotions"] > 0  # the tier actually acted
    assert memtier["swap_promotions"] > 0
    for cell in report.cells:
        metrics = cell.metrics
        assert metrics["submitted"] > 0
        assert 0.0 <= metrics["effective_violation_ratio"] <= 1.0
        assert metrics["slo_violation_ratio"] <= metrics["effective_violation_ratio"] + 1e-12
        assert metrics["gpu_seconds"] > 0
    for baseline in ("hybrid", "warmidle"):
        assert "demotions" not in report.cell(autoscaler=baseline).metrics
    # The committed quick configuration is the CI gate: domination must hold.
    results = report.check()
    assert len(results) == 4 and all(r.passed for r in results)
    assert [r["passed"] for r in report.to_dict()["assertions"]] == [True] * 4


def test_swap_bench_jobs_matches_serial(bench_report):
    pooled = run_sweep(load_sweep(str(REPO / "examples" / "sweeps" / "swap_quick.json")), jobs=2)
    assert pooled.to_json() == bench_report("swap_quick").to_json()


def test_swap_bench_longtail_fleet_shape(monkeypatch):
    """The full swap spec's base is the committed 212-function long-tail fleet."""
    from repro.models import MODEL_ZOO
    from repro.scenario import load_scenario

    monkeypatch.chdir(REPO)  # the spec names its base file repo-relative
    fleet = load_scenario("examples/scenarios/longtail_swap.json")
    assert load_sweep("examples/sweeps/swap.json").base == fleet
    assert len(fleet.functions) == 212
    tiers = {fn.name.split("-")[0] for fn in fleet.functions}
    assert tiers == {"head", "tail", "rare"}
    assert sum(fn.name.startswith("rare-") for fn in fleet.functions) == 200
    for fn in fleet.functions:
        assert fn.model in MODEL_ZOO
        if fn.workload.kind == "synthetic":
            assert fn.workload.mean_rps > 0
        else:
            assert sum(fn.workload.counts) > 0


def test_ablation_format():
    placement = ablations.run_placement_ablation(pods=40)
    tokens = ablations.run_token_ablation(duration=3.0)
    priority = ablations.run_priority_ablation(duration=3.0)
    text = ablations.format_results(placement, tokens, priority)
    assert "Ablation A1" in text and "Ablation A3" in text


def test_cli_list_and_run(capsys):
    from repro.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig08" in out and "headline" in out

    assert main(["run", "fig13", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 13" in out and "finished" in out


def test_migrate_bench_quick(bench_report):
    """The migrate bench's quick shape is ``defrag_spread.json``."""
    report = bench_report("defrag_spread")
    assert [dict(c.coords)["defrag"] for c in report.cells] == [None, 0.3, 0.5]
    off = report.cell(defrag=None).metrics
    on = report.cell(defrag=0.3).metrics
    assert "migrations" not in off and "migration_aborts" not in off
    assert on["migrations"] > 0  # the defragmenter actually acted
    for cell in report.cells:
        metrics = cell.metrics
        assert metrics["submitted"] > 0
        assert 0.0 <= metrics["effective_violation_ratio"] <= 1.0
        assert metrics["slo_violation_ratio"] <= metrics["effective_violation_ratio"] + 1e-12
        # Migrations must not lose a single request.
        assert metrics["submitted"] == metrics["completed"]
    # The committed quick configuration is the CI gate: the improvement
    # headline must hold.
    results = report.check()
    assert len(results) == 2 and all(r.passed for r in results)
