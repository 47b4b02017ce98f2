"""SweepReport comparisons on hand-built reports: deltas, Pareto, diff."""

from __future__ import annotations

import pytest

from repro.scenario import (
    AutoscalerSpec,
    ClusterSpec,
    Scenario,
    ScenarioFunction,
    WorkloadSpec,
)
from repro.sweep import (
    CellResult,
    Sweep,
    SweepAxis,
    SweepError,
    SweepReport,
    diff_reports,
)


def hand_built_report() -> SweepReport:
    """A 2x2 placement x headroom grid with fabricated, known metrics."""
    base = Scenario(
        name="hand",
        seed=1,
        cluster=ClusterSpec(nodes=1),
        functions=(
            ScenarioFunction(
                name="fn",
                model="resnet50",
                workload=WorkloadSpec(kind="counts", counts=(1,), bin_s=1.0),
            ),
        ),
        autoscaler=AutoscalerSpec(policy="reactive"),
    )
    sweep = Sweep(
        name="hand-grid",
        base=base,
        axes=(
            SweepAxis(axis="placement", values=("binpack", "spread")),
            SweepAxis(axis="headroom", values=(1.3, 2.0)),
        ),
    )
    fabricated = {
        ("binpack", 1.3): {"slo_violation_ratio": 0.10, "gpu_seconds": 100.0},
        ("binpack", 2.0): {"slo_violation_ratio": 0.05, "gpu_seconds": 140.0},
        ("spread", 1.3): {"slo_violation_ratio": 0.20, "gpu_seconds": 120.0},
        ("spread", 2.0): {"slo_violation_ratio": 0.10, "gpu_seconds": 180.0},
    }
    cells = tuple(
        CellResult(
            index=i,
            coords=(("placement", p), ("headroom", h)),
            scenario_name=f"hand[placement={p},headroom={h}]",
            seed=1,
            metrics={**metrics, "completed": 100},
            report={},
        )
        for i, ((p, h), metrics) in enumerate(fabricated.items())
    )
    return SweepReport(sweep=sweep, quick=False, cells=cells)


def test_axis_deltas_average_matched_pairs():
    deltas = hand_built_report().axis_deltas()
    # spread vs binpack, matched on headroom: (+0.10, +0.05) -> mean +0.075;
    # gpu_seconds (+20, +40) -> mean +30.
    spread = deltas["placement"]["spread"]
    assert spread["slo_violation_ratio"] == pytest.approx(0.075)
    assert spread["gpu_seconds"] == pytest.approx(30.0)
    # headroom 2.0 vs 1.3, matched on placement: (-0.05, -0.10) -> -0.075;
    # gpu_seconds (+40, +60) -> +50.
    relaxed = deltas["headroom"]["2.0"]
    assert relaxed["slo_violation_ratio"] == pytest.approx(-0.075)
    assert relaxed["gpu_seconds"] == pytest.approx(50.0)
    # Metrics absent from the fabricated cells (NaN) don't appear at all.
    assert "p95_ms" not in spread


def test_pareto_frontier_drops_dominated_cells():
    report = hand_built_report()
    frontier = {cell.key for cell in report.pareto()}
    # (100, 0.10) and (140, 0.05) survive; (120, 0.20) and (180, 0.10) are
    # dominated by (100, 0.10).
    assert frontier == {
        "placement=binpack,headroom=1.3",
        "placement=binpack,headroom=2.0",
    }
    ordered = [cell.metric("gpu_seconds") for cell in report.pareto()]
    assert ordered == sorted(ordered)


def test_single_axis_value_has_no_deltas():
    report = hand_built_report()
    one_value = SweepReport(
        sweep=Sweep(
            name="one",
            base=report.sweep.base,
            axes=(SweepAxis(axis="placement", values=("binpack",)),),
        ),
        quick=False,
        cells=report.cells[:1],
    )
    assert one_value.axis_deltas() == {}


def test_payload_embeds_diffs_and_pareto():
    payload = hand_built_report().to_dict()
    assert payload["benchmark"] == "sweep"
    assert payload["diffs"]["placement"]["spread"]["gpu_seconds"] == pytest.approx(30.0)
    assert payload["pareto"]["cells"] == [
        "placement=binpack,headroom=1.3",
        "placement=binpack,headroom=2.0",
    ]


def test_cell_lookup_by_coords():
    report = hand_built_report()
    cell = report.cell(placement="spread", headroom=2.0)
    assert cell.metric("gpu_seconds") == pytest.approx(180.0)
    with pytest.raises(KeyError):
        report.cell(placement="affinity")
    # An axis the sweep lacks is an error, not a wildcard: defrag=None must
    # not match every cell just because none of them has a defrag coordinate.
    with pytest.raises(KeyError, match="no axis"):
        report.cell(placement="spread", headroom=2.0, defrag=None)
    # Coordinates matching several cells are ambiguous, not "the first one".
    with pytest.raises(KeyError, match="2 cells match"):
        report.cell(placement="spread")


def test_diff_reports_matches_cells_and_shows_deltas():
    a = hand_built_report()
    shifted_cells = tuple(
        CellResult(
            index=cell.index,
            coords=cell.coords,
            scenario_name=cell.scenario_name,
            seed=cell.seed,
            metrics={
                **cell.metrics,
                "slo_violation_ratio": cell.metrics["slo_violation_ratio"] + 0.01,
            },
            report={},
        )
        for cell in a.cells
    )
    b = SweepReport(sweep=a.sweep, quick=False, cells=shifted_cells)
    text = diff_reports(a, b)
    assert "matched 4" in text
    assert "+1.00" in text  # +0.01 violation ratio == +1.00 percentage points


def test_diff_reports_lists_unmatched_cells():
    a = hand_built_report()
    b = SweepReport(sweep=a.sweep, quick=False, cells=a.cells[:2])
    text = diff_reports(a, b)
    assert "matched 2" in text
    assert "only in A" in text


def test_diff_reports_requires_overlap():
    a = hand_built_report()
    rekeyed = tuple(
        CellResult(
            index=cell.index,
            coords=(("placement", "affinity"), ("headroom", 9.0)),
            scenario_name=cell.scenario_name,
            seed=cell.seed,
            metrics=cell.metrics,
            report={},
        )
        for cell in a.cells[:1]
    )
    b = SweepReport(sweep=a.sweep, quick=False, cells=rekeyed)
    with pytest.raises(SweepError, match="no matching cells"):
        diff_reports(a, b)
