"""Declarative parameter sweeps over Scenarios: one grid → run, diff, frontier.

:mod:`repro.sweep.spec` defines the JSON-round-trippable :class:`Sweep`
(a base :class:`~repro.scenario.spec.Scenario` plus named axes — placement ×
autoscaler × nodes × fleet size × workload scale × headroom);
:mod:`repro.sweep.runner` expands and executes the grid through the one
scenario code path (serially or on the experiment process pool); and
:mod:`repro.sweep.report` reduces the cells into a :class:`SweepReport` with
first-class comparisons (per-axis deltas, the SLO-vs-GPU-cost Pareto
frontier, saved-report diffing, and the spec's declared ``assert``
headlines).  The usual entry points::

    from repro.sweep import load_sweep, run_sweep

    report = run_sweep(load_sweep("examples/sweeps/azure_fleet.json"), quick=True)
    print(report.summary())
"""

from repro.sweep.report import (
    HEADLINE_METRICS,
    AssertionResult,
    CellResult,
    SweepReport,
    diff_reports,
    load_sweep_report,
)
from repro.sweep.runner import cell_metrics, run_cell, run_sweep
from repro.sweep.spec import (
    ASSERT_METRICS,
    SWEEP_AXES,
    SWEEP_FORMAT,
    Sweep,
    SweepAssertion,
    SweepAxis,
    SweepCell,
    SweepError,
    apply_axis,
    coords_key,
    derive_cell_seed,
    load_sweep,
)

__all__ = [
    "ASSERT_METRICS",
    "HEADLINE_METRICS",
    "SWEEP_AXES",
    "SWEEP_FORMAT",
    "AssertionResult",
    "CellResult",
    "Sweep",
    "SweepAssertion",
    "SweepAxis",
    "SweepCell",
    "SweepError",
    "SweepReport",
    "apply_axis",
    "cell_metrics",
    "coords_key",
    "derive_cell_seed",
    "diff_reports",
    "load_sweep",
    "load_sweep_report",
    "run_cell",
    "run_sweep",
]
