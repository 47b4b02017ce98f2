"""Execute a declarative :class:`~repro.sweep.spec.Sweep`, cell by cell.

Each grid cell is one fully materialized Scenario replayed through
:func:`repro.scenario.runner.run_scenario` — the same single code path every
figure and bench uses — either serially or fanned across the experiment
harness's process pool (:func:`repro.experiments.runner.map_tasks`).  Both
paths run the same module-level :func:`run_cell` with the same derived
seeds, so a ``jobs=N`` sweep serializes bit-identically to the serial one;
only wall-clock time differs (and wall-clock never enters the payload).

Workers reduce each cell to a :class:`~repro.sweep.report.CellResult` — the
flat headline metrics plus the embedded ScenarioReport payload — instead of
shipping live request logs across process boundaries.  Pooled cold/queue
wait means are computed in-worker from the raw logs, in function order, so
they match the single-process reduction exactly.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import typing as _t

from repro.scenario.report import ScenarioReport
from repro.scenario.runner import run_scenario
from repro.sweep.report import CellResult, SweepReport
from repro.sweep.spec import Sweep, SweepCell


@dataclasses.dataclass(frozen=True, slots=True)
class CellTask:
    """One unit of pool work: a grid cell plus the run mode (picklable)."""

    cell: SweepCell
    quick: bool


def cell_metrics(report: ScenarioReport) -> dict[str, _t.Any]:
    """Reduce one cell's ScenarioReport to the flat comparison metrics.

    The pooled cold/queue wait means iterate the per-function logs in fleet
    order — the same accumulation the pre-sweep fig15 loop used — so the
    rerouted benches reproduce their pinned baselines bit-for-bit.
    """
    all_cold = [w for o in report.functions for w in o.run.log.cold_waits_ms()]
    all_queue = [w for o in report.functions for w in o.run.log.queue_waits_ms()]
    submitted, completed = report.submitted, report.completed
    # Never-served requests count as violations, so a policy cannot win by
    # leaving work unplaced: (violated + unserved) / submitted.  Under a
    # measurement warm-up, in-window completions of earlier arrivals can
    # exceed in-window submissions, pulling this slightly below the raw ratio.
    violated = report.overall_violation_ratio * completed
    metrics = {
        "submitted": submitted,
        "completed": completed,
        "slo_violation_ratio": report.overall_violation_ratio,
        "effective_violation_ratio": (
            (violated + (submitted - completed)) / submitted if submitted else 0.0
        ),
        "p95_ms": report.overall_p95_ms,
        "gpu_seconds": report.gpu_seconds,
        "mean_gpus": report.mean_gpus,
        "peak_gpus": report.peak_gpus,
        "mean_alloc_fraction": report.mean_alloc_fraction,
        "cold_hit_requests": sum(o.run.cold_hit_requests for o in report.functions),
        "cold_wait_ms_mean": sum(all_cold) / len(all_cold) if all_cold else 0.0,
        "queue_wait_ms_mean": sum(all_queue) / len(all_queue) if all_queue else 0.0,
        "scale_ups": report.scale_ups,
        "scale_downs": report.scale_downs,
        "nofit_events": report.nofit_events,
        "prewarms": report.prewarms,
        "promotions": report.promotions,
        "retirements": report.retirements,
        "initial_pods": sum(f.initial_count for f in report.scenario.functions),
        "per_function_violations": report.per_function_violations,
        "node_utilization": dict(report.node_utilization),
    }
    # Memory-tier metrics only appear when the tier acted, keeping
    # memtier-off sweep reports byte-identical to pre-tier baselines.
    if report.swap_promotions or report.demotions or report.host_evictions:
        all_swap = [w for o in report.functions for w in o.run.log.swap_waits_ms()]
        metrics["swap_promotions"] = report.swap_promotions
        metrics["demotions"] = report.demotions
        metrics["host_evictions"] = report.host_evictions
        metrics["swap_hit_requests"] = sum(
            o.run.swap_hit_requests for o in report.functions
        )
        metrics["swap_wait_ms_mean"] = sum(all_swap) / len(all_swap) if all_swap else 0.0
    # Migration counts likewise: defrag-off cells stay byte-identical.
    if report.migrations or report.migration_aborts:
        metrics["migrations"] = report.migrations
        metrics["migration_aborts"] = report.migration_aborts
    return metrics


def run_cell(task: CellTask) -> CellResult:
    """Execute one cell (module-level so it pickles into worker processes)."""
    start = time.perf_counter()
    report = run_scenario(task.cell.scenario, quick=task.quick)
    return CellResult(
        index=task.cell.index,
        coords=task.cell.coords,
        scenario_name=report.scenario.name,
        seed=task.cell.seed,
        metrics=cell_metrics(report),
        report=report.to_dict(),
        elapsed=time.perf_counter() - start,
    )


def run_sweep(
    sweep: Sweep,
    quick: bool = False,
    jobs: int = 1,
    progress: _t.Callable[[CellResult], None] | None = None,
) -> SweepReport:
    """Expand and execute every cell of ``sweep``; reduce to a SweepReport.

    ``jobs > 1`` fans cells across the experiment harness's process pool;
    results return in grid order either way.  ``progress`` (if given) is
    called with each CellResult as it completes — the CLI uses it to print
    incrementally.  Budget overruns (``cell_budget_s``) warn on stderr; they
    never enter the report, which stays bit-identical across hosts and job
    counts.
    """
    from repro.experiments.runner import map_tasks

    tasks = [CellTask(cell=cell, quick=quick) for cell in sweep.cells()]
    results: list[CellResult] = []
    for result in map_tasks(run_cell, tasks, jobs=jobs):
        if sweep.cell_budget_s is not None and result.elapsed > sweep.cell_budget_s:
            print(
                f"warning: sweep cell {result.key} took {result.elapsed:.1f}s "
                f"(budget {sweep.cell_budget_s:.1f}s)",
                file=sys.stderr,
            )
        if progress is not None:
            progress(result)
        results.append(result)
    return SweepReport(sweep=sweep, quick=quick, cells=tuple(results))
