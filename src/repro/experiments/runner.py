"""Parallel experiment harness: fan figures and seed replicates across cores.

``python -m repro`` delegates here.  The harness builds a deterministic task
list (one :class:`ExperimentTask` per figure × replicate), then executes it
either serially or on a :class:`~concurrent.futures.ProcessPoolExecutor`.
Both paths call the *same* module-level :func:`run_task` with the same seeds,
and every simulation derives all randomness from its engine seed, so the
parallel run is bit-identical to the serial one — results differ only in
wall-clock time.

Seeds are derived per task with :func:`derive_task_seed`: replicate 0 keeps
the user's base seed (so ``--jobs 4`` reproduces exactly what the serial CLI
printed before parallelism existed), while replicate ``r > 0`` mixes the
experiment name and replicate index through CRC-32 — deterministic across
processes and Python versions (unlike ``hash()``, which is salted).

The module also hosts the engine micro-benchmark used for the
``BENCH_engine.json`` speedup report (``python -m repro bench``): it times
the production single-timer fluid device against the seed-semantics
:class:`~repro.gpu.reference.ReferenceGPUDevice` on the same churn workload.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import typing as _t
import zlib
from concurrent.futures import ProcessPoolExecutor

from repro.experiments import (
    ablations,
    fig01_motivation,
    fig08_profiling,
    fig09_isolation,
    fig10_spatial,
    fig11_scheduler,
    fig12_autoscaling,
    fig13_modelsharing,
    headline,
)

#: Figure experiments exposing the uniform ``run(quick=, seed=)`` protocol.
SIMPLE_EXPERIMENTS: dict[str, _t.Any] = {
    "fig01": fig01_motivation,
    "fig08": fig08_profiling,
    "fig09": fig09_isolation,
    "fig10": fig10_spatial,
    "fig11": fig11_scheduler,
    "fig12": fig12_autoscaling,
    "fig13": fig13_modelsharing,
    "headline": headline,
}


def experiment_names() -> list[str]:
    """Every runnable experiment, in the order ``all`` executes them."""
    return sorted(SIMPLE_EXPERIMENTS) + ["ablations"]


def derive_task_seed(base_seed: int, name: str, replicate: int) -> int:
    """Deterministic per-task seed; replicate 0 preserves the base seed."""
    if replicate == 0:
        return base_seed
    mix = zlib.crc32(f"{name}:{replicate}".encode("utf-8"))
    return (base_seed ^ mix) & 0x7FFFFFFF


@dataclasses.dataclass(frozen=True, slots=True)
class ExperimentTask:
    """One unit of work: a figure at one seed."""

    name: str
    seed: int
    quick: bool = False
    replicate: int = 0


@dataclasses.dataclass(frozen=True, slots=True)
class TaskResult:
    """Formatted output + timing of one completed task."""

    name: str
    seed: int
    replicate: int
    output: str
    elapsed: float


def run_experiment(name: str, quick: bool = False, seed: int = 42) -> str:
    """Run one experiment by name and return its formatted report."""
    if name == "ablations":
        duration = 5.0 if quick else 12.0
        placement = ablations.run_placement_ablation(seed=seed, pods=200)
        tokens = ablations.run_token_ablation(duration=duration, seed=seed)
        priority = ablations.run_priority_ablation(duration=duration, seed=seed)
        return ablations.format_results(placement, tokens, priority)
    module = SIMPLE_EXPERIMENTS[name]
    return module.format_result(module.run(quick=quick, seed=seed))


def run_task(task: ExperimentTask) -> TaskResult:
    """Execute one task (module-level so it pickles into worker processes)."""
    start = time.perf_counter()
    output = run_experiment(task.name, quick=task.quick, seed=task.seed)
    return TaskResult(
        name=task.name,
        seed=task.seed,
        replicate=task.replicate,
        output=output,
        elapsed=time.perf_counter() - start,
    )


def build_tasks(
    names: _t.Sequence[str], *, seed: int = 42, quick: bool = False, replicates: int = 1
) -> list[ExperimentTask]:
    """The deterministic task list the suite executes, in output order."""
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    return [
        ExperimentTask(name, derive_task_seed(seed, name, r), quick, r)
        for name in names
        for r in range(replicates)
    ]


_TaskT = _t.TypeVar("_TaskT")
_ResultT = _t.TypeVar("_ResultT")


def map_tasks(
    fn: _t.Callable[[_TaskT], _ResultT], tasks: _t.Iterable[_TaskT], *, jobs: int = 1
) -> _t.Iterator[_ResultT]:
    """Order-preserving serial-or-process-pool map — the one pool code path.

    Every parallel driver in the repo (the figure suite, scenario sweeps)
    routes through here: ``jobs <= 1`` maps lazily in-process (consumers
    print incrementally), ``jobs > 1`` fans ``fn`` across a
    ``ProcessPoolExecutor``.  ``fn`` and each task must be picklable, and —
    because every simulation derives all randomness from seeds carried *in*
    the task — results are bit-identical between the two paths; they differ
    only in wall-clock time.
    """
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield fn(task)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        yield from pool.map(fn, tasks)


def iter_suite(
    names: _t.Sequence[str],
    *,
    seed: int = 42,
    quick: bool = False,
    jobs: int = 1,
    replicates: int = 1,
) -> _t.Iterator[TaskResult]:
    """Yield ``names`` × ``replicates`` task results as they become ready.

    Results arrive in task order regardless of completion order, and are
    bit-identical between ``jobs=1`` and ``jobs=N`` (same function, same
    derived seeds, independent engines).  Serially, each result is yielded
    as soon as its task finishes, so CLI consumers print incrementally.
    """
    tasks = build_tasks(names, seed=seed, quick=quick, replicates=replicates)
    yield from map_tasks(run_task, tasks, jobs=jobs)


def run_suite(
    names: _t.Sequence[str],
    *,
    seed: int = 42,
    quick: bool = False,
    jobs: int = 1,
    replicates: int = 1,
) -> list[TaskResult]:
    """Eager form of :func:`iter_suite` (results as a list, in task order)."""
    return list(
        iter_suite(names, seed=seed, quick=quick, jobs=jobs, replicates=replicates)
    )


# -- engine micro-benchmark (BENCH_engine.json) -----------------------------


def churn_workload(device_cls: type, total: int, batch: int, duration: float) -> float:
    """Feed ``total`` bursts, ``batch`` at a time, through a fluid device."""
    from repro.gpu import KernelBurst, gpu_spec
    from repro.sim import Engine

    engine = Engine()
    device = device_cls(engine, gpu_spec("V100"))
    submitted = 0

    def feed() -> None:
        nonlocal submitted
        for _ in range(batch):
            device.submit(KernelBurst(duration=duration, sm_demand=12, sm_activity=0.02))
            submitted += 1
        if submitted < total:
            engine.schedule(0.004, feed)

    engine.schedule(0.0, feed)
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    if device.completed_bursts != total:
        raise AssertionError(
            f"churn workload lost bursts: {device.completed_bursts}/{total}"
        )
    return elapsed


def _timer_workload(total: int) -> float:
    from repro.sim import Engine

    engine = Engine()
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1
        if count < total:
            engine.schedule(0.001, tick)

    engine.schedule(0.001, tick)
    start = time.perf_counter()
    engine.run()
    return time.perf_counter() - start


def benchmark_engine(quick: bool = False, jobs: int = 1) -> dict:
    """Measure engine/device hot paths; returns the BENCH_engine.json payload.

    The ``device_churn`` workload keeps ~``batch`` bursts resident at once —
    the regime where the seed model's O(n) timer sweeps blow up.  The
    reference (seed-semantics) device runs a scaled-down burst count and is
    compared on per-burst throughput, which is load- not length-dependent.
    """
    from repro.gpu import GPUDevice, ReferenceGPUDevice

    timer_events = 20_000
    if quick:
        new_total, ref_total, batch = 2_000, 400, 16
    else:
        new_total, ref_total, batch = 8_000, 800, 32
    burst_duration = batch * 0.004 / 2  # keeps ~batch bursts resident

    timer_s = min(_timer_workload(timer_events) for _ in range(3))
    new_s = min(
        churn_workload(GPUDevice, new_total, batch, burst_duration) for _ in range(3)
    )
    ref_s = churn_workload(ReferenceGPUDevice, ref_total, batch, burst_duration)

    new_tput = new_total / new_s
    ref_tput = ref_total / ref_s
    report: dict[str, _t.Any] = {
        "benchmark": "engine",
        "quick": quick,
        "workload": {
            "resident_bursts": batch,
            "burst_duration_s": burst_duration,
            "new_model_bursts": new_total,
            "reference_model_bursts": ref_total,
        },
        "timer_churn": {
            "events": timer_events,
            "seconds": timer_s,
            "events_per_sec": timer_events / timer_s,
        },
        "device_churn": {
            "bursts": new_total,
            "seconds": new_s,
            "bursts_per_sec": new_tput,
        },
        "device_churn_reference": {
            "bursts": ref_total,
            "seconds": ref_s,
            "bursts_per_sec": ref_tput,
        },
        "speedup_vs_reference": new_tput / ref_tput,
    }
    if jobs > 1:
        names = experiment_names()
        serial_t = time.perf_counter()
        serial = run_suite(names, quick=True, jobs=1)
        serial_s = time.perf_counter() - serial_t
        parallel_t = time.perf_counter()
        parallel = run_suite(names, quick=True, jobs=jobs)
        parallel_s = time.perf_counter() - parallel_t
        identical = [s.output for s in serial] == [p.output for p in parallel]
        report["parallel_runner"] = {
            "experiments": names,
            "jobs": jobs,
            "cpu_count": os.cpu_count(),
            "serial_seconds": serial_s,
            "parallel_seconds": parallel_s,
            "speedup": serial_s / parallel_s,
            "bit_identical": identical,
        }
    return report


def write_benchmark_report(
    path: str = "BENCH_engine.json", *, quick: bool = False, jobs: int = 1
) -> dict:
    """Run :func:`benchmark_engine` and write the JSON report to ``path``."""
    report = benchmark_engine(quick=quick, jobs=jobs)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report
