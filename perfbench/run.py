"""The repository's end-to-end + per-layer benchmark.

    python3 perfbench/run.py --workload dense_fleet --seed 7 --seconds 25 --trace 0

Each workload is a committed Scenario spec under ``perfbench/workloads/``.
``--seed`` picks the spec's random streams: the run replays a fixed number of
sub-seeds derived from it, each as one single-threaded discrete-event run of
the unchanged ``run_scenario`` path, and keeps replaying them until
``--seconds`` have passed.  Simulated metrics are pooled over the sub-seeds.

Host times filter out other tenants of a shared machine, whose interference
only ever adds time: within seconds as slow moments, over minutes as a
slower machine.  ``setup_s`` is the minimum over every set-up.  ``run_s`` is
timed slice by slice: each replay's DES window is cut into ``SLICES`` equal
spans of simulated time, and ``run_s`` sums, for each slice, its fastest
time over every replay of the run.  The sub-seeds replay the same committed
fleet and per-bin arrival counts, so a slice does nearly the same work in
each of them.  Between slices ``calibrate`` times a fixed event loop that
shares no code with the program, and both host times are scaled by its time
on the reference machine (a 2-vCPU 2.0 GHz Xeon VM, Python 3.11) over its
fastest time in the run, so that a slower machine cancels out.  The
unscaled values and the medians of whole replays are recorded in the
context line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs sub-seed 0
untraced once, then traced (see ``perfbench/layers.py``), and prints the
per-layer metrics.  Every run checks its outputs; a failed check prints the
reason to stderr and exits 1 without a result.  The last stdout line is the
result JSON; the line before it records the machine and the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import heapq
import importlib
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import typing as _t

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent

#: name → (held-out seed, sub-seeds per run).  The default seed is the
#: spec's own; the held-out seed is kept for re-checking a gain on inputs not
#: used while it was written.  The sub-seed counts pool enough simulated
#: traffic for the violation ratio and p99 to stay within their bounds.
WORKLOADS = {
    "dense_fleet": (1013, 10),
    "longtail_memtier": (2027, 2),
    "defrag_telemetry": (3041, 6),
}
#: Stride between the sub-seeds of one run.
SUB_SEED_STRIDE = 1_000_003
#: Set-up-only repetitions per run, on top of the set-up of every replay.
SETUP_REPS = 10
#: Equal spans of simulated time each ``Engine.run`` call of an untraced
#: replay is cut into for timing; ``aggregate_report`` is one more slice.
SLICES = 24
#: Steps of one ``calibrate`` run, and its time on the reference machine
#: (module docstring): host times are scaled by this over the run's own
#: fastest, taken per position between slices like the slices themselves.
CALIBRATION_STEPS = 2500
CALIBRATION_NOMINAL_S = 0.0022
#: Percentile reported as the latency tail; at least this many samples must
#: lie beyond it.
TAIL_PERCENTILE = 99.0
MIN_TAIL_SAMPLES = 10

class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


class _SetupDone(Exception):
    """Raised from the set-up hook to end a set-up-only repetition."""


# -- one scenario run ------------------------------------------------------------
@dataclasses.dataclass
class Outcome:
    """What one scenario run produced, reduced to plain numbers."""

    submitted: int
    completed: int
    violated: int
    function_counts: tuple[tuple[int, int], ...]  # (submitted, completed) per function
    latencies_ms: _t.Any
    queue_waits_ms: _t.Any
    cold_waits_ms: _t.Any
    swap_waits_ms: _t.Any
    cold_hits: int
    gpu_seconds: float
    counts: dict[str, int]

    @property
    def unserved(self) -> int:
        return self.submitted - self.completed

    def fingerprint(self) -> tuple:
        """Every simulated value, bit for bit."""
        arrays = (self.latencies_ms, self.queue_waits_ms, self.cold_waits_ms, self.swap_waits_ms)
        return (
            self.submitted,
            self.completed,
            self.violated,
            self.function_counts,
            tuple(a.tobytes() for a in arrays),
            self.cold_hits,
            self.gpu_seconds.hex(),
            tuple(sorted(self.counts.items())),
        )


def outcome_of(report) -> Outcome:
    import numpy as np

    def pooled(method: str):
        arrays = [getattr(o.run.log, method)() for o in report.functions]
        return np.concatenate(arrays) if arrays else np.zeros(0)

    violated = 0
    for o in report.functions:
        latencies = o.run.log.latencies_ms()
        violated += int((latencies > o.run.slo_ms).sum())
    return Outcome(
        submitted=report.submitted,
        completed=report.completed,
        violated=violated,
        function_counts=tuple((o.run.submitted, o.run.completed) for o in report.functions),
        latencies_ms=pooled("latencies_ms"),
        queue_waits_ms=pooled("queue_waits_ms"),
        cold_waits_ms=pooled("cold_waits_ms"),
        swap_waits_ms=pooled("swap_waits_ms"),
        cold_hits=sum(o.run.log.cold_hits() for o in report.functions),
        gpu_seconds=float(report.gpu_seconds),
        counts={
            "scale_ups": report.scale_ups,
            "scale_downs": report.scale_downs,
            "prewarms": report.prewarms,
            "swap_promotions": report.swap_promotions,
            "demotions": report.demotions,
            "host_evictions": report.host_evictions,
            "migrations": report.migrations,
            "migration_aborts": report.migration_aborts,
        },
    )


@dataclasses.dataclass
class Replay:
    """Host times of one replay, and what it produced (None if set-up only).
    An untraced ``run_s`` is the sum of ``slices_s``; ``calibration_s``
    holds the calibration times measured between its slices."""

    setup_s: float
    run_s: float
    outcome: Outcome | None
    hub_events: int = 0
    slices_s: list[float] = dataclasses.field(default_factory=list)
    calibration_s: list[float] = dataclasses.field(default_factory=list)


class _Job:
    __slots__ = ("key", "left")

    def __init__(self, key: int, left: float) -> None:
        self.key = key
        self.left = left


def calibrate(steps: int = CALIBRATION_STEPS) -> float:
    """Host time of a fixed pure-Python event loop (a heap of timed jobs,
    small objects, dict counters) that shares no code with the program:
    the yardstick of how fast the machine runs Python at this moment."""
    start = time.perf_counter()
    heap = [(i * 0.37 % 5.0, i, _Job(i, 1.0 + i % 7)) for i in range(64)]
    heapq.heapify(heap)
    counts: dict[str, list] = {}
    for k in range(steps):
        now, _, job = heapq.heappop(heap)
        job.left -= 0.5
        entry = counts.setdefault(f"f{job.key % 50}", [0, 0.0])
        entry[0] += 1
        entry[1] += now
        if job.left <= 0:
            job = _Job(job.key + 64, 1.0 + k * 31 % 7)
        heapq.heappush(heap, (now + 0.01 + k * 2654435761 % 1000 / 1e5, 64 + k, job))
    return time.perf_counter() - start


def sliced(engine, marks: list[float], calibration_s: list[float]):
    """``engine.run`` cut into ``SLICES`` runs over equal spans of simulated
    time.  After each slice the host clock goes to ``marks``, ``calibrate``
    runs, and the clock goes to ``marks`` again: ``marks`` alternates slice
    starts and ends.  Events fire in the same order as in one run to
    ``until``; the traced replay, which is not sliced, is checked
    bit-identical to the sliced one."""
    run = engine.run

    def pause() -> None:
        marks.append(time.perf_counter())
        calibration_s.append(calibrate())
        marks.append(time.perf_counter())

    def run_in_slices(until: float | None = None) -> float:
        if until is None:
            now = run()
            pause()
            return now
        start = engine.now
        for k in range(1, SLICES + 1):
            to = until if k == SLICES else start + (until - start) * k / SLICES
            now = run(until=to)
            pause()
            if now < to:  # stopped early, as one run would have
                break
        return now

    return run_in_slices


def replay(spec_text: str, seed: int, *, setup_only: bool = False, recorder=None) -> Replay:
    """Run the spec with ``seed`` through ``run_scenario``, timing set-up
    (spec load → control plane prepared) and run (→ report aggregated).
    An untraced run is timed in slices (see ``sliced``)."""
    from repro.scenario import Scenario, run_scenario
    from repro.scenario import runner

    prepare = runner.prepare_control_plane
    marks: dict[str, _t.Any] = {}
    slice_marks: list[float] = []
    calibration_s: list[float] = []

    def prepared(scenario, platform):
        plane = prepare(scenario, platform)
        hub = platform.engine.hub
        marks["hub"] = hub
        marks["hub_before"] = len(hub.events) + hub.dropped
        if setup_only:
            marks["window"] = time.perf_counter()
            raise _SetupDone
        if recorder is None:
            platform.engine.run = sliced(platform.engine, slice_marks, calibration_s)
        marks["window"] = time.perf_counter()
        slice_marks.append(marks["window"])
        if recorder is not None:
            recorder.begin()
        return plane

    gc.collect()
    start = time.perf_counter()
    scenario = dataclasses.replace(Scenario.from_json(spec_text), seed=seed)
    runner.prepare_control_plane = prepared
    try:
        report = run_scenario(scenario)
    except _SetupDone:
        return Replay(setup_s=marks["window"] - start, run_s=0.0, outcome=None)
    finally:
        runner.prepare_control_plane = prepare
    if recorder is not None:
        recorder.end()
    end = time.perf_counter()
    slice_marks.append(end)
    slices_s = [b - a for a, b in zip(slice_marks[::2], slice_marks[1::2])]
    hub = marks["hub"]
    return Replay(
        setup_s=marks["window"] - start,
        run_s=sum(slices_s) if recorder is None else end - marks["window"],
        outcome=outcome_of(report),
        hub_events=len(hub.events) + hub.dropped - marks["hub_before"],
        slices_s=slices_s if recorder is None else [],
        calibration_s=calibration_s,
    )


# -- checks ------------------------------------------------------------------------
def check_outcome(outcome: Outcome) -> None:
    """Request conservation and finiteness of one run's simulated results."""
    import numpy as np

    total_sub = sum(s for s, _ in outcome.function_counts)
    total_done = sum(c for _, c in outcome.function_counts)
    if (total_sub, total_done) != (outcome.submitted, outcome.completed):
        raise CheckFailed(
            f"per-function totals {total_sub}/{total_done} != report "
            f"{outcome.submitted}/{outcome.completed}"
        )
    for submitted, completed in outcome.function_counts + (
        (outcome.submitted, outcome.completed),
    ):
        if submitted < 0 or completed < 0 or completed > submitted:
            raise CheckFailed(
                f"conservation broken: submitted {submitted} != completed "
                f"{completed} + unserved {submitted - completed} with no negatives"
            )
    if outcome.submitted < 1:
        raise CheckFailed("no request was submitted")
    if outcome.latencies_ms.size != outcome.completed:
        raise CheckFailed(
            f"{outcome.latencies_ms.size} latencies for {outcome.completed} completions"
        )
    if not 0 <= outcome.violated <= outcome.completed:
        raise CheckFailed(f"{outcome.violated} violations of {outcome.completed} completions")
    for name in ("latencies_ms", "queue_waits_ms", "cold_waits_ms", "swap_waits_ms"):
        values = getattr(outcome, name)
        if values.size and not (np.isfinite(values).all() and (values >= 0).all()):
            raise CheckFailed(f"{name} holds a negative or non-finite value")
    if not math.isfinite(outcome.gpu_seconds) or outcome.gpu_seconds <= 0:
        raise CheckFailed(f"gpu_seconds is {outcome.gpu_seconds}")
    if any(v < 0 for v in outcome.counts.values()):
        raise CheckFailed(f"negative control-plane count in {outcome.counts}")


def check_same(first: Outcome, again: Outcome, what: str) -> None:
    if first.fingerprint() != again.fingerprint():
        raise CheckFailed(f"{what}: simulated results differ for the same seed")


def end_to_end_sim(outcomes: _t.Sequence[Outcome]) -> dict[str, float]:
    """Simulated end-to-end metrics pooled over the run's sub-seeds."""
    import numpy as np

    submitted = sum(o.submitted for o in outcomes)
    missed = sum(o.violated + o.unserved for o in outcomes)
    latencies = np.concatenate([o.latencies_ms for o in outcomes])
    p99 = float(np.percentile(latencies, TAIL_PERCENTILE))
    beyond = int((latencies > p99).sum())
    if beyond < MIN_TAIL_SAMPLES:
        raise CheckFailed(f"only {beyond} samples beyond p{TAIL_PERCENTILE:g}")
    return {
        "effective_violation_ratio": missed / submitted,
        "latency_p50_ms": float(np.percentile(latencies, 50.0)),
        "latency_p99_ms": p99,
        "gpu_seconds": statistics.fmean(o.gpu_seconds for o in outcomes),
    }


# -- per-layer metrics ---------------------------------------------------------------
#: per-layer count metric → wrapped entry points whose calls it sums.
CALL_COUNTS = {
    "gpu.bursts": ("repro.gpu.device.GPUDevice.submit",),
    "manager.token_requests": ("repro.manager.backend.FaSTBackend.request_token",),
    "faas.requests": ("repro.faas.gateway.Gateway.submit",),
    "scheduler.select_node_calls": (
        "repro.scheduler.mra.MaximalRectanglesScheduler.select_node",
    ),
    "scheduler.restructures": ("repro.scheduler.mra.GPURectangleList.restructure",),
    "scheduler.candidate_points_calls": (
        "repro.scheduler.autoscale.HeuristicScaler.candidate_points",
    ),
    "autoscaler.ticks": ("repro.autoscaler.controller.PredictiveAutoscaler.on_tick",),
    "profiler.lookups": (
        "repro.profiler.database.ProfileDatabase.points",
        "repro.profiler.database.ProfileDatabase.get",
    ),
    "k8s.admits": ("repro.k8s.node.GPUNode.admit",),
    "k8s.evictions": ("repro.k8s.node.GPUNode.evict",),
    "migrate.defrag_ticks": ("repro.migrate.defrag.Defragmenter.on_tick",),
}
#: per-layer count metric → the report's window count.
REPORT_COUNTS = {
    "autoscaler.scale_ups": "scale_ups",
    "autoscaler.scale_downs": "scale_downs",
    "autoscaler.prewarms": "prewarms",
    "memtier.promotions": "swap_promotions",
    "memtier.demotions": "demotions",
    "memtier.evictions": "host_evictions",
    "migrate.migrations": "migrations",
    "migrate.aborts": "migration_aborts",
}
#: Placement attempts; the NoFitErrors they raise give ``scheduler.nofit_ratio``.
PLACE_POD = "repro.scheduler.scheduler.FaSTScheduler.place_pod"


def import_counted_modules() -> None:
    """Load every module a counted entry point lives in, so that a layer a
    workload never imports still gets its (zero) counts wrapped."""
    for names in (*CALL_COUNTS.values(), (PLACE_POD,)):
        for name in names:
            module = name
            while module not in sys.modules:
                module = module.rpartition(".")[0]
                try:
                    importlib.import_module(module)
                except ImportError:
                    continue


def per_layer_counts(recorder, replayed: Replay) -> dict[str, float]:
    """The per-layer metrics that repeat exactly for a fixed seed."""
    outcome = replayed.outcome
    values: dict[str, float] = {}
    for metric, names in (*CALL_COUNTS.items(), ("scheduler.nofit_ratio", (PLACE_POD,))):
        missing = [n for n in names if n not in recorder.calls]
        if missing:
            raise CheckFailed(f"{metric}: entry point(s) not found: {missing}")
        values[metric] = sum(recorder.calls[n] for n in names)
    for metric, key in REPORT_COUNTS.items():
        values[metric] = outcome.counts[key]
    attempts = recorder.calls[PLACE_POD]
    nofits = recorder.raised[(PLACE_POD, "NoFitError")]
    values["scheduler.nofit_ratio"] = nofits / attempts if attempts else 0.0
    values["sim.events_scheduled"] = recorder.events_scheduled
    values["sim.events_cancelled"] = recorder.events_cancelled
    values["obs.events"] = replayed.hub_events
    completed = max(1, outcome.completed)
    values["faas.queue_wait_ms_mean"] = _mean(outcome.queue_waits_ms)
    values["faas.cold_wait_ms_mean"] = _mean(outcome.cold_waits_ms)
    values["faas.cold_hit_ratio"] = outcome.cold_hits / completed
    values["memtier.swap_wait_ms_mean"] = _mean(outcome.swap_waits_ms)
    return values


def per_layer_times(recorder) -> dict[str, float]:
    """The per-layer host times of one traced run."""
    from layers import LAYERS

    values = {f"{layer}.self_s": recorder.self_s[layer] for layer in LAYERS}
    values["sim.us_per_event"] = (
        1e6 * recorder.self_s["sim"] / recorder.events_run if recorder.events_run else 0.0
    )
    values["obs.assemble_s"] = (
        recorder.timed_s["repro.obs.spans.assemble_spans"]
        + recorder.timed_s["repro.obs.metrics.build_registry"]
    )
    values["scenario.report_s"] = recorder.timed_s["repro.scenario.runner.aggregate_report"]
    return values


def check_layers_loaded(spec: _t.Mapping, counts: _t.Mapping[str, float]) -> None:
    """The spec's switches show in the layers: telemetry off records no hub
    event (disabled telemetry costs nothing), and defrag on migrates."""
    if not spec.get("measurement", {}).get("telemetry") and counts["obs.events"]:
        raise CheckFailed(f"telemetry is off but the hub recorded {counts['obs.events']} events")
    if spec.get("cluster", {}).get("defrag") and not counts["migrate.migrations"]:
        raise CheckFailed("cluster.defrag is on but nothing migrated")


def check_spans(recorder) -> None:
    """Self times are non-negative and add up to the traced window."""
    total = sum(recorder.self_s.values())
    if any(v < 0 for v in recorder.self_s.values()):
        raise CheckFailed(f"negative self time in {recorder.self_s}")
    if abs(total - recorder.window_s) > 1e-6 * max(1.0, recorder.window_s):
        raise CheckFailed(
            f"layer self times sum to {total:.6f} s, traced run_s is {recorder.window_s:.6f} s"
        )


def _mean(values) -> float:
    return float(values.mean()) if values.size else 0.0


# -- the run ---------------------------------------------------------------------------
def machine() -> dict[str, _t.Any]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
    }


def git_commit(root: pathlib.Path) -> str:
    """HEAD's commit id read from ``.git``, or "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def sub_seeds(seed: int, count: int) -> list[int]:
    return [seed + SUB_SEED_STRIDE * i for i in range(count)]


def warm_up(spec_text: str, seed: int) -> None:
    """Run the spec's quick variant once, untimed, so that the timed replays
    find every module imported and every code path run before."""
    from repro.scenario import Scenario, run_scenario

    run_scenario(dataclasses.replace(Scenario.from_json(spec_text), seed=seed), quick=True)


def run_untraced(
    spec_text: str, seeds: list[int], seconds: float, context: dict
) -> tuple[dict, int, int]:
    """End-to-end values of one run, with requests attempted and unserved;
    every replay's host times go into ``context``."""
    warm_up(spec_text, seeds[0])
    start = time.perf_counter()
    setups = [replay(spec_text, seeds[0], setup_only=True).setup_s for _ in range(SETUP_REPS)]
    runs: list[float] = []
    slices: list[list[float]] = []
    calibrations: list[list[float]] = []
    first: list[Outcome] = []
    i = 0
    while i < len(seeds) or time.perf_counter() - start < seconds:
        seed = seeds[i % len(seeds)]
        done = replay(spec_text, seed)
        check_outcome(done.outcome)
        if i < len(seeds):
            first.append(done.outcome)
        else:
            check_same(first[i % len(seeds)], done.outcome, f"replay of seed {seed}")
        if slices and len(done.slices_s) != len(slices[0]):
            raise CheckFailed(
                f"replay of seed {seed} ran {len(done.slices_s)} slices, not {len(slices[0])}"
            )
        setups.append(done.setup_s)
        runs.append(done.run_s)
        slices.append(done.slices_s)
        calibrations.append(done.calibration_s)
        i += 1
    fastest_run_s = sum(min(times) for times in zip(*slices))
    fastest_calibration_s = sum(min(times) for times in zip(*calibrations))
    scale = CALIBRATION_NOMINAL_S * len(calibrations[0]) / fastest_calibration_s
    context["setup_s"] = setups
    context["run_s"] = runs
    context["median_setup_s"] = statistics.median(setups)
    context["median_run_s"] = statistics.median(runs)
    context["min_setup_s"] = min(setups)
    context["fastest_run_s"] = fastest_run_s
    context["calibration_scale"] = scale
    values = {
        "setup_s": min(setups) * scale,
        "run_s": fastest_run_s * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values.update(end_to_end_sim(first))
    attempted = sum(o.submitted for o in first)
    failed = sum(o.unserved for o in first)
    return values, attempted, failed


def run_traced(
    spec_text: str, seed: int, seconds: float, context: dict
) -> tuple[dict, int, int]:
    """Per-layer values of traced replays of ``seed``, checked against one
    untraced replay, with requests attempted and unserved; the tracing
    overhead and the first traced replay's spans go into ``context``."""
    from layers import Attribution, SpanRecorder

    import_counted_modules()
    warm_up(spec_text, seed)
    start = time.perf_counter()
    plain = replay(spec_text, seed)
    check_outcome(plain.outcome)
    counts: dict[str, float] | None = None
    times: list[dict[str, float]] = []
    traced_runs: list[float] = []
    while counts is None or time.perf_counter() - start < seconds:
        recorder = SpanRecorder()
        with Attribution(recorder):
            traced = replay(spec_text, seed, recorder=recorder)
        check_same(plain.outcome, traced.outcome, "traced run")
        check_spans(recorder)
        run_counts = per_layer_counts(recorder, traced)
        if counts is None:
            check_layers_loaded(json.loads(spec_text), run_counts)
            counts = run_counts
        elif run_counts != counts:
            raise CheckFailed("per-layer counts differ between traced replays")
        if not times:
            context["spans"] = [
                {"layer": layer, "parent": parent, "count": count, "total_s": total}
                for (layer, parent), (count, total) in sorted(
                    recorder.spans.items(), key=lambda item: -item[1][1]
                )
            ]
        times.append(per_layer_times(recorder))
        traced_runs.append(recorder.window_s)
    values = dict(counts)
    for name in times[0]:
        values[name] = statistics.median(t[name] for t in times)
    values["trace.overhead_s"] = statistics.median(traced_runs) - plain.run_s
    context["run_s"] = plain.run_s
    context["traced_run_s"] = traced_runs
    context["trace_overhead_s"] = values["trace.overhead_s"]
    return values, plain.outcome.submitted, plain.outcome.unserved


def load_spec(workload: str) -> str:
    """The committed Scenario spec of ``workload``, as JSON text."""
    return (HERE / "workloads" / f"{workload}.json").read_text(encoding="utf-8")


def load_metric_names() -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(name, unit) of the end-to-end and per-layer metrics BENCHMARK.json names."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"]) for m in spec["per_layer"]],
    )


def parse_args(argv: _t.Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed",
        default="default",
        help="an integer, 'default' (the spec's seed) or 'held-out'",
    )
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed not in ("default", "held-out"):
        try:
            args.seed = int(args.seed)
        except ValueError:
            parser.error(f"--seed must be an integer, 'default' or 'held-out', got {args.seed!r}")
    return args


def main(argv: _t.Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    end_to_end, per_layer = load_metric_names()
    spec_text = load_spec(args.workload)
    held_out, count = WORKLOADS[args.workload]
    seed = args.seed
    if seed == "default":
        seed = json.loads(spec_text)["seed"]
    elif seed == "held-out":
        seed = held_out
    seeds = sub_seeds(seed, count)
    context: dict[str, _t.Any] = {
        "workload": args.workload,
        "seed": seed,
        "sub_seeds": seeds,
        "machine": machine(),
    }
    try:
        if args.trace:
            values, attempted, failed = run_traced(spec_text, seeds[0], args.seconds, context)
            names = per_layer
        else:
            values, attempted, failed = run_untraced(spec_text, seeds, args.seconds, context)
            names = end_to_end
        missing = [name for name, _ in names if name not in values]
        if missing:
            raise CheckFailed(f"BENCHMARK.json names metrics the run does not measure: {missing}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    except CheckFailed as exc:
        print(f"perfbench: check failed on {args.workload}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
