#!/usr/bin/env python
"""Benchmark-regression gate for CI.

Compares a freshly measured benchmark report against the committed baseline
and fails (exit 1) on a regression beyond the tolerance.  The report kind is
dispatched on the baseline's ``benchmark`` field:

* ``engine`` — per-burst device throughput.  Raw bursts/s numbers are
  machine-dependent (a CI runner is not the machine the baseline was
  recorded on), so the primary gate is ``speedup_vs_reference`` — the
  production device model's per-burst throughput *relative to the
  seed-semantics reference model measured in the same process on the same
  machine*.  That ratio is stable across hosts; a collapse means a hot-path
  regression, not a slow runner.  Raw throughputs are printed for context
  and only warn.
* ``scenario`` — a ScenarioReport (``python -m repro scenario ... --output``).
  Also deterministic: the gate fails when the overall or any per-function
  SLO-violation rate grows past the tolerance (plus the same absolute
  epsilon), or when the completed-request count drops by more than the
  tolerance.  Baseline and fresh must replay the same scenario name/seed.
* ``sweep`` — a SweepReport (``python -m repro sweep SPEC.json --output``),
  which is also what every policy bench writes (``examples/sweeps/*.json``;
  the benches' own headlines are the specs' ``assert`` entries, which
  ``repro sweep`` enforces).  Cells are matched on their grid coordinates;
  the gate fails when any matched cell's SLO-violation or effective-violation
  rate grows past the tolerance (plus the epsilon), its mean GPU count grows
  past the tolerance, or its completed-request count drops by more than the
  tolerance.  Baseline and fresh must run the same base scenario and axes at
  the same quick/full horizon, and every baseline cell must still exist in
  the fresh grid.
* ``serve`` — the live serving smoke (``BENCH_serve_quick.json`` vs a fresh
  ``repro replay`` output).  A live run is wall-clock paced, so unlike every
  other kind it is *not* bit-deterministic: the gate checks robust counters
  only — the arrival schedule is seed-derived and must match the committed
  reference (within a small fraction for client-side retries), the completed
  fraction must stay high, and the SLO-violation ratio must stay under an
  absolute bound documented in the baseline (the DES ratio plus a generous
  live-jitter margin).  The fresh report must be a ScenarioReport with
  ``mode: "live"``.

Usage::

    python benchmarks/check_regression.py \
        --baseline BENCH_engine.json --fresh BENCH_fresh.json [--tolerance 0.30]
    python benchmarks/check_regression.py \
        --baseline benchmarks/BENCH_swap_quick.json --fresh SWEEP_swap_quick.json
    python benchmarks/check_regression.py \
        --baseline benchmarks/BENCH_scenario_quick.json --fresh SCENARIO_fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: Absolute slack added to every violation-rate gate so near-zero
#: baselines (0.1% violations) don't fail on one extra late request.
ABS_EPSILON = 0.005


def load_report(
    path: str, kinds: tuple[str, ...] = ("engine", "scenario", "sweep", "serve")
) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("benchmark") not in kinds:
        raise ValueError(f"{path}: not a known benchmark report (want one of {kinds})")
    return report


def relative_drop(baseline: float, fresh: float) -> float:
    """Fractional regression (positive = fresh is slower than baseline)."""
    if baseline <= 0:
        raise ValueError(f"non-positive baseline value {baseline}")
    return (baseline - fresh) / baseline


def gate_rate(
    failures: list[str],
    label: str,
    base_rate: float,
    fresh_rate: float,
    tolerance: float,
    what: str = "slo_violation_ratio",
) -> None:
    """Fail when a violation rate grows past ``base * (1 + tolerance) + ABS_EPSILON``."""
    bound = base_rate * (1.0 + tolerance) + ABS_EPSILON
    marker = "  [REGRESSION]" if fresh_rate > bound else ""
    print(
        f"{what}[{label:<38}]: baseline {100 * base_rate:6.2f}%   "
        f"fresh {100 * fresh_rate:6.2f}%   bound {100 * bound:6.2f}%{marker}"
    )
    if fresh_rate > bound:
        failures.append(
            f"{label}: {what} regressed {100 * base_rate:.2f}% -> "
            f"{100 * fresh_rate:.2f}% (bound {100 * bound:.2f}%)"
        )


def check_scenario(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Scenario-report gate: overall + per-function SLO-violation regressions."""
    failures: list[str] = []
    base_meta = baseline.get("scenario") or {}
    fresh_meta = fresh.get("scenario") or {}
    key = ("name", "seed")
    base_id = [base_meta.get(k) for k in key] + [baseline.get("quick")]
    fresh_id = [fresh_meta.get(k) for k in key] + [fresh.get("quick")]
    if base_id != fresh_id:
        raise ValueError(
            "scenario mismatch: the gate compares deterministic replays of the "
            "same scenario name/seed at the same quick/full horizon — "
            f"baseline {base_id} vs fresh {fresh_id}"
        )

    gate_rate(
        failures,
        "overall",
        float(baseline["totals"]["slo_violation_ratio"]),
        float(fresh["totals"]["slo_violation_ratio"]),
        tolerance,
    )
    shared = sorted(set(baseline["functions"]) & set(fresh["functions"]))
    if not shared:
        raise ValueError("no common functions between baseline and fresh scenario reports")
    for name in shared:
        gate_rate(
            failures,
            name,
            float(baseline["functions"][name]["slo_violation_ratio"]),
            float(fresh["functions"][name]["slo_violation_ratio"]),
            tolerance,
        )

    base_completed = int(baseline["totals"]["completed"])
    fresh_completed = int(fresh["totals"]["completed"])
    if base_completed > 0:
        drop = relative_drop(base_completed, fresh_completed)
        note = "  [REGRESSION]" if drop > tolerance else ""
        print(
            f"completed            : baseline {base_completed:8d}   "
            f"fresh {fresh_completed:8d}   drop {100 * drop:+6.1f}%{note}"
        )
        if drop > tolerance:
            failures.append(
                f"completed requests dropped {100 * drop:.1f}% "
                f"({base_completed} -> {fresh_completed})"
            )
    return failures


def check_sweep(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Sweep-report gate: per-cell violation, mean-GPU and completed-count regressions."""
    failures: list[str] = []
    base_sweep = baseline.get("sweep") or {}
    fresh_sweep = fresh.get("sweep") or {}
    # Identity is what determines the replay: the base scenario (fleet, trace,
    # nodes, seed), the axes (policies, thresholds) and the horizon.
    differs = [
        part
        for part, base_part, fresh_part in (
            ("base", base_sweep.get("base"), fresh_sweep.get("base")),
            ("axes", base_sweep.get("axes"), fresh_sweep.get("axes")),
            ("quick", baseline.get("quick"), fresh.get("quick")),
        )
        if base_part != fresh_part
    ]
    if differs:
        raise ValueError(
            "sweep mismatch: the gate compares deterministic replays of the same "
            "base scenario and axes at the same quick/full horizon — baseline and "
            f"fresh differ in {differs}"
        )
    base_cells = {cell["key"]: cell for cell in baseline.get("cells") or ()}
    fresh_cells = {cell["key"]: cell for cell in fresh.get("cells") or ()}
    if not base_cells:
        raise ValueError("baseline sweep report has no cells")
    missing = sorted(set(base_cells) - set(fresh_cells))
    if missing:
        raise ValueError(f"fresh sweep report is missing baseline cells: {missing}")
    for key in sorted(base_cells):
        base_metrics = base_cells[key]["metrics"]
        fresh_metrics = fresh_cells[key]["metrics"]
        for metric in ("slo_violation_ratio", "effective_violation_ratio"):
            gate_rate(
                failures,
                key,
                float(base_metrics[metric]),
                float(fresh_metrics[metric]),
                tolerance,
                what=metric,
            )
        base_gpus = float(base_metrics["mean_gpus"])
        fresh_gpus = float(fresh_metrics["mean_gpus"])
        gpu_bound = base_gpus * (1.0 + tolerance)
        marker = "  [REGRESSION]" if fresh_gpus > gpu_bound else ""
        print(
            f"mean_gpus[{key:<38}]: baseline {base_gpus:7.2f}   "
            f"fresh {fresh_gpus:7.2f}   bound {gpu_bound:7.2f}{marker}"
        )
        if fresh_gpus > gpu_bound:
            failures.append(
                f"{key}: mean GPUs regressed {base_gpus:.2f} -> {fresh_gpus:.2f} "
                f"(bound {gpu_bound:.2f})"
            )
        base_completed = int(base_metrics["completed"])
        fresh_completed = int(fresh_metrics["completed"])
        if base_completed > 0:
            drop = relative_drop(base_completed, fresh_completed)
            if drop > tolerance:
                failures.append(
                    f"{key}: completed requests dropped {100 * drop:.1f}% "
                    f"({base_completed} -> {fresh_completed})"
                )
    return failures


def check_serve(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Live-serve gate: robust counters of a wall-clock replay vs the baseline.

    ``baseline`` is a committed ``benchmark: "serve"`` gate file carrying the
    DES reference counters and absolute bounds; ``fresh`` is the live
    ScenarioReport ``repro replay --output`` wrote (``mode: "live"``).
    """
    failures: list[str] = []
    if fresh.get("mode") != "live":
        raise ValueError(
            f"fresh report mode is {fresh.get('mode', 'sim')!r}, want 'live' — "
            "the serve gate checks a wall-clock replay, not a simulation"
        )
    fresh_meta = fresh.get("scenario") or {}
    base_id = [baseline.get("scenario"), baseline.get("quick")]
    fresh_id = [fresh_meta.get("name"), fresh.get("quick")]
    if base_id != fresh_id:
        raise ValueError(
            "serve-smoke mismatch: the gate compares replays of the same scenario "
            f"at the same quick/full horizon — baseline {base_id} vs fresh {fresh_id}"
        )
    reference = baseline["reference"]
    gates = baseline["gates"]
    submitted = int(fresh["totals"]["submitted"])
    completed = int(fresh["totals"]["completed"])
    violation = float(fresh["totals"]["slo_violation_ratio"])

    ref_submitted = int(reference["submitted"])
    lo = gates["min_submitted_fraction"] * ref_submitted
    hi = gates["max_submitted_fraction"] * ref_submitted
    marker = "" if lo <= submitted <= hi else "  [REGRESSION]"
    print(
        f"submitted            : reference {ref_submitted:8d}   fresh {submitted:8d}   "
        f"bounds [{lo:.0f}, {hi:.0f}]{marker}"
    )
    if not lo <= submitted <= hi:
        failures.append(
            f"submitted {submitted} outside [{lo:.0f}, {hi:.0f}] — the replayer's "
            f"seed-derived arrival schedule should match the DES reference "
            f"({ref_submitted}) up to client-side retries"
        )

    if completed <= 0:
        failures.append("no requests completed — the live window is empty")
    min_completed = gates["min_completed_fraction"]
    fraction = completed / submitted if submitted else 0.0
    marker = "" if fraction >= min_completed else "  [REGRESSION]"
    print(
        f"completed fraction   : fresh {100 * fraction:6.2f}%   "
        f"bound >= {100 * min_completed:.0f}%{marker}"
    )
    if fraction < min_completed:
        failures.append(
            f"completed fraction {100 * fraction:.1f}% below "
            f"{100 * min_completed:.0f}% ({completed}/{submitted})"
        )

    max_violation = gates["max_slo_violation_ratio"]
    marker = "" if violation <= max_violation else "  [REGRESSION]"
    print(
        f"slo_violation_ratio  : reference {100 * float(reference['slo_violation_ratio']):6.2f}%   "
        f"fresh {100 * violation:6.2f}%   bound <= {100 * max_violation:.0f}%{marker}"
    )
    if violation > max_violation:
        failures.append(
            f"live SLO-violation ratio {100 * violation:.2f}% exceeds the "
            f"documented bound {100 * max_violation:.0f}% "
            f"(DES reference {100 * float(reference['slo_violation_ratio']):.2f}%)"
        )
    return failures


def check(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Return the list of hard failures (empty = gate passes)."""
    failures: list[str] = []

    base_load = (baseline.get("workload") or {}).get("resident_bursts")
    fresh_load = (fresh.get("workload") or {}).get("resident_bursts")
    if base_load != fresh_load:
        # The reference model's per-burst cost is O(resident bursts), so the
        # speedup ratio is only comparable between equal workloads.
        raise ValueError(
            f"workload mismatch: baseline keeps {base_load} resident bursts, fresh "
            f"keeps {fresh_load} — regenerate the fresh report with the same "
            "quick/full mode as the committed baseline"
        )

    base_speedup = float(baseline["speedup_vs_reference"])
    fresh_speedup = float(fresh["speedup_vs_reference"])
    drop = relative_drop(base_speedup, fresh_speedup)
    print(
        f"speedup_vs_reference : baseline {base_speedup:8.1f}x   "
        f"fresh {fresh_speedup:8.1f}x   drop {100 * drop:+6.1f}%"
    )
    if drop > tolerance:
        failures.append(
            f"per-burst throughput vs reference regressed {100 * drop:.1f}% "
            f"(> {100 * tolerance:.0f}% tolerance): "
            f"{base_speedup:.1f}x -> {fresh_speedup:.1f}x"
        )

    # Raw numbers are informational: they compare different machines.
    for section in ("timer_churn", "device_churn", "device_churn_reference"):
        base_section = baseline.get(section)
        fresh_section = fresh.get(section)
        if not base_section or not fresh_section:
            continue
        for key in ("events_per_sec", "bursts_per_sec"):
            if key in base_section and key in fresh_section:
                raw_drop = relative_drop(float(base_section[key]), float(fresh_section[key]))
                note = "  [warn: raw cross-machine drop]" if raw_drop > tolerance else ""
                print(
                    f"{section:<21}: baseline {float(base_section[key]):12,.0f} {key}   "
                    f"fresh {float(fresh_section[key]):12,.0f}   "
                    f"drop {100 * raw_drop:+6.1f}%{note}"
                )

    if baseline.get("quick") != fresh.get("quick"):
        print(
            f"note: baseline quick={baseline.get('quick')} vs fresh "
            f"quick={fresh.get('quick')} — workloads differ in scale, the "
            "normalized speedup gate still applies"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_engine.json", help="committed report")
    parser.add_argument("--fresh", required=True, help="freshly measured report")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="max fractional per-burst-throughput drop before failing (default 0.30)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.tolerance < 1:
        parser.error(f"--tolerance must be in (0, 1), got {args.tolerance}")

    try:
        baseline = load_report(args.baseline)
        kind = baseline["benchmark"]
        # The serve gate's fresh side is a live ScenarioReport, not another
        # gate file.
        fresh = load_report(args.fresh, kinds=("scenario",) if kind == "serve" else (kind,))
        gate = {"serve": check_serve, "scenario": check_scenario, "sweep": check_sweep}
        failures = gate.get(kind, check)(baseline, fresh, args.tolerance)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("benchmark regression gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
