"""``python -m repro explain REPORT.json`` — causal chains for SLO violations.

Works entirely from a saved :class:`~repro.scenario.report.ScenarioReport`
whose ``telemetry`` block was recorded (``measurement.telemetry: true`` or
``--telemetry``): ranks the worst SLO violations, decomposes each one's
latency into its wait segments, and walks the event stream backwards and
forwards to name the control-plane decisions on its causal chain —

* the **scheduler** placements rejected while the request was parked
  (per-node reject reasons recorded at no-fit time);
* the **autoscaler / memtier** decision that removed capacity before the
  request arrived (demote / retire / down, with its recorded reason and,
  for forecast-driven demotions, forecast gap vs the gap that actually
  happened);
* the promotion / swap-in / placement that eventually served it.

Never-served requests (the ``effective_violation_ratio`` population) rank
worst of all; completed requests rank by excess latency over their
function's SLO.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.obs.spans import RequestSpan


class ExplainError(ValueError):
    """Raised when a report cannot be explained (no telemetry recorded…)."""


@dataclasses.dataclass(frozen=True, slots=True)
class Violation:
    """One ranked SLO violation with its causal context."""

    span: RequestSpan
    slo_ms: float | None
    #: excess over SLO in ms; ``None`` for never-served requests (worst).
    excess_ms: float | None
    causes: tuple[str, ...]

    @property
    def never_served(self) -> bool:
        return self.excess_ms is None


def _slo_of(report: _t.Mapping, function: str) -> float | None:
    entry = report.get("functions", {}).get(function)
    if entry is None:
        return None
    return entry.get("slo_ms")


def load_telemetry(report: _t.Mapping) -> dict:
    """Extract and sanity-check the ``telemetry`` block of a report payload."""
    telemetry = report.get("telemetry")
    if not isinstance(telemetry, dict):
        raise ExplainError(
            "report has no 'telemetry' block — re-run the scenario with "
            "telemetry enabled (--telemetry, or measurement.telemetry: true)"
        )
    for key in ("events", "spans"):
        if not isinstance(telemetry.get(key), list):
            raise ExplainError(f"telemetry block is missing its '{key}' list")
    return telemetry


def rank_violations(
    report: _t.Mapping,
    function: str | None = None,
    worst: int = 3,
) -> list[Violation]:
    """The ``worst`` most severe SLO violations, most severe first."""
    telemetry = load_telemetry(report)
    spans = [RequestSpan.from_dict(s) for s in telemetry["spans"]]
    if function is not None:
        spans = [s for s in spans if s.function == function]
        if not spans:
            raise ExplainError(f"no spans recorded for function {function!r}")
    events = telemetry["events"]

    candidates: list[tuple[tuple, RequestSpan, float | None, float | None]] = []
    for span in spans:
        slo_ms = _slo_of(report, span.function)
        if span.completed:
            if slo_ms is None or span.latency_ms is None:
                continue
            excess = span.latency_ms - slo_ms
            if excess <= 0.0:
                continue
            # Rank completed violations below every never-served request,
            # by descending excess.
            candidates.append(((1, -excess), span, slo_ms, excess))
        elif span.start is None:
            # Never served: the effective-violation population — rank
            # worst, oldest arrival first (it waited the longest).
            candidates.append(((0, span.arrival), span, slo_ms, None))
    candidates.sort(key=lambda c: c[0])

    out = []
    for _, span, slo_ms, excess in candidates[: max(0, worst)]:
        causes = _causal_chain(span, events)
        out.append(Violation(span=span, slo_ms=slo_ms, excess_ms=excess, causes=causes))
    return out


def _causal_chain(span: RequestSpan, events: _t.Sequence[_t.Mapping]) -> tuple[str, ...]:
    """Human-readable causal steps for one violated request, in time order."""
    fn = span.function
    wait_end = span.start if span.start is not None else None
    causes: list[str] = []

    # 1. The capacity-removal decision closest before arrival: why was no
    #    replica accepting when the request came in?
    removal = None
    for event in events:
        if event["time"] >= span.arrival:
            break
        source, kind = event.get("source"), event.get("kind")
        if event.get("function") != fn:
            continue
        if (source, kind) in (
            ("autoscaler", "demote"),
            ("autoscaler", "retire"),
            ("autoscaler", "evict-host"),
            ("memtier", "demote"),
            ("memtier", "evict"),
            ("scheduler", "down"),
            ("migrate", "start"),
        ):
            removal = event
    if removal is not None:
        payload = removal.get("payload", {})
        ago = span.arrival - removal["time"]
        what = {
            "demote": "demoted the pod to host RAM",
            "retire": "retired the warm pod",
            "evict-host": "evicted the host copy",
            "evict": "evicted the host copy",
            "down": "scaled the last capacity down",
            "start": "begun live-migrating the pod to another GPU",
        }[removal["kind"]]
        line = f"{removal['source']} had {what} {ago:.1f}s before arrival"
        if payload.get("reason"):
            line += f" on {payload['reason']}"
        gap = payload.get("forecast_gap_s")
        if gap is not None:
            line += f" (forecast gap {gap:.0f}s, actual gap {ago:.1f}s)"
        causes.append(line)

    # 2. What the request waited on while parked / queued.  For a
    #    never-served request the wait window is open-ended.
    if wait_end is not None:
        in_wait = [e for e in events if span.arrival <= e["time"] <= wait_end]
    else:
        in_wait = [e for e in events if e["time"] >= span.arrival]
    for event in in_wait:
        source, kind = event.get("source"), event.get("kind")
        payload = event.get("payload", {})
        if source == "scheduler" and kind == "nofit" and event.get("function") == fn:
            rejects = payload.get("rejects") or []
            if rejects:
                by_reason: dict[str, list[str]] = {}
                for reject in rejects:
                    by_reason.setdefault(reject["reason"], []).append(reject["node"])
                detail = "; ".join(
                    f"{', '.join(nodes)}: {reason}"
                    for reason, nodes in sorted(by_reason.items())
                )
                causes.append(
                    f"placement rejected all nodes at t={event['time']:.1f}s ({detail})"
                )
            else:
                causes.append(f"placement found no fit at t={event['time']:.1f}s")
        elif source == "migrate" and event.get("function") == fn:
            if kind == "start":
                causes.append(
                    f"replica went mid-migration at t={event['time']:.1f}s "
                    f"({payload.get('src_node', '?')} -> {payload.get('dst_node', '?')}, "
                    f"estimated {payload.get('estimate_s', 0.0):.2f}s)"
                )
            elif kind == "finish":
                causes.append(
                    f"migration landed on {payload.get('dst_node', '?')} "
                    f"at t={event['time']:.1f}s "
                    f"(took {payload.get('duration_s', 0.0):.2f}s)"
                )
            elif kind == "abort":
                causes.append(
                    f"migration aborted at t={event['time']:.1f}s "
                    f"(source stayed on {payload.get('src_node', '?')})"
                )
        elif payload.get("rid") == span.request_id:
            if source == "gateway" and kind == "park":
                causes.append(
                    f"parked at t={event['time']:.1f}s "
                    f"({payload.get('reason', 'cold')}-waiting: no accepting replica)"
                )
            elif source == "gateway" and kind == "unpark":
                causes.append(
                    f"unparked after {payload.get('waited_s', 0.0):.2f}s "
                    f"({payload.get('attributed', 'cold')}-attributed)"
                )
            elif source == "gateway" and kind == "reroute":
                causes.append(
                    f"rerouted at t={event['time']:.1f}s (its replica drained)"
                )

    # 3. The capacity-restoring decision that (eventually) let it run.
    if wait_end is not None:
        restore = None
        for event in events:
            if event["time"] > wait_end:
                break
            if event["time"] < span.arrival or event.get("function") != fn:
                continue
            if (event.get("source"), event.get("kind")) in (
                ("scheduler", "up"),
                ("scheduler", "promote"),
                ("scheduler", "swapin"),
                ("gateway", "promote_warm"),
                ("gateway", "swap_promote"),
                ("memtier", "promote"),
                ("migrate", "finish"),
            ):
                restore = event
        if restore is not None:
            payload = restore.get("payload", {})
            what = {
                ("scheduler", "up"): "scheduler placed a new pod",
                ("scheduler", "promote"): "scheduler promoted a warm pod",
                ("scheduler", "swapin"): "scheduler swapped a parked pod in",
                ("gateway", "promote_warm"): "gateway promoted a warm pod",
                ("gateway", "swap_promote"): "gateway triggered a swap-in",
                ("memtier", "promote"): "memory tier swapped the pod back in",
                ("migrate", "finish"): "migration handed the pod over to its destination",
            }[(restore["source"], restore["kind"])]
            line = f"{what} at t={restore['time']:.1f}s"
            if payload.get("trigger") == "migrate":
                line += " (migration handoff)"
            if payload.get("node"):
                line += f" on {payload['node']}"
            elif payload.get("dst_node"):
                line += f" on {payload['dst_node']}"
            if payload.get("estimate_s") is not None:
                line += (
                    f" (swap estimate {payload['estimate_s']:.2f}s, "
                    f"{payload.get('fabric_active', 0)} transfers active)"
                )
            causes.append(line)
    elif not causes:
        causes.append("no capacity-restoring decision ever reached this request")
    return tuple(causes)


def format_violation(index: int, violation: Violation) -> str:
    """Render one ranked violation as an indented text block."""
    span = violation.span
    lines: list[str] = []
    if violation.never_served:
        head = (
            f"#{index} request {span.request_id} ({span.function}): NEVER SERVED "
            f"(arrived t={span.arrival:.1f}s"
        )
        if span.park_reasons:
            head += f", parked {'/'.join(span.park_reasons)}"
        head += ")"
    else:
        head = (
            f"#{index} request {span.request_id} ({span.function}): "
            f"{span.latency_ms:.0f} ms vs SLO {violation.slo_ms:.0f} ms "
            f"(+{violation.excess_ms:.0f} ms)"
        )
    lines.append(head)
    if span.completed and span.start is not None and span.end is not None:
        segments = [
            ("cold wait", span.cold_wait_s),
            ("swap wait", span.swap_wait_s),
            ("queue wait", span.queue_wait_s),
            ("service", span.end - span.start),
        ]
        parts = [
            f"{name} {1000.0 * value:.0f} ms" for name, value in segments if value > 0
        ]
        lines.append("    segments: " + ", ".join(parts))
    for cause in violation.causes:
        lines.append(f"    - {cause}")
    if not violation.causes:
        lines.append("    - (no control-plane events on this request's chain)")
    return "\n".join(lines)


def explain_report(
    report: _t.Mapping,
    function: str | None = None,
    worst: int = 3,
) -> str:
    """The full ``repro explain`` output for a loaded report payload."""
    violations = rank_violations(report, function=function, worst=worst)
    scope = f" for function {function!r}" if function else ""
    mode = report.get("mode", "sim")
    mode_tag = f" [mode={mode}]" if mode != "sim" else ""
    if not violations:
        return f"No SLO violations recorded{scope}{mode_tag}."
    lines = [
        f"Worst {len(violations)} SLO violation(s){scope} "
        f"(of scenario {report.get('scenario', {}).get('name', '?')!r}{mode_tag}):"
    ]
    for index, violation in enumerate(violations, start=1):
        lines.append(format_violation(index, violation))
    return "\n".join(lines)


# -- span-level report diffing ------------------------------------------------

#: The per-request wait segments compared by ``explain --diff`` (label, ms).
DIFF_SEGMENTS = ("queue_wait_ms", "cold_wait_ms", "swap_wait_ms", "service_ms")


def segment_means(report: _t.Mapping) -> dict[str, dict[str, float]]:
    """Per-function mean wait/cold/swap/service segments (ms) from spans.

    Only completed requests carry all four segments; the returned entry also
    records ``count`` (completed spans) and ``latency_ms`` (mean end-to-end).
    Raises :class:`ExplainError` when the report has no telemetry.
    """
    telemetry = load_telemetry(report)
    sums: dict[str, dict[str, float]] = {}
    for raw in telemetry["spans"]:
        span = RequestSpan.from_dict(raw)
        if not span.completed or span.start is None or span.end is None:
            continue
        entry = sums.setdefault(
            span.function,
            {"count": 0.0, "latency_ms": 0.0} | {key: 0.0 for key in DIFF_SEGMENTS},
        )
        entry["count"] += 1.0
        entry["queue_wait_ms"] += 1000.0 * span.queue_wait_s
        entry["cold_wait_ms"] += 1000.0 * span.cold_wait_s
        entry["swap_wait_ms"] += 1000.0 * span.swap_wait_s
        entry["service_ms"] += 1000.0 * (span.end - span.start)
        entry["latency_ms"] += span.latency_ms or 0.0
    means: dict[str, dict[str, float]] = {}
    for function, entry in sums.items():
        count = entry.pop("count")
        means[function] = {key: value / count for key, value in entry.items()}
        means[function]["count"] = count
    return means


def diff_reports(a: _t.Mapping, b: _t.Mapping) -> str:
    """``repro explain --diff A B`` — compare per-function segment means.

    A is the baseline, B the candidate; positive deltas are regressions
    (B slower).  Functions are ranked by their single worst segment
    regression.  Both reports must carry telemetry.
    """
    means_a = segment_means(a)
    means_b = segment_means(b)
    shared = sorted(set(means_a) & set(means_b))
    if not shared:
        raise ExplainError(
            "no function has completed spans in both reports — "
            f"A has {sorted(means_a) or 'none'}, B has {sorted(means_b) or 'none'}"
        )

    def describe(payload: _t.Mapping, label: str) -> str:
        name = payload.get("scenario", {}).get("name", "?")
        return (
            f"  {label}: scenario {name!r}  mode={payload.get('mode', 'sim')}  "
            f"quick={payload.get('quick')}  completed={payload.get('totals', {}).get('completed')}"
        )

    lines = [
        "Span-segment diff (B - A, positive = regression):",
        describe(a, "A"),
        describe(b, "B"),
        "",
        f"  {'function':<19} {'segment':<14} {'A(ms)':>9} {'B(ms)':>9} {'delta':>9}",
    ]
    regressions: list[tuple[float, str, str]] = []
    for function in shared:
        for segment in DIFF_SEGMENTS:
            va = means_a[function][segment]
            vb = means_b[function][segment]
            delta = vb - va
            lines.append(
                f"  {function:<19} {segment:<14} {va:9.1f} {vb:9.1f} {delta:+9.1f}"
            )
            regressions.append((delta, function, segment))
    regressions.sort(key=lambda item: -item[0])
    worst = [item for item in regressions if item[0] > 0.0][:5]
    lines.append("")
    if worst:
        lines.append("  biggest regressions:")
        for rank, (delta, function, segment) in enumerate(worst, start=1):
            lines.append(f"    {rank}. {function} {segment} +{delta:.1f} ms")
    else:
        lines.append("  no segment regressed (B <= A everywhere).")
    only_a = sorted(set(means_a) - set(means_b))
    only_b = sorted(set(means_b) - set(means_a))
    if only_a:
        lines.append(f"  (functions only in A: {', '.join(only_a)})")
    if only_b:
        lines.append(f"  (functions only in B: {', '.join(only_b)})")
    return "\n".join(lines)
