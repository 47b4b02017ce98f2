"""Per-request spans assembled from the telemetry hub's event stream.

A :class:`RequestSpan` is the request-level latency attribution the
aggregate wait means dead-end on: arrival → cold/swap/queue wait → service
→ completion, with the same attribution rules the gateway uses
(``cold_wait`` = parked with no accepting replica, ``swap_wait`` = parked
behind an in-flight host→GPU swap-in, ``queue_wait`` = the remainder of the
pre-service wait), so span segment means reconcile exactly with
``RunReport``'s ``*_wait_ms_mean`` fields.

Spans cover *every* submitted request, not just completed ones:

* **never-served** requests (what ``effective_violation_ratio`` adds to
  the violations) produce an open span — ``completed=False``, no service segment;
* **drained in-flight** requests at measurement end keep their last
  ``service_start`` but no completion;
* **rerouted** requests (their replica drained/died mid-queue) carry a
  reroute count; their final service segment is the one that completed.

:func:`to_chrome_trace` renders spans as Chrome trace-event JSON
(one process per function, one track per request) loadable in Perfetto;
:func:`validate_chrome_trace` is the schema check CI and tests share.
"""

from __future__ import annotations

import dataclasses
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.hub import TelemetryEvent


@dataclasses.dataclass(slots=True)
class RequestSpan:
    """One request's reconstructed lifecycle."""

    request_id: int
    function: str
    arrival: float
    start: float | None = None
    end: float | None = None
    replica: str | None = None
    cold_wait_s: float = 0.0
    swap_wait_s: float = 0.0
    completed: bool = False
    #: times the request was re-admitted after its replica drained/died.
    rerouted: int = 0
    #: park reasons observed while pending ("cold"/"swap"), in order.
    park_reasons: tuple[str, ...] = ()

    @property
    def queue_wait_s(self) -> float:
        """Wait behind other requests on an accepting replica (seconds)."""
        if self.start is None:
            return 0.0
        return max(0.0, self.start - self.arrival - self.cold_wait_s - self.swap_wait_s)

    @property
    def service_s(self) -> float | None:
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    @property
    def latency_ms(self) -> float | None:
        if self.end is None:
            return None
        return 1000.0 * (self.end - self.arrival)

    def to_dict(self) -> dict:
        payload: dict[str, object] = {
            "request_id": self.request_id,
            "function": self.function,
            "arrival": self.arrival,
            "completed": self.completed,
        }
        if self.start is not None:
            payload["start"] = self.start
        if self.end is not None:
            payload["end"] = self.end
        if self.replica is not None:
            payload["replica"] = self.replica
        if self.cold_wait_s:
            payload["cold_wait_s"] = self.cold_wait_s
        if self.swap_wait_s:
            payload["swap_wait_s"] = self.swap_wait_s
        if self.start is not None:
            payload["queue_wait_s"] = self.queue_wait_s
        if self.rerouted:
            payload["rerouted"] = self.rerouted
        if self.park_reasons:
            payload["park_reasons"] = list(self.park_reasons)
        return payload

    @classmethod
    def from_dict(cls, payload: _t.Mapping) -> "RequestSpan":
        return cls(
            request_id=int(payload["request_id"]),
            function=str(payload["function"]),
            arrival=float(payload["arrival"]),
            start=payload.get("start"),
            end=payload.get("end"),
            replica=payload.get("replica"),
            cold_wait_s=float(payload.get("cold_wait_s", 0.0)),
            swap_wait_s=float(payload.get("swap_wait_s", 0.0)),
            completed=bool(payload.get("completed", False)),
            rerouted=int(payload.get("rerouted", 0)),
            park_reasons=tuple(payload.get("park_reasons", ())),
        )


def assemble_spans(events: _t.Iterable["TelemetryEvent"]) -> list[RequestSpan]:
    """Reconstruct one span per submitted request from the event stream.

    Completed requests take their timestamps and wait attribution from the
    gateway's ``complete`` event (authoritative — it reflects the final
    routing after any reroutes).  Requests with no completion keep whatever
    the stream saw: parks (→ ``park_reasons``), the last ``service_start``
    (→ drained in-flight), or nothing beyond arrival (→ never served).
    """
    spans: dict[int, RequestSpan] = {}
    for event in events:
        payload = event.payload
        if event.source == "gateway" and event.kind == "arrival":
            rid = _t.cast(int, payload["rid"])
            spans[rid] = RequestSpan(
                request_id=rid,
                function=event.function or "",
                arrival=event.time,
            )
            continue
        rid_obj = payload.get("rid")
        if rid_obj is None:
            continue
        rid = _t.cast(int, rid_obj)
        span = spans.get(rid)
        if span is None:
            continue  # submitted before the stream opened
        if event.source == "gateway" and event.kind == "park":
            span.park_reasons += (str(payload.get("reason", "cold")),)
        elif event.source == "gateway" and event.kind == "reroute":
            span.rerouted += 1
            span.start = None
            span.replica = None
        elif event.source == "replica" and event.kind == "service_start":
            span.start = event.time
            span.replica = _t.cast(str, payload.get("replica"))
        elif event.source == "gateway" and event.kind == "complete":
            span.start = _t.cast(float, payload.get("start"))
            span.end = event.time
            span.replica = _t.cast(str, payload.get("replica"))
            span.cold_wait_s = _t.cast(float, payload.get("cold_wait_s", 0.0))
            span.swap_wait_s = _t.cast(float, payload.get("swap_wait_s", 0.0))
            span.completed = True
    return sorted(spans.values(), key=lambda s: (s.arrival, s.request_id))


# -- Chrome trace-event export (Perfetto-loadable) ---------------------------

#: Span segments rendered as trace slices, in lifecycle order.
_SEGMENTS = ("cold_wait", "swap_wait", "queue_wait", "service")


def to_chrome_trace(
    spans: _t.Sequence[RequestSpan], clip_s: float | None = None
) -> dict:
    """Render spans as Chrome trace-event JSON (``{"traceEvents": [...]}``).

    One *process* per function (named via ``process_name`` metadata), one
    *thread* (track) per request.  Each span becomes consecutive complete
    ("X") slices — cold wait, swap wait, queue wait, service — whose
    durations sum to the request latency.  Open spans (never served or
    still in flight) render a single ``unserved_wait`` / ``service
    (unfinished)`` slice up to ``clip_s`` (the measurement end).
    Timestamps are virtual-clock microseconds; no wall-clock enters.
    """
    functions = sorted({s.function for s in spans})
    pid_of = {name: index + 1 for index, name in enumerate(functions)}
    events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid_of[name],
            "tid": 0,
            "args": {"name": name},
        }
        for name in functions
    ]

    def us(t: float) -> int:
        return int(round(t * 1e6))

    for span in spans:
        pid = pid_of[span.function]
        tid = span.request_id
        args = {"request_id": span.request_id}
        if span.replica is not None:
            args["replica"] = span.replica  # type: ignore[assignment]
        if span.rerouted:
            args["rerouted"] = span.rerouted
        if span.completed and span.start is not None and span.end is not None:
            cursor = span.arrival
            durations = {
                "cold_wait": span.cold_wait_s,
                "swap_wait": span.swap_wait_s,
                "queue_wait": span.queue_wait_s,
                "service": span.end - span.start,
            }
            for segment in _SEGMENTS:
                duration = durations[segment]
                if duration <= 0.0:
                    continue
                events.append(
                    {
                        "ph": "X",
                        "name": segment,
                        "cat": "request",
                        "ts": us(cursor),
                        "dur": us(duration),
                        "pid": pid,
                        "tid": tid,
                        "args": args,
                    }
                )
                cursor += duration
            continue
        # Open span: a single slice up to the measurement end.
        clip = clip_s if clip_s is not None else span.arrival
        if span.start is not None:
            events.append(
                {
                    "ph": "X",
                    "name": "service (unfinished)",
                    "cat": "request",
                    "ts": us(span.start),
                    "dur": us(max(0.0, clip - span.start)),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        else:
            events.append(
                {
                    "ph": "X",
                    "name": "unserved_wait",
                    "cat": "violation",
                    "ts": us(span.arrival),
                    "dur": us(max(0.0, clip - span.arrival)),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
    return {"displayTimeUnit": "ms", "traceEvents": events}


def validate_chrome_trace(payload: object) -> None:
    """Schema-check a Chrome trace-event document; raises ``ValueError``.

    The subset Perfetto's JSON importer requires: a ``traceEvents`` list of
    objects, each with a string ``ph`` and ``name`` and integer ``pid`` and
    ``tid``; complete ("X") slices additionally need non-negative numeric
    ``ts`` and ``dur``.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"trace: expected an object, got {type(payload).__name__}")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace: 'traceEvents' must be a list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: expected an object")
        ph = event.get("ph")
        if not isinstance(ph, str) or not ph:
            raise ValueError(f"{where}: missing phase 'ph'")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"{where}: missing 'name'")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int) or isinstance(event.get(key), bool):
                raise ValueError(f"{where}: '{key}' must be an integer")
        if ph == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(f"{where}: '{key}' must be a number")
                if value < 0:
                    raise ValueError(f"{where}: '{key}' must be >= 0, got {value}")
