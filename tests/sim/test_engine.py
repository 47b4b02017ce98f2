"""Unit tests for the event-loop engine."""

from __future__ import annotations

import math

import pytest

import repro.sim.engine as engine_module
from repro.sim import Engine, Interrupt, Process, ScheduleInPastError, SimulationError
from repro.sim.engine import Handle


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_schedule_and_run_order():
    engine = Engine()
    order = []
    engine.schedule(2.0, order.append, "b")
    engine.schedule(1.0, order.append, "a")
    engine.schedule(3.0, order.append, "c")
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 3.0


def test_same_time_events_run_in_schedule_order():
    engine = Engine()
    order = []
    for tag in range(10):
        engine.schedule(1.0, order.append, tag)
    engine.run()
    assert order == list(range(10))


def test_run_until_advances_clock_even_without_events():
    engine = Engine()
    engine.run(until=5.0)
    assert engine.now == 5.0


def test_run_until_does_not_execute_later_events():
    engine = Engine()
    fired = []
    engine.schedule(10.0, fired.append, "late")
    engine.run(until=5.0)
    assert fired == []
    assert engine.now == 5.0
    engine.run(until=15.0)
    assert fired == ["late"]


def test_schedule_in_past_raises():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.run()
    with pytest.raises(ScheduleInPastError):
        engine.schedule_at(0.5, lambda: None)


def test_negative_timeout_raises():
    engine = Engine()
    with pytest.raises(ScheduleInPastError):
        engine.timeout(-1.0)


def test_cancel_prevents_callback():
    engine = Engine()
    fired = []
    handle = engine.schedule(1.0, fired.append, "x")
    handle.cancel()
    engine.run()
    assert fired == []


def test_stop_halts_run():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, 1)
    engine.schedule(2.0, engine.stop)
    engine.schedule(3.0, fired.append, 3)
    engine.run()
    assert fired == [1]
    assert engine.now == 2.0
    # Resuming picks the remaining event back up.
    engine.run()
    assert fired == [1, 3]


def test_nested_scheduling_from_callback():
    engine = Engine()
    seen = []

    def outer():
        seen.append(("outer", engine.now))
        engine.schedule(0.5, inner)

    def inner():
        seen.append(("inner", engine.now))

    engine.schedule(1.0, outer)
    engine.run()
    assert seen == [("outer", 1.0), ("inner", 1.5)]


def test_run_until_in_past_raises():
    engine = Engine()
    engine.schedule(2.0, lambda: None)
    engine.run()
    with pytest.raises(ScheduleInPastError):
        engine.run(until=1.0)


def test_pending_events_counts_uncancelled():
    engine = Engine()
    h1 = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    h1.cancel()
    assert engine.pending_events == 1


def test_pending_events_is_exact_through_pops_and_cancels():
    engine = Engine()
    handles = [engine.schedule(float(i), lambda: None) for i in range(10)]
    for h in handles[::2]:
        h.cancel()
    assert engine.pending_events == 5
    engine.run(until=4.0)  # pops t=1,3 (live) and drains t=0,2,4 (dead)
    assert engine.pending_events == 3
    engine.run()
    assert engine.pending_events == 0


def test_cancel_twice_does_not_double_count():
    engine = Engine()
    h = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    h.cancel()
    h.cancel()
    assert engine.pending_events == 1


def test_cancel_after_execution_is_a_noop():
    engine = Engine()
    h = engine.schedule(1.0, lambda: None)
    engine.run()
    h.cancel()  # must not corrupt the live-entry accounting
    engine.schedule(2.0, lambda: None)
    assert engine.pending_events == 1


def test_peek_returns_next_live_time():
    import math

    engine = Engine()
    assert engine.peek() == math.inf
    h1 = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    assert engine.peek() == 1.0
    h1.cancel()
    assert engine.peek() == 2.0
    engine.run()
    assert engine.peek() == math.inf


def test_heap_compaction_drops_dead_entries():
    engine = Engine()
    handles = [engine.schedule(float(i), lambda: None) for i in range(200)]
    for h in handles[:150]:
        h.cancel()
    assert engine.heap_size == 200
    assert engine.pending_events == 50
    # The next schedule sees >50% dead entries and compacts first.
    engine.schedule(500.0, lambda: None)
    assert engine.heap_size == 51
    assert engine.pending_events == 51


def test_compaction_preserves_execution_order():
    engine = Engine()
    fired = []
    handles = []
    for i in range(100):
        handles.append(engine.schedule(float(i), fired.append, i))
    for i, h in enumerate(handles):
        if i % 3 != 0:
            h.cancel()
    engine.schedule(1000.0, fired.append, 1000)  # triggers compaction
    engine.run()
    assert fired == [i for i in range(100) if i % 3 == 0] + [1000]


def test_schedule_from_callback_survives_compaction():
    """A callback scheduling mid-run must land in the live heap even if its
    schedule call triggers compaction (run() holds a local heap binding)."""
    engine = Engine()
    fired = []
    dead = [engine.schedule(0.5, lambda: None) for _ in range(100)]

    def chain(n: int) -> None:
        fired.append(n)
        for h in dead:
            h.cancel()
        if n < 3:
            engine.schedule(1.0, chain, n + 1)

    engine.schedule(0.0, chain, 0)
    engine.run(until=10.0)
    assert fired == [0, 1, 2, 3]
    assert engine.pending_events == 0


def test_run_until_nan_raises_and_fires_nothing():
    engine = Engine()
    fired = []
    for t in (1.0, 5.0, 100.0):
        engine.schedule(t, fired.append, t)
    with pytest.raises(SimulationError, match="NaN"):
        engine.run(until=math.nan)
    assert fired == []
    assert engine.now == 0.0
    assert engine.pending_events == 3


def test_schedule_at_nan_raises():
    with pytest.raises(SimulationError, match="NaN"):
        Engine().schedule_at(math.nan, lambda: None)


def test_same_time_lane_runs_after_earlier_scheduled_same_time_events():
    """Handles scheduled *at* the current time queue behind every handle that
    was scheduled earlier for that same time."""
    engine = Engine()
    order = []

    def first():
        order.append("first")
        engine.schedule(0.0, order.append, "zero-delay")

    engine.schedule(1.0, first)
    engine.schedule(1.0, order.append, "second")
    engine.run()
    assert order == ["first", "second", "zero-delay"]


def test_every_fired_callback_went_through_the_public_hooks(monkeypatch):
    """``Engine.schedule_at`` is the only place a handle is made and
    ``Handle.cancel`` the only cancel path, so wrapping both from outside
    (as the per-layer benchmark does) sees every callback and every cancel."""
    created: list[Handle] = []
    scheduled: list[Handle] = []
    fired: list[Handle] = []
    cancels = 0
    process_callbacks = []
    schedule_at = Engine.schedule_at
    cancel = Handle.cancel

    class CountingHandle(Handle):
        def __init__(self, *args):
            super().__init__(*args)
            created.append(self)

    def schedule_at_wrapped(engine, when, callback, *args):
        if getattr(callback, "__func__", None) in (Process._resume, Process._deliver_interrupt):
            process_callbacks.append(callback)
        box: list[Handle] = []

        def fire(*fire_args):
            fired.append(box[0])
            return callback(*fire_args)

        handle = schedule_at(engine, when, fire, *args)
        box.append(handle)
        scheduled.append(handle)
        return handle

    def cancel_counted(handle):
        nonlocal cancels
        if not handle.cancelled:
            cancels += 1
        return cancel(handle)

    monkeypatch.setattr(engine_module, "Handle", CountingHandle)
    monkeypatch.setattr(Engine, "schedule_at", schedule_at_wrapped)
    monkeypatch.setattr(Handle, "cancel", cancel_counted)

    engine = Engine()
    log = []

    def sleeper():
        try:
            yield engine.timeout(10.0)
        except Interrupt as interrupt:
            log.append(("interrupted", engine.now, interrupt.cause))
        yield engine.timeout(0.0)
        return "woke"

    def worker(n):
        for _ in range(n):
            yield engine.timeout(1.0)
        log.append(("worker", engine.now))

    proc = engine.process(sleeper())
    engine.process(worker(3))
    engine.schedule(2.0, proc.interrupt, "evict")
    doomed = engine.schedule(5.0, log.append, "never")
    fired_then_cancelled = engine.schedule(0.5, log.append, "half")
    engine.run(until=1.0)
    doomed.cancel()
    doomed.cancel()
    fired_then_cancelled.cancel()
    engine.run()

    assert log == ["half", ("interrupted", 2.0, "evict"), ("worker", 3.0)]
    assert proc.value == "woke"
    assert engine.pending_events == 0
    assert created == scheduled  # every handle came out of the wrapper
    # Every scheduled handle but the one cancelled in time fired, exactly once.
    assert sorted(map(id, fired)) == sorted(id(h) for h in scheduled if h is not doomed)
    assert cancels == len([h for h in created if h.cancelled]) == 2
    # Process resumes stay bound methods of their Process, so a wrapper can
    # attribute them to the process's owner.
    assert process_callbacks
    assert all(isinstance(cb.__self__, Process) for cb in process_callbacks)
