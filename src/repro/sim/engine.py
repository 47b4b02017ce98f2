"""The discrete-event engine: virtual clock + compacting binary-heap scheduler.

The engine is deliberately small and allocation-light: the hot path (pop a
handle, run a callback) is a few attribute accesses and C-level tuple
comparisons, with no Python-level ``__lt__`` on the heap.

Queue layout
------------
Pending handles live in two structures that together form one
``(time, seq)``-ordered queue:

* the **heap** of ``(time, seq, handle)`` tuples, for handles due later than
  the clock at the moment they were scheduled;
* the **ready lane**, a FIFO deque of handles scheduled *at* the current
  time (process starts and resumes, zero-delay timeouts, interrupts).

Pop order is exact: a heap entry due at ``now`` was scheduled before the
clock reached ``now``, so its ``seq`` is smaller than that of every handle
in the ready lane.  The loop therefore pops heap entries due at ``now``
first, then the ready lane, and only then advances the clock to the heap's
top.  The clock never advances while the ready lane is non-empty.

Complexity guarantees
---------------------
* ``schedule`` / ``schedule_at``: O(1) deque append when the handle is due
  now, otherwise O(log n) heap push.
* ``Handle.cancel``: O(1) — lazy deletion, the entry stays queued but is
  counted dead.  When more than half of the queued entries are dead (and
  the queue is non-trivially sized) the next scheduling operation
  **compacts** both structures: dead entries are dropped and the heap is
  re-heapified in O(n).  Amortised, every cancelled handle is touched O(1)
  extra times, and the queue never holds more than 2× the live entries.
* ``pending_events``: exact and O(1) (live-entry counter, not a scan).
* ``peek``: O(1) amortised — drains dead entries off the front only.
* ``run(until=...)``: one inlined loop with locally-bound queue ops; the
  clock advances to exactly ``until`` even if no event fires there,
  mirroring SimPy so metric integrals cover the full horizon.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
import typing as _t

from repro.obs.hub import TelemetryHub
from repro.sim.clock import Clock, SimClock
from repro.sim.errors import ScheduleInPastError, SimulationError
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngStreams

#: Compact the queue when dead entries outnumber live ones *and* it holds at
#: least this many entries (tiny queues are cheaper to drain than to rebuild).
_COMPACT_MIN_SIZE = 64


class Handle:
    """A cancelable reference to a scheduled callback."""

    __slots__ = ("time", "callback", "args", "cancelled", "_engine")

    def __init__(self, time: float, callback: _t.Callable, args: tuple, engine: "Engine"):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: The engine until the handle is popped; a cancel before then counts
        #: the dead entry there.  (A dead handle's is never read again.)
        self._engine: "Engine | None" = engine

    def cancel(self) -> None:
        """Prevent the callback from running (lazy deletion from the queue)."""
        if self.cancelled:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None:
            # Still queued: account the dead entry so pending_events stays
            # exact and compaction can trigger.
            engine._dead += 1


class Engine:
    """Virtual-time event loop.

    Parameters
    ----------
    seed:
        Master seed for :class:`~repro.sim.rng.RngStreams`; every component
        derives an independent stream from it so simulations are bit-exactly
        reproducible.
    trace:
        When true, enable the hub and its engine-timer channel: every
        ``schedule``/``schedule_at`` emits an ``engine``/``schedule`` hub
        event (costly; off by default).
    clock:
        The engine's time source (see :mod:`repro.sim.clock`).  Defaults to
        :class:`~repro.sim.clock.SimClock` — pure virtual event-time, the
        mode every simulation pin uses.  A live serving driver swaps in a
        :class:`~repro.sim.clock.WallClock` via :meth:`use_clock` and paces
        ``run(until=clock.now())`` against real time; the engine's timeline
        semantics are identical either way.

    Attributes
    ----------
    hub:
        The run's :class:`~repro.obs.hub.TelemetryHub` — the single event
        stream all subsystems (gateway, scheduler, autoscaler, memory tier,
        pod lifecycle) emit structured telemetry to.  Disabled by default;
        scenario runs flip ``hub.enabled`` when measurement telemetry is on.
    trace:
        Whether the engine-timer channel is on, gated separately from
        ``hub.enabled`` so scenario telemetry does not drown in timer events.
    """

    def __init__(self, seed: int = 0, trace: bool = False, clock: Clock | None = None):
        self._now: float = 0.0
        self._heap: list[tuple[float, int, Handle]] = []
        self._ready: collections.deque[Handle] = collections.deque()
        self._seq = itertools.count()
        self._stopped = False
        #: Cancelled-but-not-yet-popped entries in the heap and ready lane.
        self._dead = 0
        self.rng = RngStreams(seed)
        self.hub = TelemetryHub(enabled=trace)
        self.trace = trace
        self._processes_started = 0
        #: Optional hook called as ``on_schedule(time)`` after every push —
        #: a wall-clock driver uses it to wake early when a callback
        #: schedules work due before the driver's current sleep deadline.
        self.on_schedule: _t.Callable[[float], None] | None = None
        self.clock: Clock = clock if clock is not None else SimClock()
        self.clock.bind(self)

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current engine-timeline time in seconds."""
        return self._now

    def use_clock(self, clock: Clock) -> None:
        """Swap the time source (e.g. sim → wall at live-serve start).

        The timeline itself is untouched: scheduled handles keep their
        absolute times, and a subsequent ``run(until=...)`` fires them in
        the same order regardless of which clock paces the targets.
        """
        clock.bind(self)
        self.clock = clock

    # -- scheduling --------------------------------------------------------
    def schedule(self, delay: float, callback: _t.Callable, *args) -> Handle:
        """Run ``callback(*args)`` ``delay`` seconds from now; returns a handle."""
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: _t.Callable, *args) -> Handle:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        now = self._now
        if not time >= now:  # also catches NaN
            if math.isnan(time):
                raise SimulationError("cannot schedule at NaN time")
            raise ScheduleInPastError(f"cannot schedule at t={time:.9f} < now={now:.9f}")
        heap = self._heap
        ready = self._ready
        dead = self._dead
        # The first test is implied by the second; it skips the lengths in the
        # common case of few dead entries.
        if dead > _COMPACT_MIN_SIZE // 2 and dead * 2 > len(heap) + len(ready) >= _COMPACT_MIN_SIZE:
            self._compact()
        handle = Handle(time, callback, args, self)
        if time == now:
            # FIFO lane, no sequence number needed: it pops after every heap
            # entry due now and before anything later (module docstring).
            ready.append(handle)
        else:
            heapq.heappush(heap, (time, next(self._seq), handle))
        if self.on_schedule is not None:
            self.on_schedule(time)
        if self.trace:
            self.hub.emit(
                now,
                "engine",
                "schedule",
                at=time,
                callback=getattr(callback, "__qualname__", repr(callback)),
            )
        return handle

    def _compact(self) -> None:
        """Drop dead entries and re-heapify — O(n), amortised O(1) per cancel.

        Determinism is unaffected: pop order is fully determined by the
        ``(time, seq)`` keys of the surviving entries, not by the heap
        layout.  Both structures are rebuilt in place so local bindings (run()'s
        hot loop, a mid-compaction schedule_at) keep seeing the live queue.
        """
        heap = self._heap
        ready = self._ready
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        live = [handle for handle in ready if not handle.cancelled]
        ready.clear()
        ready.extend(live)
        self._dead = 0

    # -- event / process factories ------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event bound to this engine."""
        return Event(self, name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that succeeds ``delay`` seconds from now."""
        if delay < 0:
            raise ScheduleInPastError(f"negative timeout {delay!r}")
        return Timeout(self, delay, value)

    def process(self, generator: _t.Generator, name: str = "") -> Process:
        """Spawn a coroutine process; it starts on the next engine step."""
        self._processes_started += 1
        return Process(self, generator, name or f"proc-{self._processes_started}")

    # -- running -------------------------------------------------------------
    def _front(self) -> Handle | None:
        """The next live handle, left queued; dead entries ahead of it are
        dropped.  None when nothing live is queued."""
        heap = self._heap
        ready = self._ready
        while True:
            if heap and (heap[0][0] == self._now or not ready):
                handle = heap[0][2]
                if not handle.cancelled:
                    return handle
                heapq.heappop(heap)
            elif ready:
                handle = ready[0]
                if not handle.cancelled:
                    return handle
                ready.popleft()
            else:
                return None
            self._dead -= 1

    def peek(self) -> float:
        """Time of the next live event, or ``math.inf`` if the queue is empty.

        Dead (cancelled) entries encountered at the front of the queue are
        drained as a side effect, so repeated peeks are O(1) amortised.
        """
        handle = self._front()
        return math.inf if handle is None else handle.time

    def step(self) -> bool:
        """Execute the next scheduled callback. Returns False if none left."""
        handle = self._front()
        if handle is None:
            return False
        heap = self._heap
        if heap and heap[0][2] is handle:
            heapq.heappop(heap)
        else:
            self._ready.popleft()
        handle._engine = None
        self._now = handle.time
        handle.callback(*handle.args)
        return True

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains or the clock would pass ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if no event fires there, mirroring SimPy semantics so metric
        integrals cover the full horizon.
        """
        if until is None:
            limit = math.inf
        elif math.isnan(until):
            raise SimulationError("cannot run until NaN time")
        elif until < self._now:
            raise ScheduleInPastError(f"run(until={until}) is in the past (now={self._now})")
        else:
            limit = until
        self._stopped = False
        heap = self._heap
        ready = self._ready
        # Local bindings: the loop below is the engine's hot path.
        heappop = heapq.heappop
        popleft = ready.popleft
        while not self._stopped:
            if heap and heap[0][0] == self._now:
                handle = heappop(heap)[2]
            elif ready:
                handle = popleft()
            elif heap:
                handle = heap[0][2]
                if handle.time > limit and not handle.cancelled:
                    break
                heappop(heap)
            else:
                break
            if handle.cancelled:
                self._dead -= 1
                continue
            handle._engine = None
            self._now = handle.time
            handle.callback(*handle.args)
        if until is not None and not self._stopped:
            self._now = max(self._now, until)
        return self._now

    def stop(self) -> None:
        """Stop :meth:`run` after the currently executing callback returns."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled callbacks in the queue (exact, O(1))."""
        return len(self._heap) + len(self._ready) - self._dead

    @property
    def heap_size(self) -> int:
        """Raw queue length — heap plus ready lane, dead entries included
        (introspection for tests)."""
        return len(self._heap) + len(self._ready)
