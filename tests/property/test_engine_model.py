"""Model-based test: the engine against a reference queue sorted by (time, seq).

Random programs mix ``schedule``/``schedule_at`` (zero delays and equal times
included, some issued from inside firing callbacks), ``cancel`` (before and
after firing, and twice), ``run(until=...)`` in slices, ``run()``, ``step()``
and ``peek()``.  Bursts of schedules followed by bulk cancels push the dead
share past one half, so queue compaction runs mid-program.  After every
operation the engine must agree with the reference on the fire order, the
clock and ``pending_events``; at every ``peek`` on the next due time.
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
from hypothesis import event, example, given, settings

from repro.sim import Engine

DELAYS = st.sampled_from([0.0, 0.0, 0.25, 1.0, 1.0, 2.0])
CHILD = st.one_of(
    st.tuples(st.just("schedule"), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 10**6)),
)
# Bursts and bulk cancels are listed twice to weight them: about one program
# in eight then compacts.
OP = st.one_of(
    st.tuples(st.sampled_from(["schedule", "schedule_at"]), DELAYS, st.lists(CHILD, max_size=3)),
    st.tuples(st.just("burst"), st.integers(1, 100), DELAYS),
    st.tuples(st.just("burst"), st.integers(1, 100), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 10**6)),
    st.tuples(st.just("cancel_recent"), st.integers(1, 100)),
    st.tuples(st.just("cancel_recent"), st.integers(1, 100)),
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    st.tuples(st.just("run_all")),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
)


class Side:
    """Program state shared by the engine and the reference: the handles in
    creation order, each handle's child operations, and the fire order."""

    def __init__(self) -> None:
        self.children: list[list[tuple]] = []
        self.fired: list[int] = []

    def fire(self, ident: int) -> None:
        self.fired.append(ident)
        for child in self.children[ident]:
            if child[0] == "schedule":
                self.add("schedule", child[1], [])
            else:
                self.cancel(child[1] % len(self.children))

    def apply(self, op: tuple):
        kind = op[0]
        if kind in ("schedule", "schedule_at"):
            self.add(kind, op[1], op[2])
        elif kind == "burst":
            for i in range(op[1]):
                self.add("schedule", op[2] * (i % 3), [])
        elif kind == "cancel":
            if self.children:
                self.cancel(op[1] % len(self.children))
        elif kind == "cancel_recent":
            for ident in range(max(0, len(self.children) - op[1]), len(self.children)):
                self.cancel(ident)
        elif kind == "run":
            self.run(self.now + op[1])
        elif kind == "run_all":
            self.run(None)
        elif kind == "step":
            return self.step()
        else:
            return self.peek()
        return None


class EngineSide(Side):
    def __init__(self) -> None:
        super().__init__()
        self.engine = Engine()
        self.handles = []
        self.compactions = 0
        compact = self.engine._compact

        def counted() -> None:
            self.compactions += 1
            compact()

        self.engine._compact = counted

    @property
    def now(self) -> float:
        return self.engine.now

    @property
    def pending(self) -> int:
        return self.engine.pending_events

    def add(self, kind: str, delay: float, children: list) -> None:
        ident = len(self.children)
        self.children.append(children)
        if kind == "schedule":
            handle = self.engine.schedule(delay, self.fire, ident)
        else:
            handle = self.engine.schedule_at(self.engine.now + delay, self.fire, ident)
        self.handles.append(handle)

    def cancel(self, ident: int) -> None:
        self.handles[ident].cancel()

    def run(self, until: float | None) -> None:
        self.engine.run(until)

    def step(self) -> bool:
        return self.engine.step()

    def peek(self) -> float:
        return self.engine.peek()


class Reference(Side):
    """A dict of live entries; the next one is the (time, seq) minimum."""

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.queue: dict[int, tuple[float, int]] = {}

    @property
    def pending(self) -> int:
        return len(self.queue)

    def add(self, kind: str, delay: float, children: list) -> None:
        ident = len(self.children)
        self.children.append(children)
        self.queue[ident] = (self.now + delay, ident)

    def cancel(self, ident: int) -> None:
        self.queue.pop(ident, None)

    def _fire_next(self, until: float) -> bool:
        if not self.queue:
            return False
        ident = min(self.queue, key=self.queue.__getitem__)
        time = self.queue[ident][0]
        if time > until:
            return False
        del self.queue[ident]
        self.now = time
        self.fire(ident)
        return True

    def run(self, until: float | None) -> None:
        while self._fire_next(math.inf if until is None else until):
            pass
        if until is not None:
            self.now = max(self.now, until)

    def step(self) -> bool:
        return self._fire_next(math.inf)

    def peek(self) -> float:
        return min((time for time, _ in self.queue.values()), default=math.inf)


def check_against_reference(program: list[tuple]) -> EngineSide:
    engine, reference = EngineSide(), Reference()
    for op in program:
        got, want = engine.apply(op), reference.apply(op)
        assert got == want, op
        assert engine.fired == reference.fired, op
        assert engine.now == reference.now, op
        assert engine.pending == reference.pending, op
    assert engine.peek() == reference.peek()
    engine.apply(("run_all",))
    reference.apply(("run_all",))
    assert engine.fired == reference.fired
    assert engine.pending == reference.pending == 0
    return engine


#: Fills the queue at t=0 (ready lane) and t>0 (heap), then cancels most of
#: it, so the next schedule compacts both structures.
COMPACTING = [
    ("burst", 80, 1.0),
    ("schedule", 0.0, [("schedule", 0.0), ("cancel", 3)]),
    ("cancel_recent", 70),
    ("schedule_at", 1.0, [("schedule", 0.0)]),
    ("peek",),
    ("run", 1.0),
    ("step",),
]


def test_compacting_program_compacts_and_matches_reference():
    assert check_against_reference(COMPACTING).compactions >= 1


@given(st.lists(OP, max_size=40))
@example(COMPACTING)
@settings(max_examples=200, deadline=None)
def test_engine_matches_sorted_reference(program):
    engine = check_against_reference(program)
    event("compacted" if engine.compactions else "not compacted")
