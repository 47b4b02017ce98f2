"""Per-layer attribution for the traced benchmark run.

The program under test is left untouched: :class:`Attribution` wraps, from
the outside, every public entry point of each ``repro`` layer (methods of the
classes a layer module defines, plus its module-level functions) with a span
recorder.  A span opens only where control crosses from one layer into
another, so a layer's self time is its spans' wall time minus the time of the
spans they caused.

Two kinds of work do not enter a layer through a call:

* an engine callback runs from ``Engine.run``'s loop.  Every callback handed
  to ``Engine.schedule_at`` is wrapped so that, when it fires, it runs in a
  span of the layer that owns it (the defining module of the bound object's
  class, or of the function);
* a process resumption is a callback bound to a ``repro.sim`` ``Process``.
  Its owner is the layer whose generator the process runs, learned from the
  generator handed to the public ``Engine.process``.

Whatever ``Engine.run`` does outside those callbacks (heap pops, clock
advance) is the ``sim`` layer's own self time.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import functools
import sys
import time
import types
import typing as _t

#: The benchmark's layers, in report order.
LAYERS = (
    "sim",
    "gpu",
    "manager",
    "faas",
    "scheduler",
    "autoscaler",
    "profiler",
    "k8s",
    "memtier",
    "migrate",
    "obs",
    "scenario",
)

#: ``repro`` module prefix → layer.  Longest prefix wins.  The model zoo is
#: the profiler's latency model; the model-sharing store serves replicas; the
#: platform facade and the scenario runner assemble the stack.
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.gpu": "gpu",
    "repro.manager": "manager",
    "repro.faas": "faas",
    "repro.modelshare": "faas",
    "repro.scheduler": "scheduler",
    "repro.autoscaler": "autoscaler",
    "repro.profiler": "profiler",
    "repro.models": "profiler",
    "repro.k8s": "k8s",
    "repro.memtier": "memtier",
    "repro.migrate": "migrate",
    "repro.obs": "obs",
    "repro.scenario": "scenario",
    "repro.platform": "scenario",
}

#: Entry points whose total (not self) time is reported on its own.
TIMED = (
    "repro.scenario.runner.aggregate_report",
    "repro.obs.spans.assemble_spans",
    "repro.obs.metrics.build_registry",
)


def layer_of(module: str | None) -> str | None:
    """The layer owning ``module``, or None for code outside every layer."""
    while module:
        layer = MODULE_LAYERS.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return None


@dataclasses.dataclass
class SpanRecorder:
    """Aggregated spans of one traced window.

    Spans are kept in memory as aggregates per (layer, parent layer): call
    count and total wall time, so a long run costs a bounded amount of
    memory.  ``self_s`` holds each layer's self time; ``calls`` the call
    count of every wrapped entry point by qualified name; ``raised`` the
    exceptions leaving an entry point, by (name, exception class).
    """

    stack: list = dataclasses.field(default_factory=list)
    self_s: dict = dataclasses.field(
        default_factory=lambda: dict.fromkeys(LAYERS, 0.0)
    )
    spans: dict = dataclasses.field(default_factory=dict)
    calls: collections.Counter = dataclasses.field(default_factory=collections.Counter)
    raised: collections.Counter = dataclasses.field(default_factory=collections.Counter)
    timed_s: dict = dataclasses.field(default_factory=lambda: dict.fromkeys(TIMED, 0.0))
    events_scheduled: int = 0
    events_cancelled: int = 0
    events_run: int = 0
    window_s: float = 0.0

    def begin(self) -> None:
        """Open the root span, owned by the scenario runner: recording starts."""
        if self.stack:
            raise RuntimeError("span recorder already recording")
        self.stack.append(["scenario", time.perf_counter(), 0.0])

    def end(self) -> None:
        """Close the root span: recording stops."""
        if len(self.stack) != 1:
            raise RuntimeError(f"unbalanced spans at window end: {len(self.stack)} open")
        layer, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        self.window_s = duration
        self.self_s[layer] += duration - child
        self._count_span(layer, None, duration)

    def _count_span(self, layer: str, parent: str | None, duration: float) -> None:
        cell = self.spans.get((layer, parent))
        if cell is None:
            self.spans[(layer, parent)] = [1, duration]
        else:
            cell[0] += 1
            cell[1] += duration

    def enter(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        self.stack.pop()
        self.self_s[frame[0]] += duration - frame[2]
        parent = self.stack[-1]
        parent[2] += duration
        self._count_span(frame[0], parent[0], duration)


class Attribution:
    """Installs and removes the span wrappers around the ``repro`` layers.

    Use as a context manager around the traced run; every patched attribute
    is restored on exit, so an untraced run in the same process afterwards
    executes the original code.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []
        self._process_layer: dict[int, str] = {}
        self._owner_cache: dict[object, str | None] = {}
        from repro.sim.process import Process

        self._process_type = Process

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, fn: _t.Callable, layer: str, name: str) -> _t.Callable:
        rec = self.recorder
        stack = rec.stack
        calls = rec.calls
        raised = rec.raised
        enter, leave = rec.enter, rec.leave
        timed = name in TIMED
        calls[name] += 0

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            calls[name] += 1
            start = time.perf_counter() if timed else 0.0
            frame = enter(layer) if stack[-1][0] != layer else None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                if frame is not None:
                    leave(frame)
                if timed:
                    rec.timed_s[name] += time.perf_counter() - start

        return entry

    def _owner(self, callback: _t.Callable) -> str | None:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, self._process_type):
            return self._process_layer.get(id(owner), "sim")
        if owner is not None and not isinstance(owner, types.ModuleType):
            key: object = type(owner)
            module = key.__module__
        else:
            function = getattr(callback, "func", callback)  # functools.partial
            key = getattr(function, "__code__", function)
            module = getattr(function, "__module__", None)
        try:
            return self._owner_cache[key]
        except KeyError:
            layer = self._owner_cache[key] = layer_of(module)
            return layer

    def _dispatching(self, callback: _t.Callable) -> _t.Callable:
        """``callback`` wrapped to run in a span of its owning layer."""
        rec = self.recorder
        stack = rec.stack
        owner = self._owner

        def fire(*args):
            if not stack:
                return callback(*args)
            rec.events_run += 1
            layer = owner(callback)
            if layer is None or stack[-1][0] == layer:
                return callback(*args)
            frame = rec.enter(layer)
            try:
                return callback(*args)
            finally:
                rec.leave(frame)

        return fire

    def _set(self, target: object, attr: str, value: object) -> None:
        self._undo.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    # -- the engine's own hooks ----------------------------------------------
    def _patch_engine(self) -> None:
        from repro.sim.engine import Engine, Handle

        rec = self.recorder
        dispatching = self._dispatching
        process_layer = self._process_layer
        schedule_at = Engine.schedule_at
        process = Engine.process
        cancel = Handle.cancel

        def schedule_at_dispatching(engine, when, callback, *args):
            if rec.stack:
                rec.events_scheduled += 1
            return schedule_at(engine, when, dispatching(callback), *args)

        def process_owned(engine, generator, name=""):
            proc = process(engine, generator, name)
            frame = getattr(generator, "gi_frame", None)
            module = frame.f_globals.get("__name__") if frame is not None else None
            process_layer[id(proc)] = layer_of(module) or "sim"
            return proc

        def cancel_counted(handle):
            if rec.stack and not handle.cancelled:
                rec.events_cancelled += 1
            return cancel(handle)

        for fn, name in (
            (schedule_at_dispatching, "schedule_at"),
            (process_owned, "process"),
        ):
            fn.__qualname__ = f"Engine.{name}"
            fn.__module__ = Engine.__module__
            self._set(Engine, name, fn)
        cancel_counted.__qualname__ = "Handle.cancel"
        cancel_counted.__module__ = Handle.__module__
        self._set(Handle, "cancel", cancel_counted)

    # -- install / remove ------------------------------------------------------
    def entry_points(self) -> _t.Iterator[tuple[object, str, object, str, str]]:
        """(owner, attribute, function, layer, qualified name) for every
        public entry point of every loaded layer module."""
        for modname, module in sorted(sys.modules.items()):
            layer = layer_of(modname) if modname.startswith("repro.") else None
            if layer is None or module is None:
                continue
            for attr, obj in sorted(vars(module).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    yield module, attr, obj, layer, f"{modname}.{attr}"
                elif isinstance(obj, type) and _wrappable_class(obj):
                    for name, member in sorted(vars(obj).items()):
                        if name.startswith("_") and name not in ("__init__", "__call__"):
                            continue
                        fn = member
                        if isinstance(member, (staticmethod, classmethod)):
                            fn = member.__func__
                        if isinstance(fn, types.FunctionType):
                            yield obj, name, member, layer, f"{modname}.{obj.__qualname__}.{name}"

    def install(self) -> None:
        self._patch_engine()
        wrapped: dict[int, tuple[_t.Callable, _t.Callable]] = {}
        for owner, attr, member, layer, name in list(self.entry_points()):
            if isinstance(member, (staticmethod, classmethod)):
                self._set(owner, attr, type(member)(self._wrap(member.__func__, layer, name)))
            elif isinstance(owner, types.ModuleType):
                wrapped[id(member)] = (member, self._wrap(member, layer, name))
            else:
                self._set(owner, attr, self._wrap(member, layer, name))
        # A module-level function is rebound wherever it was imported.
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def remove(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    def __enter__(self) -> "Attribution":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()


def _wrappable_class(cls: type) -> bool:
    """Classes whose methods are entry points: not exceptions, enums or
    typing protocols, whose class machinery must stay untouched."""
    if issubclass(cls, (BaseException, enum.Enum)):
        return False
    return not getattr(cls, "_is_protocol", False)
