"""The declarative Sweep spec: a parameter grid expanded over a base Scenario.

The paper's headline claims are all *comparisons* — policy vs policy,
FaST-GShare vs baseline — and a :class:`Sweep` makes the comparison itself
the declared object: one base :class:`~repro.scenario.spec.Scenario` plus a
grid of named axes, each an explicit list of values for one experiment
dimension::

    {
      "format": "fast-gshare-sweep/1",
      "name": "policy-frontier",
      "base": { ...scenario... },
      "axes": [
        {"axis": "fleet_size", "values": [16, 48, 96]},
        {"axis": "placement", "values": ["binpack", "affinity"]}
      ]
    }

Expansion is the row-major cartesian product (the *last* axis varies
fastest, like nested for-loops over the axes in order), and each cell is a
fully materialized Scenario: axis values are applied to the base spec, and
the cell inherits the base seed — every cell replays identical arrivals, so
metric differences are attributable to the axes — unless ``reseed`` is set,
in which case each cell derives a deterministic CRC-mixed seed from its
coordinates.  The spec round-trips through JSON, so sweeps are committed
files (``examples/sweeps/*.json``) replayed through the one
:func:`repro.sweep.runner.run_sweep` code path.

Axes (:data:`SWEEP_AXES`):

* ``placement``      — node-scoring policy (``autoscaler.placement``);
* ``autoscaler``     — autoscaling policy (``autoscaler.policy``);
* ``nodes``          — cluster size/shape (an int or a per-node GPU-type list);
* ``fleet_size``     — serve only the first N functions of the base fleet;
* ``workload_scale`` — multiply every function's offered load by a factor;
* ``headroom``       — the autoscaler's capacity headroom;
* ``fabric_gbps``    — per-node host↔GPU transfer bandwidth (GB/s);
* ``host_memory``    — per-node host-RAM budget in MB (``null`` disables
  the memory tier entirely);
* ``defrag``         — background-defragmentation trigger threshold in
  (0, 1) (``null`` disables live migration entirely, the default).

``base`` is either an inline scenario object or the path of a committed
scenario file (``"base": "examples/scenarios/longtail_swap.json"``, loaded
through :func:`~repro.scenario.spec.load_scenario`, relative to the working
directory like trace paths); the string form round-trips as written.

A sweep may also state its headline as data: an optional ``"assert"`` list
of :class:`SweepAssertion` entries, each comparing one metric between two
cells::

    {"cell": {"autoscaler": "memtier"}, "metric": "gpu_seconds",
     "ref": {"autoscaler": "hybrid"}, "factor": 0.9192, "slack": 0.0}

holds iff ``cell.metric <= factor * ref.metric + slack``.  ``python -m repro
sweep`` evaluates every assertion after the cells run and exits 1 if any
fails.

Validation is strict (:class:`SweepError` with the offending path): unknown
axes, duplicate axes or values, out-of-range values, a ``fleet_size`` larger
than the base fleet, a ``workload_scale`` axis over a ``trace``-kind
workload (file-backed counts cannot be rescaled declaratively), or an
assertion naming an unknown metric, an absent axis or value, coordinates
that do not pick exactly one cell, or a non-positive factor never silently
run a different grid.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import typing as _t
import zlib

from repro.autoscaler.registry import available_policies
from repro.gpu.specs import GPU_CATALOG
from repro.scenario.spec import (
    DefragSpec,
    Scenario,
    ScenarioError,
    WorkloadSpec,
    load_scenario,
)
from repro.scheduler.mra import PLACEMENT_POLICIES

#: Format tag written into serialized sweeps (bumped on breaking change).
SWEEP_FORMAT = "fast-gshare-sweep/1"

#: Axis names a sweep may declare, i.e. the sweepable experiment dimensions.
SWEEP_AXES = (
    "placement",
    "autoscaler",
    "nodes",
    "fleet_size",
    "workload_scale",
    "headroom",
    "fabric_gbps",
    "host_memory",
    "defrag",
)

#: Cell metrics an assertion may compare: the numeric keys every cell of
#: :func:`repro.sweep.runner.cell_metrics` carries.
ASSERT_METRICS = (
    "submitted",
    "completed",
    "slo_violation_ratio",
    "effective_violation_ratio",
    "p95_ms",
    "gpu_seconds",
    "mean_gpus",
    "peak_gpus",
    "mean_alloc_fraction",
    "cold_hit_requests",
    "cold_wait_ms_mean",
    "queue_wait_ms_mean",
    "scale_ups",
    "scale_downs",
    "nofit_events",
    "prewarms",
    "promotions",
    "retirements",
)


class SweepError(ValueError):
    """A sweep spec is malformed (unknown axis, bad value, bad base scenario)."""


def derive_cell_seed(base_seed: int, key: str) -> int:
    """Deterministic per-cell seed: CRC-mix the coordinate key into the base.

    CRC-32 (not ``hash()``, which is salted per interpreter) keeps the
    derived seeds stable across processes and Python versions, so a
    ``reseed`` sweep is bit-reproducible on any host.
    """
    return (base_seed ^ zlib.crc32(key.encode("utf-8"))) & 0x7FFFFFFF


def axis_value_label(value: _t.Any) -> str:
    """Canonical flat rendering of one axis value (``V100+T4`` for node lists)."""
    if isinstance(value, tuple):
        return "+".join(str(v) for v in value)
    return str(value)


def axis_value_to_json(value: _t.Any) -> _t.Any:
    """One axis value in its JSON form (tuples become lists)."""
    return list(value) if isinstance(value, tuple) else value


def coords_key(coords: _t.Sequence[tuple[str, _t.Any]]) -> str:
    """Canonical one-line form of a cell's coordinates, axis order preserved.

    Node lists render as ``+``-joined type names (``nodes=V100+T4``), so the
    key stays a flat string usable in scenario names and report matching.
    """
    return ",".join(f"{axis}={axis_value_label(value)}" for axis, value in coords)


@dataclasses.dataclass(frozen=True, slots=True)
class SweepAxis:
    """One grid dimension: an axis name and its explicit value list."""

    axis: str
    values: tuple[_t.Any, ...]

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise SweepError(
                f"axes: unknown axis {self.axis!r}; known: {SWEEP_AXES}"
            )
        # Normalize list-valued entries (node lists) to hashable tuples.
        object.__setattr__(
            self,
            "values",
            tuple(tuple(v) if isinstance(v, list) else v for v in self.values),
        )
        if not self.values:
            raise SweepError(f"axes[{self.axis}]: needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise SweepError(
                f"axes[{self.axis}]: duplicate values {list(self.values)} "
                "would collide in the grid"
            )
        for value in self.values:
            self._validate_value(value)

    def _validate_value(self, value: _t.Any) -> None:
        path = f"axes[{self.axis}]"
        if self.axis == "placement":
            if value not in PLACEMENT_POLICIES:
                raise SweepError(
                    f"{path}: unknown placement {value!r}; known: {PLACEMENT_POLICIES}"
                )
        elif self.axis == "autoscaler":
            # Read the registry at validation time so plugin-registered
            # policies are sweepable without touching this module.
            known = available_policies()
            if value not in known:
                raise SweepError(
                    f"{path}: unknown policy {value!r}; known: {known}"
                )
        elif self.axis == "nodes":
            if isinstance(value, bool):
                raise SweepError(f"{path}: expected an int or GPU-type list, got {value!r}")
            if isinstance(value, int):
                if value < 1:
                    raise SweepError(f"{path}: need at least one node, got {value}")
            elif isinstance(value, tuple):
                if not value:
                    raise SweepError(f"{path}: need at least one node")
                for name in value:
                    if name not in GPU_CATALOG:
                        raise SweepError(
                            f"{path}: unknown GPU type {name!r}; known: {sorted(GPU_CATALOG)}"
                        )
            else:
                raise SweepError(f"{path}: expected an int or GPU-type list, got {value!r}")
        elif self.axis == "fleet_size":
            if isinstance(value, bool) or not isinstance(value, int):
                raise SweepError(f"{path}: expected an integer, got {value!r}")
            if value < 1:
                raise SweepError(f"{path}: fleet_size must be >= 1, got {value}")
        elif self.axis == "workload_scale":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SweepError(f"{path}: expected a number, got {value!r}")
            if value <= 0:
                raise SweepError(f"{path}: workload_scale must be positive, got {value}")
        elif self.axis == "headroom":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SweepError(f"{path}: expected a number, got {value!r}")
            if value < 1.0:
                raise SweepError(f"{path}: headroom must be >= 1, got {value}")
        elif self.axis == "fabric_gbps":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SweepError(f"{path}: expected a number, got {value!r}")
            if value <= 0:
                raise SweepError(f"{path}: fabric_gbps must be positive, got {value}")
        elif self.axis == "host_memory":
            # MB per node; null disables the host tier.
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                raise SweepError(f"{path}: expected a number or null, got {value!r}")
            if value is not None and value <= 0:
                raise SweepError(f"{path}: host_memory must be positive, got {value}")
        else:  # defrag (trigger threshold; null disables live migration)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                raise SweepError(f"{path}: expected a number or null, got {value!r}")
            if value is not None and not 0.0 < value < 1.0:
                raise SweepError(f"{path}: defrag threshold must be in (0, 1), got {value}")

    def to_dict(self) -> dict:
        return {
            "axis": self.axis,
            "values": [axis_value_to_json(v) for v in self.values],
        }

    @classmethod
    def from_dict(cls, payload: _t.Any, path: str = "axes") -> "SweepAxis":
        if not isinstance(payload, dict):
            raise SweepError(f"{path}: expected an object, got {type(payload).__name__}")
        data = dict(payload)
        axis = data.pop("axis", None)
        if not isinstance(axis, str):
            raise SweepError(f"{path}: each axis entry needs an 'axis' name")
        raw_values = data.pop("values", None)
        if not isinstance(raw_values, list):
            raise SweepError(f"{path}[{axis}]: 'values' must be a list")
        if data:
            fields = ", ".join(repr(k) for k in sorted(data))
            raise SweepError(f"{path}[{axis}]: unknown field(s) {fields}")
        values = tuple(
            tuple(str(n) for n in v) if isinstance(v, list) else v for v in raw_values
        )
        return cls(axis=axis, values=values)


@dataclasses.dataclass(frozen=True, slots=True)
class SweepCell:
    """One grid point: coordinates plus the fully materialized Scenario."""

    index: int
    coords: tuple[tuple[str, _t.Any], ...]
    scenario: Scenario
    seed: int

    @property
    def key(self) -> str:
        return coords_key(self.coords)

    @property
    def coords_dict(self) -> dict[str, _t.Any]:
        return {axis: axis_value_to_json(value) for axis, value in self.coords}


def _coords_from_json(payload: _t.Any, path: str) -> tuple[tuple[str, _t.Any], ...]:
    if not isinstance(payload, dict) or not payload:
        raise SweepError(f"{path}: expected a non-empty {{axis: value}} object")
    return tuple(
        (str(axis), tuple(value) if isinstance(value, list) else value)
        for axis, value in payload.items()
    )


@dataclasses.dataclass(frozen=True, slots=True)
class SweepAssertion:
    """``cell.metric <= factor * ref.metric + slack`` between two grid cells."""

    cell: tuple[tuple[str, _t.Any], ...]
    metric: str
    ref: tuple[tuple[str, _t.Any], ...]
    factor: float = 1.0
    slack: float = 0.0

    def __post_init__(self) -> None:
        if self.metric not in ASSERT_METRICS:
            raise SweepError(
                f"assert: unknown metric {self.metric!r}; known: {ASSERT_METRICS}"
            )
        if not self.factor > 0:
            raise SweepError(f"assert: factor must be positive, got {self.factor}")

    def describe(self) -> str:
        """One-line rendering, e.g. ``autoscaler=memtier.gpu_seconds <= 0.9192 x ...``."""
        slack = f" + {self.slack:g}" if self.slack else ""
        return (
            f"{coords_key(self.cell)}.{self.metric} <= "
            f"{self.factor:g} x {coords_key(self.ref)}{slack}"
        )

    def to_dict(self) -> dict:
        return {
            "cell": {axis: axis_value_to_json(v) for axis, v in self.cell},
            "metric": self.metric,
            "ref": {axis: axis_value_to_json(v) for axis, v in self.ref},
            "factor": self.factor,
            "slack": self.slack,
        }

    @classmethod
    def from_dict(cls, payload: _t.Any, path: str = "assert") -> "SweepAssertion":
        if not isinstance(payload, dict):
            raise SweepError(f"{path}: expected an object, got {type(payload).__name__}")
        data = dict(payload)
        numbers = {}
        for name, default in (("factor", 1.0), ("slack", 0.0)):
            value = data.pop(name, default)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SweepError(f"{path}.{name}: expected a number, got {value!r}")
            numbers[name] = float(value)
        cell = _coords_from_json(data.pop("cell", None), f"{path}.cell")
        ref = _coords_from_json(data.pop("ref", None), f"{path}.ref")
        metric = data.pop("metric", None)
        if data:
            fields = ", ".join(repr(k) for k in sorted(data))
            raise SweepError(f"{path}: unknown field(s) {fields}")
        try:
            return cls(cell=cell, metric=str(metric), ref=ref, **numbers)
        except SweepError as exc:
            raise SweepError(f"{path}: {exc}") from exc


def _scale_workload(spec: WorkloadSpec, factor: float, function: str) -> WorkloadSpec:
    """Multiply one function's offered load by ``factor`` (load-fair axis)."""
    if spec.kind == "synthetic":
        return dataclasses.replace(spec, mean_rps=spec.mean_rps * factor)
    if spec.kind == "counts":
        return dataclasses.replace(
            spec, counts=tuple(int(round(c * factor)) for c in spec.counts)
        )
    if spec.kind == "steps":
        return dataclasses.replace(
            spec, steps=tuple((d, r * factor) for d, r in spec.steps)
        )
    if spec.kind == "constant":
        return dataclasses.replace(spec, rps=spec.rps * factor)
    raise SweepError(
        f"axes[workload_scale]: function {function!r} declares a trace-kind "
        "workload — file-backed counts cannot be rescaled declaratively "
        "(re-convert the trace with rps_scale instead)"
    )


def apply_axis(scenario: Scenario, axis: str, value: _t.Any) -> Scenario:
    """Return ``scenario`` with one axis value applied (pure, validation kept)."""
    if axis == "placement":
        return dataclasses.replace(
            scenario, autoscaler=dataclasses.replace(scenario.autoscaler, placement=value)
        )
    if axis == "autoscaler":
        return dataclasses.replace(
            scenario, autoscaler=dataclasses.replace(scenario.autoscaler, policy=value)
        )
    if axis == "nodes":
        return dataclasses.replace(
            scenario, cluster=dataclasses.replace(scenario.cluster, nodes=value)
        )
    if axis == "fleet_size":
        if value > len(scenario.functions):
            raise SweepError(
                f"axes[fleet_size]: {value} exceeds the base fleet of "
                f"{len(scenario.functions)} functions"
            )
        return dataclasses.replace(scenario, functions=scenario.functions[:value])
    if axis == "workload_scale":
        return dataclasses.replace(
            scenario,
            functions=tuple(
                dataclasses.replace(
                    fn, workload=_scale_workload(fn.workload, float(value), fn.name)
                )
                for fn in scenario.functions
            ),
        )
    if axis == "headroom":
        return dataclasses.replace(
            scenario,
            autoscaler=dataclasses.replace(scenario.autoscaler, headroom=float(value)),
        )
    if axis == "fabric_gbps":
        return dataclasses.replace(
            scenario,
            cluster=dataclasses.replace(scenario.cluster, fabric_gbps=float(value)),
        )
    if axis == "host_memory":
        return dataclasses.replace(
            scenario,
            cluster=dataclasses.replace(
                scenario.cluster,
                host_memory_mb=None if value is None else float(value),
            ),
        )
    if axis == "defrag":
        return dataclasses.replace(
            scenario,
            cluster=dataclasses.replace(
                scenario.cluster,
                defrag=None if value is None else DefragSpec(threshold=float(value)),
            ),
        )
    raise SweepError(f"unknown axis {axis!r}; known: {SWEEP_AXES}")


@dataclasses.dataclass(frozen=True, slots=True)
class Sweep:
    """A parameter grid over a base Scenario (see module docstring)."""

    name: str
    base: Scenario
    axes: tuple[SweepAxis, ...]
    reseed: bool = False
    cell_budget_s: float | None = None
    description: str = ""
    assertions: tuple[SweepAssertion, ...] = ()
    #: The scenario file ``base`` was loaded from, when the spec names one
    #: (serialized back as that string); empty for an inline base.
    base_path: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SweepError("sweep: name must be non-empty")
        if not self.axes:
            raise SweepError("sweep: need at least one axis")
        names = [a.axis for a in self.axes]
        if len(set(names)) != len(names):
            raise SweepError(f"sweep: duplicate axes: {names}")
        if self.cell_budget_s is not None and self.cell_budget_s <= 0:
            raise SweepError("sweep: cell_budget_s must be positive")
        for axis in self.axes:
            if axis.axis == "fleet_size":
                worst = max(axis.values)
                if worst > len(self.base.functions):
                    raise SweepError(
                        f"axes[fleet_size]: {worst} exceeds the base fleet of "
                        f"{len(self.base.functions)} functions"
                    )
            if axis.axis == "workload_scale":
                for fn in self.base.functions:
                    if fn.workload.kind == "trace":
                        _scale_workload(fn.workload, 1.0, fn.name)  # raises
        for i, assertion in enumerate(self.assertions):
            self._check_coords(assertion.cell, f"assert[{i}].cell")
            self._check_coords(assertion.ref, f"assert[{i}].ref")

    def _check_coords(self, coords: tuple[tuple[str, _t.Any], ...], path: str) -> None:
        """Coordinates must name real axes and values and pick exactly one cell."""
        by_name = {axis.axis: axis for axis in self.axes}
        for name, value in coords:
            if name not in by_name:
                raise SweepError(f"{path}: no axis {name!r} in this sweep; axes: {list(by_name)}")
            if value not in by_name[name].values:
                raise SweepError(
                    f"{path}: {name}={value!r} is not a value of that axis "
                    f"({[axis_value_to_json(v) for v in by_name[name].values]})"
                )
        named = {name for name, _ in coords}
        unnamed = [a.axis for a in self.axes if len(a.values) > 1 and a.axis not in named]
        if unnamed:
            raise SweepError(f"{path}: must pick exactly one cell; also name {unnamed}")

    @property
    def cell_count(self) -> int:
        count = 1
        for axis in self.axes:
            count *= len(axis.values)
        return count

    def cells(self) -> tuple[SweepCell, ...]:
        """Expand the grid: row-major product, last axis varying fastest.

        Each cell's Scenario is the base with the axis values applied in
        axis order, renamed ``base[key]``, and seeded with the base seed
        (``reseed=False``: identical arrivals, axis-attributable diffs) or a
        CRC-derived per-cell seed (``reseed=True``: independent draws).
        """
        cells = []
        for index, values in enumerate(
            itertools.product(*(axis.values for axis in self.axes))
        ):
            coords = tuple(
                (axis.axis, value) for axis, value in zip(self.axes, values)
            )
            key = coords_key(coords)
            seed = (
                derive_cell_seed(self.base.seed, key) if self.reseed else self.base.seed
            )
            scenario = self.base
            for axis_name, value in coords:
                scenario = apply_axis(scenario, axis_name, value)
            scenario = dataclasses.replace(
                scenario, name=f"{self.base.name}[{key}]", seed=seed
            )
            cells.append(SweepCell(index=index, coords=coords, scenario=scenario, seed=seed))
        return tuple(cells)

    # -- serialization ----------------------------------------------------------
    def to_dict(self) -> dict:
        payload: dict[str, _t.Any] = {
            "format": SWEEP_FORMAT,
            "name": self.name,
            "base": self.base_path or self.base.to_dict(),
            "axes": [axis.to_dict() for axis in self.axes],
        }
        if self.assertions:
            payload["assert"] = [a.to_dict() for a in self.assertions]
        if self.reseed:
            payload["reseed"] = True
        if self.cell_budget_s is not None:
            payload["cell_budget_s"] = self.cell_budget_s
        if self.description:
            payload["description"] = self.description
        return payload

    @classmethod
    def from_dict(cls, payload: _t.Any) -> "Sweep":
        if not isinstance(payload, dict):
            raise SweepError(f"sweep: expected an object, got {type(payload).__name__}")
        data = dict(payload)
        fmt = data.pop("format", None)
        if fmt != SWEEP_FORMAT:
            raise SweepError(f"sweep: unsupported format {fmt!r} (want {SWEEP_FORMAT!r})")
        name = str(data.pop("name", ""))
        description = str(data.pop("description", ""))
        reseed = bool(data.pop("reseed", False))
        budget = data.pop("cell_budget_s", None)
        if budget is not None and (
            isinstance(budget, bool) or not isinstance(budget, (int, float))
        ):
            raise SweepError(f"sweep.cell_budget_s: expected a number, got {budget!r}")
        raw_base = data.pop("base", None)
        try:
            if isinstance(raw_base, str):
                base = load_scenario(raw_base)
            else:
                base = Scenario.from_dict(raw_base)
        except ScenarioError as exc:
            raise SweepError(f"base: {exc}") from exc
        raw_axes = data.pop("axes", None)
        if not isinstance(raw_axes, list):
            raise SweepError("sweep.axes: expected a list of axis entries")
        axes = tuple(SweepAxis.from_dict(entry) for entry in raw_axes)
        raw_asserts = data.pop("assert", [])
        if not isinstance(raw_asserts, list):
            raise SweepError("sweep.assert: expected a list of assertion entries")
        assertions = tuple(
            SweepAssertion.from_dict(entry, f"assert[{i}]")
            for i, entry in enumerate(raw_asserts)
        )
        if data:
            fields = ", ".join(repr(k) for k in sorted(data))
            raise SweepError(f"sweep: unknown field(s) {fields}")
        return cls(
            name=name,
            base=base,
            axes=axes,
            reseed=reseed,
            cell_budget_s=None if budget is None else float(budget),
            description=description,
            assertions=assertions,
            base_path=raw_base if isinstance(raw_base, str) else "",
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Sweep":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SweepError(f"sweep: invalid JSON ({exc})") from exc
        return cls.from_dict(payload)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def load_sweep(path: str) -> Sweep:
    """Load a committed sweep JSON file from ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SweepError(f"{path}: cannot read sweep file ({exc})") from exc
    try:
        return Sweep.from_json(text)
    except SweepError as exc:
        raise SweepError(f"{path}: {exc}") from exc
