"""The predictive autoscaler controller.

Wraps the reactive Heuristic-Scaling inner loop (Algorithm 1, unchanged)
with a forecasting outer layer driven from the FaST-Scheduler tick:

1. **observe** — feed the gateway's completed arrival bins to every
   per-function forecaster;
2. **predict** — :meth:`PredictiveAutoscaler.predicted_rps` blends the
   reactive gateway signal with the forecast (max of both), which the
   scheduler scales against;
3. **act** — run the :class:`~repro.autoscaler.policy.PreWarmPolicy`:
   pre-warm pods are MRA-placed in ``WARM_IDLE`` (memory held, zero quota);
   expired warm pods retire; per-function min-replica floors open the
   scale-to-zero path for cold-tail functions.

The **reactive degenerate** — no forecasters, no policy — is exactly the
pre-existing behaviour: ``predicted_rps`` passes the gateway signal
through, ``on_tick`` only ingests observations, and no warm pods exist.
``fig12`` and every other reactive experiment route through this same
controller, so there is one control path, not two.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.autoscaler.forecast import Forecaster, OracleForecaster
from repro.autoscaler.policy import (
    FunctionView,
    PreWarmAction,
    PreWarmPolicy,
    RetireAction,
)
from repro.scheduler.mra import NoFitError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.faas.gateway import Gateway
    from repro.k8s.fastpod import FaSTPodController
    from repro.scheduler.scheduler import FaSTScheduler
    from repro.sim.engine import Engine

#: The built-in autoscaling policies (kept for docs/back-compat; the live
#: set is :func:`repro.autoscaler.registry.available_policies`, which also
#: covers everything registered via ``register_forecaster``).  ``reactive``
#: is the no-forecast degenerate (paper Algorithm 1 alone); ``oracle``
#: requires explicit per-function forecasters built from the replayed trace.
AUTOSCALE_POLICIES = (
    "reactive", "ewma", "seasonal", "histogram", "hybrid", "warmidle", "memtier", "oracle",
)


@dataclasses.dataclass(frozen=True, slots=True)
class AutoscaleEvent:
    """One applied predictive decision (for experiment timelines)."""

    time: float
    function: str
    action: str  # "prewarm" | "retire" | "prewarm-nofit"
    reason: str


class PredictiveAutoscaler:
    """Forecast-driven pre-warming layer over the reactive scaler."""

    def __init__(
        self,
        engine: "Engine",
        gateway: "Gateway",
        controllers: _t.Mapping[str, "FaSTPodController"],
        policy: PreWarmPolicy | None = None,
        forecasters: _t.Mapping[str, Forecaster] | None = None,
        nofit_backoff_s: float = 5.0,
    ):
        self.engine = engine
        self.gateway = gateway
        self.controllers = dict(controllers)
        self.policy = policy
        self.forecasters = dict(forecasters or {})
        self.nofit_backoff_s = nofit_backoff_s
        self._nofit_until: dict[str, float] = {}
        self.scheduler: "FaSTScheduler | None" = None
        #: memory tier: the replica-lifecycle API (None when disabled).
        #: Policies drive it through action ``apply`` hooks (demote /
        #: promote / evict) — see :mod:`repro.memtier.policy`.
        self.lifecycle = None
        self.events: list[AutoscaleEvent] = []
        self.prewarms = 0
        self.retirements = 0
        self._floors: dict[str, int] = {}
        self._idle: frozenset[str] = frozenset()

    # -- wiring -------------------------------------------------------------------
    def bind(self, scheduler: "FaSTScheduler") -> None:
        """Attach the scheduler whose tick drives this controller."""
        self.scheduler = scheduler

    @property
    def predictive(self) -> bool:
        """False for the reactive degenerate (no forecast, no pre-warming)."""
        return self.policy is not None and bool(self.forecasters)

    # -- signals the scheduler consumes ---------------------------------------------
    def predicted_rps(self, function: str) -> float:
        """The load signal for Algorithm 1: reactive blended with forecast."""
        if function in self._idle:
            # Past the keep-alive window: zero the signal outright, or the
            # forecast's exponential residue blocks draining the last pod.
            return 0.0
        base = self.gateway.predicted_rps(function)
        forecaster = self.forecasters.get(function)
        if forecaster is None:
            return base
        prediction = forecaster.predict_rps(self.engine.now)
        return base if prediction is None else max(base, prediction)

    def min_replicas_for(self, function: str, default: int) -> int:
        """Per-function floor (scale-to-zero when keep-alive expired)."""
        return self._floors.get(function, default)

    # -- the tick ---------------------------------------------------------------------
    def on_tick(self) -> None:
        """Observe, plan, and apply pre-warm/retire actions (scheduler tick)."""
        now = self.engine.now
        self._ingest(now)
        if not self.predictive or self.scheduler is None:
            return
        views = [self._view(now, name) for name in sorted(self.controllers)]
        hub = self.engine.hub
        if hub.enabled:
            # Forecast inputs first, chosen actions after: the audit trail
            # reads "what the policy saw → what it did" in event order.
            # All-idle views (nothing running, parked, pending, or predicted)
            # are skipped so long-tail fleets don't drown the stream in
            # zero rows.
            for view in views:
                if not (
                    view.serving
                    or view.warm
                    or view.parked
                    or view.pending
                    or view.predicted_rps
                ):
                    continue
                inputs = {
                    "serving": view.serving,
                    "warm": view.warm,
                    "parked": view.parked,
                    "pending": view.pending,
                    "capacity_rps": view.capacity_rps,
                    "predicted_rps": view.predicted_rps,
                    "next_active": view.next_active,
                    "idle_deadline": view.idle_deadline,
                    "active_rate": view.active_rate,
                    "last_arrival": view.last_arrival,
                    "swap_in_s": view.swap_in_s,
                }
                hub.emit(
                    now,
                    "autoscaler",
                    "tick",
                    view.function,
                    **{k: v for k, v in inputs.items() if v is not None},
                )
        decision = self.policy.plan(now, views)
        self._floors = decision.min_replicas
        self._idle = decision.idle
        for action in decision.actions:
            if isinstance(action, PreWarmAction):
                self._apply_prewarm(action)
            elif isinstance(action, RetireAction):
                self._apply_retire(action)
            else:
                # Extension point: policies may emit actions that know how
                # to apply themselves (the memory tier's demote/promote/
                # evict go through here without this module knowing them).
                action.apply(self)

    def note_event(
        self, action: str, function: str, reason: str, **payload: object
    ) -> None:
        """Record an applied decision (extension-action bookkeeping hook).

        ``payload`` is decision context for the telemetry audit trail only
        (e.g. the forecast gap a demotion was taken on); the
        :class:`AutoscaleEvent` timeline keeps its stable shape.
        """
        self.events.append(AutoscaleEvent(self.engine.now, function, action, reason))
        hub = self.engine.hub
        if hub.enabled:
            hub.emit(
                self.engine.now,
                "autoscaler",
                action,
                function,
                reason=reason,
                **{k: v for k, v in payload.items() if v is not None},
            )

    # -- observation & snapshot -----------------------------------------------------
    def _ingest(self, now: float) -> None:
        current_bin = int(now // self.gateway.rps_bin_s)
        for name, forecaster in self.forecasters.items():
            forecaster.ingest(self.gateway.arrival_bins(name), current_bin)

    def _view(self, now: float, name: str) -> FunctionView:
        controller = self.controllers[name]
        scheduler = self.scheduler
        assert scheduler is not None
        capacity = sum(
            scheduler._throughput_of(name, sm, q_limit, pod_id=pod_id)
            for pod_id, sm, _q_req, q_limit in controller.serving_configs()
        )
        p_eff = scheduler.scaler.p_eff(name)
        spec = controller.function
        cold_start = (
            spec.model.shared_load_time_s if spec.use_model_sharing else spec.model.load_time_s
        )
        forecaster = self.forecasters.get(name)
        warm_ids = tuple(sorted(r.pod.pod_id for r in controller.warm_replicas()))
        parked_ids: tuple[str, ...] = ()
        swap_in_s = weight_mb = None
        if self.lifecycle is not None:
            parked_ids = tuple(self.lifecycle.parked(name))
            # The oldest parked pod's node is the one a promotion would use.
            node_name = controller.parked[parked_ids[0]].node_name if parked_ids else None
            swap_in_s = self.lifecycle.swap_in_estimate_s(name, node_name)
            weight_mb = self.lifecycle.weights_mb(name)
        return FunctionView(
            function=name,
            serving=controller.serving_count,
            warm=controller.warm_count,
            warm_pod_ids=warm_ids,
            capacity_rps=capacity,
            pod_rps=p_eff.throughput,
            sm_partition=p_eff.sm_partition,
            quota=p_eff.quota,
            cold_start_s=cold_start,
            slo_ms=spec.slo_ms,
            pending=self.gateway.pending_count(name),
            predicted_rps=forecaster.predict_rps(now) if forecaster else None,
            next_active=forecaster.next_active_time(now) if forecaster else None,
            idle_deadline=forecaster.idle_deadline(now) if forecaster else None,
            active_rate=forecaster.active_rate() if forecaster else None,
            last_arrival=self.gateway.last_arrival.get(name),
            parked=len(parked_ids),
            parked_pod_ids=parked_ids,
            swap_in_s=swap_in_s,
            weight_mb=weight_mb,
        )

    # -- applying actions ------------------------------------------------------------
    def _apply_prewarm(self, action: PreWarmAction) -> None:
        scheduler = self.scheduler
        assert scheduler is not None
        now = self.engine.now
        if now < self._nofit_until.get(action.function, -1e9):
            return  # recent no-fit: don't hammer the placement every tick
        controller = self.controllers[action.function]
        # Opportunistic spares ride along on provisioned GPUs only; the
        # high-value pre-warms (keep-alive reserves, predicted clumps) are
        # allowed to power up an idle GPU — that cost is the point.
        ride_along = action.reason == "spare-pool"
        for sm, quota in self._prewarm_configs(action):
            try:
                scheduler.place_pod(
                    controller, sm, quota, quota, warm=True, used_nodes_only=ride_along
                )
            except NoFitError:
                continue
            self.prewarms += 1
            self.note_event("prewarm", action.function, action.reason, sm=sm, quota=quota)
            return
        self._nofit_until[action.function] = now + self.nofit_backoff_s
        self.note_event("prewarm-nofit", action.function, action.reason)

    def _prewarm_configs(self, action: PreWarmAction) -> list[tuple[float, float]]:
        """Candidate (sm, quota) configs for one pre-warm, best first.

        The requested (p_eff) config leads; when fragmentation leaves no
        rectangle of that shape, any other SLO-feasible profile point is
        better than no warm pod at all — a thinner partition slots into the
        strips left between resident pods.  Ordered by descending profiled
        throughput so the fallback degrades capacity as little as possible.
        """
        scheduler = self.scheduler
        assert scheduler is not None
        configs: list[tuple[float, float]] = [(action.sm_partition, action.quota)]
        try:
            candidates = scheduler.scaler.candidate_points(action.function)
        except KeyError:
            return configs
        for point in sorted(candidates, key=lambda p: -p.throughput):
            config = (point.sm_partition, point.quota)
            if config not in configs:
                configs.append(config)
        return configs

    def _apply_retire(self, action: RetireAction) -> None:
        scheduler = self.scheduler
        assert scheduler is not None
        controller = self.controllers[action.function]
        replica = controller.replicas.get(action.pod_id)
        if replica is None or not replica.warm_pending:
            return  # promoted or already gone since the snapshot
        controller.scale_down(action.pod_id, drain=True)
        try:
            scheduler.placement.unbind(action.pod_id)
        except KeyError:
            pass
        self.retirements += 1
        self.note_event("retire", action.function, action.reason, pod=action.pod_id)


def build_autoscaler(
    policy: str,
    engine: "Engine",
    gateway: "Gateway",
    controllers: _t.Mapping[str, "FaSTPodController"],
    bin_s: float = 1.0,
    period_s: float | None = None,
    forecasters: _t.Mapping[str, Forecaster] | None = None,
    prewarm: PreWarmPolicy | None = None,
) -> PredictiveAutoscaler:
    """Assemble a :class:`PredictiveAutoscaler` for a named policy.

    ``reactive`` builds the degenerate pass-through controller.  ``oracle``
    needs explicit per-function ``forecasters`` (built from the replayed
    trace, e.g. :class:`~repro.autoscaler.forecast.OracleForecaster`).
    Every other name resolves through the public policy registry
    (:func:`repro.autoscaler.registry.register_forecaster`): one forecaster
    per registered function via the registered factory, paired with the
    registered pre-warm policy.  ``prewarm`` overrides that policy.
    """
    from repro.autoscaler.registry import get_registration

    if policy == "reactive":
        return PredictiveAutoscaler(engine, gateway, controllers)
    if policy == "oracle":
        if not forecasters:
            raise ValueError("oracle policy needs per-function forecasters from the trace")
        missing = [f for f in forecasters.values() if not isinstance(f, Forecaster)]
        if missing:
            raise ValueError(f"non-forecaster entries: {missing}")
        built: dict[str, Forecaster] = dict(forecasters)
        prewarm_policy = prewarm or PreWarmPolicy()
    else:
        registration = get_registration(policy)  # raises ValueError when unknown
        built = {
            name: registration.forecaster_factory(bin_s=bin_s, period_s=period_s)
            for name in controllers
        }
        if forecasters:
            built.update(forecasters)
        if prewarm is not None:
            prewarm_policy = prewarm
        elif registration.policy_factory is not None:
            prewarm_policy = registration.policy_factory()
        else:
            prewarm_policy = PreWarmPolicy()
    return PredictiveAutoscaler(
        engine, gateway, controllers, policy=prewarm_policy, forecasters=built
    )


__all__ = [
    "AUTOSCALE_POLICIES",
    "AutoscaleEvent",
    "PredictiveAutoscaler",
    "build_autoscaler",
    "OracleForecaster",
]
