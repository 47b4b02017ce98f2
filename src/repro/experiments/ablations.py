"""Ablations (DESIGN.md A1-A3): which design choices carry the results.

* **A1 — placement**: MRA vs first-fit rectangles vs 1D quota packing on a
  randomized pod stream; metric = GPUs needed / pods placed before the first
  rejection.
* **A2 — multi-token vs single-token**: the same 8-pod spatial workload run
  through the FaST backend (partitions as configured) vs a KubeShare-like
  backend (partitions forced to 100% → single token passes among pods).
* **A3 — Q_miss priority vs plain capacity**: with heterogeneous quotas under
  contention, the Q_miss-ordered queue keeps each pod near its guaranteed
  share; the ablation measures the worst pod's shortfall.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.platform import FaSTGShare
from repro.scheduler import (
    FirstFitRectScheduler,
    MaximalRectanglesScheduler,
    NoFitError,
    QuotaPackingScheduler,
)

# ---------------------------------------------------------------- A1: placement

@dataclasses.dataclass(frozen=True, slots=True)
class PlacementAblation:
    strategy: str
    pods_placed: int
    gpus_used: int


def random_pod_stream(n: int, rng: np.random.Generator) -> list[tuple[float, float]]:
    """(w=quota·100, h=SM%) pods drawn from the paper's profiling grid.

    Sizes skew small (the scheduler's p_eff points live at small partitions),
    with occasional large pods — the mix where fragmentation behaviour
    differs between strategies.
    """
    quotas = np.array([0.2, 0.2, 0.4, 0.4, 0.6, 0.8])
    partitions = np.array([6, 6, 12, 12, 24, 50])
    return [
        (float(rng.choice(quotas)) * 100.0, float(rng.choice(partitions)))
        for _ in range(n)
    ]


def run_placement_ablation(
    nodes: int = 4, pods: int = 64, seed: int = 13
) -> list[PlacementAblation]:
    rng = np.random.default_rng(seed)
    stream = random_pod_stream(pods, rng)
    node_names = [f"node{i}" for i in range(nodes)]
    results = []
    # (label, placement class, pod (w, h) -> its bind() size arguments)
    strategies = (
        ("MRA (best-area, maximal rects)", MaximalRectanglesScheduler, lambda w, h: (w, h)),
        ("first-fit rectangles", FirstFitRectScheduler, lambda w, h: (w, h)),
        ("1D quota packing (time sharing)", QuotaPackingScheduler, lambda w, _h: (w / 100.0,)),
    )
    for label, scheduler_cls, size in strategies:
        scheduler = scheduler_cls(node_names)
        placed = 0
        for i, (w, h) in enumerate(stream):
            try:
                scheduler.bind(f"p{i}", *size(w, h))
                placed += 1
            except NoFitError:
                break
        results.append(PlacementAblation(label, placed, scheduler.gpus_in_use()))
    return results


# ------------------------------------------------------- A2: multi- vs single-token

@dataclasses.dataclass(frozen=True, slots=True)
class TokenAblation:
    backend: str
    throughput: float
    p95_ms: float
    sm_occupancy: float


def run_token_ablation(
    model: str = "resnet50",
    replicas: int = 8,
    sm: float = 12.0,
    duration: float = 10.0,
    seed: int = 42,
) -> list[TokenAblation]:
    """Identical pods through the multi-token vs single-token backend."""
    results = []
    for label, mode in (("multi-token (FaST)", "fast"), ("single-token (KubeShare)", "timeshare")):
        platform = FaSTGShare.build(nodes=1, sharing=mode, seed=seed)
        platform.register_function("fn", model=model)
        platform.deploy("fn", configs=[(sm, 1.0)] * replicas, node=0)
        report = platform.run_closed_loop("fn", concurrency=2 * replicas, duration=duration)
        (_, _util, occ), = report.node_metrics
        results.append(
            TokenAblation(backend=label, throughput=report.throughput,
                          p95_ms=report.p95_ms, sm_occupancy=occ)
        )
    return results


# --------------------------------------------------- A3: Q_miss priority fairness

@dataclasses.dataclass(frozen=True, slots=True)
class PriorityAblation:
    #: Stable pod *name* (``fastpod-<fn>-<serial>``), not the uid-suffixed
    #: ``pod_id``: uids come from a process-global counter, and the report
    #: must be bit-identical whether the suite ran serially or fanned across
    #: worker processes (see repro.experiments.runner).
    pod_name: str
    quota_request: float
    achieved_share: float

    @property
    def shortfall(self) -> float:
        """How far below its guaranteed share the pod landed (0 = met)."""
        return max(0.0, 1.0 - self.achieved_share / self.quota_request)


def run_priority_ablation(
    duration: float = 10.0, seed: int = 42
) -> list[PriorityAblation]:
    """Heterogeneous quotas under full contention: everyone meets Q_request.

    Four full-SM pods with quota requests {0.4, 0.3, 0.2, 0.1} compete for
    one GPU (Σ = 1.0).  The Q_miss priority queue should hold every pod near
    its guarantee; the output is each pod's achieved GPU-time share.
    """
    platform = FaSTGShare.build(nodes=1, sharing="timeshare", seed=seed)
    platform.register_function("fn", model="resnet50")
    quotas = [0.4, 0.3, 0.2, 0.1]
    replicas = []
    for quota in quotas:
        replicas.extend(platform.deploy("fn", configs=[(100, quota, quota)], node=0))
    report = platform.run_closed_loop("fn", concurrency=16, duration=duration)
    del report
    node = platform.cluster.node(0)
    results = []
    for replica, quota in zip(replicas, quotas):
        entry = node.backend.entries.get(replica.pod.pod_id)
        used = entry.total_gpu_seconds if entry is not None else 0.0
        results.append(
            PriorityAblation(
                pod_name=replica.pod.meta.name,
                quota_request=quota,
                achieved_share=used / duration,
            )
        )
    return results


def format_results(
    placement: _t.Sequence[PlacementAblation],
    tokens: _t.Sequence[TokenAblation],
    priority: _t.Sequence[PriorityAblation],
) -> str:
    lines = ["Ablation A1 — placement strategy (64-pod random stream, 4 GPUs)"]
    for row in placement:
        lines.append(f"  {row.strategy:<34} placed {row.pods_placed:3d} pods on {row.gpus_used} GPUs")
    lines.append("Ablation A2 — token scheduler")
    for row in tokens:
        lines.append(
            f"  {row.backend:<26} {row.throughput:7.1f} req/s  p95 {row.p95_ms:7.1f} ms  "
            f"occ {row.sm_occupancy:5.2f}%"
        )
    lines.append("Ablation A3 — Q_miss priority: achieved GPU share vs guarantee")
    for row in priority:
        lines.append(
            f"  {row.pod_name:<28} requested {row.quota_request:.2f}  "
            f"achieved {row.achieved_share:.3f}  shortfall {100 * row.shortfall:4.1f}%"
        )
    return "\n".join(lines)
