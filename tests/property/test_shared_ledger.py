"""Property test: deploy(), scale_down() and the scheduler share one ledger.

Interleaving manual deployments, manual scale-downs and scheduler ticks
under load on a 1–3 node ``fast`` platform, after every step each GPU's
bound rectangles stay pairwise disjoint inside the GPU, and every live pod
is bound exactly once — on the node it runs on.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import FaSTGShare
from repro.faas.loadgen import OpenLoopGenerator
from repro.faas.workload import ConstantRate
from repro.models import get_model
from repro.profiler import ProfileDatabase
from repro.scheduler import NoFitError, pairwise_disjoint, within_bounds

steps = st.one_of(
    st.tuples(
        st.just("deploy"),
        st.sampled_from([6.0, 12.0, 24.0, 50.0, 100.0]),
        st.sampled_from([0.2, 0.4, 0.6, 1.0]),
    ),
    st.tuples(st.just("down"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("tick"), st.sampled_from([0.0, 40.0, 150.0])),
)


def check_ledger(platform: FaSTGShare) -> None:
    placement = platform.placement
    bound: dict[str, int] = {}
    for gpu in placement.gpus.values():
        rects = list(gpu.placed.values())
        assert pairwise_disjoint(rects)
        assert within_bounds(rects, gpu.width, gpu.height)
        for pod_id in gpu.placed:
            bound[pod_id] = bound.get(pod_id, 0) + 1
    live = platform.controllers["fn"].replicas
    assert set(bound) == set(live)
    assert all(count == 1 for count in bound.values())
    for pod_id, replica in live.items():
        assert placement.node_of(pod_id) == replica.pod.node_name


@given(nodes=st.integers(min_value=1, max_value=3), script=st.lists(steps, max_size=10))
@settings(max_examples=40, deadline=None)
def test_deploy_and_scheduler_never_overcommit(nodes, script):
    platform = FaSTGShare.build(nodes=nodes, sharing="fast", seed=5)
    platform.register_function("fn", model="resnet50")
    db = ProfileDatabase.analytic({"fn": get_model("resnet50")})
    platform.start_autoscaler(db, interval=1.0, min_replicas=0, scale_down_cooldown=0.0)
    for step in script:
        if step[0] == "deploy":
            try:
                platform.deploy("fn", configs=[(step[1], step[2])])
            except NoFitError:
                pass
        elif step[0] == "down":
            live = sorted(platform.controllers["fn"].replicas)
            if live:
                platform.scale_down("fn", live[step[1] % len(live)])
        else:
            if step[1]:
                OpenLoopGenerator(platform.engine, platform.gateway, "fn",
                                  ConstantRate(rps=step[1], duration=1.0))
            platform.engine.run(until=platform.engine.now + 1.0)
        check_ledger(platform)
