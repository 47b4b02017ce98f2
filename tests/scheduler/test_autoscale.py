"""Unit tests for the Heuristic Scaling Algorithm (paper Alg. 1)."""

from __future__ import annotations

import pytest

from repro.profiler import ProfileDatabase, ProfilePoint
from repro.scheduler import HeuristicScaler, RunningPod, ScaleDownAction, ScaleUpAction


@pytest.fixture
def db() -> ProfileDatabase:
    db = ProfileDatabase()
    # Hand-crafted profile: (S, Q) -> T with a clear RPR winner at (12, 0.4).
    points = [
        (6, 0.4, 8.0),     # rpr 3.33
        (12, 0.4, 18.0),   # rpr 3.75  <- p_eff
        (24, 0.4, 25.0),   # rpr 2.60
        (12, 0.2, 8.5),    # rpr 3.54
        (50, 0.6, 45.0),   # rpr 1.50
        (100, 1.0, 70.0),  # rpr 0.70
    ]
    for sm, quota, throughput in points:
        db.insert(ProfilePoint("f", sm, quota, throughput))
    return db


def test_rpr_metric():
    point = ProfilePoint("f", 12, 0.4, 18.0)
    assert point.rpr == pytest.approx(18.0 / (12 * 0.4))


def test_best_rpr_is_p_eff(db: ProfileDatabase):
    assert db.best_rpr("f").sm_partition == 12
    assert db.best_rpr("f").quota == 0.4


def test_scale_up_bulk_plus_residual(db: ProfileDatabase):
    scaler = HeuristicScaler(db)
    # ΔRPS = 60: n = floor(60/18) = 3 pods of p_eff, residual 6 -> p_ideal is
    # the smallest profiled config with T > 6: (6, 0.4, 8.0).
    actions = scaler.plan({"f": 60.0}, {"f": []})
    ups = [a for a in actions if isinstance(a, ScaleUpAction)]
    assert len(ups) == 4
    assert [(a.sm_partition, a.quota) for a in ups[:3]] == [(12, 0.4)] * 3
    assert (ups[3].sm_partition, ups[3].quota) == (6, 0.4)


def test_scale_up_exact_multiple_has_no_residual(db: ProfileDatabase):
    scaler = HeuristicScaler(db)
    actions = scaler.plan({"f": 36.0}, {"f": []})
    assert len(actions) == 2
    assert all((a.sm_partition, a.quota) == (12, 0.4) for a in actions)


def test_scale_up_small_gap_only_residual_pod(db: ProfileDatabase):
    scaler = HeuristicScaler(db)
    actions = scaler.plan({"f": 5.0}, {"f": []})
    assert len(actions) == 1
    # Minimal sufficient: T=8 (6,0.4) beats T=8.5 and everything larger.
    assert (actions[0].sm_partition, actions[0].quota) == (6, 0.4)


def test_zero_gap_no_actions(db: ProfileDatabase):
    scaler = HeuristicScaler(db)
    assert scaler.plan({"f": 0.0}, {"f": []}) == []


def test_scale_down_removes_lowest_rpr_first(db: ProfileDatabase):
    scaler = HeuristicScaler(db)
    running = [
        RunningPod("pod-eff", 12, 0.4, 18.0),    # rpr 3.75
        RunningPod("pod-mid", 24, 0.4, 25.0),    # rpr 2.60
        RunningPod("pod-fat", 100, 1.0, 70.0),   # rpr 0.70
    ]
    actions = scaler.plan({"f": -80.0}, {"f": running})
    downs = [a for a in actions if isinstance(a, ScaleDownAction)]
    # fat (70) fits in the 80 surplus; then mid (25) would overshoot -> stop.
    assert [a.pod_id for a in downs] == ["pod-fat"]


def test_scale_down_multiple(db: ProfileDatabase):
    scaler = HeuristicScaler(db)
    running = [
        RunningPod("a", 12, 0.4, 18.0),
        RunningPod("b", 24, 0.4, 25.0),
        RunningPod("c", 100, 1.0, 70.0),
    ]
    actions = scaler.plan({"f": -100.0}, {"f": running})
    assert [a.pod_id for a in actions] == ["c", "b"]


def test_scale_down_never_overshoots(db: ProfileDatabase):
    scaler = HeuristicScaler(db)
    running = [RunningPod("only", 12, 0.4, 18.0)]
    # Surplus 10 < T=18: removing would under-provision; keep the pod.
    assert scaler.plan({"f": -10.0}, {"f": running}) == []


def test_scale_down_ties_break_on_pod_id(db: ProfileDatabase):
    scaler = HeuristicScaler(db)
    running = [RunningPod("b", 12, 0.4, 18.0), RunningPod("a", 12, 0.4, 18.0)]
    actions = scaler.plan({"f": -18.0}, {"f": running})
    assert [a.pod_id for a in actions] == ["a"]


def test_unknown_function_raises(db: ProfileDatabase):
    scaler = HeuristicScaler(db)
    with pytest.raises(KeyError):
        scaler.plan({"ghost": 10.0}, {})


def test_multi_function_plan(db: ProfileDatabase):
    db.insert(ProfilePoint("g", 24, 0.5, 30.0))
    scaler = HeuristicScaler(db)
    actions = scaler.plan(
        {"f": 18.0, "g": -40.0},
        {"f": [], "g": [RunningPod("g1", 24, 0.5, 30.0)]},
    )
    kinds = {(type(a).__name__, a.function) for a in actions}
    assert ("ScaleUpAction", "f") in kinds
    assert ("ScaleDownAction", "g") in kinds


def test_residual_prefers_higher_rpr_on_throughput_tie(db: ProfileDatabase):
    db.insert(ProfilePoint("f", 40, 0.2, 8.0))  # same T as (6,0.4) but worse rpr? 8/(40*.2)=1.0
    scaler = HeuristicScaler(db)
    actions = scaler.plan({"f": 5.0}, {"f": []})
    assert (actions[0].sm_partition, actions[0].quota) == (6, 0.4)


# -- the candidate / p_eff memo -----------------------------------------------------
def test_insert_after_build_reaches_candidates_and_p_eff(db: ProfileDatabase):
    scaler = HeuristicScaler(db)
    assert (scaler.p_eff("f").sm_partition, scaler.p_eff("f").quota) == (12, 0.4)
    before = len(scaler.candidate_points("f"))
    db.insert(ProfilePoint("f", 6, 0.2, 9.0))  # rpr 7.5: the new p_eff
    assert len(scaler.candidate_points("f")) == before + 1
    assert (scaler.p_eff("f").sm_partition, scaler.p_eff("f").quota) == (6, 0.2)
    # Replacing a point at the same (S, Q) is an insert too.
    db.insert(ProfilePoint("f", 6, 0.2, 1.0))
    assert len(scaler.candidate_points("f")) == before + 1
    assert (scaler.p_eff("f").sm_partition, scaler.p_eff("f").quota) == (12, 0.4)


def test_insert_after_build_reaches_slo_filtered_candidates():
    db = ProfileDatabase()
    db.insert(ProfilePoint("f", 12, 0.4, 18.0, p95_ms=90.0))
    db.insert(ProfilePoint("f", 50, 1.0, 40.0, p95_ms=20.0))
    scaler = HeuristicScaler(db, slo_ms={"f": 100.0}, latency_headroom=0.5)
    assert [p.sm_partition for p in scaler.candidate_points("f")] == [50]
    db.insert(ProfilePoint("f", 24, 0.6, 30.0, p95_ms=40.0))
    assert [p.sm_partition for p in scaler.candidate_points("f")] == [24, 50]
    assert scaler.p_eff("f").sm_partition == 24


def test_mutating_returned_candidates_leaves_memo_intact(db: ProfileDatabase):
    scaler = HeuristicScaler(db)
    first = scaler.candidate_points("f")
    expected = list(first)
    first.clear()
    first.append(ProfilePoint("f", 1, 1.0, 1e9))
    assert scaler.candidate_points("f") == expected
    assert (scaler.p_eff("f").sm_partition, scaler.p_eff("f").quota) == (12, 0.4)


def test_missing_profile_raises_every_time(db: ProfileDatabase):
    scaler = HeuristicScaler(db)
    for _ in range(3):
        with pytest.raises(KeyError):
            scaler.candidate_points("ghost")
        with pytest.raises(KeyError):
            scaler.p_eff("ghost")
    db.insert(ProfilePoint("ghost", 24, 0.5, 30.0))
    assert scaler.p_eff("ghost").throughput == 30.0
