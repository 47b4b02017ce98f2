"""Tests for the profiler: config server, database, and measured trials."""

from __future__ import annotations

import pytest

from repro.faas import FunctionSpec
from repro.models import get_model
from repro.profiler import (
    ConfigurationServer,
    FaSTProfiler,
    ProfileDatabase,
    ProfilePoint,
)


# ---- configuration server ----------------------------------------------------

def test_default_grid_matches_paper():
    server = ConfigurationServer()
    assert server.spatial == (6, 12, 24, 50, 60, 80, 100)
    assert server.temporal == (0.2, 0.4, 0.6, 0.8, 1.0)
    assert len(server) == 35
    assert len(server.grid()) == 35


def test_grid_order_spatial_major():
    server = ConfigurationServer(spatial=(6, 12), temporal=(0.5, 1.0))
    assert server.grid() == [(6, 0.5), (6, 1.0), (12, 0.5), (12, 1.0)]


def test_sample_subsets_grid():
    import numpy as np

    server = ConfigurationServer()
    sample = server.sample(10, np.random.default_rng(0))
    assert len(sample) == 10
    assert set(sample) <= set(server.grid())
    assert server.sample(100, np.random.default_rng(0)) == server.grid()


def test_config_server_validation():
    with pytest.raises(ValueError):
        ConfigurationServer(spatial=())
    with pytest.raises(ValueError):
        ConfigurationServer(spatial=(0,))
    with pytest.raises(ValueError):
        ConfigurationServer(temporal=(1.5,))


# ---- database -------------------------------------------------------------------

def test_insert_replaces_same_config():
    db = ProfileDatabase()
    db.insert(ProfilePoint("f", 12, 0.4, 10.0))
    db.insert(ProfilePoint("f", 12, 0.4, 20.0))
    assert len(db.points("f")) == 1
    assert db.throughput_of("f", 12, 0.4) == 20.0
    assert db.version == 2  # a replacement is an insert too


def test_lookup_missing():
    db = ProfileDatabase()
    assert db.get("f", 12, 0.4) is None
    with pytest.raises(KeyError):
        db.throughput_of("f", 12, 0.4)
    with pytest.raises(KeyError):
        db.best_rpr("f")


def test_analytic_seeding_covers_grid():
    db = ProfileDatabase.analytic({"classify": get_model("resnet50")})
    assert len(db.points("classify")) == 35
    assert db.functions() == ["classify"]
    # Analytic throughput at (100, 1.0) is the paper's 71.37 req/s.
    assert db.throughput_of("classify", 100, 1.0) == pytest.approx(71.37, rel=0.01)


def test_analytic_p_eff_is_not_the_biggest_config():
    db = ProfileDatabase.analytic({"classify": get_model("resnet50")})
    p_eff = db.best_rpr("classify")
    # Efficiency peaks at small partitions (the whole point of sharing).
    assert p_eff.sm_partition <= 24


# ---- measured trials (integration) --------------------------------------------------

@pytest.fixture(scope="module")
def profiler() -> FaSTProfiler:
    return FaSTProfiler(trial_duration=8.0, warmup=1.0, concurrency=6)


def spec(name="classify", model="resnet50") -> FunctionSpec:
    return FunctionSpec.from_model(name, model)


def test_trial_measures_near_analytic_rate(profiler: FaSTProfiler):
    function = spec()
    trial = profiler.run_trial(function, sm_partition=24, quota=1.0)
    expected = function.model.expected_rate(24, 1.0)
    assert trial.throughput == pytest.approx(expected, rel=0.08)
    assert trial.completed > 0
    assert trial.gpu_utilization > 50


def test_trial_quota_throttles(profiler: FaSTProfiler):
    function = spec()
    full = profiler.run_trial(function, 24, 1.0)
    half = profiler.run_trial(function, 24, 0.4)
    # Fig. 8: throughput roughly proportional to the time quota.
    assert half.throughput == pytest.approx(0.4 * full.throughput, rel=0.20)


def test_trial_spatial_saturation(profiler: FaSTProfiler):
    function = spec()
    t6 = profiler.run_trial(function, 6, 1.0).throughput
    t24 = profiler.run_trial(function, 24, 1.0).throughput
    t100 = profiler.run_trial(function, 100, 1.0).throughput
    assert t6 < t24  # below the knee: more SMs help
    assert t100 == pytest.approx(t24, rel=0.12)  # beyond the knee: saturated


def test_profile_function_fills_database(profiler: FaSTProfiler):
    function = spec(name="rnnt-fn", model="rnnt")
    points = profiler.profile_function(function, configs=[(12, 0.4), (24, 0.8)])
    assert len(points) == 2
    assert profiler.database.get("rnnt-fn", 12, 0.4) is not None
    assert profiler.database.get("rnnt-fn", 24, 0.8) is not None
    assert all(p.throughput > 0 for p in points)
