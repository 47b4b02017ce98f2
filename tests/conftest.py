"""Shared fixtures for the test suite."""

from __future__ import annotations

import pathlib

import pytest

from repro.gpu import GPUDevice, gpu_spec
from repro.sim import Engine

REPO = pathlib.Path(__file__).resolve().parents[1]
SWEEPS = REPO / "examples" / "sweeps"


@pytest.fixture
def engine() -> Engine:
    return Engine(seed=1234)


@pytest.fixture
def v100(engine: Engine) -> GPUDevice:
    return GPUDevice(engine, gpu_spec("V100"), name="gpu0")


@pytest.fixture(scope="session")
def bench_report():
    """Run a committed sweep spec (``examples/sweeps/<name>.json``) once per session.

    The quick bench specs are replayed by several test modules (pin
    equivalence, headline properties, CLI); caching the deterministic
    SweepReport keeps the suite from paying for each replay more than once.
    """
    from repro.sweep import load_sweep, run_sweep

    cache = {}

    def run(name: str):
        if name not in cache:
            cache[name] = run_sweep(load_sweep(str(SWEEPS / f"{name}.json")))
        return cache[name]

    return run
