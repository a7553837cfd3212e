"""Shared fixtures: healthy cores, defective cores, pools."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.silicon.core import Core


@pytest.fixture(autouse=True)
def _reset_obs():
    """Keep the process-global obs registry from leaking across tests."""
    yield
    obs.metrics.reset()
    obs.tracer.reset()


@pytest.fixture
def healthy_core() -> Core:
    return Core("test/h0", rng=np.random.default_rng(0))


@pytest.fixture
def reference_core() -> Core:
    return Core("test/ref", rng=np.random.default_rng(1))


@pytest.fixture
def healthy_pool() -> list[Core]:
    return [
        Core(f"test/p{i}", rng=np.random.default_rng(10 + i)) for i in range(6)
    ]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def execute_calls(monkeypatch):
    """Counts per-op trips: every ``Core.execute`` reaches ``golden_call``
    through the module global, a kernel never does."""
    from repro.silicon import core as core_module

    calls = []
    golden_call = core_module.golden_call

    def counting(op, operands):
        calls.append(op)
        return golden_call(op, operands)

    monkeypatch.setattr(core_module, "golden_call", counting)
    return calls
