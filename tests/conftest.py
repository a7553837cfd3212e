"""Shared fixtures: healthy cores, defective cores, pools."""

from __future__ import annotations

import os
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro import obs
from repro.fleet.shm import SEGMENT_PREFIX, leaked_segments
from repro.silicon.core import Core
from repro.silicon.golden import golden_cache, golden_cache_enabled


def _assert_no_child_left() -> None:
    """No child of this process is left, running or unreaped.  The
    resource tracker a shared-memory segment starts is a child too: it
    is stopped first, and the next segment starts it again."""
    resource_tracker._resource_tracker._stop()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session", autouse=True)
def _no_stray_workers_or_segments():
    """The session leaves no child process and no fleet segment of its
    own behind (other processes' segments are theirs)."""
    yield
    # Segments first: the resource tracker unlinks what it still holds
    # when it stops.
    ours = leaked_segments(f"{SEGMENT_PREFIX}{os.getpid()}_")
    assert not ours, f"shared-memory segments left behind: {ours}"
    _assert_no_child_left()


@pytest.fixture
def children_reaped():
    """After the test, no forked worker is left running or unreaped."""
    yield
    _assert_no_child_left()


@pytest.fixture(autouse=True)
def _golden_cache_switch_restored():
    """A test that flips the golden-cache switch puts it back: the next
    test must run on the path ``REPRO_GOLDEN_CACHE`` selected."""
    was = golden_cache_enabled()
    yield
    assert golden_cache_enabled() == was, "test left the golden-cache switch changed"


@pytest.fixture
def kernels_on():
    """The golden-cache switch on for one test, whatever
    ``REPRO_GOLDEN_CACHE`` says, and back after: for a test that asserts
    a kernel or a bulk credit was taken, which the per-op reference
    path turns off by design.  CI runs the whole suite both ways."""
    with golden_cache(True):
        yield


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


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps the function ``owner.name`` (a
    module global, or a method looked up on its class) for one test and
    returns the list each call appends to."""

    def install(owner, name):
        calls = []
        inner = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(None)
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return install
