"""Shared fixtures for the test-suite."""

from __future__ import annotations

import gc
import os
import signal
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.dag.random_walk import sequential_select_tips
from repro.dag.tip_selection import AccuracyTipSelector, WeightedTipSelector
from repro.data import make_fmnist_clustered
from repro.fl import DagConfig, TangleLearning, TrainingConfig
from repro.nn import zoo
from repro.utils import shm as shm_registry


# --------------------------------------------------------- stall guard
# pyproject.toml sets ``timeout = 300`` for pytest-timeout.  Without the
# plugin pytest would ignore the key (with a warning) and hang protection
# would depend on the environment; this fallback owns the key instead
# and enforces it with a SIGALRM alarm around each test phase (main
# thread, POSIX only — the same reach as pytest-timeout's default
# signal method).
def pytest_addoption(parser, pluginmanager):
    if not pluginmanager.hasplugin("timeout"):
        parser.addini(
            "timeout",
            "per-test stall guard in seconds (SIGALRM fallback for pytest-timeout)",
            default="0",
        )


def _stall_guard(item):
    config = item.config
    seconds = (
        0.0
        if config.pluginmanager.hasplugin("timeout")
        else float(config.getini("timeout") or 0)
    )
    if (
        seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return (yield)

    def on_alarm(signum, frame):
        pytest.fail(f"Timeout >{seconds:g}s (tests/conftest.py SIGALRM guard)")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


pytest_runtest_setup = pytest.hookimpl(wrapper=True)(_stall_guard)
pytest_runtest_call = pytest.hookimpl(wrapper=True)(_stall_guard)
pytest_runtest_teardown = pytest.hookimpl(wrapper=True)(_stall_guard)


def _shm_dir_segments() -> set[str]:
    """Names of this library's segments currently present in /dev/shm."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():  # platform without a visible shm filesystem
        return set()
    prefix = shm_registry.segment_prefix()
    return {p.name for p in shm_dir.iterdir() if p.name.startswith(prefix)}


@pytest.fixture(scope="session", autouse=True)
def shm_leak_guard():
    """No shared-memory segment created by this session may survive it.

    The substrate's whole lifecycle story — arenas unlinked on growth
    and close, dataset segments reaped by the registry, attach-side
    mappings untracked — collapses into one observable invariant:
    after every test has run and the registry released what it owns,
    ``/dev/shm`` holds no segment this session created.  Segments
    carrying other pids' names (a concurrently running session) are
    ignored.
    """
    before = _shm_dir_segments()
    yield
    # Views into segments may be kept alive by test-local cycles; drop
    # them before the registry releases so nothing is resurrected.
    gc.collect()
    shm_registry.release_all()
    mine = f"{shm_registry.segment_prefix()}-{os.getpid()}-"
    leaked = {
        name for name in _shm_dir_segments() - before if name.startswith(mine)
    }
    assert not leaked, f"shared-memory segments leaked by this session: {sorted(leaked)}"


@pytest.fixture
def sequential_walks(monkeypatch):
    """Both walking selectors select through the sequential reference —
    the walker every legacy digest was recorded with."""
    for selector in (AccuracyTipSelector, WeightedTipSelector):
        monkeypatch.setattr(selector, "select_tips", sequential_select_tips)


@pytest.fixture
def pool_route(monkeypatch):
    """Pool executors ship every batch of two or more items to their
    workers: the routing thresholds are opened all the way, so a test on
    a tiny payload still runs the pool route instead of silently turning
    serial.  Pair it with an assertion on ``mode_counts["parallel"]``."""
    from repro.substrate import executor

    monkeypatch.setattr(executor, "MIN_UNITS", 2)
    monkeypatch.setattr(executor, "MIN_WORK_BYTES", 0)
    monkeypatch.setattr(executor, "IPC_BUDGET", sys.maxsize)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tiny_fmnist():
    """A 6-client, 2-cluster FMNIST-clustered federation (session-cached)."""
    return make_fmnist_clustered(
        num_clients=6,
        samples_per_client=24,
        image_size=10,
        clusters=((0, 1), (7, 8)),
        seed=7,
    )


@pytest.fixture(scope="session")
def mlp_builder():
    """An MLP builder for 10x10 single-channel images (fast)."""
    return lambda rng: zoo.build_mlp(
        rng, in_features=100, hidden=(16,), num_classes=10
    )


@pytest.fixture
def fast_train_config() -> TrainingConfig:
    return TrainingConfig(
        local_epochs=1, local_batches=3, batch_size=8, learning_rate=0.1
    )


@pytest.fixture
def small_sim(tiny_fmnist, mlp_builder, fast_train_config) -> TangleLearning:
    """A small DAG simulator, not yet run."""
    return TangleLearning(
        tiny_fmnist,
        mlp_builder,
        fast_train_config,
        DagConfig(alpha=10.0, depth_range=(2, 5)),
        clients_per_round=4,
        seed=0,
    )


@pytest.fixture(scope="session")
def ran_sim(tiny_fmnist, mlp_builder):
    """A DAG simulator after 6 rounds (session-cached for metric tests)."""
    sim = TangleLearning(
        tiny_fmnist,
        mlp_builder,
        TrainingConfig(local_epochs=1, local_batches=3, batch_size=8, learning_rate=0.1),
        DagConfig(alpha=10.0, depth_range=(2, 5)),
        clients_per_round=4,
        seed=0,
    )
    sim.run(6)
    return sim
