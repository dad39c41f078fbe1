"""Shared fixtures for the service-layer suite: one small live tangle."""

import numpy as np
import pytest

from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID, Transaction


def _weights(rng):
    return [rng.normal(size=(3, 2)), rng.normal(size=2)]


def _grow():
    rng = np.random.default_rng(5)
    tangle = Tangle(_weights(rng))
    ids = [GENESIS_ID]
    for i in range(40):
        parents = tuple(
            dict.fromkeys(ids[int(rng.integers(0, len(ids)))] for _ in range(2))
        )
        tangle.add(
            Transaction(f"t{i}", parents, _weights(rng), i % 8, i // 8)
        )
        ids.append(f"t{i}")
    return tangle


@pytest.fixture
def tangle():
    """A ~40-transaction tangle with a handful of live tips."""
    return _grow()


@pytest.fixture(scope="module")
def shared_tangle():
    """The same tangle, shared by a module's tests that never grow it."""
    return _grow()
