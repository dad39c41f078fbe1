"""Pachinko Allocation Method."""

import numpy as np
import pytest

from repro.data.pachinko import pachinko_allocation

HIERARCHY = {0: [0, 1], 1: [2, 3], 2: [4, 5]}


def pools(size=100):
    return {cls: size for cls in range(6)}


def test_assigns_requested_counts():
    out = pachinko_allocation(
        HIERARCHY, pools(), num_clients=5, samples_per_client=20, seed=0
    )
    assert len(out) == 5
    assert all(len(labels) == 20 for labels in out)


def test_labels_valid():
    out = pachinko_allocation(
        HIERARCHY, pools(), num_clients=3, samples_per_client=30, seed=0
    )
    for labels in out:
        assert set(labels) <= set(range(6))


def test_without_replacement_respects_pools():
    out = pachinko_allocation(
        HIERARCHY,
        pools(10),  # exactly 60 samples total
        num_clients=3,
        samples_per_client=20,
        seed=0,
    )
    counts = np.bincount([l for labels in out for l in labels], minlength=6)
    assert counts.max() <= 10
    assert counts.sum() == 60


def test_rejects_oversubscription():
    with pytest.raises(ValueError, match="cannot serve"):
        pachinko_allocation(
            HIERARCHY, pools(5), num_clients=10, samples_per_client=20, seed=0
        )


def test_rejects_class_without_pool():
    with pytest.raises(ValueError, match="no pool"):
        pachinko_allocation(
            {0: [0, 99]}, {0: 10}, num_clients=1, samples_per_client=2, seed=0
        )


def test_low_alpha_super_concentrates_clients():
    """Small alpha_super -> each client dominated by few superclasses."""
    out = pachinko_allocation(
        HIERARCHY,
        pools(1000),
        num_clients=20,
        samples_per_client=50,
        alpha_super=0.05,
        seed=0,
    )
    superclass_of = {c: s for s, members in HIERARCHY.items() for c in members}
    dominances = []
    for labels in out:
        supers = [superclass_of[l] for l in labels]
        counts = np.bincount(supers, minlength=3)
        dominances.append(counts.max() / counts.sum())
    assert np.mean(dominances) > 0.75


def test_high_alpha_super_spreads_clients():
    out = pachinko_allocation(
        HIERARCHY,
        pools(1000),
        num_clients=20,
        samples_per_client=60,
        alpha_super=50.0,
        seed=0,
    )
    superclass_of = {c: s for s, members in HIERARCHY.items() for c in members}
    dominances = []
    for labels in out:
        supers = [superclass_of[l] for l in labels]
        counts = np.bincount(supers, minlength=3)
        dominances.append(counts.max() / counts.sum())
    assert np.mean(dominances) < 0.6


def test_deterministic():
    a = pachinko_allocation(HIERARCHY, pools(), num_clients=3, samples_per_client=10, seed=5)
    b = pachinko_allocation(HIERARCHY, pools(), num_clients=3, samples_per_client=10, seed=5)
    assert a == b


BAD_CONCENTRATIONS = [0.0, float("nan"), -1.0, float("inf")]


@pytest.mark.parametrize("name", ["alpha_super", "alpha_sub"])
@pytest.mark.parametrize("value", BAD_CONCENTRATIONS, ids=repr)
def test_rejects_bad_concentration_before_drawing(name, value):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=name):
        pachinko_allocation(
            HIERARCHY, pools(), num_clients=2, samples_per_client=5,
            seed=rng, **{name: value},
        )
    assert rng.bit_generator.state == state
