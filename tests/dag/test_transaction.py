"""Transaction invariants."""

import numpy as np
import pytest

from repro.dag.transaction import GENESIS_ID, Transaction


def make_tx(tx_id="t1", parents=("genesis",)):
    return Transaction(
        tx_id=tx_id,
        parents=tuple(parents),
        model_weights=[np.zeros(3)],
        issuer=0,
        round_index=0,
    )


def test_genesis_detection():
    genesis = Transaction(GENESIS_ID, (), [np.zeros(2)], -1, -1)
    assert genesis.is_genesis
    assert not make_tx().is_genesis


def test_rejects_duplicate_parents():
    with pytest.raises(ValueError, match="duplicate parents"):
        make_tx(parents=("a", "a"))


def test_rejects_self_approval():
    with pytest.raises(ValueError, match="approve itself"):
        make_tx(tx_id="x", parents=("x",))


def test_tags_default_empty():
    assert make_tx().tags == {}


def test_tags_are_instance_local():
    a = make_tx("a")
    b = make_tx("b")
    a.tags["poisoned"] = True
    assert b.tags == {}


# ------------------------------------------------ payload admission check
def test_payload_error_accepts_sound_vector():
    from repro.dag.transaction import payload_error
    from repro.nn.serialization import FlatSpec

    spec = FlatSpec(((2, 2), (3,)))
    assert payload_error(np.zeros(7), spec) is None


def test_payload_error_flags_shape_mismatch():
    from repro.dag.transaction import payload_error
    from repro.nn.serialization import FlatSpec

    spec = FlatSpec(((2, 2), (3,)))
    assert "shape" in payload_error(np.zeros(6), spec)
    assert "shape" in payload_error(np.zeros((7, 1)), spec)


def test_payload_error_flags_non_finite_values():
    from repro.dag.transaction import payload_error
    from repro.nn.serialization import FlatSpec

    spec = FlatSpec(((2, 2), (3,)))
    flat = np.zeros(7)
    flat[1] = np.nan
    flat[4] = np.inf
    message = payload_error(flat, spec)
    assert "2 non-finite values" in message


def test_payload_error_judges_the_stored_dtype():
    """A value beyond float32's range is sound for a float64 arena and
    non-finite for a float32 one — flagged without an overflow warning."""
    import warnings

    from repro.dag.transaction import payload_error
    from repro.nn.serialization import FlatSpec

    spec = FlatSpec(((2, 2), (3,)))
    flat = np.zeros(7)
    flat[2] = 1e39
    assert payload_error(flat, spec) is None
    assert payload_error(flat, spec, np.float64) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = payload_error(flat, spec, np.float32)
    assert "1 non-finite value" in message and "float32" in message
    flat[2] = 3e38
    assert payload_error(flat, spec, np.float32) is None
