"""Tangle persistence and export."""

import numpy as np
import pytest

from repro.dag import (
    Tangle,
    Transaction,
    load_tangle,
    save_tangle,
    tangle_statistics,
    to_dot,
    to_networkx,
)
from repro.dag.transaction import GENESIS_ID


@pytest.fixture
def tangle(rng):
    t = Tangle([rng.normal(size=(3, 2)), rng.normal(size=2)])
    t.add(
        Transaction(
            "a", (GENESIS_ID,), [rng.normal(size=(3, 2)), rng.normal(size=2)], 0, 0,
            tags={"poisoned": True},
        )
    )
    t.add(
        Transaction(
            "b", (GENESIS_ID, "a"), [rng.normal(size=(3, 2)), rng.normal(size=2)], 1, 1
        )
    )
    return t


def test_save_load_roundtrip(tangle, tmp_path):
    path = save_tangle(tangle, tmp_path / "t.npz")
    loaded = load_tangle(path)
    assert len(loaded) == len(tangle)
    for original in tangle.transactions():
        restored = loaded.get(original.tx_id)
        assert restored.parents == original.parents
        assert restored.issuer == original.issuer
        assert restored.round_index == original.round_index
        assert restored.tags == original.tags
        for a, b in zip(restored.model_weights, original.model_weights):
            np.testing.assert_array_equal(a, b)


def test_save_appends_npz_suffix(tangle, tmp_path):
    path = save_tangle(tangle, tmp_path / "mytangle")
    assert path.suffix == ".npz"
    assert path.exists()


def test_load_rejects_foreign_npz(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, x=np.zeros(3))
    with pytest.raises(ValueError, match="not a saved tangle"):
        load_tangle(path)


def test_loaded_tangle_usable(tangle, tmp_path, rng):
    loaded = load_tangle(save_tangle(tangle, tmp_path / "t"))
    assert loaded.tips() == ["b"]
    loaded.add(
        Transaction("c", ("b",), loaded.get("b").model_weights, 2, 2)
    )
    assert loaded.tips() == ["c"]


def test_to_networkx(tangle):
    graph = to_networkx(tangle)
    assert graph.number_of_nodes() == 3
    assert graph.has_edge("b", "a")
    assert graph.has_edge("a", GENESIS_ID)
    assert graph.nodes["a"]["poisoned"] is True
    assert graph.nodes["b"]["is_tip"] is True


def test_to_networkx_is_dag(tangle):
    import networkx as nx

    assert nx.is_directed_acyclic_graph(to_networkx(tangle))


def test_to_dot_renders_all_nodes_and_edges(tangle):
    dot = to_dot(tangle, cluster_labels={0: 0, 1: 1})
    assert dot.startswith("digraph tangle {")
    assert '"a"' in dot and '"b"' in dot
    assert '"b" -> "a";' in dot
    assert "lightblue" in dot and "lightcoral" in dot  # cluster colors


def test_statistics(tangle):
    stats = tangle_statistics(tangle)
    assert stats["transactions"] == 2
    assert stats["tips"] == 1
    assert stats["rounds"] == 2
    assert stats["max_width"] == 1
    assert stats["distinct_issuers"] == 2
    assert stats["max_approvers"] == 2  # genesis has two approvers

# --------------------------------------------- corrupt checkpoint guard
def tamper(path, tmp_path, drop=None, **overrides):
    """Rewrite the saved npz with members replaced (or removed)."""
    with np.load(path, allow_pickle=False) as data:
        members = {name: data[name] for name in data.files}
    if drop is not None:
        members.pop(drop)
    members.update(overrides)
    out = tmp_path / "tampered.npz"
    np.savez_compressed(out, **members)
    return out


def test_load_rejects_non_finite_rows(tangle, tmp_path):
    from repro.dag import CorruptTangleError

    path = save_tangle(tangle, tmp_path / "t.npz")
    with np.load(path, allow_pickle=False) as data:
        bad = np.array(data["rows"], copy=True)
    bad[1, 2] = np.nan  # row 1 is transaction 'a'
    tampered = tamper(path, tmp_path, rows=bad)
    with pytest.raises(CorruptTangleError, match="'a'.*non-finite"):
        load_tangle(tampered)


def test_load_rejects_truncated_rows(tangle, tmp_path):
    from repro.dag import CorruptTangleError

    path = save_tangle(tangle, tmp_path / "t.npz")
    with np.load(path, allow_pickle=False) as data:
        short = np.array(data["rows"], copy=True)[:, :-2]
    tampered = tamper(path, tmp_path, rows=short)
    with pytest.raises(CorruptTangleError, match="'rows'.*shape"):
        load_tangle(tampered)


def test_load_rejects_wrong_dtype(tangle, tmp_path):
    from repro.dag import CorruptTangleError

    path = save_tangle(tangle, tmp_path / "t.npz")
    with np.load(path, allow_pickle=False) as data:
        ints = np.array(data["rows"], copy=True).astype(np.int64)
    tampered = tamper(path, tmp_path, rows=ints)
    with pytest.raises(CorruptTangleError, match="'rows'.*dtype"):
        load_tangle(tampered)


def test_load_rejects_missing_member(tangle, tmp_path):
    from repro.dag import CorruptTangleError

    path = save_tangle(tangle, tmp_path / "t.npz")
    tampered = tamper(path, tmp_path, drop="rows")
    with pytest.raises(CorruptTangleError, match="'rows'.*missing"):
        load_tangle(tampered)


def test_corrupt_tangle_error_is_a_value_error(tangle, tmp_path):
    """Pre-existing callers catch ValueError; the subclass keeps them."""
    from repro.dag import CorruptTangleError

    assert issubclass(CorruptTangleError, ValueError)
    path = tmp_path / "other.npz"
    np.savez(path, x=np.zeros(3))
    with pytest.raises(CorruptTangleError):
        load_tangle(path)


def test_load_names_file_when_cut_mid_array(tangle, tmp_path):
    """A file torn at any byte offset is one CorruptTangleError naming
    the file — never a raw zipfile/EOF/numpy error from deep inside."""
    import re

    from repro.dag import CorruptTangleError

    path = save_tangle(tangle, tmp_path / "t.npz")
    raw = path.read_bytes()
    # Cut points spanning the zip structure: inside the first member's
    # compressed stream, mid-archive, and through the central directory.
    for fraction in (0.2, 0.5, 0.75, 0.97):
        torn = tmp_path / f"torn-{int(fraction * 100)}.npz"
        torn.write_bytes(raw[: int(len(raw) * fraction)])
        with pytest.raises(CorruptTangleError, match=re.escape(torn.name)):
            load_tangle(torn)


def test_load_torn_file_chains_the_underlying_error(tangle, tmp_path):
    from repro.dag import CorruptTangleError

    path = save_tangle(tangle, tmp_path / "t.npz")
    raw = path.read_bytes()
    torn = tmp_path / "torn.npz"
    torn.write_bytes(raw[: len(raw) // 2])
    try:
        load_tangle(torn)
    except CorruptTangleError as exc:
        assert exc.__cause__ is not None  # the raw error stays debuggable
    else:  # pragma: no cover
        pytest.fail("torn file loaded")


def test_load_missing_file_stays_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_tangle(tmp_path / "never-written.npz")


# ------------------------------------------------ checkpoint layout
def test_checkpoint_is_the_arena_slab_plus_one_metadata_record(tangle, tmp_path):
    import zipfile

    path = save_tangle(tangle, tmp_path / "t.npz")
    with zipfile.ZipFile(path) as archive:
        assert sorted(archive.namelist()) == ["__tangle_meta__.npy", "rows.npy"]
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
    with np.load(path, allow_pickle=False) as data:
        np.testing.assert_array_equal(data["rows"], tangle.arena.rows([0, 1, 2]))
        assert data["rows"].dtype == tangle.arena.dtype


def _meta_member(obj) -> np.ndarray:
    import json

    return np.frombuffer(json.dumps(obj).encode(), np.uint8)


def _other_layouts(tangle, rows, meta):
    """Files a loader must refuse: the one-member-per-transaction layout,
    and the two members with foreign metadata or company."""
    per_transaction = {
        f"{tx.tx_id}/flat": tangle.flat_weights(tx.tx_id)
        for tx in tangle.transactions()
    }
    per_transaction["__tangle_meta__"] = _meta_member(
        [dict(entry, shapes=meta["shapes"]) for entry in meta["transactions"]]
    )
    without_transactions = {k: v for k, v in meta.items() if k != "transactions"}
    return {
        "per-transaction": per_transaction,
        "meta-list": {"rows": rows, "__tangle_meta__": _meta_member(meta["transactions"])},
        "meta-not-json": {"rows": rows, "__tangle_meta__": np.frombuffer(b"\xff{", np.uint8)},
        "meta-no-transactions": {
            "rows": rows, "__tangle_meta__": _meta_member(without_transactions)
        },
        "extra-member": {"rows": rows, "__tangle_meta__": _meta_member(meta), "x": rows},
    }


@pytest.mark.parametrize(
    "layout",
    ["per-transaction", "meta-list", "meta-not-json", "meta-no-transactions", "extra-member"],
)
def test_load_rejects_any_other_layout_naming_the_file(tangle, tmp_path, layout):
    import json
    import re

    from repro.dag import CorruptTangleError

    path = save_tangle(tangle, tmp_path / "t.npz")
    with np.load(path, allow_pickle=False) as data:
        rows, meta = data["rows"], json.loads(data["__tangle_meta__"].tobytes())
    other = tmp_path / "other.npz"
    np.savez(other, **_other_layouts(tangle, rows, meta)[layout])
    with pytest.raises(CorruptTangleError, match=re.escape(other.name)):
        load_tangle(other)


def test_failed_save_keeps_the_previous_checkpoint(tangle, tmp_path, rng, monkeypatch):
    """The save writes a temp file and renames it: a write that fails
    midway leaves the old checkpoint loadable and no stray file."""
    path = save_tangle(tangle, tmp_path / "t.npz")
    with np.load(path, allow_pickle=False) as data:
        before = {name: np.array(data[name]) for name in data.files}
    tangle.add(
        Transaction("c", ("b",), [rng.normal(size=(3, 2)), rng.normal(size=2)], 2, 2)
    )
    write_array = np.lib.format.write_array
    calls = []

    def fail_second_member(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise OSError("disk full")
        return write_array(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", fail_second_member)
    with pytest.raises(OSError, match="disk full"):
        save_tangle(tangle, path)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["t.npz"]
    with np.load(path, allow_pickle=False) as data:
        assert sorted(data.files) == sorted(before)
        for name, array in before.items():
            np.testing.assert_array_equal(data[name], array)
    assert [tx.tx_id for tx in load_tangle(path).transactions()] == ["genesis", "a", "b"]
