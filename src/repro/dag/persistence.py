"""Saving and loading tangles.

A tangle is stored as one ``.npz`` holding every transaction's weights
plus a JSON ``meta`` entry describing structure (parents, issuers,
rounds, tags).  This makes long experiments resumable and lets analysis
tooling load a DAG without re-running the simulation.

Since the flat-weight plane, each model is stored as **one** flat array
(keyed ``<tx_id>/flat``) with its per-layer shapes recorded in the
metadata — one npz member per transaction instead of one per layer,
which is both smaller and much faster to write and read.  Files written
by the original per-layer format (``<tx_id>/<index>`` members and a
``num_arrays`` meta field) still load.

Loading **validates** every checkpoint up front: missing weight
members, rows whose dtype is not a real floating type, shapes that
don't match the recorded spec, and non-finite weight values all raise
:class:`CorruptTangleError` naming the offending transaction — a
truncated or bit-rotted file fails at the load site with a clear
message instead of deep inside a later merge or walk.

Checkpoints round-trip **compaction state** (see ``docs/scaling.md``):
the genesis meta entry records the publish counter and the
:attr:`~repro.dag.tangle.Tangle.compaction_epoch`, so a tangle saved
after a :meth:`~repro.dag.tangle.Tangle.compact` reloads with burned
transaction ids still burned (``next_tx_id`` never re-issues an id
that was truncated away) and with its epoch intact.  Files written before these fields existed still
load; the counter is then recovered from the largest ``tx<N>-...`` id
present.
"""

from __future__ import annotations

import json
import re
import zipfile
from pathlib import Path

import numpy as np

from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.nn.serialization import FlatSpec

__all__ = ["save_tangle", "load_tangle", "CorruptTangleError"]

_META_KEY = "__tangle_meta__"


class CorruptTangleError(ValueError):
    """A saved tangle failed validation on load.

    Raised by :func:`load_tangle` for structural damage (missing
    metadata or weight members, no genesis) and for payload damage
    (wrong dtype, shape mismatch against the recorded spec, non-finite
    weight values).  Subclasses ``ValueError`` so pre-existing callers
    catching the old bare errors keep working.
    """


def save_tangle(tangle: Tangle, path: str | Path) -> Path:
    """Serialize ``tangle`` to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)

    arrays: dict[str, np.ndarray] = {}
    meta: list[dict] = []
    # The arena dtype is a property of the whole tangle; record it on the
    # genesis entry so a resumed run keeps the operator's float32/float64
    # storage choice.
    store_dtype = tangle.arena.dtype.str
    shapes = [list(shape) for shape in tangle.spec.shapes]
    for tx in tangle.transactions():
        entry = {
            "tx_id": tx.tx_id,
            "parents": list(tx.parents),
            "issuer": tx.issuer,
            "round_index": tx.round_index,
            "tags": tx.tags,
            "shapes": shapes,
        }
        if not meta:
            # Genesis carries tangle-wide state: the storage dtype, the
            # publish counter (so reloaded tangles never re-issue ids
            # burned before a compaction), and the compaction epoch (so
            # the reloaded tangle reports the compactions it has had).
            entry["store_dtype"] = store_dtype
            entry["counter"] = tangle._counter
            entry["compaction_epoch"] = tangle.compaction_epoch
        meta.append(entry)
        arrays[f"{tx.tx_id}/flat"] = tx.flat_vector(tangle.spec)
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)
    return path


def _checked(tx_id: str, member: str, array: np.ndarray, shape: tuple) -> np.ndarray:
    """Validate one stored weight array; raise :class:`CorruptTangleError`."""
    if not np.issubdtype(array.dtype, np.floating):
        raise CorruptTangleError(
            f"transaction {tx_id!r}: member {member!r} has dtype "
            f"{array.dtype}, expected a floating type"
        )
    if array.shape != shape:
        raise CorruptTangleError(
            f"transaction {tx_id!r}: member {member!r} has shape "
            f"{array.shape}, expected {shape}"
        )
    if not np.isfinite(array).all():
        bad = int(array.size - np.isfinite(array).sum())
        raise CorruptTangleError(
            f"transaction {tx_id!r}: member {member!r} carries {bad} "
            f"non-finite value{'s' if bad != 1 else ''}"
        )
    return array


def load_tangle(path: str | Path) -> Tangle:
    """Load a tangle previously written by :func:`save_tangle`.

    Raises :class:`CorruptTangleError` when the file fails validation
    (see the module docstring for what is checked) — including when the
    file itself is torn: an npz cut mid-array surfaces the raw zip or
    numpy error only when the damaged member is decompressed, so the
    whole load is normalized to one error type naming the file.  A
    missing file stays a plain ``FileNotFoundError``.
    """
    path = Path(path)
    try:
        return _load_validated(path)
    except CorruptTangleError:
        raise
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError) as exc:
        # Everything a torn file produces across numpy/zipfile versions:
        # BadZipFile (mangled directory), EOFError/OSError (member cut
        # mid-stream), ValueError ("Failed to interpret..." / a clipped
        # header), KeyError (meta fields lost with the tail).
        raise CorruptTangleError(
            f"{path} is corrupt or truncated "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def _load_validated(path: Path) -> Tangle:
    with np.load(path, allow_pickle=False) as data:
        if _META_KEY not in data:
            raise CorruptTangleError(
                f"{path} is not a saved tangle (missing metadata)"
            )
        meta = json.loads(bytes(data[_META_KEY].tobytes()).decode("utf-8"))

        def weights_of(entry: dict) -> list[np.ndarray]:
            tx_id = entry["tx_id"]
            if "shapes" in entry:  # flat format: one member per transaction
                spec = FlatSpec(tuple(tuple(s) for s in entry["shapes"]))
                member = f"{tx_id}/flat"
                if member not in data:
                    raise CorruptTangleError(
                        f"transaction {tx_id!r}: member {member!r} is missing"
                    )
                flat = _checked(tx_id, member, data[member], (spec.total,))
                return [np.array(w) for w in spec.unflatten(flat)]
            # legacy per-layer format
            arrays = []
            for i in range(entry["num_arrays"]):
                member = f"{tx_id}/{i}"
                if member not in data:
                    raise CorruptTangleError(
                        f"transaction {tx_id!r}: member {member!r} is missing"
                    )
                array = np.array(data[member])
                arrays.append(_checked(tx_id, member, array, array.shape))
            return arrays

        if not meta or meta[0]["tx_id"] != GENESIS_ID:
            raise CorruptTangleError("saved tangle does not start with genesis")
        # Legacy files carry no dtype marker; they were float64 tangles.
        store_dtype = np.dtype(meta[0].get("store_dtype", "<f8"))
        tangle = Tangle(weights_of(meta[0]), store_dtype=store_dtype)
        for entry in meta[1:]:
            tangle.add(
                Transaction(
                    tx_id=entry["tx_id"],
                    parents=tuple(entry["parents"]),
                    model_weights=weights_of(entry),
                    issuer=entry["issuer"],
                    round_index=entry["round_index"],
                    tags=entry["tags"],
                )
            )
        if "counter" in meta[0]:
            tangle._counter = int(meta[0]["counter"])
        else:
            # Legacy file: recover the publish counter from the ids
            # actually present, so next_tx_id cannot collide with them.
            tangle._counter = max(
                (
                    int(m.group(1))
                    for entry in meta
                    if (m := re.match(r"tx(\d+)-", entry["tx_id"]))
                ),
                default=0,
            )
        tangle._compaction_epoch = int(meta[0].get("compaction_epoch", 0))
    return tangle
