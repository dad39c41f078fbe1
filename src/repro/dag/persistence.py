"""Saving and loading tangles.

A checkpoint is the tangle's arena slab plus one metadata record: an
uncompressed ``.npz`` with exactly two members,

- ``rows`` — the arena's live ``(N, P)`` rows in the arena dtype, where
  row ``i`` is the model of the transaction at insertion position ``i``;
- ``__tangle_meta__`` — one JSON object holding the layer shapes, the
  store dtype, the publish counter and the compaction epoch, plus each
  transaction's id, parents, issuer, round and tags in insertion order.

This makes long experiments resumable and lets analysis tooling load a
DAG without re-running the simulation.  The write is **atomic**: the
file is written to a temporary name in the target directory, flushed,
fsynced and renamed over ``path``, so a failed or interrupted save
leaves the previous checkpoint in place and no stray file behind.

Loading **validates** the slab once, up front: its dtype must be a
floating type equal to the recorded store dtype, its shape must be one
row of the recorded layout per transaction, and every row must be
finite — :class:`CorruptTangleError` names the first transaction that
is not.  A file in any other layout (including a torn one) raises the
same error naming the file, so a truncated or bit-rotted checkpoint
fails at the load site instead of deep inside a later merge or walk.

Checkpoints round-trip **compaction state** (see ``docs/scaling.md``):
a tangle saved after a :meth:`~repro.dag.tangle.Tangle.compact`
reloads with burned transaction ids still burned (``next_tx_id`` never
re-issues an id that was truncated away) and with its epoch intact.
"""

from __future__ import annotations

import json
import os
import uuid
import zipfile
from pathlib import Path

import numpy as np

from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.nn.serialization import FlatSpec

__all__ = ["save_tangle", "load_tangle", "CorruptTangleError"]

_ROWS_KEY = "rows"
_META_KEY = "__tangle_meta__"


class CorruptTangleError(ValueError):
    """A saved tangle failed validation on load.

    Raised by :func:`load_tangle` for structural damage (a torn file,
    missing or unexpected members, unreadable metadata, no genesis) and
    for slab damage (wrong dtype, a shape unlike the recorded layout,
    non-finite weight values).  Subclasses ``ValueError`` so callers
    catching bare ``ValueError`` keep working.
    """


def save_tangle(tangle: Tangle, path: str | Path) -> Path:
    """Serialize ``tangle`` to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)

    meta = {
        "shapes": [list(shape) for shape in tangle.spec.shapes],
        "store_dtype": tangle.arena.dtype.str,
        "counter": tangle._counter,
        "compaction_epoch": tangle.compaction_epoch,
        "transactions": [
            {
                "tx_id": tx.tx_id,
                "parents": list(tx.parents),
                "issuer": tx.issuer,
                "round_index": tx.round_index,
                "tags": tx.tags,
            }
            for tx in tangle.transactions()
        ],
    }
    members = {
        _ROWS_KEY: tangle.arena.rows(np.arange(len(tangle))),
        _META_KEY: np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
    }
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            np.savez(fh, **members)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_tangle(path: str | Path) -> Tangle:
    """Load a tangle previously written by :func:`save_tangle`.

    Raises :class:`CorruptTangleError` naming the file when it fails
    validation (see the module docstring for what is checked) or is in
    any other layout — a torn file surfaces a raw zip or numpy error,
    and foreign metadata a raw lookup error, so the whole load is
    normalized to one error type.  A missing file stays a plain
    ``FileNotFoundError``.
    """
    path = Path(path)
    try:
        return _load_validated(path)
    except (CorruptTangleError, FileNotFoundError):
        raise
    except (
        zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError, TypeError
    ) as exc:
        # Everything a torn or foreign file produces: BadZipFile (mangled
        # directory), EOFError/OSError (cut mid-stream), ValueError (a
        # clipped header, undecodable metadata, an invalid DAG),
        # KeyError/TypeError (metadata of another layout).
        raise CorruptTangleError(
            f"{path} is corrupt or truncated ({type(exc).__name__}: {exc})"
        ) from exc


def _load_validated(path: Path) -> Tangle:
    with np.load(path, allow_pickle=False) as data:
        for member in (_ROWS_KEY, _META_KEY):
            if member not in data.files:
                raise CorruptTangleError(
                    f"{path} is not a saved tangle (member {member!r} is missing)"
                )
        if len(data.files) != 2:
            raise CorruptTangleError(
                f"{path} is not a saved tangle (members {sorted(data.files)})"
            )
        meta = json.loads(data[_META_KEY].tobytes().decode("utf-8"))
        rows = data[_ROWS_KEY]

    spec = FlatSpec(tuple(tuple(shape) for shape in meta["shapes"]))
    store_dtype = np.dtype(meta["store_dtype"])
    entries = meta["transactions"]
    if not np.issubdtype(rows.dtype, np.floating) or rows.dtype != store_dtype:
        raise CorruptTangleError(
            f"{path}: member 'rows' has dtype {rows.dtype}, expected the "
            f"floating store dtype {store_dtype}"
        )
    if rows.shape != (len(entries), spec.total):
        raise CorruptTangleError(
            f"{path}: member 'rows' has shape {rows.shape}, expected "
            f"{(len(entries), spec.total)}"
        )
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        first = int(finite.argmin())
        bad = int(spec.total - np.count_nonzero(np.isfinite(rows[first])))
        raise CorruptTangleError(
            f"{path}: transaction {entries[first]['tx_id']!r} (row {first}) "
            f"carries {bad} non-finite value{'s' if bad != 1 else ''}"
        )
    if not entries or entries[0]["tx_id"] != GENESIS_ID:
        raise CorruptTangleError(f"{path}: saved tangle does not start with genesis")

    tangle = Tangle(spec.unflatten(rows[0]), store_dtype=store_dtype)
    tangle.genesis.tags.update(entries[0]["tags"])
    for entry, row in zip(entries[1:], rows[1:]):
        tangle.add(
            Transaction.from_flat(
                entry["tx_id"],
                tuple(entry["parents"]),
                row,
                spec,
                entry["issuer"],
                entry["round_index"],
                entry["tags"],
            )
        )
    tangle._counter = int(meta["counter"])
    tangle._compaction_epoch = int(meta["compaction_epoch"])
    return tangle
