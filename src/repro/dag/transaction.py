"""Transactions: nodes of the model-update DAG.

A transaction's model is one flat weight row from publish to checkpoint:
the vector it is built with, then the row of its tangle's
:class:`~repro.dag.arena.WeightArena` at its insertion position, then
that row of the checkpoint slab (:mod:`repro.dag.persistence`).
"""

from __future__ import annotations

import numpy as np

from repro.nn.serialization import FlatSpec

__all__ = ["Transaction", "GENESIS_ID", "payload_error"]

#: Id of the genesis transaction every tangle starts with.
GENESIS_ID = "genesis"


def payload_error(
    flat: np.ndarray, spec: FlatSpec, dtype: np.dtype | type = np.float64
) -> str | None:
    """Why a flat weight payload must be quarantined, or ``None`` if sound.

    The publish-path admission check of the engine and the gateway: a
    payload that is not a 1-D vector of ``spec.total`` values, finite as
    stored in ``dtype`` (the tangle's ``arena.dtype``), never reaches
    :meth:`~repro.dag.tangle.Tangle.add`.  Shape mismatches catch
    truncated or foreign-architecture payloads; the finiteness check
    catches NaN/Inf corruption, and values a float32 arena would round
    to Inf, before they can poison every downstream mean.  Returns a
    short human-readable reason so callers can count quarantines.
    """
    flat = np.asarray(flat)
    if flat.ndim != 1 or flat.shape[0] != spec.total:
        return f"shape {flat.shape} does not match spec total {spec.total}"
    dtype = np.dtype(dtype)
    if dtype.itemsize < flat.dtype.itemsize:
        with np.errstate(over="ignore"):
            flat = flat.astype(dtype)  # judge the payload as stored
    finite = np.isfinite(flat)
    if not finite.all():
        bad = int(finite.size - np.count_nonzero(finite))
        return f"{bad} non-finite value{'s' if bad != 1 else ''} as {dtype}"
    return None


class Transaction:
    """A published model update.

    ``parents`` are the transactions this update approves (the two tips
    whose models were averaged and trained).  ``issuer`` is the publishing
    client's id (-1 for genesis), and ``tags`` carries experiment
    annotations (e.g. whether the issuer was poisoned) that the *protocol
    never reads* — they exist for evaluation only.

    The model is one flat row in :class:`~repro.nn.serialization.FlatSpec`
    order, held one of two ways:

    - **Unbound** (just constructed): ``(flat, spec)``.  The constructor
      flattens a per-layer list once; :meth:`from_flat` adopts a flat
      vector as is (how the substrate ships models between processes).
    - **Bound** (after :meth:`~repro.dag.tangle.Tangle.add`): ``(arena,
      row)`` — the tangle interned the row into its
      :class:`~repro.dag.arena.WeightArena` — plus a read-only view of
      that row, which is what the transaction reads and what keeps the
      row's block alive: a transaction dropped by a compaction, or held
      by a caller across one, still returns its weights.

    ``model_weights`` returns fresh zero-copy per-layer views of that row.
    """

    __slots__ = (
        "tx_id",
        "parents",
        "issuer",
        "round_index",
        "tags",
        "_flat",
        "_spec",
        "_arena",
        "_row",
    )

    def __init__(
        self,
        tx_id: str,
        parents: tuple[str, ...],
        model_weights: list[np.ndarray],
        issuer: int,
        round_index: int,
        tags: dict | None = None,
    ):
        spec = FlatSpec.from_weights(model_weights)
        self._init(
            tx_id, parents, spec.flatten(model_weights), spec, issuer, round_index, tags
        )

    def _init(self, tx_id, parents, flat, spec, issuer, round_index, tags) -> None:
        self.tx_id = tx_id
        self.parents = tuple(parents)
        self.issuer = issuer
        self.round_index = round_index
        self.tags = {} if tags is None else tags
        self._flat: np.ndarray | None = flat
        self._spec: FlatSpec | None = spec
        self._arena = None
        self._row: int | None = None
        if len(set(self.parents)) != len(self.parents):
            raise ValueError(f"duplicate parents in {self.tx_id}: {self.parents}")
        if self.tx_id in self.parents:
            raise ValueError("a transaction cannot approve itself")

    @classmethod
    def from_flat(
        cls,
        tx_id: str,
        parents: tuple[str, ...],
        flat: np.ndarray,
        spec: FlatSpec,
        issuer: int,
        round_index: int,
        tags: dict | None = None,
    ) -> "Transaction":
        """Build a transaction from one flat weight vector plus its spec."""
        flat = np.asarray(flat)
        if flat.shape != (spec.total,):
            raise ValueError(
                f"expected a ({spec.total},) vector for {tx_id!r}, got {flat.shape}"
            )
        tx = cls.__new__(cls)
        tx._init(tx_id, parents, flat, spec, issuer, round_index, tags)
        return tx

    # ------------------------------------------------------------- weights
    @property
    def model_weights(self) -> list[np.ndarray]:
        """Per-layer weight arrays: fresh zero-copy views of the row."""
        return self._spec.unflatten(self._flat)

    def arena_location(self) -> tuple[object, int] | None:
        """``(arena, row_index)`` when arena-bound, else ``None`` —
        lets bulk readers stack many models straight off the arena."""
        if self._arena is None:
            return None
        return self._arena, self._row

    @property
    def arena_bound(self) -> bool:
        return self._arena is not None

    def flat_vector(self, spec: FlatSpec) -> np.ndarray:
        """This model as one flat vector in ``spec`` order, zero-copy.

        Raises ``ValueError`` when the model is laid out by another spec
        — how :meth:`~repro.dag.tangle.Tangle.add` rejects a model laid
        out unlike its tangle's genesis.
        """
        if self._spec != spec:
            raise ValueError(f"{self.tx_id!r} is laid out by a different spec")
        return self._flat

    def bind_arena(self, arena, row: int) -> None:
        """Adopt arena storage: read the arena's ``row`` (a read-only
        view) from now on instead of the row held before."""
        self._arena = arena
        self._row = row
        self._flat = arena.row(row)
        self._spec = arena.spec

    def __reduce__(self):
        """Pickle a bound transaction as ``(arena, row)`` only: the arena
        ships its rows (or a handle to them) once for all, and the row
        view is taken again on load."""
        bound = self._arena is not None
        return _restore, (
            self.tx_id,
            self.parents,
            self.issuer,
            self.round_index,
            self.tags,
            None if bound else self._flat,
            None if bound else self._spec,
            self._arena,
            self._row,
        )

    # ------------------------------------------------------------- dunder
    @property
    def is_genesis(self) -> bool:
        return not self.parents

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transaction({self.tx_id}, issuer={self.issuer}, "
            f"round={self.round_index}, parents={list(self.parents)})"
        )


def _restore(tx_id, parents, issuer, round_index, tags, flat, spec, arena, row):
    """Unpickle a :class:`Transaction` (see ``Transaction.__reduce__``)."""
    tx = Transaction.__new__(Transaction)
    tx.tx_id, tx.parents, tx.issuer = tx_id, parents, issuer
    tx.round_index, tx.tags = round_index, tags
    tx._flat, tx._spec, tx._arena, tx._row = flat, spec, None, None
    if arena is not None:
        tx.bind_arena(arena, row)
    return tx
