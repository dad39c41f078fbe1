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
      row)`` — the tangle interned the row into its contiguous
      :class:`~repro.dag.arena.WeightArena` and the transaction keeps
      only where it lives.

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
    def _located(self) -> tuple[np.ndarray, FlatSpec]:
        """The row (read-only once bound) and the spec laying it out."""
        if self._arena is None:
            return self._flat, self._spec
        return self._arena.row(self._row), self._arena.spec

    @property
    def model_weights(self) -> list[np.ndarray]:
        """Per-layer weight arrays: fresh zero-copy views of the row."""
        flat, spec = self._located()
        return spec.unflatten(flat)

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
        flat, own = self._located()
        if own != spec:
            raise ValueError(f"{self.tx_id!r} is laid out by a different spec")
        return flat

    def bind_arena(self, arena, row: int) -> None:
        """Adopt arena storage; drops the privately held row."""
        self._arena = arena
        self._row = row
        self._flat = None
        self._spec = None

    # ------------------------------------------------------------- dunder
    @property
    def is_genesis(self) -> bool:
        return not self.parents

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transaction({self.tx_id}, issuer={self.issuer}, "
            f"round={self.round_index}, parents={list(self.parents)})"
        )
