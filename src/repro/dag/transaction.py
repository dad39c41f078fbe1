"""Transactions: nodes of the model-update DAG."""

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

    Model storage has two regimes:

    - **Unbound** (just constructed): the transaction owns its weights,
      either as the list-of-arrays form of
      :mod:`repro.nn.serialization` or as one flat vector plus its
      :class:`~repro.nn.serialization.FlatSpec`
      (:meth:`from_flat` — how the substrate ships models between
      processes).
    - **Arena-bound** (after :meth:`~repro.dag.tangle.Tangle.add`): the
      tangle interned the weights into its contiguous
      :class:`~repro.dag.arena.WeightArena` and the transaction keeps
      only ``(arena, row)``.  ``model_weights`` stays available as a
      lazy compatibility view — a cached list of zero-copy per-layer
      views into the arena row — so every existing reader keeps working.
    """

    __slots__ = (
        "tx_id",
        "parents",
        "issuer",
        "round_index",
        "tags",
        "_list",
        "_flat",
        "_spec",
        "_arena",
        "_row",
        "_views",
        "_views_generation",
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
        self.tx_id = tx_id
        self.parents = tuple(parents)
        self.issuer = issuer
        self.round_index = round_index
        self.tags = {} if tags is None else tags
        self._list: list[np.ndarray] | None = (
            list(model_weights) if model_weights is not None else None
        )
        self._flat: np.ndarray | None = None
        self._spec: FlatSpec | None = None
        self._arena = None
        self._row: int | None = None
        self._views: list[np.ndarray] | None = None
        self._views_generation = -1
        self._validate()

    def _validate(self) -> None:
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
        tx = cls(tx_id, parents, None, issuer, round_index, tags)  # type: ignore[arg-type]
        tx._flat = flat
        tx._spec = spec
        return tx

    # ------------------------------------------------------------- weights
    @property
    def model_weights(self) -> list[np.ndarray]:
        """Per-layer weight arrays (the historical read surface).

        For arena-bound transactions this is a lazily built, cached list
        of read-only views into the arena row — no copy.  The cache is
        rebuilt when the arena has reallocated its slab since the views
        were taken, so superseded slab generations are not pinned in
        memory by old views.
        """
        if self._arena is not None:
            if (
                self._views is None
                or self._views_generation != self._arena.generation
            ):
                self._views = self._arena.spec.unflatten(self._arena.row(self._row))
                self._views_generation = self._arena.generation
            return self._views
        if self._views is not None:
            return self._views
        if self._list is not None:
            return self._list
        assert self._flat is not None and self._spec is not None
        self._views = self._spec.unflatten(self._flat)
        return self._views

    def arena_location(self) -> tuple[object, int] | None:
        """``(arena, row_index)`` when arena-bound, else ``None`` —
        lets bulk readers stack many models straight off the slab."""
        if self._arena is None:
            return None
        return self._arena, self._row

    @property
    def arena_bound(self) -> bool:
        return self._arena is not None

    def flat_vector(self, spec: FlatSpec) -> np.ndarray:
        """This model as one flat vector in ``spec`` order.

        Zero-copy when already flat (arena row or :meth:`from_flat`
        payload with a matching spec); a pre-bound list is flattened.
        Raises ``ValueError`` when the model's shapes don't match the
        spec — how :meth:`~repro.dag.tangle.Tangle.add` rejects a model
        laid out unlike its tangle's genesis.
        """
        if self._arena is not None:
            if self._arena.spec != spec:
                raise ValueError(f"{self.tx_id!r} is bound to a different spec")
            return self._arena.row(self._row)
        if self._flat is not None:
            if self._spec != spec:
                raise ValueError(f"{self.tx_id!r} carries a different spec")
            return self._flat
        assert self._list is not None
        return spec.flatten(self._list)

    def bind_arena(self, arena, row: int) -> None:
        """Adopt arena storage; drops any privately held weights."""
        self._arena = arena
        self._row = row
        self._list = None
        self._flat = None
        self._spec = None
        self._views = None
        self._views_generation = -1

    # ------------------------------------------------------------- dunder
    @property
    def is_genesis(self) -> bool:
        return not self.parents

    def __getstate__(self) -> dict:
        # The cached per-layer views would serialize as full copies of the
        # row data; drop them and rebuild lazily after unpickling.  The
        # arena reference pickles via the memo, so a pickled tangle ships
        # its slab exactly once.
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["_views"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transaction({self.tx_id}, issuer={self.issuer}, "
            f"round={self.round_index}, parents={list(self.parents)})"
        )
