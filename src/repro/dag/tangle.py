"""Append-only DAG store with tip bookkeeping, weight queries, and
checkpoint compaction.

The store is append-only *between compactions*: :meth:`Tangle.compact`
truncates confirmed history below a cut — the old arena is drained
block by block into a kept arena (dropped models go back to the
operating system once no reader pins them, or to a memory-mapped
archive) and surviving parents below the cut remap to genesis — bumps
:attr:`Tangle.compaction_epoch`, and drops the tangle's walk snapshot,
so no reader is served pre-compaction state (see ``docs/scaling.md``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.dag.arena import WeightArena
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.dag.walk_engine import TangleSnapshot
from repro.nn.serialization import FlatSpec

__all__ = ["Tangle", "CompactionReport"]


@dataclass(frozen=True)
class CompactionReport:
    """What one :meth:`Tangle.compact` call did.

    ``resident_before``/``resident_after`` are the arena's resident
    (RAM-backed) byte counts around the cut; ``spill`` is the
    memory-mapped :class:`~repro.dag.arena.WeightArena` archiving the
    dropped models (``None`` unless a spill path was given) and
    ``spill_rows`` maps each dropped transaction id to its row in it.
    """

    dropped: int
    kept: int
    epoch: int
    resident_before: int
    resident_after: int
    dropped_ids: tuple[str, ...] = ()
    spill: WeightArena | None = None
    spill_rows: dict | None = None


class Tangle:
    """The DAG of model updates.

    Acyclicity is guaranteed by construction: a transaction may only
    approve transactions that already exist, so every edge points strictly
    backwards in insertion order.  Walks move in the *opposite* direction
    of approvals, from older transactions towards the tips, via
    :meth:`approvers` (Algorithm 1's ``GetChildren``).

    The tangle owns one derived :class:`TangleSnapshot` of itself
    (:meth:`snapshot`): the CSR arrays every walk runs on, kept current
    lazily — extended by the publish-epoch delta when next asked for,
    rebuilt only after :meth:`compact`.  Cumulative weights (own weight
    plus the size of the future cone) are one of that snapshot's planes,
    so :meth:`cumulative_weight` is a lookup and runs that never query
    weights pay nothing for them.

    **Model storage** lives in a per-tangle :class:`WeightArena`: the
    genesis weights fix the :class:`FlatSpec` (shapes/offsets of the
    architecture), and :meth:`add` interns each transaction's model as
    one contiguous flat row, after which the transaction serves
    ``model_weights`` as zero-copy views into its row.  Every model of
    a tangle is the arena row at its insertion position — :meth:`add`
    rejects a model laid out unlike genesis, or one already stored in
    another tangle's arena, and :meth:`compact` renumbers the kept rows
    with the kept order — so a whole-tangle snapshot's node *is* its
    arena row.  ``store_dtype=np.float32`` halves arena memory and IPC
    volume at the cost of float64 bit-compatibility.
    """

    def __init__(
        self,
        genesis_weights: list[np.ndarray],
        *,
        store_dtype: np.dtype | type = np.float64,
    ):
        self._spec = FlatSpec.from_weights(genesis_weights)
        self._arena = WeightArena(self._spec, dtype=store_dtype)
        genesis = Transaction(
            tx_id=GENESIS_ID,
            parents=(),
            model_weights=genesis_weights,
            issuer=-1,
            round_index=-1,
        )
        self._intern(genesis)
        self._transactions: dict[str, Transaction] = {GENESIS_ID: genesis}
        self._approvers: dict[str, list[str]] = {GENESIS_ID: []}
        self._tips: set[str] = {GENESIS_ID}
        self._order: list[str] = [GENESIS_ID]
        self._counter = 0
        self._compaction_epoch = 0
        self._snapshot: TangleSnapshot | None = None

    # ------------------------------------------------------------ queries
    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._transactions

    def __len__(self) -> int:
        return len(self._transactions)

    @property
    def genesis(self) -> Transaction:
        return self._transactions[GENESIS_ID]

    @property
    def spec(self) -> FlatSpec:
        """Flat layout of the tangle's model architecture."""
        return self._spec

    @property
    def arena(self) -> WeightArena:
        """The append-only model-weight store."""
        return self._arena

    # ------------------------------------------------- shared-memory plane
    def share_memory(self) -> "Tangle":
        """Move the model store into shared-memory segments (idempotent).

        After this, pickling the tangle ships transaction metadata plus an
        attach-by-name arena handle instead of the row bytes — the IPC
        form the parallel substrate uses.  Values are bit-identical; only
        the storage location changes.  Returns ``self`` for chaining.
        """
        if not self._arena.is_shared:
            self._arena.to_shared()
            self._rebind()
        return self

    def close(self) -> None:
        """Release the arena's shared-memory segment, if any (idempotent).

        Live views (this process's and attached workers') keep working;
        the segment's name is removed so nothing leaks in ``/dev/shm``.
        Heap-backed tangles have nothing to release.
        """
        if self._arena.is_shared or self._arena.is_spilled:
            self._arena.close()
            self._rebind()

    def _rebind(self) -> None:
        """Point every transaction's row view at the arena's current
        blocks, so none keeps a replaced block alive."""
        for row, tx_id in enumerate(self._order):
            self._transactions[tx_id].bind_arena(self._arena, row)

    def __enter__(self) -> "Tangle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __getstate__(self) -> dict:
        """Pickle without the snapshot: it is derived state, rebuilt on
        first use, so IPC payloads and copies carry none of it."""
        state = self.__dict__.copy()
        del state["_snapshot"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._snapshot = None

    def _cost_footprint(self, walk) -> tuple[int, int]:
        """(shipped bytes, dense bytes) for the substrate's router.

        The arena dominates; transactions add per-object dict/metadata
        overhead (ids, parents, tags) that ships regardless of backing.
        """
        arena_ipc, arena_dense = self._arena._cost_footprint(walk)
        meta = 250 * len(self._transactions)
        return arena_ipc + meta, arena_dense + meta

    def flat_weights(self, tx_id: str) -> np.ndarray:
        """A transaction's model as one flat vector (a zero-copy view of
        its arena row)."""
        return self.get(tx_id).flat_vector(self._spec)

    def get(self, tx_id: str) -> Transaction:
        """The transaction stored under ``tx_id`` (KeyError if unknown —
        including ids truncated by a past :meth:`compact`)."""
        try:
            return self._transactions[tx_id]
        except KeyError:
            raise KeyError(f"unknown transaction {tx_id!r}") from None

    def transactions(self) -> list[Transaction]:
        """All transactions in insertion (topological) order."""
        return [self._transactions[tx_id] for tx_id in self._order]

    def transactions_since(self, start: int) -> list[Transaction]:
        """Transactions appended at insertion positions ``>= start``.

        The delta accessor behind snapshot extension: between
        compactions the store is append-only, so the suffix of the
        insertion order *is* the publish-epoch delta — O(delta) to
        produce, never O(history)."""
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        return [self._transactions[tx_id] for tx_id in self._order[start:]]

    @property
    def compaction_epoch(self) -> int:
        """How many compactions this tangle has undergone."""
        return self._compaction_epoch

    def snapshot(self) -> TangleSnapshot:
        """The tangle's current whole-tangle walk snapshot.

        Derived state the tangle owns: built cold on first use and after
        :meth:`compact` (which drops it), extended by the delta in
        O(delta) once the tangle has grown (:meth:`TangleSnapshot.extend`,
        bit-identical to a rebuild), and otherwise the same object — so
        every walk of a publish epoch shares it and its lazily
        materialized planes.  :meth:`add` never touches it.
        """
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = TangleSnapshot.build(self)
        elif len(snapshot) != len(self):
            snapshot = self._snapshot = snapshot.extend(self)
        return snapshot

    def approvers(self, tx_id: str) -> list[str]:
        """Transactions that directly approve ``tx_id`` (walk successors)."""
        if tx_id not in self._transactions:
            raise KeyError(f"unknown transaction {tx_id!r}")
        return list(self._approvers[tx_id])

    def tips(self) -> list[str]:
        """Transactions that have received no approvals yet, sorted."""
        return sorted(self._tips)

    def is_tip(self, tx_id: str) -> bool:
        """Whether ``tx_id`` currently has no approvers."""
        return tx_id in self._tips

    # ------------------------------------------------------------ mutation
    def next_tx_id(self, issuer: int) -> str:
        """Produce a unique transaction id."""
        self._counter += 1
        return f"tx{self._counter}-c{issuer}"

    def add(self, transaction: Transaction) -> None:
        """Append a transaction whose parents already exist; its model
        becomes the arena row at its insertion position.  Raises
        ``ValueError``, changing nothing, on a duplicate id, an unknown
        parent, a model laid out unlike genesis, or a transaction
        already stored in another tangle's arena."""
        if transaction.tx_id in self._transactions:
            raise ValueError(f"duplicate transaction id {transaction.tx_id!r}")
        if not transaction.parents:
            raise ValueError("only genesis may have no parents")
        for parent in transaction.parents:
            if parent not in self._transactions:
                raise ValueError(
                    f"{transaction.tx_id!r} approves unknown parent {parent!r}"
                )
        if transaction.arena_bound:
            raise ValueError(
                f"{transaction.tx_id!r} is already stored in another tangle's arena"
            )
        self._intern(transaction)
        self._transactions[transaction.tx_id] = transaction
        self._approvers[transaction.tx_id] = []
        self._order.append(transaction.tx_id)
        for parent in transaction.parents:
            self._approvers[parent].append(transaction.tx_id)
            self._tips.discard(parent)
        self._tips.add(transaction.tx_id)

    def _intern(self, transaction: Transaction) -> None:
        """Move a transaction's model into the arena's next row
        (``ValueError`` before any row is written if the layout differs)."""
        flat = transaction.flat_vector(self._spec)
        transaction.bind_arena(self._arena, self._arena.intern(flat))

    # ---------------------------------------------------------- compaction
    def compact(
        self,
        *,
        keep_last: int | None = None,
        min_round: int | None = None,
        spill_path=None,
    ) -> CompactionReport:
        """Truncate confirmed history below a cut, in place.

        Exactly one of ``keep_last`` (keep the newest N non-genesis
        transactions) or ``min_round`` (keep every transaction from the
        first insertion position after which no round index is below
        ``min_round``) picks the cut.  Both keep an insertion-order
        *suffix* plus genesis, which is closed under approval — every
        approver of a kept transaction is newer, hence kept — so the
        kept sub-DAG's cumulative weights are untouched by the cut.

        What happens at the cut:

        - dropped transactions leave ``transactions()``/``get``; their
          ids stay burned (the publish counter never rewinds), so a
          checkpoint written after a compaction can be reloaded and
          extended without id collisions;
        - kept transactions whose parents fell below the cut re-parent
          onto genesis (duplicates collapsed, approval order kept) —
          the DAG stays rooted and walkable;
        - the old :class:`WeightArena` is drained block by block in
          insertion order (:meth:`WeightArena.drain`): a block's kept
          rows are copied into a fresh arena of the same tier (shared
          memory stays shared), its transactions rebound, and the block
          let go before the next is read — so the kept copy and the
          whole old arena are never resident together.  Dropped rows are
          written straight into the spill file when ``spill_path`` names
          one (the archive arena is returned on the report);
        - :attr:`compaction_epoch` bumps and the tangle drops its walk
          snapshot (the next :meth:`snapshot` is a cold build).  Readers
          pin what they read: a snapshot cut before the cut holds the
          old blocks its rows live in and a held :class:`Transaction`
          its row, so both keep reading bit-identical rows, and a
          drained block returns to the operating system when its last
          reader lets go.

        No-op (epoch unchanged) when nothing falls below the cut.
        """
        if (keep_last is None) == (min_round is None):
            raise ValueError(
                "exactly one of keep_last / min_round is required"
            )
        order = self._order
        if keep_last is not None:
            if keep_last < 0:
                raise ValueError(f"keep_last must be >= 0, got {keep_last}")
            cut = max(1, len(order) - keep_last)
        else:
            cut = 1
            for i in range(len(order) - 1, 0, -1):
                if self._transactions[order[i]].round_index < min_round:
                    cut = i + 1
                    break
        dropped_ids = tuple(order[1:cut])
        resident_before = self._arena.resident_nbytes
        if not dropped_ids:
            return CompactionReport(
                dropped=0,
                kept=len(self),
                epoch=self._compaction_epoch,
                resident_before=resident_before,
                resident_after=resident_before,
            )
        kept_ids = [GENESIS_ID] + order[cut:]
        kept_set = set(kept_ids)
        keep = np.ones(len(order), dtype=bool)
        keep[1:cut] = False  # kept row p lands at p - cut + 1, genesis at 0

        old_arena = self._arena
        fresh = WeightArena(self._spec, dtype=old_arena.dtype)
        if old_arena.is_shared:
            fresh.to_shared()  # kept rows go straight into new segments
        spill = spill_rows = None
        if spill_path is not None:
            spill = old_arena.spill_target(len(dropped_ids), spill_path)
            spill_rows = {tx_id: row for row, tx_id in enumerate(dropped_ids)}
        # The tangle's own snapshot pins every old block; readers that
        # captured one keep theirs.  A drained block is let go once its
        # kept transactions read the fresh arena and its dropped ones
        # are forgotten (deleted in place, which leaves the kept ones in
        # order).
        self._snapshot = None
        self._arena = fresh
        transactions = self._transactions
        for start, stop in old_arena.drain(keep, fresh, spill):
            for position in range(start, stop):
                tx_id = order[position]
                if not keep[position]:
                    del transactions[tx_id]
                    continue
                tx = transactions[tx_id]
                tx.bind_arena(fresh, max(0, position - cut + 1))
                if tx.parents:
                    remapped = tuple(
                        dict.fromkeys(
                            p if p in kept_set else GENESIS_ID for p in tx.parents
                        )
                    )
                    if remapped != tx.parents:
                        tx.parents = remapped
        approvers: dict[str, list[str]] = {t: [] for t in kept_ids}
        for tx_id in kept_ids[1:]:
            for parent in transactions[tx_id].parents:
                approvers[parent].append(tx_id)
        self._approvers = approvers
        # The oldest kept transaction always re-parents onto genesis, so
        # genesis is a tip only when it is alone.
        self._tips = {t for t in kept_ids if not approvers[t]}
        self._order = kept_ids
        self._compaction_epoch += 1
        return CompactionReport(
            dropped=len(dropped_ids),
            kept=len(kept_ids),
            epoch=self._compaction_epoch,
            resident_before=resident_before,
            resident_after=self._arena.resident_nbytes,
            dropped_ids=dropped_ids,
            spill=spill,
            spill_rows=spill_rows,
        )

    # ----------------------------------------------------------- analysis
    def future_cone(self, tx_id: str) -> set[str]:
        """All transactions that directly or indirectly approve ``tx_id``."""
        seen: set[str] = set()
        queue = deque(self._approvers[self.get(tx_id).tx_id])
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            queue.extend(self._approvers[current])
        return seen

    def past_cone(self, tx_id: str) -> set[str]:
        """All transactions ``tx_id`` directly or indirectly approves."""
        seen: set[str] = set()
        queue = deque(self.get(tx_id).parents)
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            queue.extend(self._transactions[current].parents)
        return seen

    # ------------------------------------------------------------ weights
    def cumulative_weight(self, tx_id: str) -> int:
        """Classic tangle weight: own weight plus all approving txs.

        A lookup into :meth:`snapshot`'s weight plane; equal to
        :meth:`recount_cumulative_weight` at all times (the randomized
        weight tests assert this under interleaved mutation).
        """
        return int(self.cumulative_weights([tx_id])[0])

    def cumulative_weights(self, tx_ids) -> np.ndarray:
        """Batched :meth:`cumulative_weight`: one query for many ids.

        The weighted walk's per-step path — a step's whole approver
        list is answered with one gather from the snapshot's weight
        plane (one float64 array out, no per-id method dispatch).
        Raises ``KeyError`` on unknown ids.
        """
        snapshot = self.snapshot()
        index = snapshot.index
        try:
            nodes = np.fromiter(
                (index[tx_id] for tx_id in tx_ids), dtype=np.int64, count=len(tx_ids)
            )
        except KeyError as exc:
            raise KeyError(f"unknown transaction {exc.args[0]!r}") from None
        return snapshot.cumulative_weights_float()[nodes]

    def recount_cumulative_weight(self, tx_id: str) -> int:
        """Weight via a from-scratch future-cone BFS (the legacy path).

        O(edges) per call; kept as the ground truth for index
        verification and as the baseline in the substrate benchmarks.
        """
        return 1 + len(self.future_cone(tx_id))

    def depth_from_tips(self, tx_id: str) -> int:
        """Shortest approval distance from any tip to ``tx_id`` (0 = tip)."""
        if self.is_tip(tx_id):
            return 0
        distance = {tx_id: 0}
        queue = deque([tx_id])
        while queue:
            current = queue.popleft()
            for approver in self._approvers[current]:
                if approver in distance:
                    continue
                distance[approver] = distance[current] + 1
                if approver in self._tips:
                    return distance[approver]
                queue.append(approver)
        raise RuntimeError("DAG invariant violated: no tip above a transaction")

    def approval_edges(self) -> list[tuple[Transaction, Transaction]]:
        """All (approving, approved) transaction pairs, genesis excluded."""
        edges: list[tuple[Transaction, Transaction]] = []
        for tx_id in self._order:
            tx = self._transactions[tx_id]
            for parent in tx.parents:
                parent_tx = self._transactions[parent]
                if parent_tx.is_genesis:
                    continue
                edges.append((tx, parent_tx))
        return edges
