"""Lockstep multi-walk engine: frontier-batched tip selection.

The sequential walkers (:mod:`repro.dag.random_walk`) advance one
particle at a time: every step pays a ``tangle.approvers`` list build,
a per-step accuracy lookup, and a slow ``rng.choice`` — pure Python
overhead multiplied by ``count`` particles per selection and by every
active client per round.  This module runs **all particles of a
selection in lockstep** over an immutable array snapshot of the visible
tangle:

- :class:`TangleSnapshot` flattens a tangle (or any visibility view)
  into CSR adjacency over dense int node ids: approver lists, parent
  lists, the tip set, and (lazily) cumulative weights, the CSR as
  Python lists for scalar stepping, and every node's row in its
  tangle's weight arena (:attr:`TangleSnapshot.arena_rows`, what the
  accuracy walk scores by).  Each tangle
  owns **one** whole-tangle snapshot
  (:meth:`repro.dag.tangle.Tangle.snapshot`); when the tangle merely
  *grows*, :meth:`TangleSnapshot.extend` derives the new snapshot from
  the current one in O(delta) — CSR rows appended, parent paddings and
  longest paths patched, bitset weights extended by delta columns —
  bit-identical to a cold rebuild, so at 10^5+ transactions
  per-publish maintenance cost stays flat instead of replaying the
  whole history (see ``docs/scaling.md``).  A view's snapshot is that
  snapshot **restricted** by the view's boolean row mask
  (:meth:`TangleSnapshot.restrict`): a handful of vector ops, equal to
  a cold build of the view.
- :func:`batched_walk_starts` vectorizes the Popov depth descent: all
  tip draws, all depths, then one gather per descent level (a handful
  of particles walk the cached parent lists on scalars instead).
- :func:`lockstep_walks` advances every live particle one superstep at
  a time: the union of all live particles' candidate frontiers is
  scored in **one** batch call (this is what widens the fused
  ``Classifier.accuracy_many`` batches beyond a single particle's
  approver list), candidate scores are normalized segment-wise with the
  exact arithmetic of :func:`repro.dag.tip_selection.normalize_standard`
  / ``normalize_dynamic``, and every particle's next node is sampled in
  one shot by segment-wise **Gumbel-max** over ``alpha * normalized``
  logits — which draws from precisely the softmax distribution
  ``exp(alpha * normalized) / sum`` the sequential walker feeds to
  ``rng.choice``.  Two steppers run a superstep, chosen by the size of
  its frontier block (particles x widest candidate list): a narrow
  block — the two-particle selections of the round simulator — steps
  on Python scalars over the snapshot's CSR lists, a wide one — a
  genesis fan of hundreds of approvers — over a padded numpy block.  Both apply the same two draw laws bit for bit.

RNG discipline: the engine consumes the *same generator* the sequential
walker would, but draws different variates (uniform blocks for starts,
one Gumbel block per superstep instead of one ``rng.choice`` per
particle-step), so individual selections differ for a fixed seed while
the **distribution** over tips is identical — the property tests pin
both the per-superstep normalization bit-for-bit and the tip
distribution statistically.  Which variates a superstep draws is set by
its law alone — the **block law** (two or more live particles: one
``(L, kmax)`` exponential block, logits ``alpha * s`` under the standard
normalization) or the **tail law** (the last particle: ``k``
exponentials per step, logits ``alpha * (s - max)``) — never by the
stepper, so the property tests pin both steppers to one reference law.
Runs stay deterministic for a fixed seed, and serial/parallel executors
stay bit-identical to each other because both run the same engine
against the same keyed streams.

Edge semantics: the snapshot keeps exactly the edges whose **both**
endpoints are visible, matching ``view.approvers`` — and matching the
sequential start sampler, which filters its descent to visible parents
for the same reason (on a delay-bounded view a transaction can
propagate before its parent; the issuer exemption makes that reachable
under the event engine's timed views).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "TangleSnapshot",
    "snapshot_for",
    "batched_walk_starts",
    "padded_normalize",
    "lockstep_walks",
    "WalkDeadlineExceeded",
]

ScoreFn = Callable[[np.ndarray], np.ndarray]


class WalkDeadlineExceeded(RuntimeError):
    """A lockstep walk ran out of its deadline budget mid-flight.

    Raised by :func:`lockstep_walks` (and :func:`batched_walk_starts`)
    when the ``deadline`` object passed in reports ``expired`` at a
    superstep boundary.  The walk's partial state is discarded — callers
    that must answer anyway (the service's degradation ladder) catch
    this and fall back to a cheaper selection mode.  The check never
    consumes the random generator, so a walk given a deadline that does
    not fire draws exactly the stream it would have drawn without one.
    """


def _pad_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    counts: np.ndarray,
    width: int | None = None,
) -> np.ndarray:
    """Dense ``(N, width)`` matrix of CSR rows, padded by repeating each
    row's first entry (0 for empty rows).

    The repeat-first padding keeps every lane a *real* entry, so lookups
    on padding lanes stay well-defined; the descent never draws one
    (parent column draws are ``floor(u * count) < count``), and the
    lockstep walk pads its CSR-gathered frontier blocks the same way.

    ``width`` defaults to ``max(counts)``; :meth:`TangleSnapshot.extend`
    passes it explicitly when padding a delta slice to the base
    matrix's lane count.  Fully vectorized: one fill from each row's
    first entry, one scatter of the real entries.
    """
    n = len(counts)
    if width is None:
        width = max(1, int(counts.max(initial=0)))
    first = np.zeros(n, dtype=np.int64)
    nonempty = counts > 0
    first[nonempty] = indices[indptr[:-1][nonempty]]
    padded = np.repeat(first, width).reshape(n, width)
    if len(indices):
        rows = np.repeat(np.arange(n), counts)
        cols = np.arange(len(indices)) - np.repeat(indptr[:-1], counts)
        padded[rows, cols] = indices
    return padded


def _popcount_rows(masks: np.ndarray) -> np.ndarray:
    """Per-row set-bit count of a uint64 bitset matrix."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(masks).sum(axis=1, dtype=np.int64)
    return np.unpackbits(
        masks.view(np.uint8), axis=1
    ).sum(axis=1, dtype=np.int64)


class TangleSnapshot:
    """CSR adjacency of a tangle's visible sub-DAG over int node ids.

    Node ids are positions in insertion (topological) order of the
    visible transactions — parents always have a *smaller* id than the
    transactions approving them.  ``ids[node]`` recovers the transaction
    id; ``index[tx_id]`` the node.  A snapshot's arrays never change
    once built: build it from a frozen view and reuse it for every walk
    of the epoch.  Only whole-tangle snapshots grow: when the tangle
    does, :meth:`extend` produces the *next* snapshot as a delta on
    this one (append-only growth keeps node ids stable), so a
    long-running tangle pays O(new transactions) per publish epoch
    rather than O(history) — the delta protocol ``docs/scaling.md``
    specifies.  A view's snapshot is the whole-tangle one restricted by
    the view's row mask (:meth:`restrict`).
    """

    def __init__(
        self,
        ids: list[str],
        parent_lists: list[list[int]],
        approver_lists: list[list[int]],
    ):
        n = len(ids)

        def to_csr(lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
            counts = np.fromiter(
                (len(adjacency) for adjacency in lists), dtype=np.int64, count=n
            )
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            indices = np.fromiter(
                (i for adjacency in lists for i in adjacency),
                dtype=np.int64,
                count=int(indptr[-1]),
            )
            return indptr, indices

        self._adopt(
            ids,
            {tx_id: node for node, tx_id in enumerate(ids)},
            *to_csr(parent_lists),
            *to_csr(approver_lists),
        )

    def _adopt(
        self,
        ids: list[str],
        index: dict[str, int],
        parent_indptr: np.ndarray,
        parent_indices: np.ndarray,
        approver_indptr: np.ndarray,
        approver_indices: np.ndarray,
        arena_rows: tuple | None = None,
    ) -> None:
        """Set every field from the two CSR adjacencies and the arena
        rows, lazy planes unmaterialized."""
        self.ids = ids
        self._locate(arena_rows)
        self.index = index
        self.parent_indptr, self.parent_indices = parent_indptr, parent_indices
        self.approver_indptr, self.approver_indices = (
            approver_indptr,
            approver_indices,
        )
        self.parent_counts = np.diff(parent_indptr)
        self.approver_counts = np.diff(approver_indptr)
        self.max_approvers = int(self.approver_counts.max(initial=0))
        # Shared arange scratch: supersteps slice prefixes instead of
        # re-allocating one arange per reduction.
        self._column_range = np.arange(max(1, self.max_approvers))
        self._parents_padded: np.ndarray | None = None
        # Parentless nodes (genesis; plus orphans on views whose parents
        # are invisible): where depth descents terminate early.
        self.sink_nodes = np.flatnonzero(self.parent_counts == 0)
        self._longest_past_path: np.ndarray | None = None
        self._cumulative: np.ndarray | None = None
        self._cumulative_float: np.ndarray | None = None
        # Tips: visible nodes with no visible approver, in the sorted-id
        # order tangle.tips() / view.tips() produce.
        tip_nodes = np.flatnonzero(self.approver_counts == 0)
        self.tip_nodes = np.array(
            sorted(tip_nodes.tolist(), key=ids.__getitem__), dtype=np.int64
        )
        # Memoized restrictions, keyed by the packed mask bytes.
        self._restrictions: dict[bytes, TangleSnapshot] = {}
        self._parent_lists: tuple[list[int], list[int]] | None = None
        self._approver_lists: tuple[list[int], list[int]] | None = None

    def _locate(self, arena_rows: tuple | None) -> None:
        """Record ``(arena, rows)`` — the tangle's arena and each node's
        row in it, or ``None`` off a tangle — and pin the arena blocks
        those rows live in (:meth:`~repro.dag.arena.WeightArena.pin`)."""
        self._arena_rows = arena_rows
        self._arena_pin = None if arena_rows is None else arena_rows[0].pin()

    @property
    def arena_rows(self) -> tuple | None:
        """``(arena, rows)``: each node's row in its tangle's weight
        arena, or ``None`` off a tangle.

        The arena is the tangle's own while it still holds the blocks
        this snapshot pinned.  Rows move only under compaction, which
        drains those blocks out of it; from then on the arena is a
        read-only one over the pinned blocks, so a walk in flight
        across the cut scores the very rows it was cut over.
        """
        located = self._arena_rows
        if located is not None:
            arena = located[0].pinned(self._arena_pin)
            if arena is not located[0]:
                located = self._arena_rows = (arena, located[1])
        return located

    def __getstate__(self) -> dict:
        """Pickle the arena, not the pinned blocks: the arena ships its
        rows (or a handle to them), and is pinned again on load."""
        state = self.__dict__.copy()
        del state["_arena_pin"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._locate(self._arena_rows)

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def build(cls, view) -> "TangleSnapshot":
        """Snapshot ``view`` (a :class:`~repro.dag.tangle.Tangle` or any
        visibility view).

        One pass over ``view.transactions()``: an edge is kept iff both
        endpoints are visible, which reproduces ``view.approvers``
        exactly (on a raw tangle every edge is kept).  A tangle — the
        one kind of view with an ``arena`` — stores node ``i``'s model
        in arena row ``i``, so its snapshot carries
        :attr:`arena_rows`; any other view's has none.
        """
        transactions = view.transactions()
        ids = [tx.tx_id for tx in transactions]
        index = {tx_id: node for node, tx_id in enumerate(ids)}
        parent_lists: list[list[int]] = [[] for _ in ids]
        approver_lists: list[list[int]] = [[] for _ in ids]
        for node, tx in enumerate(transactions):
            for parent in tx.parents:
                parent_node = index.get(parent)
                if parent_node is None:  # parent not visible in this view
                    continue
                parent_lists[node].append(parent_node)
                approver_lists[parent_node].append(node)
        snapshot = cls(ids, parent_lists, approver_lists)
        arena = getattr(view, "arena", None)
        if arena is not None:
            snapshot._locate((arena, np.arange(len(ids), dtype=np.int64)))
        return snapshot

    def extend(self, tangle) -> "TangleSnapshot":
        """A snapshot of ``tangle`` built as a delta on top of this one.

        The O(history) work of :meth:`build` — the Python pass over
        every transaction and its edges — shrinks to O(delta): only
        transactions the tangle gained since this snapshot was cut are
        scanned; everything else is appended or patched at C speed (CSR
        row append, parent-matrix row stack, and a delta-width bitset
        pass for materialized cumulative weights).  The result is
        **bit-identical** to a cold ``build(tangle)``: same arrays, same
        walk distributions, same Gumbel stream consumption, same
        ``evaluation_counter`` calls — the scale benchmark and the
        extension tests pin this.

        ``tangle`` must be the tangle this snapshot was cut from, grown
        in place since (no compaction in between) — the condition under
        which its node ids extend this snapshot's.
        :meth:`repro.dag.tangle.Tangle.snapshot`, the one caller that
        maintains a snapshot, guarantees it by clearing its snapshot on
        compaction.  Returns a *new* snapshot when the tangle grew
        (callers key memos by snapshot identity) and ``self`` when it
        did not.
        """
        delta = tangle.transactions_since(len(self.ids))
        if not delta:
            return self

        n0 = len(self.ids)
        d = len(delta)
        n = n0 + d
        delta_ids = [tx.tx_id for tx in delta]
        ids = self.ids + delta_ids
        index = dict(self.index)
        parent_rows: list[list[int]] = []
        edge_parents: list[int] = []
        edge_children: list[int] = []
        for offset, tx in enumerate(delta):
            node = n0 + offset
            index[tx.tx_id] = node
            row = [index[parent] for parent in tx.parents]
            edge_parents.extend(row)
            edge_children.extend([node] * len(row))
            parent_rows.append(row)

        delta_counts = np.fromiter(
            (len(row) for row in parent_rows), dtype=np.int64, count=d
        )
        flat_parents = np.fromiter(
            (p for row in parent_rows for p in row),
            dtype=np.int64,
            count=int(delta_counts.sum()),
        )
        parent_counts = np.concatenate([self.parent_counts, delta_counts])
        parent_indptr = np.concatenate(
            [
                self.parent_indptr,
                self.parent_indptr[-1] + np.cumsum(delta_counts),
            ]
        )
        parent_indices = np.concatenate([self.parent_indices, flat_parents])

        eparents = np.asarray(edge_parents, dtype=np.int64)
        echildren = np.asarray(edge_children, dtype=np.int64)
        base_acounts = np.concatenate(
            [self.approver_counts, np.zeros(d, dtype=np.int64)]
        )
        if eparents.size:
            approver_counts = base_acounts + np.bincount(
                eparents, minlength=n
            ).astype(np.int64)
        else:
            approver_counts = base_acounts
        approver_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(approver_counts, out=approver_indptr[1:])
        edges0 = int(self.approver_indptr[-1])
        approver_indices = np.empty(edges0 + eparents.size, dtype=np.int64)
        if edges0:
            # Relocate every existing entry in one scatter: an entry in
            # row i shifts by however much the rows before i grew.
            row_of = np.repeat(np.arange(n0), self.approver_counts)
            shift = (approver_indptr[:n0] - self.approver_indptr[:n0])[row_of]
            approver_indices[np.arange(edges0) + shift] = self.approver_indices
        if eparents.size:
            # Group the new edges by parent, preserving child insertion
            # order within each group (stable sort + within-group rank),
            # and place them after the parent's existing approvers —
            # exactly the order a cold build appends them in.
            order = np.argsort(eparents, kind="stable")
            sorted_parents = eparents[order]
            rank = np.arange(sorted_parents.size) - np.searchsorted(
                sorted_parents, sorted_parents, side="left"
            )
            pos = (
                approver_indptr[sorted_parents]
                + base_acounts[sorted_parents]
                + rank
            )
            approver_indices[pos] = echildren[order]

        ext = object.__new__(TangleSnapshot)
        ext._adopt(
            ids,
            index,
            parent_indptr,
            parent_indices,
            approver_indptr,
            approver_indices,
            (tangle.arena, np.arange(n, dtype=np.int64)),
        )

        # Patch the lazily materialized planes only if the base paid for
        # them; otherwise stay lazy (the next reader rebuilds vectorized).
        if self._parents_padded is not None:
            width = self._parents_padded.shape[1]
            if max(1, int(parent_counts.max(initial=0))) == width:
                delta_indptr = np.zeros(d + 1, dtype=np.int64)
                np.cumsum(delta_counts, out=delta_indptr[1:])
                ext._parents_padded = np.vstack(
                    [
                        self._parents_padded,
                        _pad_csr(
                            delta_indptr, flat_parents, delta_counts, width=width
                        ),
                    ]
                )
            else:
                ext._parents_padded = _pad_csr(
                    parent_indptr, parent_indices, parent_counts
                )
        if self._longest_past_path is not None:
            longest = np.empty(n, dtype=np.int64)
            longest[:n0] = self._longest_past_path
            for offset, row in enumerate(parent_rows):
                longest[n0 + offset] = (
                    1 + int(longest[row].max()) if row else 0
                )
            ext._longest_past_path = longest

        if self._cumulative is not None:
            # Delta bitset pass: track, per node, which of the d new
            # nodes its future cone contains — O(N * d / 64) words
            # instead of the cold pass's O(N^2 / 64).  Old nodes gain
            # the popcount; new nodes are 1 + their cone's popcount.
            words = max(1, (d + 63) // 64)
            masks = np.zeros((n, words), dtype=np.uint64)
            one = np.uint64(1)
            for node in range(n - 1, -1, -1):
                begin, end = approver_indptr[node], approver_indptr[node + 1]
                if begin == end:
                    continue
                row = masks[node]
                for a in approver_indices[begin:end]:
                    row |= masks[a]
                    if a >= n0:
                        b = int(a) - n0
                        row[b >> 6] |= one << np.uint64(b & 63)
            gained = _popcount_rows(masks)
            cumulative = np.empty(n, dtype=np.int64)
            cumulative[:n0] = self._cumulative + gained[:n0]
            cumulative[n0:] = 1 + gained[n0:]
            ext._cumulative = cumulative
        return ext

    def restrict(self, mask: np.ndarray) -> "TangleSnapshot":
        """The snapshot of the sub-DAG on the nodes ``mask`` keeps.

        Equal to a cold :meth:`build` of any view that sees exactly
        those transactions — same ids, CSR rows, tips and sinks, hence
        the same lazy planes and the same walks — but computed from
        this snapshot's arrays in a handful of vector ops: kept nodes
        renumber by a running count, an edge survives iff both its
        endpoints do, and filtering each CSR in place keeps a cold
        build's parent order and child-ascending approver order.

        A mask that hides nothing returns ``self``.  Restrictions are
        memoized by mask content: every view that sees the same set
        shares one snapshot and its lazily materialized planes.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self.ids),):
            raise ValueError(
                f"mask must have shape ({len(self.ids)},), got {mask.shape}"
            )
        if mask.all():
            return self
        key = np.packbits(mask).tobytes()
        cached = self._restrictions.pop(key, None)
        if cached is not None:
            self._restrictions[key] = cached  # most recently used last
            return cached
        kept = np.flatnonzero(mask)
        renumber = np.cumsum(mask) - 1

        def kept_csr(indptr, indices) -> tuple[np.ndarray, np.ndarray]:
            rows = np.repeat(np.arange(len(mask)), np.diff(indptr))
            keep = mask[rows] & mask[indices]
            kept_indptr = np.zeros(kept.size + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(renumber[rows[keep]], minlength=kept.size),
                out=kept_indptr[1:],
            )
            return kept_indptr, renumber[indices[keep]]

        ids = [self.ids[node] for node in kept.tolist()]
        snapshot = object.__new__(TangleSnapshot)
        snapshot._adopt(
            ids,
            {tx_id: node for node, tx_id in enumerate(ids)},
            *kept_csr(self.parent_indptr, self.parent_indices),
            *kept_csr(self.approver_indptr, self.approver_indices),
            None
            if self.arena_rows is None
            else (self.arena_rows[0], self.arena_rows[1][kept]),
        )
        # A kept node that keeps all its parents keeps its whole past
        # cone once every kept node does (the usual, parent-closed
        # mask) — and with it its longest past path, which extend keeps
        # current on this snapshot.  Orphaning masks stay lazy.
        if np.array_equal(snapshot.parent_counts, self.parent_counts[kept]):
            snapshot._longest_past_path = self.longest_past_path()[kept]
        if len(self._restrictions) >= _RESTRICTION_LIMIT:
            self._restrictions.pop(next(iter(self._restrictions)))
        self._restrictions[key] = snapshot
        return snapshot

    def cumulative_weights_float(self) -> np.ndarray:
        """:meth:`cumulative_weights` as float64, cached — a complete,
        hole-free score table the weighted walk passes straight in as
        its memo (shared across every selection of the epoch; the
        engine never writes to a memo without NaN holes)."""
        if self._cumulative_float is None:
            self._cumulative_float = self.cumulative_weights().astype(np.float64)
        return self._cumulative_float

    def parents_padded(self) -> np.ndarray:
        """``(N, max_parents)`` padded parent matrix (:func:`_pad_csr`).

        Parent degree is tiny (``num_tips``, usually 2), so a dense
        padded matrix turns one descent level into a single 2-D gather.
        Genesis-like rows (no parents) self-pad with node 0; the
        descent mask stops those particles before the value is used.
        """
        if self._parents_padded is None:
            self._parents_padded = _pad_csr(
                self.parent_indptr, self.parent_indices, self.parent_counts
            )
        return self._parents_padded

    def parent_lists(self) -> tuple[list[int], list[int]]:
        """The parent CSR ``(indptr, indices)`` as Python lists, cached.

        What a small descent steps on: a list index costs a fraction of
        a numpy scalar read, and converting the CSR is one C-speed pass.
        """
        if self._parent_lists is None:
            self._parent_lists = (
                self.parent_indptr.tolist(),
                self.parent_indices.tolist(),
            )
        return self._parent_lists

    def approver_lists(self) -> tuple[list[int], list[int]]:
        """The approver CSR ``(indptr, indices)`` as Python lists, cached
        — what :func:`lockstep_walks` reads frontiers from."""
        if self._approver_lists is None:
            self._approver_lists = (
                self.approver_indptr.tolist(),
                self.approver_indices.tolist(),
            )
        return self._approver_lists

    def longest_past_path(self) -> np.ndarray:
        """Longest parent-path length from each node to a parentless one.

        One topological pass (parents precede children in node order).
        A depth budget of at least this many steps is guaranteed to
        bottom out regardless of which parents the descent draws —
        :func:`batched_walk_starts` uses it to resolve deep descents
        without stepping them.
        """
        if self._longest_past_path is None:
            n = len(self.ids)
            longest = np.zeros(n, dtype=np.int64)
            indptr, indices = self.parent_indptr, self.parent_indices
            for node in range(n):
                row = indices[indptr[node] : indptr[node + 1]]
                if row.size:
                    longest[node] = 1 + longest[row].max()
            self._longest_past_path = longest
        return self._longest_past_path

    def cumulative_weights(self) -> np.ndarray:
        """Visible cumulative weight (1 + visible future cone) per node.

        Materialized once by a reverse-topological bitset pass,
        ``future(i) = union over approvers a of (future(a) | {a})``,
        O(N^2 / 64) words of work; after that :meth:`extend` keeps the
        plane current with a delta-width pass, so a tangle whose
        weights are queried every epoch pays O(N * delta / 64) words
        per epoch.  The values equal ``view.cumulative_weight(id)`` for
        every visible id; the tests pin that.
        """
        if self._cumulative is None:
            n = len(self.ids)
            words = max(1, (n + 63) // 64)
            masks = np.zeros((n, words), dtype=np.uint64)
            indptr, indices = self.approver_indptr, self.approver_indices
            one = np.uint64(1)
            # Approvers have larger node ids, so a reverse sweep sees
            # every approver's mask completed before it is consumed.
            for node in range(n - 1, -1, -1):
                row = masks[node]
                for a in indices[indptr[node] : indptr[node + 1]]:
                    row |= masks[a]
                    row[a >> 6] |= one << np.uint64(a & 63)
            self._cumulative = 1 + _popcount_rows(masks)
        return self._cumulative


#: Restrictions memoized per whole-tangle snapshot, least recently used
#: evicted first: a batch's shared mask stays hot between one-off masks,
#: and each entry holds its own CSR and materialized planes.
_RESTRICTION_LIMIT = 2


def snapshot_for(view) -> TangleSnapshot:
    """The snapshot walks over ``view`` run on.

    A :class:`~repro.dag.tangle.Tangle` is served its own whole-tangle
    snapshot (:meth:`~repro.dag.tangle.Tangle.snapshot`): the same
    object for every walk of a publish epoch, an O(delta)
    :meth:`TangleSnapshot.extend` once the tangle grew (bit-identical to
    a rebuild), and a cold :meth:`TangleSnapshot.build` only on first
    use or after a compaction.

    A view that exposes ``tangle`` and ``mask(snapshot)`` (both
    :mod:`repro.dag.view` classes) gets that snapshot restricted by its
    row mask (:meth:`TangleSnapshot.restrict`).  The mask is computed
    from the view's visibility *content* each time — nothing is keyed by
    the identity of a view or of its visibility maps, so no view can be
    served another's snapshot.  Any other view is built cold.
    """
    if hasattr(view, "mask"):
        full = view.tangle.snapshot()
        return full.restrict(view.mask(full))
    if hasattr(view, "snapshot"):
        return view.snapshot()
    return TangleSnapshot.build(view)


# ------------------------------------------------------------ walk starts
def batched_walk_starts(
    snapshot: TangleSnapshot,
    count: int,
    rng: np.random.Generator,
    *,
    depth_range: tuple[int, int] = (15, 25),
    deadline=None,
) -> np.ndarray:
    """``count`` walk starting nodes, the Popov descent vectorized.

    Distributionally identical to ``count`` calls of
    :func:`repro.dag.random_walk.sample_walk_start`: a uniform tip, a
    uniform depth in ``depth_range``, then uniform parent choices,
    stopping early at genesis — but drawn in blocks (all tips, all
    depths, then one vectorized parent choice per descent level).

    ``deadline`` (any object with an ``expired`` attribute) is checked
    once on entry — the descent itself is a handful of vector ops — and
    raises :class:`WalkDeadlineExceeded` when already blown.
    """
    low, high = depth_range
    if low < 0 or high < low:
        raise ValueError(f"invalid depth range {depth_range}")
    if deadline is not None and deadline.expired:
        raise WalkDeadlineExceeded("deadline expired before walk starts")
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    tips = snapshot.tip_nodes
    current = tips[rng.integers(0, len(tips), size=count)]
    depths = rng.integers(low, high + 1, size=count)
    parent_counts = snapshot.parent_counts
    max_depth = int(depths.max(initial=0))
    if max_depth == 0 or len(snapshot) == 1:
        return current
    # One uniform block for every potential (level, particle) choice:
    # floor(u * k) is exactly a uniform draw over k parents, so the
    # descent distribution matches the per-step sampler's.  The loop
    # works full-width with masks (no index-list rebuild per level);
    # finished particles keep their node through the ``where``.
    # A particle whose depth budget covers the longest possible path
    # below its tip bottoms out whatever parents it draws; with a single
    # sink (every proper tangle: genesis) its endpoint is known without
    # stepping.  Only the undecided particles pay for descent levels.
    if snapshot.sink_nodes.size == 1:
        sink = snapshot.sink_nodes[0]
        resolved = depths >= snapshot.longest_past_path()[current]
        if resolved.all():
            return np.full(count, sink, dtype=np.int64)
        current = np.where(resolved, sink, current)
    if count <= 4:
        # A handful of particles cannot amortize full-width vector ops
        # across ~20 descent levels; scalar CSR walking over the cached
        # parent lists is cheaper and draws from the identical
        # distribution.
        indptr, indices = snapshot.parent_lists()
        uniforms = iter(rng.random(int(depths.sum())).tolist())
        nodes = current.tolist()
        for particle, depth in enumerate(depths.tolist()):
            node = nodes[particle]
            for _ in range(depth):
                begin = indptr[node]
                k = indptr[node + 1] - begin
                if k == 0:
                    break
                node = indices[begin + int(next(uniforms) * k)]
            nodes[particle] = node
        return np.array(nodes, dtype=np.int64)
    uniforms = rng.random((max_depth, count))
    parents = snapshot.parents_padded()
    k = parent_counts[current]
    for level in range(max_depth):
        descending = (depths > level) & (k > 0)
        if not descending.any():
            break
        picks = (uniforms[level] * k).astype(np.int64)
        current = np.where(descending, parents[current, picks], current)
        k = parent_counts[current]
    return current


# --------------------------------------------------------------- stepping
def padded_normalize(
    scores: np.ndarray, valid: np.ndarray, normalization: str
) -> np.ndarray:
    """Row-wise Eq. 1 / Eq. 3 normalization over a padded ``(L, K)`` block.

    ``valid`` masks each row's real candidates (a row's first
    ``count_i`` columns); padding cells may hold anything, including
    NaN, and their outputs are unspecified — callers mask them out
    before sampling.  On the valid cells the elementwise arithmetic is
    exactly that of :func:`~repro.dag.tip_selection.normalize_standard`
    / :func:`~repro.dag.tip_selection.normalize_dynamic` applied to
    each row (subtract the row max; for ``"dynamic"`` divide by the row
    spread, falling back to the shift alone at zero spread), so the
    result is bit-identical per candidate.
    """
    row_max = np.where(valid, scores, -np.inf).max(axis=1, keepdims=True)
    shifted = scores - row_max
    if normalization == "standard":
        return shifted
    if normalization != "dynamic":
        raise ValueError(f"unknown normalization {normalization!r}")
    row_min = np.where(valid, scores, np.inf).min(axis=1, keepdims=True)
    spread = row_max - row_min
    positive = spread > 0
    return np.where(positive, shifted / np.where(positive, spread, 1.0), shifted)


#: Frontier blocks of at most this many cells (live particles x widest
#: candidate list) step on Python scalars, wider ones vectorized.  Set
#: from the crossover ``benchmarks/test_walk_engine_perf.py`` measures
#: and records in ``BENCH_walk_engine.json`` (``stepper_crossover``):
#: 64 cells for one particle, 32-48 for two, 48-96 for four and 32 for
#: eight over repeated runs on a 2-core x86 box — so the smallest of
#: them, below which scalars win at every particle count.
_SCALAR_BLOCK_CELLS = 32

_NEG_INF = float("-inf")


def _fill_score_memo(
    score_memo: np.ndarray,
    missing: np.ndarray,
    score_fn: ScoreFn,
    known: np.ndarray,
) -> None:
    """Score ``missing`` — distinct, ascending, not yet scored nodes —
    into the memo with one ``score_fn`` call.

    ``known`` is the explicit scored-mask: filled nodes are marked known
    *even when the score itself is NaN*, so a score function that
    returns NaN for a node (a corrupted model, a failed evaluation) is
    asked once per call instead of being mistaken for a miss forever."""
    fresh = np.asarray(score_fn(missing), dtype=np.float64)
    if fresh.shape != missing.shape:
        raise ValueError(
            f"score_fn returned shape {fresh.shape} for {missing.shape[0]} nodes"
        )
    score_memo[missing] = fresh
    known[missing] = True


def _gumbel_argmax(scores, noise, alpha, dynamic, shift) -> int:
    """``argmax(logit - noise)`` over one candidate row, on Python floats.

    Cell for cell the arithmetic of :func:`_vector_superstep` (and so
    the same pick): a finite score ``s`` gets ``alpha * ((s - top) /
    spread)`` — ``top`` the row max of the finite scores under ``shift``
    (else 0.0), ``spread`` their positive spread under ``dynamic`` (else
    1.0; subtracting 0.0 and dividing by 1.0 are exact) — a non-finite
    one ``-inf``, and a row with no finite score all ``0.0``.  Ties keep
    the first index and the first NaN wins, as in ``np.argmax``.
    """
    finite = [s for s in scores if s - s == 0.0]
    top, spread, corrupt = 0.0, 1.0, _NEG_INF
    if not finite:
        corrupt = 0.0
    elif shift:
        top = max(finite)
        if dynamic and top - min(finite) > 0:
            spread = top - min(finite)
    best = best_z = None
    for j, s in enumerate(scores):
        z = (alpha * ((s - top) / spread) if s - s == 0.0 else corrupt) - noise[j]
        if z != z:
            return j
        if best is None or z > best_z:
            best, best_z = j, z
    return best


def _scalar_superstep(
    rows, kmax, score_memo, known, memo_may_miss, score_fn, rng, alpha,
    dynamic, tail,
) -> list[int]:
    """One superstep on Python scalars; ``rows`` are the live particles'
    candidate lists and ``kmax > 1``.

    Reads the memo with one gather: a node never scored reads NaN (the
    memo's entry convention), so only a NaN sends the step to the
    scored-mask.  Draws one ``(L, kmax)`` exponential block — for a lone
    particle exactly the tail law's ``k`` variates — and takes one
    ``np.log`` of it.
    """
    block = [node for row in rows for node in row]
    scores = score_memo[block].tolist()
    if memo_may_miss and any(s != s for s in scores):
        flags = known[block].tolist()
        missing = sorted({node for node, flag in zip(block, flags) if not flag})
        if missing:
            _fill_score_memo(
                score_memo, np.array(missing, dtype=np.int64), score_fn, known
            )
            scores = score_memo[block].tolist()
    noise = np.log(rng.standard_exponential((len(rows), kmax))).tolist()
    shift = dynamic or tail
    chosen = []
    offset = 0
    for row, row_noise in zip(rows, noise):
        count = len(row)
        if count == 1:
            chosen.append(row[0])
        else:
            scored = scores[offset : offset + count]
            chosen.append(row[_gumbel_argmax(scored, row_noise, alpha, dynamic, shift)])
        offset += count
    return chosen


def _vector_superstep(
    snapshot, nodes, counts, kmax, score_memo, known, memo_may_miss,
    score_fn, rng, alpha, normalization, tail,
) -> list[int]:
    """One superstep over a padded ``(L, kmax)`` frontier block, ``kmax > 1``.

    Row ``i``'s first ``counts[i]`` lanes are its candidates, gathered
    straight from the approver CSR; the rest repeat its first, and the
    valid mask keeps that padding out of every reduction and sample.
    """
    nodes = np.array(nodes, dtype=np.int64)
    counts = np.array(counts, dtype=np.int64)
    columns = snapshot._column_range[:kmax]
    valid = columns < counts[:, None]
    lanes = np.where(valid, columns, 0)
    candidates = snapshot.approver_indices[
        snapshot.approver_indptr[nodes][:, None] + lanes
    ]
    scores = score_memo[candidates]
    if memo_may_miss:
        unknown = ~known[candidates] & valid
        if unknown.any():
            _fill_score_memo(
                score_memo, np.unique(candidates[unknown]), score_fn, known
            )
            scores = score_memo[candidates]
    # Gumbel-max per row: argmax(logit - log E), E ~ Exp(1), draws from
    # softmax(logit) — one block of exponentials per superstep replaces
    # one rng.choice per particle.  Softmax is invariant to per-row
    # constant shifts, so under the block law the standard (Eq. 1)
    # subtract-the-max never has to be materialized: alpha * score is
    # the same logit up to a row constant.  The tail law and dynamic
    # (Eq. 3) pay for the masked reductions, via padded_normalize.
    bad = ~np.isfinite(scores) & valid
    any_bad = bool(bad.any())
    if normalization == "standard" and not tail:
        logits = alpha * scores
    else:
        # Exclude non-finite candidates from the row reductions so one
        # corrupt score cannot poison its whole row's max/spread.
        norm_valid = valid & ~bad if any_bad else valid
        logits = alpha * padded_normalize(scores, norm_valid, normalization)
    if any_bad:
        # Corrupted candidates never attract the walk; a row with *no*
        # finite candidate degrades to a uniform pick among its
        # (corrupt) candidates instead of letting NaN win the argmax.
        # The exponential block keeps its shape either way, so the rng
        # stream position is independent of corruption.
        logits = np.where(bad, -np.inf, logits)
        alive = (valid & ~bad).any(axis=1)
        if not alive.all():
            logits = np.where(~alive[:, None] & valid, 0.0, logits)
    z = logits - np.log(rng.standard_exponential(valid.shape))
    picks = np.where(valid, z, -np.inf).argmax(axis=1)
    return candidates[np.arange(len(nodes)), picks].tolist()


def lockstep_walks(
    snapshot: TangleSnapshot,
    starts: Sequence[int] | np.ndarray,
    score_fn: ScoreFn,
    *,
    alpha: float,
    normalization: str = "standard",
    rng: np.random.Generator,
    evaluation_counter: Callable[[int], None] | None = None,
    score_memo: np.ndarray | None = None,
    trace: list | None = None,
    deadline=None,
) -> np.ndarray:
    """Walk every particle from its start to a tip, one superstep at a time.

    Per superstep, over the particles not yet on a tip:

    1. gather each one's candidate frontier from the approver CSR;
    2. score the **unique not-yet-scored** candidates with one
       ``score_fn`` call — the widest evaluation batch the walk plane
       has (candidates of every live particle, deduplicated against
       everything already scored);
    3. normalize scores row-wise with the sequential walker's exact
       arithmetic (:func:`padded_normalize`);
    4. sample each particle's next node by segment-wise Gumbel-max over
       ``alpha * normalized`` — equivalent to an independent
       ``rng.choice`` per particle with probabilities
       ``exp(alpha * normalized) / sum``.

    Two draw laws: while two or more particles are live (or a ``trace``
    is kept), each superstep draws one ``(L, kmax)`` exponential block
    and uses ``alpha * score`` as the standard logit (the **block
    law**); once one particle is left it draws ``k`` exponentials per
    step and uses ``alpha * (score - max)`` (the **tail law**).  Either
    way a step with a single candidate draws nothing.  Two steppers
    implement both laws bit for bit: a superstep whose frontier block
    has at most ``_SCALAR_BLOCK_CELLS`` cells steps on Python scalars
    over the snapshot's cached CSR lists (:meth:`TangleSnapshot.
    approver_lists`); a wider one runs vectorized over a padded block.
    The stepper is picked per superstep and never changes a draw.

    ``evaluation_counter`` preserves the sequential accounting exactly:
    it is called once per *live particle* per superstep with that
    particle's candidate count (never the deduplicated union size), so
    Figure 15's evaluations-per-walk measure is unchanged by batching.

    ``score_memo`` is an optional ``len(snapshot)``-sized float64 array
    with NaN marking not-yet-scored nodes; scores are filled in as the
    walk discovers nodes.  A caller passes the scores it already holds
    — the weighted walk its complete table of cumulative weights, the
    accuracy walk what its ``cached`` mapping knows — so the walk calls
    ``score_fn`` only for the other nodes.  Omitted, a fresh memo
    dedups within the call.  NaN marks "not yet scored" only at entry: a
    node once filled stays known even if its score *is* NaN, so a
    corrupt model is scored once per call.

    ``trace`` (tests/debugging) appends one dict per superstep with the
    live particle indices, their nodes and candidate counts, each
    particle's candidate list, and the chosen next nodes.

    ``deadline`` (any object exposing an ``expired`` attribute, e.g.
    :class:`repro.service.resilience.Deadline`) is checked once at every
    superstep boundary — between batches of score evaluations, never
    inside one — and raises :class:`WalkDeadlineExceeded` when blown.
    Scores already written into a caller-owned ``score_memo`` survive
    the abort, so a retry (or a cheaper fallback walking the same
    snapshot) keeps the evaluations the doomed walk paid for.  The
    check draws nothing: a walk whose deadline never fires consumes the
    generator exactly as an undeadlined walk would.

    Returns the final node of every particle (all tips of the snapshot).
    """
    check_positive("alpha", alpha, strict=False, finite=True)
    if normalization not in ("standard", "dynamic"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if score_memo is None:
        score_memo = np.full(len(snapshot), np.nan)
    elif score_memo.shape != (len(snapshot),):
        raise ValueError(
            f"score_memo must have shape ({len(snapshot)},), "
            f"got {score_memo.shape}"
        )
    alpha = float(alpha)
    dynamic = normalization == "dynamic"
    known = ~np.isnan(score_memo)
    # A memo with no holes at entry skips every miss probe.
    memo_may_miss = not known.all()
    indptr, indices = snapshot.approver_lists()
    current = np.array(starts, dtype=np.int64).tolist()
    live = [p for p, node in enumerate(current) if indptr[node + 1] > indptr[node]]
    with np.errstate(divide="ignore", invalid="ignore"):
        while live:
            if deadline is not None and deadline.expired:
                raise WalkDeadlineExceeded(
                    f"deadline expired with {len(live)} particle(s) in flight"
                )
            nodes = [current[p] for p in live]
            rows = [indices[indptr[node] : indptr[node + 1]] for node in nodes]
            counts = [len(row) for row in rows]
            if evaluation_counter is not None:
                for count in counts:
                    evaluation_counter(count)
            kmax = max(counts)
            tail = len(live) == 1 and trace is None
            if kmax == 1:
                chosen = [row[0] for row in rows]
            elif len(live) * kmax <= _SCALAR_BLOCK_CELLS:
                chosen = _scalar_superstep(
                    rows, kmax, score_memo, known, memo_may_miss, score_fn,
                    rng, alpha, dynamic, tail,
                )
            else:
                chosen = _vector_superstep(
                    snapshot, nodes, counts, kmax, score_memo, known,
                    memo_may_miss, score_fn, rng, alpha, normalization, tail,
                )
            if trace is not None:
                trace.append(
                    {
                        "live": np.array(live, dtype=np.int64),
                        "nodes": np.array(nodes, dtype=np.int64),
                        "counts": np.array(counts, dtype=np.int64),
                        "candidates": [np.array(row, dtype=np.int64) for row in rows],
                        "chosen": np.array(chosen, dtype=np.int64),
                    }
                )
            for particle, node in zip(live, chosen):
                current[particle] = node
            live = [
                p for p, node in zip(live, chosen) if indptr[node + 1] > indptr[node]
            ]
    return np.array(current, dtype=np.int64)
