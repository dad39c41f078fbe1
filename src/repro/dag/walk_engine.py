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
  lists, the tip set, and (lazily) cumulative weights.  Each tangle
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
  tip draws, all depths, then one gather per descent level.
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
  ``rng.choice``.

RNG discipline: the engine consumes the *same generator* the sequential
walker would, but draws different variates (uniform blocks for starts,
one Gumbel block per superstep instead of one ``rng.choice`` per
particle-step), so individual selections differ for a fixed seed while
the **distribution** over tips is identical — the property tests pin
both the per-superstep normalization bit-for-bit and the tip
distribution statistically.  Runs stay deterministic for a fixed seed,
and serial/parallel executors stay bit-identical to each other because
both run the same engine against the same keyed streams.

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
    ) -> None:
        """Set every field from the two CSR adjacencies, lazy planes
        unmaterialized."""
        self.ids = ids
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

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def build(cls, view) -> "TangleSnapshot":
        """Snapshot ``view`` (a :class:`~repro.dag.tangle.Tangle` or any
        visibility view).

        One pass over ``view.transactions()``: an edge is kept iff both
        endpoints are visible, which reproduces ``view.approvers``
        exactly (on a raw tangle every edge is kept).
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
        return cls(ids, parent_lists, approver_lists)

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
        # across ~20 descent levels; scalar CSR walking is cheaper and
        # draws from the identical distribution.
        indptr, indices = snapshot.parent_indptr, snapshot.parent_indices
        uniforms = iter(rng.random(int(depths.sum())))
        for particle in range(count):
            node = int(current[particle])
            for _ in range(int(depths[particle])):
                k = parent_counts[node]
                if k == 0:
                    break
                node = int(indices[indptr[node] + int(next(uniforms) * k)])
            current[particle] = node
        return current
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


def _fill_score_memo(
    score_memo: np.ndarray,
    candidates: np.ndarray,
    score_fn: ScoreFn,
    known: np.ndarray | None = None,
) -> None:
    """Score the distinct not-yet-scored nodes among ``candidates`` into
    the memo (one ``score_fn`` call); no-op when everything is known.

    ``known`` is the explicit scored-mask: filled indices are marked
    known *even when the score itself is NaN*, so a score function that
    returns NaN for a node (a corrupted model, a failed evaluation) is
    scored exactly once per call instead of being mistaken for a cache
    miss forever.  Without ``known`` the legacy NaN-sentinel convention
    applies (NaN in the memo = not yet scored)."""
    if known is None:
        missing = np.unique(candidates[np.isnan(score_memo[candidates])])
    else:
        missing = np.unique(candidates[~known[candidates]])
    if missing.size == 0:
        return
    fresh = np.asarray(score_fn(missing), dtype=np.float64)
    if fresh.shape != missing.shape:
        raise ValueError(
            f"score_fn returned shape {fresh.shape} for {missing.shape[0]} nodes"
        )
    score_memo[missing] = fresh
    if known is not None:
        known[missing] = True


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

    1. gather the union of their candidate frontiers (CSR row gather);
    2. score the **unique not-yet-scored** candidates with one
       ``score_fn`` call — the widest evaluation batch the walk plane
       has (candidates of every live particle, deduplicated against
       everything already scored);
    3. normalize scores row-wise over a padded frontier block
       (:func:`padded_normalize`, the sequential walker's exact
       arithmetic);
    4. sample each particle's next node by segment-wise Gumbel-max over
       ``alpha * normalized`` — equivalent to an independent
       ``rng.choice`` per particle with probabilities
       ``exp(alpha * normalized) / sum``.

    ``evaluation_counter`` preserves the sequential accounting exactly:
    it is called once per *live particle* per superstep with that
    particle's candidate count (never the deduplicated union size), so
    Figure 15's evaluations-per-walk measure is unchanged by batching.

    ``score_memo`` is an optional ``len(snapshot)``-sized float64 array
    with NaN marking not-yet-scored nodes; scores are filled in as the
    walk discovers nodes.  A caller that walks the same snapshot
    repeatedly (a selection's particles, a round's repeated selections)
    passes the same memo to skip the dedup-and-score round-trip for
    every previously seen node — sound because a node's score is fixed
    for the lifetime of a snapshot (a transaction's model never
    changes, and cumulative weights are frozen with the visible set).
    Omitted, a fresh memo still dedups within the call.

    ``trace`` (tests/debugging) appends one dict per superstep with the
    live particle indices, their nodes and candidate counts, each
    particle's candidate list, and the chosen next nodes.

    ``deadline`` (any object exposing an ``expired`` attribute, e.g.
    :class:`repro.service.resilience.Deadline`) is checked at every
    superstep boundary — between batches of score evaluations, never
    inside one — and raises :class:`WalkDeadlineExceeded` when blown.
    Scores already written into a caller-owned ``score_memo`` survive
    the abort, so a retry (or a cheaper fallback walking the same
    snapshot) keeps the evaluations the doomed walk paid for.  The
    check draws nothing: a walk whose deadline never fires consumes the
    generator exactly as an undeadlined walk would.

    Returns the final node of every particle (all tips of the snapshot).
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    current = np.array(starts, dtype=np.int64, copy=True)
    degrees = snapshot.approver_counts
    indptr, indices = snapshot.approver_indptr, snapshot.approver_indices
    if score_memo is None:
        score_memo = np.full(len(snapshot), np.nan)
    elif score_memo.shape != (len(snapshot),):
        raise ValueError(
            f"score_memo must have shape ({len(snapshot)},), "
            f"got {score_memo.shape}"
        )
    columns = snapshot._column_range
    rows = np.arange(len(current))
    # The scored-mask is explicit: NaN in the memo marks "not yet
    # scored" only at entry (the construction convention of every
    # caller); once a node is filled it stays known even if its score
    # *is* NaN — a score function may legitimately return NaN for a
    # corrupted model, and re-scoring it every superstep (the old
    # NaN-as-sentinel ambiguity) both wasted evaluations and let NaN
    # win every argmax.  A memo with no holes at entry skips the
    # per-superstep miss probe entirely, as before.
    known = ~np.isnan(score_memo)
    memo_may_miss = not known.all()
    live = np.flatnonzero(degrees[current] > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        while live.size:
            if deadline is not None and deadline.expired:
                raise WalkDeadlineExceeded(
                    f"deadline expired with {live.size} particle(s) in flight"
                )
            if live.size == 1 and trace is None:
                # Tail finisher: one straggler left — the padded
                # frontier machinery costs more than it amortizes, so
                # walk it out with scalar steps (same scores, same
                # normalization arithmetic, same Gumbel-max law).
                particle = int(live[0])
                node = int(current[particle])
                while degrees[node] > 0:
                    if deadline is not None and deadline.expired:
                        raise WalkDeadlineExceeded(
                            "deadline expired in the tail finisher"
                        )
                    k = int(degrees[node])
                    if evaluation_counter is not None:
                        evaluation_counter(k)
                    start = indptr[node]
                    if k == 1:
                        node = int(indices[start])
                        continue
                    row = indices[start : start + k]
                    scores = score_memo[row]
                    if memo_may_miss and not known[row].all():
                        _fill_score_memo(score_memo, row, score_fn, known)
                        scores = score_memo[row]
                    finite = np.isfinite(scores)
                    if finite.all():
                        normalized = padded_normalize(
                            scores[None, :],
                            np.ones((1, k), dtype=bool),
                            normalization,
                        )[0]
                        logits = alpha * normalized
                    elif finite.any():
                        # Non-finite candidates (corrupted models) never
                        # attract the walk: their logits degrade to -inf
                        # while the finite ones keep the exact standard
                        # arithmetic over the reduced candidate set.
                        normalized = padded_normalize(
                            scores[None, :], finite[None, :], normalization
                        )[0]
                        logits = np.where(finite, alpha * normalized, -np.inf)
                    else:
                        # Every candidate is corrupt — degrade to a
                        # uniform step rather than crash or pick NaN.
                        logits = np.zeros(k)
                    z = logits - np.log(rng.standard_exponential(k))
                    node = int(row[int(z.argmax())])
                current[particle] = node
                break
            nodes = current[live]
            counts = degrees[nodes]
            if evaluation_counter is not None:
                for c in counts:
                    evaluation_counter(int(c))
            begins = indptr[nodes]
            chosen = indices[begins]  # single-candidate rows: final
            kmax = int(counts.max())
            if kmax > 1:
                # The (L, kmax) CSR frontier block: row i's first counts[i]
                # lanes are its candidates, the rest repeat its first — the
                # valid mask keeps padding out of every reduction and sample.
                valid = columns[:kmax] < counts[:, None]
                lanes = np.where(valid, columns[:kmax], 0)
                candidates = indices[begins[:, None] + lanes]
                scores = score_memo[candidates]
                if memo_may_miss:
                    unknown = ~known[candidates] & valid
                    if unknown.any():
                        _fill_score_memo(
                            score_memo, candidates[unknown], score_fn, known
                        )
                        scores = score_memo[candidates]
                # Gumbel-max per row: argmax(logit - log E), E ~ Exp(1),
                # draws from softmax(logit) — one block of exponentials
                # per superstep replaces one rng.choice per particle.
                # Softmax is invariant to per-row constant shifts, so
                # the standard (Eq. 1) subtract-the-max never has to be
                # materialized: alpha * score is the same logit up to a
                # row constant.  Dynamic (Eq. 3) divides by the row
                # spread — a genuine per-row rescale — so only it pays
                # for the masked reductions, via the shared
                # padded_normalize arithmetic.
                bad = ~np.isfinite(scores) & valid
                any_bad = bool(bad.any())
                if normalization == "standard":
                    logits = alpha * scores
                else:
                    # Exclude non-finite candidates from the row
                    # reductions so one corrupt score cannot poison its
                    # whole row's max/spread.
                    norm_valid = valid & ~bad if any_bad else valid
                    logits = alpha * padded_normalize(
                        scores, norm_valid, normalization
                    )
                if any_bad:
                    # Corrupted candidates never attract the walk; a row
                    # with *no* finite candidate degrades to a uniform
                    # pick among its (corrupt) candidates instead of
                    # letting NaN win the argmax.  The exponential block
                    # below keeps its shape either way, so the rng
                    # stream position is independent of corruption.
                    logits = np.where(bad, -np.inf, logits)
                    alive = (valid & ~bad).any(axis=1)
                    if not alive.all():
                        logits = np.where(
                            ~alive[:, None] & valid, 0.0, logits
                        )
                z = logits - np.log(rng.standard_exponential(valid.shape))
                picks = np.where(valid, z, -np.inf).argmax(axis=1)
                chosen = np.where(
                    counts > 1, candidates[rows[: len(nodes)], picks], chosen
                )
            if trace is not None:
                trace.append(
                    {
                        "live": live.copy(),
                        "nodes": nodes.copy(),
                        "counts": counts.copy(),
                        "candidates": [
                            indices[indptr[n] : indptr[n] + degrees[n]].copy()
                            for n in nodes
                        ],
                        "chosen": chosen.copy(),
                    }
                )
            current[live] = chosen
            live = live[degrees[chosen] > 0]
    return current
