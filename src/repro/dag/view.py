"""Visibility-bounded views of a tangle.

In a real deployment, transactions propagate with network delay: a client
selecting tips may not yet have seen the most recent publications.  A
view exposes a subset of a tangle through the same read API the tip
selectors use, so the simulator can model propagation delay without
copying the DAG: :class:`TangleView` bounds visibility by round (round
mode's ``visibility_delay``), :class:`TimedTangleView` by per-transaction
visibility times (event mode's propagation delay).

A view *is* a row mask over its tangle: ``mask(snapshot)`` says which
nodes of the tangle's one whole-tangle snapshot it sees, and
:func:`repro.dag.walk_engine.snapshot_for` serves the view the
restriction of that snapshot — so walks over every view share one
snapshot maintained by O(delta) extension instead of each view copying
the DAG.

The two classes deliberately share no base: each defines its own query
methods, so tooling that wraps ``cls.__dict__[name]`` per class (the
end-to-end benchmark's span recorder) sees every call exactly once.
"""

from __future__ import annotations

from collections import deque
from itertools import compress

import numpy as np

from repro.dag import walk_engine
from repro.dag.tangle import Tangle
from repro.dag.transaction import Transaction

__all__ = ["TangleView", "TimedTangleView"]


def _snapshot_tips(view) -> list[str]:
    """The view's tips, sorted: its restricted snapshot's tip set."""
    snapshot = walk_engine.snapshot_for(view)
    return [snapshot.ids[node] for node in snapshot.tip_nodes]


def _column(times, ids: list[str], missing: float) -> np.ndarray:
    """Per-node values for ``ids`` (the whole tangle in insertion order)
    from an insertion-order column, a reader of a column's first ``n``
    rows, or an id-keyed map."""
    if isinstance(times, np.ndarray):
        return times[: len(ids)]
    if callable(times):
        return times(len(ids))
    return np.fromiter(
        (times.get(tx_id, missing) for tx_id in ids), dtype=np.float64, count=len(ids)
    )


def _visible_cumulative_weight(view, tx_id: str) -> int:
    """Own weight plus approving transactions visible in ``view``: a
    BFS over ``view.approvers`` — the oracle the snapshot weight plane
    of the view's restriction is tested against."""
    view.get(tx_id)  # visibility check
    seen: set[str] = set()
    queue = deque(view.approvers(tx_id))
    while queue:
        current = queue.popleft()
        if current in seen:
            continue
        seen.add(current)
        queue.extend(view.approvers(current))
    return 1 + len(seen)


class TangleView:
    """Read-only view of ``tangle`` restricted to rounds <= ``max_round``.

    Implements the query surface used by the random walks and tip
    selectors (``get``, ``approvers``, ``tips``, ``is_tip``,
    ``__contains__``, ``cumulative_weight``, ``approval_edges``).  The
    genesis (round -1) is always visible, so a view is never empty.
    """

    def __init__(self, tangle: Tangle, max_round: int):
        self.tangle = tangle
        self.max_round = max_round

    def _visible(self, tx: Transaction) -> bool:
        return tx.is_genesis or tx.round_index <= self.max_round

    def mask(self, snapshot) -> np.ndarray:
        """Which nodes of ``snapshot`` — the tangle's whole-tangle
        snapshot, node = insertion position — lie within the bound."""
        rounds = np.fromiter(
            (tx.round_index for tx in self.tangle.transactions()),
            dtype=np.int64,
            count=len(snapshot),
        )
        visible = rounds <= self.max_round
        visible[0] = True  # genesis
        return visible

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self.tangle and self._visible(self.tangle.get(tx_id))

    def __len__(self) -> int:
        return sum(1 for tx in self.tangle.transactions() if self._visible(tx))

    @property
    def genesis(self) -> Transaction:
        return self.tangle.genesis

    def get(self, tx_id: str) -> Transaction:
        """The transaction under ``tx_id`` if visible (KeyError otherwise)."""
        tx = self.tangle.get(tx_id)
        if not self._visible(tx):
            raise KeyError(f"transaction {tx_id!r} not visible at round {self.max_round}")
        return tx

    def transactions(self) -> list[Transaction]:
        """Visible transactions in the tangle's insertion order."""
        return [tx for tx in self.tangle.transactions() if self._visible(tx)]

    def approvers(self, tx_id: str) -> list[str]:
        """Visible transactions that directly approve ``tx_id``."""
        self.get(tx_id)  # visibility check
        return [
            a
            for a in self.tangle.approvers(tx_id)
            if self._visible(self.tangle.get(a))
        ]

    def tips(self) -> list[str]:
        """Visible transactions with no visible approvers, sorted."""
        return _snapshot_tips(self)

    def is_tip(self, tx_id: str) -> bool:
        """Whether ``tx_id`` is visible and has no visible approvers."""
        return tx_id in self and not self.approvers(tx_id)

    def cumulative_weight(self, tx_id: str) -> int:
        """Own weight plus visible approving transactions."""
        return _visible_cumulative_weight(self, tx_id)

    def cumulative_weights(self, tx_ids) -> np.ndarray:
        """Batched :meth:`cumulative_weight` over ``tx_ids``."""
        return np.array(
            [self.cumulative_weight(tx_id) for tx_id in tx_ids], dtype=np.float64
        )

    def approval_edges(self):
        """Visible (approving, approved) pairs, genesis excluded."""
        for approving, approved in self.tangle.approval_edges():
            if self._visible(approving) and self._visible(approved):
                yield approving, approved

    def _cost_footprint(self, walk) -> tuple[int, int]:
        """Views ship their whole tangle plus a bound — delegate."""
        ipc, dense = walk(self.tangle)
        return ipc + 64, dense + 64


class TimedTangleView:
    """Tangle view filtered by per-transaction visibility times.

    ``visible_from`` gives the time each transaction becomes visible to
    the *network* (publication plus propagation delay).  ``observer``
    and ``published_at`` implement the issuer exemption: a real client's
    local tangle always contains its own publications, so transactions
    the observer itself issued are visible from their publication time —
    the propagation delay only governs everyone else.

    Both time maps are either keyed by transaction id (a missing id is
    never visible, never published) or insertion-order columns — row
    ``i`` describes the tangle's ``i``-th transaction — alongside an
    ``issuers`` column (read from the tangle when omitted).  A column is
    an array or a reader ``n -> first n rows``, the form the event
    engine passes: its block store grows without moving a row, so a
    view holding a reader stays valid as the tangle grows.  Either way
    visibility is one vectorized :meth:`mask`, and every query below
    reads through it.  Times are written once, when a transaction is
    published, and never changed.
    """

    def __init__(
        self,
        tangle: Tangle,
        visible_from,
        now: float,
        *,
        observer: int | None = None,
        published_at=None,
        issuers=None,
    ):
        self.tangle = tangle
        self._visible_from = visible_from
        self._observer = observer
        self._published_at = {} if published_at is None else published_at
        self._issuers = issuers
        self.now = now
        # (whole-tangle snapshot, its mask) for the per-id queries.
        self._masked: tuple = (None, None)

    def mask(self, snapshot) -> np.ndarray:
        """Which nodes of ``snapshot`` — the tangle's whole-tangle
        snapshot, node = insertion position — are visible at ``now``:
        network-visible, or the observer's own and already published."""
        ids = snapshot.ids
        visible = _column(self._visible_from, ids, np.inf) <= self.now
        if self._observer is not None:
            if self._issuers is not None:
                issuers = _column(self._issuers, ids, -1)
            else:
                issuers = np.fromiter(
                    (self.tangle.get(tx_id).issuer for tx_id in ids),
                    dtype=np.int64,
                    count=len(ids),
                )
            published = _column(self._published_at, ids, np.nan) <= self.now
            visible |= published & (issuers == self._observer)
        return visible

    def _current_mask(self) -> tuple:
        """(whole-tangle snapshot, this view's mask over it), the mask
        recomputed only once the tangle has grown or been compacted."""
        full = walk_engine.snapshot_for(self.tangle)
        if self._masked[0] is not full:
            self._masked = (full, self.mask(full))
        return self._masked

    def _visible(self, tx_id: str) -> bool:
        full, mask = self._current_mask()
        node = full.index.get(tx_id)
        return node is not None and bool(mask[node])

    @property
    def genesis(self) -> Transaction:
        return self.tangle.genesis

    def __contains__(self, tx_id: str) -> bool:
        return self._visible(tx_id)

    def get(self, tx_id: str) -> Transaction:
        if not self._visible(tx_id):
            raise KeyError(f"transaction {tx_id!r} not visible at t={self.now}")
        return self.tangle.get(tx_id)

    def transactions(self) -> list[Transaction]:
        return list(compress(self.tangle.transactions(), self._current_mask()[1]))

    def approvers(self, tx_id: str) -> list[str]:
        self.get(tx_id)
        return [a for a in self.tangle.approvers(tx_id) if self._visible(a)]

    def tips(self) -> list[str]:
        return _snapshot_tips(self)

    def is_tip(self, tx_id: str) -> bool:
        return tx_id in self and not self.approvers(tx_id)

    def cumulative_weight(self, tx_id: str) -> int:
        return _visible_cumulative_weight(self, tx_id)

    def cumulative_weights(self, tx_ids) -> np.ndarray:
        """Batched :meth:`cumulative_weight` (the walk's per-step query).

        Per-id filtered BFS under the hood; the lockstep engine's
        snapshot computes all visible weights in one pass
        instead (:meth:`repro.dag.walk_engine.TangleSnapshot.cumulative_weights`).
        """
        return np.array(
            [self.cumulative_weight(tx_id) for tx_id in tx_ids], dtype=np.float64
        )
