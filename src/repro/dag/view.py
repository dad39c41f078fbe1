"""Visibility-bounded views of a tangle.

In a real deployment, transactions propagate with network delay: a client
selecting tips may not yet have seen the most recent publications.  A
view exposes a subset of a tangle through the same read API the tip
selectors use, so the simulator can model propagation delay without
copying the DAG: :class:`TangleView` bounds visibility by round (round
mode's ``visibility_delay``), :class:`TimedTangleView` by per-transaction
visibility times (event mode's propagation delay).

The two classes deliberately share no base: each defines its own query
methods, so tooling that wraps ``cls.__dict__[name]`` per class (the
end-to-end benchmark's span recorder) sees every call exactly once.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.dag.tangle import Tangle
from repro.dag.transaction import Transaction

__all__ = ["TangleView", "TimedTangleView", "visible_tips"]


def visible_tips(tangle: Tangle, visible: Callable[[Transaction], bool]) -> list[str]:
    """Tips of the sub-DAG induced by a visibility predicate, in one pass.

    A visible transaction is a tip when none of its approvers is
    visible.  Computing the visible id set once and testing approver
    membership against it costs O(transactions + edges); the naive
    formulation — calling a view's ``approvers`` per transaction, each
    call re-validating visibility through ``get`` — re-pays the
    predicate per edge endpoint and degenerates quadratically on
    delay-bounded views.  Shared by :meth:`TangleView.tips` and
    :meth:`TimedTangleView.tips`.
    """
    visible_ids = [tx.tx_id for tx in tangle.transactions() if visible(tx)]
    visible_set = set(visible_ids)
    return sorted(
        tx_id
        for tx_id in visible_ids
        if not any(a in visible_set for a in tangle.approvers(tx_id))
    )


def _visible_cumulative_weight(view, tx_id: str) -> int:
    """Own weight plus approving transactions visible in ``view``: a
    BFS over ``view.approvers`` (the tangle's incremental index counts
    hidden approvers too, so truncated views cannot use it)."""
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
        self._tangle = tangle
        self.max_round = max_round

    def _visible(self, tx: Transaction) -> bool:
        return tx.is_genesis or tx.round_index <= self.max_round

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._tangle and self._visible(self._tangle.get(tx_id))

    def __len__(self) -> int:
        return sum(1 for tx in self._tangle.transactions() if self._visible(tx))

    @property
    def genesis(self) -> Transaction:
        return self._tangle.genesis

    def get(self, tx_id: str) -> Transaction:
        """The transaction under ``tx_id`` if visible (KeyError otherwise)."""
        tx = self._tangle.get(tx_id)
        if not self._visible(tx):
            raise KeyError(f"transaction {tx_id!r} not visible at round {self.max_round}")
        return tx

    def transactions(self) -> list[Transaction]:
        """Visible transactions in the tangle's insertion order."""
        return [tx for tx in self._tangle.transactions() if self._visible(tx)]

    def approvers(self, tx_id: str) -> list[str]:
        """Visible transactions that directly approve ``tx_id``."""
        self.get(tx_id)  # visibility check
        return [
            a
            for a in self._tangle.approvers(tx_id)
            if self._visible(self._tangle.get(a))
        ]

    def tips(self) -> list[str]:
        """Visible transactions with no visible approvers (one pass)."""
        return visible_tips(self._tangle, self._visible)

    def is_tip(self, tx_id: str) -> bool:
        """Whether ``tx_id`` is visible and has no visible approvers."""
        return tx_id in self and not self.approvers(tx_id)

    def cumulative_weight(self, tx_id: str) -> int:
        """Own weight plus visible approving transactions.

        When the view's bound covers the whole tangle (no transaction is
        hidden) the query is answered from the tangle's incremental
        weight index in O(1); only genuinely truncated views pay for a
        visibility-filtered BFS.
        """
        if self.max_round >= self._tangle.last_round_index:
            self.get(tx_id)
            return self._tangle.cumulative_weight(tx_id)
        return _visible_cumulative_weight(self, tx_id)

    def cumulative_weights(self, tx_ids) -> np.ndarray:
        """Batched :meth:`cumulative_weight` over ``tx_ids``.

        A fully covering view answers all ids with one query against
        the tangle's incremental index — every stored transaction is
        visible at such a bound, and the index query itself raises
        ``KeyError`` on unknown ids, so no per-id check is needed.
        Truncated views fall back to the per-id filtered BFS.
        """
        if self.max_round >= self._tangle.last_round_index:
            return self._tangle.cumulative_weights(tx_ids)
        return np.array(
            [self.cumulative_weight(tx_id) for tx_id in tx_ids], dtype=np.float64
        )

    def approval_edges(self):
        """Visible (approving, approved) pairs, genesis excluded."""
        for approving, approved in self._tangle.approval_edges():
            if self._visible(approving) and self._visible(approved):
                yield approving, approved

    def _cost_footprint(self, walk) -> tuple[int, int]:
        """Views ship their whole tangle plus a bound — delegate."""
        ipc, dense = walk(self._tangle)
        return ipc + 64, dense + 64


class TimedTangleView:
    """Tangle view filtered by per-transaction visibility times.

    ``visible_from`` gives the time each transaction becomes visible to
    the *network* (publication plus propagation delay).  ``observer``
    and ``published_at`` implement the issuer exemption: a real client's
    local tangle always contains its own publications, so transactions
    the observer itself issued are visible from their publication time —
    the propagation delay only governs everyone else.
    """

    def __init__(
        self,
        tangle: Tangle,
        visible_from: dict[str, float],
        now: float,
        *,
        observer: int | None = None,
        published_at: dict[str, float] | None = None,
    ):
        self._tangle = tangle
        self._visible_from = visible_from
        self._observer = observer
        self._published_at = {} if published_at is None else published_at
        self.now = now

    def _visible(self, tx_id: str) -> bool:
        if self._visible_from.get(tx_id, float("inf")) <= self.now:
            return True
        if self._observer is None:
            return False
        published = self._published_at.get(tx_id)
        return (
            published is not None
            and published <= self.now
            and self._tangle.get(tx_id).issuer == self._observer
        )

    @property
    def genesis(self) -> Transaction:
        return self._tangle.genesis

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._tangle and self._visible(tx_id)

    def get(self, tx_id: str) -> Transaction:
        if not self._visible(tx_id):
            raise KeyError(f"transaction {tx_id!r} not visible at t={self.now}")
        return self._tangle.get(tx_id)

    def transactions(self) -> list[Transaction]:
        return [
            tx for tx in self._tangle.transactions() if self._visible(tx.tx_id)
        ]

    def approvers(self, tx_id: str) -> list[str]:
        self.get(tx_id)
        return [a for a in self._tangle.approvers(tx_id) if self._visible(a)]

    def tips(self) -> list[str]:
        return visible_tips(self._tangle, lambda tx: self._visible(tx.tx_id))

    def is_tip(self, tx_id: str) -> bool:
        return tx_id in self and not self.approvers(tx_id)

    def cumulative_weight(self, tx_id: str) -> int:
        return _visible_cumulative_weight(self, tx_id)

    def cumulative_weights(self, tx_ids) -> np.ndarray:
        """Batched :meth:`cumulative_weight` (the walk's per-step query).

        Per-id filtered BFS under the hood — delayed visibility means
        the tangle's incremental index does not apply; the lockstep
        engine's snapshot computes all visible weights in one pass
        instead (:meth:`repro.dag.walk_engine.TangleSnapshot.cumulative_weights`).
        """
        return np.array(
            [self.cumulative_weight(tx_id) for tx_id in tx_ids], dtype=np.float64
        )
