"""The event-driven tangle simulator — the repo's one implementation of
a training cycle and of a round.

:class:`EventDrivenTangleLearning` is a discrete-event engine over a
priority queue of events:

- **cycle** — a client's training cycle completes: tip selection over
  the tangle as visible at the cycle's *start*, reference aggregation
  (optionally staleness-weighted), local training, publish gate,
  publication with a per-transaction propagation delay;
- **join** / **leave** — mid-run churn from the configured schedule; a
  leave cancels the client's outstanding cycle (it never publishes
  after leaving), a join schedules a fresh one.

The heap orders events by ``(time, kind, client id, push sequence)``
with joins before leaves before cycles at equal timestamps, so the
whole trace is a pure function of ``(seed, configs)`` and — because the
client id outranks the push sequence — independent of the incidental
order events entered the heap.

The engine only schedules.  A cycle's work — walk, flat reference,
local training, test evaluation and publish gate — runs in
:mod:`repro.substrate.round_plan`, fed by either scheduler: a superstep
becomes one work unit per cycle, each carrying its frozen view, and
goes through :func:`~repro.substrate.round_plan.run_training_plane_round`
in-process; a round becomes one unit per sampled client through
:func:`repro.substrate.execute_round`.  Results of both commit through
one publish path (:meth:`_add_transaction`: payload gate, transaction,
visibility row).  Three operating regimes, selected by configuration
rather than by separate code paths:

1. **Sequential** (``quantum = 0``, and :meth:`step` at any quantum) —
   the superstep of one: the collector closes it at the first cycle,
   which gives pure discrete-event semantics, the paper's asynchronous
   deployment model (:meth:`SimConfig.async_compat`).  The parity suite
   pins its publish traces to digests recorded from the retired
   standalone asynchronous simulator.
2. **Quantum-batched** (``quantum > 0``) — every cycle completing
   within ``quantum`` of the next pending one is collected into a
   superstep: the batch freezes one shared view (at the *earliest*
   member's start time, so nobody sees anything it could not have seen
   sequentially), a weighted selector advances all members' particles
   through **one** lockstep selection per view group (an accuracy
   walk stays per member: its scores are evaluations on the selecting
   client's own test data), local training runs as **one** fused
   training-plane pass over the stacked references, and publications
   commit at the batch barrier.  This is the same freeze-at-barrier
   semantics round mode applies at round boundaries, with the quantum
   as a fidelity dial: as ``quantum -> 0`` every batch is a single
   cycle and the semantics degrade gracefully into regime 1.
3. **Rounds** (:meth:`run_rounds`) — the paper's comparison schedule:
   a sample of clients works over one frozen view per round through
   the round substrate, and publications commit at the round barrier.
   :class:`repro.fl.dag_learning.TangleLearning` is a thin constructor
   over this regime, and the FedAvg, FedProx and gossip baselines are
   its subclasses: they keep sampling, membership and execution and
   replace only the round's units (:meth:`_round_units`) and barrier
   commit (:meth:`_commit_round`).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.dag.tangle import Tangle
from repro.dag.tip_selection import TipSelector
from repro.dag.transaction import Transaction, payload_error
from repro.dag.view import TangleView, TimedTangleView
from repro.data.base import FederatedDataset
from repro.fl.client import Client
from repro.fl.config import DagConfig, TrainingConfig
from repro.fl.records import RoundRecord
from repro.nn.model import Classifier
from repro.sim.config import SimConfig
from repro.sim.faults import apply_corruption
from repro.substrate import round_plan
from repro.substrate.executor import Executor, SerialExecutor, make_executor
from repro.substrate.round_plan import (
    ClientRoundResult,
    ClientWorkUnit,
    RoundContext,
    apply_result,
    build_selector,
    execute_round,
)
from repro.utils.blocks import BlockStore
from repro.utils.rng import RngFactory

__all__ = ["EventDrivenTangleLearning", "SimEvent"]

ModelBuilder = Callable[[np.random.Generator], Classifier]

# Tie-break ranks at equal timestamps: membership changes resolve before
# the cycles they affect — a client leaving at exactly its cycle's
# finish time never publishes that cycle.  Crash/recover are the fault
# plane's ungraceful twins of leave/join and share their ranks.
_RANK = {"join": 0, "recover": 0, "leave": 1, "crash": 1, "cycle": 2}

# Supersteps run in the calling process, on the canonical clients.
_IN_PROCESS = SerialExecutor()


@dataclass(order=True)
class _Event:
    """A heap entry; comparison fields are exactly the declared order.

    ``seq`` is a global push counter and the *last* tie-break: it can
    only decide between events identical in time, kind, and client —
    which makes the pop order invariant to heap insertion order.
    """

    time: float
    rank: int
    client_id: int
    seq: int
    kind: str = field(compare=False)
    start_time: float = field(compare=False, default=0.0)
    cycle_seq: int = field(compare=False, default=-1)
    generation: int = field(compare=False, default=0)
    # Crash events carry their recovery delay (drawn at scheduling time
    # so the fault stream's draw order is independent of the quantum).
    payload: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class SimEvent:
    """One processed event, as recorded in the engine's trace.

    ``kind`` is ``"train"`` (a completed cycle; all optional fields
    set), ``"join"`` / ``"leave"`` (membership changes), or ``"crash"``
    / ``"recover"`` (the fault plane's ungraceful membership changes;
    optional fields ``None``).

    ``quarantined`` is ``True`` on a train event whose publication was
    rejected by the publish-path payload validation (non-finite or
    shape-mismatched weights) — ``published`` is then ``False`` and
    ``tx_id`` ``None``; it stays ``None`` on every other event, so
    clean-run traces are unchanged.  Attacker cycles
    (:attr:`SimConfig.attackers`) record ``accuracy`` and
    ``reference_accuracy`` as ``None`` — attackers train nothing.
    """

    time: float
    kind: str
    client_id: int
    published: bool | None = None
    accuracy: float | None = None
    reference_accuracy: float | None = None
    tx_id: str | None = None
    start_time: float | None = None
    quarantined: bool | None = None


class EventDrivenTangleLearning:
    """Event-driven simulator of the specializing DAG (see module doc).

    Every stochastic component draws from its own keyed stream
    (``"model-init"``, ``("client", id)``, ``"times"``, ``("walk",
    seq)``, ``"round-sampler"``, ...), so the trace is a pure function
    of ``(seed, configs)``.  Scenario knobs (latency laws, quantum,
    heterogeneity, churn, staleness) live in
    :class:`repro.sim.config.SimConfig`; ``executor`` overrides the
    round-execution strategy :meth:`run_rounds` uses (by default one is
    built from ``dag_config.parallelism`` via
    :func:`repro.substrate.make_executor`).
    """

    def __init__(
        self,
        dataset: FederatedDataset,
        model_builder: ModelBuilder,
        train_config: TrainingConfig,
        dag_config: DagConfig = DagConfig(),
        *,
        sim_config: SimConfig = SimConfig(),
        seed: int = 0,
        executor: Executor | None = None,
    ):
        self.dataset = dataset
        self.dag_config = dag_config
        self.sim_config = sim_config
        self._rngs = RngFactory(seed)
        self.model = model_builder(self._rngs.get("model-init"))
        genesis_weights = self.model.get_weights()
        self.tangle = Tangle(genesis_weights)
        self.clients: dict[int, Client] = {
            cd.client_id: Client(
                cd, self.model, train_config, self._rngs.get("client", cd.client_id)
            )
            for cd in dataset.clients
        }
        if dag_config.personal_params > 0:
            for client in self.clients.values():
                client.enable_personalization(
                    dag_config.personal_params, genesis_weights
                )

        # Event times draw from a dedicated stream; heterogeneity draws
        # from its own "rates" stream so enabling it cannot shift them.
        self._time_rng = self._rngs.get("times")
        self._rate: dict[int, float] = {cid: 1.0 for cid in self.clients}
        rate_rng = self._rngs.get("rates")
        if sim_config.rate_spread > 0:
            for client_id in sorted(self.clients):
                self._rate[client_id] = float(
                    rate_rng.lognormal(0.0, sim_config.rate_spread)
                )
        self.stragglers: frozenset[int] = frozenset()
        if sim_config.straggler_fraction > 0:
            ids = sorted(self.clients)
            count = int(round(sim_config.straggler_fraction * len(ids)))
            if count:
                chosen = rate_rng.choice(ids, size=min(count, len(ids)), replace=False)
                self.stragglers = frozenset(int(c) for c in chosen)
                for client_id in self.stragglers:
                    self._rate[client_id] *= sim_config.straggler_slowdown

        self._queue: list[_Event] = []
        self._push_seq = itertools.count()
        self._cycle_seq = itertools.count()  # walk-rng keys; cycles only
        self._batch_seq = itertools.count()  # windowed weighted supersteps
        self.now = 0.0
        self.events: list[SimEvent] = []
        # Per-client publication log (publish time, visible time, tx id):
        # backs the issuer exemption when batching groups shared views.
        self._own_publications: dict[int, list[tuple[float, float, str]]] = {}

        # Fault plane: all stochastic fault decisions draw from their
        # own "faults" stream, created only when any knob is live — a
        # disabled FaultModel leaves every clean stream untouched and
        # the engine on the exact clean code path.
        self._faults = sim_config.faults
        self._fault_rng = self._rngs.get("faults") if self._faults.enabled else None
        self.fault_stats: dict[str, int] = {
            "crashes": 0,
            "recoveries": 0,
            "corrupted": 0,
            "quarantined": 0,
            "dropped_links": 0,
            "duplicated_links": 0,
        }
        self._client_order: list[int] = sorted(self.clients)
        self._slot = {cid: slot for slot, cid in enumerate(self._client_order)}
        # Visibility state as insertion-order block stores
        # (repro.utils.blocks) — row i is the tangle's i-th transaction,
        # row 0 genesis — written once per publication, never moved, and
        # read by every view as a vectorized mask: network visibility
        # time, publication time, issuer, and with per-link faults an
        # arrival table whose row holds one arrival time per client slot,
        # in place of the shared network column (inf: never delivered).
        self._row: dict[str, int] = {}
        self._visible_at = BlockStore(fill=np.inf)
        self._published_at = BlockStore(fill=np.nan)
        self._issuer = BlockStore(dtype=np.int64, fill=-1)
        self._arrival: BlockStore | None = None
        if self._faults.link_faults:
            self._arrival = BlockStore((len(self._client_order),), fill=np.inf)
        self._append_row(self.tangle.genesis.tx_id, -1, 0.0, 0.0)
        if self._arrival is not None:
            self._arrival[0] = 0.0
        # Partition membership per client, aligned with _client_order
        # (-1 = unlisted, unaffected); precomputed so the per-publish
        # delivery fan-out stays vectorized.
        self._partition_membership: list[np.ndarray] = [
            np.array(
                [
                    -1 if (g := p.group_of(cid)) is None else g
                    for cid in self._client_order
                ],
                dtype=np.int64,
            )
            for p in self._faults.partitions
        ]
        unknown_attackers = sim_config.attackers - set(self.clients)
        if unknown_attackers:
            raise ValueError(f"unknown attacker clients: {sorted(unknown_attackers)}")

        # Membership: per-client generation counters implement lazy
        # cancellation — a leave bumps the generation, orphaning any
        # queued cycle (dropped when it surfaces).
        self._generation: dict[int, int] = {cid: 0 for cid in self.clients}
        # Clients whose last scheduled churn action was a leave: a crash
        # recovery must not bring them back before their scheduled join.
        self._departed: set[int] = set()
        if sim_config.initially_active is None:
            self._active = set(self.clients)
        else:
            unknown = sim_config.initially_active - set(self.clients)
            if unknown:
                raise ValueError(f"unknown initially_active clients: {sorted(unknown)}")
            self._active = set(sim_config.initially_active)
        for event in sim_config.churn:
            if event.client_id not in self.clients:
                raise ValueError(f"churn references unknown client {event.client_id}")
            heapq.heappush(
                self._queue,
                _Event(
                    event.time,
                    _RANK[event.action],
                    event.client_id,
                    next(self._push_seq),
                    event.action,
                ),
            )
        for client_id in sorted(self._active):
            self._schedule_cycle(client_id)

        self.round_index = 0
        self.round_history: list[RoundRecord] = []
        self._sampler = self._rngs.get("round-sampler")
        self.executor: Executor = executor or make_executor(dag_config.parallelism)

    # --------------------------------------------------------------- queries
    @property
    def active_clients(self) -> frozenset[int]:
        """Clients currently participating (initial set plus churn)."""
        return frozenset(self._active)

    @property
    def completed_cycles(self) -> int:
        """Training cycles processed so far (published or not)."""
        return sum(1 for event in self.events if event.kind == "train")

    def close(self) -> None:
        """Release executor resources (worker processes) and any
        shared-memory segments the round state exported (idempotent)."""
        self.executor.close()
        self.tangle.close()
        self.dataset.close_shared()

    def __enter__(self) -> "EventDrivenTangleLearning":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def accuracy_timeline(self, bucket: float = 1.0) -> list[tuple[float, float]]:
        """Mean trained-model accuracy per time bucket (train events)."""
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        buckets: dict[int, list[float]] = {}
        for event in self.events:
            # Attacker cycles carry no accuracy; skip them like churn.
            if event.kind != "train" or event.accuracy is None:
                continue
            buckets.setdefault(int(event.time // bucket), []).append(event.accuracy)
        return [
            (index * bucket, float(np.mean(values)))
            for index, values in sorted(buckets.items())
        ]

    # ---------------------------------------------- selectors and consensus
    def make_selector(self, client: Client) -> TipSelector:
        """Tip selector for ``client`` according to the protocol config.

        Delegates to :func:`repro.substrate.build_selector`, the single
        place that wires the protocol config to a selector (used both
        here and inside executor work units).
        """
        return build_selector(client, self.tangle, self.dag_config)

    def _selection_view(self) -> Tangle | TangleView:
        """What a round's clients can see.

        Transactions of the current round are never visible (they are
        published concurrently, at the barrier); a positive
        ``visibility_delay`` additionally hides the most recent rounds,
        modelling propagation delay.
        """
        delay = self.dag_config.visibility_delay
        if delay <= 0:
            return self.tangle
        return TangleView(self.tangle, self.round_index - 1 - delay)

    def reference_tip(self, client_id: int, *, key: str = "reference") -> str:
        """The transaction a client currently considers its consensus.

        One extra biased walk over the selection view (not counted in
        any bookkeeping); used by evaluation code, e.g. the poisoning
        metrics, which measure "the reference model that the clients
        selected from the DAG".
        """
        selector = self.make_selector(self.clients[client_id])
        rng = self._rngs.get(key, self.round_index, client_id)
        return selector.select_tips(self._selection_view(), 1, rng)[0]

    def consensus_accuracy(self, client_id: int) -> float:
        """Accuracy of the client's current reference model on local test."""
        tip = self.reference_tip(client_id)
        return self.clients[client_id].tx_accuracy(self.tangle, tip)

    # ------------------------------------------------------------ scheduling
    def _schedule_cycle(self, client_id: int) -> None:
        """Queue the client's next cycle: think delay, then training.

        Draw order is think, then duration (the parity digests pin it);
        the per-client rate factor scales the duration outside the draw,
        so heterogeneity leaves the stream itself untouched.
        """
        start = self.now + self.sim_config.think.sample(self._time_rng)
        duration = self.sim_config.train.sample(self._time_rng) * self._rate[client_id]
        heapq.heappush(
            self._queue,
            _Event(
                start + duration,
                _RANK["cycle"],
                client_id,
                next(self._push_seq),
                "cycle",
                start_time=start,
                cycle_seq=next(self._cycle_seq),
                generation=self._generation[client_id],
            ),
        )
        # Crash injection rides on cycle scheduling: the Bernoulli, the
        # crash point within the training window, and the recovery delay
        # all draw here (from the dedicated stream, in scheduling order,
        # which is identical at every quantum) — never at pop time,
        # where sequential and batched pops interleave differently.
        if self._fault_rng is not None and self._faults.crash_rate > 0:
            if self._fault_rng.random() < self._faults.crash_rate:
                crash_time = start + float(self._fault_rng.random()) * duration
                recovery = (
                    float(self._fault_rng.exponential(self._faults.recovery))
                    if self._faults.recovery > 0
                    else 0.0
                )
                heapq.heappush(
                    self._queue,
                    _Event(
                        crash_time,
                        _RANK["crash"],
                        client_id,
                        next(self._push_seq),
                        "crash",
                        generation=self._generation[client_id],
                        payload=recovery,
                    ),
                )

    def _stale(self, event: _Event) -> bool:
        # A crash is pinned to the cycle generation it was scheduled
        # with: if the client already left (or crashed) the cycle is
        # gone and the crash with it.
        return event.kind in ("cycle", "crash") and (
            event.client_id not in self._active
            or event.generation != self._generation[event.client_id]
        )

    def _peek(self) -> _Event | None:
        """The next live event, discarding churn-cancelled cycles."""
        while self._queue:
            top = self._queue[0]
            if self._stale(top):
                heapq.heappop(self._queue)
                continue
            return top
        return None

    # --------------------------------------------------- membership (churn)
    def _apply_join(self, event: _Event) -> SimEvent:
        """Apply a join; the caller appends the returned record so that
        ``self.events`` stays chronological even when batching defers
        cycle commits past later churn pops."""
        record = SimEvent(time=event.time, kind="join", client_id=event.client_id)
        self._departed.discard(event.client_id)
        if event.client_id not in self._active:
            self._active.add(event.client_id)
            self._generation[event.client_id] += 1
            self._schedule_cycle(event.client_id)
        return record

    def _apply_leave(self, event: _Event) -> SimEvent:
        record = SimEvent(time=event.time, kind="leave", client_id=event.client_id)
        # Recorded even for a crashed (inactive) client, so the leave
        # outlasts the crash.
        self._departed.add(event.client_id)
        if event.client_id in self._active:
            self._active.discard(event.client_id)
            # Orphan the outstanding cycle: the client never publishes
            # work that finishes after it left.
            self._generation[event.client_id] += 1
        return record

    def _apply_crash(self, event: _Event) -> SimEvent:
        """An ungraceful leave: unlike churn, the crash *loses in-flight
        state* — the running cycle aborts unpublished and the client's
        evaluation cache is wiped (a rebooted node re-evaluates from
        scratch).  Stale crashes never reach here (:meth:`_stale`)."""
        self._active.discard(event.client_id)
        self._generation[event.client_id] += 1
        self.clients[event.client_id].reset_cache()
        self.fault_stats["crashes"] += 1
        heapq.heappush(
            self._queue,
            _Event(
                event.time + event.payload,
                _RANK["recover"],
                event.client_id,
                next(self._push_seq),
                "recover",
            ),
        )
        return SimEvent(time=event.time, kind="crash", client_id=event.client_id)

    def _apply_recover(self, event: _Event) -> SimEvent:
        """Rejoin after a crash (a join in all but name; a client that
        already rejoined through scheduled churn stays as it is, and one
        that churn took away while it was down stays away until its
        scheduled join)."""
        record = SimEvent(time=event.time, kind="recover", client_id=event.client_id)
        self.fault_stats["recoveries"] += 1
        client_id = event.client_id
        if client_id not in self._active and client_id not in self._departed:
            self._active.add(client_id)
            self._generation[client_id] += 1
            self._schedule_cycle(client_id)
        return record

    def _apply_membership(self, event: _Event) -> SimEvent:
        """Apply a non-cycle event; the caller appends the record."""
        if event.kind == "join":
            return self._apply_join(event)
        if event.kind == "leave":
            return self._apply_leave(event)
        if event.kind == "crash":
            return self._apply_crash(event)
        return self._apply_recover(event)

    # ------------------------------------------------------------ publishing
    def _staleness_weights(self, tips: list[str], at_time: float):
        """Parent weights by age at ``at_time`` — each parent's age at
        the cycle's *start*, when the client read the tangle, mapped
        through the staleness policy; ``None`` when disabled."""
        policy = self.sim_config.staleness
        if policy.mode == "none":
            return None
        return policy.weights(
            at_time
            - self._published_at.head(len(self._row))[[self._row[t] for t in tips]]
        )

    def _corrupt(self, flat: np.ndarray) -> np.ndarray:
        """The configured in-flight payload corruption (fault stream)."""
        return apply_corruption(
            flat, self._faults.corruption_mode, self._fault_rng
        )

    def _append_row(
        self, tx_id: str, issuer: int, published: float, visible: float
    ) -> int:
        """Record a transaction just added to the tangle as the next
        visibility row; returns the row."""
        row = len(self._row)
        self._row[tx_id] = row
        self._visible_at[row] = visible
        self._published_at[row] = published
        self._issuer[row] = issuer
        if self._arrival is not None:
            self._arrival.reserve(row)
        return row

    def _deliver(self, row: int, issuer: int, base_visible: float) -> None:
        """Per-link delivery fan-out (link faults active): one arrival
        time per client, written as one row of the arrival table.

        One vectorized block of fault draws per publication, in a fixed
        knob order (jitter, drop, duplicate) — publications commit in
        pop order at every quantum, so the schedule replays identically.
        Inert knobs draw nothing; with every rate zero (``always_on``)
        each client's arrival is exactly ``base_visible`` and the trace
        matches the clean run bit for bit.
        """
        faults = self._faults
        rng = self._fault_rng
        n = len(self._client_order)
        arrival = np.full(n, base_visible)
        if faults.jitter > 0:
            arrival += rng.exponential(faults.jitter, n)
        dropped = None
        if faults.drop_rate > 0:
            dropped = rng.random(n) < faults.drop_rate
            self.fault_stats["dropped_links"] += int(dropped.sum())
        if faults.duplicate_rate > 0:
            dup = rng.random(n) < faults.duplicate_rate
            self.fault_stats["duplicated_links"] += int(dup.sum())
            # The duplicate copy takes its own independent propagation
            # delay; the effective arrival is the earliest surviving
            # copy, so duplication doubles as redundancy against drops.
            alt = self.now + self.sim_config.propagation.sample_many(rng, n)
            arrival = np.where(dup, np.minimum(arrival, alt), arrival)
            if dropped is not None:
                arrival = np.where(
                    dropped, np.where(dup, alt, np.inf), arrival
                )
        elif dropped is not None:
            arrival = np.where(dropped, np.inf, arrival)
        for partition, membership in zip(
            faults.partitions, self._partition_membership
        ):
            if not partition.start <= self.now < partition.end:
                continue
            group = partition.group_of(issuer)
            if group is None:
                continue
            crossing = (membership >= 0) & (membership != group)
            arrival = np.where(
                crossing, np.maximum(arrival, partition.end), arrival
            )
        # The issuer is exempt from its own link faults (a client always
        # keeps what it published) but is recorded at the clean network
        # visibility, not the publish time: early self-visibility flows
        # through the same observer/exemption mechanism as clean mode,
        # keeping always_on traces bit-identical at every quantum.
        arrival[self._slot[issuer]] = base_visible
        self._arrival[row] = arrival

    def _publish(self, client_id: int, result: ClientRoundResult) -> str | None:
        """A cycle's publication at ``self.now``: the payload is (maybe)
        corrupted in flight, then committed with a propagation delay
        through :meth:`_add_transaction`."""
        flat = result.flat_weights
        if self._fault_rng is not None and self._faults.corruption_rate > 0:
            if self._fault_rng.random() < self._faults.corruption_rate:
                flat = self._corrupt(flat)
                self.fault_stats["corrupted"] += 1
        # A cycle's round index is a coarse time bucket for analysis.
        return self._add_transaction(
            client_id, result, flat, round_index=int(self.now), propagate=True
        )

    def _add_transaction(
        self,
        client_id: int,
        result: ClientRoundResult,
        flat: np.ndarray,
        *,
        round_index: int,
        propagate: bool,
    ) -> str | None:
        """The one publish path of cycles and round barriers: payload
        gate, transaction, visibility row, own-publication log.

        A non-finite or shape-mismatched payload is **quarantined**:
        counted, never added to the tangle (so it cannot pollute the
        weight arena), and reported by returning ``None``.  Published at
        ``self.now``; with ``propagate`` (cycles) the transaction becomes
        network-visible after a delay drawn from ``"times"`` and, under
        link faults, per-link delivery draws from ``"faults"``; without
        it (round barriers) it is visible at once and draws nothing.
        """
        if payload_error(flat, self.tangle.spec, self.tangle.arena.dtype) is not None:
            self.fault_stats["quarantined"] += 1
            return None
        tx = Transaction.from_flat(
            tx_id=self.tangle.next_tx_id(client_id),
            parents=result.parents,
            flat=flat,
            spec=self.tangle.spec,
            issuer=client_id,
            round_index=round_index,
            tags=result.tags,
        )
        self.tangle.add(tx)
        visible = self.now
        if propagate:
            visible += self.sim_config.propagation.sample(self._time_rng)
        row = self._append_row(tx.tx_id, client_id, self.now, visible)
        if propagate and self._arrival is not None:
            self._deliver(row, client_id, visible)
        self._own_publications.setdefault(client_id, []).append(
            (self.now, visible, tx.tx_id)
        )
        return tx.tx_id

    def _record_train(
        self,
        client_id: int,
        result: ClientRoundResult,
        tx_id: str | None,
        start_time: float,
    ) -> SimEvent:
        """Append the train event of a committed ``result`` at ``now``."""
        record = SimEvent(
            time=self.now,
            kind="train",
            client_id=client_id,
            published=tx_id is not None,
            accuracy=result.test_accuracy,
            reference_accuracy=result.reference_accuracy,
            tx_id=tx_id,
            start_time=start_time,
            quarantined=True if result.publish and tx_id is None else None,
        )
        self.events.append(record)
        return record

    def _view_for(
        self, client_id: int, at_time: float, *, exempt: bool = True
    ) -> TimedTangleView:
        """The tangle as ``client_id`` sees it at ``at_time``: the
        client's lane of the arrival table under link faults, the shared
        network column otherwise — plus, unless ``exempt`` is off, the
        issuer exemption for its own publications."""
        if len(self._row) != len(self.tangle):
            raise RuntimeError(
                "the tangle changed outside the engine (added to or "
                "compacted): its visibility rows no longer line up"
            )
        visible_from = (
            self._visible_at.head
            if self._arrival is None
            else partial(self._arrival.head, lane=self._slot[client_id])
        )
        return TimedTangleView(
            self.tangle,
            visible_from,
            at_time,
            observer=client_id if exempt else None,
            published_at=self._published_at.head,
            issuers=self._issuer.head,
        )

    # ------------------------------------------------------------ supersteps
    def _commit_cycle(self, event: _Event, result: ClientRoundResult) -> SimEvent:
        """Publish (if the unit chose to) and record one finished cycle
        at ``self.now``, then queue the client's next."""
        tx_id = self._publish(event.client_id, result) if result.publish else None
        record = self._record_train(event.client_id, result, tx_id, event.start_time)
        if event.client_id in self._active:
            self._schedule_cycle(event.client_id)
        return record

    def _collect_ready(
        self, end_time: float, windowed: bool
    ) -> tuple[list[_Event], list[SimEvent | _Event]]:
        """Pop the next superstep: churn applies inline (in time order),
        cycles accumulate while they fall within ``quantum`` of the
        first one — or, unless ``windowed``, the first cycle closes the
        superstep.  Nothing published by these cycles is visible to any
        of them — they were all popped before any commit.

        Returns the cycle events plus the full pop sequence (churn
        records interleaved with cycles); the commit phase walks the
        latter so ``self.events`` stays chronological even though cycle
        records are only materialized at the batch barrier."""
        ready: list[_Event] = []
        ordered: list[SimEvent | _Event] = []
        window_end: float | None = None
        while True:
            top = self._peek()
            if top is None or top.time > end_time:
                break
            if window_end is not None and top.time > window_end:
                break
            event = heapq.heappop(self._queue)
            self.now = event.time
            if event.kind != "cycle":
                ordered.append(self._apply_membership(event))
                continue
            ready.append(event)
            ordered.append(event)
            if not windowed:
                break
            if window_end is None:
                window_end = event.time + self.sim_config.quantum
        return ready, ordered

    def _superstep_payloads(self, ready: list[_Event], windowed: bool) -> list:
        """The superstep's scheduling: one round-plan payload per cycle,
        in pop order, each carrying the view frozen for it.

        Members group by their issuer-exemption set — almost always
        empty, so the common case is **one** shared group per batch.  A
        group freezes one view at its earliest member's start time (no
        member observes anything it could not have seen sequentially),
        and each member walks it from its per-cycle ``("walk",
        cycle_seq)`` stream — views whose masks coincide share one
        restricted snapshot through ``snapshot_for``.  The exception is
        a windowed *weighted* group: cumulative weights are
        client-independent, so all members' particles advance through a
        single selection of ``num_tips * len(members)`` particles, drawn
        here from one ``("walk-group", batch, ordinal)`` stream, and the
        members' units carry their slices.

        Under link faults every client sees its own tangle, so members
        group per client — batching still fuses training.  Each
        per-client group still freezes at the same batch-wide time its
        exemption set would freeze at in clean mode, so ``always_on``
        (per-link machinery, zero fault rates) replays the clean trace
        bit for bit at every quantum.  Attacker members walk their own
        view at their own start time; parents and payload draw from
        their per-cycle stream.
        """
        cfg = self.dag_config
        attackers = self.sim_config.attackers
        link = self._arrival is not None
        context = partial(RoundContext, config=cfg, rng_factory=self._rngs)
        payload_for: dict[int, tuple] = {}  # cycle_seq -> payload
        groups: dict[object, list[_Event]] = {}
        for event in ready:
            if event.client_id in attackers:
                payload_for[event.cycle_seq] = (
                    context(view=self._view_for(event.client_id, event.start_time)),
                    None,
                    ClientWorkUnit(
                        event.client_id,
                        ("walk", event.cycle_seq),
                        attack="random_weights",
                    ),
                )
                continue
            own = self._own_publications.get(event.client_id, ())
            exempt = frozenset(
                tx_id
                for published, visible, tx_id in own
                if published <= event.start_time < visible
            )
            key = (exempt, event.client_id) if link else exempt
            groups.setdefault(key, []).append(event)

        # Freeze times are per exemption set across the whole batch, so
        # the per-client grouping under link faults cannot shift a view
        # later than clean mode's shared group would have frozen it.
        freeze_time: dict[frozenset, float] = {}
        for key, members in groups.items():
            exempt = key[0] if link else key
            earliest = min(member.start_time for member in members)
            if exempt not in freeze_time or earliest < freeze_time[exempt]:
                freeze_time[exempt] = earliest

        fused = windowed and cfg.selector == "weighted"
        batch = next(self._batch_seq) if fused else None
        count = cfg.num_tips
        for ordinal, (key, members) in enumerate(groups.items()):
            exempt = key[0] if link else key
            # A non-empty exemption set names one issuer's own
            # transactions, so such a group is necessarily
            # single-client.  The observer is granted only alongside a
            # non-empty exemption — the same early-self-visibility rule
            # in clean and link mode, so always_on batches replay the
            # clean grouping exactly.
            view = self._view_for(
                members[0].client_id, freeze_time[exempt], exempt=bool(exempt)
            )
            group_context = context(view=view)
            drawn = None
            if fused:
                rng = self._rngs.get("walk-group", batch, ordinal)
                selector = self.make_selector(self.clients[members[0].client_id])
                drawn = selector.select_tips(view, count * len(members), rng)
            for i, member in enumerate(members):
                unit = ClientWorkUnit(
                    member.client_id,
                    ("walk", member.cycle_seq),
                    tips=None if drawn is None else tuple(drawn[i * count : (i + 1) * count]),
                    staleness=partial(self._staleness_weights, at_time=member.start_time),
                )
                payload_for[member.cycle_seq] = (
                    group_context, self.clients[member.client_id], unit
                )
        return [payload_for[event.cycle_seq] for event in ready]

    def _process_batch(
        self, ready: list[_Event], ordered: list[SimEvent | _Event], windowed: bool
    ) -> list[SimEvent]:
        """Run one superstep: its payloads go through the round plan's
        pipeline in-process (walks, one fused training pass, finalize),
        then results commit in pop order — which is also per-cycle time
        order, so commits replay exactly the sequence a finer quantum
        would produce."""
        results = iter(
            round_plan.run_training_plane_round(
                _IN_PROCESS, self._superstep_payloads(ready, windowed), self.clients
            )
            if ready
            else ()
        )
        records: list[SimEvent] = []
        for entry in ordered:
            self.now = entry.time
            if isinstance(entry, SimEvent):  # churn popped mid-window
                self.events.append(entry)
                continue
            records.append(self._commit_cycle(entry, next(results)))
        return records

    def _run_one_batch(
        self, end_time: float, windowed: bool
    ) -> list[SimEvent] | None:
        """One superstep up to ``end_time``; ``None`` when nothing fired
        at all (an empty list means churn-only progress)."""
        ready, ordered = self._collect_ready(end_time, windowed)
        if not ordered:
            return None
        return self._process_batch(ready, ordered, windowed)

    # ----------------------------------------------------------- run drivers
    def step(self) -> SimEvent:
        """Process events until one training cycle completes.

        Always a superstep of one (ignores the quantum): the
        fine-grained probe the parity and property suites drive the
        engine with.
        """
        while True:
            batch = self._run_one_batch(float("inf"), windowed=False)
            if batch is None:
                raise RuntimeError("no scheduled events")
            if batch:
                return batch[0]

    def run_until(self, end_time: float) -> list[SimEvent]:
        """Process all events up to ``end_time``; returns train events."""
        processed: list[SimEvent] = []
        windowed = self.sim_config.quantum > 0
        while (batch := self._run_one_batch(end_time, windowed)) is not None:
            processed.extend(batch)
        self.now = max(self.now, end_time)
        return processed

    def run_cycles(self, count: int) -> list[SimEvent]:
        """Process at least ``count`` training cycles.

        Sequential mode processes exactly ``count``; quantum-batched
        mode completes the superstep containing the ``count``-th cycle,
        so it may overshoot."""
        processed: list[SimEvent] = []
        windowed = self.sim_config.quantum > 0
        while len(processed) < count:
            batch = self._run_one_batch(float("inf"), windowed)
            if batch is None:
                raise RuntimeError("no scheduled events")
            processed.extend(batch)
        return processed

    # ---------------------------------------------------------------- rounds
    def run_rounds(self, rounds: int, clients_per_round: int = 10) -> list[RoundRecord]:
        """Run ``rounds`` discrete rounds; returns the records of this call.

        The round schedule is the degenerate event schedule whose
        quantum spans a whole round and whose latency is the round
        barrier.  Each round is planned as one work unit per sampled
        client (:meth:`_round_units`) over the frozen
        :meth:`_selection_view`, evaluated by the configured executor,
        and committed at the barrier: state deltas fold back into the
        canonical clients, then :meth:`_commit_round` assigns
        transaction ids and appends pending transactions in
        active-client order — so records and tangles are identical
        regardless of executor.

        Each round advances ``now`` by one time unit; publications
        become network-visible at the barrier (no propagation draws, so
        the ``"times"`` stream is untouched).  Membership events due by
        the round's start apply before sampling; queued cycle events
        are not consumed here (the regimes are not meant to interleave
        within one run).
        """
        return [self._run_round(clients_per_round) for _ in range(rounds)]

    def _apply_due_membership(self) -> None:
        """Apply every non-cycle event due by ``now``, in heap order.

        Rounds never consume cycle events, and the constructor queues
        one per client, so due joins and leaves sit *behind* cycles and
        popping cannot reach them.  They are lifted out of the heap
        instead; the queued cycles — and with them every ``"times"`` /
        ``"walk"`` draw of an event-mode run — stay exactly as they
        were.
        """
        while True:
            due = [e for e in self._queue if e.kind != "cycle" and e.time <= self.now]
            if not due:
                return
            event = min(due)
            self._queue.remove(event)
            heapq.heapify(self._queue)
            if not self._stale(event):
                self.events.append(self._apply_membership(event))

    def _run_round(self, clients_per_round: int) -> RoundRecord:
        self.now = float(self.round_index)
        self._apply_due_membership()

        eligible = sorted(self._active)
        active_ids = sorted(
            self._sampler.choice(
                eligible, size=min(clients_per_round, len(eligible)), replace=False
            ).tolist()
        )
        record = RoundRecord(round_index=self.round_index, active_clients=active_ids)
        units = self._round_units(active_ids)
        # The substrate's shared coordinator half: exports the tangle
        # arena and active clients' data to shared memory when the
        # executor can fan out, asks it whether the round stays
        # in-process, and dispatches through the training plane or plain
        # unit mapping — bit-identical results on every path,
        # so the commit does not care which one ran.
        results = execute_round(
            self.executor,
            tangle=self.tangle,
            view=self._selection_view(),
            config=self.dag_config,
            rng_factory=self._rngs,
            units=units,
            clients=self.clients,
        )

        self.now = float(self.round_index + 1)  # the round barrier
        for result in results:  # attack results carry no state: a no-op
            apply_result(self.clients[result.client_id], result)
        self._commit_round(record, units, results)
        self.round_index += 1
        self.round_history.append(record)
        return record

    def _round_units(self, active_ids: list[int]) -> list[ClientWorkUnit]:
        """One walking unit per sampled client (an attack unit for an
        attacker); a baseline's units carry their references instead."""
        attackers = self.sim_config.attackers
        return [
            ClientWorkUnit(
                client_id=client_id,
                walk_key=("walk", self.round_index, client_id),
                attack="random_weights" if client_id in attackers else None,
            )
            for client_id in active_ids
        ]

    def _commit_round(
        self,
        record: RoundRecord,
        units: list[ClientWorkUnit],
        results: list[ClientRoundResult],
    ) -> None:
        """Record every unit and publish its transaction, in
        active-client order; a baseline aggregates instead."""
        for unit, result in zip(units, results):
            client_id = result.client_id
            if unit.attack is None:  # honest client bookkeeping
                record.walk_duration[client_id] = result.walk_duration
                record.walk_evaluations[client_id] = result.walk_evaluations
                record.reference_accuracy[client_id] = result.reference_accuracy
                record.client_accuracy[client_id] = result.test_accuracy
                record.client_loss[client_id] = result.test_loss
            tx_id = None
            if result.publish:
                tx_id = self._add_transaction(
                    client_id,
                    result,
                    result.flat_weights,
                    round_index=self.round_index,
                    propagate=False,
                )
            if tx_id is not None:
                record.published.append(tx_id)
            self._record_train(client_id, result, tx_id, float(self.round_index))
