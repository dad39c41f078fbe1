"""Work plans: the one runner of a client's cycle, for rounds and cycles.

Every client does the same cycle: select tips over a **frozen** view,
merge their models, train locally, and decide whether to publish.  Both
schedulers of :class:`repro.sim.engine.EventDrivenTangleLearning` hand
that work here as *work units*: a round's sampled clients over the
end-of-last-round view, or an event-engine superstep's cycles over the
views the engine froze for them.  Nothing a unit does can observe
anything published by its own round or superstep, so the units are
embarrassingly parallel.

This module gives the units an explicit, picklable form so any
:class:`~repro.substrate.executor.Executor` can evaluate them:

- :class:`ClientWorkUnit` — which client, which walk stream, honest or
  attack (plus, for a cycle, pre-drawn tips or staleness weights);
- :class:`RoundContext` — a unit's frozen view, protocol config and
  rng factory (one context per round, one per view group of a
  superstep);
- :func:`run_training_plane_round` — prep (walk and flat reference) per
  unit, one lockstep training pass, then the shared finalize; every
  superstep and every in-process round runs through it;
- :func:`execute_unit` — the same three phases for one unit, the form a
  round crossing to a process pool maps;
- :func:`apply_result` — folds a result back into the canonical client.

Determinism: the walk rng is keyed by the unit's ``walk_key`` via
:class:`~repro.utils.rng.RngFactory`, and training randomness comes from
the client's own generator whose state travels inside the (possibly
copied) :class:`~repro.fl.client.Client`.  A worker process therefore
draws exactly the numbers the serial path would, and
:class:`ClientStateDelta` carries the advanced state back so the next
round starts identically — serial and parallel execution produce
bit-identical round records for a fixed seed.

Transaction ids are **not** assigned inside units: the id counter is
shared tangle state, so the caller commits results after the fact, in
unit order — active-client order in a round, pop order in a superstep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.dag.arena import shared_rows
from repro.dag.tip_selection import (
    AccuracyTipSelector,
    RandomTipSelector,
    TipSelector,
    WeightedTipSelector,
)
from repro.fl.aggregation import FLAT_AGGREGATORS
from repro.fl.config import DagConfig
from repro.nn.model import plan_local_batches
from repro.nn.serialization import flatten_weights
from repro.nn.training_plane import TrainJob, draws_dropout_masks, train_grouped
from repro.poisoning.attacks import random_weight_update
from repro.utils.rng import RngFactory
from repro.utils.timing import Stopwatch

if TYPE_CHECKING:  # imported lazily to keep the layer boundary clean
    from repro.fl.client import Client

__all__ = [
    "ClientWorkUnit",
    "ClientStateDelta",
    "ClientRoundResult",
    "ClientPrepResult",
    "RoundContext",
    "build_selector",
    "execute_unit",
    "execute_prep_unit",
    "execute_round",
    "probe_in_process",
    "apply_result",
    "plan_client_job",
    "reference_flat",
    "run_training_plane_round",
]


def build_selector(
    client: "Client",
    store,
    config: DagConfig,
    evaluation_counter: Callable[[int], None] | None = None,
) -> TipSelector:
    """Tip selector for ``client`` per the protocol config.

    ``store`` is any tangle-like object (:class:`~repro.dag.tangle.Tangle`
    or a view) used to resolve transaction models for accuracy
    evaluation.  The accuracy selector is wired to the client's *batched*
    cached evaluation (:meth:`~repro.fl.client.Client.tx_accuracies`), the
    contract :class:`~repro.dag.tip_selection.AccuracyTipSelector`
    documents — which routes each walk step's cache misses through the
    fused multi-model forward pass
    (:meth:`~repro.nn.model.Classifier.accuracy_many`) whenever the
    model's layers support it.  Rounds, event-mode cycles and every
    executor therefore share one evaluation plane, and one walker: both
    walking selectors advance a selection's particles in lockstep
    supersteps over a per-epoch CSR snapshot
    (:mod:`repro.dag.walk_engine`), each superstep's union frontier
    reaching ``tx_accuracies`` as **one** batch — with the candidates'
    arena rows whenever the walked snapshot lives in one arena, so the
    fused pass resolves no id.
    """
    if config.selector == "random":
        return RandomTipSelector()
    if config.selector == "weighted":
        return WeightedTipSelector(
            config.weighted_alpha, depth_range=config.depth_range
        )
    return AccuracyTipSelector(
        batch_accuracy_fn=lambda tx_ids: client.tx_accuracies(store, tx_ids),
        row_accuracy_fn=lambda tx_ids, arena_rows: client.tx_accuracies(
            store, tx_ids, arena_rows
        ),
        alpha=config.alpha,
        normalization=config.normalization,
        depth_range=config.depth_range,
        evaluation_counter=evaluation_counter,
        score_cache_fn=client.tx_accuracy_map,
        cache_epoch_fn=lambda: client.cache_epoch,
    )


@dataclass(frozen=True)
class ClientWorkUnit:
    """One client's slice of a round or a superstep: who works, and how.

    ``walk_key`` names the unit's walk stream in the rng factory:
    ``("walk", round, client)`` in a round, ``("walk", cycle_seq)`` for
    an event-engine cycle.  A cycle may also carry the ``tips`` its
    windowed weighted group already drew (the unit then walks nothing)
    and ``staleness``, which maps the unit's tips to the parents'
    weights by age.  Round units leave both ``None`` and so pickle.
    """

    client_id: int
    walk_key: tuple
    attack: str | None = None  # None = honest; "random_weights" = attacker
    tips: tuple[str, ...] | None = None
    staleness: Callable[[list[str]], np.ndarray | None] | None = None


@dataclass
class ClientStateDelta:
    """Client-side state advanced by a unit, to fold back at the barrier.

    Only captured for executors that cross a process boundary (the unit
    ran on a pickled copy; the delta is how the coordinator's client
    catches up).  In-process executors mutate the canonical client
    directly and skip the snapshot (``RoundContext.capture_state``).

    ``cache_entries`` is **delta-only** in the common case: the
    evaluations the unit *added* (``Client.cache_entries_since`` against
    a mark taken at unit start), merged into the canonical cache without
    an epoch bump — exactly what in-process warming does.  A unit that
    reset its cache mid-flight (personal-tail adoption) cannot express
    itself as a suffix; it ships the full post-reset cache with
    ``cache_replace=True`` and is restored wholesale (with the epoch
    bump the serial path's reset performed).  Either way, what crosses
    the boundary is what changed — a warmed thousand-entry cache no
    longer re-ships every round.
    """

    rng_state: dict
    cache_entries: dict[str, float]
    cache_replace: bool
    evaluations: int
    personal_tail: list[np.ndarray] | None


def _capture_state_delta(
    client: "Client", cache_mark: tuple[int, int]
) -> ClientStateDelta:
    """Snapshot what a unit changed on its (copied) client."""
    entries = client.cache_entries_since(cache_mark)
    return ClientStateDelta(
        rng_state=client.rng.bit_generator.state,
        cache_entries=client.tx_accuracy_cache() if entries is None else entries,
        cache_replace=entries is None,
        evaluations=client.evaluations,
        personal_tail=client.personal_tail,
    )


@dataclass
class ClientRoundResult:
    """Everything a work unit produced, before tangle mutation.

    ``flat_weights`` is the published model as **one contiguous 1-D
    vector** — the only form a model crosses the process boundary in.
    The coordinator turns it into an arena row on commit
    (:meth:`Transaction.from_flat`); no per-layer list is ever pickled.
    """

    client_id: int
    publish: bool
    parents: tuple[str, ...] = ()
    flat_weights: np.ndarray | None = None
    tags: dict = field(default_factory=dict)
    reference_accuracy: float | None = None
    test_accuracy: float | None = None
    test_loss: float | None = None
    walk_duration: float | None = None
    walk_evaluations: int | None = None
    state: ClientStateDelta | None = None


@dataclass(frozen=True)
class RoundContext:
    """A unit's shared inputs: its frozen view and protocol parameters.

    ``view`` is whatever the simulator's visibility rule exposes to the
    unit (the raw tangle in a round without propagation delay, a view
    group's frozen timed view in a superstep); it must not change while
    units execute.  Walks run over the view's snapshot; parents and
    scores resolve against the view's tangle.  ``rng_factory``
    reconstructs every unit's walk stream identically in any process.
    ``capture_state`` requests :class:`ClientStateDelta` snapshots in the
    results; coordinators set it to ``False`` for executors that run
    units on the canonical objects (``shares_memory``), where the
    snapshot/restore round-trip would copy growing caches for nothing.
    """

    view: object
    config: DagConfig
    rng_factory: RngFactory
    capture_state: bool = True


def reference_flat(
    client: "Client", parents: list, aggregator: str, weights=None
) -> np.ndarray:
    """``client``'s reference model — the merge of the chosen parent
    transactions, its personal tail grafted on — as one flat vector.

    The ``(k, P)`` parent stack comes straight off the arena the parents
    share (:func:`~repro.dag.arena.shared_rows`), or row by row for
    mixed storage.  It reduces through the named flat aggregator or,
    given normalized staleness ``weights``, as the weighted row sum.
    Every unit builds its reference here (:func:`execute_prep_unit`).
    """
    spec = client.model.flat_spec
    stacked = shared_rows(parents, spec)
    if stacked is None:
        stacked = np.stack([tx.flat_vector(spec) for tx in parents])
    if weights is None:
        flat = FLAT_AGGREGATORS[aggregator](stacked)
    else:
        flat = sum(w * row for w, row in zip(weights, stacked))
    if client.personal_params:
        flat = spec.flatten(client.apply_personalization(spec.unflatten(flat)))
    return flat


def _execute_attack(context: RoundContext, unit: ClientWorkUnit) -> ClientRoundResult:
    """The random-weights attack: uniform parents, a random flat payload,
    both drawn from the unit's walk stream."""
    rng = context.rng_factory.get(*unit.walk_key)
    view = context.view
    tips = RandomTipSelector().select_tips(view, context.config.num_tips, rng)
    # One normal draw per parameter array (the historical per-layer rng
    # stream); shipped as a single vector.
    flat = flatten_weights(random_weight_update(view.genesis.model_weights, rng))
    return ClientRoundResult(
        client_id=unit.client_id,
        publish=True,
        parents=tuple(dict.fromkeys(tips)),
        flat_weights=flat,
        tags={"malicious": True},
    )


def execute_unit(payload: tuple[RoundContext, "Client | None", ClientWorkUnit]) -> ClientRoundResult:
    """Run one work unit; pure apart from mutating the given client.

    Takes a single ``(context, client, unit)`` tuple so executors can map
    it directly (``client`` is ``None`` for attack units, which carry no
    client state).  An honest unit is :func:`run_training_plane_round`
    for one client: :func:`execute_prep_unit`, local training as a
    one-job :func:`~repro.nn.training_plane.train_grouped`, then the
    same finalize.
    """
    context, client, unit = payload
    if unit.attack is not None:
        return execute_prep_unit(payload).attack_result
    cache_mark = client.cache_mark()
    prep = execute_prep_unit((replace(context, capture_state=False), client, unit))
    job = plan_client_job(client, prep.reference_flat, unit.client_id)
    row, _train_loss = train_grouped([(client.model, [job])])[unit.client_id]
    result = _finalize_unit(client, prep, row, context.config)
    if context.capture_state:
        result.state = _capture_state_delta(client, cache_mark)
    return result


def _apply_state_delta(client: "Client", delta: ClientStateDelta) -> None:
    """Transfer a worker copy's advanced state onto the canonical client."""
    client.rng.bit_generator.state = delta.rng_state
    if delta.cache_replace:
        client.restore_tx_accuracy_cache(delta.cache_entries)
    else:
        client.merge_tx_accuracy_cache(delta.cache_entries)
    client.evaluations = delta.evaluations
    client.personal_tail = delta.personal_tail


def apply_result(client: "Client", result: ClientRoundResult) -> None:
    """Fold a unit's state delta back into the canonical client.

    Idempotent for serial execution (the client already holds this
    state); for parallel execution it transfers the worker copy's
    advanced rng stream, warmed evaluation cache, evaluation count, and
    personal tail.
    """
    if result.state is not None:
        _apply_state_delta(client, result.state)


def probe_in_process(executor, payloads: list) -> bool:
    """Whether mapping ``payloads`` will stay in the calling process.

    Prefers the payload-aware probe (mirrors an
    :class:`~repro.substrate.executor.AutoExecutor`'s byte-cost routing
    exactly), falls back to the static ``shares_memory`` flag.
    Coordinators use the answer to decide ``RoundContext.capture_state``:
    the only unsafe mistake is claiming in-process for a round that
    crosses a boundary, and the fallback errs the other way.
    """
    payload_probe = getattr(executor, "will_run_in_process_payloads", None)
    if payload_probe is not None:
        return payload_probe(payloads)
    return getattr(executor, "shares_memory", False)


def execute_round(
    executor,
    *,
    tangle,
    view,
    config: DagConfig,
    rng_factory: RngFactory,
    units: list[ClientWorkUnit],
    clients: dict[int, "Client"],
) -> list[ClientRoundResult]:
    """Run one planned round through ``executor`` — the coordinator
    half of :meth:`repro.sim.engine.EventDrivenTangleLearning.run_rounds`.

    When the executor can fan out (``parallelism > 1``), the round's
    heavyweight state is exported to shared memory *before* anything
    else: the tangle's weight arena (:meth:`~repro.dag.tangle.Tangle.
    share_memory`) and each active client's dataset tensors — both
    idempotent, so steady-state rounds pay a dictionary check.  From
    then on pickling a payload ships attach-by-name handles plus the
    per-round scalars, not the slabs.  The ordering matters for the
    router too: the cost model must see the payloads *after* export,
    otherwise an unshared tangle prices every round out of the pool and
    the segments would never pay off.

    The executor is then probed (:func:`probe_in_process`), and the
    answer routes the round: **in-process** rounds skip the state
    snapshot/capture round-trip and train in lockstep
    (:func:`run_training_plane_round`); rounds that **cross to the
    pool** map whole :func:`execute_unit`s, so training parallelizes
    with the walks — unless a model draws dropout masks (that generator
    lives on the model and a worker's copy never comes back, so only
    the coordinator-side lockstep pass keeps such rounds identical to
    serial ones).  The routes are bit-identical.  The caller folds
    results back (:func:`apply_result`) and commits publications;
    results arrive in unit order either way.
    """
    if getattr(executor, "parallelism", 1) > 1:
        share = getattr(tangle, "share_memory", None)
        if share is not None:
            share()
        for unit in units:
            if unit.attack is None:
                clients[unit.client_id].data.share_memory()

    context = RoundContext(view=view, config=config, rng_factory=rng_factory)
    payloads = [
        (context, None if unit.attack is not None else clients[unit.client_id], unit)
        for unit in units
    ]
    in_process = probe_in_process(executor, payloads)
    if in_process:
        context = replace(context, capture_state=False)
        payloads = [(context, client, unit) for _, client, unit in payloads]
    if in_process or any(
        draws_dropout_masks(client.model) for _, client, _ in payloads if client
    ):
        return run_training_plane_round(executor, payloads, clients)
    return executor.map(execute_unit, payloads)


# --------------------------------------------------------------------------
# The pipeline: walk per unit, train in lockstep, finalize.
# --------------------------------------------------------------------------


@dataclass
class ClientPrepResult:
    """Everything an honest unit produces *before* local training.

    Every unit splits at the training boundary: walks, the reference
    and its evaluation stay per-client (and keep parallelizing across
    workers); local training then runs through the lockstep plane —
    one job in :func:`execute_unit`, the whole round's or superstep's
    stacked references in :func:`run_training_plane_round`.
    ``reference_flat`` is the client's post-personalization starting
    point as one float64 vector — the row the lockstep ``(K, P)`` stack
    is assembled from.

    Attack units never train, so their prep carries the finished
    :class:`ClientRoundResult` in ``attack_result`` instead.
    """

    client_id: int
    attack_result: ClientRoundResult | None = None
    tips: tuple[str, ...] = ()
    reference_flat: np.ndarray | None = None
    reference_accuracy: float | None = None
    walk_duration: float | None = None
    walk_evaluations: int | None = None
    state: ClientStateDelta | None = None


def execute_prep_unit(
    payload: tuple[RoundContext, "Client | None", ClientWorkUnit]
) -> ClientPrepResult:
    """The walk/aggregation half of a unit.

    Performs tip selection (unless the unit carries its tips), the flat
    reference (:func:`reference_flat`, staleness-weighted when the unit
    says so), and the reference (publish-gate baseline) evaluation —
    everything up to, but not including, local training.  The walk rng
    is factory-keyed while the client's shuffle rng is untouched here,
    so splitting a unit at this boundary cannot shift any stream.
    """
    context, client, unit = payload
    if unit.attack is not None:
        return ClientPrepResult(
            client_id=unit.client_id, attack_result=_execute_attack(context, unit)
        )
    assert client is not None
    config = context.config
    cache_mark = client.cache_mark()
    evaluations = 0

    def count(candidates: int) -> None:
        nonlocal evaluations
        evaluations += candidates

    # The walk only reaches ids visible in the view, so the view's
    # tangle resolves them without a second per-id visibility check.
    tangle = getattr(context.view, "tangle", context.view)
    stopwatch = Stopwatch()
    tips = unit.tips
    if tips is None:
        selector = build_selector(client, tangle, config, count)
        walk_rng = context.rng_factory.get(*unit.walk_key)
        with stopwatch:
            tips = selector.select_tips(context.view, config.num_tips, walk_rng)
    reference = reference_flat(
        client,
        [tangle.get(t) for t in tips],
        config.aggregator,
        None if unit.staleness is None else unit.staleness(tips),
    )
    reference_accuracy = client.accuracy_of_flat(reference)

    state = None
    if context.capture_state:
        state = _capture_state_delta(client, cache_mark)
    return ClientPrepResult(
        client_id=unit.client_id,
        tips=tuple(tips),
        reference_flat=reference,
        reference_accuracy=reference_accuracy,
        walk_duration=stopwatch.elapsed,
        walk_evaluations=evaluations,
        state=state,
    )


def plan_client_job(client: "Client", start_flat: np.ndarray, tag: object) -> TrainJob:
    """One client's local training as a lockstep :class:`TrainJob`.

    Planning the batch schedule here is deliberate — it consumes the
    client's shuffle rng exactly as ``train_local`` would, so callers
    must plan jobs in the same order the sequential path would train
    them.
    """
    train_config = client.config
    batches = plan_local_batches(
        client.data.x_train.shape[0],
        client.rng,
        epochs=train_config.local_epochs,
        batch_size=train_config.batch_size,
        max_batches=train_config.local_batches,
    )
    return TrainJob(
        x=client.data.x_train,
        y=client.data.y_train,
        batches=batches,
        start_flat=start_flat,
        tag=tag,
        lr=train_config.learning_rate,
        momentum=train_config.momentum,
    )


def run_training_plane_round(
    executor,
    payloads: list[tuple[RoundContext, "Client | None", ClientWorkUnit]],
    clients: dict[int, "Client"],
) -> list[ClientRoundResult]:
    """One round or superstep with lockstep local training; drop-in for
    the ``executor.map(execute_unit, payloads)`` call.

    Called by :func:`execute_round` for in-process rounds and by the
    event engine for every superstep (a sequential cycle is a superstep
    of one), with a :class:`~repro.substrate.executor.SerialExecutor`
    and contexts that skip state capture.  Three phases:

    1. **Prep** — :func:`execute_prep_unit` per unit through the given
       executor (walks and reference evaluations parallelize exactly as
       whole units did); worker state deltas fold into the canonical
       clients immediately, because phase 2 consumes their rng streams.
    2. **Lockstep training** — jobs are planned in unit order
       (consuming each client's shuffle rng exactly as ``train_local``
       would), grouped by shared model, and advanced by
       :class:`~repro.nn.training_plane.LockstepTrainer` in fused
       supersteps.  Mixed-architecture rounds simply form one group per
       model; unfused models fall back per model inside the trainer.
    3. **Finalize** — per unit in order: personal-tail update, test
       evaluation of the trained row, publish gate — the same code
       :func:`execute_unit` finalizes its one client with.

    Because lockstep training is bit-identical to the per-client loop,
    the results are identical to mapping :func:`execute_unit` no matter
    which executor ran phase 1.  The returned results carry no state
    deltas (phases 2-3 already ran on the canonical clients).
    """
    preps = executor.map(execute_prep_unit, payloads)
    for (_, _, unit), prep in zip(payloads, preps):
        if unit.attack is None and prep.state is not None:
            _apply_state_delta(clients[prep.client_id], prep.state)

    # Plan jobs in unit order; group by model so mixed-architecture
    # rounds fuse what they can, per model.  Dropout stream order is
    # client-major *across* a model's whole job list, so all of a
    # model's jobs must go through ONE trainer call — jobs carry their
    # own optimizer config, and fusion within the call requires it to
    # be uniform across the fused rows.
    model_jobs: dict[int, tuple] = {}  # id(model) -> (model, jobs)
    for index, prep in enumerate(preps):
        if prep.attack_result is not None:
            continue
        client = clients[prep.client_id]
        job = plan_client_job(client, prep.reference_flat, index)
        model_jobs.setdefault(id(client.model), (client.model, []))[1].append(job)

    trained: dict[int, tuple[np.ndarray, float]] = train_grouped(
        list(model_jobs.values())
    )

    results: list[ClientRoundResult] = []
    for index, ((context, _, _), prep) in enumerate(zip(payloads, preps)):
        if prep.attack_result is not None:
            results.append(prep.attack_result)
            continue
        row, _train_loss = trained[index]
        results.append(
            _finalize_unit(clients[prep.client_id], prep, row, context.config)
        )
    return results


def _finalize_unit(
    client: "Client", prep: ClientPrepResult, row: np.ndarray, config: DagConfig
) -> ClientRoundResult:
    """The post-training phase of an honest unit: personal-tail update,
    test evaluation of the trained ``row``, publish gate."""
    if client.personal_params:
        client.update_personal_tail(client.model.flat_spec.unflatten(row))
    test_loss, test_accuracy = client.evaluate_flat(row)
    publish = (not config.publish_gate) or test_accuracy >= prep.reference_accuracy
    return ClientRoundResult(
        client_id=prep.client_id,
        publish=publish,
        parents=tuple(dict.fromkeys(prep.tips)) if publish else (),
        flat_weights=row if publish else None,
        tags=dict(client.data.metadata.get("tags", {})),
        reference_accuracy=prep.reference_accuracy,
        test_accuracy=test_accuracy,
        test_loss=test_loss,
        walk_duration=prep.walk_duration,
        walk_evaluations=prep.walk_evaluations,
    )
