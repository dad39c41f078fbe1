"""Which callables the traced run wraps, and the per-layer metrics
computed from their spans.

Layer names are the repo's module names.  Only boundaries called
roughly 1e5 times per run or less are wrapped (never
``WeightArena.row``, which ``async_churn`` calls ~6e5 times), so the
traced run stays within ``trace.overhead_ratio <= 1.25``.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Recorder, Span, group_stats, self_times

__all__ = ["install", "layer_metrics", "PER_LAYER"]


# ------------------------------------------------------------ work counts
def _one(args, kwargs, result):
    return 1


def _fused_models(args, kwargs, result):
    # accuracy_many(self, flat_rows, x, y): K models in one fused pass;
    # the unfused fallback re-enters Classifier.accuracy per row, which
    # counts them there.
    model, rows = args[0], args[1]
    return len(rows) if model.supports_fused_eval else 0


def _fused_batches(args, kwargs, result):
    # LockstepTrainer.train(self, model, jobs); the unfused fallback
    # re-enters Classifier.train_batch per batch.
    model, jobs = args[1], args[2]
    if not model.supports_fused_train:
        return 0
    return sum(len(job.batches) for job in jobs)


def _ids_requested(args, kwargs, result):
    return len(args[2])  # tx_accuracies(self, tangle, tx_ids)


def install(recorder: Recorder) -> None:
    """Patch every traced boundary.  Call after the ``repro`` modules
    are imported and before the workload's objects are built (the
    simulators capture ``get_aggregator(...)`` at construction)."""
    from repro.dag import walk_engine
    from repro.dag.arena import WeightArena
    from repro.dag.random_walk import random_walk, sample_walk_start
    from repro.dag.tangle import Tangle
    from repro.dag.tip_selection import (
        AccuracyTipSelector,
        RandomTipSelector,
        WeightedTipSelector,
    )
    from repro.dag.view import TangleView
    from repro.fl import aggregation
    from repro.fl.async_learning import TimedTangleView
    from repro.fl.client import Client
    from repro.nn.model import Classifier
    from repro.nn.training_plane import LockstepTrainer
    from repro.service.coalescer import TipCoalescer
    from repro.service.degradation import DegradationLadder
    from repro.service.gateway import TangleGateway
    from repro.sim.engine import EventDrivenTangleLearning
    from repro.substrate import round_plan
    from repro.substrate.executor import SerialExecutor

    method = recorder.patch_method
    function = recorder.patch_function

    method(Classifier, "accuracy", "nn.accuracy", _one)
    method(Classifier, "accuracy_many", "nn.accuracy_many", _fused_models)
    method(Classifier, "evaluate", "nn.evaluate", _one)
    method(Classifier, "train_batch", "nn.train_batch", _one)
    method(Classifier, "train_local", "nn.train_local")
    method(LockstepTrainer, "train", "nn.lockstep_train", _fused_batches)

    method(Client, "tx_accuracies", "fl.client.tx_accuracies", _ids_requested)
    method(Client, "tx_accuracy", "fl.client.tx_accuracy", _one)
    method(Client, "train", "fl.client.train")
    method(Client, "evaluate_flat", "fl.client.evaluate_flat")
    # Not in the issue's list, added for coverage: the publish-gate and
    # reference evaluations enter the model through these three.
    method(Client, "evaluate_weights", "fl.client.evaluate_weights")
    method(Client, "accuracy_of_weights", "fl.client.accuracy_of_weights")
    method(Client, "accuracy_of_flat", "fl.client.accuracy_of_flat")

    function(aggregation.mean_flat, "fl.aggregation.mean_flat")
    function(aggregation.mean_aggregate, "fl.aggregation.mean_aggregate")

    for selector in (AccuracyTipSelector, WeightedTipSelector, RandomTipSelector):
        method(selector, "select_tips", "dag.tip_selection.select")
    function(random_walk, "dag.random_walk.walk")
    function(sample_walk_start, "dag.random_walk.start")

    function(walk_engine.snapshot_for, "dag.walk_engine.snapshot_for")
    method(walk_engine.TangleSnapshot, "build", "dag.walk_engine.snapshot_build")
    method(walk_engine.TangleSnapshot, "extend", "dag.walk_engine.snapshot_extend")
    function(walk_engine.batched_walk_starts, "dag.walk_engine.walk_starts")
    function(walk_engine.lockstep_walks, "dag.walk_engine.lockstep_walks")

    for view in (TangleView, TimedTangleView):
        method(view, "transactions", "dag.view.transactions")
        method(view, "tips", "dag.view.tips")

    method(Tangle, "add", "dag.tangle.add")
    method(Tangle, "compact", "dag.tangle.compact")
    method(Tangle, "tips", "dag.tangle.tips")
    method(WeightArena, "intern", "dag.arena.intern")
    method(WeightArena, "rows", "dag.arena.rows")

    function(round_plan.execute_round, "substrate.execute_round")
    function(round_plan.run_training_plane_round, "substrate.training_plane_round")
    function(round_plan.execute_prep_unit, "substrate.prep_unit")
    function(round_plan.execute_unit, "substrate.unit")
    method(SerialExecutor, "map", "substrate.executor_map")

    method(EventDrivenTangleLearning, "run_until", "sim.engine.run_until")
    method(EventDrivenTangleLearning, "step", "sim.engine.step")

    method(TangleGateway, "tips", "service.gateway.tips")
    method(TangleGateway, "publish", "service.gateway.publish")
    method(TangleGateway, "current_model", "service.gateway.current_model")
    method(TangleGateway, "compact", "service.gateway.compact")
    method(TipCoalescer, "submit", "service.coalescer.submit")
    method(DegradationLadder, "select", "service.ladder.select")


# ---------------------------------------------------------------- metrics
#: metric prefix -> span names of that boundary.
GROUPS: dict[str, tuple[str, ...]] = {
    "nn.eval": ("nn.accuracy", "nn.accuracy_many", "nn.evaluate"),
    "nn.train": ("nn.train_batch", "nn.train_local", "nn.lockstep_train"),
    "fl.client.score": ("fl.client.tx_accuracies", "fl.client.tx_accuracy"),
    "fl.client.train": ("fl.client.train",),
    "fl.client.evaluate": (
        "fl.client.evaluate_flat",
        "fl.client.evaluate_weights",
        "fl.client.accuracy_of_weights",
        "fl.client.accuracy_of_flat",
    ),
    "fl.aggregation.merge": (
        "fl.aggregation.mean_flat",
        "fl.aggregation.mean_aggregate",
    ),
    "dag.tip_selection.select": ("dag.tip_selection.select",),
    "dag.random_walk.walk": ("dag.random_walk.walk", "dag.random_walk.start"),
    "dag.walk_engine.snapshot_for": ("dag.walk_engine.snapshot_for",),
    "dag.walk_engine.snapshot_build": ("dag.walk_engine.snapshot_build",),
    "dag.walk_engine.snapshot_extend": ("dag.walk_engine.snapshot_extend",),
    "dag.walk_engine.walk_starts": ("dag.walk_engine.walk_starts",),
    "dag.walk_engine.lockstep_walks": ("dag.walk_engine.lockstep_walks",),
    "dag.view.transactions": ("dag.view.transactions", "dag.view.tips"),
    "dag.tangle.add": ("dag.tangle.add",),
    "dag.tangle.compact": ("dag.tangle.compact",),
    "dag.arena.intern": ("dag.arena.intern",),
    "dag.arena.rows": ("dag.arena.rows",),
    # Pure coordination: what the round plan and the executor spend
    # outside the units they run.
    "substrate.execute_round": (
        "substrate.execute_round",
        "substrate.training_plane_round",
        "substrate.executor_map",
    ),
    "substrate.prep_unit": ("substrate.prep_unit", "substrate.unit"),
    # What is left of run_until/step after every child span: queue,
    # visibility and delivery.
    "sim.engine": ("sim.engine.run_until", "sim.engine.step"),
    "service.gateway.tips": ("service.gateway.tips",),
    "service.gateway.publish": ("service.gateway.publish",),
    "service.gateway.current_model": ("service.gateway.current_model",),
    "service.gateway.compact": ("service.gateway.compact",),
    "service.coalescer.submit": ("service.coalescer.submit",),
    "service.ladder.select": ("service.ladder.select",),
}

COALESCER_THREAD = "tip-coalescer"


def _aggregate(threads: dict[str, list[Span]]) -> dict[str, dict[str, float]]:
    totals = group_stats([], GROUPS)
    for spans in threads.values():
        for prefix, stats in group_stats(spans, GROUPS).items():
            total = totals[prefix]
            total["calls"] += stats["calls"]
            total["self_s"] += stats["self_s"]
            total["n"] += stats["n"]
            total["max_ms"] = max(total["max_ms"], stats["max_ms"])
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _scored_under(threads: dict[str, list[Span]]) -> float:
    """Models the nn layer evaluated on behalf of ``fl.client.score``."""
    score = frozenset(GROUPS["fl.client.score"])
    evals = frozenset(GROUPS["nn.eval"])
    models = 0.0
    for spans in threads.values():
        under: list[bool] = []
        for span in spans:
            parent = span.parent
            inside = span.name in score or (parent >= 0 and under[parent])
            under.append(inside)
            if inside and span.name in evals:
                models += span.n
    return models


def untraced_share(
    threads: dict[str, list[Span]], load_walls: dict[str, float]
) -> float:
    """1 - (self time recorded on the load threads) / (their wall).

    ``load_walls`` maps each load-generating thread to the wall clock of
    its timed region.  For the single-threaded workloads that is the
    issue's ``1 - sum(self_s) / traced wall``; with two closed-loop
    callers each thread's timeline is accounted on its own wall (time
    blocked in ``TipCoalescer.submit`` is that span's self time, and
    the coalescer thread's spans break it down without being summed
    twice).
    """
    covered = sum(
        sum(self_times(threads.get(thread, []))) for thread in load_walls
    )
    return 1.0 - _ratio(covered, sum(load_walls.values()))


def layer_metrics(
    threads: dict[str, list[Span]],
    traced_wall: float,
    load_walls: dict[str, float],
    facts: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric, from the traced run's spans plus the
    ``facts`` the workload read off public stats at the end (counts the
    library keeps itself: ``fault_stats``, ``coalescer.stats`` ...).

    ``<x>.share`` is ``self_s / traced wall``.  On ``gateway_mixed``
    three threads run at once, so shares there can add up to more than
    one; ``trace.untraced_share`` is the coverage figure.
    """
    totals = _aggregate(threads)

    def calls(prefix):
        return float(totals[prefix]["calls"])

    def self_s(prefix):
        return totals[prefix]["self_s"]

    def share(prefix):
        return _ratio(self_s(prefix), traced_wall)

    metrics: dict[str, float] = {}

    def timed(prefix, *, with_calls=True, with_max=False):
        if with_calls:
            metrics[f"{prefix}.calls"] = calls(prefix)
        metrics[f"{prefix}.self_s"] = self_s(prefix)
        metrics[f"{prefix}.share"] = share(prefix)
        if with_max:
            metrics[f"{prefix}.max_ms"] = totals[prefix]["max_ms"]

    by_name: dict[str, list[Span]] = defaultdict(list)
    for spans in threads.values():
        for span in spans:
            by_name[span.name].append(span)

    def spans_named(name):
        return by_name.get(name, [])

    # nn
    timed("nn.eval")
    models = totals["nn.eval"]["n"]
    fused_models = sum(s.n for s in spans_named("nn.accuracy_many"))
    metrics["nn.eval.models"] = models
    metrics["nn.eval.fused_share"] = _ratio(fused_models, models)
    timed("nn.train")
    batches = totals["nn.train"]["n"]
    fused_batches = sum(s.n for s in spans_named("nn.lockstep_train"))
    metrics["nn.train.batches"] = batches
    metrics["nn.train.fused_share"] = _ratio(fused_batches, batches)

    # fl
    timed("fl.client.score")
    # Ids asked for: batched requests plus single lookups made directly
    # (tx_accuracies falls back to tx_accuracy per uncached id itself).
    ids = sum(s.n for s in spans_named("fl.client.tx_accuracies")) + sum(
        1
        for spans in threads.values()
        for s in spans
        if s.name == "fl.client.tx_accuracy"
        and (s.parent < 0 or spans[s.parent].name != "fl.client.tx_accuracies")
    )
    metrics["fl.client.score.ids"] = float(ids)
    metrics["fl.client.score.cache_hit_ratio"] = (
        1.0 - _ratio(_scored_under(threads), ids) if ids else 0.0
    )
    timed("fl.client.train", with_calls=False)
    timed("fl.client.evaluate", with_calls=False)
    timed("fl.aggregation.merge")

    # dag
    timed("dag.tip_selection.select")
    timed("dag.random_walk.walk")
    metrics["dag.walk.evaluations"] = facts.get("walk_evaluations", 0.0)
    metrics["dag.walk_engine.snapshot_for.calls"] = calls(
        "dag.walk_engine.snapshot_for"
    )
    timed("dag.walk_engine.snapshot_build")
    timed("dag.walk_engine.snapshot_extend")
    lookups = calls("dag.walk_engine.snapshot_for")
    metrics["dag.walk_engine.snapshot_reuse_ratio"] = (
        1.0
        - _ratio(
            calls("dag.walk_engine.snapshot_build")
            + calls("dag.walk_engine.snapshot_extend"),
            lookups,
        )
        if lookups
        else 0.0
    )
    timed("dag.walk_engine.walk_starts", with_calls=False)
    timed("dag.walk_engine.lockstep_walks")
    timed("dag.view.transactions")
    timed("dag.tangle.add", with_max=True)
    timed("dag.tangle.compact", with_calls=False)
    timed("dag.arena.intern", with_calls=False, with_max=True)
    timed("dag.arena.rows", with_calls=False)
    metrics["dag.arena.resident_mb"] = facts.get("arena_resident_mb", 0.0)
    for key in ("save_s", "load_s", "file_mb"):
        metrics[f"dag.persistence.{key}"] = facts.get(f"persistence_{key}", 0.0)

    # substrate
    timed("substrate.execute_round")
    timed("substrate.prep_unit")
    metrics["substrate.mode_counts.serial"] = float(
        len(spans_named("substrate.executor_map"))
    )
    metrics["substrate.mode_counts.parallel"] = facts.get("mode_parallel", 0.0)
    metrics["substrate.mode_counts.fallback"] = facts.get("mode_fallback", 0.0)

    # sim
    timed("sim.engine", with_calls=False)
    events = facts.get("sim_events", 0.0)
    cycles = facts.get("sim_cycles", 0.0)
    metrics["sim.engine.events"] = events
    metrics["sim.engine.cycles"] = cycles
    metrics["sim.engine.cycles_per_event"] = _ratio(cycles, events)
    for key in ("dropped_links", "quarantined", "crashes"):
        metrics[f"sim.fault.{key}"] = facts.get(f"fault_{key}", 0.0)

    # service
    for endpoint in ("tips", "publish", "current_model", "compact"):
        prefix = f"service.gateway.{endpoint}"
        metrics[f"{prefix}.calls"] = calls(prefix)
        metrics[f"{prefix}.self_s"] = self_s(prefix)
    metrics["service.gateway.compact.stall_ms"] = totals["service.gateway.compact"][
        "max_ms"
    ]
    for endpoint in ("tips", "publish"):
        durations = sorted(
            s.duration * 1000.0 for s in spans_named(f"service.gateway.{endpoint}")
        )
        for label, fraction in (("p50_ms", 0.50), ("p99_ms", 0.99)):
            metrics[f"service.gateway.{endpoint}.{label}"] = (
                durations[min(len(durations) - 1, int(fraction * len(durations)))]
                if durations
                else 0.0
            )
    metrics["service.coalescer.submit_wait_s"] = self_s("service.coalescer.submit")
    metrics["service.coalescer.worker_busy_s"] = sum(
        s.duration for s in threads.get(COALESCER_THREAD, []) if s.parent < 0
    )
    batches_served = facts.get("coalescer_batches", 0.0)
    metrics["service.coalescer.batches"] = batches_served
    metrics["service.coalescer.batch_mean"] = _ratio(
        facts.get("coalescer_requests", 0.0), batches_served
    )
    metrics["service.coalescer.shed"] = facts.get("coalescer_shed", 0.0)
    timed("service.ladder.select", with_calls=False)
    for mode in ("accuracy", "weighted", "uniform", "degraded"):
        metrics[f"service.ladder.{mode}"] = facts.get(f"ladder_{mode}", 0.0)
    metrics["service.admission.shed"] = facts.get("admission_shed", 0.0)

    # Latency of the workload's unit operation as the traced run saw it.
    # The tail is reported here, without a bound: on the shared
    # reference box it moves 20-30% between identical runs.
    metrics["e2e.op_p50_ms"] = facts.get("op_p50_ms", 0.0)
    metrics["e2e.op_tail_ms"] = facts.get("op_tail_ms", 0.0)
    metrics["e2e.op_tail_percentile"] = facts.get("op_tail_percentile", 0.0)

    # quality (exact per seed; tracing does not perturb the seeded run)
    metrics["quality.final_accuracy"] = facts.get("final_accuracy", 0.0)
    metrics["quality.rounds_to_target"] = facts.get("rounds_to_target", 0.0)

    metrics["trace.untraced_share"] = untraced_share(threads, load_walls)
    metrics["trace.overhead_ratio"] = facts.get("overhead_ratio", 0.0)
    return metrics


def _units() -> dict[str, str]:
    """Unit per per-layer metric name, derived from its suffix."""
    probe = layer_metrics({}, 1.0, {}, {})
    units = {}
    for name in probe:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith("_mb"):
            units[name] = "MB"
        elif name.endswith("percentile"):
            units[name] = "%"
        elif name.endswith(
            ("share", "ratio", "final_accuracy", "per_event", "batch_mean")
        ):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


#: name -> unit of every per-layer metric, in reporting order.
PER_LAYER: dict[str, str] = _units()
