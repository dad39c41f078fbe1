"""Tip-selection algorithms.

Three selectors are provided:

- :class:`RandomTipSelector` — uniform over current tips (the paper's
  "random tip selector" baseline in the poisoning study);
- :class:`WeightedTipSelector` — the classic tangle walk biased by
  cumulative transaction weight (Figure 3 of the paper);
- :class:`AccuracyTipSelector` — the paper's contribution: the walk is
  biased by each candidate model's accuracy *on the selecting client's
  local test data* (Algorithm 1), with either the standard (Eq. 1-2) or
  the dynamic-spread (Eq. 3) normalization.

Both walking selectors run on the lockstep engine
(:mod:`repro.dag.walk_engine`): ``select_tips(view, ...)`` is
``select_on_snapshot(snapshot_for(view), ...)``, which the service
gateway calls too, with a request ``deadline``.  ``transition`` keeps
each one's single-step law, which the test reference
:func:`repro.dag.random_walk.sequential_select_tips` applies per step.
"""

from __future__ import annotations

from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from repro.dag import walk_engine
from repro.dag.tangle import Tangle

__all__ = [
    "TipSelector",
    "RandomTipSelector",
    "WeightedTipSelector",
    "AccuracyTipSelector",
    "normalize_standard",
    "normalize_dynamic",
    "accuracy_walk_weights",
]

AccuracyFn = Callable[[str], float]
BatchAccuracyFn = Callable[[Sequence[str]], np.ndarray]
RowAccuracyFn = Callable[[Sequence[str], tuple], np.ndarray]


def normalize_standard(accuracies: np.ndarray) -> np.ndarray:
    """Eq. 1: subtract the maximum accuracy (all values become <= 0)."""
    return accuracies - accuracies.max()


def normalize_dynamic(accuracies: np.ndarray) -> np.ndarray:
    """Eq. 3: additionally divide by the spread of accuracies.

    Makes the walk scale-free w.r.t. the absolute accuracy differences,
    which the paper shows helps small alpha values.  Falls back to the
    standard normalization when all accuracies are equal (zero spread).
    """
    spread = accuracies.max() - accuracies.min()
    shifted = accuracies - accuracies.max()
    if spread <= 0:
        return shifted  # all zero
    return shifted / spread


_NORMALIZATIONS = {
    "standard": normalize_standard,
    "dynamic": normalize_dynamic,
}


def accuracy_walk_weights(
    accuracies: np.ndarray, alpha: float, *, normalization: str = "standard"
) -> np.ndarray:
    """Walk-step probabilities from candidate accuracies (Eq. 1-3).

    ``weight = exp(alpha * normalized)``, then normalized to sum to one.
    Higher ``alpha`` means more determinism; ``alpha = 0`` is uniform.
    """
    try:
        normalize = _NORMALIZATIONS[normalization]
    except KeyError:
        raise ValueError(
            f"unknown normalization {normalization!r}; "
            f"expected one of {sorted(_NORMALIZATIONS)}"
        ) from None
    if accuracies.ndim != 1 or accuracies.size == 0:
        raise ValueError("accuracies must be a non-empty 1-D array")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    weights = np.exp(alpha * normalize(np.asarray(accuracies, dtype=np.float64)))
    return weights / weights.sum()


class TipSelector(Protocol):
    """Interface: produce the tips a new transaction should approve."""

    def select_tips(
        self, tangle: Tangle, count: int, rng: np.random.Generator
    ) -> list[str]:
        """Return ``count`` tip ids (may repeat if fewer tips exist)."""
        ...


class RandomTipSelector:
    """Uniform choice among the current tips (no walk)."""

    def select_tips(
        self, tangle: Tangle, count: int, rng: np.random.Generator
    ) -> list[str]:
        """``count`` tips drawn uniformly (distinct while supply lasts)."""
        tips = tangle.tips()
        distinct = min(count, len(tips))
        chosen = list(rng.choice(len(tips), size=distinct, replace=False))
        selected = [tips[i] for i in chosen]
        while len(selected) < count:
            selected.append(tips[int(rng.integers(0, len(tips)))])
        return selected


class WeightedTipSelector:
    """Classic cumulative-weight-biased walk (traditional tangle).

    Transition weights are ``exp(alpha * (w - max(w)))`` over the
    approvers' cumulative weights, the Markov-chain Monte Carlo rule of
    Popov's tangle.  All ``count`` walks advance in lockstep over a CSR
    snapshot of the visible tangle, with cumulative weights read from
    the snapshot's vectorized array.
    """

    def __init__(self, alpha: float = 0.5, *, depth_range: tuple[int, int] = (15, 25)):
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.alpha = alpha
        self.depth_range = depth_range

    def transition(self, tangle: Tangle, approvers: list[str], rng: np.random.Generator) -> str:
        """One sequential walk step (the reference single-step law)."""
        weights = np.asarray(tangle.cumulative_weights(approvers), dtype=np.float64)
        probs = np.exp(self.alpha * (weights - weights.max()))
        probs /= probs.sum()
        return approvers[int(rng.choice(len(approvers), p=probs))]

    def select_on_snapshot(
        self,
        snapshot: walk_engine.TangleSnapshot,
        count: int,
        rng: np.random.Generator,
        *,
        deadline=None,
    ) -> list[str]:
        """``count`` lockstep walks over ``snapshot``; an expired
        ``deadline`` raises ``WalkDeadlineExceeded`` at a superstep
        boundary, and the check draws nothing from ``rng``."""
        # The snapshot's weight array *is* a complete score table: pass
        # it as the memo so the scoring round-trip never runs.
        weights = snapshot.cumulative_weights_float()
        starts = walk_engine.batched_walk_starts(
            snapshot, count, rng, depth_range=self.depth_range, deadline=deadline
        )
        finals = walk_engine.lockstep_walks(
            snapshot,
            starts,
            lambda nodes: weights[nodes],
            alpha=self.alpha,
            normalization="standard",
            rng=rng,
            score_memo=weights,
            deadline=deadline,
        )
        return [snapshot.ids[node] for node in finals]

    def select_tips(
        self, tangle: Tangle, count: int, rng: np.random.Generator
    ) -> list[str]:
        """``count`` tips via weight-biased walks."""
        return self.select_on_snapshot(walk_engine.snapshot_for(tangle), count, rng)


class AccuracyTipSelector:
    """The paper's accuracy-biased tip selection (Algorithm 1).

    Evaluation contract (the walk's hot path):

    - ``accuracy_fn`` evaluates one transaction's model on the *selecting
      client's* local test data.  Implementations **must** cache per
      transaction id (as :meth:`repro.fl.client.Client.tx_accuracy`
      does): walks revisit candidates constantly, a transaction's model
      never changes, and an uncached function turns every walk step into
      a full model evaluation.
    - ``batch_accuracy_fn``, when given, is preferred over
      ``accuracy_fn``: it receives all not-yet-scored candidate ids of a
      superstep at once and returns their accuracies as one array
      (:meth:`repro.fl.client.Client.tx_accuracies`).  Beyond collapsing
      the per-candidate call overhead, this is the entry point of the
      **fused evaluation plane**: the candidates are evaluated in one
      vectorized forward pass over a ``(k, P)`` stack of their arena rows
      (:meth:`repro.nn.model.Classifier.accuracy_many`), falling back
      per model for architectures without fused kernels.
    - ``row_accuracy_fn``, when given, replaces ``batch_accuracy_fn``
      on snapshots whose nodes are all rows of one arena
      (:meth:`~repro.dag.walk_engine.TangleSnapshot.arena_rows`): it
      receives the ids plus ``(arena, rows)``, their rows in that arena,
      so the scorer stacks them without resolving any id
      (``Client.tx_accuracies(store, ids, arena_rows)``).
    - ``evaluation_counter`` (optional) is called once per particle per
      superstep with that particle's candidate count — the scalability
      experiment (Figure 15) uses it to account walk cost independently
      of caching and batching.

    All ``count`` particles advance in supersteps over a cached CSR
    snapshot of the visible tangle, each superstep scoring the **union**
    of the live particles' frontiers with one ``batch_accuracy_fn``
    call.  The engine samples by Gumbel-max over the softmax weights
    :meth:`transition` feeds to ``rng.choice``: distribution-identical
    to the sequential reference, not draw-for-draw identical.

    At least one of ``accuracy_fn`` / ``batch_accuracy_fn`` is required;
    both may be supplied (the batch function wins).
    """

    def __init__(
        self,
        accuracy_fn: AccuracyFn | None = None,
        *,
        batch_accuracy_fn: BatchAccuracyFn | None = None,
        row_accuracy_fn: RowAccuracyFn | None = None,
        alpha: float = 10.0,
        normalization: str = "standard",
        depth_range: tuple[int, int] = (15, 25),
        evaluation_counter: Callable[[int], None] | None = None,
        score_cache_fn: Callable[[], Mapping[str, float]] | None = None,
        cache_epoch_fn: Callable[[], int] | None = None,
    ):
        if normalization not in _NORMALIZATIONS:
            raise ValueError(f"unknown normalization {normalization!r}")
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        if accuracy_fn is None and batch_accuracy_fn is None:
            raise ValueError(
                "one of accuracy_fn / batch_accuracy_fn is required"
            )
        self.accuracy_fn = accuracy_fn
        self.batch_accuracy_fn = batch_accuracy_fn
        self.row_accuracy_fn = row_accuracy_fn
        self.alpha = alpha
        self.normalization = normalization
        self.depth_range = depth_range
        self.evaluation_counter = evaluation_counter
        # ``score_cache_fn``: returns the caller's
        # transaction-accuracy cache (a tx id -> accuracy mapping, only
        # read), used to prefill the engine's score memo so supersteps
        # only round-trip through the scorer for genuinely unevaluated
        # models.  :func:`repro.substrate.build_selector` wires it to
        # :meth:`repro.fl.client.Client.tx_accuracy_map`, a read-only
        # view of the live cache.
        # ``cache_epoch_fn`` reports that cache's generation
        # (:attr:`Client.cache_epoch`): a bump — reset, wholesale
        # restore, personalization-tail change — invalidates the memo.
        self.score_cache_fn = score_cache_fn
        self.cache_epoch_fn = cache_epoch_fn
        # Per-snapshot engine score memo (node -> accuracy, NaN =
        # unknown).  Sound for the lifetime of a snapshot: a
        # transaction's model never changes and the selector is bound to
        # one client's accuracy function.  Replaced whenever the walk
        # runs against a different snapshot (new epoch or view) or the
        # mirrored cache's epoch changes.
        self._engine_snapshot = None
        self._engine_memo: np.ndarray | None = None
        self._engine_memo_epoch: object = None

    def _candidate_accuracies(self, approvers: list[str]) -> np.ndarray:
        if self.batch_accuracy_fn is not None:
            return np.asarray(self.batch_accuracy_fn(approvers), dtype=np.float64)
        return np.array(
            [self.accuracy_fn(a) for a in approvers], dtype=np.float64
        )

    def transition(self, _tangle: Tangle, approvers: list[str], rng: np.random.Generator) -> str:
        """One sequential walk step (the reference single-step law)."""
        if self.evaluation_counter is not None:
            self.evaluation_counter(len(approvers))
        accuracies = self._candidate_accuracies(approvers)
        probs = accuracy_walk_weights(
            accuracies, self.alpha, normalization=self.normalization
        )
        return approvers[int(rng.choice(len(approvers), p=probs))]

    def select_on_snapshot(
        self,
        snapshot: walk_engine.TangleSnapshot,
        count: int,
        rng: np.random.Generator,
        *,
        deadline=None,
    ) -> list[str]:
        """``count`` lockstep walks over ``snapshot`` (Algorithm 1); the
        ``deadline`` as in :meth:`WeightedTipSelector.select_on_snapshot`."""
        # Without an epoch probe, freshness of mirrored scores can't be
        # proven across calls — rebuild the memo every selection.  With
        # the probe (how build_selector wires clients), the memo
        # persists until the cache's epoch bumps.
        epoch = object() if self.cache_epoch_fn is None else self.cache_epoch_fn()
        if self._engine_snapshot is not snapshot or self._engine_memo_epoch != epoch:
            self._engine_snapshot = snapshot
            self._engine_memo_epoch = epoch
            if self.score_cache_fn is not None and (cache := self.score_cache_fn()):
                get = cache.get
                self._engine_memo = np.array(
                    [get(tx_id, np.nan) for tx_id in snapshot.ids]
                )
            else:
                self._engine_memo = np.full(len(snapshot), np.nan)
        starts = walk_engine.batched_walk_starts(
            snapshot, count, rng, depth_range=self.depth_range, deadline=deadline
        )
        ids = snapshot.ids
        located = None if self.row_accuracy_fn is None else snapshot.arena_rows()

        def score_fn(nodes: np.ndarray) -> np.ndarray:
            tx_ids = [ids[node] for node in nodes.tolist()]
            if located is None:
                return self._candidate_accuracies(tx_ids)
            arena, rows = located
            return np.asarray(
                self.row_accuracy_fn(tx_ids, (arena, rows[nodes])), dtype=np.float64
            )

        finals = walk_engine.lockstep_walks(
            snapshot,
            starts,
            score_fn,
            alpha=self.alpha,
            normalization=self.normalization,
            rng=rng,
            evaluation_counter=self.evaluation_counter,
            score_memo=self._engine_memo,
            deadline=deadline,
        )
        return [snapshot.ids[node] for node in finals]

    def select_tips(
        self, tangle: Tangle, count: int, rng: np.random.Generator
    ) -> list[str]:
        """``count`` tips via accuracy-biased walks (Algorithm 1)."""
        return self.select_on_snapshot(walk_engine.snapshot_for(tangle), count, rng)
