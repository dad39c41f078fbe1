"""Tip-selection algorithms.

Three selectors are provided:

- :class:`RandomTipSelector` — uniform over current tips (the paper's
  "random tip selector" baseline in the poisoning study);
- :class:`WeightedTipSelector` — the classic tangle walk biased by
  cumulative transaction weight (Figure 3 of the paper);
- :class:`AccuracyTipSelector` — the paper's contribution: the walk is
  biased by each candidate model's accuracy *on the selecting client's
  local test data* (Algorithm 1), with either the standard (Eq. 1-2) or
  the dynamic-spread (Eq. 3) normalization.  It takes one callable,
  ``scores(tx_ids, arena_rows)``, that evaluates candidate models on
  the client's data.

Both walking selectors run on the lockstep engine
(:mod:`repro.dag.walk_engine`): ``select_tips(view, ...)`` is
``select_on_snapshot(snapshot_for(view), ...)``, which the service
gateway calls too, with a request ``deadline``.  ``transition`` keeps
each one's single-step law, which the test reference
:func:`repro.dag.random_walk.sequential_select_tips` applies per step.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Mapping, Protocol

import numpy as np

from repro.dag import walk_engine
from repro.dag.tangle import Tangle
from repro.utils.validation import check_count, check_positive

__all__ = [
    "TipSelector",
    "RandomTipSelector",
    "WeightedTipSelector",
    "AccuracyTipSelector",
    "normalize_standard",
    "normalize_dynamic",
    "accuracy_walk_weights",
    "check_walk_settings",
]


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


def check_walk_settings(normalization: str, depth_range: tuple[int, int]) -> None:
    """Raise ``ValueError`` unless ``normalization`` is a known one and
    ``depth_range`` is ``(low, high)`` with integers ``0 <= low <= high``."""
    if normalization not in _NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    low, high = depth_range
    check_count("depth_range low", low, 0)
    check_count("depth_range high", high, low)


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
    check_positive("alpha", alpha, strict=False, finite=True)
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
        check_positive("alpha", alpha, strict=False, finite=True)
        # The weight walk normalizes the standard way (Eq. 1).
        check_walk_settings("standard", depth_range)
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

    Evaluation contract (the walk's hot path): ``scores(tx_ids,
    arena_rows)`` returns the accuracies of the transactions' models on
    the *selecting client's* local test data, one float64 per id, in
    order.  ``arena_rows`` is ``(arena, rows)``, each id's row in the
    walked snapshot's arena
    (:attr:`~repro.dag.walk_engine.TangleSnapshot.arena_rows`), so the
    scorer stacks the candidates without resolving any id; it is
    ``None`` on a snapshot with no arena and in :meth:`transition`.
    :func:`repro.substrate.build_selector` passes
    ``partial(client.tx_accuracies, store)``, which scores a call's
    misses in one fused forward pass
    (:meth:`repro.nn.model.Classifier.accuracy_many`).  A scorer
    **must** cache per transaction id, as ``Client.tx_accuracies``
    does: a transaction's model never changes, and that cache is the
    only dedup across selections.

    ``cached`` (optional) maps ids to the scores ``scores`` would return
    for them; :func:`~repro.substrate.build_selector` passes a copy of
    the client's cache, taken as it builds the selector for one
    selection.  Every selection reads it once into its fresh score
    memo, so on a warm cache the walk asks ``scores`` only for the ids
    it lacks instead of once per superstep.

    ``evaluation_counter`` (optional) is called once per particle per
    superstep with that particle's candidate count — the scalability
    experiment (Figure 15) uses it to account walk cost independently
    of caching and batching.

    All ``count`` particles advance in supersteps over a cached CSR
    snapshot of the visible tangle, each superstep scoring the **union**
    of the live particles' not-yet-scored frontiers with one ``scores``
    call; no id is asked twice within a selection, and the selector
    keeps nothing between selections.  The engine samples by Gumbel-max
    over the softmax weights :meth:`transition` feeds to ``rng.choice``:
    distribution-identical to the sequential reference, not
    draw-for-draw identical.
    """

    def __init__(
        self,
        scores: Callable[[list[str], tuple | None], np.ndarray],
        *,
        alpha: float = 10.0,
        normalization: str = "standard",
        depth_range: tuple[int, int] = (15, 25),
        evaluation_counter: Callable[[int], None] | None = None,
        cached: Mapping[str, float] | None = None,
    ):
        check_positive("alpha", alpha, strict=False, finite=True)
        check_walk_settings(normalization, depth_range)
        self.scores = scores
        self.cached = cached
        self.alpha = alpha
        self.normalization = normalization
        self.depth_range = depth_range
        self.evaluation_counter = evaluation_counter

    def transition(self, _tangle: Tangle, approvers: list[str], rng: np.random.Generator) -> str:
        """One sequential walk step (the reference single-step law)."""
        if self.evaluation_counter is not None:
            self.evaluation_counter(len(approvers))
        accuracies = np.asarray(self.scores(approvers, None), dtype=np.float64)
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
        starts = walk_engine.batched_walk_starts(
            snapshot, count, rng, depth_range=self.depth_range, deadline=deadline
        )
        ids = snapshot.ids
        located = snapshot.arena_rows
        memo = None
        if self.cached:
            memo = np.fromiter(
                map(self.cached.get, ids, repeat(np.nan)), np.float64, len(ids)
            )

        def score_fn(nodes: np.ndarray) -> np.ndarray:
            tx_ids = [ids[node] for node in nodes.tolist()]
            arena_rows = None if located is None else (located[0], located[1][nodes])
            return self.scores(tx_ids, arena_rows)

        finals = walk_engine.lockstep_walks(
            snapshot,
            starts,
            score_fn,
            alpha=self.alpha,
            normalization=self.normalization,
            rng=rng,
            evaluation_counter=self.evaluation_counter,
            score_memo=memo,
            deadline=deadline,
        )
        return [snapshot.ids[node] for node in finals]

    def select_tips(
        self, tangle: Tangle, count: int, rng: np.random.Generator
    ) -> list[str]:
        """``count`` tips via accuracy-biased walks (Algorithm 1)."""
        return self.select_on_snapshot(walk_engine.snapshot_for(tangle), count, rng)
