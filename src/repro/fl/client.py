"""A federated client: local data, local training, cached evaluation."""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.data.base import ClientData
from repro.dag.arena import shared_rows
from repro.dag.tangle import Tangle
from repro.nn.model import Classifier
from repro.nn.optimizers import SGD, ProximalSGD
from repro.nn.serialization import Weights
from repro.fl.config import TrainingConfig
from repro.utils.rng import ensure_rng

__all__ = ["Client"]


class Client:
    """One participant in the federation.

    All clients of a simulation *share* a single :class:`Classifier`
    instance; a client loads whatever weights it needs before running a
    forward pass.  Transaction evaluations (the hot path of the
    accuracy-biased walk) are cached per transaction id — a transaction's
    model never changes, so the cache is sound for the lifetime of a
    tangle.
    """

    def __init__(
        self,
        data: ClientData,
        model: Classifier,
        config: TrainingConfig,
        rng: np.random.Generator | int,
    ):
        self.data = data
        self.model = model
        self.config = config
        self.rng = ensure_rng(rng)
        self._tx_accuracy_cache: dict[str, float] = {}
        # Bumped whenever the cache is cleared or replaced wholesale;
        # mirrors of the cache (the walk engine's score memo) compare it
        # to notice their copy went stale.
        self.cache_epoch = 0
        self.evaluations = 0  # lifetime count of *uncached* model evaluations
        self.personal_params = 0
        self.personal_tail: list[np.ndarray] | None = None

    @property
    def client_id(self) -> int:
        return self.data.client_id

    # ----------------------------------------------------- personalization
    def enable_personalization(self, count: int, initial: Weights) -> None:
        """Keep the last ``count`` parameter arrays client-local.

        ``initial`` supplies the starting values (typically the genesis
        weights).  From then on, every model this client consumes — in
        walks, references, and evaluations — has its tail replaced by the
        client's own personal layers (the paper's future-work extension).
        """
        if count <= 0:
            raise ValueError("count must be > 0")
        if count > len(initial):
            raise ValueError(
                f"cannot personalize {count} of {len(initial)} arrays"
            )
        self.personal_params = count
        self.personal_tail = [np.array(w, copy=True) for w in initial[-count:]]

    def apply_personalization(self, weights: Weights) -> Weights:
        """Graft this client's personal tail onto ``weights`` (copied)."""
        if not self.personal_params or self.personal_tail is None:
            return weights
        return [
            *[w for w in weights[: -self.personal_params]],
            *[np.array(w, copy=True) for w in self.personal_tail],
        ]

    def update_personal_tail(self, weights: Weights) -> None:
        """Adopt the tail of freshly trained ``weights`` as the new
        personal layers; invalidates cached evaluations (they embedded the
        previous tail)."""
        if not self.personal_params:
            return
        self.personal_tail = [
            np.array(w, copy=True) for w in weights[-self.personal_params :]
        ]
        self.reset_cache()

    # ---------------------------------------------------------- evaluation
    def evaluate_weights(self, weights: Weights) -> tuple[float, float]:
        """(loss, accuracy) of ``weights`` on this client's local test data.

        Non-finite weights get :meth:`accuracy_of_weights`' guard: one
        evaluation counted, no forward pass, ``(inf, 0.0)``.
        """
        if any(not np.isfinite(w).all() for w in weights):
            self.evaluations += 1
            return np.inf, 0.0
        self.model.set_weights(weights)
        self.evaluations += 1
        return self.model.evaluate(self.data.x_test, self.data.y_test)

    def accuracy_of_weights(self, weights: Weights) -> float:
        """Accuracy of ``weights`` on local test data (loss-free path).

        Routed through :meth:`Classifier.accuracy`, which skips the
        cross-entropy computation entirely — the value is identical to
        ``evaluate_weights(weights)[1]`` (same forward pass, same argmax).

        A model carrying non-finite weights scores the worst possible
        accuracy, 0.0, without a forward pass: NaN logits would make the
        argmax (and thus the "accuracy") an artifact of tie-breaking
        rather than a judgment, and a corrupted model must never look
        attractive to the accuracy-biased walk.  The query still counts
        as one evaluation.
        """
        if any(not np.isfinite(w).all() for w in weights):
            self.evaluations += 1
            return 0.0
        self.model.set_weights(weights)
        self.evaluations += 1
        return self.model.accuracy(self.data.x_test, self.data.y_test)

    def accuracy_of_flat(self, flat: np.ndarray) -> float:
        """:meth:`accuracy_of_weights` for a flat weight vector.

        The loss-free twin of :meth:`evaluate_flat`, used for the
        reference (publish-gate baseline) of every cycle and round unit
        — same forward pass and argmax as
        ``accuracy_of_weights(spec.unflatten(flat))``, no per-layer list
        — including the non-finite guard (a corrupt vector scores 0.0
        without a forward pass).
        """
        if not np.isfinite(flat).all():
            self.evaluations += 1
            return 0.0
        self.model.load_flat(flat)
        self.evaluations += 1
        return self.model.accuracy(self.data.x_test, self.data.y_test)

    def evaluate_flat(self, flat: np.ndarray) -> tuple[float, float]:
        """:meth:`evaluate_weights` for a flat weight vector.

        The training plane's post-training entry point: the trained row
        comes straight off the lockstep ``(K, P)`` stack and loads via
        :meth:`Classifier.load_flat` — no per-layer list is built.
        Bookkeeping (the evaluation counter) and the non-finite guard
        match :meth:`evaluate_weights` exactly.
        """
        if not np.isfinite(flat).all():
            self.evaluations += 1
            return np.inf, 0.0
        self.model.load_flat(flat)
        self.evaluations += 1
        return self.model.evaluate(self.data.x_test, self.data.y_test)

    def tx_accuracy(self, tangle: Tangle, tx_id: str) -> float:
        """Cached accuracy of a transaction's model on local test data.

        With personalization enabled, the transaction's model is evaluated
        with this client's personal tail grafted on — the client judges
        foreign bodies by how well they serve *its* head.

        ``tangle`` may be any object with a ``get(tx_id)`` method (a
        :class:`~repro.dag.tangle.Tangle` or one of its views); the cache
        is keyed by transaction id alone, which is sound because a
        transaction's model never changes.

        The walk's inner loop: without personalization, an arena-resident
        model is loaded straight from its flat row
        (:meth:`Classifier.load_flat`) — no per-layer list, no gradient
        reallocation, no loss computation.
        """
        cached = self._tx_accuracy_cache.get(tx_id)
        if cached is not None:
            return cached
        tx = tangle.get(tx_id)
        if not self.personal_params and tx.arena_bound:
            try:
                flat = tx.flat_vector(self.model.flat_spec)
            except ValueError:  # tangle architecture differs from the model
                flat = None
            if flat is not None:
                self.model.load_flat(flat)
                self.evaluations += 1
                accuracy = self.model.accuracy(self.data.x_test, self.data.y_test)
                self._tx_accuracy_cache[tx_id] = accuracy
                return accuracy
        weights = self.apply_personalization(tx.model_weights)
        accuracy = self.accuracy_of_weights(weights)
        self._tx_accuracy_cache[tx_id] = accuracy
        return accuracy

    def tx_accuracies(
        self, tangle: Tangle, tx_ids: list[str], arena_rows: tuple | None = None
    ) -> np.ndarray:
        """Batched :meth:`tx_accuracy` over all of ``tx_ids``.

        The walk's preferred evaluation entry point: one call per walk
        step covers every candidate approver — and under the lockstep
        engine one call per *superstep* covers the union frontier of
        every live particle, the widest batches this method sees.
        Cached ids are dictionary lookups; the uncached remainder is
        deduplicated and — when the
        model's layers all have fused kernels and no personalization is
        active — evaluated in **one fused forward pass** over a
        ``(k, P)`` stack of the candidates' flat rows
        (:meth:`Classifier.accuracy_many`), sliced zero-copy from the
        tangle's weight arena when the rows are contiguous.  Candidates
        the fused plane cannot take (foreign architectures, unfused
        layers, personalization) fall back to the per-model
        :meth:`tx_accuracy` loop, which is bit-identical in float64.
        Returns accuracies in the order of ``tx_ids``.

        ``arena_rows`` — ``(arena, rows)``, each id's row in one
        :class:`~repro.dag.arena.WeightArena` (the walk engine's
        :meth:`~repro.dag.walk_engine.TangleSnapshot.arena_rows`) —
        lets the fused pass gather the uncached models straight from
        the arena, resolving no id in ``tangle``.  The values, cache
        entries and evaluation count are those of the call without it;
        it is ignored whenever the fused pass could not take the arena
        (personalization, unfused layers, another architecture).
        """
        out = np.empty(len(tx_ids), dtype=np.float64)
        cache = self._tx_accuracy_cache
        pending: dict[str, list[int]] = {}
        for position, tx_id in enumerate(tx_ids):
            cached = cache.get(tx_id)
            if cached is not None:
                out[position] = cached
            else:
                pending.setdefault(tx_id, []).append(position)
        if not pending:
            return out
        if arena_rows is not None and self._fuses_arena(arena_rows[0]):
            arena, rows = arena_rows
            firsts = [positions[0] for positions in pending.values()]
            values = self.model.accuracy_many(
                arena.rows(rows[firsts]), self.data.x_test, self.data.y_test
            ).tolist()
            self.evaluations += len(pending)
            for (tx_id, positions), accuracy in zip(pending.items(), values):
                cache[tx_id] = accuracy
                for position in positions:
                    out[position] = accuracy
            return out
        for tx_id, accuracy in self._evaluate_uncached(tangle, list(pending)).items():
            for position in pending[tx_id]:
                out[position] = accuracy
        return out

    def _fuses_arena(self, arena) -> bool:
        """Whether the fused pass can evaluate ``arena``'s rows as they
        are: no personal tail to graft, fused kernels, same layout."""
        return (
            not self.personal_params
            and self.model.supports_fused_eval
            and arena.spec == self.model.flat_spec
        )

    def _evaluate_uncached(
        self, tangle: Tangle, tx_ids: list[str]
    ) -> dict[str, float]:
        """Evaluate distinct uncached transactions, fused where possible."""
        accuracies: dict[str, float] = {}
        if not self.personal_params and self.model.supports_fused_eval:
            spec = self.model.flat_spec
            transactions = [tangle.get(tx_id) for tx_id in tx_ids]
            fused_ids, stacked = tx_ids, shared_rows(transactions, spec)
            if stacked is None:  # mixed storage: stack what flattens
                fused_ids, flats = [], []
                for tx_id, tx in zip(tx_ids, transactions):
                    try:
                        flats.append(tx.flat_vector(spec))
                    except ValueError:
                        continue  # foreign architecture: per-model below
                    fused_ids.append(tx_id)
                stacked = np.stack(flats) if flats else None
            if stacked is not None:
                values = self.model.accuracy_many(
                    stacked, self.data.x_test, self.data.y_test
                )
                self.evaluations += len(fused_ids)
                for tx_id, value in zip(fused_ids, values):
                    accuracy = float(value)
                    self._tx_accuracy_cache[tx_id] = accuracy
                    accuracies[tx_id] = accuracy
        for tx_id in tx_ids:
            if tx_id not in accuracies:
                accuracies[tx_id] = self.tx_accuracy(tangle, tx_id)
        return accuracies

    def tx_accuracy_cache(self) -> dict[str, float]:
        """Snapshot of the cached transaction evaluations.

        The substrate ships this across process boundaries so a worker's
        warmed cache survives into the next round on the coordinator's
        canonical client.
        """
        return dict(self._tx_accuracy_cache)

    def tx_accuracy_map(self) -> Mapping[str, float]:
        """Read-only live view of the cached transaction evaluations —
        what a selector prefills its score memo from, without the copy
        :meth:`tx_accuracy_cache` makes."""
        return MappingProxyType(self._tx_accuracy_cache)

    def restore_tx_accuracy_cache(self, entries: dict[str, float]) -> None:
        """Replace the evaluation cache with ``entries`` (copied)."""
        self._tx_accuracy_cache = dict(entries)
        self.cache_epoch += 1

    def cache_mark(self) -> tuple[int, int]:
        """Position marker ``(epoch, entry_count)`` for delta extraction.

        Take one before a work unit runs; afterwards
        :meth:`cache_entries_since` yields exactly the evaluations the
        unit added — the only part of the cache worth shipping back
        across a process boundary, since the coordinator's canonical
        client already holds everything before the mark.
        """
        return (self.cache_epoch, len(self._tx_accuracy_cache))

    def cache_entries_since(self, mark: tuple[int, int]) -> dict[str, float] | None:
        """Entries added after ``mark``, or None when the cache was
        reset/replaced since (the delta is no longer a pure suffix and
        the full cache must ship instead).

        Sound because the cache is append-only within an epoch and dicts
        preserve insertion order: the delta is the suffix past the
        marked length.
        """
        epoch, count = mark
        if self.cache_epoch != epoch:
            return None
        items = list(self._tx_accuracy_cache.items())
        return dict(items[count:])

    def merge_tx_accuracy_cache(self, entries: dict[str, float]) -> None:
        """Fold a worker's delta entries into the cache **without** an
        epoch bump — the in-process equivalent is plain cache warming,
        which mirrors (the walk engine's score memo) survive."""
        self._tx_accuracy_cache.update(entries)

    def reset_cache(self) -> None:
        """Drop cached transaction evaluations (e.g. when data changes)."""
        self._tx_accuracy_cache.clear()
        self.cache_epoch += 1

    def _cost_footprint(self, walk) -> tuple[int, int]:
        """(shipped bytes, dense bytes) for the substrate's router:
        data + model (memoized — shared architectures count once) plus
        the evaluation cache."""
        data_ipc, data_dense = walk(self.data)
        model_ipc, model_dense = walk(self.model)
        cache = 64 * len(self._tx_accuracy_cache) + 256
        return data_ipc + model_ipc + cache, data_dense + model_dense + cache

    # ------------------------------------------------------------ training
    def train(
        self,
        weights: Weights,
        *,
        proximal_mu: float | None = None,
        epochs_override: int | None = None,
    ) -> tuple[Weights, float]:
        """Local training starting from ``weights``.

        Returns the trained weights and the mean training loss.  With
        ``proximal_mu`` set, uses the FedProx proximal objective anchored
        at the incoming weights.

        The baselines' path (FedAvg, FedProx, gossip; the service
        demo's clients).  DAG cycles and round units train through the
        lockstep plane instead
        (:func:`repro.nn.training_plane.train_grouped`), bit-identically.
        """
        config = self.config
        epochs = epochs_override if epochs_override is not None else config.local_epochs
        self.model.set_weights(weights)
        if proximal_mu is not None:
            optimizer: SGD = ProximalSGD(
                config.learning_rate, proximal_mu, momentum=config.momentum
            )
            optimizer.set_reference(weights)
        else:
            optimizer = SGD(config.learning_rate, momentum=config.momentum)
        loss = self.model.train_local(
            self.data.x_train,
            self.data.y_train,
            optimizer,
            self.rng,
            epochs=epochs,
            batch_size=config.batch_size,
            max_batches=config.local_batches,
        )
        # get_weights() already returns fresh copies — no defensive clone.
        return self.model.get_weights(), loss
