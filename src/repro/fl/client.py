"""A federated client: local data, local training, cached evaluation."""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.data.base import ClientData
from repro.dag.arena import locate_rows
from repro.dag.tangle import Tangle
from repro.nn.model import Classifier, plan_local_batches
from repro.nn.serialization import Weights
from repro.nn.training_plane import TrainJob, train_grouped
from repro.fl.config import TrainingConfig
from repro.utils.rng import ensure_rng

__all__ = ["Client"]

#: Largest stack of candidate rows one scoring pass gathers, in float64
#: bytes (the dtype :meth:`Classifier.accuracy_many` and
#: :meth:`Client.graft_tail` work in).  :meth:`Client.tx_accuracies`
#: scores its misses in consecutive chunks under this cap (a model larger
#: than the cap is a chunk of one), so a walk start at a wide genesis fan
#: holds one chunk's stack instead of every candidate's.  Each model's
#: accuracy comes from its own forward pass, so no value changes.
_SCORE_BYTES = 1 << 20


class Client:
    """One participant in the federation.

    All clients of a simulation *share* a single :class:`Classifier`
    instance; a client loads whatever weights it needs before running a
    forward pass.  Transaction evaluations (the hot path of the
    accuracy-biased walk) are cached per transaction id — a transaction's
    model never changes, so the cache is sound for the lifetime of a
    tangle — and scored by one path, :meth:`tx_accuracies`.
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
        # One float object per distinct accuracy: over n test samples an
        # accuracy takes at most n + 1 values, so every cache entry points
        # into this table instead of holding a float of its own.
        self._accuracy_values: dict[float, float] = {}
        # Bumped whenever the cache is cleared or replaced wholesale;
        # cache_mark / cache_entries_since compare it to tell a delta
        # from a replaced cache.
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

    def graft_tail(self, rows: np.ndarray) -> np.ndarray:
        """A float64 copy of ``rows`` — one flat model or a ``(k, P)``
        stack — with this client's personal tail in place of the last
        ``personal_params`` arrays: the trailing columns of the flat
        layout.  Requires :meth:`enable_personalization`."""
        grafted = np.array(rows, dtype=np.float64)
        tail = np.concatenate([np.ravel(w) for w in self.personal_tail])
        grafted[..., grafted.shape[-1] - tail.size :] = tail
        return grafted

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
        """(loss, accuracy) of ``weights`` on local test data:
        :meth:`evaluate_flat` of the flattened list."""
        return self.evaluate_flat(self.model.flat_spec.flatten(weights))

    def accuracy_of_weights(self, weights: Weights) -> float:
        """Accuracy of ``weights`` on local test data:
        :meth:`accuracy_of_flat` of the flattened list."""
        return self.accuracy_of_flat(self.model.flat_spec.flatten(weights))

    def accuracy_of_flat(self, flat: np.ndarray) -> float:
        """Accuracy of a flat weight vector on local test data.

        The loss-free twin of :meth:`evaluate_flat`, used for the
        reference (publish-gate baseline) of every cycle and round unit:
        :meth:`Classifier.accuracy` skips the cross-entropy entirely.

        A model carrying non-finite weights scores the worst possible
        accuracy, 0.0, without a forward pass: NaN logits would make the
        argmax (and thus the "accuracy") an artifact of tie-breaking
        rather than a judgment, and a corrupted model must never look
        attractive to the accuracy-biased walk.  The query still counts
        as one evaluation.
        """
        if not np.isfinite(flat).all():
            self.evaluations += 1
            return 0.0
        self.model.load_flat(flat)
        self.evaluations += 1
        return self.model.accuracy(self.data.x_test, self.data.y_test)

    def evaluate_flat(self, flat: np.ndarray) -> tuple[float, float]:
        """(loss, accuracy) of a flat weight vector on local test data.

        The training plane's post-training entry point: the trained row
        comes straight off the lockstep ``(K, P)`` stack and loads via
        :meth:`Classifier.load_flat` — no per-layer list is built.  A
        non-finite vector gets :meth:`accuracy_of_flat`'s guard: one
        evaluation counted, no forward pass, ``(inf, 0.0)``.
        """
        if not np.isfinite(flat).all():
            self.evaluations += 1
            return np.inf, 0.0
        self.model.load_flat(flat)
        self.evaluations += 1
        return self.model.evaluate(self.data.x_test, self.data.y_test)

    def tx_accuracy(self, tangle: Tangle, tx_id: str) -> float:
        """Cached accuracy of one transaction's model:
        :meth:`tx_accuracies` of ``[tx_id]``."""
        return float(self.tx_accuracies(tangle, [tx_id])[0])

    def tx_accuracies(
        self, tangle: Tangle, tx_ids: list[str], arena_rows: tuple | None = None
    ) -> np.ndarray:
        """Cached accuracies of the transactions' models on local test
        data, in the order of ``tx_ids``.

        The walk's evaluation entry point: under the lockstep engine one
        call covers a superstep's union frontier.  Cached ids are
        dictionary lookups; the misses are deduplicated, their arena
        rows gathered — from ``arena_rows`` (``(arena, rows)``, each
        id's row: the walk snapshot's
        :attr:`~repro.dag.walk_engine.TangleSnapshot.arena_rows`) or
        through ``tangle.get`` (:func:`~repro.dag.arena.locate_rows`),
        with the same values, cache entries and evaluation count — and
        scored by :meth:`Classifier.accuracy_many` (one fused pass) in
        consecutive chunks of at most ``_SCORE_BYTES`` of float64 rows.
        Raises ``ValueError``, before evaluating anything, when the arena
        is not laid out like this client's model.

        Under personalization each model is judged with this client's
        tail grafted on (:meth:`graft_tail`) — the client judges foreign
        bodies by how well they serve *its* head — and a grafted row
        carrying non-finite weights scores 0.0, as in
        :meth:`accuracy_of_flat`.
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
        if arena_rows is None:
            arena, rows = locate_rows([tangle.get(tx_id) for tx_id in pending])
        else:
            arena = arena_rows[0]
            rows = arena_rows[1][[positions[0] for positions in pending.values()]]
        if arena.spec != self.model.flat_spec:
            raise ValueError("the arena is not laid out like this client's model")
        # Each chunk's stack is gathered, scored and dropped before the
        # next one: a walk start at a wide fan holds one chunk, not every
        # missing row (up to 8.5 MB in the 1,000-client event engine).
        step = max(1, _SCORE_BYTES // (8 * arena.spec.total))
        values: list[float] = []
        for start in range(0, len(rows), step):
            values += self._score_rows(arena.rows(rows[start : start + step])).tolist()
        self.evaluations += len(pending)
        shared = self._accuracy_values
        for (tx_id, positions), accuracy in zip(pending.items(), values):
            accuracy = shared.setdefault(accuracy, accuracy)
            cache[tx_id] = accuracy
            for position in positions:
                out[position] = accuracy
        return out

    def _score_rows(self, rows: np.ndarray) -> np.ndarray:
        """Accuracies of a ``(k, P)`` stack on local test data: one
        :meth:`Classifier.accuracy_many`, with this client's tail grafted
        on under personalization (a non-finite grafted row scores 0.0)."""
        x, y = self.data.x_test, self.data.y_test
        if not self.personal_params:
            return self.model.accuracy_many(rows, x, y)
        grafted = self.graft_tail(rows)
        finite = np.isfinite(grafted).all(axis=1)
        values = np.zeros(len(grafted))
        values[finite] = self.model.accuracy_many(grafted[finite], x, y)
        return values

    def tx_accuracy_cache(self) -> dict[str, float]:
        """Snapshot of the cached transaction evaluations.

        The substrate ships this across process boundaries so a worker's
        warmed cache survives into the next round on the coordinator's
        canonical client.
        """
        return dict(self._tx_accuracy_cache)

    def restore_tx_accuracy_cache(self, entries: dict[str, float]) -> None:
        """Replace the evaluation cache with ``entries`` (copied)."""
        self._tx_accuracy_cache = self._shared_entries(entries)
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
        return dict(islice(self._tx_accuracy_cache.items(), count, None))

    def merge_tx_accuracy_cache(self, entries: dict[str, float]) -> None:
        """Fold a worker's delta entries into the cache **without** an
        epoch bump — the in-process equivalent is plain cache warming,
        which bumps none either."""
        self._tx_accuracy_cache.update(self._shared_entries(entries))

    def _shared_entries(self, entries: dict[str, float]) -> dict[str, float]:
        """A copy of ``entries`` whose values are this client's shared
        accuracy objects (as :meth:`tx_accuracies` stores them)."""
        shared = self._accuracy_values
        return {
            tx_id: shared.setdefault(accuracy, accuracy)
            for tx_id, accuracy in entries.items()
        }

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
    def plan_job(
        self,
        start_flat: np.ndarray,
        tag: object = None,
        *,
        mu: float | None = None,
        epochs: int | None = None,
    ) -> TrainJob:
        """Local training from ``start_flat`` as a lockstep job (``mu``:
        FedProx's proximal term; ``epochs`` overrides the config's).

        Planning consumes the shuffle rng exactly as ``train_local``
        would, so callers plan jobs in the order they would train them.
        """
        config, x, y = self.config, self.data.x_train, self.data.y_train
        batches = plan_local_batches(
            x.shape[0],
            self.rng,
            epochs=config.local_epochs if epochs is None else epochs,
            batch_size=config.batch_size,
            max_batches=config.local_batches,
        )
        return TrainJob(
            x, y, batches, start_flat, tag, lr=config.learning_rate, momentum=config.momentum, mu=mu
        )

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

        A one-job :func:`~repro.nn.training_plane.train_grouped`, the
        path every round and cycle trains through, for callers holding
        a weight list (the service demo's clients).
        """
        spec = self.model.flat_spec
        job = self.plan_job(spec.flatten(weights), mu=proximal_mu, epochs=epochs_override)
        row, loss = train_grouped([(self.model, [job])])[None]
        return spec.unflatten(row), loss
