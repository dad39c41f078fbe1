"""High-level classifier wrapper around a :class:`Sequential` network."""

from __future__ import annotations

import numpy as np

from repro.nn.losses import softmax_cross_entropy, softmax_probabilities
from repro.nn.module import Sequential
from repro.nn.optimizers import SGD
from repro.nn.serialization import FlatSpec, Weights

__all__ = ["Classifier", "plan_local_batches"]


def plan_local_batches(
    n: int,
    rng: np.random.Generator,
    *,
    epochs: int = 1,
    batch_size: int = 10,
    max_batches: int | None = None,
) -> list[np.ndarray]:
    """The batch index schedule of :meth:`Classifier.train_local`.

    Draws the per-epoch shuffles from ``rng`` exactly as the training
    loop historically did (one permutation per epoch, extra permutations
    to fill ``max_batches`` when the dataset is smaller than the batch
    budget), and returns all epochs' index batches as one flat list in
    training order.  Both :meth:`Classifier.train_local` and the
    lockstep training plane build their schedules here, so the plane's
    supersteps consume the client generator identically to the
    sequential loop — schedule planning IS the loop's rng consumption.
    """
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    schedule: list[np.ndarray] = []
    for _ in range(epochs):
        order = rng.permutation(n)
        batches = [order[s : s + batch_size] for s in range(0, n, batch_size)]
        if max_batches is not None:
            while len(batches) < max_batches:
                extra_order = rng.permutation(n)
                batches.extend(
                    extra_order[s : s + batch_size] for s in range(0, n, batch_size)
                )
            batches = batches[:max_batches]
        schedule.extend(batches)
    return schedule


class Classifier:
    """A classification model: network producing logits + CE loss.

    Provides the operations federated-learning code needs: batched
    training with a fixed batch budget, evaluation (loss + accuracy), and
    weight get/set so the same instance can be re-pointed at arbitrary
    weights (crucial for cheap model evaluation during the random walk).
    Weight loading is strictly in-place — parameter value and gradient
    buffers are allocated once at construction and reused for every load
    (the walk loads weights thousands of times without ever training).
    :meth:`load_flat` is the flat-plane fast path: point the model at an
    arena row or any contiguous vector without touching per-layer lists.
    """

    def __init__(self, net: Sequential):
        self.net = net
        self._params = net.parameters()
        self._spec = FlatSpec.from_parameters(self._params)

    # ----------------------------------------------------------- weights
    @property
    def flat_spec(self) -> FlatSpec:
        """Flat layout (shapes/offsets) of this model's parameters."""
        return self._spec

    def get_weights(self) -> Weights:
        """Copy of the current weights, in parameter order."""
        return [p.value.copy() for p in self._params]

    def get_flat(self) -> np.ndarray:
        """Copy of the current weights as one flat vector."""
        out = np.empty(self._spec.total, dtype=np.float64)
        for param, offset, size in zip(
            self._params, self._spec.offsets, self._spec.sizes
        ):
            out[offset : offset + size] = param.value.reshape(-1)
        return out

    def set_weights(self, weights: Weights) -> None:
        """Load weights (copied, in place) into the model."""
        if len(weights) != len(self._params):
            raise ValueError(
                f"expected {len(self._params)} arrays, got {len(weights)}"
            )
        for param, value in zip(self._params, weights):
            value = np.asarray(value)
            if param.value.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {param.name}: "
                    f"{param.value.shape} vs {value.shape}"
                )
            param.assign(value)

    def load_flat(self, flat: np.ndarray) -> None:
        """Load weights from one flat vector, copying in place.

        The fast path for walk evaluation over arena-resident models: no
        per-layer list is materialized and no buffer is allocated.
        """
        flat = np.asarray(flat)
        if flat.shape != (self._spec.total,):
            raise ValueError(
                f"expected a ({self._spec.total},) flat vector, got {flat.shape}"
            )
        for param, offset, size in zip(
            self._params, self._spec.offsets, self._spec.sizes
        ):
            param.assign(flat[offset : offset + size].reshape(param.value.shape))

    @property
    def parameter_count(self) -> int:
        return sum(p.size for p in self._params)

    # ---------------------------------------------------------- inference
    def logits(self, x: np.ndarray) -> np.ndarray:
        return self.net.forward(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class indices."""
        return self.logits(x).argmax(axis=1)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Predicted class probabilities."""
        return softmax_probabilities(self.logits(x))

    def evaluate(
        self, x: np.ndarray, y: np.ndarray, *, batch_size: int = 256
    ) -> tuple[float, float]:
        """Return ``(mean_loss, accuracy)`` over a dataset."""
        n = x.shape[0]
        if n == 0:
            raise ValueError("cannot evaluate on an empty dataset")
        total_loss = 0.0
        correct = 0
        for start in range(0, n, batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits = self.net.forward(xb)
            loss, _ = softmax_cross_entropy(logits, yb)
            total_loss += loss * xb.shape[0]
            correct += int((logits.argmax(axis=1) == yb).sum())
        return total_loss / n, correct / n

    def accuracy(
        self, x: np.ndarray, y: np.ndarray, *, batch_size: int = 256
    ) -> float:
        """Accuracy only — skips the cross-entropy computation.

        The random walk evaluates candidate models by accuracy alone, so
        this path never builds softmax probabilities or the loss; it is
        exactly :meth:`evaluate`'s accuracy for the same inputs (same
        forward pass, same argmax).
        """
        n = x.shape[0]
        if n == 0:
            raise ValueError("cannot evaluate on an empty dataset")
        correct = 0
        for start in range(0, n, batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits = self.net.forward(xb)
            correct += int((logits.argmax(axis=1) == yb).sum())
        return correct / n

    @property
    def supports_fused_eval(self) -> bool:
        """True when every layer has fused multi-model kernels
        (``net.fused``).

        When False, :meth:`accuracy_many` still works — it falls back to
        the sequential per-model loop (:meth:`load_flat` +
        :meth:`accuracy`) — it just cannot fuse the models' forwards.
        """
        return self.net.fused

    @property
    def supports_fused_train(self) -> bool:
        """True when every layer has fused multi-model kernels
        (``net.fused``): one ``forward_many`` serves evaluation and
        training, so the two gates cannot differ.

        The gate for the lockstep training plane
        (:mod:`repro.nn.training_plane`): Dense/conv/pooling/
        activation/reshape/dropout stacks qualify; LSTM and embedding
        layers do not, and models containing them train through the
        automatic per-model fallback instead.
        """
        return self.net.fused

    def accuracy_many(
        self, flat_rows: np.ndarray, x: np.ndarray, y: np.ndarray, *, batch_size: int = 256
    ) -> np.ndarray:
        """Accuracy of ``k`` models (rows of a ``(k, P)`` matrix) at once.

        The walk's fused evaluation plane: the rows — typically a slab
        slice straight out of a tangle's weight arena — are viewed as
        per-parameter ``(k, *shape)`` stacks (no weight copies) and every
        model's forward runs in one vectorized pass per batch
        (:meth:`Sequential.forward_many`).  ``k`` is one walk step's
        uncached candidates, or — under the lockstep multi-walk engine —
        the deduplicated union frontier of every live particle of a
        selection, the widest batches this entry point receives.  The batched kernels perform
        the same per-model numpy products as the sequential path, so in
        float64 the result is bit-identical to calling :meth:`load_flat`
        + :meth:`accuracy` per row — which remains the automatic
        fallback whenever a layer lacks a fused kernel (LSTM,
        embedding).

        Note the fused path never touches the model's own parameter
        buffers; the fallback (like any :meth:`load_flat`) leaves the
        last row's weights loaded.
        """
        rows = np.asarray(flat_rows)
        if rows.ndim != 2 or rows.shape[1] != self._spec.total:
            raise ValueError(
                f"expected a (k, {self._spec.total}) matrix, got shape {rows.shape}"
            )
        k = rows.shape[0]
        if k == 0:
            return np.empty(0, dtype=np.float64)
        if not self.supports_fused_eval:
            out = np.empty(k, dtype=np.float64)
            for i in range(k):
                self.load_flat(rows[i])
                out[i] = self.accuracy(x, y, batch_size=batch_size)
            return out
        n = x.shape[0]
        if n == 0:
            raise ValueError("cannot evaluate on an empty dataset")
        if rows.dtype != np.float64:
            # Match load_flat's cast-on-assign (e.g. float32 arenas).
            rows = rows.astype(np.float64)
        params = self._spec.unflatten_many(rows)
        correct = np.zeros(k, dtype=np.int64)
        for start in range(0, n, batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits, batched = self.net.forward_many(xb, params)
            if not batched:  # degenerate: no parametered layer in the net
                logits = np.broadcast_to(logits, (k,) + logits.shape)
            correct += (logits.argmax(axis=-1) == yb).sum(axis=1)
        return correct / n

    # ----------------------------------------------------------- training
    def train_batch(self, x: np.ndarray, y: np.ndarray, optimizer: SGD) -> float:
        """One optimizer step on a single batch; returns the batch loss."""
        # Backward passes accumulate into the grad buffers; zero them
        # here, the one place they are consumed.  This is the *only*
        # zeroing per batch — optimizers deliberately leave gradients in
        # place after a step, so neither interleaved weight loads nor
        # optimizer steps pay a redundant O(P) clearing pass.
        for param in self._params:
            param.zero_grad()
        caches: list[dict] = [{} for _ in self.net.layers]
        logits = self.net.forward(x, caches)
        loss, grad = softmax_cross_entropy(logits, y)
        self.net.backward(grad, caches)
        optimizer.step(self._params)
        return loss

    def train_local(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimizer: SGD,
        rng: np.random.Generator,
        *,
        epochs: int = 1,
        batch_size: int = 10,
        max_batches: int | None = None,
    ) -> float:
        """Local training loop used by all FL clients.

        ``max_batches`` caps the number of batches *per epoch* (the paper
        fixes the number of local batches to equalize compute across
        clients with unevenly sized datasets).  Batches are sampled by
        shuffling; when the dataset is smaller than the batch budget the
        shuffled data is recycled.  Returns the mean batch loss across the
        whole call.

        The schedule comes from :func:`plan_local_batches`, the shared
        planner the lockstep training plane also uses — so fused and
        sequential training see identical batches for identical rng
        state.
        """
        batches = plan_local_batches(
            x.shape[0],
            rng,
            epochs=epochs,
            batch_size=batch_size,
            max_batches=max_batches,
        )
        losses = [self.train_batch(x[idx], y[idx], optimizer) for idx in batches]
        return float(np.mean(losses))
