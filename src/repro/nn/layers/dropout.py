"""Inverted dropout."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Layer
from repro.utils.rng import advance_rng, clone_rng, ensure_rng

__all__ = ["Dropout"]


class Dropout(Layer):
    """Inverted dropout: active only on a training pass (one given a
    ``cache``); an evaluation pass is the identity and draws nothing.

    A one-model pass draws its mask from the layer's own generator,
    seeded at construction, so training remains deterministic under the
    experiment seed; the mask lives in the caller's cache, and
    :meth:`backward` is the fused kernel's.

    **Lockstep training.**  Under the fused training plane ``k`` models
    train at once, but the sequential reference consumes this layer's
    *single* stream model-after-model.  The trainer therefore gives each
    model its own stream via :meth:`fork_stream` — a clone of the layer
    generator fast-forwarded to the position the sequential run would
    have reached when that model's training began — and reconciles the
    layer's own generator with :meth:`consume_draws`, so a lockstep
    round leaves the stream exactly where the per-client loop would.
    """

    fused = True

    def __init__(self, rate: float, rng: np.random.Generator | int | None = None):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = ensure_rng(rng)

    @property
    def train_active(self) -> bool:
        """True when training forwards draw masks (and consume rng)."""
        return self.rate > 0.0

    # ------------------------------------------------- lockstep rng streams
    def fork_stream(self, offset: int) -> np.random.Generator:
        """Independent clone of the layer stream, ``offset`` draws ahead.

        ``offset`` counts mask scalars: the clone starts at the state the
        layer's generator would hold after drawing that many uniforms.
        The layer's own generator is not advanced.
        """
        return advance_rng(clone_rng(self._rng), offset)

    def consume_draws(self, count: int) -> None:
        """Advance the layer's generator as if ``count`` mask scalars had
        been drawn sequentially (the lockstep trainer's reconciliation
        after its forked streams did the actual drawing)."""
        advance_rng(self._rng, count)

    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool, cache: dict | None = None
    ) -> tuple[np.ndarray, bool]:
        if cache is None:
            # Evaluation semantics: dropout is the identity outside training.
            return x, batched
        if self.rate == 0.0:
            cache["mask"] = None
            return x, batched
        # One mask per model, each drawn from that model's forked stream
        # (cache["streams"], provided by the trainer) — the same scalars,
        # in the same order, the sequential per-model loop would draw.
        streams = cache["streams"]
        keep = 1.0 - self.rate
        per_model = x.shape[1:] if batched else x.shape
        masks = np.empty((len(streams),) + tuple(per_model))
        for row, stream in zip(masks, streams):
            row[...] = (stream.random(per_model) < keep) / keep
        cache["mask"] = masks
        return x * masks, True

    def backward_many(
        self,
        grad_out: np.ndarray,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        cache: dict,
        *,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        mask = cache["mask"]
        if mask is None:
            return grad_out
        return grad_out * mask

    def forward(self, x: np.ndarray, *, cache: dict | None = None) -> np.ndarray:
        if cache is None:
            return x
        if self.rate == 0.0:
            cache["mask"] = None
            return x
        keep = 1.0 - self.rate
        cache["mask"] = mask = (self._rng.random(x.shape) < keep) / keep
        return x * mask
