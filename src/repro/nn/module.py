"""Layer base class and the :class:`Sequential` container."""

from __future__ import annotations

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["Layer", "Sequential"]


class Layer:
    """Base class for all layers.

    A layer transforms an input array in :meth:`forward` and propagates
    gradients in :meth:`backward`.  ``backward`` must be called with the
    gradient of the loss w.r.t. the layer's *output* and returns the
    gradient w.r.t. its *input*; parameter gradients are *accumulated* into
    ``Parameter.grad``.  Layers cache whatever they need between the two
    calls, so a forward/backward pair must not be interleaved with another
    forward on the same layer instance.

    **Fused multi-model evaluation.**  Layers that can evaluate ``k``
    models' parameters in one vectorized pass set ``fused_eval = True``
    and implement :meth:`forward_many`.  The contract:

    - ``params`` holds this layer's parameters as ``(k, *shape)`` stacks
      (one per entry of :meth:`parameters`, in the same order), sliced
      from a ``(k, P)`` weight matrix by
      :meth:`~repro.nn.serialization.FlatSpec.unflatten_many`;
    - ``batched`` says whether ``x`` already carries the leading model
      axis (``(k, batch, ...)``).  The input starts *shared* (plain
      ``(batch, ...)``, no model axis) and the first parametered layer
      introduces the axis — parameterless layers before it operate on
      the shared input once instead of ``k`` times;
    - the return value is ``(output, batched)``.

    :meth:`forward_many` is evaluation-only (``train=False`` semantics,
    no caching for backward) and must produce, model for model, exactly
    what :meth:`forward` produces — the fused walk path relies on that
    equivalence bit for bit in float64.

    **Fused multi-model training.**  Layers that can additionally run
    the *training* pass for ``k`` models at once set ``fused_train =
    True`` and implement :meth:`forward_many_train` /
    :meth:`backward_many`.  The training contract extends the
    evaluation one:

    - :meth:`forward_many_train` has ``train=True`` semantics (dropout
      active) and stores whatever the backward pass needs in ``cache``,
      a per-layer dict owned by the caller for exactly one
      forward/backward pair — the *layer instance* stays stateless
      across fused training, so one shared model can serve many
      lockstep groups;
    - :meth:`backward_many` receives the loss gradient w.r.t. the
      layer's output as a ``(k, batch, ...)`` stack, **accumulates**
      parameter gradients into ``grads`` (``(k, *shape)`` stacks
      aligned with ``params``), and returns the gradient w.r.t. its
      input;
    - both must reproduce, model for model, exactly what
      :meth:`forward` (``train=True``) and :meth:`backward` compute —
      the lockstep training plane relies on that equivalence bit for
      bit in float64.
    """

    #: True when the layer implements :meth:`forward_many`.
    fused_eval = False

    #: True when the layer implements the fused training kernels
    #: (:meth:`forward_many_train` / :meth:`backward_many`).
    fused_train = False

    def forward(self, x: np.ndarray, *, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool
    ) -> tuple[np.ndarray, bool]:
        raise NotImplementedError(
            f"{type(self).__name__} has no fused multi-model kernel"
        )

    def forward_many_train(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool, cache: dict
    ) -> tuple[np.ndarray, bool]:
        raise NotImplementedError(
            f"{type(self).__name__} has no fused training kernel"
        )

    def backward_many(
        self,
        grad_out: np.ndarray,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        cache: dict,
        *,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        raise NotImplementedError(
            f"{type(self).__name__} has no fused training kernel"
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        """Trainable parameters of this layer (default: none)."""
        return []

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def __call__(self, x: np.ndarray, *, train: bool = False) -> np.ndarray:
        return self.forward(x, train=train)


class Sequential(Layer):
    """A linear stack of layers applied in order."""

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)

    @property
    def fused_eval(self) -> bool:  # type: ignore[override]
        """True when every layer has a fused multi-model kernel."""
        return all(layer.fused_eval for layer in self.layers)

    @property
    def fused_train(self) -> bool:  # type: ignore[override]
        """True when every layer has a fused multi-model training kernel."""
        return all(layer.fused_train for layer in self.layers)

    def forward(self, x: np.ndarray, *, train: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool = False
    ) -> tuple[np.ndarray, bool]:
        """Evaluate ``k`` models' stacks in one pass through the stack.

        ``params`` is the batched form of :meth:`parameters` — one
        ``(k, *shape)`` array per parameter, in parameter order — and is
        sliced per layer exactly as :meth:`parameters` concatenates.
        """
        index = 0
        for layer in self.layers:
            count = len(layer.parameters())
            x, batched = layer.forward_many(
                x, params[index : index + count], batched=batched
            )
            index += count
        return x, batched

    def forward_many_train(
        self,
        x: np.ndarray,
        params: list[np.ndarray],
        caches: list[dict],
        *,
        batched: bool = True,
    ) -> tuple[np.ndarray, bool]:
        """Training-mode fused forward; ``caches`` holds one dict per layer.

        The lockstep trainer pre-populates cache slots that need outside
        state (dropout's per-model rng streams) and hands the same list
        to :meth:`backward_many_train` so every layer finds what it
        cached.
        """
        index = 0
        for layer, cache in zip(self.layers, caches):
            count = len(layer.parameters())
            x, batched = layer.forward_many_train(
                x, params[index : index + count], batched=batched, cache=cache
            )
            index += count
        return x, batched

    def backward_many_train(
        self,
        grad_out: np.ndarray,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        caches: list[dict],
        *,
        stop_at: int = 0,
    ) -> np.ndarray | None:
        """Fused backward through layers ``stop_at``..end (reversed).

        ``stop_at`` is normally the index of the lowest parametered
        layer: nothing below it holds parameters, so its input gradient
        is never needed and the walk down the stack can end there — the
        stop layer itself is told ``need_input_grad=False`` and skips
        that product entirely (the sequential loop always pays it).
        Returns the last computed input gradient (``None`` when it was
        skipped or the whole stack was).  Each layer's cache is cleared
        as soon as its backward has run, so the pass holds only what the
        layers still below it cached.
        """
        counts = [len(layer.parameters()) for layer in self.layers]
        offsets = [0]
        for count in counts:
            offsets.append(offsets[-1] + count)
        result: np.ndarray | None = grad_out
        for i in range(len(self.layers) - 1, stop_at - 1, -1):
            layer = self.layers[i]
            result = layer.backward_many(
                result,
                params[offsets[i] : offsets[i + 1]],
                grads[offsets[i] : offsets[i + 1]],
                caches[i],
                need_input_grad=i > stop_at,
            )
            caches[i].clear()  # consumed: free its activations now
        return result

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Layer:
        return self.layers[index]
