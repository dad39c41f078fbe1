"""Layer base class and the :class:`Sequential` container."""

from __future__ import annotations

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["Layer", "Sequential"]


def accumulate(stack: np.ndarray, delta: np.ndarray) -> None:
    """``stack += delta`` for a ``(k, *shape)`` gradient stack, run on
    ``(k, size)`` aliases of both.

    A stack sliced from a ``(K, P)`` gradient matrix has a row stride of
    ``P``, which keeps numpy from merging its inner axes: the same add on
    the flat alias visits the same elements in the same order (so the
    result is bit-identical) several times faster.  Assigning ``shape``
    on a view raises where a reshape would silently copy, so the add can
    never land in a temporary.
    """
    flat = stack.view()
    flat.shape = (stack.shape[0], -1)
    flat += delta.reshape(flat.shape)


class Layer:
    """Base class for all layers.

    One protocol serves both planes, and a layer keeps no per-call state:
    whatever a backward pass needs lives in a ``cache`` dict the caller
    owns for exactly one forward/backward pair, so one shared model can
    evaluate and train for every client of a simulation.

    - :meth:`forward` runs the layer's own parameters.  ``cache=None``
      is evaluation: nothing is kept and dropout is the identity.  A dict
      is training: the layer stores in it what :meth:`backward` needs.
    - :meth:`backward` receives the gradient of the loss w.r.t. the
      layer's *output* and that cache, **accumulates** parameter
      gradients into ``Parameter.grad`` and returns the gradient w.r.t.
      its *input*.  A cache the forward pass did not fill raises
      ``KeyError``.

    **Model stacks.**  Every layer runs ``k`` models' parameters in one
    vectorized pass, :meth:`forward_many` and :meth:`backward_many`,
    with the same ``cache`` contract:

    - ``params`` holds this layer's parameters as ``(k, *shape)`` stacks
      (one per entry of :meth:`parameters`, in the same order), sliced
      from a ``(k, P)`` weight matrix by
      :meth:`~repro.nn.serialization.FlatSpec.unflatten_many`;
    - ``batched`` says whether ``x`` already carries the leading model
      axis (``(k, batch, ...)``).  The input starts *shared* (plain
      ``(batch, ...)``, no model axis) and the first parametered layer
      introduces the axis — parameterless layers before it operate on
      the shared input once instead of ``k`` times;
    - :meth:`forward_many` returns ``(output, batched)``;
    - :meth:`backward_many` receives the loss gradient w.r.t. the
      layer's output as a ``(k, batch, ...)`` stack, **accumulates**
      parameter gradients into ``grads`` (``(k, *shape)`` stacks
      aligned with ``params``) and returns the gradient w.r.t. its
      input, or ``None`` when told ``need_input_grad=False``.

    The one-model pass defaults to that kernel on ``(1, ...)`` views of
    the layer's own parameters and gradients (:meth:`forward`,
    :meth:`backward`); ``Dense`` and ``Conv2D`` keep their own, which
    are faster for one model.

    Model for model, the kernels on a stack must produce exactly what
    :meth:`forward` and :meth:`backward` produce — the walk's evaluation
    plane and the lockstep training plane rely on that bit for bit in
    float64.  One exception: where two NaNs meet — in a sum of
    ``Conv2D``'s input gradient or of overlapping ``MaxPool2D`` windows'
    input gradient, in a product of ``LSTM``'s gates — the result is NaN
    in the same places but may carry the other NaN's payload or sign: the
    stacked and the per-model matmul accumulate in different orders, and
    numpy's element-wise loops pick by where an element falls in their
    vector loop, which depends on the operands' strides.
    """

    def forward(self, x: np.ndarray, *, cache: dict | None = None) -> np.ndarray:
        params = [param.value[None] for param in self.parameters()]
        out, batched = self.forward_many(x, params, batched=False, cache=cache)
        return out[0] if batched else out

    def backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        params = self.parameters()
        values, grads = [p.value[None] for p in params], [p.grad[None] for p in params]
        return self.backward_many(grad_out[None], values, grads, cache)[0]

    def parameters(self) -> list[Parameter]:
        """Trainable parameters of this layer (default: none)."""
        return []

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()


class Sequential(Layer):
    """A linear stack of layers applied in order."""

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)

    def forward(self, x: np.ndarray, caches: list[dict] | None = None) -> np.ndarray:
        """One model through the stack: ``caches=None`` evaluates, a list
        of one dict per layer trains (hand the same list to
        :meth:`backward`)."""
        for i, layer in enumerate(self.layers):
            x = layer.forward(x, cache=None if caches is None else caches[i])
        return x

    def forward_many(
        self,
        x: np.ndarray,
        params: list[np.ndarray],
        caches: list[dict] | None = None,
        *,
        batched: bool = False,
    ) -> tuple[np.ndarray, bool]:
        """Run ``k`` models' stacks in one pass through the stack.

        ``params`` is the batched form of :meth:`parameters` — one
        ``(k, *shape)`` array per parameter, in parameter order — and is
        sliced per layer exactly as :meth:`parameters` concatenates.
        ``caches=None`` evaluates; a list of one dict per layer trains.
        The lockstep trainer pre-populates the slots that need outside
        state (dropout's per-model rng streams) and hands the same list
        to :meth:`backward_many_train`, so every layer finds what it
        cached.
        """
        index = 0
        for i, layer in enumerate(self.layers):
            count = len(layer.parameters())
            x, batched = layer.forward_many(
                x,
                params[index : index + count],
                batched=batched,
                cache=None if caches is None else caches[i],
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

    def backward(self, grad_out: np.ndarray, caches: list[dict]) -> np.ndarray:
        """Backward through every layer, each cache cleared as soon as its
        layer's backward has run (as :meth:`backward_many_train` does)."""
        for i in range(len(self.layers) - 1, -1, -1):
            grad_out = self.layers[i].backward(grad_out, caches[i])
            caches[i].clear()
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
