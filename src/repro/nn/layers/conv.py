"""2-D convolution via im2col on BLAS.

Inputs use NCHW layout: ``(batch, channels, height, width)``.  The patch
helpers (:func:`im2col` / :func:`col2im`) only touch the last two axes,
so the same code serves one model's ``(N, C, H, W)`` batch and the fused
planes' ``(K, N, C, H, W)`` stacks; every contraction is a
:func:`np.matmul` whose per-model gemm has the same shape and operand
layout in both forms, which is what keeps the fused kernels bit-identical
to :meth:`Conv2D.forward` / :meth:`Conv2D.backward` in float64.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.nn.initializers import he_uniform, zeros
from repro.nn.module import Layer, accumulate
from repro.nn.parameter import Parameter

__all__ = ["Conv2D", "im2col", "col2im"]

#: Largest patch stack one conv pass materializes at a time.  Every fused
#: pass — evaluation, training forward, training backward — walks a
#: ``(K, N, F, P)`` patch stack in K-chunks under this cap (a model whose
#: patches alone exceed it is a chunk of one), and a one-model evaluation
#: walks its batch's ``(N, F, P)`` patches in sample chunks, so a chunk's
#: patches stay in one core's L2 cache instead of streaming the whole
#: stack through memory.  Each chunk runs the same per-(model, sample)
#: gemms, so no result changes — only peak memory and cache traffic do.
_PATCH_BYTES = 1 << 20


def _by_model(k: int, step: int, run) -> np.ndarray | None:
    """``run(models)`` over consecutive slices of at most ``step`` of ``k``
    models (or of a batch's samples), its results stacked along the
    leading axis (``None`` when ``run`` returns ``None``).  One slice
    returns ``run``'s array as is."""
    if step >= k:
        return run(slice(0, k))
    out = None
    for start in range(0, k, step):
        models = slice(start, start + step)
        chunk = run(models)
        if chunk is None:
            continue
        if out is None:
            out = np.empty((k,) + chunk.shape[1:], dtype=chunk.dtype)
        out[models] = chunk
    return out


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


@functools.lru_cache(maxsize=64)
def _patch_index(
    h: int, w: int, kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """``(kh, kw, out_h, out_w)`` offsets of every patch element into a
    flattened, padded ``(h + 2 * padding) x (w + 2 * padding)`` image."""
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    rows = np.arange(kh)[:, None, None, None] + stride * np.arange(out_h)[:, None]
    cols = np.arange(kw)[:, None, None] + stride * np.arange(out_w)
    index = rows * (w + 2 * padding) + cols
    index.setflags(write=False)
    return index


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Unfold image patches into columns.

    ``x`` is ``(..., H, W)`` — any leading axes (batch, channels, a
    fused model axis); returns ``(..., kh, kw, out_h, out_w)``, i.e.
    ``(N, C, kh, kw, out_h, out_w)`` for an NCHW batch.  One
    :func:`np.take` over a cached patch index per image geometry.
    """
    lead, (h, w) = x.shape[:-2], x.shape[-2:]
    index = _patch_index(h, w, kh, kw, stride, padding)
    if padding > 0:
        h, w = h + 2 * padding, w + 2 * padding
        padded = np.zeros(lead + (h, w), dtype=x.dtype)
        padded[..., padding : h - padding, padding : w - padding] = x
        x = padded
    return np.take(x.reshape(lead + (h * w,)), index, axis=-1)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, ...],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold patch columns back into an image, accumulating overlaps.

    The adjoint of :func:`im2col` (``x_shape`` is the ``(..., H, W)``
    shape that was unfolded); used for the gradient w.r.t. the input.
    """
    lead, (h, w) = tuple(x_shape[:-2]), x_shape[-2:]
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    padded = np.zeros(lead + (h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    # Windows that cannot overlap write each pixel at most once: plain
    # assignment skips the read half of the read-modify-write.
    disjoint = stride >= max(kh, kw)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            if disjoint:
                padded[..., i:i_max:stride, j:j_max:stride] = cols[..., i, j, :, :]
            else:
                padded[..., i:i_max:stride, j:j_max:stride] += cols[..., i, j, :, :]
    if padding > 0:
        return padded[..., padding : padding + h, padding : padding + w]
    return padded


class Conv2D(Layer):
    """2-D convolution layer (cross-correlation, as in all DL frameworks)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        *,
        stride: int = 1,
        padding: int = 0,
        name: str = "conv",
    ):
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(he_uniform(shape, rng), name=f"{name}.weight")
        self.bias = Parameter(zeros((out_channels,)), name=f"{name}.bias")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def _check_input(self, x: np.ndarray, *, batched: bool = False) -> None:
        if x.ndim != (5 if batched else 4) or x.shape[-3] != self.in_channels:
            raise ValueError(
                f"Conv2D expected (N, {self.in_channels}, H, W), got {x.shape}"
            )

    # ------------------------------------------------------ shared kernels
    # The kernel comes as ``(..., O, F)``: plain ``(O, F)`` for one model,
    # ``(K, 1, O, F)`` for a stack — the extra axes broadcast over the
    # batch axis of the patches, so each (model, sample) pair runs the
    # same gemm either way.
    def _unfold(self, x: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
        """``(..., N, C, H, W)`` -> its ``(..., N, F, P)`` patch matrices
        and the output size ``(out_h, out_w)``."""
        k = self.kernel_size
        cols = im2col(x, k, k, self.stride, self.padding)
        out_hw = cols.shape[-2:]
        return cols.reshape(cols.shape[:-5] + (-1, out_hw[0] * out_hw[1])), out_hw

    def _convolve(
        self, x: np.ndarray, kernel2: np.ndarray, bias: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(..., N, C, H, W) -> (..., N, O, out_h, out_w)`` plus the
        ``(..., N, F, P)`` patch matrices the backward pass needs."""
        cols2, out_hw = self._unfold(x)
        out = np.matmul(kernel2, cols2)  # (O, F) @ (..., F, P)
        out = out.reshape(out.shape[:-1] + out_hw)
        out += bias
        return out, cols2

    @staticmethod
    def _param_gradients(
        g2: np.ndarray, cols2: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Kernel grad ``(..., O, F)`` and bias grad ``(..., O)`` for the
        output gradient ``g2`` of shape ``(..., N, O, P)``."""
        # Per sample (O, P) @ (P, F), then summed over the batch axis.
        grad_kernel = np.matmul(g2, cols2.swapaxes(-1, -2)).sum(axis=-3)
        return grad_kernel, g2.sum(axis=-1).sum(axis=-2)

    def _input_gradient(
        self,
        g2: np.ndarray,
        kernel2: np.ndarray,
        hw: tuple[int, int],
        out_hw: tuple[int, int],
    ) -> np.ndarray:
        """``(F, O) @ (..., O, P)`` folded back to ``(..., N, C, *hw)``."""
        k = self.kernel_size
        grad_cols = np.matmul(kernel2.swapaxes(-1, -2), g2)
        grad_cols = grad_cols.reshape(
            grad_cols.shape[:-2] + (self.in_channels, k, k) + out_hw
        )
        x_shape = grad_cols.shape[:-4] + hw
        return col2im(grad_cols, x_shape, k, k, self.stride, self.padding)

    # ---------------------------------------------------------- one model
    def forward(self, x: np.ndarray, *, cache: dict | None = None) -> np.ndarray:
        """Evaluation walks the batch in chunks of at most ``_PATCH_BYTES``
        of patches; training keeps the whole batch's for :meth:`backward`."""
        self._check_input(x)
        kernel2 = self.weight.value.reshape(self.out_channels, -1)
        bias = self.bias.value[:, None, None]
        if cache is None:
            return _by_model(
                len(x), self._per_chunk(x[:1]), lambda s: self._convolve(x[s], kernel2, bias)[0]
            )
        out, cache["cols"] = self._convolve(x, kernel2, bias)
        cache["hw"] = x.shape[-2:]
        return out

    def backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        # Popped into this frame, so the patches are freed before the
        # input gradient allocates its own patch-sized product.
        cols2 = cache.pop("cols")
        g2 = grad_out.reshape(grad_out.shape[:-2] + (-1,))
        grad_kernel, grad_bias = self._param_gradients(g2, cols2)
        del cols2
        self.weight.grad += grad_kernel.reshape(self.weight.value.shape)
        self.bias.grad += grad_bias
        kernel2 = self.weight.value.reshape(self.out_channels, -1)
        return self._input_gradient(g2, kernel2, cache["hw"], grad_out.shape[-2:])

    # ------------------------------------------------------- model stacks
    def _stacked(self, params: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        kernel, bias = params
        k = kernel.shape[0]
        return (
            kernel.reshape(k, 1, self.out_channels, -1),
            bias.reshape(k, 1, self.out_channels, 1, 1),
        )

    def _per_chunk(self, entry: np.ndarray) -> int:
        """How many entries like ``entry`` (one model's input, or one
        sample) have ``(..., F, P)`` patch matrices — about
        ``kernel_size**2 / stride**2`` times the entry — that fit in
        ``_PATCH_BYTES`` together; at least one."""
        patch_bytes = entry.nbytes * self.kernel_size**2 // self.stride**2
        return max(1, _PATCH_BYTES // max(patch_bytes, 1))

    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool, cache: dict | None = None
    ) -> tuple[np.ndarray, bool]:
        """``k`` kernels in one matmul per K-chunk.

        A shared input (no model axis yet) is unfolded **once** and the
        ``(k, 1, O, F)`` kernel stack broadcasts over it.  A batched
        input's ``(k, N, F, P)`` patch stack is built and consumed in
        K-chunks of at most ``_PATCH_BYTES``.

        Training (a ``cache``) keeps the *input*, not the patches:
        :meth:`backward_many` unfolds them again chunk by chunk, so a
        training pass never holds more than one K-chunk of them (a
        ``(K, N, F, P)`` stack is ~``kernel**2`` times the input it was
        unfolded from).
        """
        self._check_input(x, batched=batched)
        if cache is not None:
            cache["x"] = x
            cache["batched"] = batched
        kernel2, bias = self._stacked(params)
        if not batched:
            return self._convolve(x, kernel2, bias)[0], True
        out = _by_model(
            x.shape[0],
            self._per_chunk(x[:1] if batched else x),
            lambda m: self._convolve(x[m], kernel2[m], bias[m])[0],
        )
        return out, True

    def _chunk_gradients(
        self,
        grad_out: np.ndarray,
        x: np.ndarray,
        kernel2: np.ndarray,
        grad_weight: np.ndarray,
        grad_bias: np.ndarray,
        need_input_grad: bool,
    ) -> np.ndarray | None:
        """One K-chunk: accumulate its kernel/bias grads, return its
        input grad (``None`` when not needed).

        The patches are unfolded from the cached input here, in the frame
        that drops them: they die right after the kernel-gradient product,
        before the input-gradient product allocates its own patch-sized
        stack.  Passed in as an argument, the caller would keep them alive.
        """
        g2 = grad_out.reshape(grad_out.shape[:-2] + (-1,))
        cols2, out_hw = self._unfold(x)
        grad_kernel, bias_grad = self._param_gradients(g2, cols2)
        del cols2
        accumulate(grad_weight, grad_kernel)
        grad_bias += bias_grad
        if not need_input_grad:
            return None
        return self._input_gradient(g2, kernel2, x.shape[-2:], out_hw)

    def backward_many(
        self,
        grad_out: np.ndarray,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        cache: dict,
        *,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        """``k`` models' kernel/bias/input grads, one matmul each per
        K-chunk of at most ``_PATCH_BYTES`` of patches.

        With ``need_input_grad=False`` (this is the lowest parametered
        layer) the ``W.T @ grad`` product and the col2im fold are
        skipped — the sequential loop always pays them.
        """
        grad_weight, grad_bias = grads
        kernel2, _bias = self._stacked(params)
        x, batched = cache["x"], cache["batched"]
        return _by_model(
            grad_out.shape[0],
            self._per_chunk(x[:1] if batched else x),
            lambda m: self._chunk_gradients(
                grad_out[m],
                x[m] if batched else x,
                kernel2[m],
                grad_weight[m],
                grad_bias[m],
                need_input_grad,
            ),
        )

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]
