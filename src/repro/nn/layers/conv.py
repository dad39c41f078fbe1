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
from repro.nn.module import Layer
from repro.nn.parameter import Parameter

__all__ = ["Conv2D", "im2col", "col2im"]

#: Largest patch matrix one fused evaluation pass materializes; a wider
#: ``(K, N, F, P)`` stack is evaluated in K-chunks (the same per-model
#: gemms, so the logits do not change — only peak memory does).
_PATCH_BYTES = 32 << 20


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

    fused_eval = True
    fused_train = True

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
        self._cols: np.ndarray | None = None
        self._hw: tuple[int, int] | None = None

    def _check_input(self, x: np.ndarray, *, batched: bool = False) -> None:
        if x.ndim != (5 if batched else 4) or x.shape[-3] != self.in_channels:
            raise ValueError(
                f"Conv2D expected (N, {self.in_channels}, H, W), got {x.shape}"
            )

    # ------------------------------------------------------ shared kernels
    # Both take the kernel as ``(..., O, F)``: plain ``(O, F)`` for one
    # model, ``(K, 1, O, F)`` for a stack — the extra axes broadcast over
    # the batch axis of the patches, so each (model, sample) pair runs the
    # same gemm either way.
    def _convolve(
        self, x: np.ndarray, kernel2: np.ndarray, bias: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(..., N, C, H, W) -> (..., N, O, out_h, out_w)`` plus the
        ``(..., N, F, P)`` patch matrices the backward pass needs."""
        k = self.kernel_size
        cols = im2col(x, k, k, self.stride, self.padding)
        out_h, out_w = cols.shape[-2:]
        cols2 = cols.reshape(cols.shape[:-5] + (-1, out_h * out_w))
        out = np.matmul(kernel2, cols2)  # (O, F) @ (..., F, P)
        out = out.reshape(out.shape[:-1] + (out_h, out_w))
        out += bias
        return out, cols2

    def _gradients(
        self,
        grad_out: np.ndarray,
        cols2: np.ndarray,
        kernel2: np.ndarray,
        hw: tuple[int, int],
        need_input_grad: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Kernel grad ``(..., O, F)``, bias grad ``(..., O)`` and the
        input grad (``None`` when not needed) for ``grad_out`` of shape
        ``(..., N, O, out_h, out_w)``."""
        out_h, out_w = grad_out.shape[-2:]
        g2 = grad_out.reshape(grad_out.shape[:-2] + (out_h * out_w,))
        # Per sample (O, P) @ (P, F), then summed over the batch axis.
        grad_kernel = np.matmul(g2, cols2.swapaxes(-1, -2)).sum(axis=-3)
        grad_bias = g2.sum(axis=-1).sum(axis=-2)
        if not need_input_grad:
            return grad_kernel, grad_bias, None
        k = self.kernel_size
        grad_cols = np.matmul(kernel2.swapaxes(-1, -2), g2)  # (F, O) @ (..., O, P)
        grad_cols = grad_cols.reshape(
            grad_cols.shape[:-2] + (self.in_channels, k, k, out_h, out_w)
        )
        x_shape = grad_cols.shape[:-4] + hw
        grad_in = col2im(grad_cols, x_shape, k, k, self.stride, self.padding)
        return grad_kernel, grad_bias, grad_in

    # ---------------------------------------------------------- one model
    def forward(self, x: np.ndarray, *, train: bool = False) -> np.ndarray:
        self._check_input(x)
        out, self._cols = self._convolve(
            x,
            self.weight.value.reshape(self.out_channels, -1),
            self.bias.value[:, None, None],
        )
        self._hw = x.shape[-2:]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cols is None or self._hw is None:
            raise RuntimeError("backward called before forward")
        grad_kernel, grad_bias, grad_in = self._gradients(
            grad_out,
            self._cols,
            self.weight.value.reshape(self.out_channels, -1),
            self._hw,
            True,
        )
        self.weight.grad += grad_kernel.reshape(self.weight.value.shape)
        self.bias.grad += grad_bias
        self._cols = None
        self._hw = None
        return grad_in

    # ------------------------------------------------------- model stacks
    def _stacked(self, params: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        kernel, bias = params
        k = kernel.shape[0]
        return (
            kernel.reshape(k, 1, self.out_channels, -1),
            bias.reshape(k, 1, self.out_channels, 1, 1),
        )

    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool
    ) -> tuple[np.ndarray, bool]:
        """``k`` kernels in one matmul.

        A shared input (no model axis yet) is unfolded **once** and the
        ``(k, 1, O, F)`` kernel stack broadcasts over it.  A batched
        input needs a ``(k, N, F, P)`` patch stack — about
        ``kernel_size**2 / stride**2`` times the input — which is built
        and consumed in K-chunks of at most ``_PATCH_BYTES``.
        """
        self._check_input(x, batched=batched)
        kernel2, bias = self._stacked(params)
        if not batched:
            return self._convolve(x, kernel2, bias)[0], True
        patch_bytes = x[0].nbytes * self.kernel_size**2 // self.stride**2
        step = max(1, _PATCH_BYTES // max(patch_bytes, 1))
        chunks = [
            self._convolve(x[s : s + step], kernel2[s : s + step], bias[s : s + step])[0]
            for s in range(0, x.shape[0], step)
        ]
        return (chunks[0] if len(chunks) == 1 else np.concatenate(chunks)), True

    def forward_many_train(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool, cache: dict
    ) -> tuple[np.ndarray, bool]:
        """Same batched convolution as :meth:`forward_many`, patches cached."""
        self._check_input(x, batched=batched)
        out, cache["cols"] = self._convolve(x, *self._stacked(params))
        cache["hw"] = x.shape[-2:]
        return out, True

    def backward_many(
        self,
        grad_out: np.ndarray,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        cache: dict,
        *,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        """``k`` models' kernel/bias/input grads in one matmul each.

        With ``need_input_grad=False`` (this is the lowest parametered
        layer) the ``W.T @ grad`` product and the col2im fold are
        skipped — the sequential loop always pays them.
        """
        grad_weight, grad_bias = grads
        kernel2, _bias = self._stacked(params)
        grad_kernel, bias_grad, grad_in = self._gradients(
            grad_out, cache["cols"], kernel2, cache["hw"], need_input_grad
        )
        grad_weight += grad_kernel.reshape(grad_weight.shape)
        grad_bias += bias_grad
        return grad_in

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]
