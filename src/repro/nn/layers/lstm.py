"""Single-layer LSTM with full back-propagation through time."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform, orthogonal, zeros
from repro.nn.layers.activations import sigmoid
from repro.nn.module import Layer, accumulate
from repro.nn.parameter import Parameter

__all__ = ["LSTM"]

#: Largest ``(k, N, 4 * hidden)`` gate slab one time step works on.  Every
#: pass walks a model stack in K-chunks under it (a model over it is a
#: chunk of one), so a step's element-wise work stays in one core's L2
#: cache and an evaluation holds one chunk's pre-activations at a time.
#: Each chunk runs the same per-model products, so no result changes.
_STEP_BYTES = 1 << 18


class LSTM(Layer):
    """LSTM over full sequences.

    Input ``(N, T, input_dim)``; output ``(N, T, hidden)`` (all hidden
    states, so layers can be stacked and a :class:`LastTimeStep` can pick
    the final state for classification).  Gate order in the packed kernels
    is (input, forget, cell, output).  The forget-gate bias is initialized
    to 1, the standard trick for stable early training.
    """

    def __init__(
        self,
        input_dim: int,
        hidden: int,
        rng: np.random.Generator,
        *,
        name: str = "lstm",
    ):
        self.input_dim = input_dim
        self.hidden = hidden
        self.w_x = Parameter(
            glorot_uniform((input_dim, 4 * hidden), rng), name=f"{name}.w_x"
        )
        recurrent = np.concatenate(
            [orthogonal((hidden, hidden), rng) for _ in range(4)], axis=1
        )
        self.w_h = Parameter(recurrent, name=f"{name}.w_h")
        bias = zeros((4 * hidden,))
        bias[hidden : 2 * hidden] = 1.0  # forget gate
        self.bias = Parameter(bias, name=f"{name}.bias")

    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool, cache: dict | None = None
    ) -> tuple[np.ndarray, bool]:
        """``k`` models' recurrences stepped together, K-chunk by K-chunk:
        each product is one stacked matmul running the per-model gemm of
        the one-model pass.  Training keeps each chunk's input, cell
        states and gates for :meth:`backward_many`; evaluation keeps
        nothing."""
        if x.ndim != (4 if batched else 3) or x.shape[-1] != self.input_dim:
            raise ValueError(f"LSTM expected (N, T, {self.input_dim}), got {x.shape}")
        k, (n, t) = params[0].shape[0], x.shape[-3:-1]
        # Hidden states are written straight into the stacked output.
        hs = np.empty((k, n, t, self.hidden))
        step = max(1, _STEP_BYTES // max(n * 4 * self.hidden * 8, 1))
        if cache is not None:
            cache["hs"], cache["tapes"] = hs, []
        for start in range(0, k, step):
            m = slice(start, start + step)
            x_m = x[m] if batched else x
            tape = self._recur(x_m, [p[m] for p in params], hs[m], tape=cache is not None)
            if tape is not None:
                cache["tapes"].append((m, x_m, *tape))
        return hs, True

    def _recur(
        self, x: np.ndarray, params: list[np.ndarray], hs: np.ndarray, *, tape: bool
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Fill ``hs`` with one K-chunk's hidden states; return its cell
        states and gates when ``tape``."""
        w_x, w_h, bias = params
        k, n, t, hdim = hs.shape
        # Gate pre-activations; a training pass overwrites each step's
        # with that step's gates.
        gates = np.matmul(x.reshape(-1, n * t, self.input_dim), w_x).reshape(k, n, t, 4 * hdim)
        h = c = np.zeros((k, n, hdim))
        cs = np.empty_like(hs) if tape else None
        for step in range(t):
            z = gates[:, :, step] + np.matmul(h, w_h) + bias[:, None]
            z_i, z_f, z_g, z_o = np.split(z, 4, axis=-1)
            i, f, g, o = sigmoid(z_i), sigmoid(z_f), np.tanh(z_g), sigmoid(z_o)
            c = f * c + i * g
            h = o * np.tanh(c)
            hs[:, :, step] = h
            if tape:
                gates[:, :, step] = np.concatenate((i, f, g, o), axis=-1)
                cs[:, :, step] = c
        return (cs, gates) if tape else None

    def backward_many(
        self,
        grad_out: np.ndarray,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        cache: dict,
        *,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        """Back-propagation through time over the forward pass's K-chunks.
        ``need_input_grad=False`` skips the per-step ``grad_z @ w_x.T``."""
        hs = cache["hs"]
        grad_x = np.empty(hs.shape[:-1] + (self.input_dim,)) if need_input_grad else None
        for m, x, cs, gates in cache["tapes"]:
            self._bptt(
                grad_out[m], x, hs[m], cs, gates, [p[m] for p in params],
                [g[m] for g in grads], None if grad_x is None else grad_x[m],
            )
        return grad_x

    def _bptt(
        self, grad_out: np.ndarray, x: np.ndarray, hs: np.ndarray, cs: np.ndarray,
        gates: np.ndarray, params: list[np.ndarray], grads: list[np.ndarray],
        grad_x: np.ndarray | None,
    ) -> None:
        """One K-chunk: each step's products one stacked matmul, the
        parameter gradients one product (or sum) over every (sample,
        step) row, as in the one-model pass; the input gradient (unless
        ``grad_x`` is ``None``) is written into ``grad_x``."""
        w_x_t, w_h_t = (w.transpose(0, 2, 1) for w in params[:2])
        grad_w_x, grad_w_h, grad_bias = grads
        k, n, t, hdim = hs.shape
        grad_h_next = np.zeros((k, n, hdim))
        grad_c_next = np.zeros((k, n, hdim))
        grad_z_all = np.empty((k, n, t, 4 * hdim))
        for step in range(t - 1, -1, -1):
            i, f, g, o = np.split(gates[:, :, step], 4, axis=-1)
            c_prev = cs[:, :, step - 1] if step > 0 else np.zeros((k, n, hdim))
            tanh_c = np.tanh(cs[:, :, step])
            grad_h = grad_out[:, :, step] + grad_h_next
            grad_o = grad_h * tanh_c
            grad_c = grad_h * o * (1.0 - tanh_c**2) + grad_c_next
            grad_c_next = grad_c * f
            grad_z = np.concatenate(
                (
                    grad_c * g * i * (1.0 - i),
                    grad_c * c_prev * f * (1.0 - f),
                    grad_c * i * (1.0 - g**2),
                    grad_o * o * (1.0 - o),
                ),
                axis=-1,
            )
            grad_z_all[:, :, step] = grad_z
            grad_h_next = np.matmul(grad_z, w_h_t)
            if grad_x is not None:
                grad_x[:, :, step] = np.matmul(grad_z, w_x_t)
        # Parameter gradients over every (sample, step) row; the previous
        # hidden state is zeros at t=0 and hs shifted by one step after.
        gz2 = grad_z_all.reshape(k, n * t, 4 * hdim)
        x2 = x.reshape(-1, n * t, self.input_dim)
        accumulate(grad_w_x, np.matmul(x2.transpose(0, 2, 1), gz2))
        grad_bias += gz2.sum(axis=1)
        h_prev = np.concatenate([np.zeros((k, n, 1, hdim)), hs[:, :, :-1]], axis=2)
        accumulate(
            grad_w_h, np.matmul(h_prev.reshape(k, n * t, hdim).transpose(0, 2, 1), gz2)
        )

    def parameters(self) -> list[Parameter]:
        return [self.w_x, self.w_h, self.bias]
