"""Single-layer LSTM with full back-propagation through time."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform, orthogonal, zeros
from repro.nn.layers.activations import sigmoid
from repro.nn.module import Layer
from repro.nn.parameter import Parameter

__all__ = ["LSTM"]


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

    def forward(self, x: np.ndarray, *, cache: dict | None = None) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ValueError(
                f"LSTM expected (N, T, {self.input_dim}), got {x.shape}"
            )
        n, t, _ = x.shape
        hdim = self.hidden
        h = np.zeros((n, hdim))
        c = np.zeros((n, hdim))
        hs = np.empty((n, t, hdim))
        cs = np.empty((n, t, hdim))
        gates = np.empty((n, t, 4 * hdim))
        x2 = x.reshape(n * t, self.input_dim)
        pre_x = (x2 @ self.w_x.value).reshape(n, t, 4 * hdim)
        for step in range(t):
            z = pre_x[:, step, :] + h @ self.w_h.value + self.bias.value
            i = sigmoid(z[:, :hdim])
            f = sigmoid(z[:, hdim : 2 * hdim])
            g = np.tanh(z[:, 2 * hdim : 3 * hdim])
            o = sigmoid(z[:, 3 * hdim :])
            c = f * c + i * g
            h = o * np.tanh(c)
            gates[:, step, :hdim] = i
            gates[:, step, hdim : 2 * hdim] = f
            gates[:, step, 2 * hdim : 3 * hdim] = g
            gates[:, step, 3 * hdim :] = o
            hs[:, step, :] = h
            cs[:, step, :] = c
        if cache is not None:
            cache.update(x=x, hs=hs, cs=cs, gates=gates)
        return hs

    def backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        x, hs, cs, gates = cache["x"], cache["hs"], cache["cs"], cache["gates"]
        n, t, _ = x.shape
        hdim = self.hidden

        grad_x = np.zeros_like(x, dtype=np.float64)
        grad_h_next = np.zeros((n, hdim))
        grad_c_next = np.zeros((n, hdim))
        grad_z_all = np.empty((n, t, 4 * hdim))

        for step in range(t - 1, -1, -1):
            i = gates[:, step, :hdim]
            f = gates[:, step, hdim : 2 * hdim]
            g = gates[:, step, 2 * hdim : 3 * hdim]
            o = gates[:, step, 3 * hdim :]
            c = cs[:, step, :]
            c_prev = cs[:, step - 1, :] if step > 0 else np.zeros((n, hdim))
            tanh_c = np.tanh(c)

            grad_h = grad_out[:, step, :] + grad_h_next
            grad_o = grad_h * tanh_c
            grad_c = grad_h * o * (1.0 - tanh_c**2) + grad_c_next
            grad_f = grad_c * c_prev
            grad_i = grad_c * g
            grad_g = grad_c * i
            grad_c_next = grad_c * f

            grad_z = np.empty((n, 4 * hdim))
            grad_z[:, :hdim] = grad_i * i * (1.0 - i)
            grad_z[:, hdim : 2 * hdim] = grad_f * f * (1.0 - f)
            grad_z[:, 2 * hdim : 3 * hdim] = grad_g * (1.0 - g**2)
            grad_z[:, 3 * hdim :] = grad_o * o * (1.0 - o)
            grad_z_all[:, step, :] = grad_z

            grad_h_next = grad_z @ self.w_h.value.T
            grad_x[:, step, :] = grad_z @ self.w_x.value.T

        # Parameter gradients, vectorized over (batch, time).
        x2 = x.reshape(n * t, self.input_dim)
        gz2 = grad_z_all.reshape(n * t, 4 * hdim)
        self.w_x.grad += x2.T @ gz2
        self.bias.grad += gz2.sum(axis=0)
        # h_prev for each step: zeros at t=0, hs shifted by one otherwise.
        h_prev = np.concatenate(
            [np.zeros((n, 1, hdim)), hs[:, :-1, :]], axis=1
        ).reshape(n * t, hdim)
        self.w_h.grad += h_prev.T @ gz2
        return grad_x

    def parameters(self) -> list[Parameter]:
        return [self.w_x, self.w_h, self.bias]
