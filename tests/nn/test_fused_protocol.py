"""The layer protocol: one ``forward_many`` per layer serves both fused
planes, ``cache=None`` evaluating and a dict training, ``fused`` says
which layers implement it, and the one-model ``forward`` / ``backward``
keep their state in the same caller-owned cache."""

import numpy as np
import pytest

import repro.nn  # noqa: F401  (loads every layer module)
from repro.nn.layers import (
    LSTM,
    Conv2D,
    Dense,
    Dropout,
    Embedding,
    Flatten,
    LastTimeStep,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.module import Layer

K = 3
SPECIALS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]


def _input(rng, shape):
    """Normal draws with NaN of either sign and infinities in front and
    -0.0 in place of the draws below -0.3 (so some pooling windows peak
    at a signed zero): raw-bit equality is not vacuous."""
    x = rng.normal(size=shape)
    x[x < -0.3] = -0.0
    x.reshape(-1)[: len(SPECIALS)] = SPECIALS
    return x


def _params(layer):
    """``K`` distinct models: the layer's own parameters, shifted per model."""
    shift = 0.01 * np.arange(K)
    return [
        np.stack([p.value + d for d in shift]) for p in layer.parameters()
    ]


# name -> (layer factory, per-model input shape)
LAYERS = {
    "dense": (lambda: Dense(4, 3, np.random.default_rng(0)), (5, 4)),
    "conv": (lambda: Conv2D(2, 3, 3, np.random.default_rng(0), padding=1), (2, 2, 5, 6)),
    "pool": (lambda: MaxPool2D(2), (2, 2, 5, 6)),
    "relu": (ReLU, (5, 4)),
    "tanh": (Tanh, (5, 4)),
    "sigmoid": (Sigmoid, (5, 4)),
    "dropout": (lambda: Dropout(0.0, rng=0), (5, 4)),
    "flatten": (Flatten, (5, 2, 3)),
    "last_time_step": (LastTimeStep, (5, 4, 3)),
}


def _bits(a):
    return a.view(np.uint64)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("name", sorted(LAYERS))
def test_evaluation_and_training_forward_are_one_pass(name, batched):
    """``cache=None`` computes the same bits as ``cache={}`` and leaves
    the layer untouched."""
    factory, shape = LAYERS[name]
    layer = factory()
    params = _params(layer)
    x = _input(np.random.default_rng(1), ((K,) if batched else ()) + shape)
    state = dict(vars(layer))
    evaluated, evaluated_batched = layer.forward_many(x, params, batched=batched)
    assert vars(layer).keys() == state.keys()
    assert all(vars(layer)[key] is value for key, value in state.items())
    cache: dict = {}
    trained, trained_batched = layer.forward_many(x, params, batched=batched, cache=cache)
    assert cache, "training forward kept nothing for backward_many"
    assert evaluated_batched == trained_batched
    assert evaluated.shape == trained.shape
    np.testing.assert_array_equal(_bits(evaluated), _bits(trained))


@pytest.mark.parametrize("batched", [False, True])
def test_evaluation_dropout_is_the_identity_and_draws_nothing(batched):
    """Fused or one-model, an evaluation pass returns its input and
    touches neither the layer nor its generator."""
    layer = Dropout(0.5, rng=7)
    before = layer._rng.bit_generator.state
    state = dict(vars(layer))
    x = _input(np.random.default_rng(1), ((K,) if batched else ()) + (5, 4))
    out, out_batched = layer.forward_many(x, [], batched=batched)
    assert out is x and out_batched is batched
    assert layer.forward(x) is x
    assert layer._rng.bit_generator.state == before
    assert vars(layer).keys() == state.keys()
    assert all(vars(layer)[key] is value for key, value in state.items())


def _layer_classes():
    pending, found = [Layer], []
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            pending.append(sub)
            if sub.__module__.startswith("repro.nn."):
                found.append(sub)
    return found


def test_fused_flag_matches_the_kernels():
    """A layer that says ``fused`` overrides both fused kernels; the
    layers without them keep the base class's ``False``.  (``Sequential``
    derives its flag from its layers.)"""
    fused = [cls for cls in _layer_classes() if cls.fused is True]
    assert {cls.__name__ for cls in fused} == {
        "Conv2D", "Dense", "Dropout", "Flatten", "LastTimeStep", "MaxPool2D",
        "ReLU", "Sigmoid", "Tanh",
    }
    for cls in fused:
        assert cls.forward_many is not Layer.forward_many, cls
        assert cls.backward_many is not Layer.backward_many, cls
    for cls in (LSTM, Embedding):
        assert cls.fused is False
        assert cls.forward_many is Layer.forward_many
        assert cls.backward_many is Layer.backward_many


def test_parameterless_layers_keep_one_kernel():
    """A parameterless layer's one-model pass is its fused kernel on a
    shared input: it inherits ``Layer.forward`` / ``Layer.backward``."""
    for cls in (ReLU, Tanh, Sigmoid, MaxPool2D, Flatten, LastTimeStep):
        assert cls.forward is Layer.forward, cls
        assert cls.backward is Layer.backward, cls
    assert Dropout.backward is Layer.backward  # only the draw is its own


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(LAYERS))
def test_one_model_pass_keeps_nothing_on_the_layer(name):
    """``forward`` / ``backward`` keep what they need in the caller's
    cache, so evaluation and training leave the layer's attributes bound
    to the objects they held before."""
    factory, shape = LAYERS[name]
    layer = factory()
    x = _input(np.random.default_rng(1), shape)
    state = dict(vars(layer))
    layer.forward(x)
    cache: dict = {}
    out = layer.forward(x, cache=cache)
    layer.backward(np.ones_like(out), cache)
    assert vars(layer).keys() == state.keys()
    assert all(vars(layer)[key] is value for key, value in state.items())
