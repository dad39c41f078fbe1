"""Layers keep no per-call state: evaluating or training a shared
``Classifier`` leaves every layer's attributes bound to the objects they
held before the call (parameters and dropout generators change in place)."""

import numpy as np
import pytest

from repro.nn import SGD, zoo
from repro.nn.layers import Dense, Dropout, Flatten, ReLU
from repro.nn.model import Classifier
from repro.nn.module import Sequential


def _cnn(rng):
    # The rounds_cnn model: the small FMNIST CNN on 14x14 images.
    model = zoo.build_fmnist_cnn(rng, image_size=14)
    return model, rng.normal(size=(50, 1, 14, 14)), rng.integers(0, 10, 50)


def _mlp(rng):
    model = zoo.build_mlp(rng, in_features=12, hidden=(16,), num_classes=3)
    return model, rng.normal(size=(30, 12)), rng.integers(0, 3, 30)


def _dropout_mlp(rng):
    net = Sequential(
        [Flatten(), Dense(12, 16, rng), ReLU(), Dropout(0.5, rng=1), Dense(16, 3, rng)]
    )
    return Classifier(net), rng.normal(size=(30, 12)), rng.integers(0, 3, 30)


def _poets_lstm(rng):
    model = zoo.build_poets_lstm(rng, vocab_size=20)
    return model, rng.integers(0, 20, size=(20, 8)), rng.integers(0, 20, 20)


MODELS = {"cnn": _cnn, "mlp": _mlp, "dropout_mlp": _dropout_mlp, "lstm": _poets_lstm}
CALLS = {
    "evaluate": lambda model, x, y: model.evaluate(x, y),
    "accuracy": lambda model, x, y: model.accuracy(x, y),
    "train_batch": lambda model, x, y: model.train_batch(x, y, SGD(0.1)),
}


@pytest.mark.parametrize("call", sorted(CALLS))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_classifier_calls_leave_layers_as_they_were(name, call, rng):
    model, x, y = MODELS[name](rng)
    before = [dict(vars(layer)) for layer in model.net.layers]
    CALLS[call](model, x, y)
    for layer, state in zip(model.net.layers, before):
        assert vars(layer).keys() == state.keys(), layer
        changed = [key for key, value in state.items() if vars(layer)[key] is not value]
        assert not changed, (layer, changed)
