"""A from-scratch numpy deep-learning substrate.

The paper trains CNN and LSTM models with TensorFlow/LEAF; this package
provides the equivalent capability without external ML frameworks: layers
with manual back-propagation, losses, SGD-family optimizers (including the
proximal variant needed by FedProx), weight (de)serialization and averaging,
and a numeric gradient checker used by the test-suite.
"""

from repro.nn.parameter import Parameter
from repro.nn.module import Layer, Sequential
from repro.nn.layers import (
    Dense,
    Conv2D,
    MaxPool2D,
    Flatten,
    ReLU,
    Tanh,
    Sigmoid,
    Dropout,
    Embedding,
    LSTM,
    LastTimeStep,
)
from repro.nn.losses import (
    softmax_cross_entropy,
    softmax_cross_entropy_many,
    softmax_probabilities,
)
from repro.nn.optimizers import SGD, ProximalSGD, Adam, clip_gradients
from repro.nn.model import Classifier, plan_local_batches
from repro.nn.training_plane import LockstepTrainer, TrainJob
from repro.nn.serialization import (
    FlatSpec,
    clone_weights,
    flatten_weights,
    weights_allclose,
    weights_l2_distance,
)
from repro.nn import zoo

__all__ = [
    "Parameter",
    "Layer",
    "Sequential",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "Flatten",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Dropout",
    "Embedding",
    "LSTM",
    "LastTimeStep",
    "softmax_cross_entropy",
    "softmax_cross_entropy_many",
    "softmax_probabilities",
    "SGD",
    "ProximalSGD",
    "Adam",
    "clip_gradients",
    "Classifier",
    "plan_local_batches",
    "LockstepTrainer",
    "TrainJob",
    "FlatSpec",
    "clone_weights",
    "flatten_weights",
    "weights_allclose",
    "weights_l2_distance",
    "zoo",
]
