"""Federated-learning algorithms.

:class:`TangleLearning` is the paper's contribution (the specializing
DAG) on its round schedule — a thin constructor over the one simulator,
:class:`repro.sim.EventDrivenTangleLearning`, which also runs the
paper's asynchronous deployment model; :class:`FedAvgServer` and
:class:`FedProxServer` are the centralized baselines of Section 5;
:class:`GossipLearning` is the decentralized gossip baseline discussed in
related work.  The three baselines are :class:`TangleLearning`
subclasses: rounds of the same engine that define only their work
units (a given start model, no walk) and their barrier commit, so every
algorithm trains through the one lockstep training plane.
"""

from repro.fl.config import (
    DagConfig,
    TrainingConfig,
    TABLE1_CONFIGS,
    table1_config,
)
from repro.fl.client import Client
from repro.fl.records import RoundRecord
from repro.fl.dag_learning import TangleLearning
from repro.fl.fedavg import FedAvgServer
from repro.fl.fedprox import FedProxServer
from repro.fl.gossip import GossipLearning
from repro.fl.aggregation import (
    AGGREGATORS,
    get_aggregator,
    mean_aggregate,
    median_aggregate,
    trimmed_mean_aggregate,
)

__all__ = [
    "DagConfig",
    "TrainingConfig",
    "TABLE1_CONFIGS",
    "table1_config",
    "Client",
    "RoundRecord",
    "TangleLearning",
    "FedAvgServer",
    "FedProxServer",
    "GossipLearning",
    "AGGREGATORS",
    "get_aggregator",
    "mean_aggregate",
    "median_aggregate",
    "trimmed_mean_aggregate",
]
