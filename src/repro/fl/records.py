"""Per-round result records shared by all learning algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RoundRecord"]


@dataclass
class RoundRecord:
    """What happened in one simulated round.

    ``client_accuracy``/``client_loss`` hold, per active client, the
    evaluation of that client's model-of-record on its local test data —
    for the DAG and gossip that is the locally trained model, for
    FedAvg/FedProx the freshly aggregated global model (matching Figure
    9's methodology).  ``reference_accuracy`` is the DAG's consensus
    model (averaged selected tips) before local training.  The
    baselines' units are given their start model and walk nothing, so
    ``reference_accuracy``, ``published`` and the walk bookkeeping stay
    empty for FedAvg, FedProx and gossip.
    """

    round_index: int
    active_clients: list[int]
    client_accuracy: dict[int, float] = field(default_factory=dict)
    client_loss: dict[int, float] = field(default_factory=dict)
    reference_accuracy: dict[int, float] = field(default_factory=dict)
    published: list[str] = field(default_factory=list)
    walk_duration: dict[int, float] = field(default_factory=dict)
    walk_evaluations: dict[int, int] = field(default_factory=dict)

    @property
    def mean_accuracy(self) -> float:
        """Mean client accuracy this round (NaN when no client recorded)."""
        if not self.client_accuracy:
            return float("nan")
        return float(np.mean(list(self.client_accuracy.values())))

    @property
    def mean_loss(self) -> float:
        if not self.client_loss:
            return float("nan")
        return float(np.mean(list(self.client_loss.values())))

    @property
    def accuracy_std(self) -> float:
        """Cross-client accuracy spread (the personalization signal)."""
        if not self.client_accuracy:
            return float("nan")
        return float(np.std(list(self.client_accuracy.values())))

    @property
    def mean_walk_duration(self) -> float:
        if not self.walk_duration:
            return float("nan")
        return float(np.mean(list(self.walk_duration.values())))
