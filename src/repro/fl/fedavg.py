"""Federated Averaging (McMahan et al.), the centralized baseline."""

from __future__ import annotations

import numpy as np

from repro.data.base import FederatedDataset
from repro.fl.config import TrainingConfig
from repro.fl.dag_learning import TangleLearning
from repro.fl.records import RoundRecord
from repro.nn.serialization import Weights
from repro.sim.engine import ModelBuilder
from repro.substrate import ClientRoundResult, ClientWorkUnit

__all__ = ["FedAvgServer"]


class FedAvgServer(TangleLearning):
    """Round-based FedAvg: sample clients, train locally, average by size.

    A round of the engine whose units start from the global model and
    whose commit is the size-weighted mean of the trained rows.
    Per-round records report the accuracy of the *aggregated* global
    model on each active client's local test data, which is how the
    paper evaluates FedAvg in Figure 9.
    """

    def __init__(
        self,
        dataset: FederatedDataset,
        model_builder: ModelBuilder,
        train_config: TrainingConfig,
        *,
        clients_per_round: int = 10,
        seed: int = 0,
    ):
        super().__init__(
            dataset,
            model_builder,
            train_config,
            clients_per_round=clients_per_round,
            seed=seed,
        )
        self.global_flat: np.ndarray = self.model.get_flat()

    @property
    def global_weights(self) -> Weights:
        """The global model as views of ``global_flat`` (which each
        round replaces, never mutates)."""
        return self.model.flat_spec.unflatten(self.global_flat)

    def _round_units(self, active_ids: list[int]) -> list[ClientWorkUnit]:
        return [
            ClientWorkUnit(client_id, walk_key=(), reference=self.global_flat)
            for client_id in active_ids
        ]

    def _commit_round(
        self,
        record: RoundRecord,
        units: list[ClientWorkUnit],
        results: list[ClientRoundResult],
    ) -> None:
        sizes = np.array([self.clients[r.client_id].data.n_train for r in results], dtype=float)
        rows = np.stack([r.flat_weights for r in results])
        self.global_flat = (sizes / sizes.sum()) @ rows
        for client_id in record.active_clients:
            loss, accuracy = self.clients[client_id].evaluate_flat(self.global_flat)
            record.client_accuracy[client_id] = accuracy
            record.client_loss[client_id] = loss

    def evaluate_global(self) -> tuple[float, float]:
        """(loss, accuracy) of the global model over all clients' test data."""
        x, y = self.dataset.global_test_set()
        self.model.load_flat(self.global_flat)
        return self.model.evaluate(x, y)
