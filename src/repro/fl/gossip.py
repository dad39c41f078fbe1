"""Gossip learning baseline (Ormándi/Hegedűs et al., Section 3.2).

Each round, every active client picks a random peer, averages the peer's
current model with its own, and trains the merge on local data.  There is
no ledger and no server; models spread epidemically.  Included as the
decentralized comparison point discussed in the paper's related work.
"""

from __future__ import annotations

import numpy as np

from repro.data.base import FederatedDataset
from repro.fl.config import TrainingConfig
from repro.fl.dag_learning import TangleLearning
from repro.fl.records import RoundRecord
from repro.nn.serialization import Weights
from repro.sim.engine import ModelBuilder
from repro.substrate import ClientRoundResult, ClientWorkUnit

__all__ = ["GossipLearning"]


class GossipLearning(TangleLearning):
    """Peer-to-peer gossip learning simulator.

    A round of the engine whose units start from the merge of the
    client's and a random peer's start-of-round models (the DAG
    simulator's concurrent semantics) and whose commit stores each
    trained row as the client's local model.
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
        if dataset.num_clients < 2:
            raise ValueError(f"gossip learning needs at least 2 clients, got {dataset.num_clients}")
        super().__init__(
            dataset,
            model_builder,
            train_config,
            clients_per_round=clients_per_round,
            seed=seed,
        )
        # All clients may share the genesis row: rows are never mutated
        # in place (a commit replaces a client's row wholesale).
        genesis = self.model.get_flat()
        self.local_flats: dict[int, np.ndarray] = {
            client_id: genesis for client_id in self.clients
        }

    @property
    def local_weights(self) -> dict[int, Weights]:
        """Every client's local model as views of its row."""
        unflatten = self.model.flat_spec.unflatten
        return {cid: unflatten(flat) for cid, flat in self.local_flats.items()}

    def _round_units(self, active_ids: list[int]) -> list[ClientWorkUnit]:
        ids = sorted(self.clients)
        units = []
        for client_id in active_ids:
            peer = int(self._sampler.choice([cid for cid in ids if cid != client_id]))
            merged = np.stack([self.local_flats[client_id], self.local_flats[peer]]).mean(axis=0)
            units.append(ClientWorkUnit(client_id, walk_key=(), reference=merged))
        return units

    def _commit_round(
        self,
        record: RoundRecord,
        units: list[ClientWorkUnit],
        results: list[ClientRoundResult],
    ) -> None:
        for result in results:
            client_id = result.client_id
            self.local_flats[client_id] = result.flat_weights
            loss, accuracy = self.clients[client_id].evaluate_flat(result.flat_weights)
            record.client_accuracy[client_id] = accuracy
            record.client_loss[client_id] = loss
