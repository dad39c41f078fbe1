"""The specializing-DAG learning simulator (the paper's Section 4).

Discrete-round simulation: in every round a sample of clients each (1)
runs the biased random walk twice to select two tips, (2) averages the two
tip models, (3) trains the average on local data, and (4) publishes the
result as a new transaction approving the two tips — if it beats the
reference (consensus) model on local test data.

:class:`TangleLearning` has no round body of its own: it is the event
engine (:class:`repro.sim.engine.EventDrivenTangleLearning`) constructed
for its round regime.  The visibility model (**freeze at round end**:
every client in round *r* reads the tangle as it stood at the end of
round *r - 1*) and the executor choice (``DagConfig.parallelism``) are
documented on :meth:`~repro.sim.engine.EventDrivenTangleLearning.run_rounds`;
``docs/substrate.md`` walks one round through the execution substrate.

The baselines (:class:`~repro.fl.fedavg.FedAvgServer`,
:class:`~repro.fl.fedprox.FedProxServer`,
:class:`~repro.fl.gossip.GossipLearning`) subclass it and replace the
round's two hooks, ``_round_units`` and ``_commit_round``.

Import direction: this module imports ``repro.sim.engine``, which imports
the ``repro.fl.{client,config,aggregation,records}`` *submodules* — a
package-level cycle but a module-level DAG.  ``repro/sim/__init__`` loads
``repro.fl`` first, so the chain is always entered from this side.
"""

from __future__ import annotations

from repro.data.base import FederatedDataset
from repro.fl.config import DagConfig, TrainingConfig
from repro.fl.records import RoundRecord
from repro.sim.config import SimConfig
from repro.sim.engine import EventDrivenTangleLearning, ModelBuilder
from repro.substrate import Executor

__all__ = ["TangleLearning"]


class TangleLearning(EventDrivenTangleLearning):
    """End-to-end simulator for DAG-based decentralized federated learning."""

    def __init__(
        self,
        dataset: FederatedDataset,
        model_builder: ModelBuilder,
        train_config: TrainingConfig,
        dag_config: DagConfig = DagConfig(),
        *,
        clients_per_round: int = 10,
        seed: int = 0,
        attackers: dict[int, str] | None = None,
        executor: Executor | None = None,
    ):
        """``attackers`` maps client id -> attack type.  Supported:
        ``"random_weights"`` — the client publishes randomly drawn weights
        instead of training (the first attack of the Section 4.4 threat
        model).  Attackers approve uniformly random tips: as the paper
        argues, an attacker targeting the whole network would not use the
        accuracy-aware selection.

        ``executor`` overrides the round-execution strategy; by default
        one is built from ``dag_config.parallelism`` via
        :func:`repro.substrate.make_executor`."""
        attackers = attackers or {}
        client_ids = {cd.client_id for cd in dataset.clients}
        for client_id, attack in attackers.items():
            if client_id not in client_ids:
                raise ValueError(f"attacker {client_id} is not a client")
            if attack != "random_weights":
                raise ValueError(f"unknown attack type {attack!r}")
        super().__init__(
            dataset,
            model_builder,
            train_config,
            dag_config,
            sim_config=SimConfig(attackers=frozenset(attackers)),
            seed=seed,
            executor=executor,
        )
        self.clients_per_round = min(clients_per_round, dataset.num_clients)

    @property
    def history(self) -> list[RoundRecord]:
        """Records of every round run so far."""
        return self.round_history

    def run_round(self) -> RoundRecord:
        """Simulate one discrete round; returns its record."""
        return self.run_rounds(1, self.clients_per_round)[0]

    def run(self, rounds: int) -> list[RoundRecord]:
        """Run ``rounds`` rounds; returns the records of this call."""
        return self.run_rounds(rounds, self.clients_per_round)
