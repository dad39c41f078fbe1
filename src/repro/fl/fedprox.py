"""FedProx (Li et al.): FedAvg with a proximal local objective.

Two heterogeneity mechanisms from the FedProx paper are modelled: the
proximal term ``mu/2 * ||w - w_global||^2`` in the local objective, and
optional *stragglers* — clients that only manage a fraction of the local
epochs.  FedProx still aggregates straggler updates (that is its point);
plain FedAvg in the original comparison drops them, but the paper's
Figures 10/11 use the no-straggler configuration, which is our default.
"""

from __future__ import annotations

from dataclasses import replace

from repro.fl.fedavg import FedAvgServer
from repro.substrate import ClientWorkUnit
from repro.utils.validation import check_positive, check_probability

__all__ = ["FedProxServer"]


class FedProxServer(FedAvgServer):
    """FedAvg whose units train the proximal objective."""

    def __init__(
        self,
        *args,
        mu: float = 0.5,
        straggler_fraction: float = 0.0,
        straggler_epochs: int = 1,
        **kwargs,
    ):
        if mu < 0:
            raise ValueError("mu must be >= 0")
        check_probability("straggler_fraction", straggler_fraction)
        check_positive("straggler_epochs", straggler_epochs)
        super().__init__(*args, **kwargs)
        self.mu = mu
        self.straggler_fraction = straggler_fraction
        self.straggler_epochs = straggler_epochs
        self._straggler_rng = self._rngs.get("stragglers")

    def _round_units(self, active_ids: list[int]) -> list[ClientWorkUnit]:
        units = []
        for unit in super()._round_units(active_ids):
            straggler = (
                self.straggler_fraction > 0.0
                and self._straggler_rng.random() < self.straggler_fraction
            )
            local_epochs = self.straggler_epochs if straggler else None
            units.append(replace(unit, proximal_mu=self.mu, local_epochs=local_epochs))
        return units
