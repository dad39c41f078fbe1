"""Scale profiles for the experiment suite.

The paper's configuration (Table 1 plus Section 5.1 dataset sizes) is the
``paper`` profile.  Full-fidelity runs are long in pure numpy: measured
from 2-round runs on a 2-core machine, one seed takes at least about
14 min for FMNIST, 2.9 h for Poets and 6.3 h for CIFAR-100 (lower bounds:
later rounds walk a deeper tangle).  So two reduced profiles shrink
rounds, client counts, sample counts, and model widths while keeping
every structural knob (cluster layout, class counts, protocol
parameters) intact.  Select via the ``REPRO_SCALE`` environment
variable or an explicit argument; the default is ``smoke``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["Scale", "SCALES", "resolve_scale"]


@dataclass(frozen=True)
class Scale:
    """All size knobs for one experiment profile."""

    name: str
    rounds: int
    clients_per_round: int
    model_size: str  # "small" | "paper"
    # FMNIST-clustered
    fmnist_clients: int
    fmnist_samples: int
    fmnist_image_size: int
    fmnist_local_batches: int
    # Poets
    poets_clients: int
    poets_samples: int
    poets_seq_len: int
    poets_local_batches: int
    poets_learning_rate: float
    poets_momentum: float
    poets_normalization: str
    # CIFAR-100-like
    cifar_clients: int
    cifar_samples: int
    cifar_image_size: int
    cifar_superclasses: int
    cifar_local_batches: int
    cifar_local_epochs: int
    # FedProx synthetic
    fedprox_clients: int
    fedprox_mean_samples: int
    # analysis frequency for per-round community metrics
    measure_every: int
    # poisoning experiment rounds (clean phase / poisoned phase)
    poison_clean_rounds: int
    poison_attack_rounds: int


SCALES: dict[str, Scale] = {
    "smoke": Scale(
        name="smoke",
        rounds=12,
        clients_per_round=6,
        model_size="small",
        fmnist_clients=9,
        fmnist_samples=40,
        fmnist_image_size=14,
        fmnist_local_batches=4,
        poets_clients=6,
        poets_samples=300,
        poets_seq_len=8,
        poets_local_batches=20,
        poets_learning_rate=0.5,
        poets_momentum=0.9,
        poets_normalization="dynamic",
        cifar_clients=12,
        cifar_samples=50,
        cifar_image_size=16,
        cifar_superclasses=6,
        cifar_local_batches=6,
        cifar_local_epochs=1,
        fedprox_clients=12,
        fedprox_mean_samples=40,
        measure_every=2,
        poison_clean_rounds=8,
        poison_attack_rounds=8,
    ),
    "default": Scale(
        name="default",
        rounds=30,
        clients_per_round=10,
        model_size="small",
        fmnist_clients=30,
        fmnist_samples=80,
        fmnist_image_size=14,
        fmnist_local_batches=8,
        poets_clients=12,
        poets_samples=500,
        poets_seq_len=12,
        poets_local_batches=20,
        poets_learning_rate=0.5,
        poets_momentum=0.9,
        poets_normalization="dynamic",
        cifar_clients=30,
        cifar_samples=60,
        cifar_image_size=16,
        cifar_superclasses=10,
        cifar_local_batches=10,
        cifar_local_epochs=2,
        fedprox_clients=30,
        fedprox_mean_samples=40,
        measure_every=3,
        poison_clean_rounds=20,
        poison_attack_rounds=20,
    ),
    "paper": Scale(
        name="paper",
        rounds=100,
        clients_per_round=10,
        model_size="paper",
        fmnist_clients=100,
        fmnist_samples=200,
        fmnist_image_size=28,
        fmnist_local_batches=10,
        poets_clients=20,
        poets_samples=1000,
        poets_seq_len=80,
        poets_local_batches=35,
        poets_learning_rate=0.8,
        poets_momentum=0.0,
        poets_normalization="standard",
        cifar_clients=94,
        cifar_samples=100,
        cifar_image_size=32,
        cifar_superclasses=20,
        cifar_local_batches=45,
        cifar_local_epochs=5,
        fedprox_clients=30,
        fedprox_mean_samples=100,
        measure_every=5,
        poison_clean_rounds=100,
        poison_attack_rounds=100,
    ),
}


def resolve_scale(name: str | None = None) -> Scale:
    """Resolve a profile by name, ``REPRO_SCALE``, or the smoke default."""
    if name is None:
        name = os.environ.get("REPRO_SCALE", "smoke")
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; available: {sorted(SCALES)}"
        ) from None
