"""Pachinko Allocation Method (PAM) for client data assignment.

The paper allocates CIFAR-100 samples to clients "using the Pachinko
Allocation Method based on random draws (without replacement) from
symmetric Dirichlet distributions over the superclasses and associated
subclasses, as used by the TensorFlow Federated framework".  This module
implements that two-level scheme over an explicit class hierarchy.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive

__all__ = ["pachinko_allocation"]


def pachinko_allocation(
    hierarchy: dict[int, list[int]],
    class_pool_sizes: dict[int, int],
    *,
    num_clients: int,
    samples_per_client: int,
    alpha_super: float = 0.1,
    alpha_sub: float = 10.0,
    seed: int | np.random.Generator = 0,
) -> list[list[int]]:
    """Assign class labels to clients by two-level Dirichlet draws.

    ``hierarchy`` maps superclass id -> list of class ids; the pool sizes
    bound how many samples of each class exist globally (draws are without
    replacement).  Returns, per client, the list of class ids its samples
    belong to.  A small ``alpha_super`` concentrates each client on few
    superclasses (the non-IID knob); ``alpha_sub`` spreads samples within a
    superclass.

    Raises ``ValueError`` if the total pool is too small for the request,
    or if a concentration is not a finite value > 0.
    """
    check_positive("alpha_super", alpha_super, finite=True)
    check_positive("alpha_sub", alpha_sub, finite=True)
    rng = ensure_rng(seed)
    total_pool = sum(class_pool_sizes.values())
    needed = num_clients * samples_per_client
    if needed > total_pool:
        raise ValueError(
            f"pool of {total_pool} samples cannot serve "
            f"{num_clients} x {samples_per_client}"
        )
    for super_id, members in hierarchy.items():
        for cls in members:
            if cls not in class_pool_sizes:
                raise ValueError(f"class {cls} of superclass {super_id} has no pool")

    remaining = dict(class_pool_sizes)
    assignments: list[list[int]] = []
    super_ids = sorted(hierarchy)
    for _ in range(num_clients):
        # Per-client multinomial mixtures (the "pachinko machine").
        theta_super = rng.dirichlet([alpha_super] * len(super_ids))
        theta_sub = {
            sid: rng.dirichlet([alpha_sub] * len(hierarchy[sid])) for sid in super_ids
        }
        picked: list[int] = []
        for _ in range(samples_per_client):
            label = _draw_one(
                super_ids, hierarchy, theta_super, theta_sub, remaining, rng
            )
            picked.append(label)
            remaining[label] -= 1
        assignments.append(picked)
    return assignments


def _draw_one(
    super_ids: list[int],
    hierarchy: dict[int, list[int]],
    theta_super: np.ndarray,
    theta_sub: dict[int, np.ndarray],
    remaining: dict[int, int],
    rng: np.random.Generator,
) -> int:
    """Draw one class label respecting pool exhaustion.

    Exhausted classes get zero probability; if a whole superclass is
    exhausted its mass is renormalized away, mirroring the TFF behaviour of
    removing empty leaves from the allocation tree.
    """
    super_mass = np.array(
        [
            theta_super[i] if any(remaining[c] > 0 for c in hierarchy[sid]) else 0.0
            for i, sid in enumerate(super_ids)
        ]
    )
    total = super_mass.sum()
    if total <= 0:
        raise ValueError("all class pools exhausted")
    super_mass /= total
    sid = super_ids[int(rng.choice(len(super_ids), p=super_mass))]

    members = hierarchy[sid]
    sub_mass = np.array(
        [
            theta_sub[sid][j] if remaining[cls] > 0 else 0.0
            for j, cls in enumerate(members)
        ]
    )
    sub_total = sub_mass.sum()
    if sub_total <= 0:  # defensive; super_mass already excluded empty supers
        raise ValueError(f"superclass {sid} exhausted")
    sub_mass /= sub_total
    return members[int(rng.choice(len(members), p=sub_mass))]
