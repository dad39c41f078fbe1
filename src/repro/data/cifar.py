"""A CIFAR-100-like procedural image dataset.

CIFAR-100 has 100 classes grouped into 20 superclasses; the paper uses the
superclasses as ground-truth clusters and allocates samples to 94 clients
with the Pachinko Allocation Method.  The offline substitute generates
small RGB texture images: classes within a superclass share a color
palette (so within-superclass generalization pays off) while each class
adds a distinctive oriented sinusoidal grating (so classes remain
separable).
"""

from __future__ import annotations

import numpy as np

from repro.data.base import ClientData, FederatedDataset, train_test_split
from repro.data.pachinko import pachinko_allocation
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive

__all__ = ["ClassTemplate", "make_cifar100_like", "default_hierarchy"]


def default_hierarchy(
    num_superclasses: int = 20, classes_per_superclass: int = 5
) -> dict[int, list[int]]:
    """The CIFAR-100 shape: superclass s owns classes [5s, 5s+5)."""
    return {
        s: list(
            range(s * classes_per_superclass, (s + 1) * classes_per_superclass)
        )
        for s in range(num_superclasses)
    }


class ClassTemplate:
    """Deterministic generative template for one image class."""

    def __init__(
        self,
        base_color: np.ndarray,
        frequency: float,
        orientation: float,
        phase: float,
        amplitude: float,
        image_size: int,
    ):
        self.base_color = base_color
        self.image_size = image_size
        yy, xx = np.mgrid[0:image_size, 0:image_size].astype(np.float64)
        wave_axis = xx * np.cos(orientation) + yy * np.sin(orientation)
        self.pattern = amplitude * np.sin(
            2.0 * np.pi * frequency * wave_axis / image_size + phase
        )

    def sample(self, rng: np.random.Generator, *, noise: float = 0.08) -> np.ndarray:
        """One (3, H, W) image: palette + grating + shift jitter + noise."""
        shift = int(rng.integers(0, self.image_size))
        rolled = np.roll(self.pattern, shift, axis=rng.integers(0, 2))
        img = self.base_color[:, None, None] + rolled[None, :, :]
        img = img + rng.normal(0.0, noise, size=img.shape)
        return np.clip(img, 0.0, 1.0)


def _build_templates(
    hierarchy: dict[int, list[int]], image_size: int, rng: np.random.Generator
) -> dict[int, ClassTemplate]:
    templates: dict[int, ClassTemplate] = {}
    for super_id in sorted(hierarchy):
        # Shared palette per superclass; classes perturb it slightly.
        palette = rng.uniform(0.15, 0.85, size=3)
        for cls in hierarchy[super_id]:
            color = np.clip(palette + rng.normal(0.0, 0.05, size=3), 0.0, 1.0)
            templates[cls] = ClassTemplate(
                base_color=color,
                frequency=float(rng.uniform(1.0, 4.0)),
                orientation=float(rng.uniform(0.0, np.pi)),
                phase=float(rng.uniform(0.0, 2.0 * np.pi)),
                amplitude=float(rng.uniform(0.25, 0.45)),
                image_size=image_size,
            )
    return templates


def make_cifar100_like(
    *,
    num_clients: int = 94,
    samples_per_client: int = 50,
    image_size: int = 16,
    num_superclasses: int = 20,
    classes_per_superclass: int = 5,
    alpha_super: float = 0.1,
    alpha_sub: float = 10.0,
    test_fraction: float = 0.1,
    seed: int | np.random.Generator = 0,
) -> FederatedDataset:
    """CIFAR-100-like federation with Pachinko client allocation.

    Clients receive mixtures over superclasses; the ground-truth cluster of
    a client is its *modal* superclass (ties broken at random), exactly the
    paper's analysis rule for CIFAR-100.  The Dirichlet concentrations
    must be finite and > 0; they are checked before anything is drawn.
    """
    check_positive("alpha_super", alpha_super, finite=True)
    check_positive("alpha_sub", alpha_sub, finite=True)
    rng = ensure_rng(seed)
    hierarchy = default_hierarchy(num_superclasses, classes_per_superclass)
    templates = _build_templates(hierarchy, image_size, rng)
    num_classes = num_superclasses * classes_per_superclass

    # Finite per-class pools make the draws genuinely without replacement.
    pool_per_class = int(
        np.ceil(1.5 * num_clients * samples_per_client / num_classes)
    )
    class_pools = {cls: pool_per_class for cls in range(num_classes)}
    assignments = pachinko_allocation(
        hierarchy,
        class_pools,
        num_clients=num_clients,
        samples_per_client=samples_per_client,
        alpha_super=alpha_super,
        alpha_sub=alpha_sub,
        seed=rng,
    )

    superclass_of = {
        cls: sid for sid, members in hierarchy.items() for cls in members
    }
    clients: list[ClientData] = []
    for client_id, labels in enumerate(assignments):
        client_rng = ensure_rng(int(rng.integers(0, 2**62)))
        label_arr = np.array(labels, dtype=np.int64)
        images = np.stack(
            [templates[int(cls)].sample(client_rng) for cls in label_arr]
        )
        x_tr, y_tr, x_te, y_te = train_test_split(
            images, label_arr, client_rng, test_fraction=test_fraction
        )
        supers = np.array([superclass_of[int(c)] for c in label_arr])
        counts = np.bincount(supers, minlength=num_superclasses)
        top = np.flatnonzero(counts == counts.max())
        cluster_id = int(client_rng.choice(top))
        clients.append(
            ClientData(
                client_id=client_id,
                x_train=x_tr,
                y_train=y_tr,
                x_test=x_te,
                y_test=y_te,
                cluster_id=cluster_id,
                metadata={"superclass_counts": counts.tolist()},
            )
        )
    return FederatedDataset(
        name="cifar100-like",
        num_classes=num_classes,
        num_clusters=num_superclasses,
        clients=clients,
    )
