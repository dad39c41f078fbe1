"""CIFAR-100-like procedural dataset."""

import numpy as np
import pytest

from repro.data.cifar import ClassTemplate, default_hierarchy, make_cifar100_like


def test_default_hierarchy_shape():
    h = default_hierarchy(20, 5)
    assert len(h) == 20
    assert h[0] == [0, 1, 2, 3, 4]
    assert h[19] == [95, 96, 97, 98, 99]
    all_classes = [c for members in h.values() for c in members]
    assert sorted(all_classes) == list(range(100))


def test_template_sample_properties(rng):
    template = ClassTemplate(
        base_color=np.array([0.5, 0.3, 0.7]),
        frequency=2.0,
        orientation=0.5,
        phase=0.0,
        amplitude=0.3,
        image_size=16,
    )
    img = template.sample(rng)
    assert img.shape == (3, 16, 16)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_template_samples_vary(rng):
    template = ClassTemplate(
        base_color=np.array([0.5, 0.5, 0.5]),
        frequency=3.0,
        orientation=1.0,
        phase=0.1,
        amplitude=0.4,
        image_size=8,
    )
    assert not np.allclose(template.sample(rng), template.sample(rng))


def test_dataset_structure():
    ds = make_cifar100_like(
        num_clients=8, samples_per_client=20, num_superclasses=4, seed=0
    )
    assert ds.num_classes == 20
    assert ds.num_clusters == 4
    assert ds.num_clients == 8
    client = ds.clients[0]
    assert client.x_train.shape[1:] == (3, 16, 16)


def test_cluster_is_modal_superclass():
    ds = make_cifar100_like(
        num_clients=6, samples_per_client=30, num_superclasses=4, seed=0
    )
    for client in ds.clients:
        counts = np.array(client.metadata["superclass_counts"])
        assert counts[client.cluster_id] == counts.max()


def test_clients_hold_superclass_mixtures():
    """With PAM, at least some clients must hold more than one superclass."""
    ds = make_cifar100_like(
        num_clients=10, samples_per_client=40, num_superclasses=5, seed=0
    )
    mixtures = sum(
        1
        for client in ds.clients
        if (np.array(client.metadata["superclass_counts"]) > 0).sum() > 1
    )
    assert mixtures > 0


def test_deterministic():
    a = make_cifar100_like(num_clients=4, samples_per_client=10, num_superclasses=3, seed=3)
    b = make_cifar100_like(num_clients=4, samples_per_client=10, num_superclasses=3, seed=3)
    np.testing.assert_array_equal(a.clients[1].x_train, b.clients[1].x_train)
    assert [c.cluster_id for c in a.clients] == [c.cluster_id for c in b.clients]


def test_same_superclass_shares_palette():
    """Within-superclass color distance should be below across-superclass."""
    ds = make_cifar100_like(
        num_clients=4, samples_per_client=10, num_superclasses=6, seed=0
    )
    from repro.data.cifar import _build_templates, default_hierarchy
    from repro.utils.rng import ensure_rng

    hierarchy = default_hierarchy(6, 5)
    templates = _build_templates(hierarchy, 16, ensure_rng(0))
    within, across = [], []
    for sid, members in hierarchy.items():
        base = templates[members[0]].base_color
        within.extend(
            float(np.linalg.norm(templates[m].base_color - base)) for m in members[1:]
        )
        other = hierarchy[(sid + 1) % 6][0]
        across.append(float(np.linalg.norm(templates[other].base_color - base)))
    assert np.mean(within) < np.mean(across)


@pytest.mark.parametrize("name", ["alpha_super", "alpha_sub"])
@pytest.mark.parametrize("value", [0.0, float("nan"), -1.0, float("inf")], ids=repr)
def test_rejects_bad_concentration_before_drawing(name, value):
    """Checked at entry, not deep in numpy's Dirichlet draw or as an
    exhausted class pool; the caller's generator is left untouched."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=name):
        make_cifar100_like(
            num_clients=4, samples_per_client=10, num_superclasses=3,
            seed=rng, **{name: value},
        )
    assert rng.bit_generator.state == state
