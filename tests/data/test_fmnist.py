"""Procedural FMNIST generator."""

import hashlib

import numpy as np
import pytest

from repro.data.fmnist import (
    DEFAULT_CLUSTERS,
    DIGIT_BITMAPS,
    WriterStyle,
    make_fmnist_by_writer,
    make_fmnist_clustered,
    render_digit,
)


def test_bitmaps_cover_all_digits():
    assert sorted(DIGIT_BITMAPS) == list(range(10))
    for bitmap in DIGIT_BITMAPS.values():
        assert bitmap.shape == (7, 5)
        assert set(np.unique(bitmap)) <= {0.0, 1.0}


def test_bitmaps_are_distinct():
    flat = {tuple(b.reshape(-1)) for b in DIGIT_BITMAPS.values()}
    assert len(flat) == 10


def test_render_shapes_and_range():
    img = render_digit(3, 14)
    assert img.shape == (14, 14)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert img.max() > 0.5  # glyph actually drawn


def test_render_rejects_bad_args():
    with pytest.raises(ValueError):
        render_digit(16, 14)  # beyond the glyph set (0-9 digits, 10-15 letters)
    with pytest.raises(ValueError):
        render_digit(3, 4)


def test_writer_style_prototype_cached(rng):
    style = WriterStyle(rng, 12)
    assert style.prototype(5) is style.prototype(5)


def test_writer_samples_vary(rng):
    style = WriterStyle(rng, 12)
    a = style.sample(2, rng)
    b = style.sample(2, rng)
    assert not np.allclose(a, b)


def test_clustered_respects_class_clusters():
    ds = make_fmnist_clustered(num_clients=9, samples_per_client=30, seed=0)
    for client in ds.clients:
        allowed = set(DEFAULT_CLUSTERS[client.cluster_id])
        present = set(client.classes_present().tolist())
        assert present <= allowed


def test_clustered_balanced_assignment():
    ds = make_fmnist_clustered(num_clients=9, samples_per_client=20, seed=0)
    counts = np.bincount([c.cluster_id for c in ds.clients])
    assert counts.tolist() == [3, 3, 3]


def test_relaxed_contains_foreign_classes():
    ds = make_fmnist_clustered(
        num_clients=6,
        samples_per_client=100,
        foreign_fraction=(0.15, 0.20),
        seed=0,
    )
    assert ds.name == "fmnist-clustered-relaxed"
    foreign_found = 0
    for client in ds.clients:
        allowed = set(DEFAULT_CLUSTERS[client.cluster_id])
        labels = np.concatenate([client.y_train, client.y_test])
        foreign = sum(1 for label in labels if label not in allowed)
        fraction = foreign / len(labels)
        assert 0.05 < fraction < 0.35  # around the 15-20 % target
        foreign_found += foreign
    assert foreign_found > 0


def test_image_tensor_layout():
    ds = make_fmnist_clustered(num_clients=3, samples_per_client=10, image_size=12, seed=0)
    client = ds.clients[0]
    assert client.x_train.shape[1:] == (1, 12, 12)
    assert client.x_train.min() >= 0.0 and client.x_train.max() <= 1.0


def test_deterministic_under_seed():
    a = make_fmnist_clustered(num_clients=3, samples_per_client=10, seed=42)
    b = make_fmnist_clustered(num_clients=3, samples_per_client=10, seed=42)
    np.testing.assert_array_equal(a.clients[0].x_train, b.clients[0].x_train)
    np.testing.assert_array_equal(a.clients[0].y_train, b.clients[0].y_train)


def test_different_seeds_differ():
    a = make_fmnist_clustered(num_clients=3, samples_per_client=10, seed=1)
    b = make_fmnist_clustered(num_clients=3, samples_per_client=10, seed=2)
    assert not np.allclose(a.clients[0].x_train, b.clients[0].x_train)


def test_needs_one_client_per_cluster():
    with pytest.raises(ValueError):
        make_fmnist_clustered(num_clients=2, samples_per_client=10, seed=0)


def test_overlapping_clusters_rejected():
    with pytest.raises(ValueError, match="two clusters"):
        make_fmnist_clustered(
            num_clients=4, samples_per_client=10, clusters=((0, 1), (1, 2)), seed=0
        )


def test_by_writer_holds_all_classes():
    ds = make_fmnist_by_writer(num_clients=4, samples_per_client=100, seed=0)
    assert ds.num_clusters == 1
    for client in ds.clients:
        assert len(client.classes_present()) == 10


def test_writer_styles_differ():
    ds = make_fmnist_by_writer(num_clients=5, samples_per_client=10, seed=0)
    angles = [c.metadata["style_angle"] for c in ds.clients]
    assert len(set(angles)) == 5


def test_letter_glyphs_available():
    from repro.data.fmnist import GLYPH_BITMAPS

    assert sorted(GLYPH_BITMAPS) == list(range(16))
    flat = {tuple(b.reshape(-1)) for b in GLYPH_BITMAPS.values()}
    assert len(flat) == 16  # all glyphs distinct


def test_render_letter():
    img = render_digit(10, 14)  # 'A'
    assert img.shape == (14, 14)
    assert img.max() > 0.5


def test_by_writer_with_letters():
    ds = make_fmnist_by_writer(
        num_clients=3, samples_per_client=120, num_classes=16, seed=0
    )
    assert ds.num_classes == 16
    labels = np.concatenate(
        [np.concatenate([c.y_train, c.y_test]) for c in ds.clients]
    )
    assert labels.max() == 15


def test_by_writer_num_classes_validation():
    import pytest as _pytest

    with _pytest.raises(ValueError):
        make_fmnist_by_writer(num_clients=2, samples_per_client=10, num_classes=1)
    with _pytest.raises(ValueError):
        make_fmnist_by_writer(num_clients=2, samples_per_client=10, num_classes=17)


def dataset_digest(dataset):
    """sha256 over every client's tensors, with their dtypes and shapes."""
    digest = hashlib.sha256()
    for client in dataset.clients:
        for array in (client.x_train, client.y_train, client.x_test, client.y_test):
            array = np.ascontiguousarray(array)
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


#: Generated-dataset digests recorded with the scipy.ndimage renderer; the
#: numpy kernels must reproduce its bytes.  ``e2e-rounds`` is the dataset
#: of the end-to-end rounds workloads at seed 0.
DATASET_DIGESTS = {
    "clustered-8": (
        lambda: make_fmnist_clustered(num_clients=6, samples_per_client=20, image_size=8, seed=0),
        "49a0688d550d528ead6eabdb93266f750f114afc9c94e74e2e5c0d08de3d87d8",
    ),
    "clustered-10": (
        lambda: make_fmnist_clustered(num_clients=6, samples_per_client=20, image_size=10, seed=1),
        "8e936db0f82cd0dfc3464d4ae48f0baebef88c08542412491a85a3fa3e8fd6e5",
    ),
    "clustered-14": (
        lambda: make_fmnist_clustered(num_clients=6, samples_per_client=20, image_size=14, seed=2),
        "e4e666691a3c02da75a0f8f68327c5171e77ca2a5e47043fd112f82cb4e46773",
    ),
    "clustered-28": (
        lambda: make_fmnist_clustered(num_clients=6, samples_per_client=20, image_size=28, seed=3),
        "ef674359350025ffc3bc20ed0807cd5db58acb5aad472c70f36d7b257af7d3af",
    ),
    "relaxed-14": (
        lambda: make_fmnist_clustered(
            num_clients=6,
            samples_per_client=40,
            image_size=14,
            foreign_fraction=(0.15, 0.20),
            seed=4,
        ),
        "b318de2cf1ff3e13548a92e45548ee8bb2936f9a8bcd1f71e73971abe39f729d",
    ),
    "by-writer-16": (
        lambda: make_fmnist_by_writer(
            num_clients=4, samples_per_client=40, image_size=14, num_classes=16, seed=5
        ),
        "36c3d1b63a5a97d323eb4607d15d9bf94aea37ac7d3eaf28f544b6fa30e3f56e",
    ),
    "e2e-rounds": (
        lambda: make_fmnist_clustered(
            num_clients=100, samples_per_client=80, image_size=14, seed=0
        ),
        "dc183971c0d0c737b077ceddcada064287c3171d33d75de24a315aebf62cdc7c",
    ),
}


@pytest.mark.parametrize("name", sorted(DATASET_DIGESTS))
def test_dataset_bytes_are_pinned(name):
    build, expected = DATASET_DIGESTS[name]
    assert dataset_digest(build()) == expected


def test_render_digit_is_cached_and_read_only():
    assert render_digit(4, 14) is render_digit(4, 14)
    assert not render_digit(4, 14).flags.writeable


def test_sample_is_the_one_sample_batch(rng):
    style = WriterStyle(rng, 14)
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    np.testing.assert_array_equal(style.sample(7, a), style.samples([7], b)[0])
    assert a.random() == b.random()


@pytest.mark.parametrize(
    "fraction", [(0.5, 1.5), (-0.5, -0.2), (0.3, 0.2), (float("nan"), 0.2)]
)
def test_foreign_fraction_validated_at_entry(fraction):
    with pytest.raises(ValueError, match="foreign_fraction"):
        make_fmnist_clustered(
            num_clients=3, samples_per_client=10, foreign_fraction=fraction, seed=0
        )


@pytest.mark.parametrize("build", [make_fmnist_clustered, make_fmnist_by_writer])
@pytest.mark.parametrize("fraction", [float("nan"), 1.5, 1.0, 0.0])
def test_test_fraction_validated(build, fraction):
    with pytest.raises(ValueError, match="test_fraction"):
        build(num_clients=3, samples_per_client=10, test_fraction=fraction, seed=0)
