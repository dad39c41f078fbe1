"""Dataset containers and splitting."""

import numpy as np
import pytest

from repro.data.base import ClientData, FederatedDataset, train_test_split


def make_client(client_id=0, n=20, cluster=0):
    rng = np.random.default_rng(client_id)
    x = rng.normal(size=(n, 4))
    y = rng.integers(0, 3, size=n)
    return ClientData(
        client_id=client_id,
        x_train=x[: n - 4],
        y_train=y[: n - 4],
        x_test=x[n - 4 :],
        y_test=y[n - 4 :],
        cluster_id=cluster,
    )


def test_split_proportions(rng):
    x = rng.normal(size=(100, 3))
    y = rng.integers(0, 2, size=100)
    x_tr, y_tr, x_te, y_te = train_test_split(x, y, rng, test_fraction=0.1)
    assert len(x_te) == 10
    assert len(x_tr) == 90
    assert len(y_tr) == 90 and len(y_te) == 10


def test_split_always_leaves_one_test_sample(rng):
    x = rng.normal(size=(5, 2))
    y = np.zeros(5, dtype=int)
    _, _, x_te, _ = train_test_split(x, y, rng, test_fraction=0.01)
    assert len(x_te) == 1


def test_split_never_empties_train(rng):
    x = rng.normal(size=(2, 2))
    y = np.zeros(2, dtype=int)
    x_tr, _, x_te, _ = train_test_split(x, y, rng, test_fraction=0.99)
    assert len(x_tr) >= 1 and len(x_te) >= 1


@pytest.mark.parametrize(
    "fraction", [float("nan"), float("inf"), -0.1, 0.0, 1.0, 1.5]
)
def test_split_rejects_fraction_outside_open_unit_interval(rng, fraction):
    x = rng.normal(size=(10, 2))
    y = np.zeros(10, dtype=int)
    with pytest.raises(ValueError, match="test_fraction"):
        train_test_split(x, y, rng, test_fraction=fraction)


def test_split_partitions_disjointly(rng):
    x = np.arange(20, dtype=np.float64).reshape(20, 1)
    y = np.zeros(20, dtype=int)
    x_tr, _, x_te, _ = train_test_split(x, y, rng)
    combined = sorted(np.concatenate([x_tr, x_te]).reshape(-1).tolist())
    assert combined == list(range(20))


def test_split_rejects_single_sample(rng):
    with pytest.raises(ValueError):
        train_test_split(np.zeros((1, 2)), np.zeros(1, dtype=int), rng)


def test_client_data_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        ClientData(0, np.zeros((3, 2)), np.zeros(2), np.zeros((1, 2)), np.zeros(1), 0)
    with pytest.raises(ValueError, match="non-empty"):
        ClientData(0, np.zeros((0, 2)), np.zeros(0), np.zeros((1, 2)), np.zeros(1), 0)


def test_client_counts():
    client = make_client(n=20)
    assert client.n_train == 16
    assert client.n_test == 4


def test_dataset_lookup_and_errors():
    ds = FederatedDataset("t", 3, 2, [make_client(0), make_client(1, cluster=1)])
    assert ds.client(1).client_id == 1
    with pytest.raises(KeyError):
        ds.client(99)


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="unique"):
        FederatedDataset("t", 3, 1, [make_client(0), make_client(0)])


def test_dataset_rejects_empty():
    with pytest.raises(ValueError):
        FederatedDataset("t", 3, 1, [])


def test_cluster_labels_and_membership():
    ds = FederatedDataset(
        "t", 3, 2, [make_client(0, cluster=0), make_client(1, cluster=1), make_client(2, cluster=1)]
    )
    assert ds.cluster_labels() == {0: 0, 1: 1, 2: 1}
    assert [c.client_id for c in ds.clients_in_cluster(1)] == [1, 2]


def test_global_test_set_concatenates():
    ds = FederatedDataset("t", 3, 1, [make_client(0), make_client(1)])
    x, y = ds.global_test_set()
    assert len(x) == 8 and len(y) == 8


def test_summary_fields():
    ds = FederatedDataset("toy", 3, 1, [make_client(0)])
    summary = ds.summary()
    assert summary["name"] == "toy"
    assert summary["clients"] == 1
    assert summary["train_samples"] == 16
