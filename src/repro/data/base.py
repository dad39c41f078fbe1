"""Containers for federated datasets.

A :class:`FederatedDataset` is a collection of :class:`ClientData`, each
holding a private train/test split (the paper uses 90:10 per client) plus
a ground-truth cluster id used only by the *evaluation* metrics — the
learning algorithms never see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils import shm as shm_registry

__all__ = ["ClientData", "FederatedDataset", "train_test_split"]

#: The tensor fields a shared-memory export covers, in layout order.
_TENSOR_FIELDS = ("x_train", "y_train", "x_test", "y_test")

#: Estimated pickle size of a client's attach-by-name tensor handle.
_HANDLE_NBYTES = 192


def _align(offset: int, alignment: int = 16) -> int:
    return (offset + alignment - 1) & ~(alignment - 1)


def train_test_split(
    x: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    *,
    test_fraction: float = 0.1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle and split into train/test with at least one test sample.

    ``test_fraction`` must be finite and strictly between 0 and 1.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    order = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    n_test = min(n_test, n - 1)
    test_idx = order[:n_test]
    train_idx = order[n_test:]
    return x[train_idx], y[train_idx], x[test_idx], y[test_idx]


@dataclass
class ClientData:
    """One client's private data and ground-truth cluster label."""

    client_id: int
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    cluster_id: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.x_train.shape[0] != self.y_train.shape[0]:
            raise ValueError("x_train/y_train length mismatch")
        if self.x_test.shape[0] != self.y_test.shape[0]:
            raise ValueError("x_test/y_test length mismatch")
        if self.x_train.shape[0] == 0 or self.x_test.shape[0] == 0:
            raise ValueError("clients must have non-empty train and test data")

    @property
    def n_train(self) -> int:
        return int(self.x_train.shape[0])

    @property
    def n_test(self) -> int:
        return int(self.x_test.shape[0])

    def classes_present(self) -> np.ndarray:
        """Sorted unique labels across this client's train and test data."""
        return np.unique(np.concatenate([self.y_train, self.y_test]))

    # ------------------------------------------------- shared-memory plane
    @property
    def is_shared(self) -> bool:
        """True when the tensors live in a shared-memory segment."""
        return getattr(self, "_shm_handle", None) is not None

    def share_memory(self) -> "ClientData":
        """One-time export of the four tensors into one shared segment.

        The arrays are copied once (bit-exact) into a named
        ``multiprocessing.shared_memory`` segment and the fields replaced
        by views into it; from then on pickling this object ships an
        attach-by-name handle — ``(segment, offsets)`` — instead of
        the tensor bytes, so a persistent pool worker maps the data once
        and reuses the mapping across rounds.  Idempotent; returns
        ``self`` for chaining.  :meth:`close_shared` (or interpreter
        exit) unlinks the segment; live views stay valid.
        """
        if self.is_shared:
            return self
        layout = []
        offset = 0
        for name in _TENSOR_FIELDS:
            array = np.ascontiguousarray(getattr(self, name))
            offset = _align(offset)
            layout.append((name, array, offset, array.shape, array.dtype.str))
            offset += array.nbytes
        segment = shm_registry.create_segment(offset)
        entries = []
        for name, array, start, shape, dtype in layout:
            view = np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=start)
            view[...] = array
            setattr(self, name, view)
            entries.append((name, start, shape, dtype))
        self._shm_handle = {
            "name": segment.name,
            "entries": entries,
        }
        return self

    def close_shared(self) -> None:
        """Unlink this client's segment and revert to heap tensors.

        The inverse of :meth:`share_memory` (idempotent): the fields are
        re-materialized as ordinary heap copies and the handle dropped,
        so the object stays usable — and re-shareable — afterwards and
        can never pickle a handle to an unlinked name.  Worker-side
        mappings stay valid until collected.
        """
        handle = getattr(self, "_shm_handle", None)
        if handle is None:
            return
        for name in _TENSOR_FIELDS:
            setattr(self, name, np.array(getattr(self, name), copy=True))
        self._shm_handle = None
        shm_registry.unlink_segment(handle["name"])

    def _cost_footprint(self, walk) -> tuple[int, int]:
        """(shipped bytes, dense bytes) for the substrate's router."""
        dense = sum(getattr(self, name).nbytes for name in _TENSOR_FIELDS)
        return (_HANDLE_NBYTES if self.is_shared else dense), dense

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        if state.get("_shm_handle") is not None:
            for name in _TENSOR_FIELDS:
                del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        handle = state.get("_shm_handle")
        self.__dict__.update(state)
        if handle is not None:
            segment = shm_registry.attach_cached(handle["name"])
            for name, start, shape, dtype in handle["entries"]:
                view = np.ndarray(
                    shape, dtype=dtype, buffer=segment.buf, offset=start
                )
                setattr(self, name, view)


@dataclass
class FederatedDataset:
    """A named federation of clients over a shared label space."""

    name: str
    num_classes: int
    num_clusters: int
    clients: list[ClientData]

    def __post_init__(self) -> None:
        if not self.clients:
            raise ValueError("a federated dataset needs at least one client")
        ids = [c.client_id for c in self.clients]
        if len(set(ids)) != len(ids):
            raise ValueError("client ids must be unique")

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    def client(self, client_id: int) -> ClientData:
        """Look up a client by id."""
        for c in self.clients:
            if c.client_id == client_id:
                return c
        raise KeyError(f"no client with id {client_id}")

    def share_memory(self) -> "FederatedDataset":
        """Export every client's tensors to shared memory (idempotent)."""
        for client in self.clients:
            client.share_memory()
        return self

    def close_shared(self) -> None:
        """Unlink every client's segment (idempotent)."""
        for client in self.clients:
            client.close_shared()

    def cluster_labels(self) -> dict[int, int]:
        """Map client id -> ground-truth cluster id."""
        return {c.client_id: c.cluster_id for c in self.clients}

    def clients_in_cluster(self, cluster_id: int) -> list[ClientData]:
        return [c for c in self.clients if c.cluster_id == cluster_id]

    def global_test_set(self) -> tuple[np.ndarray, np.ndarray]:
        """Concatenation of every client's test data (for global metrics)."""
        xs = np.concatenate([c.x_test for c in self.clients], axis=0)
        ys = np.concatenate([c.y_test for c in self.clients], axis=0)
        return xs, ys

    def summary(self) -> dict:
        """Lightweight description used by experiment logs."""
        sizes = [c.n_train for c in self.clients]
        return {
            "name": self.name,
            "clients": self.num_clients,
            "classes": self.num_classes,
            "clusters": self.num_clusters,
            "train_samples": int(np.sum(sizes)),
            "min_client_train": int(np.min(sizes)),
            "max_client_train": int(np.max(sizes)),
        }
