"""Model-weight utilities: flat views, copy, and compare.

Model weights have two interchangeable representations:

- the **list-of-arrays** form (one array per
  :class:`~repro.nn.parameter.Parameter`, in layer order) that layers and
  optimizers work with, and
- the **flat** form — a single contiguous 1-D vector holding every scalar
  back to back — that the hot paths prefer: averaging, distance, storage
  in the per-tangle weight arena, and cross-process shipping all become
  single numpy operations on one buffer.

:class:`FlatSpec` is the bridge: derived once from a model's shapes, it
flattens a weight list into a vector and reconstitutes a vector into a
list of *views* (zero-copy) with the original shapes.  Averaging two
parents' rows — the core "merge" of the specializing DAG
(:mod:`repro.fl.aggregation`) — and the FedAvg/FedProx size-weighted
mean are each one stacked-matrix reduction over flat vectors.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FlatSpec",
    "clone_weights",
    "weights_allclose",
    "weights_l2_distance",
    "flatten_weights",
    "total_parameter_count",
]

Weights = list[np.ndarray]


class FlatSpec:
    """Shapes and offsets of a weight list, derived once.

    Maps between the list-of-arrays form and the flat 1-D form.  The spec
    is immutable and hashable on its shapes, so models, arenas, and
    transactions can cheaply check they speak about the same architecture.
    """

    __slots__ = ("shapes", "sizes", "offsets", "total")

    def __init__(self, shapes: tuple[tuple[int, ...], ...]):
        self.shapes = tuple(tuple(int(d) for d in shape) for shape in shapes)
        self.sizes = tuple(int(np.prod(shape, dtype=np.int64)) for shape in self.shapes)
        offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.offsets = tuple(int(o) for o in offsets[:-1])
        self.total = int(offsets[-1])

    # ------------------------------------------------------- constructors
    @classmethod
    def from_weights(cls, weights: Weights) -> "FlatSpec":
        """Spec of an existing weight list."""
        if not weights:
            raise ValueError("cannot derive a FlatSpec from an empty weight list")
        return cls(tuple(np.asarray(w).shape for w in weights))

    @classmethod
    def from_parameters(cls, params) -> "FlatSpec":
        """Spec of a model's parameter list (:class:`Parameter` objects)."""
        return cls(tuple(p.value.shape for p in params))

    # -------------------------------------------------------- conversions
    def flatten(self, weights: Weights, *, out: np.ndarray | None = None) -> np.ndarray:
        """Copy ``weights`` into one contiguous 1-D vector.

        ``out`` lets callers fill a pre-allocated row (e.g. of a stacked
        aggregation matrix or an arena slab) without an intermediate
        allocation.
        """
        if len(weights) != len(self.shapes):
            raise ValueError(
                f"weight sets have different lengths: "
                f"{len(self.shapes)} vs {len(weights)}"
            )
        if out is None:
            out = np.empty(self.total, dtype=np.float64)
        elif out.shape != (self.total,):
            raise ValueError(f"out must have shape ({self.total},), got {out.shape}")
        for offset, size, shape, w in zip(self.offsets, self.sizes, self.shapes, weights):
            w = np.asarray(w)
            if w.shape != shape:
                raise ValueError(f"weight shapes differ: {shape} vs {w.shape}")
            out[offset : offset + size] = w.reshape(-1)
        return out

    def unflatten(self, vector: np.ndarray) -> Weights:
        """Reshape a flat vector back into the per-layer list.

        The returned arrays are **views** into ``vector`` whenever it is
        contiguous — no data is copied.  Callers that need ownership copy
        explicitly (:func:`clone_weights`).
        """
        vector = np.ascontiguousarray(vector)
        if vector.shape != (self.total,):
            raise ValueError(
                f"expected a ({self.total},) vector, got shape {vector.shape}"
            )
        return [
            vector[offset : offset + size].reshape(shape)
            for offset, size, shape in zip(self.offsets, self.sizes, self.shapes)
        ]

    def stack(self, weight_sets: list[Weights]) -> np.ndarray:
        """Flatten several weight sets into one ``(k, total)`` matrix."""
        if not weight_sets:
            raise ValueError("need at least one weight set")
        matrix = np.empty((len(weight_sets), self.total), dtype=np.float64)
        for row, ws in zip(matrix, weight_sets):
            self.flatten(ws, out=row)
        return matrix

    def unflatten_many(self, matrix: np.ndarray) -> list[np.ndarray]:
        """Per-parameter stacks of a ``(k, total)`` matrix of flat rows.

        Returns one ``(k, *shape)`` array per parameter — the batched
        form the fused multi-model forward pass consumes.  Each stack is
        a **view** into ``matrix`` (splitting a row's contiguous
        parameter block never copies), so slicing k models out of a
        weight arena and evaluating them costs no weight copies at all.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != self.total:
            raise ValueError(
                f"expected a (k, {self.total}) matrix, got shape {matrix.shape}"
            )
        k = matrix.shape[0]
        return [
            matrix[:, offset : offset + size].reshape((k, *shape))
            for offset, size, shape in zip(self.offsets, self.sizes, self.shapes)
        ]

    # ------------------------------------------------------------- dunder
    def __eq__(self, other: object) -> bool:
        return isinstance(other, FlatSpec) and self.shapes == other.shapes

    def __hash__(self) -> int:
        return hash(self.shapes)

    def __len__(self) -> int:
        return len(self.shapes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlatSpec({len(self.shapes)} arrays, {self.total} scalars)"


def clone_weights(weights: Weights) -> Weights:
    """Deep-copy a weight list."""
    return [np.array(w, dtype=np.float64, copy=True) for w in weights]


def _check_compatible(weight_sets: list[Weights]) -> None:
    """Validate matching lengths and shapes (for non-flattening callers;
    stacking callers get the same validation from ``FlatSpec.stack``)."""
    if not weight_sets:
        raise ValueError("need at least one weight set")
    first = weight_sets[0]
    for other in weight_sets[1:]:
        if len(other) != len(first):
            raise ValueError(
                f"weight sets have different lengths: {len(first)} vs {len(other)}"
            )
        for a, b in zip(first, other):
            if np.asarray(a).shape != np.asarray(b).shape:
                raise ValueError(
                    f"weight shapes differ: {np.asarray(a).shape} vs {np.asarray(b).shape}"
                )


def weights_allclose(a: Weights, b: Weights, *, atol: float = 1e-10) -> bool:
    """True when two weight lists are element-wise close."""
    if len(a) != len(b):
        return False
    return all(
        x.shape == y.shape and np.allclose(x, y, atol=atol) for x, y in zip(a, b)
    )


def weights_l2_distance(a: Weights, b: Weights) -> float:
    """Euclidean distance between two weight lists viewed as one vector."""
    _check_compatible([a, b])
    return float(
        np.sqrt(sum(float(np.sum((x - y) ** 2)) for x, y in zip(a, b)))
    )


def flatten_weights(weights: Weights) -> np.ndarray:
    """Concatenate all arrays into a single 1-D float64 vector."""
    return FlatSpec.from_weights(weights).flatten(weights)


def total_parameter_count(weights: Weights) -> int:
    """Number of scalars in a weight list."""
    return int(sum(np.asarray(w).size for w in weights))
