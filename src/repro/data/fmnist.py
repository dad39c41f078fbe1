"""Procedural FMNIST-like handwriting data.

The paper synthetically re-clusters FEMNIST by digit groups {0,1,2,3},
{4,5,6}, {7,8,9}.  Without network access we render digit glyphs
procedurally: a canonical 7x5 bitmap per digit is upscaled, then each
simulated *writer* applies a consistent style (rotation, stroke blur,
contrast) with per-sample jitter (shift, pixel noise).  This preserves the
two properties the experiments rely on: images of the same class are
learnable, and per-writer style variation exists for the writer-split
(poisoning) experiments.
"""

from __future__ import annotations

import numpy as np

from repro.data.base import ClientData, FederatedDataset, train_test_split
from repro.utils.rng import ensure_rng

__all__ = [
    "DIGIT_BITMAPS",
    "GLYPH_BITMAPS",
    "DEFAULT_CLUSTERS",
    "render_digit",
    "WriterStyle",
    "make_fmnist_clustered",
    "make_fmnist_by_writer",
]

_BITMAP_STRINGS = {
    0: ("01110", "10001", "10001", "10001", "10001", "10001", "01110"),
    1: ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    2: ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    3: ("11110", "00001", "00001", "01110", "00001", "00001", "11110"),
    4: ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    5: ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    6: ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    7: ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    8: ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    9: ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
}

_LETTER_STRINGS = {
    # EMNIST also covers letters; classes 10+ extend the glyph set.
    10: ("01110", "10001", "10001", "11111", "10001", "10001", "10001"),  # A
    11: ("11110", "10001", "10001", "11110", "10001", "10001", "11110"),  # B
    12: ("01110", "10001", "10000", "10000", "10000", "10001", "01110"),  # C
    13: ("11110", "10001", "10001", "10001", "10001", "10001", "11110"),  # D
    14: ("11111", "10000", "10000", "11110", "10000", "10000", "11111"),  # E
    15: ("11111", "10000", "10000", "11110", "10000", "10000", "10000"),  # F
}


def _parse(rows: tuple[str, ...]) -> np.ndarray:
    return np.array([[float(ch) for ch in row] for row in rows])


#: Canonical 7x5 float bitmaps for the ten digits.
DIGIT_BITMAPS: dict[int, np.ndarray] = {
    digit: _parse(rows) for digit, rows in _BITMAP_STRINGS.items()
}

#: Digits 0-9 plus letters A-F (classes 10-15), EMNIST-style.
GLYPH_BITMAPS: dict[int, np.ndarray] = {
    **DIGIT_BITMAPS,
    **{cls: _parse(rows) for cls, rows in _LETTER_STRINGS.items()},
}

#: The class clusters used throughout the paper's FMNIST experiments.
DEFAULT_CLUSTERS: tuple[tuple[int, ...], ...] = ((0, 1, 2, 3), (4, 5, 6), (7, 8, 9))


def render_digit(digit: int, image_size: int, *, margin: int = 2) -> np.ndarray:
    """Upscale the canonical bitmap of a glyph to ``image_size`` square.

    Accepts digit classes 0-9 and letter classes 10-15.
    """
    if digit not in GLYPH_BITMAPS:
        raise ValueError(f"unknown digit {digit}")
    if image_size < 8:
        raise ValueError("image_size must be >= 8")
    # scipy loads on the first render, not with the package: only the
    # glyph renderer uses it.
    from scipy import ndimage

    bitmap = GLYPH_BITMAPS[digit]
    inner = image_size - 2 * margin
    zoomed = ndimage.zoom(
        bitmap, (inner / bitmap.shape[0], inner / bitmap.shape[1]), order=1
    )
    zoomed = np.clip(zoomed, 0.0, 1.0)
    canvas = np.zeros((image_size, image_size))
    canvas[margin : margin + zoomed.shape[0], margin : margin + zoomed.shape[1]] = zoomed
    return canvas


class WriterStyle:
    """A simulated writer: consistent per-writer glyph transformation.

    The style pre-renders a prototype per class (rotation + blur +
    contrast applied once), so that per-sample generation only needs a
    cheap shift and pixel noise.
    """

    def __init__(self, rng: np.random.Generator, image_size: int):
        self.angle = float(rng.uniform(-12.0, 12.0))
        self.blur_sigma = float(rng.uniform(0.3, 0.8))
        self.contrast = float(rng.uniform(0.75, 1.2))
        self.noise_level = float(rng.uniform(0.04, 0.12))
        self.shift_bias = rng.uniform(-1.0, 1.0, size=2)
        self.image_size = image_size
        self._prototypes: dict[int, np.ndarray] = {}

    def prototype(self, digit: int) -> np.ndarray:
        """Writer-specific canonical image of ``digit``."""
        cached = self._prototypes.get(digit)
        if cached is not None:
            return cached
        from scipy import ndimage

        canvas = render_digit(digit, self.image_size)
        rotated = ndimage.rotate(canvas, self.angle, reshape=False, order=1)
        blurred = ndimage.gaussian_filter(rotated, self.blur_sigma)
        proto = np.clip(blurred * self.contrast, 0.0, 1.0)
        self._prototypes[digit] = proto
        return proto

    def sample(self, digit: int, rng: np.random.Generator) -> np.ndarray:
        """One noisy sample of ``digit`` in this writer's style."""
        from scipy import ndimage

        proto = self.prototype(digit)
        shift = self.shift_bias + rng.uniform(-1.0, 1.0, size=2)
        shifted = ndimage.shift(proto, shift, order=1, mode="constant")
        noisy = shifted + rng.normal(0.0, self.noise_level, size=proto.shape)
        return np.clip(noisy, 0.0, 1.0)


def _generate_client_images(
    classes: np.ndarray,
    style: WriterStyle,
    rng: np.random.Generator,
) -> np.ndarray:
    images = np.empty((classes.shape[0], 1, style.image_size, style.image_size))
    for i, digit in enumerate(classes):
        images[i, 0] = style.sample(int(digit), rng)
    return images


def _cluster_of_class(clusters: tuple[tuple[int, ...], ...]) -> dict[int, int]:
    mapping: dict[int, int] = {}
    for cluster_id, members in enumerate(clusters):
        for cls in members:
            if cls in mapping:
                raise ValueError(f"class {cls} appears in two clusters")
            mapping[cls] = cluster_id
    return mapping


def make_fmnist_clustered(
    *,
    num_clients: int = 30,
    samples_per_client: int = 60,
    image_size: int = 14,
    clusters: tuple[tuple[int, ...], ...] = DEFAULT_CLUSTERS,
    foreign_fraction: tuple[float, float] | None = None,
    test_fraction: float = 0.1,
    seed: int | np.random.Generator = 0,
) -> FederatedDataset:
    """FMNIST-clustered: clients hold digits from one class cluster.

    ``foreign_fraction=(low, high)`` produces the paper's *relaxed*
    variant where each client additionally holds that fraction of samples
    drawn from other clusters' classes (the paper uses 15-20 %).
    Clients are assigned to clusters round-robin so cluster sizes are
    balanced, exactly as the paper assigns "an equal number of clients to
    each cluster".
    """
    rng = ensure_rng(seed)
    if num_clients < len(clusters):
        raise ValueError("need at least one client per cluster")
    class_cluster = _cluster_of_class(clusters)
    all_classes = sorted(class_cluster)
    clients: list[ClientData] = []
    for client_id in range(num_clients):
        cluster_id = client_id % len(clusters)
        own_classes = clusters[cluster_id]
        other_classes = [c for c in all_classes if class_cluster[c] != cluster_id]
        client_rng = ensure_rng(int(rng.integers(0, 2**62)))
        style = WriterStyle(client_rng, image_size)

        if foreign_fraction is not None:
            low, high = foreign_fraction
            frac = client_rng.uniform(low, high)
            n_foreign = int(round(samples_per_client * frac))
        else:
            n_foreign = 0
        n_own = samples_per_client - n_foreign
        labels = np.concatenate(
            [
                client_rng.choice(own_classes, size=n_own),
                client_rng.choice(other_classes, size=n_foreign)
                if n_foreign
                else np.empty(0, dtype=int),
            ]
        ).astype(int)
        client_rng.shuffle(labels)
        images = _generate_client_images(labels, style, client_rng)
        x_tr, y_tr, x_te, y_te = train_test_split(
            images, labels, client_rng, test_fraction=test_fraction
        )
        clients.append(
            ClientData(
                client_id=client_id,
                x_train=x_tr,
                y_train=y_tr,
                x_test=x_te,
                y_test=y_te,
                cluster_id=cluster_id,
                metadata={"style_angle": style.angle},
            )
        )
    name = "fmnist-clustered-relaxed" if foreign_fraction else "fmnist-clustered"
    return FederatedDataset(
        name=name,
        num_classes=10,
        num_clusters=len(clusters),
        clients=clients,
    )


def make_fmnist_by_writer(
    *,
    num_clients: int = 20,
    samples_per_client: int = 60,
    image_size: int = 14,
    test_fraction: float = 0.1,
    num_classes: int = 10,
    seed: int | np.random.Generator = 0,
) -> FederatedDataset:
    """Original FMNIST split: every client (writer) holds all classes.

    This is the configuration of the paper's poisoning experiments
    (Section 5.3.4), which use "the original FMNIST dataset that is split
    by the authors of the handwritten digits".  There is no ground-truth
    clustering, so every client carries ``cluster_id=0``.  Set
    ``num_classes`` up to 16 to include the EMNIST-style letter glyphs
    A-F as classes 10-15.
    """
    if not 2 <= num_classes <= len(GLYPH_BITMAPS):
        raise ValueError(
            f"num_classes must be in [2, {len(GLYPH_BITMAPS)}], got {num_classes}"
        )
    rng = ensure_rng(seed)
    clients: list[ClientData] = []
    for client_id in range(num_clients):
        client_rng = ensure_rng(int(rng.integers(0, 2**62)))
        style = WriterStyle(client_rng, image_size)
        labels = client_rng.integers(0, num_classes, size=samples_per_client)
        images = _generate_client_images(labels, style, client_rng)
        x_tr, y_tr, x_te, y_te = train_test_split(
            images, labels, client_rng, test_fraction=test_fraction
        )
        clients.append(
            ClientData(
                client_id=client_id,
                x_train=x_tr,
                y_train=y_tr,
                x_test=x_te,
                y_test=y_te,
                cluster_id=0,
                metadata={"style_angle": style.angle},
            )
        )
    return FederatedDataset(
        name="fmnist-by-writer",
        num_classes=num_classes,
        num_clusters=1,
        clients=clients,
    )
