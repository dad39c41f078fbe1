"""The glyph kernels of ``repro.data.imaging`` against their scipy oracles.

Every comparison is on the bytes, not within a tolerance: the FMNIST
datasets and every digest pinned on them depend on these kernels giving
scipy's bits exactly.  scipy is a development dependency only.
"""

import numpy as np
import pytest

from repro.data import imaging
from repro.data.fmnist import GLYPH_BITMAPS, WriterStyle, render_digit

ndimage = pytest.importorskip("scipy.ndimage")
special = pytest.importorskip("scipy.special")

#: Angles in every octant, both signs, a few turns either way.
ANGLES = np.concatenate(
    [
        np.arange(-720.0, 720.5, 7.5),
        np.random.default_rng(0).uniform(-720.0, 720.0, 400),
        [0.0, -0.0, 1e-300, -1e-300, 44.999999999, 45.0, 135.0, 1e13, -1e13],
    ]
)


def assert_same_bits(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def random_images(seed, count):
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=(int(rng.integers(3, 20)), int(rng.integers(3, 20))))
        for _ in range(count)
    ]


def glyph_canvases():
    return [render_digit(d, size) for d in GLYPH_BITMAPS for size in (8, 13, 14, 28)]


def test_sindg_and_cosdg_match_cephes():
    for angle in ANGLES:
        assert_same_bits(imaging.sindg(angle), special.sindg(angle))
        assert_same_bits(imaging.cosdg(angle), special.cosdg(angle))


@pytest.mark.parametrize("size", range(8, 33))
def test_zoom_matches_every_glyph_at_every_size(size):
    inner = size - 4
    for bitmap in GLYPH_BITMAPS.values():
        factors = (inner / bitmap.shape[0], inner / bitmap.shape[1])
        assert_same_bits(imaging.zoom(bitmap, factors), ndimage.zoom(bitmap, factors, order=1))


def test_zoom_matches_on_random_images():
    rng = np.random.default_rng(1)
    for image in random_images(2, 200):
        factors = tuple(rng.uniform(0.5, 4.0, 2))
        assert_same_bits(imaging.zoom(image, factors), ndimage.zoom(image, factors, order=1))


def test_rotate_matches_in_every_octant():
    images = random_images(3, len(ANGLES))
    canvases = glyph_canvases()
    for i, angle in enumerate(ANGLES):
        for image in (images[i], canvases[i % len(canvases)]):
            assert_same_bits(
                imaging.rotate(image, angle),
                ndimage.rotate(image, angle, reshape=False, order=1),
            )


def test_rotate_of_a_stack_rotates_each_image():
    canvases = np.stack([render_digit(d, 14) for d in GLYPH_BITMAPS])
    rotated = imaging.rotate(canvases, -9.25)
    for canvas, out in zip(canvases, rotated):
        assert_same_bits(out, ndimage.rotate(canvas, -9.25, reshape=False, order=1))


def test_gaussian_filter_matches():
    rng = np.random.default_rng(4)
    images = random_images(5, 150) + glyph_canvases()
    for image in images:
        sigma = float(rng.uniform(0.2, 3.0))
        expected = ndimage.gaussian_filter(image, sigma)
        assert_same_bits(imaging.gaussian_filter(image, sigma), expected)
    stack = np.stack([render_digit(d, 14) for d in GLYPH_BITMAPS])
    for image, out in zip(stack, imaging.gaussian_filter(stack, 0.55)):
        assert_same_bits(out, ndimage.gaussian_filter(image, 0.55))


@pytest.mark.parametrize("kind", ["random", "integer", "half-integer", "extreme"])
def test_shift_matches(kind):
    rng = np.random.default_rng(6)
    draw = {
        "random": lambda: rng.uniform(-3.0, 3.0, 2),
        "integer": lambda: rng.integers(-4, 5, 2).astype(float),
        "half-integer": lambda: rng.integers(-8, 9, 2) / 2.0,
        "extreme": lambda: rng.uniform(-40.0, 40.0, 2),
    }[kind]
    for image in random_images(7, 150) + glyph_canvases():
        offset = draw()
        assert_same_bits(
            imaging.shift(image, offset), ndimage.shift(image, offset, order=1, mode="constant")
        )


def test_shift_of_a_stack_shifts_each_image_by_its_own_offset():
    rng = np.random.default_rng(8)
    images = rng.normal(size=(40, 11, 9))
    offsets = rng.uniform(-2.5, 2.5, (40, 2))
    for image, offset, out in zip(images, offsets, imaging.shift(images, offsets)):
        assert_same_bits(out, ndimage.shift(image, offset, order=1, mode="constant"))


def test_negative_zero_pixels_interpolate_to_positive_zero():
    """scipy sums the corner terms onto +0.0, so -0.0 inputs come out +0.0."""
    image = -np.abs(np.random.default_rng(9).normal(size=(6, 7)))
    image[::2, ::3] = -0.0
    for offset in [(0.0, 0.0), (1.0, 2.0), (-1.0, 0.5)]:
        assert_same_bits(
            imaging.shift(image, offset), ndimage.shift(image, offset, order=1, mode="constant")
        )
    assert_same_bits(imaging.rotate(image, 90.0), ndimage.rotate(image, 90.0, reshape=False, order=1))


def scipy_sample(style, digit, rng):
    """``WriterStyle.sample`` as rendered through scipy.ndimage."""
    bitmap = GLYPH_BITMAPS[digit]
    inner = style.image_size - 4
    zoomed = ndimage.zoom(bitmap, (inner / bitmap.shape[0], inner / bitmap.shape[1]), order=1)
    canvas = np.zeros((style.image_size, style.image_size))
    canvas[2 : 2 + zoomed.shape[0], 2 : 2 + zoomed.shape[1]] = np.clip(zoomed, 0.0, 1.0)
    rotated = ndimage.rotate(canvas, style.angle, reshape=False, order=1)
    blurred = ndimage.gaussian_filter(rotated, style.blur_sigma)
    proto = np.clip(blurred * style.contrast, 0.0, 1.0)
    offset = style.shift_bias + rng.uniform(-1.0, 1.0, size=2)
    shifted = ndimage.shift(proto, offset, order=1, mode="constant")
    return np.clip(shifted + rng.normal(0.0, style.noise_level, size=proto.shape), 0.0, 1.0)


@pytest.mark.parametrize("image_size", [8, 14, 28])
def test_writer_samples_match_the_scipy_renderer(image_size):
    for seed in range(4):
        digits = np.random.default_rng(seed).integers(0, 16, size=25)
        style = WriterStyle(np.random.default_rng(seed), image_size)
        rng = np.random.default_rng(seed + 100)
        reference_rng = np.random.default_rng(seed + 100)
        batch = style.samples(digits, rng)
        for digit, sample in zip(digits, batch):
            assert_same_bits(sample, scipy_sample(style, int(digit), reference_rng))
        # One batched call consumes the stream exactly as per-sample calls.
        assert rng.random() == reference_rng.random()
