"""Order-1 image kernels for the procedural glyph renderer.

Numpy kernels that give the same bits as these ``scipy.ndimage`` calls
(the oracle tests in ``tests/data/test_imaging.py`` compare them):

* :func:`zoom` -- ``ndimage.zoom(image, factors, order=1)``;
* :func:`rotate` -- ``ndimage.rotate(image, angle, reshape=False, order=1)``;
* :func:`gaussian_filter` -- ``ndimage.gaussian_filter(image, sigma)``;
* :func:`shift` -- ``ndimage.shift(image, shift, order=1, mode="constant")``;

plus the degree-argument sine and cosine (:func:`sindg`, :func:`cosdg`,
ports of the cephes routines behind ``scipy.special``) that ``rotate``
builds its matrix from.  Bit-exactness comes from doing scipy's float
operations in scipy's order: every comment naming an order below is
load-bearing.  Every kernel takes a stack of images ``(..., n, m)`` and
treats the last two axes as the image, so a whole client's samples, or a
whole writer's prototypes, go through one vectorized pass.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["sindg", "cosdg", "zoom", "rotate", "gaussian_filter", "shift"]

# cephes sindg.c: polynomial coefficients of sin and cos on [0, pi/4].
_SINCOF = (
    1.58962301572218447952e-10,
    -2.50507477628503540135e-8,
    2.75573136213856773549e-6,
    -1.98412698295895384658e-4,
    8.33333333332211858862e-3,
    -1.66666666666666307295e-1,
)
_COSCOF = (
    1.13678171382044553091e-11,
    -2.08758833757683644217e-9,
    2.75573155429816611547e-7,
    -2.48015872936186303776e-5,
    1.38888888888806666760e-3,
    -4.16666666666666348141e-2,
    4.99999999999999999798e-1,
)
_PI180 = 1.74532925199432957692e-2  # pi / 180
_LOSSTH = 1.0e14


def _polevl(x: float, coefs: tuple[float, ...]) -> float:
    ans = coefs[0]
    for coef in coefs[1:]:
        ans = ans * x + coef
    return ans


def _octant(x: float) -> tuple[float, int]:
    """``x`` (>= 0) reduced to [-45, 45) degrees around its nearest
    multiple of 90, as radians, and that multiple's octant modulo 8."""
    y = math.floor(x / 45.0)
    z = y - math.ldexp(math.floor(math.ldexp(y, -4)), 4)  # y mod 16
    j = int(z)
    if j & 1:  # map zeros to origin
        j += 1
        y += 1.0
    return (x - y * 45.0) * _PI180, j & 7


def _sin_poly(z: float) -> float:
    zz = z * z
    return z + z * (zz * _polevl(zz, _SINCOF))


def _cos_poly(z: float) -> float:
    zz = z * z
    return 1.0 - zz * _polevl(zz, _COSCOF)


def sindg(x: float) -> float:
    """Sine of ``x`` degrees (cephes ``sindg``): exact at multiples of 90."""
    x = float(x)
    sign = 1.0
    if x < 0:
        x, sign = -x, -1.0
    if x > _LOSSTH:
        return 0.0
    z, j = _octant(x)
    if j > 3:
        sign, j = -sign, j - 4
    y = _cos_poly(z) if j in (1, 2) else _sin_poly(z)
    return -y if sign < 0 else y


def cosdg(x: float) -> float:
    """Cosine of ``x`` degrees (cephes ``cosdg``): exact at multiples of 90."""
    x = abs(float(x))
    if x > _LOSSTH:
        return 0.0
    z, j = _octant(x)
    sign = 1.0
    if j > 3:
        sign, j = -sign, j - 4
    if j > 1:
        sign = -sign
    y = _sin_poly(z) if j in (1, 2) else _cos_poly(z)
    return -y if sign < 0 else y


def _interpolate(images: np.ndarray, cy: np.ndarray, cx: np.ndarray) -> np.ndarray:
    """Order-1 samples of ``images`` (..., n, m) at coordinates ``cy``, ``cx``.

    ``cy`` and ``cx`` are 3-d, (stack, rows, cols), and broadcast against
    each other and against the stack of images.  A coordinate outside
    [0, n-1] on either axis reads 0.0 (scipy's ``constant`` mode: nothing
    is interpolated beyond the edge).
    """
    n, m = images.shape[-2:]
    stack = images.reshape((-1, n, m))
    y0 = np.floor(cy)
    x0 = np.floor(cx)
    # scipy's weights: w1 is 1 - w0, not the fractional part itself.
    wy0 = 1.0 - (cy - y0)
    wy1 = 1.0 - wy0
    wx0 = 1.0 - (cx - x0)
    wx1 = 1.0 - wx0
    inside = (cy >= 0) & (cy <= n - 1) & (cx >= 0) & (cx <= m - 1)
    # Flat indices of the four corners into the stack; a coordinate
    # outside the image is clamped here and masked to 0 below.
    row0 = np.clip(y0, 0, n - 1).astype(np.intp) * m
    row1 = np.minimum(row0 + m, (n - 1) * m)
    col0 = np.clip(x0, 0, m - 1).astype(np.intp)
    col1 = np.minimum(col0 + 1, m - 1)
    base = np.arange(stack.shape[0])[:, None, None] * (n * m)
    row0 = row0 + base
    row1 = row1 + base
    flat = stack.reshape(-1)
    # Corners in scipy's order (last axis fastest), each term (v * wy) * wx,
    # summed onto 0.0.
    total = 0.0 + (flat[row0 + col0] * wy0) * wx0
    total += (flat[row0 + col1] * wy0) * wx1
    total += (flat[row1 + col0] * wy1) * wx0
    total += (flat[row1 + col1] * wy1) * wx1
    total[~np.broadcast_to(inside, total.shape)] = 0.0
    return total.reshape(images.shape[:-2] + total.shape[-2:])


def shift(images: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Translate each image by its own ``(dy, dx)``: ``shifts`` is (..., 2)
    over the stack axes of ``images``; uncovered pixels read 0."""
    images = np.asarray(images, dtype=np.float64)
    n, m = images.shape[-2:]
    shifts = np.asarray(shifts, dtype=np.float64).reshape(-1, 2)
    cy = np.arange(n) - shifts[:, 0, None]
    cx = np.arange(m) - shifts[:, 1, None]
    return _interpolate(images, cy[:, :, None], cx[:, None, :])


def zoom(images: np.ndarray, factors: tuple[float, float]) -> np.ndarray:
    """Resize every image by ``factors``; corners map onto corners (no
    grid mode)."""
    images = np.asarray(images, dtype=np.float64)
    n, m = images.shape[-2:]
    rows = int(round(n * factors[0]))
    cols = int(round(m * factors[1]))
    cy = np.arange(rows) * ((n - 1) / (rows - 1))
    cx = np.arange(cols) * ((m - 1) / (cols - 1))
    return _interpolate(images, cy[None, :, None], cx[None, None, :])


def rotate(images: np.ndarray, angle: float) -> np.ndarray:
    """Rotate every image by ``angle`` degrees about its centre, keeping
    the shape; pixels rotated in from outside read 0."""
    images = np.asarray(images, dtype=np.float64)
    c, s = cosdg(angle), sindg(angle)
    matrix = np.array([[c, s], [-s, c]])
    shape = np.asarray(images.shape[-2:])
    offset = (shape - 1) / 2 - matrix @ ((shape - 1) / 2)
    oy = np.arange(shape[0], dtype=np.float64)[:, None]
    ox = np.arange(shape[1], dtype=np.float64)[None, :]
    cy = (offset[0] + oy * matrix[0, 0]) + ox * matrix[0, 1]
    cx = (offset[1] + oy * matrix[1, 0]) + ox * matrix[1, 1]
    return _interpolate(images, cy[None], cx[None])


def _gaussian_kernel(sigma: float) -> np.ndarray:
    """One side of the normalised kernel: weights for offsets 0..radius."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return (phi / phi.sum())[radius:]


def _correlate_symmetric(images: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    radius = weights.shape[0] - 1
    length = images.shape[axis]
    pad = [(0, 0)] * images.ndim
    pad[axis] = (radius, radius)
    padded = np.moveaxis(np.pad(images, pad, mode="symmetric"), axis, 0)
    # scipy's symmetric loop: centre term first, then the pairs from the
    # outermost inward.
    out = padded[radius : radius + length] * weights[0]
    for j in range(radius, 0, -1):
        below = padded[radius - j : radius - j + length]
        above = padded[radius + j : radius + j + length]
        out += (below + above) * weights[j]
    return np.moveaxis(out, 0, axis)


def gaussian_filter(images: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of every image (reflected edges, truncated at 4 sigma),
    filtering the rows axis, then the columns axis."""
    images = np.asarray(images, dtype=np.float64)
    weights = _gaussian_kernel(float(sigma))
    rows = _correlate_symmetric(images, weights, images.ndim - 2)
    return _correlate_symmetric(rows, weights, images.ndim - 1)
