"""HDR image files, tone mapping, and image-quality metrics.

Images are (height, width, 3) float64 arrays of linear radiance, row 0 at
the top. PFM stores 32-bit little-endian floats (negative scale header)
with scanlines bottom-to-top per the format; PPM stores tone-mapped 8-bit
sRGB. Metrics operate on the tone-mapped 8-bit domain so methods are
compared exactly as displayed: PSNR on RGB with MAX=255, SSIM on luma with
an 11x11 Gaussian window (sigma 1.5) and the standard stabilizers.
"""

from __future__ import annotations

import math
import os
import uuid

import numpy as np

_SSIM_C1 = (0.01 * 255.0) ** 2
_SSIM_C2 = (0.03 * 255.0) ** 2
_SSIM_RADIUS = 5  # 11x11 window
_SSIM_SIGMA = 1.5


def _as_image(img) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("image must have shape (height, width, 3)")
    return img


# ---------------------------------------------------------------------------
# PFM


def write_atomic(path, *chunks: bytes) -> None:
    """Write ``chunks`` to ``path`` whole or not at all: into a temp file in
    the same directory, renamed over ``path`` once every byte is written."""
    path = os.fspath(path)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_pfm(path, img) -> None:
    """Write a color PFM (little-endian float32, bottom-to-top rows)."""
    img = _as_image(img)
    if not np.all(np.isfinite(img)):
        raise ValueError("cannot write non-finite pixels to PFM")
    h, w, _ = img.shape
    data = np.flipud(img).astype("<f4")
    write_atomic(path, f"PF\n{w} {h}\n-1.0\n".encode(), data.tobytes())


def read_pfm(path) -> np.ndarray:
    """Read a color PFM into a float64 (height, width, 3) array."""
    with open(path, "rb") as fh:
        blob = fh.read()

    def token(start):
        while start < len(blob) and blob[start:start + 1].isspace():
            start += 1
        end = start
        while end < len(blob) and not blob[end:end + 1].isspace():
            end += 1
        if start == end:
            raise ValueError("truncated PFM header")
        return blob[start:end], end

    magic, pos = token(0)
    if magic != b"PF":
        raise ValueError(f"not a color PFM file: magic {magic!r}")
    wtok, pos = token(pos)
    htok, pos = token(pos)
    stok, pos = token(pos)
    try:
        w, h, scale = int(wtok), int(htok), float(stok)
    except ValueError as e:
        raise ValueError(f"malformed PFM header: {e}") from e
    if w <= 0 or h <= 0 or scale == 0.0:
        raise ValueError("malformed PFM header: bad dimensions or scale")
    pos += 1  # single whitespace byte after the scale line
    expect = w * h * 3 * 4
    raw = blob[pos:pos + expect]
    if len(raw) != expect:
        raise ValueError("truncated PFM payload")
    dtype = "<f4" if scale < 0 else ">f4"
    data = np.frombuffer(raw, dtype=dtype).reshape(h, w, 3).astype(np.float64)
    if abs(scale) != 1.0:
        data = data * abs(scale)
    return np.flipud(data).copy()


# ---------------------------------------------------------------------------
# tone mapping and PPM


def srgb_encode(linear):
    """sRGB transfer function on linear values in [0, 1]."""
    linear = np.asarray(linear, dtype=np.float64)
    return np.where(
        linear <= 0.0031308,
        12.92 * linear,
        1.055 * np.power(np.maximum(linear, 0.0), 1.0 / 2.4) - 0.055,
    )


def tone_map(img, exposure: float = 1.0) -> np.ndarray:
    """Deterministic display transform: scale, clamp, sRGB, 8-bit."""
    img = _as_image(img)
    v = np.clip(img * exposure, 0.0, 1.0)
    return np.clip(np.rint(srgb_encode(v) * 255.0), 0, 255).astype(np.uint8)


def write_ppm(path, img, exposure: float = 1.0) -> None:
    u8 = tone_map(img, exposure)
    h, w, _ = u8.shape
    write_atomic(path, f"P6\n{w} {h}\n255\n".encode(), u8.tobytes())


# ---------------------------------------------------------------------------
# metrics


def psnr(a, b, exposure: float = 1.0) -> float:
    """Peak signal-to-noise ratio (dB) on tone-mapped 8-bit RGB.

    Identical images give inf (the JSON reports use the string "inf").
    """
    ua = tone_map(_as_image(a), exposure).astype(np.float64)
    ub = tone_map(_as_image(b), exposure).astype(np.float64)
    if ua.shape != ub.shape:
        raise ValueError("psnr requires equal image dimensions")
    mse = float(np.mean((ua - ub) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * math.log10(255.0**2 / mse)


def _luma(u8rgb):
    # BT.601 weights, the convention of the original SSIM reference code
    return 0.299 * u8rgb[..., 0] + 0.587 * u8rgb[..., 1] + 0.114 * u8rgb[..., 2]


def _gaussian_kernel1d(radius: int, sigma: float):
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _filter_valid(img, kernel):
    """Separable 2D correlation, valid region only."""
    from numpy.lib.stride_tricks import sliding_window_view

    rows = sliding_window_view(img, len(kernel), axis=0)
    tmp = rows @ kernel
    cols = sliding_window_view(tmp, len(kernel), axis=1)
    return cols @ kernel


def ssim(a, b, exposure: float = 1.0) -> float:
    """Structural similarity on tone-mapped 8-bit luma; 1.0 iff identical."""
    ua = tone_map(_as_image(a), exposure).astype(np.float64)
    ub = tone_map(_as_image(b), exposure).astype(np.float64)
    if ua.shape != ub.shape:
        raise ValueError("ssim requires equal image dimensions")
    x = _luma(ua)
    y = _luma(ub)
    if min(x.shape) < 2 * _SSIM_RADIUS + 1:
        raise ValueError("ssim requires images of at least 11x11 pixels")
    k = _gaussian_kernel1d(_SSIM_RADIUS, _SSIM_SIGMA)
    mu_x = _filter_valid(x, k)
    mu_y = _filter_valid(y, k)
    xx = _filter_valid(x * x, k)
    yy = _filter_valid(y * y, k)
    xy = _filter_valid(x * y, k)
    var_x = xx - mu_x * mu_x
    var_y = yy - mu_y * mu_y
    cov = xy - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    den = (mu_x * mu_x + mu_y * mu_y + _SSIM_C1) * (var_x + var_y + _SSIM_C2)
    return float(np.mean(num / den))
