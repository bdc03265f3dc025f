"""PFM/PPM files, tone mapping, PSNR, SSIM."""

import errno
import math
import os

import numpy as np
import pytest

from photonfield import images
from photonfield.field import GaussianField
from photonfield.images import (
    psnr,
    read_pfm,
    ssim,
    tone_map,
    write_pfm,
    write_ppm,
)
from photonfield.training import SampleSet


def _srgb_decode(encoded):
    """Inverse of the sRGB transfer function ``images.srgb_encode``."""
    return np.where(encoded <= 0.04045, encoded / 12.92, np.power((encoded + 0.055) / 1.055, 2.4))


def _u8_to_linear(u8):
    """Linear image whose tone-mapped result is exactly the given 8-bit data."""
    return _srgb_decode(np.asarray(u8, dtype=np.float64) / 255.0)


class TestPfm:
    def test_round_trip_is_bit_exact_at_float32(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 10, (7, 5, 3))
        path = tmp_path / "img.pfm"
        write_pfm(path, img)
        back = read_pfm(path)
        np.testing.assert_array_equal(back, img.astype(np.float32).astype(np.float64))
        path2 = tmp_path / "img2.pfm"
        write_pfm(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_and_scanline_order(self, tmp_path):
        img = np.zeros((2, 2, 3))
        img[0, 0] = [1.0, 2.0, 3.0]  # top-left
        img[1, 1] = [4.0, 5.0, 6.0]  # bottom-right
        path = tmp_path / "img.pfm"
        write_pfm(path, img)
        blob = path.read_bytes()
        assert blob.startswith(b"PF\n2 2\n-1.0\n")
        vals = np.frombuffer(blob[len(b"PF\n2 2\n-1.0\n"):], dtype="<f4").reshape(2, 2, 3)
        # bottom row first in the file
        np.testing.assert_array_equal(vals[0, 1], [4, 5, 6])
        np.testing.assert_array_equal(vals[1, 0], [1, 2, 3])

    def test_positive_scale_big_endian_read(self, tmp_path):
        data = np.arange(12, dtype=">f4").reshape(1, 4, 3)
        path = tmp_path / "be.pfm"
        path.write_bytes(b"PF\n4 1\n1.0\n" + data.tobytes())
        img = read_pfm(path)
        np.testing.assert_array_equal(img[0], np.arange(12).reshape(4, 3))

    def test_nan_pixels_rejected_on_write(self, tmp_path):
        img = np.zeros((2, 2, 3))
        img[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            write_pfm(tmp_path / "bad.pfm", img)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_pfm(path)
        path.write_bytes(b"PF\nx 2\n-1.0\n" + b"\x00" * 16)
        with pytest.raises(ValueError, match="header"):
            read_pfm(path)
        path.write_bytes(b"PF\n4 4\n-1.0\n" + b"\x00" * 10)
        with pytest.raises(ValueError, match="truncated"):
            read_pfm(path)


class _FullDisk:
    """A file whose second write fails, as on a full disk."""

    def __init__(self, fh):
        self._fh, self._writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._writes += 1
        if self._writes == 2:
            raise OSError(28, "No space left on device")
        return self._fh.write(data)


_WRITERS = {
    "pfm": lambda path: write_pfm(path, np.full((4, 5, 3), 0.5)),
    "gpf": lambda path: GaussianField(np.zeros((2, 3)), np.tile([1.0, 0, 0, 0], (2, 1)), np.zeros((2, 3)), np.ones((2, 3))).save(path),
    "gpd": lambda path: SampleSet(np.zeros((3, 3)), np.ones((3, 3)), np.ones((3, 3))).save(path),
}


@pytest.mark.parametrize("kind", sorted(_WRITERS))
@pytest.mark.parametrize("existing", [False, True])
def test_failed_write_leaves_no_partial_or_temp_file(tmp_path, monkeypatch, kind, existing):
    path = tmp_path / f"out.{kind}"
    if existing:
        path.write_bytes(b"previous contents")
    monkeypatch.setattr(images, "open", lambda name, mode: _FullDisk(open(name, mode)), raising=False)
    with pytest.raises(OSError, match="No space"):
        _WRITERS[kind](path)
    assert [p.name for p in tmp_path.iterdir()] == ([path.name] if existing else [])
    if existing:
        assert path.read_bytes() == b"previous contents"
    monkeypatch.undo()
    _WRITERS[kind](path)
    assert [p.name for p in tmp_path.iterdir()] == [path.name] and path.stat().st_size > 17


class TestToneMap:
    def test_black_maps_to_zero(self):
        img = np.zeros((1, 1, 3))
        np.testing.assert_array_equal(tone_map(img), np.zeros((1, 1, 3), dtype=np.uint8))

    def test_unit_maps_to_white(self):
        img = np.ones((1, 1, 3))
        np.testing.assert_array_equal(tone_map(img, exposure=1.0), np.full((1, 1, 3), 255, dtype=np.uint8))

    def test_mid_gray_srgb_value(self):
        img = np.full((1, 1, 3), 0.5)
        encoded = 1.055 * 0.5 ** (1 / 2.4) - 0.055
        assert tone_map(img)[0, 0, 0] == round(encoded * 255)
        assert tone_map(img)[0, 0, 0] == 188

    def test_exposure_scales_before_encode(self):
        img = np.full((1, 1, 3), 0.25)
        np.testing.assert_array_equal(tone_map(img, exposure=4.0), np.full((1, 1, 3), 255, dtype=np.uint8))

    def test_u8_round_trip_through_linear(self):
        u8 = np.arange(256, dtype=np.uint8).reshape(16, 16)[..., None].repeat(3, axis=2)
        linear = _u8_to_linear(u8)
        np.testing.assert_array_equal(tone_map(linear), u8)

    def test_ppm_output(self, tmp_path):
        img = np.zeros((2, 3, 3))
        img[0, 0] = 1.0
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n3 2\n255\n")
        assert len(blob) == len(b"P6\n3 2\n255\n") + 18

    def test_ppm_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "img.ppm"
        write_ppm(path, np.zeros((2, 3, 3)))
        old = path.read_bytes()

        def replace(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError):
            write_ppm(path, np.ones((4, 4, 3)))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["img.ppm"]


class TestPsnr:
    def test_identical_images_give_infinity(self):
        img = np.random.default_rng(1).uniform(0, 1, (16, 16, 3))
        assert psnr(img, img) == float("inf")

    def test_off_by_one_everywhere(self):
        a8 = np.full((32, 32, 3), 128, dtype=np.uint8)
        b8 = np.full((32, 32, 3), 129, dtype=np.uint8)
        got = psnr(_u8_to_linear(a8), _u8_to_linear(b8))
        assert got == pytest.approx(20.0 * math.log10(255.0), abs=1e-9)

    def test_known_noise_level(self):
        rng = np.random.default_rng(2)
        a8 = np.full((64, 64, 3), 100, dtype=np.uint8)
        noise = rng.integers(-8, 9, size=a8.shape)
        b8 = (a8.astype(int) + noise).clip(0, 255).astype(np.uint8)
        rms = math.sqrt(float(np.mean((b8.astype(float) - a8.astype(float)) ** 2)))
        got = psnr(_u8_to_linear(a8), _u8_to_linear(b8))
        assert got == pytest.approx(20.0 * math.log10(255.0 / rms), abs=0.1)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, (16, 16, 3))
        b = rng.uniform(0, 1, (16, 16, 3))
        assert psnr(a, b) == psnr(b, a)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            psnr(np.zeros((4, 4, 3)), np.zeros((5, 4, 3)))


class TestSsim:
    def test_identical_images_give_exactly_one(self):
        img = np.random.default_rng(4).uniform(0, 1, (32, 32, 3))
        assert ssim(img, img) == 1.0

    def test_different_images_below_one(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, (32, 32, 3))
        b = a + rng.normal(0, 0.05, a.shape)
        v = ssim(a, b.clip(0, 1))
        assert -1.0 <= v < 1.0

    def test_constant_shift_stays_below_one(self):
        a8 = np.full((32, 32, 3), 100, dtype=np.uint8)
        b8 = np.full((32, 32, 3), 101, dtype=np.uint8)
        v = ssim(_u8_to_linear(a8), _u8_to_linear(b8))
        assert v < 1.0
        assert v > 0.99  # a one-level shift is nearly identical structurally

    def test_structured_noise_ranks_below_mild_noise(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0.2, 0.8, (48, 48, 3))
        mild = (a + rng.normal(0, 0.01, a.shape)).clip(0, 1)
        heavy = (a + rng.normal(0, 0.2, a.shape)).clip(0, 1)
        assert ssim(a, mild) > ssim(a, heavy)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            ssim(np.zeros((16, 16, 3)), np.zeros((16, 17, 3)))

    def test_tiny_images_rejected(self):
        with pytest.raises(ValueError, match="11x11"):
            ssim(np.zeros((8, 8, 3)), np.zeros((8, 8, 3)))
