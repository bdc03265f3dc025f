"""Continuous radiance field of anisotropic Gaussian primitives.

Each primitive carries a mean position, a unit quaternion, per-axis scales
(kept in log space so the induced precision matrix stays positive
definite), and an RGB flux. A query at a point gathers a hybrid
(ball + k-nearest top-up) neighborhood, weights each primitive by an
anisotropic Gaussian kernel times a smooth radial falloff, and returns the
softly normalized weighted flux:

    L(x) = sum_i w_i(x) * flux_i / max(sum_i w_i(x), eps)
    w_i(x) = exp(-0.5 * d^T Lambda_i d) * psi(|d|),   d = x - mean_i

where psi is 1 inside the query radius and exp(-3 t^2) beyond it, with
t the radius-relative excess distance. Everything is differentiable in
the continuous parameters; the discrete neighborhood is treated as
locally constant.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from . import core
from .core import Rng
from .geometry import BatchTable, FieldTable, load_kernels
from .images import write_atomic
from .photons import PhotonMap
from .spatial import PointIndex

DEFAULT_RADIUS = 0.02
DEFAULT_K_MIN = 3
DEFAULT_EPS = 1e-6
DEFAULT_INITIAL_SCALE = 0.01

SCALE_MIN = 1e-5
SCALE_MAX = 10.0
# float32 storage moves a unit quaternion's norm by about 5e-8 at most
QUAT_NORM_TOL = 1e-6

_MAGIC = b"GPF1"

# the gradient blocks of ``backward_scatter``, in the order the C pass takes them, and their widths
GRADIENT_WIDTHS = {"mean": 3, "quat": 4, "log_scale": 3, "flux": 3}


def gradient_buffers(n: int) -> dict:
    """Uninitialized gradient arrays of ``n`` primitives, as ``backward_scatter`` returns and overwrites them."""
    return {key: np.empty((n, width)) for key, width in GRADIENT_WIDTHS.items()}


def writable(arr, shape, what: str):
    """``arr`` if a C kernel may write it in place: a writeable C-contiguous float64 array of ``shape``."""
    ok = isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.shape == shape
    if not (ok and arr.flags.c_contiguous and arr.flags.writeable):
        raise ValueError(f"{what} must be a writeable C-contiguous float64 array of shape {shape}")
    return arr


def check_seed_params(initial_scale, radius, k_min) -> None:
    """Raise the ``ValueError`` that :meth:`GaussianField.from_photons` raises for these parameters, if any."""
    if not 0.0 < initial_scale < math.inf:
        raise ValueError(f"initial scale must be finite and positive, got {initial_scale}")
    _check_index_params(radius, k_min)


def _check_index_params(radius, k_min) -> None:
    if not 0.0 <= radius < math.inf:
        raise ValueError(f"radius must be finite and non-negative, got {radius}")
    if k_min < 0:
        raise ValueError(f"k_min must be non-negative, got {k_min}")


class GaussianField:
    """Mutable set of Gaussian primitives plus a rebuildable spatial index.

    The index over means may lag parameter updates during optimization
    (rebuilt on a cadence); weights and radiance always use the current
    parameters. Callers rebuild it with ``ensure_index`` (or
    ``rebuild_index``) before ``query_batch``.
    """

    eps = DEFAULT_EPS  # the floor of the weight sum in L(x)

    def __init__(self, means, quats, log_scales, flux, radius=DEFAULT_RADIUS, k_min=DEFAULT_K_MIN):
        # contiguous, so that training can update them in place in C
        self.means = np.ascontiguousarray(means, dtype=np.float64).reshape(-1, 3)
        self.quats = np.ascontiguousarray(quats, dtype=np.float64).reshape(-1, 4)
        self.log_scales = np.ascontiguousarray(log_scales, dtype=np.float64).reshape(-1, 3)
        self.flux = np.ascontiguousarray(flux, dtype=np.float64).reshape(-1, 3)
        n = len(self.means)
        if not (len(self.quats) == len(self.log_scales) == len(self.flux) == n):
            raise ValueError("parameter blocks must have matching lengths")
        self.radius = float(radius)
        self.k_min = int(k_min)
        _check_index_params(self.radius, self.k_min)
        self._version = 0
        self._index: PointIndex | None = None
        self._index_version = -1

    # -- construction ------------------------------------------------------

    @classmethod
    def from_photons(
        cls,
        photons: PhotonMap,
        initial_scale: float = DEFAULT_INITIAL_SCALE,
        *,
        rng: Rng,
        radius: float = DEFAULT_RADIUS,
        k_min: int = DEFAULT_K_MIN,
    ) -> "GaussianField":
        """Seed one primitive per photon: mean and flux copied from the
        photon, isotropic initial scale, uniformly random orientation."""
        if len(photons) == 0:
            raise ValueError("cannot initialize from empty photon map")
        check_seed_params(initial_scale, radius, k_min)
        n = len(photons)
        quats = core.random_unit_quaternion(rng, n)
        log_scales = np.full((n, 3), np.log(initial_scale))
        return cls(photons.positions.copy(), quats, log_scales, photons.flux.copy(), radius, k_min)

    def __len__(self) -> int:
        return len(self.means)

    @property
    def scales(self):
        return np.exp(self.log_scales)

    def mark_updated(self):
        """Record a parameter mutation: makes the index stale, so the next
        ``ensure_index`` rebuilds it."""
        self._version += 1

    def rebuild_index(self):
        self._index = PointIndex(self.means)
        self._index_version = self._version

    def ensure_index(self):
        if self._index is None or self._index_version != self._version:
            self.rebuild_index()

    # -- forward -----------------------------------------------------------

    def _neighbors(self, xs):
        return self._index.hybrid_query_batch(xs, self.radius, self.k_min)

    def _table(self, scales) -> FieldTable:
        """The current parameters as a ``struct pf_field``, with ``scales`` = ``exp(log_scales)``."""
        n = len(self.means)
        blocks = {"means": (self.means, 3), "quats": (self.quats, 4), "scales": (scales, 3), "flux": (self.flux, 3)}
        arrays = {}
        for name, (arr, width) in blocks.items():
            arrays[name] = np.ascontiguousarray(arr, dtype=np.float64)
            if arrays[name].shape != (n, width):
                raise ValueError(f"field {name} has shape {arrays[name].shape}, expected ({n}, {width})")
        return FieldTable(n=n, radius=self.radius, eps=self.eps, **arrays)

    def _rows(self, xs, flat, splits):
        """``xs`` (B, 3) and CSR neighbourhoods ``(flat, splits)`` as the C
        passes read them; ``ValueError`` unless every index is in range."""
        xs = np.ascontiguousarray(xs, dtype=np.float64).reshape(-1, 3)
        flat = np.ascontiguousarray(flat, dtype=np.intp)
        splits = np.ascontiguousarray(splits, dtype=np.intp)
        if flat.ndim != 1 or splits.ndim != 1 or len(splits) == 0:
            raise ValueError("neighbourhoods must be a 1-d flat id array and a non-empty 1-d splits array")
        if splits[0] != 0 or splits[-1] != len(flat) or np.any(splits[1:] < splits[:-1]):
            raise ValueError(f"splits must rise from 0 to len(flat) = {len(flat)}")
        if len(xs) != len(splits) - 1:
            raise ValueError(f"{len(xs)} query points for {len(splits) - 1} neighbourhoods")
        if len(flat) and (flat.min() < 0 or flat.max() >= len(self)):
            raise ValueError(f"neighbour ids must lie in [0, {len(self)})")
        return xs, flat, splits

    def query_batch(self, xs):
        """Field radiance at points (B, 3) -> (B, 3) (index used as-is)."""
        xs = np.asarray(xs, dtype=np.float64).reshape(-1, 3)
        if len(self) == 0:
            return np.zeros((len(xs), 3))
        if self._index is None:
            raise RuntimeError("field index has not been built; call rebuild_index() first")
        flat, splits = self._neighbors(xs)
        L, _, _ = self._forward(xs, flat, splits)
        return L

    def _forward(self, xs, flat, splits):
        """Radiance (B, 3) of rows ``xs`` over CSR neighbourhoods, plus what
        ``backward_scatter`` reuses: returns ``(L, (table, batch), s_tot)``.
        Runs ``_field.c``'s two C passes around numpy's exp."""
        xs, flat, splits = self._rows(xs, flat, splits)
        b, k = len(xs), len(flat)
        batch = BatchTable(rows=b, xs=xs, splits=splits, flat=flat, expo=np.empty(2 * k), s_tot=np.empty(b), L=np.empty((b, 3)))
        table = self._table(np.exp(self.log_scales))
        lib = load_kernels()
        lib.pf_field_terms(table, batch)
        np.exp(batch.arrays["expo"], out=batch.arrays["expo"])
        lib.pf_field_sum(table, batch)
        return batch.arrays["L"], (table, batch), batch.arrays["s_tot"]

    # -- backward ----------------------------------------------------------

    def backward_scatter(self, xs, dl_dout, flat, splits, fwd=None, out=None):
        """Gradients of ``J = sum_b dl_dout_b . L_b`` in dense parameter arrays.

        ``fwd`` is what ``_forward(xs, flat, splits)`` returned, and the
        gradients are those of that forward's parameters; it is recomputed
        when omitted. Each primitive's gradient is the sum of its neighbour
        rows' terms from +0.0 in flat order, so training is bit-reproducible.
        ``out`` is a dict of buffers to overwrite with the gradients, keyed
        as the returned dict (see :func:`gradient_buffers`); fresh arrays
        when omitted.
        """
        xs, flat, splits = self._rows(xs, flat, splits)
        dl = np.ascontiguousarray(dl_dout, dtype=np.float64).reshape(-1, 3)
        if len(dl) != len(xs):
            raise ValueError(f"{len(dl)} output gradients for {len(xs)} query points")
        if fwd is None:
            fwd = self._forward(xs, flat, splits)
        table, batch = fwd[1]
        if not (np.array_equal(batch.arrays["flat"], flat) and np.array_equal(batch.arrays["splits"], splits)):
            raise ValueError("fwd was computed over other neighbourhoods")
        out = gradient_buffers(len(self)) if out is None else out
        for key, width in GRADIENT_WIDTHS.items():
            writable(out.get(key) if isinstance(out, dict) else None, (len(self), width), f"gradient buffer out[{key!r}]")
        load_kernels().pf_field_backward(table, batch, dl.ctypes.data, *(out[key].ctypes.data for key in GRADIENT_WIDTHS))
        return out

    # -- serialization (GPF1: little-endian, float32 payload) ---------------

    def save(self, path) -> None:
        payload = np.empty((len(self), 13), dtype="<f4")
        payload[:, 0:3] = self.means
        payload[:, 3:7] = self.quats
        payload[:, 7:10] = self.scales
        payload[:, 10:13] = self.flux
        write_records(path, _MAGIC, payload)

    @classmethod
    def load(cls, path, radius=DEFAULT_RADIUS, k_min=DEFAULT_K_MIN) -> "GaussianField":
        data = read_records(path, _MAGIC, 13, "field checkpoint")
        norm_err = np.abs(np.linalg.norm(data[:, 3:7], axis=1) - 1.0)
        if np.any(norm_err > QUAT_NORM_TOL):
            bad = int(np.argmax(norm_err > QUAT_NORM_TOL))
            raise ValueError(
                f"field checkpoint row {bad} has quaternion {data[bad, 3:7].tolist()}, "
                f"which is not unit length"
            )
        scales = np.clip(data[:, 7:10], SCALE_MIN, SCALE_MAX)
        return cls(data[:, 0:3], data[:, 3:7], np.log(scales), data[:, 10:13], radius, k_min)


def write_records(path, magic: bytes, payload) -> None:
    """Record file: 4 magic bytes, a little-endian u32 row count, then the
    rows of the ``"<f4"`` array ``payload``; written whole or not at all."""
    write_atomic(path, magic, struct.pack("<I", len(payload)), payload.tobytes())


def read_records(path, magic: bytes, width: int, what: str):
    """Rows (n, width) of a :func:`write_records` file, widened to float64.

    The file must be exactly as long as its row count says and every value
    finite; anything else raises ``ValueError``. The size is checked before
    the payload is read, so a forged count allocates nothing.
    """
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head[:4] != magic:
            raise ValueError(f"not a {what}: bad magic {head[:4]!r}")
        if len(head) < 8:
            raise ValueError(f"truncated {what}")
        (n,) = struct.unpack("<I", head[4:])
        expected = 8 + 4 * width * n
        size = os.fstat(fh.fileno()).st_size
        if size < expected:
            raise ValueError(f"truncated {what}")
        if size > expected:
            raise ValueError(f"{what} has {size - expected} bytes after its {n} rows")
        data = np.frombuffer(fh.read(), dtype="<f4")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{what} holds non-finite values")
    return data.reshape(n, width).astype(np.float64)
