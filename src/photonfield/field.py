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
from .core import Rng, quaternion_to_matrix, rotation_jacobian_tdot
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
_FALLOFF_SHARPNESS = 3.0


def _falloff(dist, radius: float):
    r_eff = max(radius, 1e-6)
    t = np.maximum(dist - radius, 0.0) / r_eff
    return np.where(dist <= radius, 1.0, np.exp(-_FALLOFF_SHARPNESS * t * t))


class GaussianField:
    """Mutable set of Gaussian primitives plus a rebuildable spatial index.

    The index over means may lag parameter updates during optimization
    (rebuilt on a cadence); weights and radiance always use the current
    parameters. Callers rebuild it with ``ensure_index`` (or
    ``rebuild_index``) before ``query_batch``.
    """

    def __init__(self, means, quats, log_scales, flux, radius=DEFAULT_RADIUS, k_min=DEFAULT_K_MIN, eps=DEFAULT_EPS):
        self.means = np.asarray(means, dtype=np.float64).reshape(-1, 3)
        self.quats = np.asarray(quats, dtype=np.float64).reshape(-1, 4)
        self.log_scales = np.asarray(log_scales, dtype=np.float64).reshape(-1, 3)
        self.flux = np.asarray(flux, dtype=np.float64).reshape(-1, 3)
        n = len(self.means)
        if not (len(self.quats) == len(self.log_scales) == len(self.flux) == n):
            raise ValueError("parameter blocks must have matching lengths")
        self.radius = float(radius)
        self.k_min = int(k_min)
        if not 0.0 <= self.radius < math.inf:
            raise ValueError(f"radius must be finite and non-negative, got {radius}")
        if self.k_min < 0:
            raise ValueError(f"k_min must be non-negative, got {k_min}")
        self.eps = float(eps)
        self._version = 0
        self._index: PointIndex | None = None
        self._index_version = -1

    # -- construction ------------------------------------------------------

    @classmethod
    def from_photons(
        cls,
        photons: PhotonMap,
        initial_scale: float = DEFAULT_INITIAL_SCALE,
        rng: Rng | int = 0,
        radius: float = DEFAULT_RADIUS,
        k_min: int = DEFAULT_K_MIN,
        eps: float = DEFAULT_EPS,
    ) -> "GaussianField":
        """Seed one primitive per photon: mean and flux copied from the
        photon, isotropic initial scale, uniformly random orientation."""
        if len(photons) == 0:
            raise ValueError("cannot initialize from empty photon map")
        if not 0.0 < initial_scale < math.inf:
            raise ValueError(f"initial scale must be finite and positive, got {initial_scale}")
        rng = core.as_rng(rng)
        n = len(photons)
        quats = core.random_unit_quaternion(rng, n)
        log_scales = np.full((n, 3), np.log(initial_scale))
        return cls(photons.positions.copy(), quats, log_scales, photons.flux.copy(), radius, k_min, eps)

    def __len__(self) -> int:
        return len(self.means)

    @property
    def scales(self):
        return np.exp(self.log_scales)

    @property
    def version(self) -> int:
        return self._version

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

    def _weight_terms(self, xs_rows, ids):
        """Per-neighbor kernel terms shared by forward and backward."""
        d = xs_rows - self.means[ids]
        rot = quaternion_to_matrix(self.quats[ids])
        y = np.einsum("kij,ki->kj", rot, d)
        s = np.exp(self.log_scales[ids])
        u = y / s
        w_gauss = np.exp(-0.5 * np.einsum("kj,kj->k", u, u))
        dist = np.sqrt(np.einsum("ki,ki->k", d, d))
        psi = _falloff(dist, self.radius)
        return d, rot, s, u, w_gauss, dist, psi, w_gauss * psi

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
        """Radiance (B, 3) of rows ``xs`` over CSR neighborhoods, plus the
        per-neighbor kernel terms and weight sums ``backward_scatter``
        reuses: returns ``(L, terms, s_tot)``."""
        b = len(xs)
        owner = np.repeat(np.arange(b, dtype=np.intp), np.diff(splits))
        terms = self._weight_terms(xs[owner], flat)
        w = terms[-1]
        s_tot = np.bincount(owner, weights=w, minlength=b)
        num = np.zeros((b, 3))
        wphi = w[:, None] * self.flux[flat]
        for ch in range(3):
            num[:, ch] = np.bincount(owner, weights=wphi[:, ch], minlength=b)
        z = np.maximum(s_tot, self.eps)
        return num / z[:, None], terms, s_tot

    # -- backward ----------------------------------------------------------

    def _backward_terms(self, ids, owner, dl_rows, fwd):
        """Per-neighbor parameter gradients of J = sum_b dl_b . L_b, from
        the ``(L, terms, s_tot)`` a ``_forward`` over the same rows gave."""
        L, (d, rot, s, u, w_gauss, dist, psi, w), s_tot = fwd
        z = np.maximum(s_tot, self.eps)
        ind = (s_tot > self.eps).astype(np.float64)
        dl_phi = np.einsum("kc,kc->k", dl_rows, self.flux[ids])
        dl_L = np.einsum("kc,kc->k", dl_rows, L[owner])
        g_w = (dl_phi - ind[owner] * dl_L) / z[owner]

        g_flux = (w / z[owner])[:, None] * dl_rows

        # d(w_gauss)/d(mean) = w_gauss * R (u / s); psi adds the radial term
        r_eff = max(self.radius, 1e-6)
        t_excess = np.maximum(dist - self.radius, 0.0) / r_eff
        outside = dist > self.radius
        with np.errstate(invalid="ignore", divide="ignore"):
            d_hat = np.where(dist[:, None] > 0.0, d / np.where(dist[:, None] > 0.0, dist[:, None], 1.0), 0.0)
        radial = np.where(outside, 2.0 * _FALLOFF_SHARPNESS * t_excess / r_eff, 0.0)
        r_u_over_s = np.einsum("kij,kj->ki", rot, u / s)
        g_mean = (g_w * w)[:, None] * (r_u_over_s + radial[:, None] * d_hat)

        g_log_scale = (g_w * w)[:, None] * (u * u)

        a_t_d = rotation_jacobian_tdot(self.quats[ids], d)  # rows: (A_m^T d)_j
        g_quat = -(g_w * w)[:, None] * np.einsum("kmj,kj->km", a_t_d, u / s)

        return {"mean": g_mean, "quat": g_quat, "log_scale": g_log_scale, "flux": g_flux}

    def backward_scatter(self, xs, dl_dout, flat, splits, fwd=None):
        """Accumulate batch query gradients into dense parameter arrays.

        ``fwd`` is what ``_forward(xs, flat, splits)`` returned; it is
        recomputed when omitted. Each parameter column is an ordered
        ``bincount`` reduction: per-neighbor gradients summed from zero in
        flat neighbor order, so training is bit-reproducible.
        """
        xs = np.asarray(xs, dtype=np.float64).reshape(-1, 3)
        dl = np.asarray(dl_dout, dtype=np.float64).reshape(-1, 3)
        b, n = len(xs), len(self)
        if fwd is None:
            fwd = self._forward(xs, flat, splits)
        owner = np.repeat(np.arange(b, dtype=np.intp), np.diff(splits))
        rows = self._backward_terms(flat, owner, dl[owner], fwd)
        g = {}
        for key, part in rows.items():
            g[key] = np.empty((n, part.shape[1]))
            for c in range(part.shape[1]):
                g[key][:, c] = np.bincount(flat, weights=part[:, c], minlength=n)
        return g

    # -- serialization (GPF1: little-endian, float32 payload) ---------------

    def save(self, path) -> None:
        payload = np.empty((len(self), 13), dtype="<f4")
        payload[:, 0:3] = self.means
        payload[:, 3:7] = self.quats
        payload[:, 7:10] = self.scales
        payload[:, 10:13] = self.flux
        write_records(path, _MAGIC, payload)

    @classmethod
    def load(cls, path, radius=DEFAULT_RADIUS, k_min=DEFAULT_K_MIN, eps=DEFAULT_EPS) -> "GaussianField":
        data = read_records(path, _MAGIC, 13, "field checkpoint")
        norm_err = np.abs(np.linalg.norm(data[:, 3:7], axis=1) - 1.0)
        if np.any(norm_err > QUAT_NORM_TOL):
            bad = int(np.argmax(norm_err > QUAT_NORM_TOL))
            raise ValueError(
                f"field checkpoint row {bad} has quaternion {data[bad, 3:7].tolist()}, "
                f"which is not unit length"
            )
        scales = np.clip(data[:, 7:10], SCALE_MIN, SCALE_MAX)
        return cls(data[:, 0:3], data[:, 3:7], np.log(scales), data[:, 10:13], radius, k_min, eps)


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
