"""Light-pass photon tracing.

Photons are emitted from area lights by :func:`scene.sample_light_emission`
(power-proportional, cosine lobes) and traced through the scene; a photon
record is stored at every diffuse hit, and the path then continues by BSDF
sampling. Delta surfaces scatter without storage. Russian roulette
(as in :func:`core.roulette`) starts after the third bounce with survival
probability min(1, max throughput channel), compensating flux on
continuation so transport stays unbiased.

Emission runs in numpy; the paths run in a compiled kernel (``_photons.c``,
loaded by :func:`geometry.load_kernels`) that traces each photon's whole
path in one pass, with the hit shading of ``Scene.intersect_batch``, the
BSDF draws of ``scene.sample_bsdf_batch`` and the draws of
``core.draw_units``, formula for formula. Records come out in bounce-major
order, ascending photon index within a bounce, the order of a wavefront
over all photons at once.

Stored incident directions point from the surface back toward where the
photon came from (the convention the gather-side BSDF evaluation expects).
"""

from __future__ import annotations

import numpy as np

from . import core, geometry, scene as scene_mod
from .core import Rng

_MAX_CHAIN = 64  # hard stop against pathological delta loops


class PhotonMap:
    """Struct-of-arrays photon storage (positions/flux/incident)."""

    def __init__(self, positions, flux, incident):
        self.positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        self.flux = np.asarray(flux, dtype=np.float64).reshape(-1, 3)
        self.incident = np.asarray(incident, dtype=np.float64).reshape(-1, 3)

    def __len__(self) -> int:
        return len(self.positions)

    @classmethod
    def empty(cls) -> "PhotonMap":
        z = np.zeros((0, 3))
        return cls(z, z, z)


def _grow(a, n: int, cap: int):
    """``a`` with room for ``cap`` rows, its first ``n`` rows kept."""
    out = np.empty((cap,) + a.shape[1:], dtype=a.dtype)
    out[:n] = a[:n]
    return out


def trace_photons(scene: scene_mod.Scene, n_photons: int, max_bounces: int, rng: Rng | int) -> PhotonMap:
    """Trace ``n_photons`` light paths of at most ``max_bounces`` hits
    (capped at ``_MAX_CHAIN``) and return the stored photon map.

    Deterministic for a fixed generator: photon i draws from a stream
    keyed by (generator key, i), independent of batching or thread count.
    Emission comes from :func:`scene.sample_light_emission` on those
    streams.
    """
    if n_photons < 1:
        raise ValueError(f"n_photons must be >= 1, got {n_photons}")
    if max_bounces < 1:
        raise ValueError(f"max_bounces must be >= 1, got {max_bounces}")
    keys = core.fold_key(core.as_rng(rng).key, np.arange(n_photons, dtype=np.uint64))
    ctrs = np.zeros(n_photons, dtype=np.uint64)
    o, d, flux = (np.ascontiguousarray(a, dtype=np.float64) for a in scene_mod.sample_light_emission(scene, keys, ctrs))
    bounces = min(int(max_bounces), _MAX_CHAIN)

    # records in photon order, with room for about one per photon at first:
    # the kernel stops before a photon that might not fit, and the buffers
    # grow until every photon is traced
    cap = n_photons + bounces
    pos, fl, wi = (np.empty((cap, 3)) for _ in range(3))
    bounce = np.empty(cap, dtype=np.uint8)  # bounce indices stay below _MAX_CHAIN <= 255
    stored = np.zeros(1, dtype=np.intp)
    done = 0
    trace = geometry.load_kernels().pf_trace_photons
    while True:
        traced = trace(
            n_photons - done, o[done:].ctypes.data, d[done:].ctypes.data, flux[done:].ctypes.data,
            keys[done:].ctypes.data, ctrs[done:].ctypes.data, bounces, geometry.T_MIN, *scene.geometry._c_geom,
            *scene._c_shading, cap, pos.ctypes.data, fl.ctypes.data, wi.ctypes.data, bounce.ctypes.data,
            stored.ctypes.data,
        )
        if traced < 0:
            raise RuntimeError(f"BVH traversal overran its stack of {scene.geometry._stack_size} slots")
        done += traced
        if done == n_photons:
            break
        cap *= 2
        pos, fl, wi, bounce = (_grow(a, stored[0], cap) for a in (pos, fl, wi, bounce))
    order = np.argsort(bounce[: stored[0]], kind="stable")
    return PhotonMap(pos[order], fl[order], wi[order])
