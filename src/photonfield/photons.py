"""Light-pass photon tracing.

Photons are emitted from area lights (power-proportional, uniform on area,
cosine lobes) and traced through the scene; a photon record is stored at
every diffuse hit, and the path then continues by BSDF sampling. Delta
surfaces scatter without storage. Russian roulette (as in
:func:`core.roulette`) starts after the third bounce with survival
probability min(1, max throughput channel), compensating flux on
continuation so transport stays unbiased.

Emission and paths run in a compiled kernel (``_photons.c``, loaded by
:func:`geometry.load_kernels`) that emits each photon through the emitter
sampler of ``Scene.pick_emitter`` and ``Scene.sample_on_emitter`` and
traces its whole path in one pass, shading hits and sampling BSDFs with
the C code of ``Scene.intersect_batch`` and ``scene.sample_bsdf_batch``
and drawing as ``core.draw_units`` does. Records come out in bounce-major
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


def _grow(a, n: int, cap: int):
    """``a`` with room for ``cap`` rows, its first ``n`` rows kept."""
    out = np.empty((cap,) + a.shape[1:], dtype=a.dtype)
    out[:n] = a[:n]
    return out


def trace_photons(scene: scene_mod.Scene, n_photons: int, max_bounces: int, rng: Rng) -> PhotonMap:
    """Trace ``n_photons`` light paths of at most ``max_bounces`` hits
    (1 to ``_MAX_CHAIN``) and return the stored photon map.

    Deterministic for a fixed generator: photon i draws from a stream
    keyed by (generator key, i), independent of batching or thread count.
    Its first five draws emit it: an emitter slot by power, two draws for a
    point on that emitter and two for a cosine-lobe direction about its
    normal. Each photon carries flux = total emitter power / ``n_photons``,
    so the emitted flux partitions the scene power exactly.
    """
    if n_photons < 1:
        raise ValueError(f"n_photons must be >= 1, got {n_photons}")
    if not 1 <= max_bounces <= _MAX_CHAIN:
        raise ValueError(f"max_bounces must lie in [1, {_MAX_CHAIN}], got {max_bounces}")
    scene._require_emitters()
    keys = core.fold_key(rng.key, np.arange(n_photons, dtype=np.uint64))
    bounces = int(max_bounces)

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
        done = trace(
            n_photons, done, keys.ctypes.data, bounces, geometry.T_MIN, scene.geometry._table, scene._shading,
            scene._emitters, cap, pos.ctypes.data, fl.ctypes.data, wi.ctypes.data, bounce.ctypes.data,
            stored.ctypes.data,
        )
        if done < 0:
            raise RuntimeError(f"BVH traversal overran its stack of {scene.geometry._stack_size} slots")
        if done == n_photons:
            break
        cap *= 2
        pos, fl, wi, bounce = (_grow(a, stored[0], cap) for a in (pos, fl, wi, bounce))
    order = np.argsort(bounce[: stored[0]], kind="stable")
    return PhotonMap(pos[order], fl[order], wi[order])
