"""Light-pass photon tracing.

Photons are emitted from area lights by :func:`scene.sample_light_emission`
(power-proportional, cosine lobes) and traced through the scene; a photon
record is stored at every diffuse hit, and the path then continues by BSDF
sampling. Delta surfaces scatter without storage. Russian roulette
(:func:`core.roulette`) starts after the third bounce with survival
probability min(1, max throughput channel), compensating flux on
continuation so transport stays unbiased.

Stored incident directions point from the surface back toward where the
photon came from (the convention the gather-side BSDF evaluation expects).
"""

from __future__ import annotations

import numpy as np

from . import core, scene as scene_mod
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


def trace_photons(scene: scene_mod.Scene, n_photons: int, max_bounces: int, rng: Rng | int) -> PhotonMap:
    """Trace ``n_photons`` light paths and return the stored photon map.

    Deterministic for a fixed generator: photon i draws from a stream
    keyed by (generator key, i), independent of batching or thread count.
    Emission comes from :func:`scene.sample_light_emission` on those
    streams.
    """
    if n_photons < 1:
        raise ValueError(f"n_photons must be >= 1, got {n_photons}")
    keys = core.fold_key(core.as_rng(rng).key, np.arange(n_photons, dtype=np.uint64))
    ctrs = np.zeros(n_photons, dtype=np.uint64)
    o, d, flux = scene_mod.sample_light_emission(scene, keys, ctrs)
    throughput = np.ones((n_photons, 3))

    out_pos: list[np.ndarray] = []
    out_flux: list[np.ndarray] = []
    out_wi: list[np.ndarray] = []

    alive = np.arange(n_photons, dtype=np.intp)
    bounces = min(int(max_bounces), _MAX_CHAIN)
    for bounce in range(bounces):
        if alive.size == 0:
            break
        hits = scene.intersect_batch(o, d)
        hit = hits.valid
        if not np.any(hit):
            break
        alive = alive[hit]
        hits = hits.subset(hit)
        flux = flux[hit]
        throughput = throughput[hit]

        store = hits.mat_kind == scene_mod.DIFFUSE
        if np.any(store):
            out_pos.append(hits.position[store])
            out_flux.append(flux[store])
            out_wi.append(hits.wo[store])

        if bounce == bounces - 1:
            break

        wi, weight, _, _ = scene_mod.sample_bsdf_batch(hits, *core.draw_units(keys, ctrs, alive, 3))
        throughput = throughput * weight
        flux = flux * weight

        # a path goes on while its BSDF weight is non-zero (not its throughput)
        keep = np.any(weight > 0.0, axis=1)
        if bounce + 1 >= core.RR_START:
            survive, inv_p = core.roulette(keys, ctrs, alive, throughput)
            keep &= survive
            throughput = throughput * inv_p[:, None]
            flux = flux * inv_p[:, None]

        alive = alive[keep]
        if alive.size == 0:
            break
        o = hits.position[keep] + core.RAY_OFFSET * wi[keep]
        d = wi[keep]
        flux = flux[keep]
        throughput = throughput[keep]

    if not out_pos:
        return PhotonMap.empty()
    return PhotonMap(np.concatenate(out_pos), np.concatenate(out_flux), np.concatenate(out_wi))
