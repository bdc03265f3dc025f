"""Rendering integrators: progressive photon mapping, path tracing, and
the photon-field camera pass.

Photon mapping, field rendering and dataset capture share one wavefront
tracer that follows rays through delta (mirror/dielectric) bounces to the
first diffuse hit, accumulating throughput along the way; what happens at
that hit is the only thing that differs: photon-density gathering, a field
query, or supervision-point capture. The two renderers also share the
frame assembly around it (``_camera_frame``), and photon-mapped renders
and supervision references share one photon-pass job
(``_average_photon_passes``). Every multi-pass estimate adds its passes
through one loop (``_ordered_sum``). The path tracer keeps its own
wavefront (MIS emission, next-event estimation); it and the delta tracer
take their draws and roulette from ``core`` and their hit subsets from
``Hits.subset``, and shade hits and sample BSDFs with the C code of the
photon tracer (``photons.py``). The photon gather's sum is compiled too.

Images are (height, width, 3) float64 arrays of linear radiance.
Everything is deterministic for a fixed seed: random streams are keyed by
(seed, pass, pixel, sample), never by execution order, so thread count and
chunking cannot change output bits.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import core, scene as scene_mod
from .core import RAY_OFFSET, RR_START, draw_units, fold_key, roulette, seed_key, vdot
from .core import draw_unit  # noqa: F401  (re-exported; perfbench traces this binding)
from .geometry import load_kernels
from .photons import _MAX_CHAIN, PhotonMap, trace_photons
from .spatial import PointIndex

_TAG_PHOTON = 0xA1
_TAG_CAMERA = 0xC3
_MAX_DELTA_CHAIN = 32


@dataclass
class SppmConfig:
    """Progressive photon-mapping parameters (per-iteration photon passes
    with frame averaging and a shrinking gather radius)."""

    iterations: int = 1000
    photons_per_iter: int = 100_000
    initial_radius: float = 0.02
    alpha: float = 0.7
    max_photon_bounces: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1 or self.photons_per_iter < 1:
            raise ValueError("iterations and photons_per_iter must be >= 1")
        if not 0.0 < self.initial_radius < math.inf:
            raise ValueError(f"initial_radius must be finite and positive, got {self.initial_radius}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if not 1 <= self.max_photon_bounces <= _MAX_CHAIN:
            raise ValueError(f"max_photon_bounces must lie in [1, {_MAX_CHAIN}], got {self.max_photon_bounces}")


def sppm_radius(t: int, r0: float, alpha: float) -> float:
    """Gather radius after ``t`` progressive iterations.

    r(0) = r0 and r(t) = r(t-1) * sqrt((t-1+alpha) / t); strictly
    decreasing for alpha < 1 and constant for alpha = 1.
    """
    if t < 0:
        raise ValueError("iteration index must be non-negative")
    r = float(r0)
    for j in range(1, t + 1):
        r *= math.sqrt((j - 1 + alpha) / j)
    return r


def _ordered_map(fn, args, threads: int):
    """Map preserving argument order with at most ``threads`` workers.

    Results are yielded in submission order regardless of completion
    order, so parallel reductions stay bit-identical to serial ones.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads == 1:
        for a in args:
            yield fn(a)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as ex:
        pending = deque()
        it = iter(args)
        for a in it:
            pending.append(ex.submit(fn, a))
            if len(pending) >= threads * 2:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _ordered_sum(fn, args, threads: int):
    """Sum of ``fn(a)`` over the non-empty ``args``, added from zero in
    argument order, so the thread count cannot change the bits."""
    parts = _ordered_map(fn, args, threads)  # looked up per call: a tracer may replace it
    total = 0.0 + next(parts)
    for part in parts:
        total += part
    return total


# ---------------------------------------------------------------------------
# shared camera pass


@dataclass
class FirstDiffuse:
    """Per-ray outcome of tracing through delta bounces.

    ``emitted`` carries beta * L_e from emitter hits seen through a
    delta-only prefix; rays with ``found`` landed on a (non-emitting side
    of a) diffuse surface, with throughput ``beta`` accumulated along the
    prefix.
    """

    found: np.ndarray  # (n,) bool
    position: np.ndarray  # (n, 3)
    normal: np.ndarray  # (n, 3)
    wo: np.ndarray  # (n, 3)
    albedo: np.ndarray  # (n, 3)
    beta: np.ndarray  # (n, 3)
    emitted: np.ndarray  # (n, 3)


def trace_to_first_diffuse(scene: scene_mod.Scene, origins, dirs, keys, ctrs) -> FirstDiffuse:
    """Trace rays through delta interactions to their first diffuse hit.

    Emitter hits behind a delta-only prefix terminate the ray and deposit
    beta * L_e into ``emitted`` (the emitter is not gathered). ``ctrs`` is
    advanced in place as paths consume BSDF draws.
    """
    n = len(origins)
    out = FirstDiffuse(
        found=np.zeros(n, dtype=bool),
        position=np.zeros((n, 3)),
        normal=np.zeros((n, 3)),
        wo=np.zeros((n, 3)),
        albedo=np.zeros((n, 3)),
        beta=np.ones((n, 3)),
        emitted=np.zeros((n, 3)),
    )
    alive = np.arange(n, dtype=np.intp)
    o = np.asarray(origins, dtype=np.float64)
    d = np.asarray(dirs, dtype=np.float64)
    beta = np.ones((n, 3))
    for _ in range(_MAX_DELTA_CHAIN):
        if alive.size == 0:
            break
        hits = scene.intersect_batch(o, d)
        hv = hits.valid
        alive = alive[hv]
        if alive.size == 0:
            break
        hits = hits.subset(hv)
        beta = beta[hv]

        emitter = np.any(hits.emission > 0.0, axis=1)
        if np.any(emitter):
            out.emitted[alive[emitter]] += beta[emitter] * hits.emission[emitter]

        diffuse = (hits.mat_kind == scene_mod.DIFFUSE) & ~emitter
        if np.any(diffuse):
            rows = alive[diffuse]
            out.found[rows] = True
            out.position[rows] = hits.position[diffuse]
            out.normal[rows] = hits.normal[diffuse]
            out.wo[rows] = hits.wo[diffuse]
            out.albedo[rows] = hits.albedo[diffuse]
            out.beta[rows] = beta[diffuse]

        cont = ~emitter & ~diffuse
        if not np.any(cont):
            break
        hits = hits.subset(cont)
        alive = alive[cont]
        wi, weight, _, _ = scene_mod.sample_bsdf_batch(hits, *draw_units(keys, ctrs, alive, 3))
        beta = beta[cont] * weight
        o = hits.position + RAY_OFFSET * wi
        d = wi
    return out


def _camera_rays(camera: scene_mod.Camera, seed: int, pass_idx: int):
    w, h = camera.resolution
    pixel_ids = np.arange(w * h, dtype=np.intp)
    keys = fold_key(fold_key(fold_key(seed_key(seed), _TAG_CAMERA), pass_idx), pixel_ids.astype(np.uint64))
    ctrs = np.zeros(w * h, dtype=np.uint64)
    jx, jy = draw_units(keys, ctrs, slice(None), 2)
    o, d = camera.primary_rays(pixel_ids, np.stack([jx, jy], axis=1))
    return pixel_ids, keys, ctrs, o, d


# ---------------------------------------------------------------------------
# photon-density estimation


def kde_gather_batch(index: PointIndex, photons: PhotonMap, positions, normals, wos, albedo, radius: float):
    """Density-estimated outgoing radiance at diffuse surface points.

    L = 1/(pi r^2) * sum over photons within r of flux * f_r, evaluating
    the diffuse BSDF against each photon's incident direction (photons
    arriving under the surface contribute zero). ``index`` is the
    :class:`PointIndex` of ``photons.positions``. The compiled sum
    (``_photons.c``) adds each point's neighbours from zero in the order of
    its ball-query row.
    """
    m = len(positions)
    out = np.zeros((m, 3))
    if len(photons) == 0 or m == 0:
        return out
    if len(index) != len(photons):
        raise ValueError(f"index holds {len(index)} points for {len(photons)} photons")
    rows = [np.ascontiguousarray(a, dtype=np.float64) for a in (positions, normals, wos, albedo)]
    if any(a.shape != (m, 3) for a in rows):
        raise ValueError(f"positions, normals, wos and albedo must have shape ({m}, 3)")
    flat, splits = index.ball_query_batch(rows[0], radius)
    incident, flux = (np.ascontiguousarray(a, dtype=np.float64) for a in (photons.incident, photons.flux))
    load_kernels().pf_kde_sum(
        m, splits.ctypes.data, flat.ctypes.data, incident.ctypes.data, flux.ctypes.data,
        *(a.ctypes.data for a in rows[1:]), out.ctypes.data,
    )
    out /= math.pi * radius * radius
    return out


def _photon_pass(scene: scene_mod.Scene, cfg: SppmConfig, iteration: int):
    key = fold_key(fold_key(seed_key(cfg.seed), _TAG_PHOTON), iteration)
    photons = trace_photons(scene, cfg.photons_per_iter, cfg.max_photon_bounces, core.Rng.from_key(key))
    index = PointIndex(photons.positions)
    return photons, index


# ---------------------------------------------------------------------------
# SPPM


def _camera_frame(scene, camera, seed: int, s: int, radiance_at):
    """Flat (w*h, 3) frame of camera pass ``s``.

    Emission seen through each ray's delta prefix, plus ``beta *
    radiance_at(positions, normals, wos, albedo)`` at the first diffuse
    hits, which :func:`trace_to_first_diffuse` records.
    """
    _, keys, ctrs, o, d = _camera_rays(camera, seed, s)
    fd = trace_to_first_diffuse(scene, o, d, keys, ctrs)
    frame, found = fd.emitted, fd.found
    if np.any(found):
        frame[found] += fd.beta[found] * radiance_at(*(a[found] for a in (fd.position, fd.normal, fd.wo, fd.albedo)))
    return frame


def _average_photon_passes(scene, cfg: SppmConfig, threads: int, estimate):
    """Mean over ``cfg.iterations`` photon passes of ``estimate(t, gather)``.

    Pass ``t`` traces :func:`_photon_pass`; ``gather(positions, normals,
    wos, albedo)`` is :func:`kde_gather_batch` over that pass at radius
    ``sppm_radius(t, ...)``. The passes' arrays are added in pass order.
    """
    scene._require_emitters()

    def job(t):
        photons, index = _photon_pass(scene, cfg, t)
        radius = sppm_radius(t, cfg.initial_radius, cfg.alpha)
        return estimate(t, lambda *points: kde_gather_batch(index, photons, *points, radius))

    return _ordered_sum(job, range(cfg.iterations), threads) / cfg.iterations


def render_sppm(scene: scene_mod.Scene, camera: scene_mod.Camera, cfg: SppmConfig, threads: int = 1):
    """Progressive photon-mapping render: mean of per-iteration frames.

    Each iteration traces a fresh photon map, follows camera rays to the
    first diffuse hit, and gathers with the iteration's radius. Iteration
    t depends only on the seed and t, not on ``cfg.iterations``, so a T=t
    render is bit-identical to the running mean of a longer render's first
    t iterations with the same seed.
    """
    w, h = camera.resolution
    mean = _average_photon_passes(scene, cfg, threads, lambda t, gather: _camera_frame(scene, camera, cfg.seed, t, gather))
    return mean.reshape(h, w, 3)


def reference_radiance_at_points(scene: scene_mod.Scene, positions, normals, wos, albedo, cfg: SppmConfig, threads: int = 1):
    """Photon-mapped outgoing radiance averaged over cfg.iterations passes.

    The (m, 3) arrays describe diffuse surface points as
    :func:`trace_to_first_diffuse` records them, in
    :func:`kde_gather_batch`'s order. Shares the photon passes of
    :func:`render_sppm`, so a gather here matches the corresponding
    camera-pass gather for equal seeds.
    """
    return _average_photon_passes(scene, cfg, threads, lambda t, gather: gather(positions, normals, wos, albedo))


# ---------------------------------------------------------------------------
# path tracer (reference integrator)


def _pt_trace(scene, pixel_ids, keys, ctrs, o, d, max_depth, npix):
    img = np.zeros((npix, 3))
    n = len(pixel_ids)
    path = np.arange(n, dtype=np.intp)  # live row -> index into keys/ctrs
    pix = np.asarray(pixel_ids, dtype=np.intp).copy()
    beta = np.ones((n, 3))
    prev_delta = np.ones(n, dtype=bool)
    prev_pdf = np.zeros(n)
    for depth in range(max_depth):
        if path.size == 0:
            break
        hits = scene.intersect_batch(o, d)
        hv = hits.valid
        path = path[hv]
        if path.size == 0:
            break
        pix = pix[hv]
        beta = beta[hv]
        prev_delta = prev_delta[hv]
        prev_pdf = prev_pdf[hv]
        hits = hits.subset(hv)

        # emission picked up by the BSDF-sampling strategy, MIS-weighted
        # against the light sampler unless the previous vertex was delta
        evis = np.any(hits.emission > 0.0, axis=1)
        if np.any(evis):
            rows = np.nonzero(evis)[0]
            wmis = np.ones(len(rows))
            need = ~prev_delta[rows] & (depth > 0)
            if np.any(need):
                rr = rows[need]
                slot = scene.emitter_slot_of_shape(hits.shape_id[rr])
                cos_l = vdot(hits.normal[rr], hits.wo[rr])
                pdf_l = scene.emitter_select_prob(slot) / scene.emitter_area[slot] * hits.t[rr] ** 2 / np.maximum(cos_l, 1e-12)
                wmis[need] = prev_pdf[rr] / (prev_pdf[rr] + pdf_l)
            np.add.at(img, pix[rows], beta[rows] * hits.emission[rows] * wmis[:, None])

        # next-event estimation at diffuse vertices; its draws are taken
        # whether or not the scene has emitters
        diff = hits.mat_kind == scene_mod.DIFFUSE
        u_pick, u_l1, u_l2 = draw_units(keys, ctrs, path[diff], 3)
        if np.any(diff) and scene.has_emitters:
            rows = np.nonzero(diff)[0]
            slot = scene.pick_emitter(u_pick)
            ly, ln, pdf_area = scene.sample_on_emitter(slot, u_l1, u_l2)
            to_l = ly - hits.position[rows]
            dist = np.linalg.norm(to_l, axis=1)
            wl = to_l / np.maximum(dist, 1e-12)[:, None]
            cos_x = vdot(hits.normal[rows], wl)
            cos_l = vdot(ln, -wl)
            cand = (cos_x > 0.0) & (cos_l > 1e-9) & (dist > 1e-6)
            if np.any(cand):
                rr = rows[cand]
                t_sh, _ = scene.geometry.intersect(hits.position[rr] + RAY_OFFSET * wl[cand], wl[cand])
                visible = t_sh > dist[cand] - 1e-4
                if np.any(visible):
                    rv = rr[visible]
                    cv = cand.copy()
                    cv[cand] = visible
                    radiance = scene.emitter_radiance[slot[cv]]
                    pdf_l = (
                        scene.emitter_select_prob(slot[cv]) * pdf_area[cv] * dist[cv] ** 2 / cos_l[cv]
                    )
                    f = hits.albedo[rv] / math.pi
                    pdf_b = cos_x[cv] / math.pi
                    wmis = pdf_l / (pdf_l + pdf_b)
                    contrib = beta[rv] * f * (cos_x[cv] / pdf_l * wmis)[:, None] * radiance
                    np.add.at(img, pix[rv], contrib)

        # continuation: a path goes on while its throughput is non-zero
        wi, weight, is_delta, pdf_dir = scene_mod.sample_bsdf_batch(hits, *draw_units(keys, ctrs, path, 3))
        beta = beta * weight
        keep = np.any(beta > 0.0, axis=1)

        if depth + 1 >= RR_START:
            survive, inv_p = roulette(keys, ctrs, path, beta)
            keep &= survive
            beta = beta * inv_p[:, None]

        path = path[keep]
        if path.size == 0:
            break
        pix = pix[keep]
        beta = beta[keep]
        prev_delta = is_delta[keep]
        prev_pdf = pdf_dir[keep]
        o = hits.position[keep] + RAY_OFFSET * wi[keep]
        d = wi[keep]
    return img


def render_pt(
    scene: scene_mod.Scene,
    camera: scene_mod.Camera,
    spp: int,
    max_depth: int = 16,
    rng: int = 0,
    threads: int = 1,
):
    """Unidirectional path tracing with next-event estimation and balance-
    heuristic MIS at diffuse vertices; Russian roulette after depth 3.
    ``rng`` is the integer seed of the camera streams."""
    if spp < 1:
        raise ValueError("spp must be >= 1")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    seed = int(rng)
    w, h = camera.resolution
    # the samples of one chunk share one wavefront and its np.add.at sums, so the chunk size fixes the bits
    chunk = max(1, min(spp, max(1, (1 << 17) // (w * h))))

    def job(s0):
        rays = zip(*(_camera_rays(camera, seed, s) for s in range(s0, min(s0 + chunk, spp))))
        return _pt_trace(scene, *map(np.concatenate, rays), max_depth, w * h)

    return (_ordered_sum(job, range(0, spp, chunk), threads) / spp).reshape(h, w, 3)


# ---------------------------------------------------------------------------
# photon-field camera pass


def render_gpf(
    scene: scene_mod.Scene,
    camera: scene_mod.Camera,
    field,
    spp: int = 1,
    seed: int = 0,
    bsdf_modulation: bool = False,
    threads: int = 1,
):
    """Render by querying a trained photon field at first diffuse hits.

    Shares the delta-prefix camera pass with the photon-mapping renderer;
    the field query replaces density estimation. ``bsdf_modulation``
    additionally multiplies queries by the surface albedo (ablation switch;
    off by default because the supervision target already folds the BSDF
    in). Negative field output is clamped at the final pixel.
    """
    if spp < 1:
        raise ValueError("spp must be >= 1")
    w, h = camera.resolution
    field.ensure_index()

    def radiance_at(positions, normals, wos, albedo):
        queried = field.query_batch(positions)
        if bsdf_modulation:
            queried = queried * albedo
        return queried

    def job(s):
        return _camera_frame(scene, camera, seed, s, radiance_at)

    return np.maximum((_ordered_sum(job, range(spp), threads) / spp).reshape(h, w, 3), 0.0)
