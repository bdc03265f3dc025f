"""The benchmark's workloads: inputs, stages and output checks.

Three workloads, each stressing a layer the others barely use:

- ``pt-cornell``: ``render_pt`` on cornell-box with one thread. Nearly all
  of the time is intersection with a shallow 26-primitive BVH, shadow
  rays included; the stage touches no spatial index, photon map or field.
- ``sppm-pool``: ``render_sppm`` on caustic-pool with two threads: photons
  through a deep 1,460-triangle BVH with dielectric chains, a fresh
  ``PointIndex`` per iteration and one ball query per camera hit. The
  only workload on which the ordered thread map runs in parallel.
- ``gpf-caustic``: the paper's pipeline on caustic-sphere (3 primitives):
  seed ~10k primitives from traced photons, build the supervision
  dataset on three orbit views, train with minibatch Adam, save and load
  the checkpoint, render held-out views with ``render_gpf``. Hybrid
  neighbour queries and the field's passes dominate.

Each workload runs whole rounds for the measured time. Every end-to-end
metric is reported on every workload, so a round of an untraced run also
makes one small companion pass of each stage the workload does not
stress, on the same scene (see README.md).

All inputs derive from the workload seed through ``stage_seed``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

import checks

MAX_BOUNCES = 16


def stage_seed(seed: int, tag: str) -> int:
    """31-bit seed of one input stream, derived from the workload seed."""
    digest = hashlib.sha256(f"perfbench/{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


@dataclass(frozen=True)
class PtSize:
    res: int
    spp: int

    @property
    def ops(self) -> int:
        return 1


@dataclass(frozen=True)
class SppmSize:
    res: int
    iterations: int
    photons: int
    threads: int

    @property
    def ops(self) -> int:
        return self.iterations


@dataclass(frozen=True)
class ChainSize:
    seed_photons: int  # photons traced to seed the field (~55% are stored)
    res: int  # training and held-out view resolution
    iterations: int  # photon-mapping iterations behind each reference
    photons: int  # photons per iteration
    steps: int
    batch: int
    views: int  # held-out views rendered
    view_spp: int

    @property
    def ops(self) -> int:
        return 2 + self.views  # dataset build, training run, each view


@dataclass(frozen=True)
class Workload:
    name: str
    scene: str
    primary: str  # "pt", "sppm" or "chain"
    pt: PtSize
    sppm: SppmSize
    chain: ChainSize
    # spacing of the training and held-out views, in degrees about the
    # vertical axis through the scene camera's look-at point
    view_spread: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pt-cornell", "cornell-box", "pt",
            pt=PtSize(res=64, spp=8),
            sppm=SppmSize(res=64, iterations=1, photons=30_000, threads=1),
            chain=ChainSize(seed_photons=2_000, res=32, iterations=4, photons=10_000, steps=60, batch=512, views=2, view_spp=8),
            view_spread=6.0,
        ),
        Workload(
            "sppm-pool", "caustic-pool", "sppm",
            pt=PtSize(res=48, spp=6),
            sppm=SppmSize(res=64, iterations=2, photons=20_000, threads=2),
            chain=ChainSize(seed_photons=2_000, res=32, iterations=2, photons=10_000, steps=60, batch=512, views=2, view_spp=2),
            view_spread=20.0,
        ),
        Workload(
            "gpf-caustic", "caustic-sphere", "chain",
            pt=PtSize(res=64, spp=16),
            sppm=SppmSize(res=64, iterations=2, photons=20_000, threads=1),
            chain=ChainSize(seed_photons=18_000, res=64, iterations=8, photons=20_000, steps=20, batch=2048, views=2, view_spp=2),
            view_spread=120.0,
        ),
    )
}

# Stages a workload cannot run without: a traced run that records no span
# of one of these fails instead of reporting zero.
EXPECTED_LAYERS = {
    "pt": {
        "scene.build", "geometry.intersect", "scene.intersect_batch", "scene.sample_bsdf_batch",
        "core.draw_unit", "integrators.render_pt",
    },
    "sppm": {
        "scene.build", "geometry.intersect", "scene.intersect_batch", "scene.sample_bsdf_batch",
        "core.draw_unit", "photons.trace_photons", "spatial.build", "spatial.ball_query_batch",
        "integrators.kde_gather_batch", "integrators.trace_to_first_diffuse", "integrators.render_sppm",
    },
    "chain": {
        "scene.build", "geometry.intersect", "scene.intersect_batch", "scene.sample_bsdf_batch",
        "core.draw_unit", "photons.trace_photons", "spatial.build", "spatial.ball_query_batch",
        "integrators.kde_gather_batch", "spatial.hybrid_query_batch", "spatial.knn_query_batch",
        "field.forward", "field.backward_scatter", "field.rebuild_index", "training.train",
        "training.dataset_loss", "field.query_batch", "integrators.trace_to_first_diffuse",
        "field.save", "field.load", "training.build_dataset", "integrators.render_gpf",
    },
}


class Inputs:
    """A workload's scene, views and (for the field pipeline) seed field."""

    def __init__(self, pf, workload: Workload, seed: int):
        self.pf = pf
        self.w = workload
        self.seed = seed
        self.scene = pf.builtin_scene(workload.scene)
        _warm_up(self.scene)
        self.field0 = None

    def seed_field(self, size: ChainSize):
        pf = self.pf
        photons = pf.trace_photons(self.scene, size.seed_photons, MAX_BOUNCES, pf.Rng(stage_seed(self.seed, "seed-photons")))
        self.field0 = pf.GaussianField.from_photons(photons, rng=pf.Rng(stage_seed(self.seed, "seed-quats")))

    def view(self, offset_deg: float, res: int):
        """The scene camera turned by ``offset_deg`` about the vertical axis
        through its look-at point. Views do not depend on the seed, which
        changes only the random streams, not what is in view."""
        cam = self.scene.camera
        a = math.radians(offset_deg)
        rel = cam.position - cam.look_at
        rot = np.array([rel[0] * math.cos(a) - rel[1] * math.sin(a), rel[0] * math.sin(a) + rel[1] * math.cos(a), rel[2]])
        return self.pf.Camera(cam.look_at + rot, cam.look_at, cam.up, cam.vfov, (res, res))

    def training_views(self, res: int):
        s = self.w.view_spread
        return [self.view(k * s, res) for k in (-1, 0, 1)]

    def heldout_views(self, res: int, n: int):
        s = self.w.view_spread
        return [self.view((0.5 + k) * s, res) for k in range(n)]


def _warm_up(scene):
    """Fill the BVH's lazily built leaf packs: one ray onto each primitive,
    sent from just off its surface."""
    prims = checks.primitives(scene)
    o, d = [], []
    for kind, a, b, c in prims:
        if kind == "sphere":
            n = np.array([0.0, 0.0, 1.0])
            target = a + b * n
        elif kind == "quad":
            n = np.cross(b, c)
            target = a + 0.5 * (b + c)
        else:
            n = np.cross(b - a, c - a)
            target = (a + b + c) / 3.0
        n = n / np.linalg.norm(n)
        o.append(target + 1e-2 * n)
        d.append(-n)
    scene.geometry.intersect(np.array(o), np.array(d))


# ---------------------------------------------------------------------------
# stages: each returns (metrics, outputs)


def stage_pt(inp: Inputs, size: PtSize):
    cam = inp.view(0.0, size.res)
    t0 = time.perf_counter()
    img = inp.pf.render_pt(inp.scene, cam, size.spp, max_depth=16, rng=stage_seed(inp.seed, "pt"), threads=1)
    dt = time.perf_counter() - t0
    return {"pt_samples_per_s": size.spp * size.res * size.res / dt}, {"image": img, "camera": cam}


def stage_sppm(inp: Inputs, size: SppmSize, rep: int = 0):
    """``rep`` selects the photon seed, so that repeated companion passes
    add up to a photon-mapped reference with more photons."""
    cam = inp.view(0.0, size.res)
    cfg = inp.pf.SppmConfig(iterations=size.iterations, photons_per_iter=size.photons, seed=stage_seed(inp.seed, f"sppm-{rep}"))
    t0 = time.perf_counter()
    img = inp.pf.render_sppm(inp.scene, cam, cfg, threads=size.threads)
    dt = time.perf_counter() - t0
    return {"sppm_iter_s": dt / size.iterations}, {"image": img, "camera": cam, "config": cfg}


def stage_chain(inp: Inputs, size: ChainSize, workdir):
    pf = inp.pf
    f0 = inp.field0
    field = pf.GaussianField(f0.means.copy(), f0.quats.copy(), f0.log_scales.copy(), f0.flux.copy())
    cfg = pf.SppmConfig(iterations=size.iterations, photons_per_iter=size.photons, seed=stage_seed(inp.seed, "dataset"))
    t0 = time.perf_counter()
    dataset = pf.build_dataset(inp.scene, inp.training_views(size.res), cfg, samples_per_pixel=1, threads=1)
    t1 = time.perf_counter()
    log = pf.train(field, dataset, pf.TrainConfig(learning_rate=2e-3, steps=size.steps, batch_size=size.batch, seed=stage_seed(inp.seed, "batches")))
    t2 = time.perf_counter()
    path = workdir / "field.gpf"
    field.save(path)
    loaded = pf.GaussianField.load(path)
    t3 = time.perf_counter()
    views = [
        pf.render_gpf(inp.scene, cam, loaded, spp=size.view_spp, seed=stage_seed(inp.seed, f"view-{k}"))
        for k, cam in enumerate(inp.heldout_views(size.res, size.views))
    ]
    t4 = time.perf_counter()
    metrics = {
        "dataset_s": t1 - t0,
        "train_steps_per_s": size.steps / (t2 - t1),
        "train_final_mse": float(log.final_full_loss),
        "gpf_view_s": (t4 - t3) / size.views,
    }
    return metrics, {"dataset": dataset, "log": log, "path": path, "loaded": loaded, "views": views}


# ---------------------------------------------------------------------------
# output checks of each primary stage


def check_pt(inp: Inputs, out: dict, sppm_images) -> list[str]:
    """Finite non-negative image; BVH nearest hits equal brute force on a
    sample of the workload's rays; image mean within 5% of photon mapping
    at the same view."""
    scene = inp.scene
    cam = out["camera"]
    fails = checks.image(out["image"], "pt image")
    rng = np.random.default_rng(stage_seed(inp.seed, "check"))
    w, h = cam.resolution
    pix = rng.integers(0, w * h, 1024)
    o, d = cam.primary_rays(pix, rng.random((1024, 2)))
    hits = scene.intersect_batch(o, d)
    pos, nrm = hits.position[hits.valid], hits.normal[hits.valid]
    # bounce rays: uniform over the hemisphere about the hit normal
    v = rng.normal(size=pos.shape)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v = np.where(np.sum(v * nrm, axis=1, keepdims=True) < 0.0, -v, v)
    # shadow rays: toward uniform points on the emitters
    lamp = scene.emitter_ids[0]
    q = scene.shapes[lamp].kind
    target = q.corner + rng.random((len(pos), 1)) * q.edge_u + rng.random((len(pos), 1)) * q.edge_v
    s = target - pos
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    ro = np.concatenate([o, pos + 1e-7 * v, pos + 1e-7 * s])
    rd = np.concatenate([d, v, s])
    t, prim = scene.geometry.intersect(ro, rd)
    fails += checks.nearest_hits(checks.primitives(scene), ro, rd, t, prim)
    ref = float(np.mean([np.mean(img) for img in sppm_images]))
    fails += checks.mean_agreement(out["image"], ref, 0.05, "pt image")
    return fails


def check_sppm(inp: Inputs, out: dict) -> list[str]:
    """Finite non-negative image; the photons and camera hits of the
    render's first iteration (re-created with the same seeds) pass the
    photon-surface, ball-query and density-estimate oracles."""
    from photonfield import integrators

    scene = inp.scene
    cfg = out["config"]
    fails = checks.image(out["image"], "sppm image")
    photons, index = integrators._photon_pass(scene, cfg, 0)
    fails += checks.photons_on_diffuse(checks.primitives(scene), checks.diffuse_flags(scene), photons.positions, photons.flux)
    _, keys, ctrs, o, d = integrators._camera_rays(out["camera"], cfg.seed, 0)
    fd = integrators.trace_to_first_diffuse(scene, o, d, keys, ctrs)
    rng = np.random.default_rng(stage_seed(inp.seed, "check"))
    rows = rng.choice(np.nonzero(fd.found)[0], 256, replace=False)
    r = cfg.initial_radius
    flat, splits = index.ball_query_batch(fd.position[rows], r)
    fails += checks.ball_rows(photons.positions, fd.position[rows], r, flat, splits)
    got = integrators.kde_gather_batch(index, photons, fd.position[rows], fd.normal[rows], fd.wo[rows], fd.albedo[rows], r)
    fails += checks.kde_values(
        photons.positions, photons.flux, photons.incident, fd.position[rows], fd.normal[rows], fd.wo[rows], fd.albedo[rows], r, got
    )
    return fails


def check_chain(inp: Inputs, out: dict) -> list[str]:
    """Field query equals the formula over a brute-force hybrid
    neighbourhood; analytic gradients equal central differences; losses
    finite and falling; checkpoint byte-stable; views finite non-negative."""
    pf = inp.pf
    field = out["loaded"]
    dataset = out["dataset"]
    rng = np.random.default_rng(stage_seed(inp.seed, "check"))
    fails = []
    for k, img in enumerate(out["views"]):
        fails += checks.image(img, f"held-out view {k}")
    fails += checks.training(out["log"].losses, out["log"].initial_full_loss, out["log"].final_full_loss)

    first = out["path"].read_bytes()
    again = out["path"].with_name("again.gpf")
    pf.GaussianField.load(out["path"]).save(again)
    fails += checks.byte_stable(first, again.read_bytes())

    lo, hi = field.means.min(axis=0), field.means.max(axis=0)
    xs = np.concatenate([dataset.position[rng.choice(len(dataset), 64, replace=False)], lo + rng.random((32, 3)) * (hi - lo)])
    field.ensure_index()
    fails += checks.field_query(field.means, field.quats, field.log_scales, field.flux, field.radius, field.k_min, field.eps, xs, field.query_batch(xs))

    xb = dataset.position[rng.choice(len(dataset), 32, replace=False)]
    flat, splits = pf.PointIndex(field.means).hybrid_query_batch(xb, field.radius, field.k_min)
    dl = rng.normal(size=(len(xb), 3)) / len(xb)
    grads = field.backward_scatter(xb, dl, flat, splits)
    params = {"mean": field.means, "quat": field.quats, "log_scale": field.log_scales, "flux": field.flux}
    fails += checks.gradients(params, field.radius, field.eps, xb, dl, flat, splits, grads, rng)
    return fails
