"""Reference figures quoted in perfbench/README.md.

    python3 perfbench/reference.py

Re-measures the layer list of the ROADMAP Baseline, the field's render
time per view against 256-iteration photon mapping at the same view and
resolution (acceptance criterion 10), and the held-out PSNR and SSIM of
the field against 3-iteration photon mapping (criterion 5), with the
sizes and seeds of the acceptance fixtures. Takes about five minutes on
two cores. Prints markdown.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import photonfield as pf  # noqa: E402
from photonfield import integrators  # noqa: E402
from photonfield.training import TrainConfig, build_dataset, train  # noqa: E402

import tracer as tr  # noqa: E402


def timed(fn, repeat=3):
    """Median wall time of ``repeat`` calls, and the last result."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), out


def orbit(az_deg: float, res: int):
    a = math.radians(az_deg)
    pos = np.array([1.25 * math.cos(a), 1.25 * math.sin(a), 0.5])
    return pf.Camera(pos, np.array([0.0, 0.0, -0.4]), np.array([0.0, 0.0, 1.0]), 40.0, (res, res))


def layers():
    print("## Layers (caustic-sphere at 128x128, one thread, median of 3)\n")
    scene = pf.builtin_scene("caustic-sphere")
    t, photons = timed(lambda: pf.trace_photons(scene, 50_000, 16, pf.Rng(1)))
    print(f"- `trace_photons`, 50k photons: {t:.3f} s, storing {len(photons)}")
    cam = orbit(60.0, 128)

    def first_diffuse():
        _, keys, ctrs, o, d = integrators._camera_rays(cam, 2, 0)
        return integrators.trace_to_first_diffuse(scene, o, d, keys, ctrs)

    t, fd = timed(first_diffuse)
    pts = fd.position[fd.found]
    print(f"- `trace_to_first_diffuse`, {len(fd.found)} camera rays: {1e3 * t:.1f} ms")
    index = pf.PointIndex(photons.positions)
    t, _ = timed(lambda: index.ball_query_batch(pts, 0.02))
    print(f"- `ball_query_batch`, r = 0.02, {len(pts)} points: {t:.3f} s")
    seed_photons = pf.trace_photons(scene, 18_000, 16, pf.Rng(5003))
    field = pf.GaussianField.from_photons(seed_photons, rng=pf.Rng(5004))
    field.rebuild_index()
    t_q, _ = timed(lambda: field.query_batch(pts))
    t_h, (flat, splits) = timed(lambda: field._index.hybrid_query_batch(pts, field.radius, field.k_min))
    t_f, _ = timed(lambda: field._forward(pts, flat, splits))
    print(f"- `field.query_batch`, {len(field)} primitives: {t_q:.3f} s; `hybrid_query_batch` {t_h:.3f} s, `_forward` {1e3 * t_f:.0f} ms")
    dl = np.ones((len(pts), 3)) / len(pts)
    t, _ = timed(lambda: field.backward_scatter(pts, dl, flat, splits))
    print(f"- `backward_scatter`: {t:.3f} s")

    cams = [orbit(az, 128) for az in (0.0, 120.0, 240.0)]
    dataset = build_dataset(scene, cams, pf.SppmConfig(iterations=1, photons_per_iter=50_000, seed=5001))
    tracer = tr.Tracer()
    tracer.install()
    tracer.phase = "round"
    try:
        t0 = time.perf_counter()
        train(field, dataset, TrainConfig(learning_rate=2e-3, steps=20, batch_size=2048, seed=5005))
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    outside_steps = sum(s.t1 - s.t0 for s in tracer.spans if s.name in ("training.dataset_loss", "field.rebuild_index"))
    step = (wall - outside_steps) / 20
    hybrid = sum(s.t1 - s.t0 for s in tracer.spans if s.name == "spatial.hybrid_query_batch" and s.counts["queries"] == 2048) / 20
    print(f"- one training step at batch 2048 ({len(dataset)} samples): {1e3 * step:.0f} ms, of which `hybrid_query_batch` {100 * hybrid / step:.0f}%")

    cornell = pf.builtin_scene("cornell-box")
    tracer = tr.Tracer()
    tracer.install()
    tracer.phase = "round"
    try:
        t0 = time.perf_counter()
        pf.render_pt(cornell, cornell.camera.with_resolution(64, 64), 8, rng=1)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    inter = sum(s.t1 - s.t0 for s in tracer.spans if s.name == "scene.intersect_batch")
    inter += sum(s.t1 - s.t0 for s in tracer.spans if s.name == "geometry.intersect" and s.parent not in {x.sid for x in tracer.spans if x.name == "scene.intersect_batch"})
    print(f"- path tracer on cornell-box at 64x64, 8 spp: intersection (shadow rays included) is {100 * inter / wall:.0f}% of {wall:.2f} s")
    for name in ("cornell-box", "caustic-pool"):
        s = pf.builtin_scene(name)
        _, _, _, o, d = integrators._camera_rays(s.camera.with_resolution(128, 128), 3, 0)
        t_bvh, _ = timed(lambda: s.geometry.intersect(o, d))
        t_lin, _ = timed(lambda: s.geometry.intersect_linear(o, d), repeat=1)
        print(f"- BVH against linear scan, 128x128 camera rays on {name} ({len(s.geometry)} primitives): {1e3 * t_bvh:.0f} ms vs {1e3 * t_lin:.0f} ms")


def caustic_bundle():
    print("\n## Criteria 5 and 10 (caustic-sphere, held-out view at 128x128)\n")
    scene = pf.builtin_scene("caustic-sphere")
    heldout = orbit(60.0, 128)
    ref_cfg = pf.SppmConfig(iterations=256, photons_per_iter=50_000, seed=5001)
    t0 = time.perf_counter()
    reference = pf.render_sppm(scene, heldout, ref_cfg, threads=2)
    t_sppm = time.perf_counter() - t0
    sppm3 = pf.render_sppm(scene, heldout, pf.SppmConfig(iterations=3, photons_per_iter=50_000, seed=5002), threads=2)
    photons = pf.trace_photons(scene, 18_000, 16, pf.Rng(5003))
    field = pf.GaussianField.from_photons(photons, rng=pf.Rng(5004))
    dataset = build_dataset(scene, [orbit(az, 128) for az in (0.0, 120.0, 240.0)], ref_cfg, samples_per_pixel=1, threads=2)
    train(field, dataset, TrainConfig(learning_rate=2e-3, steps=2000, batch_size=2048, seed=5005))
    t0 = time.perf_counter()
    gpf_img = pf.render_gpf(scene, heldout, field, spp=4, seed=5006)
    t_gpf = time.perf_counter() - t0
    print(f"- render time per view: field {t_gpf:.2f} s (4 spp, one thread) against 256-iteration photon mapping "
          f"{t_sppm:.1f} s (50k photons per iteration, two threads): {t_sppm / t_gpf:.1f}x")
    print(f"- held-out PSNR: field {pf.psnr(reference, gpf_img):.2f} dB against 3-iteration photon mapping {pf.psnr(reference, sppm3):.2f} dB")
    print(f"- held-out SSIM: field {pf.ssim(reference, gpf_img):.3f} against 3-iteration photon mapping {pf.ssim(reference, sppm3):.3f}")
    print(f"- {len(field)} primitives, {len(dataset)} supervision samples")


if __name__ == "__main__":
    layers()
    caustic_bundle()
