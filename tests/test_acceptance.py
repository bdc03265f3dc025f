"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them live).

The heavy fixtures (the caustic-scene bundle and the box agreement run)
are shared across criteria and time themselves against their budgets.
Every run is fully seeded, so results reproduce bit for bit.
"""

import math
import time

import numpy as np
import pytest

import photonfield as pf
from oracles import linear_ball_query, linear_hybrid_query, linear_knn_query
from photonfield.field import GaussianField
from photonfield.integrators import SppmConfig, sppm_radius
from photonfield.scene import Camera
from photonfield.spatial import PointIndex
from photonfield.training import SampleSet, TrainConfig, build_dataset, train


def _report(name: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'} - {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _orbit_camera(az_deg: float, res: int) -> Camera:
    a = math.radians(az_deg)
    pos = np.array([1.25 * math.cos(a), 1.25 * math.sin(a), 0.5])
    return Camera(pos, np.array([0.0, 0.0, -0.4]), np.array([0.0, 0.0, 1.0]), 40.0, (res, res))


def _cornell_camera(dx: float, dz: float, res: int) -> Camera:
    return Camera(np.array([dx, -3.9, dz]), np.zeros(3), np.array([0.0, 0.0, 1.0]), 28.0, (res, res))


# ---------------------------------------------------------------------------
# criterion 1: analytic batch gradients vs central finite differences


def test_criterion_01_gradient_oracle():
    t_start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    stray = 0  # nonzero gradient entries of primitives outside every row
    configs = 0
    while configs < 100:
        n = int(rng.integers(20, 60))
        means = rng.uniform(-0.1, 0.1, (n, 3))
        quats = rng.normal(size=(n, 4))
        quats /= np.linalg.norm(quats, axis=1, keepdims=True)
        log_scales = np.log(rng.uniform(0.02, 0.25, (n, 3)))
        flux = rng.uniform(-1.0, 2.0, (n, 3))
        field = GaussianField(means, quats, log_scales, flux, radius=0.05, k_min=3)
        field.rebuild_index()
        # a batch of nearby points whose rows share primitives, as in training
        xs = rng.uniform(-0.07, 0.07, 3) + rng.uniform(-0.02, 0.02, (4, 3))
        dl = rng.normal(size=(4, 3))
        flat, splits = field._neighbors(xs)
        owner = np.repeat(np.arange(len(xs)), np.diff(splits))
        dists = np.linalg.norm(xs[owner] - field.means[flat], axis=1)
        if np.bincount(flat).max() < 2 or np.any(np.abs(dists - field.radius) < 1e-4):
            continue  # no shared primitive, or too near the falloff kink (non-smooth point)
        configs += 1
        grads = field.backward_scatter(xs, dl, flat, splits)
        touched = np.unique(flat)
        outside = np.setdiff1d(np.arange(n), touched)

        def objective():
            val, _, _ = field._forward(xs, flat, splits)
            return float(np.sum(dl * val))

        for block, attr in (("mean", "means"), ("quat", "quats"), ("log_scale", "log_scales"), ("flux", "flux")):
            stray += int(np.count_nonzero(grads[block][outside]))
            arr = getattr(field, attr)
            fd = np.zeros((len(touched), arr.shape[1]))
            for row, pid in enumerate(touched):
                for c in range(arr.shape[1]):
                    h = 1e-6 * max(1.0, abs(arr[pid, c]))
                    orig = arr[pid, c]
                    arr[pid, c] = orig + h
                    up = objective()
                    arr[pid, c] = orig - h
                    down = objective()
                    arr[pid, c] = orig
                    fd[row, c] = (up - down) / (2.0 * h)
            g = grads[block][touched]
            scale = max(np.abs(g).max(), np.abs(fd).max(), 1e-8)
            worst = max(worst, float(np.abs(g - fd).max() / scale))
    elapsed = time.perf_counter() - t_start
    _report(
        "criterion 1 (gradient oracle)",
        worst < 1e-4 and stray == 0 and elapsed < 10.0,
        f"worst per-block relative error {worst:.3e} (< 1e-4), {stray} nonzero gradients outside every row (0), "
        f"{configs} batches of 4 rows sharing primitives in {elapsed:.1f}s (< 10s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: spatial queries equal linear scans


def test_criterion_02_spatial_oracle():
    t_start = time.perf_counter()
    rng = np.random.default_rng(2002)
    pts = rng.uniform(-1.0, 1.0, (10_000, 3))
    index = PointIndex(pts)
    draws = []
    for _ in range(100):
        x = rng.uniform(-1.2, 1.2, 3)
        r = float(rng.uniform(0.0, 0.4))
        k = int(rng.integers(1, 16))
        k_min = int(rng.integers(0, 8))
        draws.append((x, r, k, k_min))
    xs = np.array([d[0] for d in draws])
    mismatches = 0
    # query i's row comes from a batch over all 100 points at query i's parameters
    for i, (x, r, k, k_min) in enumerate(draws):
        for (flat, splits), ref in (
            (index.ball_query_batch(xs, r), linear_ball_query(pts, x, r)[0]),
            (index.knn_query_batch(xs, k), linear_knn_query(pts, x, k)[0]),
            (index.hybrid_query_batch(xs, r, k_min), linear_hybrid_query(pts, x, r, k_min)),
        ):
            if not (len(splits) == len(xs) + 1 and np.array_equal(flat[splits[i]:splits[i + 1]], ref)):
                mismatches += 1
    elapsed = time.perf_counter() - t_start
    _report(
        "criterion 2 (spatial oracle)",
        mismatches == 0 and elapsed < 5.0,
        f"{mismatches} mismatches over 100 queries x 3 query kinds on 10^4 points, each row from a "
        f"100-point batch, in {elapsed:.1f}s (< 5s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: gather-radius schedule


def test_criterion_03_radius_schedule():
    r0, alpha = 0.02, 0.7
    j = np.arange(1, 10_001, dtype=np.float64)
    ratios = np.sqrt((j - 1.0 + alpha) / j)
    product_oracle = r0 * np.cumprod(ratios)
    # the recurrence array, evolved exactly as the implementation evolves it
    rec = np.empty(10_001)
    rec[0] = r0
    for t in range(1, 10_001):
        rec[t] = rec[t - 1] * math.sqrt((t - 1 + alpha) / t)
    abs_err = float(np.abs(rec[1:] - product_oracle).max())
    rel_err = float((np.abs(rec[1:] - product_oracle) / product_oracle).max())
    spot_ts = list(range(0, 101)) + [250, 1000, 5000, 10_000]
    spot_ok = all(sppm_radius(t, r0, alpha) == rec[t] for t in spot_ts)
    decreasing = bool(np.all(np.diff(rec) < 0.0))
    constant = all(abs(sppm_radius(t, r0, 1.0) - r0) < 1e-15 for t in (0, 1, 10, 1000))
    ok = abs_err < 1e-12 and rel_err < 1e-12 and spot_ok and decreasing and constant
    _report(
        "criterion 3 (radius schedule)",
        ok,
        f"|recurrence - product| max {abs_err:.2e} abs / {rel_err:.2e} rel over t<=1e4 (< 1e-12); "
        f"strictly decreasing at alpha=0.7: {decreasing}; constant at alpha=1: {constant}",
    )


# ---------------------------------------------------------------------------
# criterion 4: photon-mapped and path-traced renders agree on the box scene


@pytest.fixture(scope="module")
def box_agreement():
    scene = pf.builtin_scene("cornell-box")
    cam = scene.camera.with_resolution(64, 64)
    t_start = time.perf_counter()
    pt = pf.render_pt(scene, cam, spp=4096, max_depth=16, rng=4001, threads=2)
    errors = {4: [], 16: [], 64: []}
    sppm_means = []
    for seed in (4101, 4102, 4103):
        for t_count in (4, 16, 64):
            img = pf.render_sppm(scene, cam, SppmConfig(iterations=t_count, photons_per_iter=50_000, seed=seed), threads=2)
            errors[t_count].append(float(np.linalg.norm(img - pt) / np.linalg.norm(pt)))
        sppm_means.append(float(img.mean()))
    elapsed = time.perf_counter() - t_start
    return pt, sppm_means, errors, elapsed


def test_criterion_04_physical_agreement(box_agreement):
    pt, sppm_means, errors, elapsed = box_agreement
    mean_diff = abs(sppm_means[0] - float(pt.mean())) / float(pt.mean())
    avg = {t: float(np.mean(errors[t])) for t in (4, 16, 64)}
    monotone = avg[4] > avg[16] > avg[64]
    ok = mean_diff < 0.05 and monotone and elapsed < 600.0
    _report(
        "criterion 4 (physical agreement)",
        ok,
        f"mean-image relative difference {mean_diff:.4f} (< 0.05); seed-averaged relative L2 error "
        f"T=4:{avg[4]:.3f} > T=16:{avg[16]:.3f} > T=64:{avg[64]:.3f} ({monotone}); {elapsed:.0f}s (< 600s)",
    )


# ---------------------------------------------------------------------------
# criteria 5 and 10: held-out-view quality ordering and render speed


@pytest.fixture(scope="module")
def caustic_bundle():
    scene = pf.builtin_scene("caustic-sphere")
    train_cams = [_orbit_camera(az, 128) for az in (0.0, 120.0, 240.0)]
    heldout = _orbit_camera(60.0, 128)
    t_start = time.perf_counter()
    ref_cfg = SppmConfig(iterations=256, photons_per_iter=50_000, seed=5001)
    t0 = time.perf_counter()
    reference = pf.render_sppm(scene, heldout, ref_cfg, threads=2)
    t_sppm_256 = time.perf_counter() - t0
    sppm3 = pf.render_sppm(scene, heldout, SppmConfig(iterations=3, photons_per_iter=50_000, seed=5002), threads=2)
    photons = pf.trace_photons(scene, 18_000, 16, pf.Rng(5003))
    field = pf.GaussianField.from_photons(photons, rng=pf.Rng(5004))
    dataset = build_dataset(scene, train_cams, ref_cfg, samples_per_pixel=1, threads=2)
    log = train(field, dataset, TrainConfig(learning_rate=2e-3, steps=2000, batch_size=2048, seed=5005))
    t0 = time.perf_counter()
    gpf_img = pf.render_gpf(scene, heldout, field, spp=4, seed=5006)
    t_gpf = time.perf_counter() - t0
    elapsed = time.perf_counter() - t_start
    return {
        "reference": reference,
        "sppm3": sppm3,
        "gpf": gpf_img,
        "n_primitives": len(field),
        "log": log,
        "t_sppm_256": t_sppm_256,
        "t_gpf": t_gpf,
        "elapsed": elapsed,
    }


def test_criterion_05_caustic_ordering(caustic_bundle):
    b = caustic_bundle
    psnr_gpf = pf.psnr(b["reference"], b["gpf"])
    psnr_s3 = pf.psnr(b["reference"], b["sppm3"])
    ssim_gpf = pf.ssim(b["reference"], b["gpf"])
    ssim_s3 = pf.ssim(b["reference"], b["sppm3"])
    prim_ok = 8_000 <= b["n_primitives"] <= 12_000
    ok = psnr_gpf > psnr_s3 and ssim_gpf > ssim_s3 and prim_ok and b["elapsed"] < 1800.0
    _report(
        "criterion 5 (held-out caustic ordering)",
        ok,
        f"held-out view: field PSNR {psnr_gpf:.2f} > {psnr_s3:.2f} and SSIM {ssim_gpf:.4f} > {ssim_s3:.4f} "
        f"vs 3-iteration photon mapping; {b['n_primitives']} primitives (~10k); {b['elapsed']:.0f}s (< 1800s)",
    )


# ---------------------------------------------------------------------------
# criterion 6: training progress on the box fixture


def test_criterion_06_training_progress():
    scene = pf.builtin_scene("cornell-box")
    cams = [_cornell_camera(0.0, 0.0, 64), _cornell_camera(0.5, 0.25, 64), _cornell_camera(-0.5, -0.2, 64)]
    cfg = SppmConfig(iterations=32, photons_per_iter=50_000, seed=6001)
    dataset = build_dataset(scene, cams, cfg, samples_per_pixel=1, threads=2)
    photons = pf.trace_photons(scene, 4200, 16, pf.Rng(6002))
    field = pf.GaussianField.from_photons(photons, rng=pf.Rng(6003))
    log = train(field, dataset, TrainConfig(steps=2000, batch_size=4096, seed=6004))
    ratio = log.final_full_loss / log.initial_full_loss
    ma = np.convolve(log.losses, np.ones(100) / 100.0, mode="valid")
    worst_rise = float(np.max(ma[1:] / np.minimum.accumulate(ma)[:-1]))
    ok = ratio <= 0.10 and worst_rise <= 1.05
    _report(
        "criterion 6 (training progress)",
        ok,
        f"loss {log.initial_full_loss:.4f} -> {log.final_full_loss:.4f} "
        f"(ratio {ratio:.3f} <= 0.10) in 2000 steps; 100-step moving average worst rise "
        f"{worst_rise:.4f} (<= 1.05)",
    )


# ---------------------------------------------------------------------------
# criterion 7: trivial-field exactness


def test_criterion_07_trivial_field_exactness():
    flux = np.array([0.123, 4.5, 0.00789])
    single = GaussianField(
        np.array([[0.1, 0.2, 0.3]]), np.array([[1.0, 0.0, 0.0, 0.0]]),
        np.log(np.full((1, 3), 0.01)), flux[None, :],
    )
    single.ensure_index()
    got_single = single.query_batch(np.array([[0.1, 0.2, 0.3]]))[0]
    single_exact = bool(np.array_equal(got_single, flux))

    x = np.array([0.05, -0.02, 0.0])
    fa = np.array([0.25, 1.5, -0.75])
    fb = np.array([2.0, 0.125, 0.5])
    pair = GaussianField(
        np.vstack([x, x]), np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)),
        np.log(np.full((2, 3), 0.01)), np.vstack([fa, fb]),
    )
    pair.ensure_index()
    got_pair = pair.query_batch(x[None])[0]
    pair_exact = bool(np.array_equal(got_pair, (fa + fb) / 2.0))
    _report(
        "criterion 7 (trivial-field exactness)",
        single_exact and pair_exact,
        f"single primitive returns its flux exactly: {single_exact}; "
        f"two equidistant primitives return the exact average: {pair_exact}",
    )


# ---------------------------------------------------------------------------
# criterion 8: CLI determinism across runs and thread counts


def test_criterion_08_cli_determinism(tmp_path):
    from photonfield.cli import main

    outs = {}
    commands = {
        "render-sppm": lambda out, thr: [
            "render-sppm", "--scene", "builtin:cornell-box", "--iterations", "2", "--photons", "2000",
            "--out", out, "--seed", "7", "--resolution", "12", "12", "--threads", thr,
        ],
        "render-pt": lambda out, thr: [
            "render-pt", "--scene", "builtin:cornell-box", "--spp", "6", "--max-depth", "5",
            "--out", out, "--seed", "7", "--resolution", "10", "10", "--threads", thr,
        ],
    }
    ckpt = tmp_path / "f.gpf"
    assert main(["gpf-init", "--scene", "builtin:cornell-box", "--photons", "1500",
                 "--out-checkpoint", str(ckpt), "--seed", "7"]) == 0
    commands["gpf-render"] = lambda out, thr: [
        "gpf-render", "--scene", "builtin:cornell-box", "--checkpoint", str(ckpt), "--spp", "2",
        "--out", out, "--seed", "7", "--resolution", "12", "12", "--threads", thr,
    ]
    all_equal = True
    for name, argv in commands.items():
        blobs = []
        for tag, thr in (("a", "1"), ("b", "1"), ("c", "2")):
            out = str(tmp_path / f"{name}-{tag}.pfm")
            assert main(argv(out, thr)) == 0
            blobs.append(open(out, "rb").read())
        equal = blobs[0] == blobs[1] == blobs[2]
        outs[name] = equal
        all_equal &= equal
    _report(
        "criterion 8 (CLI determinism)",
        all_equal,
        f"byte-identical PFMs across reruns and --threads 1/2: {outs}",
    )


# ---------------------------------------------------------------------------
# criterion 9: serialization round trips


def test_criterion_09_serialization(tmp_path):
    from photonfield.cli import main

    # field checkpoint: save -> load -> save is byte stable
    photons = pf.trace_photons(pf.builtin_scene("cornell-box"), 2000, 16, pf.Rng(9001))
    field = pf.GaussianField.from_photons(photons, rng=pf.Rng(9002))
    p1, p2 = tmp_path / "a.gpf", tmp_path / "b.gpf"
    field.save(p1)
    GaussianField.load(p1).save(p2)
    field_ok = p1.read_bytes() == p2.read_bytes()

    # dataset: save -> load -> save is byte stable
    rng = np.random.default_rng(9003)
    ds = SampleSet(rng.normal(size=(64, 3)), rng.normal(size=(64, 3)))
    d1, d2 = tmp_path / "a.gpd", tmp_path / "b.gpd"
    ds.save(d1)
    SampleSet.load(d1).save(d2)
    dataset_ok = d1.read_bytes() == d2.read_bytes()

    # a checkpoint written by training renders identically after reload
    views = tmp_path / "views.json"
    views.write_text(
        '[{"position": [0.0, -3.9, 0.0], "look_at": [0.0, 0.0, 0.0], "up": [0.0, 0.0, 1.0], '
        '"vfov": 28.0, "resolution": [12, 12]}]'
    )
    trained = tmp_path / "trained.gpf"
    assert main([
        "gpf-train", "--scene", "builtin:cornell-box", "--views", str(views),
        "--sppm-iterations", "2", "--sppm-photons", "2000", "--steps", "15", "--batch", "32",
        "--photons", "1500", "--out-checkpoint", str(trained), "--seed", "9",
    ]) == 0
    render_a, render_b = tmp_path / "ra.pfm", tmp_path / "rb.pfm"
    for out in (render_a, render_b):
        assert main([
            "gpf-render", "--scene", "builtin:cornell-box", "--checkpoint", str(trained),
            "--out", str(out), "--seed", "10", "--resolution", "12", "12",
        ]) == 0
    render_ok = render_a.read_bytes() == render_b.read_bytes()
    _report(
        "criterion 9 (serialization)",
        field_ok and dataset_ok and render_ok,
        f"field checkpoint stable: {field_ok}; dataset stable: {dataset_ok}; "
        f"trained checkpoint renders identically after reload: {render_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 10: render-speed ordering (reuses the caustic bundle)


def test_criterion_10_speed_ordering(caustic_bundle):
    b = caustic_bundle
    ratio = b["t_sppm_256"] / b["t_gpf"]
    ok = ratio >= 10.0
    _report(
        "criterion 10 (speed ordering)",
        ok,
        f"field render {b['t_gpf']:.2f}s vs 256-iteration photon mapping {b['t_sppm_256']:.1f}s "
        f"at the same novel view: {ratio:.1f}x (>= 10x)",
    )
