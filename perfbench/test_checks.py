"""Each output check passes on the program's real output and fails on a
deliberately corrupted copy.

    python3 -m pytest -q perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import photonfield as pf  # noqa: E402
from photonfield import integrators  # noqa: E402

import checks  # noqa: E402


@pytest.fixture(scope="module")
def cornell():
    return pf.builtin_scene("cornell-box")


@pytest.fixture(scope="module")
def pool_pass():
    scene = pf.builtin_scene("caustic-pool")
    cfg = pf.SppmConfig(iterations=1, photons_per_iter=3000, seed=11)
    photons, index = integrators._photon_pass(scene, cfg, 0)
    cam = scene.camera.with_resolution(24, 24)
    _, keys, ctrs, o, d = integrators._camera_rays(cam, cfg.seed, 0)
    fd = integrators.trace_to_first_diffuse(scene, o, d, keys, ctrs)
    rows = np.nonzero(fd.found)[0][:64]
    return scene, photons, index, fd, rows


@pytest.fixture(scope="module")
def small_field():
    scene = pf.builtin_scene("caustic-sphere")
    photons = pf.trace_photons(scene, 800, 16, pf.Rng(3))
    field = pf.GaussianField.from_photons(photons, rng=pf.Rng(4))
    rng = np.random.default_rng(5)
    field.flux = field.flux * rng.uniform(0.5, 1.5, field.flux.shape)
    field.log_scales = field.log_scales + rng.uniform(0.0, 1.0, field.log_scales.shape)
    field.rebuild_index()
    return field


def test_image_rejects_negative_and_nan_pixels(cornell):
    img = pf.render_pt(cornell, cornell.camera.with_resolution(8, 8), 1, rng=1)
    assert checks.image(img, "pt") == []
    bad = img.copy()
    bad[3, 4, 1] = -1e-6
    assert checks.image(bad, "pt")
    bad[3, 4, 1] = np.nan
    assert checks.image(bad, "pt")


def test_mean_agreement_rejects_a_scaled_image():
    img = np.full((4, 4, 3), 0.5)
    assert checks.mean_agreement(img, 0.51, 0.05, "pt") == []
    assert checks.mean_agreement(img * 1.06, 0.5, 0.05, "pt")


def _cornell_rays(scene, n=300):
    rng = np.random.default_rng(2)
    o = rng.uniform(-0.9, 0.9, (n, 3))
    d = rng.normal(size=(n, 3))
    return o, d / np.linalg.norm(d, axis=1, keepdims=True)


def test_nearest_hits_reject_wrong_t_and_wrong_primitive(cornell):
    o, d = _cornell_rays(cornell)
    t, prim = cornell.geometry.intersect(o, d)
    prims = checks.primitives(cornell)
    assert checks.nearest_hits(prims, o, d, t, prim) == []
    t_bad = t.copy()
    t_bad[7] += 1e-6
    assert checks.nearest_hits(prims, o, d, t_bad, prim)
    p_bad = prim.copy()
    p_bad[7] = (prim[7] + 1) % len(prims)
    assert checks.nearest_hits(prims, o, d, t, p_bad)


def test_photon_check_rejects_a_lifted_photon_and_negative_flux(pool_pass):
    scene, photons, _, _, _ = pool_pass
    prims = checks.primitives(scene)
    diffuse = checks.diffuse_flags(scene)
    assert checks.photons_on_diffuse(prims, diffuse, photons.positions, photons.flux) == []
    pos = photons.positions.copy()
    pos[5, 2] += 1e-3
    assert checks.photons_on_diffuse(prims, diffuse, pos, photons.flux)
    flux = photons.flux.copy()
    flux[9, 0] = -flux[9, 0]
    assert checks.photons_on_diffuse(prims, diffuse, photons.positions, flux)


def test_ball_rows_reject_a_dropped_or_reordered_neighbour(pool_pass):
    _, photons, index, fd, rows = pool_pass
    x = fd.position[rows]
    r = 0.05
    flat, splits = index.ball_query_batch(x, r)
    assert checks.ball_rows(photons.positions, x, r, flat, splits) == []
    i = int(np.argmax(np.diff(splits)))
    assert splits[i + 1] - splits[i] >= 2
    dropped = np.delete(flat, splits[i])
    dropped_splits = splits.copy()
    dropped_splits[i + 1:] -= 1
    assert checks.ball_rows(photons.positions, x, r, dropped, dropped_splits)
    swapped = flat.copy()
    swapped[splits[i]], swapped[splits[i] + 1] = flat[splits[i] + 1], flat[splits[i]]
    assert checks.ball_rows(photons.positions, x, r, swapped, splits)


def test_kde_rejects_a_perturbed_estimate(pool_pass):
    _, photons, index, fd, rows = pool_pass
    args = (fd.position[rows], fd.normal[rows], fd.wo[rows], fd.albedo[rows], 0.05)
    got = integrators.kde_gather_batch(index, photons, *args)
    assert np.count_nonzero(got[:, 0]) > 0
    ref = (photons.positions, photons.flux, photons.incident)
    assert checks.kde_values(*ref, *args, got) == []
    bad = got.copy()
    k = int(np.argmax(got[:, 0]))
    bad[k, 0] *= 1.0 + 1e-9
    assert checks.kde_values(*ref, *args, bad)


def test_field_query_rejects_a_dropped_neighbour(small_field):
    f = small_field
    rng = np.random.default_rng(6)
    xs = f.means[rng.choice(len(f), 40, replace=False)] + rng.normal(scale=0.01, size=(40, 3))
    args = (f.means, f.quats, f.log_scales, f.flux, f.radius, f.k_min, f.eps, xs)
    assert checks.field_query(*args, f.query_batch(xs)) == []
    flat, splits = pf.PointIndex(f.means).hybrid_query_batch(xs, f.radius, f.k_min)
    i = int(np.argmax(np.diff(splits)))
    dropped = np.delete(flat, splits[i])
    dropped_splits = splits.copy()
    dropped_splits[i + 1:] -= 1
    values, _ = checks.field_radiance(f.means, f.quats, f.log_scales, f.flux, f.radius, f.eps, xs, dropped, dropped_splits)
    assert checks.field_query(*args, values)


def test_gradients_reject_a_flipped_sign(small_field):
    f = small_field
    rng = np.random.default_rng(7)
    xs = f.means[rng.choice(len(f), 16, replace=False)] + rng.normal(scale=0.005, size=(16, 3))
    flat, splits = pf.PointIndex(f.means).hybrid_query_batch(xs, f.radius, f.k_min)
    dl = rng.normal(size=(16, 3))
    grads = f.backward_scatter(xs, dl, flat, splits)
    params = {"mean": f.means, "quat": f.quats, "log_scale": f.log_scales, "flux": f.flux}
    args = (params, f.radius, f.eps, xs, dl, flat, splits)
    assert checks.gradients(*args, grads, np.random.default_rng(8)) == []
    for block in grads:
        flipped = dict(grads, **{block: -grads[block]})
        assert checks.gradients(*args, flipped, np.random.default_rng(8)), block


def test_training_check_rejects_nan_and_rising_loss():
    losses = np.array([1.0, 0.9, 0.8])
    assert checks.training(losses, 1.0, 0.8) == []
    assert checks.training(np.array([1.0, np.nan, 0.8]), 1.0, 0.8)
    assert checks.training(losses, 1.0, 1.0)


def test_byte_stability_rejects_a_flipped_byte(small_field, tmp_path):
    small_field.save(tmp_path / "a.gpf")
    pf.GaussianField.load(tmp_path / "a.gpf").save(tmp_path / "b.gpf")
    a, b = (tmp_path / "a.gpf").read_bytes(), (tmp_path / "b.gpf").read_bytes()
    assert checks.byte_stable(a, b) == []
    flipped = bytearray(b)
    flipped[20] ^= 1
    assert checks.byte_stable(a, bytes(flipped))
