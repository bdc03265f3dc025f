"""Dataset construction and field optimization."""

import numpy as np
import pytest

from photonfield import core
from photonfield.core import Rng
from photonfield.field import SCALE_MAX, SCALE_MIN, GaussianField
from photonfield.integrators import SppmConfig, _camera_rays, trace_to_first_diffuse
from photonfield.photons import trace_photons
from photonfield.scene import builtin_scene, scene_from_dict
from photonfield.training import (
    _TAG_BATCH,
    SampleSet,
    TrainConfig,
    _Adam,
    build_dataset,
    camera_seed,
    dataset_loss,
    train,
)


def _fast_cfg(seed=0, iterations=2, photons=5000):
    return SppmConfig(iterations=iterations, photons_per_iter=photons, seed=seed)


class TestBuildDataset:
    def test_cornell_views_yield_diffuse_samples(self):
        scene = builtin_scene("cornell-box")
        cams = [scene.camera.with_resolution(24, 24)]
        ds = build_dataset(scene, cams, _fast_cfg())
        assert 1 <= len(ds) <= 24 * 24
        # every sample sits on scene geometry with a diffuse response
        assert np.all(ds.extras["albedo"].max(axis=1) > 0.0)
        assert np.all(np.isfinite(ds.l_ref))

    def test_all_mirror_scene_yields_no_samples(self):
        scene = scene_from_dict(
            {
                "camera": {"position": [0, 0, 2], "look_at": [0, 0, 0], "up": [0, 1, 0], "vfov": 40.0,
                           "resolution": [8, 8]},
                "materials": {
                    "mirror": {"type": "mirror", "reflectance": [0.9, 0.9, 0.9]},
                    "lamp": {"type": "mirror", "reflectance": [0, 0, 0]},
                },
                "shapes": [
                    {"type": "quad", "corner": [-1, -1, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0],
                     "material": "mirror"},
                    {"type": "quad", "corner": [-0.2, -0.2, 1.5], "edge_u": [0, 0.4, 0], "edge_v": [0.4, 0, 0],
                     "material": "lamp", "emission": [5, 5, 5]},
                ],
            }
        )
        with pytest.raises(ValueError, match="no diffuse surface visible"):
            build_dataset(scene, [scene.camera], _fast_cfg())

    def test_samples_behind_glass_have_delta_prefix_and_land_on_floor(self):
        scene = builtin_scene("caustic-sphere")
        # look straight through the sphere from above
        cam = scene.camera.with_resolution(16, 16)
        cam = type(cam)(
            position=np.array([0.0, 0.0, 0.9]),
            look_at=np.array([0.0, 0.0, -0.5]),
            up=np.array([0.0, 1.0, 0.0]),
            vfov=30.0,
            resolution=(16, 16),
        )
        ds = build_dataset(scene, [cam], _fast_cfg(photons=2000))
        through_glass = ds.extras["n_delta"] >= 2
        assert np.any(through_glass)
        np.testing.assert_allclose(ds.position[through_glass][:, 2], -0.5, atol=1e-6)

    def test_dataset_paths_match_rendering_with_derived_seed(self):
        scene = builtin_scene("cornell-box")
        cam = scene.camera.with_resolution(12, 12)
        cfg = _fast_cfg(seed=3)
        ds = build_dataset(scene, [cam], cfg, samples_per_pixel=2)
        seed = camera_seed(cfg.seed, 0)
        for s in (0, 1):
            pixel_ids, keys, ctrs, o, d = _camera_rays(cam, seed, s)
            fd = trace_to_first_diffuse(scene, o, d, keys, ctrs)
            mask = (ds.extras["sample_index"] == s)
            rows = np.nonzero(fd.found)[0]
            np.testing.assert_array_equal(ds.extras["pixel"][mask], pixel_ids[rows])
            np.testing.assert_array_equal(ds.position[mask], fd.position[rows])


class TestDatasetFile:
    def test_round_trip_is_bit_exact_at_float32(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = SampleSet(rng.normal(size=(50, 3)), rng.normal(size=(50, 3)), rng.normal(size=(50, 3)))
        p1 = tmp_path / "a.gpd"
        p2 = tmp_path / "b.gpd"
        ds.save(p1)
        loaded = SampleSet.load(p1)
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert len(loaded) == 50

    def test_file_layout(self, tmp_path):
        ds = SampleSet(np.array([[1.0, 2.0, 3.0]]), np.array([[0.0, 0.0, 1.0]]), np.array([[7.0, 8.0, 9.0]]))
        path = tmp_path / "one.gpd"
        ds.save(path)
        blob = path.read_bytes()
        assert blob[:4] == b"GPD1"
        assert int.from_bytes(blob[4:8], "little") == 1
        vals = np.frombuffer(blob[8:], dtype="<f4")
        np.testing.assert_allclose(vals, [1, 2, 3, 0, 0, 1, 7, 8, 9])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.gpd"
        path.write_bytes(b"WAT?" + b"\x00" * 8)
        with pytest.raises(ValueError, match="magic"):
            SampleSet.load(path)


class TestTrain:
    def test_fixed_point_keeps_loss_zero_and_parameters_fixed(self):
        rng = np.random.default_rng(1)
        n = 30
        means = rng.uniform(-0.05, 0.05, (n, 3))
        q = rng.normal(size=(n, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        field = GaussianField(means, q, np.log(np.full((n, 3), 0.02)), rng.uniform(0, 1, (n, 3)))
        field.rebuild_index()
        xs = rng.uniform(-0.04, 0.04, (40, 3))
        targets = field.query_batch(xs)
        ds = SampleSet(xs, np.tile([0.0, 0.0, 1.0], (40, 1)), targets)
        before = {k: getattr(field, k).copy() for k in ("means", "quats", "log_scales", "flux")}
        log = train(field, ds, TrainConfig(steps=50, batch_size=16, rebuild_every=10, seed=2))
        assert np.all(log.losses <= 1e-15)
        for k, v in before.items():
            np.testing.assert_allclose(getattr(field, k), v, atol=5e-4 * 1e-4)

    def test_single_primitive_converges_to_target(self):
        field = GaussianField(
            np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0, 0.0]]), np.log(np.full((1, 3), 0.01)), np.zeros((1, 3))
        )
        ds = SampleSet(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]), np.ones((1, 3)))
        log = train(field, ds, TrainConfig(steps=5000, batch_size=4, seed=0))
        assert np.all(np.abs(field.flux[0] - 1.0) < 1e-3)
        # loss is non-increasing in the smoothed sense and ends tiny
        assert log.final_full_loss < 1e-5
        assert log.losses[-1] < log.losses[0]

    def test_training_is_bit_reproducible(self):
        scene = builtin_scene("cornell-box")
        photons = trace_photons(scene, 2000, 16, Rng(1))
        cams = [scene.camera.with_resolution(16, 16)]
        ds = build_dataset(scene, cams, _fast_cfg(seed=7))
        cfg = TrainConfig(steps=40, batch_size=64, rebuild_every=10, seed=3)
        a = GaussianField.from_photons(photons, rng=Rng(2))
        log_a = train(a, ds, cfg)
        b = GaussianField.from_photons(photons, rng=Rng(2))
        log_b = train(b, ds, cfg)
        np.testing.assert_array_equal(log_a.losses, log_b.losses)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.flux, b.flux)
        np.testing.assert_array_equal(a.quats, b.quats)

    def test_non_finite_target_aborts_with_diagnostics(self):
        field = GaussianField(
            np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0, 0.0]]), np.log(np.full((1, 3), 0.01)), np.zeros((1, 3))
        )
        bad = SampleSet(np.zeros((2, 3)), np.tile([0.0, 0.0, 1.0], (2, 1)), np.array([[1.0, 1.0, 1.0], [np.inf, 1.0, 1.0]]))
        with pytest.raises(RuntimeError, match="non-finite loss at step"):
            train(field, bad, TrainConfig(steps=5, batch_size=8, seed=0))

    def test_empty_dataset_rejected(self):
        field = GaussianField(
            np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0, 0.0]]), np.log(np.full((1, 3), 0.01)), np.zeros((1, 3))
        )
        empty = SampleSet(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError, match="empty"):
            train(field, empty, TrainConfig(steps=1, batch_size=1, seed=0))

    def test_scales_stay_clamped_and_quaternions_unit(self):
        scene = builtin_scene("cornell-box")
        photons = trace_photons(scene, 1000, 16, Rng(4))
        cams = [scene.camera.with_resolution(12, 12)]
        ds = build_dataset(scene, cams, _fast_cfg(seed=8))
        field = GaussianField.from_photons(photons, rng=Rng(5))
        train(field, ds, TrainConfig(steps=60, batch_size=64, rebuild_every=20, seed=6))
        assert np.all(field.scales >= 1e-5 - 1e-12)
        assert np.all(field.scales <= 10.0 + 1e-12)
        np.testing.assert_allclose(np.linalg.norm(field.quats, axis=1), 1.0, atol=1e-12)

    def test_render_reproduces_final_training_loss(self):
        # querying the trained field at the recorded hits along the same
        # camera paths reproduces the full-dataset loss exactly: rendering
        # and training share one code path
        scene = builtin_scene("cornell-box")
        cam = scene.camera.with_resolution(16, 16)
        cfg = _fast_cfg(seed=9)
        ds = build_dataset(scene, [cam], cfg)
        photons = trace_photons(scene, 3000, 16, Rng(10))
        field = GaussianField.from_photons(photons, rng=Rng(11))
        log = train(field, ds, TrainConfig(steps=30, batch_size=64, rebuild_every=10, seed=12))

        seed = camera_seed(cfg.seed, 0)
        pixel_ids, keys, ctrs, o, d = _camera_rays(cam, seed, 0)
        fd = trace_to_first_diffuse(scene, o, d, keys, ctrs)
        rows = np.nonzero(fd.found)[0]
        field.ensure_index()
        pred = field.query_batch(fd.position[rows])
        resid = pred - ds.l_ref
        loss = float(np.mean(np.sum(resid * resid, axis=1)))
        assert abs(loss - log.final_full_loss) < 1e-9


def _train_querying_every_batch(field, dataset, cfg):
    """Reference loop: the same draws and Adam updates as ``train``, but
    every minibatch queries its neighborhoods afresh."""
    n = len(dataset)
    opt = {
        name: _Adam(getattr(field, attr).shape, cfg.beta1, cfg.beta2, cfg.adam_eps)
        for name, attr in (("mean", "means"), ("quat", "quats"), ("log_scale", "log_scales"), ("flux", "flux"))
    }
    batch_key = core.fold_key(core.seed_key(cfg.seed), _TAG_BATCH)
    field.rebuild_index()
    initial_full = dataset_loss(field, dataset)
    losses = np.zeros(cfg.steps)
    for step in range(cfg.steps):
        if step % cfg.rebuild_every == 0:
            field.rebuild_index()
        u = core.draw_unit(core.fold_key(batch_key, step), np.arange(cfg.batch_size, dtype=np.uint64))
        idx = np.minimum((u * n).astype(np.intp), n - 1)
        xs = dataset.position[idx]
        flat, splits = field._neighbors(xs)
        pred, _, _ = field._forward(xs, flat, splits)
        resid = pred - dataset.l_ref[idx]
        losses[step] = float(np.sum(resid * resid, axis=1).mean())
        grads = field.backward_scatter(xs, (2.0 / cfg.batch_size) * resid, flat, splits)
        field.means -= opt["mean"].step(grads["mean"], cfg.learning_rate)
        quat_step = opt["quat"].step(grads["quat"], cfg.learning_rate)
        field.quats -= quat_step
        moved = np.any(quat_step != 0.0, axis=1)
        if np.any(moved):
            field.quats[moved] /= np.linalg.norm(field.quats[moved], axis=1, keepdims=True)
        field.log_scales -= opt["log_scale"].step(grads["log_scale"], cfg.learning_rate)
        field.flux -= opt["flux"].step(grads["flux"], cfg.learning_rate)
        np.clip(field.log_scales, np.log(SCALE_MIN), np.log(SCALE_MAX), out=field.log_scales)
        field.mark_updated()
    field.rebuild_index()
    return losses, initial_full, dataset_loss(field, dataset)


class TestNeighborhoodsPerRebuild:
    @pytest.fixture(scope="class")
    def setup(self):
        scene = builtin_scene("cornell-box")
        photons = trace_photons(scene, 1500, 16, Rng(13))
        ds = build_dataset(scene, [scene.camera.with_resolution(12, 12)], _fast_cfg(seed=14))
        return photons, ds

    def test_matches_fresh_queries_per_batch(self, setup):
        photons, ds = setup
        # draws repeat within a batch and across a period; 25 steps leave a
        # short last period
        cfg = TrainConfig(learning_rate=2e-3, steps=25, batch_size=2 * len(ds), rebuild_every=10, seed=15)
        a = GaussianField.from_photons(photons, rng=Rng(16))
        log = train(a, ds, cfg)
        b = GaussianField.from_photons(photons, rng=Rng(16))
        losses, initial_full, final_full = _train_querying_every_batch(b, ds, cfg)
        np.testing.assert_array_equal(log.losses, losses)
        assert log.initial_full_loss == initial_full
        assert log.final_full_loss == final_full
        for attr in ("means", "quats", "log_scales", "flux"):
            np.testing.assert_array_equal(getattr(a, attr), getattr(b, attr))
        assert np.any(a.means != GaussianField.from_photons(photons, rng=Rng(16)).means)

    @pytest.mark.parametrize("steps,rebuild_every", [(20, 100), (20, 20), (21, 20), (45, 10)])
    def test_index_rebuilt_once_per_period(self, setup, monkeypatch, steps, rebuild_every):
        photons, ds = setup
        calls = []
        rebuild = GaussianField.rebuild_index

        def counting_rebuild(field):
            calls.append(field.version)
            rebuild(field)

        monkeypatch.setattr(GaussianField, "rebuild_index", counting_rebuild)
        field = GaussianField.from_photons(photons, rng=Rng(17))
        train(field, ds, TrainConfig(steps=steps, batch_size=8, rebuild_every=rebuild_every, seed=18))
        assert len(calls) == 2 + (steps - 1) // rebuild_every
        # the first build serves step 0; later ones follow a parameter move
        assert calls == [0] + [s for s in range(rebuild_every, steps, rebuild_every)] + [steps]


class TestDatasetLoss:
    def test_chunked_loss_matches_direct_computation(self):
        rng = np.random.default_rng(2)
        field = GaussianField(
            rng.uniform(-0.05, 0.05, (20, 3)),
            np.tile([1.0, 0.0, 0.0, 0.0], (20, 1)),
            np.log(np.full((20, 3), 0.02)),
            rng.uniform(0, 1, (20, 3)),
        )
        xs = rng.uniform(-0.05, 0.05, (100, 3))
        ds = SampleSet(xs, np.tile([0.0, 0.0, 1.0], (100, 1)), rng.uniform(0, 1, (100, 3)))
        total = dataset_loss(field, ds, chunk=7)
        field.ensure_index()
        pred = field.query_batch(xs)
        direct = float(np.mean(np.sum((pred - ds.l_ref) ** 2, axis=1)))
        assert total == pytest.approx(direct, rel=1e-12)
