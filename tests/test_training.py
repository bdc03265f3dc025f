"""Dataset construction and field optimization."""

import ctypes
import dataclasses
import shutil
import subprocess

import numpy as np
import pytest

import oracles
from photonfield import core, geometry
from photonfield.core import Rng
from photonfield.field import GRADIENT_WIDTHS, SCALE_MAX, SCALE_MIN, GaussianField, gradient_buffers
from photonfield.integrators import SppmConfig, _camera_rays, trace_to_first_diffuse
from photonfield.photons import trace_photons
from photonfield.scene import builtin_scene, scene_from_dict
from photonfield.spatial import PointIndex
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

    @staticmethod
    def _dataset_file(tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "d.gpd"
        SampleSet(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4, 3))).save(path)
        return path

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self._dataset_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00" * 36)
        with pytest.raises(ValueError, match="36 bytes after its 4 rows"):
            SampleSet.load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = self._dataset_file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.array([value], dtype="<f4").tobytes()  # last reference radiance
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="non-finite"):
            SampleSet.load(path)

    @pytest.mark.parametrize("count", [5, 2**32 - 1])
    def test_count_beyond_payload_rejected(self, tmp_path, count):
        path = self._dataset_file(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + count.to_bytes(4, "little") + blob[8:])
        with pytest.raises(ValueError, match="truncated"):
            SampleSet.load(path)

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


class TestTrainConfig:
    @pytest.mark.parametrize(("name", "value"), [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("learning_rate", 0.0),
        ("adam_eps", float("nan")), ("adam_eps", float("inf")), ("adam_eps", -1e-8),
        ("beta1", 0.0), ("beta1", 1.0), ("beta1", float("nan")), ("beta2", 1.5), ("beta2", 1.0), ("beta2", -0.1),
        ("steps", 0), ("batch_size", -1), ("rebuild_every", 0), ("steps", float("nan")),
    ])
    def test_values_that_cannot_train_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_defaults_and_extremes_inside_the_ranges_accepted(self):
        TrainConfig()
        TrainConfig(learning_rate=1e300, adam_eps=5e-324, beta1=5e-324, beta2=1.0 - 2**-53)

    def test_checked_values_cannot_be_changed_afterwards(self):
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.learning_rate = float("nan")


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _adam_pair(field, cfg):
    """The compiled step on ``field`` and the numpy oracle on a copy; returns
    ``(compiled, its gradient buffers, oracle field, oracle optimizers)``."""
    twin = GaussianField(field.means.copy(), field.quats.copy(), field.log_scales.copy(), field.flux.copy())
    grads = gradient_buffers(len(field))
    return _Adam(field, grads, cfg), grads, twin, oracles.adam_optimizers(twin, cfg)


def _assert_adam_matches_oracle(field, cfg, grad_steps):
    """Run one compiled and one numpy Adam step per gradient dict of
    ``grad_steps`` and compare parameters and moments byte for byte."""
    opt, grads, twin, oracle = _adam_pair(field, cfg)
    for step in grad_steps:
        for key in grads:
            grads[key][:] = step[key]
        opt.step()
        oracles.adam_update(twin, oracle, step, cfg.learning_rate)
        for attr in ("means", "quats", "log_scales", "flux"):
            assert _same_bits(getattr(field, attr), getattr(twin, attr)), attr
        assert _same_bits(opt.m, np.concatenate([oracle[key].m.ravel() for key in grads]))
        assert _same_bits(opt.v, np.concatenate([oracle[key].v.ravel() for key in grads]))


def _random_adam_field(rng, n):
    """Parameters whose quaternions are off unit length, so a renorm shows."""
    return GaussianField(
        rng.normal(size=(n, 3)), rng.normal(size=(n, 4)) * 1.3, rng.uniform(-6.0, -2.0, (n, 3)), rng.normal(size=(n, 3))
    )


def _random_grads(rng, n, touched):
    return {key: rng.normal(size=(n, w)) * 10.0 ** rng.integers(-6, 3, (n, 1)) * touched[:, None]
            for key, w in GRADIENT_WIDTHS.items()}


class TestCompiledAdamStep:
    """``pf_adam_step`` against the numpy Adam and update it replaced (``tests/oracles.py``)."""

    def test_random_steps_leave_untouched_rows_bit_identical(self):
        rng = np.random.default_rng(40)
        n = 61  # odd, so each block also ends in an element outside the SSE2 pairs
        field = _random_adam_field(rng, n)
        before = {attr: getattr(field, attr).copy() for attr in ("means", "quats", "log_scales", "flux")}
        never = np.zeros(n, dtype=bool)
        never[rng.choice(n, 15, replace=False)] = True
        steps = [_random_grads(rng, n, ~never & (rng.random(n) < 0.7)) for _ in range(6)]
        _assert_adam_matches_oracle(field, TrainConfig(learning_rate=2e-2), steps)
        for attr, was in before.items():
            assert _same_bits(getattr(field, attr)[never], was[never]), attr
            assert np.all(getattr(field, attr)[~never] != was[~never]), attr
        # moved quaternions are renormalized, untouched ones are not
        norms = np.linalg.norm(field.quats, axis=1)
        assert np.all(np.abs(norms[~never] - 1.0) < 1e-15) and np.all(np.abs(norms[never] - 1.0) > 1e-3)

    def test_negative_zeros_and_steps_that_underflow_to_zero(self):
        # with beta1 = 0.3 a first moment of -5e-324 decays to -0.0, and a
        # -0.0 moment gives a -0.0 step, which turns a -0.0 parameter into +0.0
        tiny = 5e-324
        n = 8
        field = GaussianField(
            np.full((n, 3), -0.0), np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)) * 1.1, np.full((n, 3), -3.0),
            np.where(np.arange(3 * n).reshape(n, 3) % 2, 0.0, -0.0),
        )
        vals = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -2.0])
        rng = np.random.default_rng(41)
        steps = [{key: vals[rng.integers(0, len(vals), (n, w))] for key, w in GRADIENT_WIDTHS.items()} for _ in range(8)]
        # row 0 of every block: -tiny, then -0.0, then +0.0 gradients
        for step, g in zip(steps, (-tiny, -0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0)):
            for key in step:
                step[key][0] = g
        cfg = TrainConfig(learning_rate=1e-3, beta1=0.3)
        _assert_adam_matches_oracle(field, cfg, steps)
        opt, grads, twin, oracle = _adam_pair(field, cfg)
        # the row-0 schedule really makes -0.0 moments and a zero step of a nonzero gradient
        for key in grads:
            grads[key][:] = 0.0
            grads[key][0] = -tiny
        opt.step()
        assert np.all(field.quats[0] == twin.quats[0])  # s == 0: not renormalized
        row0 = np.concatenate([start + np.arange(w) for start, w in ((0, 3), (3 * n, 4), (7 * n, 3), (10 * n, 3))])
        assert np.all(opt.m[row0] < 0.0)
        for key in grads:
            grads[key][0] = -0.0
        opt.step()
        assert np.all((opt.m[row0] == 0.0) & np.signbit(opt.m[row0]))

    def test_log_scales_clamped_at_both_bounds(self):
        rng = np.random.default_rng(42)
        n = 20
        field = _random_adam_field(rng, n)
        lo, hi = np.log(SCALE_MIN), np.log(SCALE_MAX)
        field.log_scales[: n // 2] = lo + rng.uniform(0.0, 0.5, (n // 2, 3))
        field.log_scales[n // 2:] = hi - rng.uniform(0.0, 0.5, (n - n // 2, 3))
        push = np.where(np.arange(n)[:, None] < n // 2, 1.0, -1.0) * np.ones((1, 3))
        steps = []
        for _ in range(4):
            g = _random_grads(rng, n, np.ones(n, dtype=bool))
            g["log_scale"] = push * rng.uniform(0.5, 2.0, (n, 3))
            steps.append(g)
        _assert_adam_matches_oracle(field, TrainConfig(learning_rate=0.3), steps)
        assert np.all(field.log_scales[: n // 2] == lo) and np.all(field.log_scales[n // 2:] == hi)

    def test_nan_gradient_propagates_as_in_numpy(self):
        rng = np.random.default_rng(43)
        n = 12
        field = _random_adam_field(rng, n)
        steps = [_random_grads(rng, n, np.ones(n, dtype=bool)) for _ in range(3)]
        steps[1]["quat"][2, 1] = np.nan
        steps[1]["mean"][5, 0] = np.nan
        steps[2]["log_scale"][7, 2] = np.nan
        steps[2]["flux"][9, 1] = np.nan
        with np.errstate(invalid="ignore"):
            _assert_adam_matches_oracle(field, TrainConfig(learning_rate=1e-2), steps)
        assert np.all(np.isnan(field.quats[2])) and np.isnan(field.means[5, 0]) and np.isnan(field.log_scales[7, 2])
        assert np.sum(np.isnan(field.quats)) == 4 and np.sum(np.isnan(field.flux)) == 1

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler 'cc' on PATH")
    def test_portable_build_matches_oracle(self, tmp_path, monkeypatch):
        # the scalar loop that stands in for SSE2 elsewhere, built here with -U__SSE2__
        path = tmp_path / "portable.so"
        cmd = ["cc", *geometry._CFLAGS, "-U__SSE2__", "-I", geometry._DIR, "-o", str(path), *geometry._SOURCES, "-lm"]
        res = subprocess.run(cmd, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        lib = ctypes.CDLL(str(path))
        for name, (restype, argtypes) in geometry._PROTOTYPES.items():
            getattr(lib, name).restype, getattr(lib, name).argtypes = restype, argtypes
        monkeypatch.setattr(geometry, "_lib", lib)
        rng = np.random.default_rng(45)
        field = _random_adam_field(rng, 31)
        steps = [_random_grads(rng, 31, rng.random(31) < 0.6) for _ in range(5)]
        _assert_adam_matches_oracle(field, TrainConfig(learning_rate=2e-2), steps)

    @pytest.mark.parametrize("case", ["strided field", "float32 gradient", "short gradient", "missing gradient"])
    def test_arrays_the_kernel_cannot_write_rejected(self, case):
        field = _random_adam_field(np.random.default_rng(44), 5)
        grads = gradient_buffers(5)
        if case == "strided field":
            field.means = np.zeros((5, 6))[:, :3]
        elif case == "float32 gradient":
            grads["flux"] = grads["flux"].astype(np.float32)
        elif case == "short gradient":
            grads["quat"] = grads["quat"][:4]
        else:
            del grads["log_scale"]
        with pytest.raises(ValueError, match="C-contiguous float64"):
            _Adam(field, grads, TrainConfig())


def _train_querying_every_batch(field, dataset, cfg):
    """Reference loop: the same draws and Adam updates as ``train``, but
    every minibatch queries its neighborhoods afresh."""
    n = len(dataset)
    opt = oracles.adam_optimizers(field, cfg)
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
        oracles.adam_update(field, opt, grads, cfg.learning_rate)
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


    def test_one_period_queries_each_sample_once_per_full_loss(self, setup, monkeypatch):
        # the initial loss and the first period share one query of every
        # sample; the final loss makes the second
        photons, ds = setup
        queried = []
        hybrid = PointIndex.hybrid_query_batch

        def counting_hybrid(index, xs, r, k_min):
            queried.append(len(xs))
            return hybrid(index, xs, r, k_min)

        monkeypatch.setattr(PointIndex, "hybrid_query_batch", counting_hybrid)
        field = GaussianField.from_photons(photons, rng=Rng(19))
        train(field, ds, TrainConfig(steps=10, batch_size=64, rebuild_every=10, seed=20))
        assert sum(queried) == 2 * len(ds)


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
