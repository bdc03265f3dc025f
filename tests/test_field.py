"""Gaussian radiance field: weights, queries, gradients, serialization."""

import numpy as np
import pytest

from photonfield.core import Rng, quaternion_to_matrix, random_unit_quaternion
from photonfield.field import GaussianField
from photonfield.photons import PhotonMap, trace_photons
from photonfield.scene import builtin_scene
from photonfield.spatial import linear_hybrid_query


def _random_field(rng, n=40, radius=0.05, k_min=3, span=0.1):
    means = rng.uniform(-span, span, (n, 3))
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    log_scales = np.log(rng.uniform(0.02, 0.2, (n, 3)))
    flux = rng.uniform(-1.0, 2.0, (n, 3))
    return GaussianField(means, q, log_scales, flux, radius=radius, k_min=k_min)


def _scan_weight(field, i, x):
    """Kernel weight of primitive ``i`` at ``x``, written out one primitive
    at a time from the formula in the field module's docstring: the linear
    scan the batch kernel is checked against."""
    d = np.asarray(x, dtype=np.float64) - field.means[i]
    rot = quaternion_to_matrix(field.quats[i])
    u = (rot.T @ d) / field.scales[i]
    w_gauss = np.exp(-0.5 * float(u @ u))
    dist = float(np.linalg.norm(d))
    r = field.radius
    psi = 1.0 if dist <= r else np.exp(-3.0 * ((dist - r) / max(r, 1e-6)) ** 2)
    return float(w_gauss * psi)


def _kernel_weight(mean, quat, scale, x, radius):
    """``_weight_terms`` weight at ``x`` of a one-primitive field."""
    field = GaussianField(
        np.asarray(mean)[None], np.asarray(quat)[None], np.log(np.asarray(scale, dtype=np.float64))[None],
        np.ones((1, 3)), radius=radius,
    )
    return float(field._weight_terms(np.asarray(x, dtype=np.float64)[None], np.array([0]))[-1][0])


class TestInitialization:
    def test_one_primitive_per_photon_with_copied_fields(self):
        scene = builtin_scene("cornell-box")
        photons = trace_photons(scene, 5000, 16, Rng(1))
        field = GaussianField.from_photons(photons, initial_scale=0.01, rng=Rng(2))
        assert len(field) == len(photons)
        np.testing.assert_array_equal(field.means, photons.positions)
        np.testing.assert_array_equal(field.flux, photons.flux)
        np.testing.assert_allclose(field.scales, 0.01, rtol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(field.quats, axis=1), 1.0, atol=1e-12)

    def test_fixed_seed_gives_identical_rotations(self):
        scene = builtin_scene("cornell-box")
        photons = trace_photons(scene, 1000, 16, Rng(1))
        a = GaussianField.from_photons(photons, rng=Rng(9))
        b = GaussianField.from_photons(photons, rng=Rng(9))
        np.testing.assert_array_equal(a.quats, b.quats)

    def test_empty_photon_map_rejected(self):
        with pytest.raises(ValueError, match="empty photon map"):
            GaussianField.from_photons(PhotonMap.empty())

    @pytest.mark.parametrize("scale", [-1.0, 0.0, np.nan, np.inf])
    @pytest.mark.filterwarnings("error")
    def test_non_positive_or_non_finite_initial_scale_rejected(self, scale):
        photons = PhotonMap(np.zeros((2, 3)), np.ones((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="initial scale"):
            GaussianField.from_photons(photons, initial_scale=scale)

    @pytest.mark.parametrize(("radius", "k_min", "match"), [
        (0.02, -1, "k_min"), (-0.01, 3, "radius"), (np.nan, 3, "radius"), (np.inf, 3, "radius"),
    ])
    def test_negative_k_min_and_bad_radius_rejected(self, radius, k_min, match):
        with pytest.raises(ValueError, match=match):
            GaussianField(np.zeros((1, 3)), [[1.0, 0.0, 0.0, 0.0]], np.zeros((1, 3)), np.ones((1, 3)), radius=radius, k_min=k_min)


class TestWeight:
    def test_weight_at_mean_is_exactly_one(self):
        mean = np.array([0.3, -0.2, 0.1])
        assert _kernel_weight(mean, np.array([1.0, 0.0, 0.0, 0.0]), np.full(3, 0.01), mean, 0.02) == 1.0

    def test_isotropic_weight_ignores_rotation(self):
        rng = Rng(4)
        sigma = 0.05
        x = np.array([0.01, 0.02, -0.005])
        vals = []
        for _ in range(10):
            q = random_unit_quaternion(rng)
            vals.append(_kernel_weight(np.zeros(3), q, np.full(3, sigma), x, 0.05))
        d = float(np.linalg.norm(x))
        expected = np.exp(-d * d / (2 * sigma * sigma))
        np.testing.assert_allclose(vals, expected, rtol=1e-12)

    def test_anisotropic_axes_scale_the_exponent(self):
        q, scale = np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.1, 0.01, 0.01])
        r = 1.0  # keep the falloff factor at 1
        along = _kernel_weight(np.zeros(3), q, scale, np.array([0.1, 0.0, 0.0]), r)
        across = _kernel_weight(np.zeros(3), q, scale, np.array([0.0, 0.1, 0.0]), r)
        assert along == pytest.approx(np.exp(-0.5), rel=1e-12)
        assert across == pytest.approx(np.exp(-50.0), rel=1e-9)

    def test_falloff_is_one_inside_and_decays_outside(self):
        q, scale = np.array([1.0, 0.0, 0.0, 0.0]), np.full(3, 10.0)
        r = 0.02
        # large scale makes the Gaussian factor ~1, isolating the falloff
        inside = _kernel_weight(np.zeros(3), q, scale, np.array([0.9 * r, 0.0, 0.0]), r)
        at_r = _kernel_weight(np.zeros(3), q, scale, np.array([r, 0.0, 0.0]), r)
        beyond = _kernel_weight(np.zeros(3), q, scale, np.array([2.0 * r, 0.0, 0.0]), r)
        assert inside == pytest.approx(1.0, abs=1e-5)
        assert at_r == pytest.approx(1.0, abs=1e-5)
        assert beyond == pytest.approx(np.exp(-3.0), abs=1e-4)


def _csr_rows(flat, splits):
    return [flat[splits[i]:splits[i + 1]] for i in range(len(splits) - 1)]


def _nearby_points(rng, center_span, spread, b):
    """``b`` points within ``spread`` of one random centre, so their
    neighborhoods share primitives as a training batch's do."""
    return rng.uniform(-center_span, center_span, 3) + rng.uniform(-spread, spread, (b, 3))


class TestQuery:
    def test_single_primitive_at_mean_returns_flux_exactly(self):
        flux = np.array([0.123, 4.5, 0.00789])
        field = GaussianField(
            np.array([[0.1, 0.2, 0.3]]), np.array([[1.0, 0.0, 0.0, 0.0]]),
            np.log(np.full((1, 3), 0.01)), flux[None, :],
        )
        field.ensure_index()
        xs = np.array([[0.1, 0.2, 0.3]])
        np.testing.assert_array_equal(field.query_batch(xs)[0], flux)
        np.testing.assert_array_equal(field._neighbors(xs)[0], [0])

    def test_two_coincident_primitives_average_exactly(self):
        x = np.array([0.05, -0.02, 0.0])
        fa = np.array([0.25, 1.5, -0.75])
        fb = np.array([2.0, 0.125, 0.5])
        field = GaussianField(
            np.vstack([x, x]), np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)),
            np.log(np.full((2, 3), 0.01)), np.vstack([fa, fb]),
        )
        field.ensure_index()
        np.testing.assert_array_equal(field.query_batch(x[None])[0], (fa + fb) / 2.0)

    def test_two_equidistant_primitives_average(self):
        off = np.array([0.004, 0.0, 0.0])
        fa = np.array([1.0, 0.2, 0.3])
        fb = np.array([0.5, 0.8, 0.1])
        field = GaussianField(
            np.vstack([off, -off]), np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)),
            np.log(np.full((2, 3), 0.01)), np.vstack([fa, fb]),
        )
        field.ensure_index()
        np.testing.assert_allclose(field.query_batch(np.zeros((1, 3)))[0], (fa + fb) / 2.0, rtol=1e-14)

    def test_matches_linear_scan_over_same_neighbors(self):
        rng = np.random.default_rng(5)
        field = _random_field(rng, n=50)
        field.rebuild_index()
        xs = rng.uniform(-0.1, 0.1, (20, 3))
        got = field.query_batch(xs)
        for x, ids, L in zip(xs, _csr_rows(*field._neighbors(xs)), got):
            np.testing.assert_array_equal(ids, linear_hybrid_query(field.means, x, field.radius, field.k_min))
            # independent evaluation of the normalized weighted sum
            w = np.array([_scan_weight(field, i, x) for i in ids])
            expected = (w[:, None] * field.flux[ids]).sum(axis=0) / max(w.sum(), field.eps)
            np.testing.assert_allclose(L, expected, atol=1e-12, rtol=1e-12)

    def test_empty_field_returns_zero(self):
        field = GaussianField(np.zeros((0, 3)), np.zeros((0, 4)), np.zeros((0, 3)), np.zeros((0, 3)))
        np.testing.assert_array_equal(field.query_batch(np.zeros((2, 3))), np.zeros((2, 3)))

    def test_batch_matches_single_queries(self):
        # a row's value does not depend on the other rows of its batch
        rng = np.random.default_rng(6)
        field = _random_field(rng, n=80)
        field.rebuild_index()
        xs = rng.uniform(-0.12, 0.12, (40, 3))
        batch = field.query_batch(xs)
        assert batch[::-1].tobytes() == field.query_batch(xs[::-1]).tobytes()
        for i, x in enumerate(xs):
            assert batch[i].tobytes() == field.query_batch(x[None])[0].tobytes()

    def test_negated_quaternions_leave_output_bits_unchanged(self):
        rng = np.random.default_rng(7)
        field = _random_field(rng, n=60)
        field.rebuild_index()
        xs = rng.uniform(-0.1, 0.1, (25, 3))
        before = field.query_batch(xs)
        field.quats = -field.quats
        field.mark_updated()
        field.rebuild_index()
        after = field.query_batch(xs)
        np.testing.assert_array_equal(before, after)

    def test_dense_output_is_convex_combination_of_flux(self):
        rng = np.random.default_rng(8)
        n = 200
        means = rng.uniform(-0.005, 0.005, (n, 3))  # dense cluster: sum w >= 1
        q = rng.normal(size=(n, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        field = GaussianField(means, q, np.log(np.full((n, 3), 0.05)), rng.uniform(0.2, 0.9, (n, 3)), radius=0.02)
        field.rebuild_index()
        xs = rng.uniform(-0.004, 0.004, (30, 3))
        out = field.query_batch(xs)
        assert np.all(out >= field.flux.min() - 1e-12)
        assert np.all(out <= field.flux.max() + 1e-12)

    def test_far_primitive_outside_fallback_has_no_influence(self):
        # with k_min primitives already inside the ball, a distant
        # primitive is never selected: moving it changes nothing
        near = np.array([[0.001, 0, 0], [0, 0.001, 0], [0, 0, 0.001], [0.002, 0, 0]])
        far = np.array([[0.5, 0.5, 0.5]])
        field = GaussianField(
            np.vstack([near, far]), np.tile([1.0, 0.0, 0.0, 0.0], (5, 1)),
            np.log(np.full((5, 3), 0.01)), np.arange(15, dtype=np.float64).reshape(5, 3),
        )
        field.rebuild_index()
        xs = np.zeros((1, 3))
        before = field.query_batch(xs)
        assert 4 not in field._neighbors(xs)[0]
        field.flux[4] = 999.0
        field.means[4] = [0.9, -0.9, 0.9]
        field.mark_updated()
        field.ensure_index()
        np.testing.assert_array_equal(before, field.query_batch(xs))


class TestGradients:
    def test_analytic_matches_central_differences_per_block(self):
        # batches of nearby points: rows share primitives, so the check
        # covers the cross-row sums and the ordered scatter training runs
        rng = np.random.default_rng(12)
        worst = 0.0
        trials = 0
        while trials < 25:
            field = _random_field(rng, n=30)
            field.rebuild_index()
            xs = _nearby_points(rng, 0.08, 0.02, 4)
            dl = rng.normal(size=(4, 3))
            flat, splits = field._neighbors(xs)
            owner = np.repeat(np.arange(len(xs)), np.diff(splits))
            # keep clear of the falloff kink and the normalization switch
            dists = np.linalg.norm(xs[owner] - field.means[flat], axis=1)
            if np.bincount(flat).max() < 2 or np.any(np.abs(dists - field.radius) < 1e-4):
                continue
            trials += 1
            grads = field.backward_scatter(xs, dl, flat, splits)
            touched = np.unique(flat)
            outside = np.setdiff1d(np.arange(len(field)), touched)

            def objective():
                val, _, _ = field._forward(xs, flat, splits)
                return float(np.sum(dl * val))

            for block, attr in (
                ("mean", "means"),
                ("quat", "quats"),
                ("log_scale", "log_scales"),
                ("flux", "flux"),
            ):
                assert not np.any(grads[block][outside]), block
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
        assert worst < 1e-4

    def test_gradient_at_mean_is_stationary_in_position(self):
        field = GaussianField(
            np.array([[0.1, 0.2, 0.3]]), np.array([[1.0, 0.0, 0.0, 0.0]]),
            np.log(np.full((1, 3), 0.01)), np.array([[1.0, 2.0, 3.0]]),
        )
        field.ensure_index()
        xs = np.array([[0.1, 0.2, 0.3]])
        grads = field.backward_scatter(xs, np.ones((1, 3)), *field._neighbors(xs))
        np.testing.assert_allclose(grads["mean"], 0.0, atol=1e-15)

    def test_flux_gradient_is_weight_over_normalizer(self):
        # d J / d flux_i[0] = sum over rows b of w_bi / z_b when dl_b = (1, 0, 0)
        rng = np.random.default_rng(13)
        field = _random_field(rng, n=20)
        field.rebuild_index()
        xs = _nearby_points(rng, 0.05, 0.02, 5)
        flat, splits = field._neighbors(xs)
        grads = field.backward_scatter(xs, np.tile([1.0, 0.0, 0.0], (len(xs), 1)), flat, splits)
        expected = np.zeros(len(field))
        for x, ids in zip(xs, _csr_rows(flat, splits)):
            w = np.array([_scan_weight(field, i, x) for i in ids])
            expected[ids] += w / max(w.sum(), field.eps)
        assert np.bincount(flat).max() >= 2
        np.testing.assert_allclose(grads["flux"][:, 0], expected, rtol=1e-12)
        np.testing.assert_array_equal(grads["flux"][:, 1:], 0.0)

    def test_out_of_neighborhood_primitive_gets_zero_gradient(self):
        near = np.array([[0.001, 0, 0], [0, 0.001, 0], [0, 0, 0.001]])
        far = np.array([[0.8, 0.8, 0.8]])
        field = GaussianField(
            np.vstack([near, far]), np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)),
            np.log(np.full((4, 3), 0.01)), np.ones((4, 3)),
        )
        field.rebuild_index()
        xs = np.zeros((1, 3))
        flat, splits = field._neighbors(xs)
        assert 3 not in flat
        g = field.backward_scatter(xs, np.ones((1, 3)), flat, splits)
        np.testing.assert_array_equal(g["flux"][3], 0.0)
        np.testing.assert_array_equal(g["mean"][3], 0.0)

    def test_backward_scatter_is_ordered_add_at_of_per_row_gradients(self):
        # six primitives shared by every row: each id repeats hundreds of
        # times, so any other summation order would change low bits
        rng = np.random.default_rng(15)
        field = _random_field(rng, n=6, radius=0.5, span=0.02)
        field.rebuild_index()
        xs = rng.uniform(-0.05, 0.05, (300, 3))
        dl = rng.normal(size=(300, 3))
        flat, splits = field._neighbors(xs)
        assert np.bincount(flat).min() >= 200
        owner = np.repeat(np.arange(len(xs)), np.diff(splits))
        rows = field._backward_terms(flat, owner, dl[owner], field._forward(xs, flat, splits))
        got = field.backward_scatter(xs, dl, flat, splits)
        for key, part in rows.items():
            want = np.zeros((len(field), part.shape[1]))
            np.add.at(want, flat, part)
            assert got[key].tobytes() == want.tobytes(), key

    def test_backward_scatter_with_forward_terms_is_bit_identical(self):
        rng = np.random.default_rng(16)
        field = _random_field(rng, n=60)
        field.rebuild_index()
        xs = rng.uniform(-0.1, 0.1, (80, 3))
        dl = rng.normal(size=(80, 3))
        flat, splits = field._neighbors(xs)
        fwd = field._forward(xs, flat, splits)
        with_terms = field.backward_scatter(xs, dl, flat, splits, fwd)
        without = field.backward_scatter(xs, dl, flat, splits)
        for key in ("mean", "quat", "log_scale", "flux"):
            assert with_terms[key].tobytes() == without[key].tobytes(), key


class TestSerialization:
    def test_checkpoint_round_trip_is_bit_exact_at_float32(self, tmp_path):
        scene = builtin_scene("cornell-box")
        photons = trace_photons(scene, 2000, 16, Rng(3))
        field = GaussianField.from_photons(photons, rng=Rng(4))
        p1 = tmp_path / "a.gpf"
        p2 = tmp_path / "b.gpf"
        field.save(p1)
        loaded = GaussianField.load(p1)
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        # loading is exact float32 -> float64 widening
        again = GaussianField.load(p2)
        np.testing.assert_array_equal(loaded.means, again.means)
        np.testing.assert_array_equal(loaded.flux, again.flux)
        np.testing.assert_array_equal(loaded.quats, again.quats)
        np.testing.assert_array_equal(loaded.scales, again.scales)

    def test_checkpoint_layout(self, tmp_path):
        field = GaussianField(
            np.array([[1.0, 2.0, 3.0]]), np.array([[0.5, 0.5, 0.5, 0.5]]),
            np.log(np.array([[0.01, 0.02, 0.03]])), np.array([[4.0, 5.0, 6.0]]),
        )
        path = tmp_path / "one.gpf"
        field.save(path)
        blob = path.read_bytes()
        assert blob[:4] == b"GPF1"
        assert int.from_bytes(blob[4:8], "little") == 1
        vals = np.frombuffer(blob[8:], dtype="<f4")
        np.testing.assert_allclose(vals[0:3], [1, 2, 3], rtol=1e-7)
        np.testing.assert_allclose(vals[3:7], 0.5)
        np.testing.assert_allclose(vals[7:10], [0.01, 0.02, 0.03], rtol=1e-7)
        np.testing.assert_allclose(vals[10:13], [4, 5, 6])

    @staticmethod
    def _checkpoint(tmp_path):
        field = _random_field(np.random.default_rng(17), n=5)
        path = tmp_path / "f.gpf"
        field.save(path)
        return path

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self._checkpoint(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="1 bytes after its 5 rows"):
            GaussianField.load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = self._checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[8 + 4 * 20 : 8 + 4 * 21] = np.array([value], dtype="<f4").tobytes()  # row 1, a quaternion entry
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="non-finite"):
            GaussianField.load(path)

    @pytest.mark.parametrize("count", [6, 2**32 - 1])
    def test_count_beyond_payload_rejected(self, tmp_path, count):
        path = self._checkpoint(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + count.to_bytes(4, "little") + blob[8:])
        with pytest.raises(ValueError, match="truncated"):
            GaussianField.load(path)

    @pytest.mark.parametrize("quat", [(0.0, 0.0, 0.0, 0.0), (3.0, 0.0, 0.0, 0.0)])
    def test_non_unit_quaternion_rejected(self, tmp_path, quat):
        field = _random_field(np.random.default_rng(17), n=5)
        field.quats[2] = quat
        path = tmp_path / "f.gpf"
        field.save(path)
        with pytest.raises(ValueError, match="row 2 has quaternion .* not unit length"):
            GaussianField.load(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.gpf"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            GaussianField.load(path)
