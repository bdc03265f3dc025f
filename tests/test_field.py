"""Gaussian radiance field: weights, queries, gradients, serialization."""

import numpy as np
import pytest

import oracles
from oracles import quaternion_to_matrix, rotation_jacobian, rotation_jacobian_tdot
from photonfield.core import Rng, random_unit_quaternion
from photonfield.field import GRADIENT_WIDTHS, GaussianField, gradient_buffers
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
    """Weight at ``x`` of a one-primitive field: the weight sum of a
    forward over one row whose only neighbour is that primitive."""
    field = GaussianField(
        np.asarray(mean)[None], np.asarray(quat)[None], np.log(np.asarray(scale, dtype=np.float64))[None],
        np.ones((1, 3)), radius=radius,
    )
    return float(field._forward(np.asarray(x, dtype=np.float64)[None], np.array([0]), np.array([0, 1]))[2][0])


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
            GaussianField.from_photons(PhotonMap(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3))), rng=Rng(0))

    @pytest.mark.parametrize("scale", [-1.0, 0.0, np.nan, np.inf])
    @pytest.mark.filterwarnings("error")
    def test_non_positive_or_non_finite_initial_scale_rejected(self, scale):
        photons = PhotonMap(np.zeros((2, 3)), np.ones((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="initial scale"):
            GaussianField.from_photons(photons, initial_scale=scale, rng=Rng(0))

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
            q = random_unit_quaternion(rng, 1)[0]
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
        rows = oracles.backward_terms(field, flat, owner, dl[owner], oracles.forward(field, xs, flat, splits))
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


def _assert_passes_match_oracle(field, xs, flat, splits, dl):
    """The compiled forward and backward equal the numpy oracles byte for
    byte: radiance, weight sums and all four gradient blocks."""
    L, _, s_tot = field._forward(xs, flat, splits)
    want_L, _, want_s_tot = oracles.forward(field, xs, flat, splits)
    assert L.tobytes() == want_L.tobytes()
    assert s_tot.tobytes() == want_s_tot.tobytes()
    got = field.backward_scatter(xs, dl, flat, splits)
    want = oracles.backward_scatter(field, xs, dl, flat, splits)
    for key in ("mean", "quat", "log_scale", "flux"):
        assert got[key].tobytes() == want[key].tobytes(), key


def _random_csr(rng, n_rows, n_prims, max_len):
    """Random neighbourhoods: ids repeat across and within rows, and some
    rows are empty."""
    counts = rng.integers(0, max_len + 1, n_rows)
    counts[rng.random(n_rows) < 0.2] = 0
    splits = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum(counts, out=splits[1:])
    return rng.integers(0, n_prims, splits[-1]), splits


class TestCompiledPasses:
    def test_index_neighbourhoods_match_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            field = _random_field(rng, n=120)
            field.rebuild_index()
            xs = rng.uniform(-0.12, 0.12, (200, 3))
            _assert_passes_match_oracle(field, xs, *field._neighbors(xs), rng.normal(size=(200, 3)))

    def test_arbitrary_neighbourhoods_with_empty_rows_match_oracle(self):
        rng = np.random.default_rng(22)
        field = _random_field(rng, n=30, radius=0.03)
        xs = rng.uniform(-0.1, 0.1, (300, 3))
        flat, splits = _random_csr(rng, 300, 30, 12)
        assert np.any(np.diff(splits) == 0)
        _assert_passes_match_oracle(field, xs, flat, splits, rng.normal(size=(300, 3)))
        _assert_passes_match_oracle(field, xs[:0], flat[:0], splits[:1], np.zeros((0, 3)))

    def test_primitives_shared_by_hundreds_of_rows_match_oracle(self):
        # the summation order over a primitive's rows shows in its low bits
        rng = np.random.default_rng(23)
        field = _random_field(rng, n=4, radius=0.5, span=0.02)
        xs = rng.uniform(-0.05, 0.05, (500, 3))
        flat, splits = _random_csr(rng, 500, 4, 6)
        assert np.bincount(flat).min() >= 300
        _assert_passes_match_oracle(field, xs, flat, splits, rng.normal(size=(500, 3)))

    def test_weight_sums_at_or_below_eps_match_oracle(self):
        # a lone neighbour 5.5-6.5 sigma away weighs 1e-7 to 3e-10, so z is eps
        rng = np.random.default_rng(24)
        field = _random_field(rng, n=10, radius=0.1)
        field.log_scales[:] = np.log(0.01)
        dirs = rng.normal(size=(10, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        xs = field.means + dirs * np.linspace(0.055, 0.065, 10)[:, None]
        xs[0] = field.means[0] + 0.01  # one row well above eps
        flat, splits = np.concatenate([np.arange(10), [3, 7]]), np.concatenate([np.arange(11), [12]])
        xs = np.vstack([xs, xs[3]])
        _, _, s_tot = oracles.forward(field, xs, flat, splits)
        assert s_tot[0] > field.eps and np.all((s_tot[1:] > 0.0) & (s_tot[1:] <= field.eps))
        _assert_passes_match_oracle(field, xs, flat, splits, rng.normal(size=(11, 3)))

    def test_distance_equal_to_radius_and_zero_match_oracle(self):
        # dist == radius is inside (psi = 1, no radial term); dist == 0 takes d_hat = 0
        rng = np.random.default_rng(25)
        field = _random_field(rng, n=6, radius=0.5)
        xs = np.vstack([field.means[0], field.means[1] + [0.5, 0.0, 0.0], field.means[2] + [0.0, 0.0, -0.5]])
        flat = np.array([0, 3, 1, 4, 2, 5])
        splits = np.array([0, 2, 4, 6])
        _, (_, _, _, _, _, dist, _, _), _ = oracles.forward(field, xs, flat, splits)
        assert dist[0] == 0.0 and dist[2] == field.radius and dist[4] == field.radius
        _assert_passes_match_oracle(field, xs, flat, splits, rng.normal(size=(3, 3)))

    def test_negative_zero_results_match_oracle(self):
        # two coincident primitives: num = -5e-324 over z = 2 rounds to -0.0
        field = GaussianField(
            np.zeros((2, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)), np.log(np.full((2, 3), 0.01)),
            np.array([[-5e-324, 0.0, 1.0], [0.0, -0.0, 1.0]]),
        )
        xs = np.zeros((2, 3))
        flat, splits = np.array([0, 1, 0, 1]), np.array([0, 2, 4])
        L = field._forward(xs, flat, splits)[0]
        assert L[0, 0] == 0.0 and np.signbit(L[0, 0])
        # zero and negative-zero output gradients make -0.0 per-row terms; each sum starts at +0.0
        dl = np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 1.0]])
        owner = np.repeat(np.arange(2), np.diff(splits))
        rows = oracles.backward_terms(field, flat, owner, dl[owner], oracles.forward(field, xs, flat, splits))
        assert any(np.any((part == 0.0) & np.signbit(part)) for part in rows.values())
        _assert_passes_match_oracle(field, xs, flat, splits, dl)


class TestRowValidation:
    """Bad neighbourhoods raise ValueError before any compiled pass reads them."""

    @staticmethod
    def _field_and_rows():
        field = _random_field(np.random.default_rng(27), n=10)
        xs = np.zeros((3, 3))
        return field, xs, np.array([0, 1, 2, 3, 4]), np.array([0, 2, 4, 5]), np.ones((3, 3))

    @pytest.mark.parametrize(("case", "match"), [
        ("id below 0", "neighbour ids"), ("id at n", "neighbour ids"),
        ("splits start at 1", "splits"), ("splits fall", "splits"), ("splits end short", "splits"),
        ("splits end long", "splits"), ("xs rows", "query points"), ("empty splits", "splits"),
    ])
    def test_bad_rows_rejected_by_forward_and_backward(self, case, match):
        field, xs, flat, splits, dl = self._field_and_rows()
        if case == "id below 0":
            flat[2] = -1
        elif case == "id at n":
            flat[4] = len(field)
        elif case == "splits start at 1":
            splits[0] = 1
        elif case == "splits fall":
            splits[1] = 5
        elif case == "splits end short":
            splits[-1] = 4
        elif case == "splits end long":
            splits[-1] = 6
        elif case == "xs rows":
            xs = np.zeros((4, 3))
        elif case == "empty splits":
            splits = splits[:0]
        with pytest.raises(ValueError, match=match):
            field._forward(xs, flat, splits)
        with pytest.raises(ValueError, match=match):
            field.backward_scatter(xs, dl, flat, splits)

    def test_output_gradient_rows_must_match_query_rows(self):
        field, xs, flat, splits, dl = self._field_and_rows()
        with pytest.raises(ValueError, match="output gradients"):
            field.backward_scatter(xs, dl[:2], flat, splits)

    def test_forward_terms_of_other_rows_rejected(self):
        field, xs, flat, splits, dl = self._field_and_rows()
        fwd = field._forward(xs, flat, splits)
        with pytest.raises(ValueError, match="other neighbourhoods"):
            field.backward_scatter(xs, dl, flat[::-1], splits, fwd)

    def test_rebound_parameter_of_wrong_length_rejected(self):
        field, xs, flat, splits, dl = self._field_and_rows()
        field.flux = field.flux[:5]
        with pytest.raises(ValueError, match="flux"):
            field._forward(xs, flat[:0], np.zeros(4, dtype=np.intp))


class TestGradientBuffers:
    """``backward_scatter(out=...)`` overwrites the caller's buffers, or refuses them before C runs."""

    @staticmethod
    def _setup():
        rng = np.random.default_rng(28)
        field = _random_field(rng, n=30, radius=0.03)
        xs = rng.uniform(-0.1, 0.1, (80, 3))
        flat, splits = _random_csr(rng, 80, 30, 8)
        return field, xs, flat, splits, rng.normal(size=(80, 3))

    def test_junk_filled_buffers_give_the_bytes_of_fresh_ones(self):
        field, xs, flat, splits, dl = self._setup()
        fresh = field.backward_scatter(xs, dl, flat, splits)
        out = {key: np.full((len(field), w), junk) for (key, w), junk in zip(GRADIENT_WIDTHS.items(), (np.nan, -0.0, 1e300, -7.0))}
        for _ in range(2):  # a second pass over its own results still starts from zero
            got = field.backward_scatter(xs, dl, flat, splits, field._forward(xs, flat, splits), out=out)
            assert got is out
            for key in GRADIENT_WIDTHS:
                assert got[key].tobytes() == fresh[key].tobytes(), key
        want = oracles.backward_scatter(field, xs, dl, flat, splits)
        assert all(out[key].tobytes() == want[key].tobytes() for key in GRADIENT_WIDTHS)

    @pytest.mark.parametrize("case", ["shape", "dtype", "fortran order", "strided", "read-only", "missing key", "not a dict"])
    def test_unwritable_buffers_rejected_before_the_kernel_runs(self, case):
        field, xs, flat, splits, dl = self._setup()
        out = {key: np.full((len(field), w), 7.0) for key, w in GRADIENT_WIDTHS.items()}
        if case == "shape":
            out["quat"] = np.full((len(field) - 1, 4), 7.0)
        elif case == "dtype":
            out["mean"] = np.full((len(field), 3), 7.0, dtype=np.float32)
        elif case == "fortran order":
            out["flux"] = np.asfortranarray(out["flux"])
        elif case == "strided":
            out["log_scale"] = np.full((len(field), 6), 7.0)[:, ::2]
        elif case == "read-only":
            out["mean"].flags.writeable = False
        elif case == "missing key":
            del out["flux"]
        else:
            out = list(out.values())
        with pytest.raises(ValueError, match="gradient buffer"):
            field.backward_scatter(xs, dl, flat, splits, out=out)
        for buf in out.values() if isinstance(out, dict) else out:
            assert np.all(buf == 7.0)

    def test_forward_of_other_rows_still_rejected_with_buffers(self):
        field, xs, flat, splits, dl = self._setup()
        fwd = field._forward(xs, flat, splits)
        with pytest.raises(ValueError, match="other neighbourhoods"):
            field.backward_scatter(xs, dl, flat[::-1], splits, fwd, out=gradient_buffers(len(field)))


class TestRotationOracle:
    """The numpy rotation helpers the oracles use."""

    def test_identity_quaternion_gives_identity_matrix(self):
        r = quaternion_to_matrix(np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(r, np.eye(3))

    def test_negated_quaternion_gives_bitwise_same_matrix(self):
        rng = Rng(3)
        q = random_unit_quaternion(rng, 50)
        np.testing.assert_array_equal(quaternion_to_matrix(q), quaternion_to_matrix(-q))

    def test_random_quaternions_give_orthonormal_rotations(self):
        rng = Rng(4)
        q = random_unit_quaternion(rng, 200)
        r = quaternion_to_matrix(q)
        rtr = np.einsum("kji,kjl->kil", r, r)
        np.testing.assert_allclose(rtr, np.broadcast_to(np.eye(3), rtr.shape), atol=1e-9)
        np.testing.assert_allclose(np.linalg.det(r), 1.0, atol=1e-9)

    def test_rotation_preserves_vector_norm(self):
        rng = Rng(5)
        q = random_unit_quaternion(rng, 100)
        v = np.stack([rng.uniform(100) * 4 - 2, rng.uniform(100) * 4 - 2, rng.uniform(100) * 4 - 2], axis=1)
        rv = np.einsum("kij,kj->ki", quaternion_to_matrix(q), v)
        np.testing.assert_allclose(np.linalg.norm(rv, axis=1), np.linalg.norm(v, axis=1), rtol=1e-9)

    def test_rotation_jacobian_matches_finite_differences(self):
        rng = Rng(6)
        q = random_unit_quaternion(rng, 20)
        jac = rotation_jacobian(q)
        h = 1e-7
        for m in range(4):
            dq = np.zeros(4)
            dq[m] = h
            fd = (quaternion_to_matrix(q + dq) - quaternion_to_matrix(q - dq)) / (2 * h)
            np.testing.assert_allclose(jac[:, m], fd, atol=1e-7)

    def test_rotation_jacobian_tdot_matches_einsum_bit_for_bit(self):
        rng = np.random.default_rng(8)
        q = rng.normal(size=(400, 4)) * rng.choice([1e-3, 1.0, 7.0], size=(400, 1))  # not unit
        q[rng.random(q.shape) < 0.2] = 0.0
        q[rng.random(q.shape) < 0.1] = -0.0
        q[0] = [1.0, 0.0, 0.0, 0.0]
        d = rng.normal(size=(400, 3))
        d[rng.random(d.shape) < 0.2] = 0.0
        d[rng.random(d.shape) < 0.1] = -0.0
        assert np.any(q < 0.0) and np.any(d < 0.0)
        want = np.einsum("kmij,ki->kmj", rotation_jacobian(q), d)
        assert rotation_jacobian_tdot(q, d).tobytes() == want.tobytes()


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
