"""Photon tracing, photon-mapped rendering, and the path tracer."""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oracles
from photonfield import core
from photonfield.core import Rng, fold_key
from photonfield.field import GaussianField
from photonfield.integrators import (
    SppmConfig,
    _camera_frame,
    _camera_rays,
    _photon_pass,
    kde_gather_batch,
    reference_radiance_at_points,
    render_gpf,
    render_pt,
    render_sppm,
    sppm_radius,
    trace_to_first_diffuse,
)
from photonfield.photons import _MAX_CHAIN, PhotonMap, trace_photons
from photonfield.scene import (
    DIFFUSE,
    Camera,
    Scene,
    builtin_scene,
    scene_from_dict,
)
from photonfield.spatial import PointIndex


def _scene(shapes, materials=None, camera=None):
    mats = {
        "white": {"type": "diffuse", "albedo": [0.7, 0.7, 0.7]},
        "mirror": {"type": "mirror", "reflectance": [0.9, 0.9, 0.9]},
        "lamp": {"type": "mirror", "reflectance": [0.0, 0.0, 0.0]},
    }
    if materials:
        mats.update(materials)
    cam = camera or {
        "position": [0, 0, 0.5],
        "look_at": [0, 0, 0],
        "up": [0, 1, 0],
        "vfov": 20.0,
        "resolution": [9, 9],
    }
    return scene_from_dict({"camera": cam, "materials": mats, "shapes": shapes})


def _floor_and_light(emission=5.0, light_half=0.25, light_z=1.0, albedo=0.6):
    return _scene(
        [
            {"type": "quad", "corner": [-1, -1, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "m"},
            {
                "type": "quad",
                "corner": [-light_half, -light_half, light_z],
                "edge_u": [0, 2 * light_half, 0],
                "edge_v": [2 * light_half, 0, 0],
                "material": "lamp",
                "emission": [emission] * 3,
            },
        ],
        materials={"m": {"type": "diffuse", "albedo": [albedo] * 3}},
    )


# a fan of nine triangles whose area CDF ends below 1, then a zero-area
# triangle: a draw at or above that end picks the zero-area triangle, whose
# empty CDF bin the 1e-300 and 1 - 1e-12 clamps of the sampler handle
_FAN_VERTICES = [[0.0, 0.0], [0.25, 0.03], [0.05, 0.01], [-0.03, 0.26], [-0.06, -0.02], [-0.18, -0.14], [-0.06, -0.07],
                 [-0.03, -0.27], [0.07, -0.18], [0.1, -0.06], [0.15, -0.06]]
_FAN_INDICES = [[0, i, i + 1] for i in range(1, 10)] + [[0, 1, 1]]


def _mixed_emitter_scene():
    """A diffuse box lit by a quad, a sphere and a triangle-mesh emitter (slots 0, 1 and 2)."""
    walls = [
        ([-1, -1, -1], [2, 0, 0], [0, 2, 0]),
        ([-1, -1, 1], [0, 2, 0], [2, 0, 0]),
        ([-1, 1, -1], [2, 0, 0], [0, 0, 2]),
        ([-1, -1, -1], [0, 2, 0], [0, 0, 2]),
        ([1, -1, -1], [0, 0, 2], [0, 2, 0]),
        ([-1, -1, -1], [0, 0, 2], [2, 0, 0]),
    ]
    shapes = [{"type": "quad", "corner": c, "edge_u": u, "edge_v": v, "material": "white"} for c, u, v in walls]
    shapes += [
        {"type": "quad", "corner": [-0.3, -0.25, 0.9], "edge_u": [0.1, 0.5, 0.05], "edge_v": [0.5, -0.08, 0.02],
         "material": "lamp", "emission": [6.0, 6.0, 6.0]},
        {"type": "sphere", "center": [0.4, 0.3, -0.2], "radius": 0.15, "material": "white", "emission": [2.0, 3.0, 4.0]},
        {"type": "mesh", "vertices": [[x, y, -0.6] for x, y in _FAN_VERTICES], "indices": _FAN_INDICES,
         "material": "white", "emission": [4.0, 4.0, 4.0]},
    ]
    camera = {"position": [0, -0.9, 0], "look_at": [0, 0, -0.3], "up": [0, 0, 1], "vfov": 70.0, "resolution": [12, 12]}
    with np.errstate(invalid="ignore"):  # the zero-area triangle has no normal
        return _scene(shapes, camera=camera)


def _quad_irradiance_at(point, corner, eu, ev, radiance, nodes=96):
    """Deterministic quadrature of emitter radiance over a quad: the
    independent reference for direct-lighting checks."""
    x, wx = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * wx
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu, wu)
    corner = np.asarray(corner, dtype=np.float64)
    eu = np.asarray(eu, dtype=np.float64)
    ev = np.asarray(ev, dtype=np.float64)
    q = corner + uu[..., None] * eu + vv[..., None] * ev
    n_l = np.cross(eu, ev)
    area = np.linalg.norm(n_l)
    n_l = n_l / area
    v = q - np.asarray(point)
    d2 = np.einsum("ijk,ijk->ij", v, v)
    d = np.sqrt(d2)
    cos_p = v[..., 2] / d  # receiver normal +z
    cos_q = np.einsum("ijk,k->ij", -v, n_l) / d
    integrand = radiance * np.clip(cos_p, 0, None) * np.clip(cos_q, 0, None) / d2
    return float(np.sum(integrand * ww) * area)


def _wavefront_photons(scene, n_photons, max_bounces, rng):
    """The numpy wavefront photon tracer, the oracle of the compiled one.

    All live photons advance one bounce per step through the numpy shading
    and BSDF oracles (``oracles.intersect_batch``,
    ``oracles.sample_bsdf_batch``), ``core.draw_units`` and
    ``core.roulette``, so the records come out bounce by bounce, in photon
    order within a bounce.
    """
    keys = fold_key(rng.key, np.arange(n_photons, dtype=np.uint64))
    ctrs = np.zeros(n_photons, dtype=np.uint64)
    o, d, flux = oracles.sample_light_emission(scene, keys, ctrs)
    throughput = np.ones((n_photons, 3))
    out_pos, out_flux, out_wi = [], [], []
    alive = np.arange(n_photons, dtype=np.intp)
    bounces = min(int(max_bounces), _MAX_CHAIN)
    for bounce in range(bounces):
        if alive.size == 0:
            break
        hits = oracles.intersect_batch(scene, o, d)
        hit = hits.valid
        if not np.any(hit):
            break
        alive = alive[hit]
        hits = hits.subset(hit)
        flux = flux[hit]
        throughput = throughput[hit]

        store = hits.mat_kind == DIFFUSE
        if np.any(store):
            out_pos.append(hits.position[store])
            out_flux.append(flux[store])
            out_wi.append(hits.wo[store])

        if bounce == bounces - 1:
            break

        wi, weight, _, _ = oracles.sample_bsdf_batch(hits, *core.draw_units(keys, ctrs, alive, 3))
        throughput = throughput * weight
        flux = flux * weight

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
        return PhotonMap(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
    return PhotonMap(np.concatenate(out_pos), np.concatenate(out_flux), np.concatenate(out_wi))


def _assert_same_bytes(got, want):
    for name in ("positions", "flux", "incident"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestPhotonTracing:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [0, -3])
    def test_photon_count_below_one_is_rejected(self, n):
        with pytest.raises(ValueError, match="n_photons"):
            trace_photons(builtin_scene("cornell-box"), n, 16, Rng(0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("max_bounces", [0, -2])
    def test_bounce_cap_below_one_is_rejected(self, max_bounces):
        with pytest.raises(ValueError, match="max_bounces"):
            trace_photons(builtin_scene("cornell-box"), 100, max_bounces, Rng(0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("max_bounces", [_MAX_CHAIN + 1, 200])
    def test_bounce_cap_above_max_chain_is_rejected(self, max_bounces):
        with pytest.raises(ValueError, match=rf"max_bounces must lie in \[1, 64\], got {max_bounces}"):
            trace_photons(builtin_scene("cornell-box"), 100, max_bounces, Rng(0))

    @pytest.mark.parametrize("max_bounces", [1, 3, 16, _MAX_CHAIN])
    @pytest.mark.parametrize("name", ["cornell-box", "caustic-sphere", "caustic-pool"])
    def test_compiled_paths_equal_the_numpy_wavefront_bytes(self, name, max_bounces):
        # at the cap itself, both tracers stop after _MAX_CHAIN hits
        scene = builtin_scene(name)
        _assert_same_bytes(trace_photons(scene, 4000, max_bounces, Rng(61)), _wavefront_photons(scene, 4000, max_bounces, Rng(61)))

    def test_a_path_goes_on_while_its_bsdf_weight_is_non_zero(self):
        # red floor under a green ceiling: after one bounce off each, the
        # throughput is zero in every channel but the green weight is not,
        # so the photon reaches the floor again and stores zero flux there
        scene = _scene(
            [
                {"type": "quad", "corner": [-1, -1, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "red"},
                {"type": "quad", "corner": [-1, -1, 1], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "green"},
                {"type": "quad", "corner": [-0.2, -0.2, 0.9], "edge_u": [0, 0.4, 0], "edge_v": [0.4, 0, 0],
                 "material": "lamp", "emission": [5, 5, 5]},
            ],
            materials={"red": {"type": "diffuse", "albedo": [0.9, 0, 0]}, "green": {"type": "diffuse", "albedo": [0, 0.9, 0]}},
        )
        got = trace_photons(scene, 2000, 8, Rng(64))
        assert np.any(np.all(got.flux == 0.0, axis=1))
        _assert_same_bytes(got, _wavefront_photons(scene, 2000, 8, Rng(64)))

    def test_record_buffers_grow_past_one_record_per_photon(self):
        # the buffers start with n + 64 slots and a photon starts only while
        # 64 are free; a photon stores at most 64 records, so more than
        # n + 64 in all means the buffers grew before the last photon
        scene = builtin_scene("cornell-box")
        got = trace_photons(scene, 200, _MAX_CHAIN, Rng(63))
        assert len(got) > 200 + 64
        _assert_same_bytes(got, _wavefront_photons(scene, 200, _MAX_CHAIN, Rng(63)))

    def test_two_threads_trace_identical_bytes(self):
        scene = builtin_scene("caustic-pool")
        want = trace_photons(scene, 6000, 16, Rng(62))
        with ThreadPoolExecutor(2) as pool:
            for got in pool.map(lambda _: trace_photons(scene, 6000, 16, Rng(62)), range(4)):
                _assert_same_bytes(got, want)

    def test_all_mirror_scene_stores_nothing(self):
        scene = _scene(
            [
                {"type": "quad", "corner": [-1, -1, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "mirror"},
                {"type": "quad", "corner": [-0.2, -0.2, 1], "edge_u": [0, 0.4, 0], "edge_v": [0.4, 0, 0],
                 "material": "lamp", "emission": [5, 5, 5]},
            ]
        )
        photons = trace_photons(scene, 5000, 8, Rng(0))
        assert len(photons) == 0

    def test_fixed_seed_reproduces_photon_map_bitwise(self):
        scene = builtin_scene("cornell-box")
        a = trace_photons(scene, 3000, 16, Rng(7))
        b = trace_photons(scene, 3000, 16, Rng(7))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.flux, b.flux)
        np.testing.assert_array_equal(a.incident, b.incident)

    def test_photons_stored_only_on_diffuse_surfaces(self):
        # mirror panel above a diffuse floor: all stored photons are on the floor
        scene = _scene(
            [
                {"type": "quad", "corner": [-1, -1, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "white"},
                {"type": "quad", "corner": [-0.5, -0.5, 0.4], "edge_u": [1, 0, 0], "edge_v": [0, 1, 0], "material": "mirror"},
                {"type": "quad", "corner": [-0.2, -0.2, 1], "edge_u": [0, 0.4, 0], "edge_v": [0.4, 0, 0],
                 "material": "lamp", "emission": [5, 5, 5]},
            ]
        )
        photons = trace_photons(scene, 20_000, 8, Rng(1))
        assert len(photons) > 0
        assert np.all(np.abs(photons.positions[:, 2]) < 1e-9)

    def test_direct_flux_fraction_matches_quadrature(self):
        # tiny emitter over a finite floor: the stored direct flux equals
        # total power times the cosine-weighted fraction aimed at the floor
        half = 0.005
        scene = _floor_and_light(emission=1.0, light_half=half, light_z=1.0)
        n = 1_000_000
        photons = trace_photons(scene, n, 1, Rng(3))
        power = float(scene.total_power[0])
        # cosine-lobe mass of the floor seen from the (point-like) emitter
        # at height 1: (1/pi) * integral over the floor of dA / (x^2+y^2+1)^2
        x, w = np.polynomial.legendre.leggauss(128)
        ww = np.outer(w, w)
        gx, gy = np.meshgrid(x, x, indexing="ij")
        frac = float(np.sum(ww / (gx**2 + gy**2 + 1.0) ** 2) / math.pi)
        got = float(photons.flux[:, 0].sum())
        sigma = power * math.sqrt(frac * (1.0 - frac) / n)
        assert abs(got - power * frac) < 3.0 * sigma

    def test_first_bounce_stores_the_diffuse_hits_of_the_emission_sampler(self):
        # the photon tracer emits through sample_light_emission on the
        # streams (generator key, photon index)
        scene = _floor_and_light()
        n = 4000
        rng = Rng(21)
        photons = trace_photons(scene, n, 1, rng)
        keys = fold_key(rng.key, np.arange(n, dtype=np.uint64))
        o, d, flux = oracles.sample_light_emission(scene, keys, np.zeros(n, dtype=np.uint64))
        hits = scene.intersect_batch(o, d)
        on_floor = hits.valid & (hits.mat_kind == DIFFUSE)
        assert 0 < on_floor.sum() < n
        np.testing.assert_array_equal(photons.positions, hits.position[on_floor])
        np.testing.assert_array_equal(photons.flux, flux[on_floor])
        np.testing.assert_array_equal(photons.incident, hits.wo[on_floor])

    def test_emitted_flux_partitions_power(self):
        scene = builtin_scene("cornell-box")
        photons = trace_photons(scene, 50_000, 1, Rng(5))
        # with one bounce every stored photon carries the emission flux
        per = scene.total_power / 50_000
        np.testing.assert_allclose(photons.flux, np.broadcast_to(per, photons.flux.shape), rtol=1e-12)


class TestEmitterSampler:
    """The compiled emitter sampler against the numpy oracle, bit for bit."""

    def test_samples_equal_the_numpy_oracle_bytes(self):
        scene = _mixed_emitter_scene()
        mesh = scene.shapes[scene.emitter_ids[2]].kind
        assert mesh.triangle_areas[-1] == 0.0
        cdf = np.cumsum(mesh.triangle_areas) / mesh.triangle_areas.sum()
        assert cdf[-1] < 1.0  # so a draw can land in the zero-area triangle's bin
        below_one = np.nextafter(1.0, 0.0)
        edges = np.concatenate([[0.0, 5e-324, 0.5, below_one], cdf, np.nextafter(cdf, 0.0)])
        u1, u2 = (a.ravel() for a in np.meshgrid(edges, [0.0, 0.3, below_one]))
        rng = np.random.default_rng(5)
        u1 = np.concatenate([u1, rng.random(3000)])
        u2 = np.concatenate([u2, rng.random(3000)])
        slot = rng.integers(0, 3, len(u1))  # slots mixed in one batch
        slot[: 3 * len(edges)] = 2
        got = scene.sample_on_emitter(slot, u1, u2)
        with np.errstate(invalid="ignore"):  # the zero-area triangle has no normal
            want = oracles.sample_on_emitter(scene, slot, u1, u2)
        assert np.isnan(want[1]).any()
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

        u = np.concatenate([[0.0, below_one], scene.emitter_cdf, np.nextafter(scene.emitter_cdf, 0.0), rng.random(1000)])
        np.testing.assert_array_equal(scene.pick_emitter(u), oracles.pick_emitter(scene, u))

    @pytest.mark.parametrize("max_bounces", [1, 16])
    def test_photon_emission_equals_the_numpy_wavefront_bytes(self, max_bounces):
        scene = _mixed_emitter_scene()
        with np.errstate(invalid="ignore"):
            want = _wavefront_photons(scene, 4000, max_bounces, Rng(71))
        got = trace_photons(scene, 4000, max_bounces, Rng(71))
        assert len(got) > 1000
        _assert_same_bytes(got, want)

    def test_path_tracer_samples_lights_as_the_numpy_oracle(self, monkeypatch):
        # next-event estimation calls Scene.pick_emitter and
        # Scene.sample_on_emitter; the oracle in their place gives equal bytes
        scene = _mixed_emitter_scene()
        got = render_pt(scene, scene.camera, spp=8, max_depth=4, rng=3)
        monkeypatch.setattr(Scene, "pick_emitter", lambda self, u: oracles.pick_emitter(self, u))
        monkeypatch.setattr(Scene, "sample_on_emitter", lambda self, *a: oracles.sample_on_emitter(self, *a))
        with np.errstate(invalid="ignore"):
            want = render_pt(scene, scene.camera, spp=8, max_depth=4, rng=3)
        assert got.tobytes() == want.tobytes()

    def test_slots_out_of_range_are_refused(self):
        scene = _mixed_emitter_scene()
        for slot in ([3], [-1]):
            with pytest.raises(ValueError, match="emitter slots"):
                scene.sample_on_emitter(np.array(slot), np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError, match="one length"):
            scene.sample_on_emitter(np.zeros(2, dtype=np.intp), np.zeros(2), np.zeros(3))


class TestRadiusSchedule:
    def test_zeroth_iteration_is_initial_radius(self):
        assert sppm_radius(0, 0.02, 0.7) == 0.02

    def test_alpha_one_keeps_radius_constant(self):
        for t in (1, 10, 1000):
            assert sppm_radius(t, 0.02, 1.0) == pytest.approx(0.02, rel=1e-12)

    def test_matches_direct_product_evaluation(self):
        r0, alpha = 0.02, 0.7
        j = np.arange(1, 10_001, dtype=np.float64)
        products = r0 * np.cumprod(np.sqrt((j - 1.0 + alpha) / j))
        samples = list(range(1, 101)) + [250, 500, 1000, 2500, 5000, 10_000]
        for t in samples:
            got = sppm_radius(t, r0, alpha)
            expected = float(products[t - 1])
            assert abs(got - expected) < 1e-12
            assert abs(got - expected) / expected < 1e-12

    def test_matches_gamma_closed_form(self):
        # the product telescopes into a gamma ratio; the lgamma route
        # bounds the recurrence's accumulated rounding drift
        r0, alpha = 0.02, 0.7
        for t in (1, 7, 100, 1000, 10_000):
            expected = r0 * math.exp(0.5 * (math.lgamma(t + alpha) - math.lgamma(alpha) - math.lgamma(t + 1)))
            got = sppm_radius(t, r0, alpha)
            assert abs(got - expected) < 1e-12
            assert abs(got - expected) / expected < 1e-10

    def test_strictly_decreasing_for_alpha_below_one(self):
        r = [sppm_radius(t, 0.02, 0.7) for t in range(200)]
        assert all(b < a for a, b in zip(r, r[1:]))

    def test_first_step_value(self):
        assert sppm_radius(1, 0.02, 0.7) == pytest.approx(0.02 * math.sqrt(0.7), rel=1e-15)

    def test_asymptotic_shrink_rate(self):
        # r(t)^2 * t^(1-alpha) stays bounded above and below
        r0, alpha = 0.02, 0.7
        vals = [sppm_radius(t, r0, alpha) ** 2 * t ** (1.0 - alpha) for t in (100, 1000, 10_000)]
        assert max(vals) / min(vals) < 1.1


class TestKdeGather:
    def _floor_hit(self):
        # the floor point under the light, as a batch of one hit
        scene = _floor_and_light()
        hits = scene.intersect_batch(np.array([[0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, -1.0]]))
        assert hits.valid[0]
        return hits

    def _gather(self, photons, hits, radius, albedo=None):
        albedo = hits.albedo if albedo is None else albedo
        index = PointIndex(photons.positions)
        return kde_gather_batch(index, photons, hits.position, hits.normal, hits.wo, albedo, radius)[0]

    def test_empty_neighborhood_gives_zero(self):
        hits = self._floor_hit()
        none = PhotonMap(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
        np.testing.assert_array_equal(self._gather(none, hits, 0.02), np.zeros(3))

    def test_single_photon_normalization(self):
        hits = self._floor_hit()
        r = 0.02
        flux = math.pi * r * r * math.pi
        photons = PhotonMap(hits.position, np.full((1, 3), flux), np.array([[0.0, 0.0, 1.0]]))
        # gather with unit albedo in place of the floor's
        got = self._gather(photons, hits, r, albedo=np.ones((1, 3)))
        np.testing.assert_allclose(got, np.ones(3), rtol=1e-12)

    def test_doubling_radius_quarters_radiance(self):
        hits = self._floor_hit()
        photons = PhotonMap(hits.position, np.full((1, 3), 0.5), np.array([[0.0, 0.0, 1.0]]))
        a = self._gather(photons, hits, 0.02)
        b = self._gather(photons, hits, 0.04)
        np.testing.assert_allclose(a, 4.0 * b, rtol=1e-12)

    def test_photon_from_below_is_skipped(self):
        hits = self._floor_hit()
        photons = PhotonMap(hits.position, np.full((1, 3), 0.5), np.array([[0.0, 0.0, -1.0]]))
        np.testing.assert_array_equal(self._gather(photons, hits, 0.02), np.zeros(3))


    def test_sums_are_bit_equal_to_unbuffered_add_at(self):
        scene = builtin_scene("cornell-box")
        photons = trace_photons(scene, 20_000, 16, Rng(41))
        index = PointIndex(photons.positions)
        hits = scene.intersect_batch(*scene.camera.with_resolution(24, 24).primary_rays(np.arange(576), np.full((576, 2), 0.5)))
        pos, nrm, wo, albedo = hits.position[hits.valid], hits.normal[hits.valid], hits.wo[hits.valid], hits.albedo[hits.valid]
        r = 0.05
        got = kde_gather_batch(index, photons, pos, nrm, wo, albedo, r)
        flat, splits = index.ball_query_batch(pos, r)
        owner = np.repeat(np.arange(len(pos)), np.diff(splits))
        fr = oracles.eval_bsdf_batch(albedo[owner], nrm[owner], photons.incident[flat], wo[owner])
        expected = np.zeros((len(pos), 3))
        np.add.at(expected, owner, photons.flux[flat] * fr)
        expected /= math.pi * r * r
        assert np.diff(splits).max() > 20
        assert got.tobytes() == expected.tobytes()


    def test_compiled_sum_equals_the_numpy_gather_bytes(self):
        # photons from above and below a floor, points seen from above and
        # below it, and points with no photon in reach
        rng = np.random.default_rng(8)
        n = 4000
        pos = np.column_stack([rng.uniform(-0.5, 0.5, (n, 2)), np.zeros(n)])
        incident = rng.normal(size=(n, 3))
        incident /= np.linalg.norm(incident, axis=1, keepdims=True)
        flux = rng.uniform(0.0, 2.0, (n, 3))
        photons = PhotonMap(pos, flux, incident)
        m = 600
        xs = np.column_stack([rng.uniform(-0.6, 0.6, (m, 2)), np.zeros(m)])
        xs[::7, 0] += 5.0  # out of reach
        normal = np.tile([0.0, 0.0, 1.0], (m, 1))
        wo = rng.normal(size=(m, 3))
        wo /= np.linalg.norm(wo, axis=1, keepdims=True)
        albedo = rng.uniform(0.0, 1.0, (m, 3))
        index = PointIndex(photons.positions)
        r = 0.05
        got = kde_gather_batch(index, photons, xs, normal, wo, albedo, r)
        want = oracles.kde_gather(index, photons, xs, normal, wo, albedo, r)
        assert got.tobytes() == want.tobytes()
        counts = np.diff(index.ball_query_batch(xs, r)[1])
        assert (counts == 0).any() and counts.max() > 20
        assert (incident[:, 2] < 0).any() and (wo[:, 2] < 0).any()
        assert np.all(got[counts == 0] == 0.0) and np.all(got[wo[:, 2] < 0] == 0.0)

        none = PhotonMap(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
        got = kde_gather_batch(PointIndex(none.positions), none, xs, normal, wo, albedo, r)
        want = oracles.kde_gather(PointIndex(none.positions), none, xs, normal, wo, albedo, r)
        assert got.tobytes() == want.tobytes() == np.zeros((m, 3)).tobytes()

    def test_an_index_of_other_points_is_refused(self):
        hits = self._floor_hit()
        photons = PhotonMap(hits.position, np.full((1, 3), 0.5), np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError, match="index holds 2 points for 1 photons"):
            kde_gather_batch(PointIndex(np.zeros((2, 3))), photons, hits.position, hits.normal, hits.wo, hits.albedo, 0.02)


class TestRenderSppm:
    def test_fixed_seed_renders_bitwise_identical(self):
        scene = builtin_scene("cornell-box")
        cam = scene.camera.with_resolution(16, 16)
        cfg = SppmConfig(iterations=2, photons_per_iter=4000, seed=11)
        a = render_sppm(scene, cam, cfg)
        b = render_sppm(scene, cam, cfg)
        np.testing.assert_array_equal(a, b)

    def test_thread_count_does_not_change_bits(self):
        scene = builtin_scene("cornell-box")
        cam = scene.camera.with_resolution(16, 16)
        cfg = SppmConfig(iterations=4, photons_per_iter=3000, seed=12)
        a = render_sppm(scene, cam, cfg, threads=1)
        b = render_sppm(scene, cam, cfg, threads=2)
        np.testing.assert_array_equal(a, b)

    def test_shorter_run_equals_running_mean_of_longer_runs_passes(self):
        scene = builtin_scene("cornell-box")
        cam = scene.camera.with_resolution(12, 12)
        cfg8 = SppmConfig(iterations=8, photons_per_iter=2000, seed=13)

        def frame(t):  # pass t of the T=8 run, built from its parts
            photons, index = _photon_pass(scene, cfg8, t)
            radius = sppm_radius(t, cfg8.initial_radius, cfg8.alpha)
            gather = lambda *points: kde_gather_batch(index, photons, *points, radius)  # noqa: E731
            return _camera_frame(scene, cam, cfg8.seed, t, gather).reshape(12, 12, 3)

        acc, means = np.zeros((12, 12, 3)), {}
        for t in range(8):
            acc += frame(t)
            means[t + 1] = acc / (t + 1)
        np.testing.assert_array_equal(render_sppm(scene, cam, dataclasses.replace(cfg8, iterations=3)), means[3])
        np.testing.assert_array_equal(render_sppm(scene, cam, cfg8), means[8])

    @pytest.mark.parametrize("r0", [0.0, -0.02, math.nan, math.inf])
    def test_initial_radius_must_be_finite_and_positive(self, r0):
        with pytest.raises(ValueError, match="initial_radius must be finite and positive"):
            SppmConfig(iterations=1, photons_per_iter=100, initial_radius=r0)

    @pytest.mark.parametrize("bounces", [0, -1])
    def test_photon_bounce_cap_below_one_is_rejected(self, bounces):
        with pytest.raises(ValueError, match="max_photon_bounces"):
            SppmConfig(iterations=1, photons_per_iter=100, max_photon_bounces=bounces)

    @pytest.mark.parametrize("bounces", [_MAX_CHAIN + 1, 10**6])
    def test_photon_bounce_cap_above_max_chain_is_rejected(self, bounces):
        with pytest.raises(ValueError, match=rf"max_photon_bounces must lie in \[1, 64\], got {bounces}"):
            SppmConfig(iterations=1, photons_per_iter=100, max_photon_bounces=bounces)
        assert SppmConfig(iterations=1, photons_per_iter=100, max_photon_bounces=_MAX_CHAIN).max_photon_bounces == 64

    def test_no_emitters_raises(self):
        scene = _scene(
            [{"type": "quad", "corner": [-1, -1, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "white"}]
        )
        with pytest.raises(ValueError, match="no emitters"):
            render_sppm(scene, scene.camera, SppmConfig(iterations=1, photons_per_iter=100))


class TestReferenceRadiance:
    def test_single_iteration_matches_camera_gather(self):
        # a pixel with no delta prefix (cornell-box has no delta surface):
        # its render equals the reference radiance evaluated at its first
        # hit under the same seed
        scene = builtin_scene("cornell-box")
        cam = scene.camera.with_resolution(8, 8)
        cfg = SppmConfig(iterations=1, photons_per_iter=5000, seed=21)
        img = render_sppm(scene, cam, cfg)
        pixel_ids, keys, ctrs, o, d = _camera_rays(cam, cfg.seed, 0)
        fd = trace_to_first_diffuse(scene, o, d, keys, ctrs)
        sel = np.nonzero(fd.found)[0]
        assert len(sel) > 0
        sel = sel[:10]
        assert np.all(fd.beta[sel] == 1.0)
        lref = reference_radiance_at_points(scene, fd.position[sel], fd.normal[sel], fd.wo[sel], fd.albedo[sel], cfg)
        for row, i in enumerate(sel):
            y, x = divmod(int(pixel_ids[i]), 8)
            np.testing.assert_allclose(lref[row], img[y, x], atol=1e-9)

    def test_point_in_shadow_is_dark(self):
        # a wide occluder between light and floor: the floor right below
        # receives (almost) nothing
        scene = _scene(
            [
                {"type": "quad", "corner": [-1, -1, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "white"},
                {"type": "quad", "corner": [-0.8, -0.8, 0.5], "edge_u": [1.6, 0, 0], "edge_v": [0, 1.6, 0],
                 "material": "white"},
                {"type": "quad", "corner": [-0.1, -0.1, 1], "edge_u": [0, 0.2, 0], "edge_v": [0.2, 0, 0],
                 "material": "lamp", "emission": [10, 10, 10]},
            ]
        )
        cfg = SppmConfig(iterations=4, photons_per_iter=20_000, seed=4)
        up = np.array([[0.0, 0.0, 1.0]])
        lref = reference_radiance_at_points(scene, np.zeros((1, 3)), up, up, np.full((1, 3), 0.7), cfg)
        assert float(lref.max()) < 1e-3

    def test_single_iteration_config_equals_one_pass_mean(self):
        # one pass: its gather at r0; two passes: the mean of both passes'
        # gathers, each at its own radius
        from photonfield.integrators import _photon_pass

        scene = builtin_scene("cornell-box")
        _, keys, ctrs, o, d = _camera_rays(scene.camera.with_resolution(8, 8), 3, 0)
        fd = trace_to_first_diffuse(scene, o, d, keys, ctrs)
        pts = [a[fd.found] for a in (fd.position, fd.normal, fd.wo, fd.albedo)]
        cfg = SppmConfig(iterations=1, photons_per_iter=3000, initial_radius=0.1, seed=5)

        def gather(t):
            photons, index = _photon_pass(scene, cfg, t)
            return kde_gather_batch(index, photons, *pts, sppm_radius(t, cfg.initial_radius, cfg.alpha))

        gathers = [gather(0), gather(1)]
        assert np.count_nonzero(gathers[0]) and not np.array_equal(gathers[0], gathers[1])
        one = reference_radiance_at_points(scene, *pts, cfg)
        assert one.tobytes() == gathers[0].tobytes()
        two = reference_radiance_at_points(scene, *pts, dataclasses.replace(cfg, iterations=2))
        assert two.tobytes() == ((gathers[0] + gathers[1]) / 2).tobytes()


class TestPathTracer:
    def test_furnace_box_is_flat(self):
        # closed unit-albedo box with every wall emitting: the (depth-
        # truncated) radiance field is the same constant everywhere
        walls = []
        quads = [
            ([-1, -1, -1], [2, 0, 0], [0, 2, 0]),
            ([-1, -1, 1], [0, 2, 0], [2, 0, 0]),
            ([-1, 1, -1], [2, 0, 0], [0, 0, 2]),
            ([-1, -1, -1], [0, 2, 0], [0, 0, 2]),
            ([1, -1, -1], [0, 0, 2], [0, 2, 0]),
            ([-1, -1, -1], [0, 0, 2], [2, 0, 0]),
        ]
        for corner, eu, ev in quads:
            walls.append(
                {"type": "quad", "corner": corner, "edge_u": eu, "edge_v": ev, "material": "unit",
                 "emission": [1.0, 1.0, 1.0]}
            )
        scene = _scene(
            walls,
            materials={"unit": {"type": "diffuse", "albedo": [1.0, 1.0, 1.0]}},
            camera={"position": [0, 0, 0], "look_at": [0.2, 1, 0.1], "up": [0, 0, 1], "vfov": 60.0,
                    "resolution": [16, 16]},
        )
        img_a = render_pt(scene, scene.camera, spp=128, max_depth=5, rng=1)
        img_b = render_pt(scene, scene.camera, spp=128, max_depth=5, rng=2)
        mean = 0.5 * (img_a + img_b)
        sigma_px = np.std(img_a - img_b) / math.sqrt(2.0)
        dev = np.abs(mean.mean(axis=2) - mean.mean())
        # per-pixel deviation bounded by a few standard errors of the
        # two-render mean; 16x16x3 samples make 5 sigma a safe cap
        assert float(dev.max()) < 5.0 * sigma_px / math.sqrt(2.0) + 1e-9
        assert np.std(mean) / mean.mean() < 0.05

    def test_direct_lighting_matches_quadrature(self):
        scene = _floor_and_light(emission=5.0, light_half=0.25, light_z=1.0, albedo=0.6)
        img = render_pt(scene, scene.camera, spp=4096, max_depth=2, rng=3)
        center = img[4, 4]
        # the camera's center pixel sees the floor point below the origin
        e = _quad_irradiance_at(
            np.array([0.0, 0.0, 0.0]), np.array([-0.25, -0.25, 1.0]), np.array([0.0, 0.5, 0.0]),
            np.array([0.5, 0.0, 0.0]), 5.0,
        )
        expected = 0.6 / math.pi * e
        assert float(center.mean()) == pytest.approx(expected, rel=0.02)

    def test_sample_count_partition_is_unbiased(self):
        scene = builtin_scene("cornell-box")
        cam = scene.camera.with_resolution(16, 16)
        a = render_pt(scene, cam, spp=24, max_depth=6, rng=10)
        b = render_pt(scene, cam, spp=8, max_depth=6, rng=11)
        combined = (24 * a + 8 * b) / 32.0
        direct = render_pt(scene, cam, spp=32, max_depth=6, rng=12)
        diff = combined - direct
        sigma_mean = float(np.std(diff)) / math.sqrt(diff.size)
        assert abs(float(diff.mean())) < 3.0 * sigma_mean

    def test_fixed_seed_and_threads_reproduce_bits(self):
        scene = builtin_scene("cornell-box")
        cam = scene.camera.with_resolution(12, 12)
        a = render_pt(scene, cam, spp=8, max_depth=6, rng=9, threads=1)
        b = render_pt(scene, cam, spp=8, max_depth=6, rng=9, threads=2)
        np.testing.assert_array_equal(a, b)

    def test_chunks_summed_on_three_threads_reproduce_one_threads_bytes(self):
        # 256x256 puts (1 << 17) // (w * h) = 2 samples in a chunk, so spp 6 is three chunks
        scene = builtin_scene("cornell-box")
        cam = scene.camera.with_resolution(256, 256)
        a = render_pt(scene, cam, spp=6, max_depth=2, rng=9, threads=1)
        b = render_pt(scene, cam, spp=6, max_depth=2, rng=9, threads=3)
        assert a.tobytes() == b.tobytes()

    def test_spp_must_be_positive(self):
        scene = builtin_scene("cornell-box")
        with pytest.raises(ValueError):
            render_pt(scene, scene.camera, spp=0)

    @pytest.mark.parametrize("max_depth", [0, -1])
    def test_depth_cap_below_one_is_rejected(self, max_depth):
        scene = builtin_scene("cornell-box")
        with pytest.raises(ValueError, match="max_depth"):
            render_pt(scene, scene.camera, spp=1, max_depth=max_depth)


class TestRenderGpf:
    def test_empty_field_shows_only_emitters(self):
        scene = builtin_scene("cornell-box")
        cam = scene.camera.with_resolution(16, 16)
        field = GaussianField(np.zeros((0, 3)), np.zeros((0, 4)), np.zeros((0, 3)), np.zeros((0, 3)))
        img = render_gpf(scene, cam, field, spp=1, seed=0)
        lit = img.max(axis=2) > 0
        # the lamp is occluded from the outside camera in this box; direct
        # emitter visibility is the only possible contribution
        assert lit.sum() == 0 or np.all(img[lit].max(axis=1) <= 12.0 + 1e-9)

    def test_field_matching_gathered_radiance_reproduces_sppm_frame(self):
        # build one primitive per first-diffuse hit carrying exactly the
        # photon-gathered radiance: the field render must equal the photon
        # render bit for bit (same camera pass, same throughput logic)
        scene = builtin_scene("caustic-sphere")
        cam = scene.camera.with_resolution(16, 16)
        cfg = SppmConfig(iterations=1, photons_per_iter=20_000, seed=31)
        sppm_img = render_sppm(scene, cam, cfg)

        from photonfield.integrators import _photon_pass

        photons, index = _photon_pass(scene, cfg, 0)
        pixel_ids, keys, ctrs, o, d = _camera_rays(cam, cfg.seed, 0)
        fd = trace_to_first_diffuse(scene, o, d, keys, ctrs)
        found = np.nonzero(fd.found)[0]
        gathered = kde_gather_batch(
            index, photons, fd.position[found], fd.normal[found], fd.wo[found], fd.albedo[found],
            cfg.initial_radius,
        )
        n = len(found)
        quats = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (n, 1))
        field = GaussianField(
            fd.position[found], quats, np.full((n, 3), np.log(1e-5)), gathered, radius=0.02, k_min=3
        )
        gpf_img = render_gpf(scene, cam, field, spp=1, seed=cfg.seed)
        np.testing.assert_array_equal(gpf_img, sppm_img)

    def test_fixed_seed_and_threads_reproduce_bits(self):
        scene = builtin_scene("cornell-box")
        cam = scene.camera.with_resolution(12, 12)
        photons = trace_photons(scene, 2000, 16, Rng(1))
        field = GaussianField.from_photons(photons, rng=Rng(2))
        a = render_gpf(scene, cam, field, spp=2, seed=3, threads=1)
        b = render_gpf(scene, cam, field, spp=2, seed=3, threads=2)
        np.testing.assert_array_equal(a, b)

    def test_bsdf_modulation_darkens_only_diffuse_hits(self):
        scene = builtin_scene("cornell-box")
        c = scene.camera  # widened so that the open front of the box shows pixels that miss it
        cam = Camera(c.position, c.look_at, c.up, 60.0, (16, 16))
        field = GaussianField.from_photons(trace_photons(scene, 2000, 16, Rng(1)), rng=Rng(2))
        assert np.all(field.flux >= 0.0)
        plain = render_gpf(scene, cam, field, spp=1, seed=5).reshape(-1, 3)
        modulated = render_gpf(scene, cam, field, spp=1, seed=5, bsdf_modulation=True).reshape(-1, 3)
        _, keys, ctrs, o, d = _camera_rays(cam, 5, 0)
        found = trace_to_first_diffuse(scene, o, d, keys, ctrs).found
        assert 0 < found.sum() < len(found)
        np.testing.assert_array_equal(modulated[~found], plain[~found])
        # every diffuse albedo in the box is below one and the field is non-negative
        assert np.all(modulated[found] <= plain[found])
        assert np.any(modulated[found] < plain[found])

    def test_negative_flux_clamped_at_pixel(self):
        scene = builtin_scene("cornell-box")
        cam = scene.camera.with_resolution(8, 8)
        photons = trace_photons(scene, 500, 16, Rng(1))
        field = GaussianField.from_photons(photons, rng=Rng(2))
        field.flux[:] = -1.0
        img = render_gpf(scene, cam, field, spp=1, seed=0)
        assert np.all(img >= 0.0)
