"""Scenes: intersection, BSDFs, emitters, and JSON round trips."""

import copy
import ctypes
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import oracles
from photonfield import core, geometry
from photonfield.core import Rng
from photonfield.field import GaussianField
from photonfield.photons import trace_photons
from photonfield.spatial import PointIndex
from photonfield.scene import (
    DIELECTRIC,
    DIFFUSE,
    MIRROR,
    Camera,
    Hits,
    Material,
    Scene,
    SceneParseError,
    SceneValidationError,
    Shape,
    TriangleMesh,
    builtin_scene,
    load_scene,
    sample_bsdf_batch,
    save_scene,
    scene_from_dict,
    scene_to_dict,
)


def _single_shape_scene(shape, extra_materials=None, camera=None):
    mats = {"white": {"type": "diffuse", "albedo": [0.7, 0.7, 0.7]}}
    if extra_materials:
        mats.update(extra_materials)
    cam = camera or {
        "position": [0, -3, 0],
        "look_at": [0, 0, 0],
        "up": [0, 0, 1],
        "vfov": 40.0,
        "resolution": [16, 16],
    }
    return scene_from_dict({"camera": cam, "materials": mats, "shapes": [shape]})


def _hit(scene, o, d):
    """``intersect_batch`` on a batch of one ray."""
    return scene.intersect_batch(np.asarray(o, dtype=np.float64)[None], np.asarray(d, dtype=np.float64)[None])


def _sample_one(hits, rng):
    """``sample_bsdf_batch`` on a batch of one hit, with three draws of ``rng``."""
    wi, weight, is_delta, _ = sample_bsdf_batch(hits, *rng.uniform(3)[:, None])
    return wi[0], weight[0], bool(is_delta[0])


def _eval_one(hits, wi):
    """``eval_bsdf_batch`` on a batch of one hit, toward ``wi``."""
    return oracles.eval_bsdf_batch(hits.albedo, hits.normal, np.asarray(wi)[None], hits.wo)[0]


def _emission(scene, seed, n):
    """The numpy emission oracle on ``n`` fresh streams folded from ``Rng(seed)``; the
    photon tracer's compiled emission equals it bit for bit (``TestEmitterSampler``)."""
    keys = core.fold_key(Rng(seed).key, np.arange(n, dtype=np.uint64))
    return oracles.sample_light_emission(scene, keys, np.zeros(n, dtype=np.uint64))


def _assert_walks_equal_the_numpy_scan(g, o, d):
    """``intersect`` and ``intersect_linear`` give the numpy scan's bytes; returns them."""
    t_o, p_o = oracles.intersect_linear(g, o, d)
    for t, p in (g.intersect(o, d), g.intersect_linear(o, d)):
        np.testing.assert_array_equal(p, p_o)
        assert t.tobytes() == t_o.tobytes() and p.tobytes() == p_o.tobytes()
    return t_o, p_o


class TestIntersection:
    def test_axis_ray_hits_unit_sphere_analytically(self):
        scene = _single_shape_scene({"type": "sphere", "center": [0, 0, 5], "radius": 1.0, "material": "white"})
        hits = _hit(scene, np.zeros(3), [0.0, 0.0, 1.0])
        assert hits.valid[0]
        assert hits.t[0] == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_allclose(hits.normal[0], [0.0, 0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(hits.position[0], [0.0, 0.0, 4.0], atol=1e-12)

    def test_degenerate_triangle_builds_without_warnings_and_is_never_hit(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scene = _single_shape_scene(
                {"type": "mesh", "vertices": [[0, 0, 0], [1, 0, 0], [2, 0, 0]], "indices": [[0, 1, 2]], "material": "white"}
            )
        np.testing.assert_array_equal(scene.geometry._normals, np.zeros((1, 3)))
        assert not _hit(scene, [0.5, 0.0, 1.0], [0.0, 0.0, -1.0]).valid[0]

    def test_ray_parallel_to_quad_misses(self):
        scene = _single_shape_scene(
            {"type": "quad", "corner": [-1, -1, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "white"}
        )
        hits = _hit(scene, [0.0, -2.0, 0.5], [0.0, 1.0, 0.0])
        assert not hits.valid[0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["cornell-box", "caustic-sphere", "caustic-pool"])
    def test_bvh_matches_brute_force_on_random_rays(self, name):
        scene = builtin_scene(name)
        g = scene.geometry
        rng = np.random.default_rng(42)
        n = 10_000
        o = rng.uniform(-2.0, 2.0, (n, 3))
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        # one or two direction components +0.0 or -0.0 (1 / d is then +-inf)
        zd = d[: n // 4].copy()
        rows, first = np.arange(len(zd)), rng.integers(0, 3, len(zd))
        zd[rows, first] = rng.choice([0.0, -0.0], len(zd))
        zd[rows[::2], (first[::2] + 1) % 3] = -0.0
        zd /= np.linalg.norm(zd, axis=1, keepdims=True)
        # axis-aligned rays from points on the bounding planes of every node
        # (0 * inf in the slab test), travelling along another axis
        nodes = np.repeat(np.arange(len(g.node_lo)), 12)
        ob = rng.uniform(g.node_lo[nodes], g.node_hi[nodes])
        axis = rng.integers(0, 3, len(nodes))
        plane = np.where(rng.random(len(nodes)) < 0.5, g.node_lo[nodes, axis], g.node_hi[nodes, axis])
        ob[np.arange(len(nodes)), axis] = plane
        db = np.zeros_like(ob)
        db[np.arange(len(nodes)), axis] = rng.choice([0.0, -0.0], len(nodes))
        db[np.arange(len(nodes)), (axis + rng.integers(1, 3, len(nodes))) % 3] = rng.choice([-1.0, 1.0], len(nodes))
        o = np.concatenate([o, o[: len(zd)], ob])
        d = np.concatenate([d, zd, db])
        t_l, p_l = _assert_walks_equal_the_numpy_scan(g, o, d)
        assert np.any(p_l[-len(ob):] >= 0)

    def test_equal_t_hits_resolve_to_first_primitive_in_perm_order(self, cornell_box_dict):
        # every shape twice: each ray that hits one twin hits the other at the same t
        data = cornell_box_dict
        data["shapes"] = data["shapes"] + data["shapes"]
        g = scene_from_dict(data).geometry
        rng = np.random.default_rng(5)
        n = 5000
        o = rng.uniform(-0.9, 0.9, (n, 3))
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        t_b, p_b = _assert_walks_equal_the_numpy_scan(g, o, d)
        half = len(g) // 2
        twin = np.where(p_b < half, p_b + half, p_b - half)
        rank = np.argsort(g.perm)
        hit = p_b >= 0
        assert np.all(rank[p_b[hit]] < rank[twin[hit]])
        # the twins of some hits sit in another leaf, after the winner's
        leaf_of = np.searchsorted(g.node_start[g.node_count > 0], rank, side="right")
        assert np.any(leaf_of[p_b[hit]] != leaf_of[twin[hit]])

    def test_bvh_nodes_are_numbered_in_pre_order(self):
        for name in ("cornell-box", "caustic-sphere", "caustic-pool"):
            g = builtin_scene(name).geometry
            inner = g.node_count == 0
            # a node is inner exactly when it has a right child, so no leaf is empty
            np.testing.assert_array_equal(inner, g.node_right >= 0)
            assert np.all(g.node_count[~inner] >= 1)

            def size(node):  # the left child of an inner node is node + 1
                return 1 + size(node + 1) + size(g.node_right[node]) if inner[node] else 1

            for node in np.nonzero(inner)[0]:
                assert g.node_right[node] == node + 1 + size(node + 1)
            assert size(0) == len(g.node_lo)
            leaves = np.nonzero(~inner)[0]
            assert g.node_start[leaves][0] == 0
            np.testing.assert_array_equal(np.cumsum(g.node_count[leaves])[:-1], g.node_start[leaves][1:])
            np.testing.assert_array_equal(np.sort(g.perm), np.arange(len(g)))

    def test_faceless_mesh_is_rejected_before_the_bvh(self):
        mesh = Shape(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.intp)), "white")
        with pytest.raises(ValueError, match="^geometry has no primitives$"):
            Scene(builtin_scene("cornell-box").camera, {"white": Material.diffuse([0.5, 0.5, 0.5])}, [mesh])

    def test_tree_deeper_than_the_traversal_stack_is_rejected(self, monkeypatch):
        monkeypatch.setattr(geometry, "_STACK_MAX", 2)
        with pytest.raises(ValueError, match="levels deep"):
            builtin_scene("cornell-box")

    def test_concurrent_queries_give_identical_bytes(self):
        g = builtin_scene("caustic-pool").geometry
        rng = np.random.default_rng(8)
        n = 60_000
        o = rng.uniform(-2.0, 2.0, (n, 3))
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        serial = [g.intersect(o[i::2], d[i::2]) for i in range(2)]
        with ThreadPoolExecutor(2) as pool:
            for _ in range(3):
                parallel = list(pool.map(lambda i: g.intersect(o[i::2], d[i::2]), range(2)))
                for (t_s, p_s), (t_p, p_p) in zip(serial, parallel):
                    assert t_s.tobytes() == t_p.tobytes() and p_s.tobytes() == p_p.tobytes()

    def test_reintersection_from_hit_point_skips_same_surface(self):
        scene = builtin_scene("cornell-box")
        rng = np.random.default_rng(1)
        n = 2000
        o = rng.uniform(-0.9, 0.9, (n, 3))
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        t, p = scene.geometry.intersect(o, d)
        hit = p >= 0
        o2 = o[hit] + t[hit, None] * d[hit] + 1e-7 * d[hit]
        t2, p2 = scene.geometry.intersect(o2, d[hit])
        same = (p2 == p[hit]) & (t2 < 1e-4)
        assert not np.any(same)


class TestCompiledKernel:
    """The C kernels are one library, compiled into a cache keyed by every source and header, once."""

    def _rays(self):
        return np.array([[0.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0]])

    def test_cache_is_keyed_by_the_source_and_reused(self, tmp_path, monkeypatch):
        scene = builtin_scene("caustic-sphere")
        photons = trace_photons(scene, 200, 8, Rng(2))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        compiled = []
        real_compile = geometry._compile
        monkeypatch.setattr(geometry, "_compile", lambda cc, path: (compiled.append(path), real_compile(cc, path)))
        g = scene.geometry
        expected = oracles.intersect_linear(g, *self._rays())
        pts = np.random.default_rng(0).uniform(-1, 1, (50, 3))

        def ray_query():
            monkeypatch.setattr(geometry, "_lib", None)
            np.testing.assert_array_equal(g.intersect(*self._rays())[1], expected[1])

        def neighbour_query():
            monkeypatch.setattr(geometry, "_lib", None)
            np.testing.assert_array_equal(PointIndex(pts).knn_query_batch(pts[:1], 3)[0], oracles.linear_knn_query(pts, pts[0], 3)[0])

        def photon_pass():
            monkeypatch.setattr(geometry, "_lib", None)
            assert trace_photons(scene, 200, 8, Rng(2)).positions.tobytes() == photons.positions.tobytes()

        field = GaussianField(pts, np.tile([1.0, 0.0, 0.0, 0.0], (50, 1)), np.full((50, 3), -2.0), np.ones((50, 3)))
        rows = (pts[:2], np.array([0, 1, 2]), np.array([0, 2, 3]))

        def field_pass():
            monkeypatch.setattr(geometry, "_lib", None)
            assert field._forward(*rows)[0].tobytes() == oracles.forward(field, *rows)[0].tobytes()

        ray_query()
        cache = tmp_path / "photonfield"
        assert len(compiled) == 1 and sorted(p.name for p in cache.iterdir()) == [os.path.basename(compiled[0])]
        ray_query()
        neighbour_query()
        photon_pass()
        field_pass()
        assert len(compiled) == 1
        queries = {"_bvh.c": ray_query, "_spatial.c": neighbour_query, "_photons.c": photon_pass, "_field.c": field_pass}
        assert [os.path.basename(p) for p in geometry._SOURCES] == list(queries)
        for k, (name, query) in enumerate(queries.items()):
            # the edited copy lives outside the package and still finds _bvh.h
            edited = tmp_path / name
            edited.write_text(open(geometry._SOURCES[k]).read() + "/* edited */\n")
            sources = list(geometry._SOURCES)
            sources[k] = str(edited)
            monkeypatch.setattr(geometry, "_SOURCES", tuple(sources))
            query()
            assert len(compiled) == 2 + k and compiled[-1] not in compiled[:-1]
        header = tmp_path / "_bvh.h"
        header.write_text(open(geometry._HEADERS[0]).read() + "/* edited */\n")
        monkeypatch.setattr(geometry, "_HEADERS", (str(header),))
        photon_pass()
        assert len(compiled) == 6 and compiled[-1] not in compiled[:-1]
        assert sorted(p.name for p in cache.iterdir()) == sorted(os.path.basename(p) for p in compiled)

    def test_prune_deletes_only_stale_libraries(self, tmp_path):
        names = ["kernels-old.so", "bvh-old.so", "kernels-keep.so", "kernels-fresh.so", "notes-old.so", "kernels-old.tmp"]
        for name in names:
            (tmp_path / name).write_bytes(b"")
            if "fresh" not in name:
                os.utime(tmp_path / name, (0, 0))
        geometry._prune_cache(str(tmp_path), str(tmp_path / "kernels-keep.so"))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names[2:])

    def test_build_prunes_stale_libraries_and_a_warm_load_only_touches(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = tmp_path / "photonfield"
        cache.mkdir()
        day = 24 * 3600
        for name, age in (("kernels-stale.so", 8 * day), ("bvh-stale.so", 30 * day), ("kernels-other.so", 6 * day)):
            (cache / name).write_bytes(b"")
            os.utime(cache / name, (time.time() - age,) * 2)
        monkeypatch.setattr(geometry, "_lib", None)
        built = geometry.load_kernels()._name
        # another install's library loaded six days ago survives; the stale ones and nothing else go
        assert sorted(p.name for p in cache.iterdir()) == sorted(["kernels-other.so", os.path.basename(built)])
        os.utime(built, (0, 0))
        monkeypatch.setattr(geometry, "_lib", None)
        monkeypatch.setattr(geometry, "_prune_cache", lambda *a: pytest.fail("pruned on a warm cache"))
        assert geometry.load_kernels()._name == built
        assert time.time() - os.stat(built).st_mtime < day

    def test_exported_kernels_are_the_prototypes(self):
        # a kernel no prototype declares is dead code, and a prototype of no kernel a dead entry
        nm = shutil.which("nm")
        if nm is None:
            pytest.skip("no nm on PATH")
        out = subprocess.run([nm, "-D", "--defined-only", geometry.load_kernels()._name], capture_output=True, text=True, check=True).stdout
        exported = {f[2] for f in (line.split() for line in out.splitlines()) if len(f) == 3 and f[1] == "T" and f[2].startswith("pf_")}
        assert exported == set(geometry._PROTOTYPES)

    def test_tables_are_type_checked(self):
        # each kernel takes a table by typed pointer, so a wrong one is refused before any memory is read
        lib = geometry.load_kernels()
        scene = builtin_scene("caustic-sphere")
        rays = self._rays()
        o, d = (a.ctypes.data for a in rays)
        best_t, best_p = np.full(1, np.inf), np.full(1, -1, dtype=np.intp)
        tree = PointIndex(np.zeros((4, 3)))._tree
        with pytest.raises(ctypes.ArgumentError, match="argument 7"):
            lib.pf_intersect(1, o, d, geometry.T_MIN, best_t.ctypes.data, best_p.ctypes.data, tree)
        with pytest.raises(ctypes.ArgumentError, match="argument 1"):
            lib.pf_knn(scene.geometry._table, 1, o, 1, best_p.ctypes.data, best_t.ctypes.data)
        keys = np.zeros(1, dtype=np.uint64)
        out = np.empty((4, 3))
        records = (out.ctypes.data, out.ctypes.data, out.ctypes.data, keys.ctypes.data, best_p.ctypes.data)
        with pytest.raises(ctypes.ArgumentError, match="argument 6"):
            lib.pf_trace_photons(
                1, 0, keys.ctypes.data, 4, geometry.T_MIN, scene._shading, scene._shading, scene._emitters, 4, *records
            )
        with pytest.raises(ctypes.ArgumentError, match="argument 8"):
            lib.pf_trace_photons(
                1, 0, keys.ctypes.data, 4, geometry.T_MIN, scene.geometry._table, scene._shading, scene._shading, 4,
                *records,
            )
        with pytest.raises(ctypes.ArgumentError, match="argument 1"):
            lib.pf_pick_emitter(scene._shading, 1, best_t.ctypes.data, best_p.ctypes.data)
        hits = scene.intersect_batch(*rays).table()
        with pytest.raises(ctypes.ArgumentError, match="argument 6"):
            lib.pf_shade_hits(scene.geometry._table, scene._shading, o, d, best_p.ctypes.data, scene._shading)
        with pytest.raises(ctypes.ArgumentError, match="argument 1"):
            lib.pf_sample_bsdf(scene._shading, *(out.ctypes.data,) * 7)
        lib.pf_sample_bsdf(hits, *(out.ctypes.data,) * 7)
        with pytest.raises(ctypes.ArgumentError, match="argument 1"):
            lib.pf_sample_on_emitter(scene.geometry._table, 1, best_p.ctypes.data, o, o, out.ctypes.data, out.ctypes.data)
        field = GaussianField(np.zeros((1, 3)), [[1.0, 0.0, 0.0, 0.0]], np.zeros((1, 3)), np.ones((1, 3)))
        table, batch = field._forward(np.zeros((1, 3)), np.array([0]), np.array([0, 1]))[1]
        with pytest.raises(ctypes.ArgumentError, match="argument 1"):
            lib.pf_field_terms(batch, batch)
        with pytest.raises(ctypes.ArgumentError, match="argument 2"):
            lib.pf_field_backward(table, table, *(out.ctypes.data,) * 5)
        with pytest.raises(ctypes.ArgumentError, match="argument 1"):
            lib.pf_adam_step(table, 1.0, 1.0)

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler 'cc' on PATH")
    def test_tables_mirror_the_c_structs(self, tmp_path):
        # kernels that only pass a member back to themselves would not notice two same-typed members swapped
        tables = [("_bvh.h", "pf_bvh", geometry.BvhTable), ("_photons.c", "pf_shading", geometry.ShadingTable),
                  ("_photons.c", "pf_hits", geometry.HitsTable), ("_photons.c", "pf_emitters", geometry.EmitterTable),
                  ("_spatial.c", "pf_kdtree", geometry.KdTreeTable), ("_field.c", "pf_field", geometry.FieldTable),
                  ("_field.c", "pf_batch", geometry.BatchTable), ("_field.c", "pf_adam", geometry.AdamTable)]
        for src, struct, table in tables:
            checks = [f"_Static_assert(sizeof(struct {struct}) == {ctypes.sizeof(table)}, \"size\");"]
            for name, _ in table._fields_:
                offset = getattr(table, name).offset
                checks.append(f"_Static_assert(offsetof(struct {struct}, {name}) == {offset}, \"{name}\");")
            path = tmp_path / f"{struct}.c"
            path.write_text(f'#include <stddef.h>\n#include "{src}"\n' + "\n".join(checks) + "\n")
            res = subprocess.run(["cc", "-fsyntax-only", "-I", geometry._DIR, str(path)], capture_output=True, text=True)
            assert res.returncode == 0, f"{table.__name__} does not mirror struct {struct}:\n{res.stderr}"

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler 'cc' on PATH")
    def test_sources_compile_without_warnings(self, tmp_path):
        flags = [f for f in geometry._CFLAGS if f != "-shared"] + ["-Wall", "-Wextra", "-Werror", "-I", geometry._DIR]
        assert {os.path.basename(src) for src in geometry._SOURCES} == {"_bvh.c", "_spatial.c", "_photons.c", "_field.c"}
        # -U__SSE2__ builds the portable loops that stand in for SSE2 code elsewhere
        builds = [(src, []) for src in geometry._SOURCES] + [(os.path.join(geometry._DIR, "_field.c"), ["-U__SSE2__"])]
        for src, extra in builds:
            res = subprocess.run(["cc", *flags, *extra, "-c", src, "-o", str(tmp_path / "k.o")], capture_output=True, text=True)
            assert (res.returncode, res.stderr) == (0, ""), f"{src} {extra}:\n{res.stderr}"

    def test_missing_compiler_is_named(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.setattr(geometry, "_lib", None)
        g = builtin_scene("caustic-sphere").geometry
        with pytest.raises(RuntimeError, match="'cc'"):
            g.intersect(*self._rays())
        with pytest.raises(RuntimeError, match="'cc'"):
            PointIndex(np.zeros((4, 3)))
        with pytest.raises(RuntimeError, match="'cc'"):
            trace_photons(builtin_scene("caustic-sphere"), 10, 4, Rng(0))


class TestBsdf:
    def _interaction(self, scene):
        hits = _hit(scene, [0.0, 0.0, 2.0], [0.0, 0.0, -1.0])
        assert hits.valid[0]
        return hits

    def test_mirror_obeys_law_of_reflection(self):
        scene = _single_shape_scene(
            {"type": "quad", "corner": [-1, -1, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "m"},
            extra_materials={"m": {"type": "mirror", "reflectance": [0.9, 0.8, 0.7]}},
        )
        d = core.normalize(np.array([0.3, 0.1, -1.0]))
        hits = _hit(scene, [-0.6, -0.2, 2.0], d)
        wi, weight, is_delta = _sample_one(hits, Rng(0))
        n = hits.normal[0]
        expected = d - 2 * (d @ n) * n
        np.testing.assert_allclose(wi, expected, atol=1e-12)
        np.testing.assert_allclose(weight, [0.9, 0.8, 0.7])
        assert is_delta

    _M = 4000  # stratified u3 draws per incidence angle

    def _reflect_share(self, make_hits, cos_i, entering):
        """The share of ``_M`` stratified draws that ``sample_bsdf_batch`` reflects at a
        glass (ior 1.5) hit seen at incidence cosine ``cos_i``, entering or leaving the glass."""
        m = self._M
        wo = np.tile([math.sqrt(1.0 - cos_i * cos_i), 0.0, cos_i], (m, 1))
        hits = make_hits(np.tile([0.0, 0.0, 1.0], (m, 1)), wo, DIELECTRIC, entering=np.full(m, entering))
        wi, weight, is_delta, pdf = sample_bsdf_batch(hits, np.zeros(m), np.zeros(m), (np.arange(m) + 0.5) / m)
        # every draw is a delta lobe of weight 1: reflected (above the surface) or refracted (below it)
        np.testing.assert_array_equal(weight, 1.0)
        assert np.all(is_delta) and np.all(pdf == 0.0) and np.all(wi[:, 2] != 0.0)
        np.testing.assert_allclose(np.linalg.norm(wi, axis=1), 1.0, atol=1e-12)
        return float(np.mean(wi[:, 2] > 0.0))

    def test_fresnel_normal_incidence_matches_closed_form(self, make_hits):
        # ((n-1)/(n+1))^2 at cos=1 for n=1.5, from either side
        f = ((1.5 - 1.0) / (1.5 + 1.0)) ** 2
        assert float(oracles.fresnel_reflectance(1.0, 1.5, True)) == pytest.approx(f, abs=1e-6)
        for entering in (True, False):
            assert self._reflect_share(make_hits, 1.0, entering) == pytest.approx(f, abs=1.0 / self._M)

    def test_fresnel_energy_split_sums_to_one(self, make_hits):
        # a draw reflects with probability F and refracts otherwise, F as the
        # numpy oracle gives it (1 past the critical angle on the way out)
        for entering in (True, False):
            for cos in np.linspace(0.05, 1.0, 20):
                f = float(oracles.fresnel_reflectance(cos, 1.5, entering))
                assert 0.0 <= f <= 1.0
                assert self._reflect_share(make_hits, cos, entering) == pytest.approx(f, abs=1.0 / self._M)

    def test_fresnel_grazing_goes_to_one(self, make_hits):
        assert self._reflect_share(make_hits, 1e-9, True) == 1.0
        assert float(oracles.fresnel_reflectance(0.0, 1.5, True)) == pytest.approx(1.0, abs=1e-9)

    def test_total_internal_reflection_reflects(self):
        # shallow internal hit beyond the critical angle: no refraction branch
        scene = _single_shape_scene(
            {"type": "sphere", "center": [0, 0, 0], "radius": 1.0, "material": "g"},
            extra_materials={"g": {"type": "dielectric", "ior": 1.5}},
        )
        o = np.array([0.9, 0.0, 0.0])
        d = np.array([0.0, 1.0, 0.0])
        hits = _hit(scene, o, d)
        assert not hits.entering[0]
        n = hits.normal[0]
        cos_i = float(hits.wo[0] @ n)
        sin2_t = 1.5**2 * (1.0 - cos_i**2)
        assert sin2_t > 1.0  # configured beyond the critical angle
        wi, weight, is_delta = _sample_one(hits, Rng(3))
        assert is_delta
        np.testing.assert_allclose(weight, 1.0)
        expected = d - 2 * (d @ n) * n
        np.testing.assert_allclose(wi, expected, atol=1e-12)

    def test_diffuse_weight_is_albedo_for_every_sample(self):
        scene = _single_shape_scene(
            {"type": "quad", "corner": [-1, -1, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "m"},
            extra_materials={"m": {"type": "diffuse", "albedo": [0.5, 0.5, 0.5]}},
        )
        hits = self._interaction(scene)
        rng = Rng(4)
        for _ in range(100):
            wi, weight, is_delta = _sample_one(hits, rng)
            np.testing.assert_array_equal(weight, [0.5, 0.5, 0.5])
            assert not is_delta
            assert float(wi @ hits.normal[0]) > 0.0

    def test_eval_diffuse_is_albedo_over_pi(self):
        scene = _single_shape_scene(
            {"type": "quad", "corner": [-1, -1, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "m"},
            extra_materials={"m": {"type": "diffuse", "albedo": [0.9, 0.3, 0.3]}},
        )
        hits = self._interaction(scene)
        wi = core.normalize(np.array([0.2, 0.1, 1.0]))
        np.testing.assert_allclose(_eval_one(hits, wi), np.array([0.9, 0.3, 0.3]) / math.pi, rtol=1e-12)

    def test_eval_below_surface_is_zero(self):
        scene = _single_shape_scene(
            {"type": "quad", "corner": [-1, -1, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "white"}
        )
        hits = self._interaction(scene)
        wi = core.normalize(np.array([0.2, 0.1, -1.0]))
        np.testing.assert_array_equal(_eval_one(hits, wi), np.zeros(3))



def _assert_kernels_equal_the_oracles(scene, o, d, rng):
    """``intersect_batch`` and ``sample_bsdf_batch`` on the rays (o, d) give the bytes of
    their numpy oracles, every ``Hits`` field included; returns the hits and the draw."""
    hits = scene.intersect_batch(o, d)
    want = oracles.intersect_batch(scene, o, d)
    for f in dataclasses.fields(Hits):
        a, b = getattr(hits, f.name), getattr(want, f.name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
    u = rng.random((3, len(o)))
    edges = np.array([[0.0, 1.0, 0.5, 1.0 - 1e-16], [0.0, 0.0, 1.0 - 1e-16, 0.25], [0.0, 1.0, 0.0, 0.999]])
    u[:, :4] = edges[:, : len(o)]  # u1 = 1 is clipped below 1 by the cosine lobe
    drawn = sample_bsdf_batch(hits, *u)
    for name, a, b in zip(("wi", "weight", "is_delta", "pdf_dir"), drawn, oracles.sample_bsdf_batch(hits, *u)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    return hits, drawn


def _random_rays(rng, n, lo=-1.0, hi=1.0):
    o = rng.uniform(lo, hi, (n, 3))
    d = rng.normal(size=(n, 3))
    return o, d / np.linalg.norm(d, axis=1, keepdims=True)


class TestShadingKernel:
    """The compiled hit shading and BSDF draws against their numpy oracles, byte for byte."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["cornell-box", "caustic-sphere", "caustic-pool"])
    def test_camera_wavefronts_equal_the_numpy_bytes(self, name):
        # camera rays followed for six bounces, misses and zero-weight paths included
        scene = builtin_scene(name)
        rng = np.random.default_rng(17)
        cam = scene.camera.with_resolution(48, 48)
        o, d = cam.primary_rays(np.arange(48 * 48), rng.random((48 * 48, 2)))
        kinds = set()
        for _ in range(6):
            hits, (wi, _, _, _) = _assert_kernels_equal_the_oracles(scene, o, d, rng)
            kinds |= set(hits.mat_kind[hits.valid].tolist())
            o, d = hits.position[hits.valid] + core.RAY_OFFSET * wi[hits.valid], wi[hits.valid]
        assert kinds == ({DIFFUSE} if name == "cornell-box" else {DIFFUSE, DIELECTRIC})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["cornell-box", "caustic-sphere", "caustic-pool"])
    def test_random_rays_equal_the_numpy_bytes(self, name):
        scene = builtin_scene(name)
        rng = np.random.default_rng(23)
        hits, _ = _assert_kernels_equal_the_oracles(scene, *_random_rays(rng, 20_000), rng)
        assert 0 < hits.valid.sum() < len(hits.valid)
        assert np.any(hits.entering) and np.any(hits.valid & ~hits.entering)

    @pytest.mark.filterwarnings("error")
    def test_mirror_and_total_internal_reflection_equal_the_numpy_bytes(self):
        rng = np.random.default_rng(29)
        mirror = _single_shape_scene(
            {"type": "quad", "corner": [-1, -1, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "m"},
            extra_materials={"m": {"type": "mirror", "reflectance": [0.9, 0.8, 0.7]}},
        )
        hits, (_, _, is_delta, _) = _assert_kernels_equal_the_oracles(mirror, *_random_rays(rng, 5000, -1.5, 1.5), rng)
        assert np.all(hits.mat_kind[hits.valid] == MIRROR) and np.all(is_delta == hits.valid)
        glass = _single_shape_scene(
            {"type": "sphere", "center": [0, 0, 0], "radius": 1.0, "material": "g"},
            extra_materials={"g": {"type": "dielectric", "ior": 1.5}},
        )
        # from inside the sphere: every ray meets the glass from within, and is
        # reflected (beyond the critical angle or by Fresnel) or refracted out
        o, d = _random_rays(rng, 5000, -0.5, 0.5)
        hits, (wi, _, _, _) = _assert_kernels_equal_the_oracles(glass, 0.9 * o / np.linalg.norm(o, axis=1, keepdims=True) + 0.09 * o, d, rng)
        assert np.all(hits.valid) and not np.any(hits.entering)
        reflected = np.einsum("ij,ij->i", wi, hits.normal) > 0.0
        assert 0 < reflected.sum() < len(reflected)

    @pytest.mark.filterwarnings("error")
    def test_back_face_emitter_hits_equal_the_numpy_bytes(self):
        scene = builtin_scene("cornell-box")
        rng = np.random.default_rng(31)
        # rays from above the lamp quad (z 0.995, normal -z) hit its back face; the rest its front
        o = rng.uniform(-0.2, 0.2, (1000, 3)) * [1, 1, 0] + np.repeat([[0, 0, 0.999], [0, 0, 0.5]], 500, axis=0)
        d = np.concatenate([np.tile([0.0, 0.0, -1.0], (500, 1)), np.tile([0.0, 0.0, 1.0], (500, 1))])
        hits, _ = _assert_kernels_equal_the_oracles(scene, o, d, rng)
        lamp = hits.shape_id == scene.emitter_ids[0]
        assert np.all(lamp) and np.all(hits.entering[500:]) and not np.any(hits.entering[:500])
        np.testing.assert_array_equal(hits.emission, np.repeat([[0.0] * 3, [12.0] * 3], 500, axis=0))


class TestShadingInputs:
    """Malformed rays, draws and hits fail before the kernels read them."""

    def _hits(self, n=4):
        scene = builtin_scene("cornell-box")
        o = np.zeros((n, 3))
        d = np.tile([0.0, 0.0, 1.0], (n, 1))
        return scene.intersect_batch(o, d)

    @pytest.mark.filterwarnings("error")
    def test_ray_arrays_of_other_shapes_are_rejected(self):
        scene = builtin_scene("cornell-box")
        with pytest.raises(ValueError, match="shape"):
            scene.intersect_batch(np.zeros((4, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="shape"):
            scene.intersect_batch(np.zeros((4, 2)), np.zeros((4, 2)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("n", "draw"),
        [(4, np.zeros(3)), (4, np.zeros(5)), (4, np.zeros((4, 1))), (4, np.zeros(4, dtype=np.intp)),
         (4, np.zeros(4, dtype=np.float32)), (1, np.array(0.5))],
    )
    def test_draws_other_than_one_float64_per_hit_are_rejected(self, n, draw):
        with pytest.raises(ValueError, match=f"float64 arrays of {n} draws"):
            sample_bsdf_batch(self._hits(n), np.zeros(n), draw, np.zeros(n))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("field", "value"),
        [("valid", np.ones(3, dtype=bool)), ("normal", np.zeros((4, 2))), ("albedo", np.zeros(12)),
         ("mat_kind", np.zeros(4, dtype=np.int64)), ("entering", np.zeros(4)), ("ior", np.ones((4, 1)))],
    )
    def test_hits_of_other_lengths_widths_or_dtypes_are_rejected(self, field, value):
        hits = dataclasses.replace(self._hits(), **{field: value})
        with pytest.raises(ValueError, match=f"Hits.{field} "):
            sample_bsdf_batch(hits, np.zeros(4), np.zeros(4), np.zeros(4))

    @pytest.mark.filterwarnings("error")
    def test_unknown_material_kind_is_rejected(self):
        # the compiled draw would take a kind it does not know for a dielectric
        hits = self._hits()
        assert np.all(hits.valid)
        hits.mat_kind[2] = DIELECTRIC + 1
        with pytest.raises(ValueError, match="mat_kind"):
            sample_bsdf_batch(hits, np.zeros(4), np.zeros(4), np.zeros(4))

    def test_invalid_rows_draw_zeros(self):
        hits = self._hits()
        hits.valid[1:3] = False
        wi, weight, is_delta, pdf = sample_bsdf_batch(hits, np.full(4, 0.3), np.full(4, 0.6), np.full(4, 0.9))
        assert not np.any(wi[1:3]) and not np.any(weight[1:3]) and not np.any(is_delta[1:3]) and not np.any(pdf[1:3])
        assert np.all(pdf[[0, 3]] > 0.0)


class TestEmission:
    def test_unit_quad_emitter_flux_partition(self):
        scene = _single_shape_scene(
            {
                "type": "quad",
                "corner": [0, 0, 0],
                "edge_u": [1, 0, 0],
                "edge_v": [0, 1, 0],
                "material": "white",
                "emission": [1.0, 1.0, 1.0],
            }
        )
        n = 1000
        origins, dirs, flux = _emission(scene, 0, n)
        np.testing.assert_allclose(flux, np.full((n, 3), math.pi / n), rtol=1e-12)
        np.testing.assert_allclose(flux.sum(axis=0), [math.pi] * 3, rtol=1e-9)
        # origins on the quad, directions above it
        assert np.all((origins[:, 0] >= 0) & (origins[:, 0] <= 1))
        assert np.all(np.abs(origins[:, 2]) < 1e-12)
        assert np.all(dirs[:, 2] > 0)

    def test_power_proportional_emitter_selection(self):
        scene = scene_from_dict(
            {
                "camera": {"position": [0, -3, 0], "look_at": [0, 0, 0], "up": [0, 0, 1], "vfov": 40.0, "resolution": [8, 8]},
                "materials": {"white": {"type": "diffuse", "albedo": [0.5, 0.5, 0.5]}},
                "shapes": [
                    {"type": "quad", "corner": [0, 0, 0], "edge_u": [1, 0, 0], "edge_v": [0, 1, 0], "material": "white",
                     "emission": [1.0, 1.0, 1.0]},
                    {"type": "quad", "corner": [2, 0, 0], "edge_u": [1, 0, 0], "edge_v": [0, 1, 0], "material": "white",
                     "emission": [3.0, 3.0, 3.0]},
                ],
            }
        )
        n = 100_000
        origins, _, _ = _emission(scene, 1, n)
        frac_second = float(np.mean(origins[:, 0] >= 2.0))
        assert frac_second == pytest.approx(0.75, abs=0.01)

    def test_sphere_emitter_samples_lie_on_surface(self):
        scene = _single_shape_scene(
            {"type": "sphere", "center": [0.2, -0.1, 0.5], "radius": 0.3, "material": "white",
             "emission": [2.0, 2.0, 2.0]}
        )
        n = 5000
        origins, dirs, flux = _emission(scene, 6, n)
        radii = np.linalg.norm(origins - np.array([0.2, -0.1, 0.5]), axis=1)
        np.testing.assert_allclose(radii, 0.3, atol=1e-12)
        # directions leave the surface outward
        normals = (origins - np.array([0.2, -0.1, 0.5])) / 0.3
        assert np.all(np.einsum("ij,ij->i", dirs, normals) > 0.0)
        # power of a one-sided cosine emitter over the full sphere area
        np.testing.assert_allclose(flux.sum(axis=0), math.pi * 4 * math.pi * 0.3**2 * 2.0, rtol=1e-9)

    def test_mesh_emitter_samples_cover_triangles_by_area(self):
        # two triangles with a 3:1 area ratio in one mesh
        scene = _single_shape_scene(
            {
                "type": "mesh",
                "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-3, 0, 0], [0, -3, 0]],
                "indices": [[0, 1, 2], [0, 3, 4]],
                "material": "white",
                "emission": [1.0, 1.0, 1.0],
            }
        )
        n = 20_000
        origins, _, _ = _emission(scene, 7, n)
        in_small = (origins[:, 0] >= 0) & (origins[:, 1] >= 0)
        # area ratio is 0.5 : 4.5, so ~10% of samples in the small triangle
        assert float(np.mean(in_small)) == pytest.approx(0.1, abs=0.01)
        assert np.all(np.abs(origins[:, 2]) < 1e-12)

    def test_draws_pick_area_and_direction_at_the_next_five_counters(self):
        scene = builtin_scene("cornell-box")
        n = 64
        keys = core.fold_key(Rng(9).key, np.arange(n, dtype=np.uint64))
        ctrs = np.arange(n, dtype=np.uint64) % 4
        start = ctrs.copy()
        origins, dirs, _ = oracles.sample_light_emission(scene, keys, ctrs)
        u = [core.draw_unit(keys, start + np.uint64(i)) for i in range(5)]
        pts, nrm, _ = scene.sample_on_emitter(scene.pick_emitter(u[0]), u[1], u[2])
        np.testing.assert_array_equal(origins, pts)
        np.testing.assert_array_equal(dirs, oracles.sample_cosine_hemisphere(u[3], u[4], nrm)[0])
        np.testing.assert_array_equal(ctrs, start + np.uint64(5))

    def test_no_emitters_is_an_error(self):
        scene = _single_shape_scene(
            {"type": "quad", "corner": [-1, -1, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "white"}
        )
        with pytest.raises(ValueError, match="no emitters"):
            trace_photons(scene, 10, 4, Rng(0))
        # the compiled pick would clip to slot -1 of no slots
        with pytest.raises(ValueError, match="no emitters"):
            scene.pick_emitter(np.array([0.5]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("u", [np.array(0.5), np.full((2, 2), 0.5)])
    def test_pick_emitter_takes_a_1d_array_of_draws(self, u):
        with pytest.raises(ValueError, match="1-d"):
            builtin_scene("cornell-box").pick_emitter(u)

    def test_emission_is_one_sided(self):
        scene = _single_shape_scene(
            {
                "type": "quad",
                "corner": [-1, -1, 0],
                "edge_u": [2, 0, 0],
                "edge_v": [0, 2, 0],
                "material": "white",
                "emission": [5.0, 5.0, 5.0],
            }
        )
        front = _hit(scene, [0.0, 0.0, 1.0], [0.0, 0.0, -1.0])
        back = _hit(scene, [0.0, 0.0, -1.0], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(front.emission[0], [5.0, 5.0, 5.0])
        np.testing.assert_array_equal(back.emission[0], [0.0, 0.0, 0.0])


class TestSceneFiles:
    def test_builtin_cornell_structure(self):
        scene = builtin_scene("cornell-box")
        assert len(scene.shapes) == 8
        assert len(scene.emitter_ids) == 1
        assert all(scene.materials[s.material].is_diffuse for s in scene.shapes)

    def test_builtin_caustic_scenes_have_dielectrics(self):
        for name in ("caustic-sphere", "caustic-pool"):
            scene = builtin_scene(name)
            kinds = {scene.materials[s.material].kind for s in scene.shapes}
            assert 2 in kinds  # dielectric present
            assert len(scene.emitter_ids) == 1

    def test_unknown_builtin_rejected(self):
        with pytest.raises(SceneValidationError, match="unknown builtin"):
            builtin_scene("missing-scene")

    def test_malformed_json_names_the_problem(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"camera": ')
        with pytest.raises(SceneParseError, match="line"):
            load_scene(path)

    def test_unknown_key_is_a_hard_error(self, cornell_box_dict):
        data = copy.deepcopy(cornell_box_dict)
        data["shapes"][0]["glossiness"] = 0.5
        with pytest.raises(SceneParseError, match="glossiness"):
            scene_from_dict(data)
        data = cornell_box_dict
        data["skybox"] = True
        with pytest.raises(SceneParseError, match="skybox"):
            scene_from_dict(data)

    def test_unknown_material_reference_rejected(self, cornell_box_dict):
        data = cornell_box_dict
        data["shapes"][0]["material"] = "not-there"
        with pytest.raises(SceneValidationError, match="not-there"):
            scene_from_dict(data)

    def test_validation_errors(self):
        with pytest.raises(SceneValidationError, match="radius"):
            _single_shape_scene({"type": "sphere", "center": [0, 0, 0], "radius": -1.0, "material": "white"})
        with pytest.raises(SceneValidationError, match="independent"):
            _single_shape_scene(
                {"type": "quad", "corner": [0, 0, 0], "edge_u": [1, 0, 0], "edge_v": [2, 0, 0], "material": "white"}
            )
        with pytest.raises(SceneValidationError, match="albedo"):
            _single_shape_scene(
                {"type": "quad", "corner": [0, 0, 0], "edge_u": [1, 0, 0], "edge_v": [0, 1, 0], "material": "m"},
                extra_materials={"m": {"type": "diffuse", "albedo": [1.5, 0.0, 0.0]}},
            )
        with pytest.raises(SceneValidationError, match="look_at"):
            _single_shape_scene(
                {"type": "quad", "corner": [0, 0, 0], "edge_u": [1, 0, 0], "edge_v": [0, 1, 0], "material": "white"},
                camera={"position": [0, 0, 0], "look_at": [0, 0, 0], "up": [0, 0, 1], "vfov": 40.0, "resolution": [8, 8]},
            )

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999", "1" + "0" * 400], ids=["NaN", "Infinity", "1e999", "1e400-int"])
    @pytest.mark.parametrize("key", [
        ("camera", "position", 0), ("camera", "look_at", 1), ("camera", "up", 2), ("camera", "vfov"),
        ("materials", "white", "albedo", 1), ("materials", "chrome", "reflectance", 0), ("materials", "glass", "ior"),
        ("shapes", 0, "corner", 2), ("shapes", 0, "edge_u", 0), ("shapes", 0, "edge_v", 1),
        ("shapes", 1, "center", 1), ("shapes", 1, "radius"), ("shapes", 2, "vertices", 1, 0), ("shapes", 2, "emission", 0),
    ], ids=lambda key: ".".join(map(str, key)))
    def test_non_finite_number_is_a_validation_error(self, tmp_path, key, literal):
        # Python's json reads NaN and Infinity, 1e999 as inf, and integers of any size
        data = {
            "camera": {"position": [0, -3.9, 0], "look_at": [0, 0, 0], "up": [0, 0, 1], "vfov": 28.0, "resolution": [8, 8]},
            "materials": {
                "white": {"type": "diffuse", "albedo": [0.7, 0.7, 0.7]},
                "glass": {"type": "dielectric", "ior": 1.5},
                "chrome": {"type": "mirror", "reflectance": [0.9, 0.9, 0.9]},
            },
            "shapes": [
                {"type": "quad", "corner": [-1, -1, -1], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "material": "white"},
                {"type": "sphere", "center": [0, 0, -0.2], "radius": 0.3, "material": "glass"},
                {"type": "mesh", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "indices": [[0, 1, 2]],
                 "material": "chrome", "emission": [10, 10, 10]},
            ],
        }
        parent = data
        for part in key[:-1]:
            parent = parent[part]
        parent[key[-1]] = "@"
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(data).replace('"@"', literal))
        with pytest.raises(SceneValidationError, match="finite"):
            load_scene(path)

    @pytest.mark.parametrize("name", ["cornell-box", "caustic-sphere", "caustic-pool"])
    def test_save_load_round_trip_is_structurally_identical(self, name, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(builtin_scene(name), path)
        loaded = load_scene(path)
        assert scene_to_dict(loaded) == json.loads(path.read_text())
        path2 = tmp_path / "scene2.json"
        save_scene(loaded, path2)
        assert path.read_text() == path2.read_text()

    @pytest.mark.parametrize(
        ("name", "file_sha256", "content_hash"),
        [
            ("cornell-box", "ff8723f4bd46c3c8d2c7ac38be9ff9f9fe99bda544ff83500d78d6dedc0f24cd",
             "87ef591c826a0b3ef6f318708a88a81c6214d071334e00b19f9d6239b88ff7b6"),
            ("caustic-sphere", "8fae14477b098112f08b3a141be10ef0f422b884c3a3e0b94cca0b10e42c27fc",
             "f0b754762ea948e6f9d19c8043ec0559af0e0c2890ac8837a762666d5fed0e7c"),
            ("caustic-pool", "d19eb6610d01e314db1953dfa611fecd43e851eb320effcbaacf482b2aa02dc1",
             "5e4a0bad6364df7d2c815d1d5ee0bf9ab01a0ae187912731903f4f1f3b04d239"),
        ],
    )
    def test_saved_builtin_bytes_and_content_hash_are_pinned(self, tmp_path, name, file_sha256, content_hash):
        # the manifests' scene_hash is content_hash, so the writer's floats, ints and key order are part of the format
        scene = builtin_scene(name)
        save_scene(scene, tmp_path / "scene.json")
        assert hashlib.sha256((tmp_path / "scene.json").read_bytes()).hexdigest() == file_sha256
        assert scene.content_hash() == content_hash

    def test_readme_scene_example_round_trips(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = readme.split("## Scene JSON", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        source = tmp_path / "example.json"
        source.write_text(example)
        scene = load_scene(source)
        # every material type, every shape type and an emitter, so each table entry is read and written
        assert sorted(m.kind for m in scene.materials.values()) == [DIFFUSE, MIRROR, DIELECTRIC]
        assert sorted(type(s.kind).__name__ for s in scene.shapes) == ["Quad", "Sphere", "TriangleMesh"]
        assert len(scene.emitter_ids) == 1
        saved = tmp_path / "saved.json"
        save_scene(scene, saved)
        assert scene_to_dict(scene) == json.loads(saved.read_text())
        again = tmp_path / "again.json"
        save_scene(load_scene(saved), again)
        assert again.read_bytes() == saved.read_bytes()
        assert load_scene(saved).content_hash() == scene.content_hash()

    def test_save_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "scene.json"
        save_scene(builtin_scene("caustic-sphere"), path)
        old = path.read_bytes()

        def replace(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError):
            save_scene(builtin_scene("cornell-box"), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["scene.json"]


class TestCamera:
    def test_center_ray_points_at_target(self):
        cam = Camera(np.array([0.0, -3.0, 0.0]), np.zeros(3), np.array([0.0, 0.0, 1.0]), 40.0, (9, 9))
        center = 4 * 9 + 4
        o, d = cam.primary_rays(np.array([center]), np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(d[0], [0.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(o[0], cam.position)

    def test_jitter_stays_inside_pixel(self):
        cam = Camera(np.array([0.0, -3.0, 0.0]), np.zeros(3), np.array([0.0, 0.0, 1.0]), 40.0, (4, 4))
        pix = np.zeros(32, dtype=np.intp)
        rng = np.random.default_rng(0)
        o, d = cam.primary_rays(pix, rng.uniform(0, 1, (32, 2)))
        # all rays for one pixel stay within that pixel's angular extent
        spread = d.max(axis=0) - d.min(axis=0)
        assert np.all(spread < math.tan(math.radians(20.0)) * 2 / 4 * 1.5)

    def test_resolution_must_be_positive(self):
        with pytest.raises(SceneValidationError, match="resolution"):
            Camera(np.zeros(3), np.ones(3), np.array([0.0, 0.0, 1.0]), 40.0, (0, 8))

    def test_vfov_range_enforced(self):
        with pytest.raises(SceneValidationError, match="vfov"):
            Camera(np.zeros(3), np.ones(3), np.array([0.0, 0.0, 1.0]), 181.0, (8, 8))

    @pytest.mark.parametrize("look_at", [[1000.001, 0.0, 0.0], [1000.0, 1e-9, 0.0], [-1000.0, 0.0, 0.0]])
    def test_look_at_near_a_far_position_is_accepted(self, look_at):
        cam = Camera(np.array([1000.0, 0.0, 0.0]), np.array(look_at), np.array([0.0, 0.0, 1.0]), 40.0, (3, 3))
        _, d = cam.primary_rays(np.arange(9), np.full((9, 2), 0.5))
        np.testing.assert_allclose(d[4], np.sign(np.array(look_at) - cam.position) * [1, 1, 0], atol=1e-12)

    @pytest.mark.parametrize(
        ("position", "look_at", "up", "message"),
        [
            ([1000.0, 0.0, 0.0], [1000.0, 0.0, 0.0], [0.0, 0.0, 1.0], "camera.look_at must differ from position"),
            ([0.0, 0.0, 0.0], [0.0, 0.0, np.nan], [0.0, 1.0, 0.0], "camera.look_at must differ from position"),
            ([0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, -3.0, 0.0], "camera.up is parallel to the view direction"),
            ([0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0], "camera.up is parallel to the view direction"),
        ],
    )
    def test_degenerate_view_is_refused_at_construction(self, position, look_at, up, message):
        with pytest.raises(SceneValidationError, match=f"^{re.escape(message)}$"):
            Camera(np.array(position), np.array(look_at), np.array(up), 40.0, (8, 8))
