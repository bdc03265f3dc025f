"""Ray-primitive geometry: spheres, quads, triangles, and a BVH.

Primitives live in flat struct-of-array storage, and the BVH in flat node
arrays in pre-order (a parent before its children, the left subtree before
the right). Nearest-hit queries run a compiled traversal (``_bvh.c``, loaded
with ``ctypes``) that walks those arrays one ray at a time, left child
first, with the per-primitive formulas and operation order of
``Geometry._leaf_hits``. ``intersect_linear`` runs ``_leaf_hits`` over all
primitives in ``perm`` order, so BVH and linear scan agree bit for bit,
equal-``t`` ties included: the first primitive in ``perm`` order wins.

The traversal, the spatial index's kernels (``_spatial.c``), the emitter
sampler, photon tracer and photon density sum (``_photons.c``; the tracer
walks the BVH with the traversal's per-ray ``pf_bvh_nearest``, declared in
``_bvh.h``) and the field's forward and backward passes and Adam step
(``_field.c``) are one shared library, compiled with the system ``cc`` by
:func:`load_kernels` at the first ray query, point-index build, photon
pass or field pass, into ``$XDG_CACHE_HOME/photonfield`` (default
``~/.cache/photonfield``) under a name keyed by every C source and header,
the flags and the compiler version; importing the package compiles
nothing. This module alone knows the library's binary interface: its
prototypes, and a ``ctypes.Structure`` mirror of each C struct the kernels
take by typed pointer (:class:`BvhTable`, :class:`ShadingTable`,
:class:`EmitterTable`, :class:`KdTreeTable`, :class:`FieldTable`,
:class:`BatchTable`, :class:`AdamTable`).

All intersections use one strict self-intersection epsilon: hits require
``t > T_MIN`` (1e-4 scene units), and every ray searches up to infinity.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import time

import numpy as np

T_MIN = 1e-4

KIND_SPHERE = 0
KIND_QUAD = 1
KIND_TRIANGLE = 2

_LEAF_SIZE = 8
_DEGENERATE = 1e-12

_DIR = os.path.dirname(os.path.abspath(__file__))
_SOURCES = tuple(os.path.join(_DIR, f) for f in ("_bvh.c", "_spatial.c", "_photons.c", "_field.c"))
_HEADERS = (os.path.join(_DIR, "_bvh.h"),)
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_CACHE_MAX_AGE_S = 7 * 24 * 3600  # a cached library not loaded for this long is deleted after the next build
_STACK_MAX = 64  # STACK_MAX in _bvh.c; a walk of a tree with leaves at depth D needs D + 1 slots
_P, _N = ctypes.c_void_p, ctypes.c_ssize_t


class _Table(ctypes.Structure):
    """A C struct filled by member name; it keeps the numpy arrays it points into in ``arrays``."""

    def __init__(self, **members):
        super().__init__(**{k: v.ctypes.data if isinstance(v, np.ndarray) else v for k, v in members.items()})
        self.arrays = members


class BvhTable(_Table):
    """``struct pf_bvh`` (``_bvh.h``): a Geometry's BVH nodes, walk stack size and primitives."""

    _fields_ = [(f, _P) for f in ("node_lo", "node_hi", "node_left", "node_right", "node_start", "node_count")]
    _fields_ += [("stack_size", _N)]
    _fields_ += [(f, _P) for f in ("perm", "kinds", "pa", "pb", "pc", "normals", "quad_gram", "tri_e1", "tri_e2")]


class ShadingTable(_Table):
    """``struct pf_shading`` (``_photons.c``): a Scene's primitive -> shape -> material lookup."""

    _fields_ = [(f, _P) for f in ("shape_ids", "shape_mat", "mat_kind", "mat_albedo", "mat_ior")]


class EmitterTable(_Table):
    """``struct pf_emitters`` (``_photons.c``): a Scene's emitter slots, their primitives and sampling CDFs."""

    _fields_ = [("n", _N)] + [(f, _P) for f in ("cdf", "power", "start", "count", "kinds", "pa", "pb", "pc")]
    _fields_ += [(f, _P) for f in ("normal", "area_cdf")]


class KdTreeTable(_Table):
    """``struct pf_kdtree`` (``_spatial.c``): a PointIndex's implicit kd-tree."""

    _fields_ = [("depth", ctypes.c_int)] + [(f, _P) for f in ("perm", "leaf_start", "tpts", "lo", "hi")]


class FieldTable(_Table):
    """``struct pf_field`` (``_field.c``): a GaussianField's parameters, with its scales exponentiated."""

    _fields_ = [("n", _N)] + [(f, _P) for f in ("means", "quats", "scales", "flux")]
    _fields_ += [("radius", ctypes.c_double), ("eps", ctypes.c_double)]


class BatchTable(_Table):
    """``struct pf_batch`` (``_field.c``): query rows over CSR neighbourhoods, and what the field passes write for them."""

    _fields_ = [("rows", _N)] + [(f, _P) for f in ("xs", "splits", "flat", "expo", "s_tot", "L")]


class AdamTable(_Table):
    """``struct pf_adam`` (``_field.c``): a field's parameters, their gradients and Adam's moments and constants."""

    _fields_ = [("n", _N)] + [(f, _P) for f in ("means", "quats", "log_scales", "flux")]
    _fields_ += [(f, _P) for f in ("g_mean", "g_quat", "g_log_scale", "g_flux", "m", "v")]
    _fields_ += [(f, ctypes.c_double) for f in ("lr", "beta1", "beta2", "eps", "log_scale_min", "log_scale_max")]


_BVH, _SHADING, _EMITTERS, _KDTREE, _FIELD, _BATCH, _ADAM = (
    ctypes.POINTER(t) for t in (BvhTable, ShadingTable, EmitterTable, KdTreeTable, FieldTable, BatchTable, AdamTable)
)
# restype and argtypes of every function the library exports; a table goes by pointer
_PROTOTYPES = {
    "pf_intersect": (ctypes.c_int, [_N, _P, _P, ctypes.c_double, _P, _P, _BVH]),
    "pf_trace_photons": (_N, [_N, _N, _P, ctypes.c_int, ctypes.c_double, _BVH, _SHADING, _EMITTERS, _N] + [_P] * 5),
    "pf_pick_emitter": (None, [_EMITTERS, _N, _P, _P]),
    "pf_sample_on_emitter": (None, [_EMITTERS, _N] + [_P] * 5),
    "pf_kde_sum": (None, [_N] + [_P] * 8),
    "pf_kd_build": (None, [_N, _P, _KDTREE]),
    "pf_ball": (_N, [_KDTREE, _N, _P, ctypes.c_double, _N, _N, _P, _P, _P]),
    "pf_knn": (None, [_KDTREE, _N, _P, _N, _P, _P]),
    "pf_field_terms": (None, [_FIELD, _BATCH]),
    "pf_field_sum": (None, [_FIELD, _BATCH]),
    "pf_field_backward": (None, [_FIELD, _BATCH, _P, _P, _P, _P, _P]),
    "pf_adam_step": (None, [_ADAM, ctypes.c_double, ctypes.c_double]),
}
_lib = None
_lib_lock = threading.Lock()


def _compile(cc: str, path: str) -> None:
    """Compile the C sources into the shared library ``path``, renamed into place."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    os.close(fd)
    try:
        res = subprocess.run([cc, *_CFLAGS, "-I", _DIR, "-o", tmp, *_SOURCES, "-lm"], capture_output=True, text=True)
        if res.returncode != 0:
            raise RuntimeError(f"cc failed to compile {', '.join(_SOURCES)}:\n{res.stderr}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _prune_cache(cache_dir: str, keep: str) -> None:
    """Delete the kernel libraries (``kernels-*.so``, and the older
    ``bvh-*.so``) in ``cache_dir`` last loaded more than ``_CACHE_MAX_AGE_S``
    ago, except ``keep``. Each load touches its library, so another process
    or install that uses its own keeps it; one that has it mapped keeps it
    mapped even when it is unlinked."""
    cutoff = time.time() - _CACHE_MAX_AGE_S
    for name in os.listdir(cache_dir):
        if name == os.path.basename(keep) or not (name.endswith(".so") and name.startswith(("kernels-", "bvh-"))):
            continue
        path = os.path.join(cache_dir, name)
        try:
            if os.stat(path).st_mtime < cutoff:
                os.unlink(path)
        except FileNotFoundError:
            pass  # another process pruned it first


def load_kernels():
    """The compiled kernel library (a ``ctypes.CDLL``), built into the cache on first use.

    A build also deletes the libraries no process has loaded for
    ``_CACHE_MAX_AGE_S`` (:func:`_prune_cache`); a load from a warm cache
    only touches its library."""
    global _lib
    if _lib is not None:
        return _lib
    with _lib_lock:
        if _lib is None:
            cc = shutil.which("cc")
            if cc is None:
                raise RuntimeError("photonfield compiles its C kernels at first use: no C compiler 'cc' on PATH")
            parts = []
            for src in _SOURCES + _HEADERS:
                with open(src, "rb") as f:
                    parts.append(f.read())
            parts.append(" ".join(_CFLAGS).encode())
            parts.append(subprocess.run([cc, "--version"], capture_output=True, check=True).stdout)
            key = hashlib.sha256(b"\0".join(parts)).hexdigest()[:16]
            cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
            path = os.path.join(cache, "photonfield", f"kernels-{key}.so")
            if os.path.exists(path):
                try:
                    os.utime(path)
                except OSError:
                    pass  # touching is best effort: a read-only cache still loads
            else:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                _compile(cc, path)
                _prune_cache(os.path.dirname(path), path)
            lib = ctypes.CDLL(path)
            for name, (restype, argtypes) in _PROTOTYPES.items():
                fn = getattr(lib, name)
                fn.restype, fn.argtypes = restype, argtypes
            _lib = lib
    return _lib


def _dot3(x, y):
    """Row-wise 3-vector dot product, summed as (x0*y0 + x2*y2) + x1*y1 like ``_bvh.c``."""
    return (x[..., 0] * y[..., 0] + x[..., 2] * y[..., 2]) + x[..., 1] * y[..., 1]


def _rays(o, d):
    o = np.ascontiguousarray(np.atleast_2d(o), dtype=np.float64)
    d = np.ascontiguousarray(np.atleast_2d(d), dtype=np.float64)
    if o.ndim != 2 or o.shape[1] != 3 or d.shape != o.shape:
        raise ValueError(f"ray origins and directions must both have shape (n, 3), got {o.shape} and {d.shape}")
    return o, d


class Geometry:
    """Immutable primitive soup with a BVH; shared read-only by render threads."""

    def __init__(self, kinds, pa, pb, pc, shape_ids):
        self.kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        self.pa = np.ascontiguousarray(pa, dtype=np.float64)
        self.pb = np.ascontiguousarray(pb, dtype=np.float64)
        self.pc = np.ascontiguousarray(pc, dtype=np.float64)
        self.shape_ids = np.asarray(shape_ids, dtype=np.intp)
        n = len(self.kinds)
        self._normals = np.zeros((n, 3), dtype=np.float64)
        self._precompute_normals()
        self._precompute_kernels()
        self._build_bvh()
        self._table = BvhTable(
            node_lo=self.node_lo, node_hi=self.node_hi, node_left=self.node_left, node_right=self.node_right,
            node_start=self.node_start, node_count=self.node_count, stack_size=self._stack_size, perm=self.perm,
            kinds=self.kinds, pa=self.pa, pb=self.pb, pc=self.pc, normals=self._normals,
            quad_gram=self._quad_gram, tri_e1=self._tri_e1, tri_e2=self._tri_e2,
        )

    def _precompute_kernels(self):
        # triangle edges for the intersection kernel
        self._tri_e1 = self.pb - self.pa
        self._tri_e2 = self.pc - self.pa
        # quad Gram inverse for the inside test
        g11 = np.einsum("ki,ki->k", self.pb, self.pb)
        g12 = np.einsum("ki,ki->k", self.pb, self.pc)
        g22 = np.einsum("ki,ki->k", self.pc, self.pc)
        with np.errstate(divide="ignore", invalid="ignore"):
            det = g11 * g22 - g12 * g12
            self._quad_gram = np.stack([g11 / det, g12 / det, g22 / det], axis=1)
        self._quad_gram[~np.isfinite(self._quad_gram)] = 0.0

    def __len__(self) -> int:
        return len(self.kinds)

    def _precompute_normals(self):
        quad = self.kinds == KIND_QUAD
        if np.any(quad):
            n = np.cross(self.pb[quad], self.pc[quad])
            self._normals[quad] = n / np.linalg.norm(n, axis=1, keepdims=True)
        tri = self.kinds == KIND_TRIANGLE
        if np.any(tri):
            n = np.cross(self.pb[tri] - self.pa[tri], self.pc[tri] - self.pa[tri])
            self._normals[tri] = n / np.linalg.norm(n, axis=1, keepdims=True)

    def _prim_bounds(self):
        n = len(self)
        lo = np.empty((n, 3))
        hi = np.empty((n, 3))
        sph = self.kinds == KIND_SPHERE
        r = self.pb[sph, 0][:, None]
        lo[sph] = self.pa[sph] - r
        hi[sph] = self.pa[sph] + r
        quad = self.kinds == KIND_QUAD
        corners = np.stack(
            [
                self.pa[quad],
                self.pa[quad] + self.pb[quad],
                self.pa[quad] + self.pc[quad],
                self.pa[quad] + self.pb[quad] + self.pc[quad],
            ],
            axis=1,
        )
        lo[quad] = corners.min(axis=1)
        hi[quad] = corners.max(axis=1)
        tri = self.kinds == KIND_TRIANGLE
        verts = np.stack([self.pa[tri], self.pb[tri], self.pc[tri]], axis=1)
        lo[tri] = verts.min(axis=1)
        hi[tri] = verts.max(axis=1)
        return lo, hi

    def _build_bvh(self):
        n = len(self)
        self._stack_size = 1
        if n == 0:
            self.perm = np.empty(0, dtype=np.intp)
            self.node_lo = np.zeros((1, 3))
            self.node_hi = np.zeros((1, 3))
            self.node_left = np.array([-1], dtype=np.intp)
            self.node_right = np.array([-1], dtype=np.intp)
            self.node_start = np.array([0], dtype=np.intp)
            self.node_count = np.array([0], dtype=np.intp)
            return
        lo, hi = self._prim_bounds()
        centroids = 0.5 * (lo + hi)
        order: list[int] = []
        nodes_lo, nodes_hi, lefts, rights, starts, counts = [], [], [], [], [], []
        depth = 0
        # (primitives, parent, is right child, level); the left child is
        # popped first, so nodes are numbered in pre-order
        todo = [(np.arange(n, dtype=np.intp), -1, False, 0)]
        while todo:
            idx, parent, is_right, level = todo.pop()
            me = len(nodes_lo)
            if parent >= 0:
                (rights if is_right else lefts)[parent] = me
            depth = max(depth, level)
            nodes_lo.append(lo[idx].min(axis=0))
            nodes_hi.append(hi[idx].max(axis=0))
            lefts.append(-1)
            rights.append(-1)
            if len(idx) <= _LEAF_SIZE:
                starts.append(len(order))
                counts.append(len(idx))
                order.extend(idx.tolist())
                continue
            starts.append(0)
            counts.append(0)
            c = centroids[idx]
            axis = int(np.argmax(c.max(axis=0) - c.min(axis=0)))
            half = len(idx) // 2
            split = np.argpartition(c[:, axis], half)
            todo.append((idx[split[half:]], me, True, level + 1))
            todo.append((idx[split[:half]], me, False, level + 1))
        # a walk down to level L holds at most L + 1 nodes on its stack
        if depth + 1 > _STACK_MAX:
            raise ValueError(f"BVH of {n} primitives is {depth + 1} levels deep; the traversal takes at most {_STACK_MAX}")
        self._stack_size = depth + 1
        self.perm = np.asarray(order, dtype=np.intp)
        self.node_lo = np.asarray(nodes_lo)
        self.node_hi = np.asarray(nodes_hi)
        self.node_left = np.asarray(lefts, dtype=np.intp)
        self.node_right = np.asarray(rights, dtype=np.intp)
        self.node_start = np.asarray(starts, dtype=np.intp)
        self.node_count = np.asarray(counts, dtype=np.intp)

    def _pack(self, prims):
        """Per-kind primitive arrays of the primitives ``prims``."""
        kinds = self.kinds[prims]
        pack = {"prims": prims, "k": len(prims)}
        sph = np.nonzero(kinds == KIND_SPHERE)[0]
        if sph.size:
            pid = prims[sph]
            pack["sph"] = (sph, self.pa[pid], self.pb[pid, 0])
        quad = np.nonzero(kinds == KIND_QUAD)[0]
        if quad.size:
            pid = prims[quad]
            pack["quad"] = (quad, self.pa[pid], self.pb[pid], self.pc[pid], self._normals[pid], self._quad_gram[pid])
        tri = np.nonzero(kinds == KIND_TRIANGLE)[0]
        if tri.size:
            pid = prims[tri]
            pack["tri"] = (tri, self.pa[pid], self._tri_e1[pid], self._tri_e2[pid])
        return pack

    # -- intersection ------------------------------------------------------

    def intersect(self, o, d):
        """Nearest hit per ray beyond ``T_MIN``: (t, prim_index), t = inf and
        prim_index = -1 on a miss.

        ``o``/``d`` have shape (n, 3); directions are assumed unit length.
        Runs the compiled traversal (built on first use).
        """
        o, d = _rays(o, d)
        n = len(o)
        best_t, best_p = np.full(n, np.inf), np.full(n, -1, dtype=np.intp)
        if len(self) == 0 or n == 0:
            return best_t, best_p
        status = load_kernels().pf_intersect(
            n, o.ctypes.data, d.ctypes.data, T_MIN, best_t.ctypes.data, best_p.ctypes.data, self._table
        )
        if status != 0:
            raise RuntimeError(f"BVH traversal overran its stack of {self._stack_size} slots")
        return best_t, best_p

    def intersect_linear(self, o, d):
        """Brute-force scan over all primitives in ``perm`` order (test oracle of ``intersect``)."""
        o, d = _rays(o, d)
        n = len(o)
        best_t, best_p = np.full(n, np.inf), np.full(n, -1, dtype=np.intp)
        if len(self) == 0:
            return best_t, best_p
        pack = self._pack(self.perm)
        for lo in range(0, n, 1024):  # bounds the (rays, primitives) temporaries
            sl = slice(lo, lo + 1024)
            self._leaf_hits(pack, o[sl], d[sl], best_t[sl], best_p[sl])
        return best_t, best_p

    def _leaf_hits(self, pack, ro, rd, best_t, best_p):
        """Nearest hit of every ray among the primitives of ``pack``; the formulas ``_bvh.c`` compiles."""
        prims = pack["prims"]
        t_mat = np.full((len(ro), pack["k"]), np.inf)

        if "sph" in pack:
            cols, c, r = pack["sph"]
            oc = ro[:, None, :] - c[None, :, :]
            b = _dot3(oc, rd[:, None, :])
            cc = _dot3(oc, oc) - r[None, :] ** 2
            disc = b * b - cc
            ok = disc >= 0.0
            sq = np.sqrt(np.where(ok, disc, 0.0))
            t_near = -b - sq
            t_far = -b + sq
            t = np.where(t_near > T_MIN, t_near, t_far)
            t = np.where(ok & (t > T_MIN), t, np.inf)
            t_mat[:, cols] = t

        if "quad" in pack:
            cols, corner, eu, ev, nq, gram = pack["quad"]
            denom = _dot3(rd[:, None, :], nq[None, :, :])
            w0 = corner[None, :, :] - ro[:, None, :]
            t = _dot3(w0, nq[None, :, :])
            with np.errstate(divide="ignore", invalid="ignore"):
                t = t / denom
                p = ro[:, None, :] + t[..., None] * rd[:, None, :]
                w = p - corner[None, :, :]
                r1 = _dot3(w, eu[None, :, :])
                r2 = _dot3(w, ev[None, :, :])
                alpha = gram[:, 2] * r1 - gram[:, 1] * r2
                beta = gram[:, 0] * r2 - gram[:, 1] * r1
                ok = (
                    (np.abs(denom) > _DEGENERATE)
                    & (t > T_MIN)
                    & (alpha >= 0.0)
                    & (alpha <= 1.0)
                    & (beta >= 0.0)
                    & (beta <= 1.0)
                    & np.isfinite(t)
                )
            t_mat[:, cols] = np.where(ok, t, np.inf)

        if "tri" in pack:
            cols, pa, e1, e2 = pack["tri"]
            dx, dy, dz = rd[:, None, 0], rd[:, None, 1], rd[:, None, 2]
            px = dy * e2[None, :, 2] - dz * e2[None, :, 1]
            py = dz * e2[None, :, 0] - dx * e2[None, :, 2]
            pz = dx * e2[None, :, 1] - dy * e2[None, :, 0]
            det = e1[None, :, 0] * px + e1[None, :, 1] * py + e1[None, :, 2] * pz
            tvec = ro[:, None, :] - pa[None, :, :]
            tx, ty, tz = tvec[..., 0], tvec[..., 1], tvec[..., 2]
            with np.errstate(divide="ignore", invalid="ignore"):
                inv_det = 1.0 / det
                u = (tx * px + ty * py + tz * pz) * inv_det
                qx = ty * e1[None, :, 2] - tz * e1[None, :, 1]
                qy = tz * e1[None, :, 0] - tx * e1[None, :, 2]
                qz = tx * e1[None, :, 1] - ty * e1[None, :, 0]
                v = (dx * qx + dy * qy + dz * qz) * inv_det
                t = (e2[None, :, 0] * qx + e2[None, :, 1] * qy + e2[None, :, 2] * qz) * inv_det
                ok = (
                    (np.abs(det) > _DEGENERATE)
                    & (u >= 0.0)
                    & (v >= 0.0)
                    & (u + v <= 1.0)
                    & (t > T_MIN)
                    & np.isfinite(t)
                )
            t_mat[:, cols] = np.where(ok, t, np.inf)

        leaf_best = t_mat.min(axis=1)
        leaf_arg = t_mat.argmin(axis=1)
        better = leaf_best < best_t
        best_t[better] = leaf_best[better]
        best_p[better] = prims[leaf_arg[better]]

    def normals_at(self, prim_idx, points):
        """Geometric (outward/winding) unit normals for prior hit results."""
        prim_idx = np.asarray(prim_idx, dtype=np.intp)
        out = self._normals[prim_idx].copy()
        sph = self.kinds[prim_idx] == KIND_SPHERE
        if np.any(sph):
            pid = prim_idx[sph]
            v = points[sph] - self.pa[pid]
            out[sph] = v / np.linalg.norm(v, axis=1, keepdims=True)
        return out
