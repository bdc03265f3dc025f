"""Ray-primitive geometry: spheres, quads, triangles, and a BVH.

Primitives live in flat struct-of-array storage, and the BVH in flat node
arrays that the compiled ``pf_bvh_build`` (``_bvh.c``, loaded with
``ctypes``) lays out in pre-order when a Geometry is made
(:meth:`Geometry._build_bvh`). It splits each node where the
surface-area heuristic is cheapest, ties going to the lowest axis and
position, so two builds give the same bytes. A node of at most
``_LEAF_SIZE`` primitives becomes a leaf when splitting does not pay. A
node whose centroids coincide, or that has no depth to spare, is split at
its median, so every tree that halving each node keeps within
``_STACK_MAX`` levels fits. Nearest-hit queries run a compiled traversal
that walks those arrays one ray at a time, left child first.
``intersect_linear`` runs the same walk over a tree whose root is one
leaf over all primitives in ``perm`` order, so BVH and linear scan agree
bit for bit, equal-``t`` ties included: whatever the tree's shape, the
first primitive in ``perm`` order wins. The numpy scan whose formulas and
operation order the leaf loop compiles is ``intersect_linear`` in
``tests/oracles.py``.

The traversal, the spatial index's kernels (``_spatial.c``), the hit
shading and BSDF draws, emitter sampler, photon tracer and photon density
sum (``_photons.c``; the tracer walks the BVH with the traversal's per-ray
``pf_bvh_nearest``, declared in ``_bvh.h``) and the field's forward and
backward passes and Adam step (``_field.c``) are one shared library,
compiled with the system ``cc`` by :func:`load_kernels` at the first
Geometry (scene) build, point-index build or field pass, into
``$XDG_CACHE_HOME/photonfield`` (default ``~/.cache/photonfield``) under a
name keyed by every C source and header, the flags and the compiler
version; importing the package compiles nothing. This module alone knows
the library's binary interface: its prototypes, and a ``ctypes.Structure``
mirror of each C struct the kernels take by typed pointer
(:class:`BvhTable`, :class:`ShadingTable`, :class:`HitsTable`,
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

_LEAF_SIZE = 8  # LEAF_SIZE in _bvh.c: the most primitives a leaf holds

_DIR = os.path.dirname(os.path.abspath(__file__))
_SOURCES = tuple(os.path.join(_DIR, f) for f in ("_bvh.c", "_spatial.c", "_photons.c", "_field.c"))
_HEADERS = (os.path.join(_DIR, "_bvh.h"),)
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_CACHE_MAX_AGE_S = 7 * 24 * 3600  # a cached library not loaded for this long is deleted after the next build
_STACK_MAX = 64  # STACK_MAX in _bvh.c; a walk of a tree with leaves at depth D needs D + 1 slots
_NODE_FIELDS = ("node_lo", "node_hi", "node_right", "node_start", "node_count")
_P, _N = ctypes.c_void_p, ctypes.c_ssize_t


class _Table(ctypes.Structure):
    """A C struct filled by member name; it keeps the numpy arrays it points into in ``arrays``."""

    def __init__(self, **members):
        super().__init__(**{k: v.ctypes.data if isinstance(v, np.ndarray) else v for k, v in members.items()})
        self.arrays = members


class BvhTable(_Table):
    """``struct pf_bvh`` (``_bvh.h``): a Geometry's BVH nodes, walk stack size and primitives."""

    _fields_ = [(f, _P) for f in _NODE_FIELDS]
    _fields_ += [("stack_size", _N)]
    _fields_ += [(f, _P) for f in ("perm", "kinds", "pa", "pb", "pc", "normals", "quad_gram", "tri_e1", "tri_e2")]


class ShadingTable(_Table):
    """``struct pf_shading`` (``_photons.c``): a Scene's primitive -> shape -> material lookup and shape emission."""

    _fields_ = [(f, _P) for f in ("shape_ids", "shape_mat", "mat_kind", "mat_albedo", "mat_ior", "shape_emission")]


class HitsTable(_Table):
    """``struct pf_hits`` (``_photons.c``): the rows of a ``scene.Hits``, field for field."""

    _fields_ = [("n", _N)] + [(f, _P) for f in "valid t position normal wo shape_id mat_kind albedo ior emission entering".split()]


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


_BVH, _SHADING, _HITS, _EMITTERS, _KDTREE, _FIELD, _BATCH, _ADAM = (ctypes.POINTER(t) for t in (
    BvhTable, ShadingTable, HitsTable, EmitterTable, KdTreeTable, FieldTable, BatchTable, AdamTable))
# restype and argtypes of every function the library exports; a table goes by pointer
_PROTOTYPES = {
    "pf_intersect": (ctypes.c_int, [_N, _P, _P, ctypes.c_double, _P, _P, _BVH]),
    "pf_bvh_build": (ctypes.c_int, [_BVH, _N, ctypes.c_int, _P, _P, _P]),
    "pf_trace_photons": (_N, [_N, _N, _P, ctypes.c_int, ctypes.c_double, _BVH, _SHADING, _EMITTERS, _N] + [_P] * 5),
    "pf_shade_hits": (None, [_BVH, _SHADING, _P, _P, _P, _HITS]),
    "pf_sample_bsdf": (None, [_HITS] + [_P] * 7),
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


class Geometry:
    """Immutable primitive soup with a BVH; shared read-only by render threads."""

    def __init__(self, kinds, pa, pb, pc, shape_ids):
        self.kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        self.pa = np.ascontiguousarray(pa, dtype=np.float64)
        self.pb = np.ascontiguousarray(pb, dtype=np.float64)
        self.pc = np.ascontiguousarray(pc, dtype=np.float64)
        self.shape_ids = np.asarray(shape_ids, dtype=np.intp)
        n = len(self.kinds)
        if n == 0:
            raise ValueError("geometry has no primitives")
        self._normals = np.zeros((n, 3), dtype=np.float64)
        self._precompute_normals()
        self._precompute_kernels()
        self._table = self._build_bvh()
        # intersect_linear's tree: one leaf, with the root's box, over every primitive in perm order
        self._linear_table = BvhTable(
            node_lo=self.node_lo[:1], node_hi=self.node_hi[:1], node_right=np.array([-1], dtype=np.intp),
            node_start=np.array([0], dtype=np.intp), node_count=np.array([n], dtype=np.intp), stack_size=1,
            **self._prims(),
        )

    def _prims(self):
        """The primitive members of a :class:`BvhTable`, perm included."""
        return dict(perm=self.perm, kinds=self.kinds, pa=self.pa, pb=self.pb, pc=self.pc, normals=self._normals,
                    quad_gram=self._quad_gram, tri_e1=self._tri_e1, tri_e2=self._tri_e2)

    def _precompute_kernels(self):
        # triangle edges for the intersection kernel
        self._tri_e1 = self.pb - self.pa
        self._tri_e2 = self.pc - self.pa
        # quad Gram inverse for the inside test; a triangle's pb and pc are vertices, not edges
        quad = self.kinds == KIND_QUAD
        eu, ev = self.pb[quad], self.pc[quad]
        g11 = np.einsum("ki,ki->k", eu, eu)
        g12 = np.einsum("ki,ki->k", eu, ev)
        g22 = np.einsum("ki,ki->k", ev, ev)
        self._quad_gram = np.zeros((len(self.kinds), 3))
        with np.errstate(divide="ignore", invalid="ignore"):
            det = g11 * g22 - g12 * g12
            self._quad_gram[quad] = np.stack([g11 / det, g12 / det, g22 / det], axis=1)
        self._quad_gram[~np.isfinite(self._quad_gram)] = 0.0

    def __len__(self) -> int:
        return len(self.kinds)

    def _precompute_normals(self):
        # a degenerate (zero-area) primitive, which no ray hits, keeps a zero normal
        quad = self.kinds == KIND_QUAD
        tri = self.kinds == KIND_TRIANGLE
        n = np.zeros_like(self.pa)
        n[quad] = np.cross(self.pb[quad], self.pc[quad])
        n[tri] = np.cross(self.pb[tri] - self.pa[tri], self.pc[tri] - self.pa[tri])
        norm = np.linalg.norm(n, axis=1, keepdims=True)
        np.divide(n, norm, out=self._normals, where=norm > 0.0)

    def _build_bvh(self):
        """The BVH table, with node arrays that ``pf_bvh_build`` fills in
        pre-order (the left subtree before the right): an inner node has
        ``node_count == 0``, its left child at ``node + 1`` and its right child
        at ``node_right``; a leaf has ``node_right == -1`` and 1 to
        ``_LEAF_SIZE`` primitives, ``perm[node_start:][:node_count]``."""
        n = len(self)
        self.perm = np.empty(n, dtype=np.intp)
        self.node_lo, self.node_hi = np.empty((2 * n - 1, 3)), np.empty((2 * n - 1, 3))
        self.node_right, self.node_start, self.node_count = (np.empty(2 * n - 1, dtype=np.intp) for _ in range(3))
        table = BvhTable(**{f: getattr(self, f) for f in _NODE_FIELDS}, stack_size=0, **self._prims())
        fwork, iwork, nodes = np.empty(10 * n), np.empty(5 * n, dtype=np.intp), np.zeros(1, dtype=np.intp)
        depth = load_kernels().pf_bvh_build(table, n, _STACK_MAX - 1, fwork.ctypes.data, iwork.ctypes.data, nodes.ctypes.data)
        # a walk down to level L holds at most L + 1 nodes on its stack
        if depth + 1 > _STACK_MAX:
            raise ValueError(f"BVH of {n} primitives is {depth + 1} levels deep; the traversal takes at most {_STACK_MAX}")
        self._stack_size = table.stack_size = depth + 1
        for f in _NODE_FIELDS:
            setattr(self, f, getattr(self, f)[: nodes[0]])
        return table

    # -- intersection ------------------------------------------------------

    def intersect(self, o, d):
        """Nearest hit per ray beyond ``T_MIN``: (t, prim_index), t = inf and
        prim_index = -1 on a miss.

        ``o``/``d`` have shape (n, 3); directions are assumed unit length.
        Runs the compiled traversal (built on first use).
        """
        return self._walk(o, d, self._table)

    def intersect_linear(self, o, d):
        """``intersect`` by a scan of all primitives in ``perm`` order: the
        compiled walk of a tree whose root is one leaf over them all."""
        return self._walk(o, d, self._linear_table)

    def _walk(self, o, d, table):
        o = np.ascontiguousarray(np.atleast_2d(o), dtype=np.float64)
        d = np.ascontiguousarray(np.atleast_2d(d), dtype=np.float64)
        if o.ndim != 2 or o.shape[1] != 3 or d.shape != o.shape:
            raise ValueError(f"ray origins and directions must both have shape (n, 3), got {o.shape} and {d.shape}")
        best_t, best_p = np.full(len(o), np.inf), np.full(len(o), -1, dtype=np.intp)
        args = (o.ctypes.data, d.ctypes.data, T_MIN, best_t.ctypes.data, best_p.ctypes.data, table)
        if load_kernels().pf_intersect(len(o), *args) != 0:
            raise RuntimeError(f"BVH traversal overran its stack of {table.stack_size} slots")
        return best_t, best_p
