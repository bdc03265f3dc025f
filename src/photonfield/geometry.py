"""Ray-primitive geometry: spheres, quads, triangles, and a BVH.

Primitives live in flat struct-of-array storage so intersection kernels
vectorize over ray batches. The BVH prunes with axis-aligned bounds and
recurses on shrinking ray-index subsets; leaf kernels evaluate the exact
same per-primitive formulas as the brute-force path, so BVH and linear
scan agree bit-for-bit on non-degenerate rays.

All intersections use a strict self-intersection epsilon: hits require
``t > t_min`` (default 1e-4 scene units).
"""

from __future__ import annotations

import numpy as np

T_MIN = 1e-4

KIND_SPHERE = 0
KIND_QUAD = 1
KIND_TRIANGLE = 2

_LEAF_SIZE = 8
_DEGENERATE = 1e-12


class Geometry:
    """Immutable primitive soup with a BVH; shared read-only by render threads."""

    def __init__(self, kinds, pa, pb, pc, shape_ids):
        self.kinds = np.asarray(kinds, dtype=np.uint8)
        self.pa = np.asarray(pa, dtype=np.float64)
        self.pb = np.asarray(pb, dtype=np.float64)
        self.pc = np.asarray(pc, dtype=np.float64)
        self.shape_ids = np.asarray(shape_ids, dtype=np.intp)
        n = len(self.kinds)
        self._normals = np.zeros((n, 3), dtype=np.float64)
        self._precompute_normals()
        self._precompute_kernels()
        self._build_bvh()

    def _precompute_kernels(self):
        n = len(self)
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
        if n == 0:
            self.perm = np.empty(0, dtype=np.intp)
            self.node_lo = np.zeros((1, 3))
            self.node_hi = np.zeros((1, 3))
            self.node_left = np.array([-1])
            self.node_right = np.array([-1])
            self.node_start = np.array([0])
            self.node_count = np.array([0])
            return
        lo, hi = self._prim_bounds()
        centroids = 0.5 * (lo + hi)
        order: list[int] = []
        nodes_lo, nodes_hi, lefts, rights, starts, counts = [], [], [], [], [], []

        def emit(idx) -> int:
            me = len(nodes_lo)
            nodes_lo.append(lo[idx].min(axis=0))
            nodes_hi.append(hi[idx].max(axis=0))
            lefts.append(-1)
            rights.append(-1)
            starts.append(0)
            counts.append(0)
            if len(idx) <= _LEAF_SIZE:
                starts[me] = len(order)
                counts[me] = len(idx)
                order.extend(idx.tolist())
                return me
            c = centroids[idx]
            axis = int(np.argmax(c.max(axis=0) - c.min(axis=0)))
            half = len(idx) // 2
            split = np.argpartition(c[:, axis], half)
            left = emit(idx[split[:half]])
            right = emit(idx[split[half:]])
            lefts[me] = left
            rights[me] = right
            return me

        import sys

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 10000))
        try:
            emit(np.arange(n, dtype=np.intp))
        finally:
            sys.setrecursionlimit(old_limit)
        self.perm = np.asarray(order, dtype=np.intp)
        self.node_lo = np.asarray(nodes_lo)
        self.node_hi = np.asarray(nodes_hi)
        self.node_left = np.asarray(lefts, dtype=np.intp)
        self.node_right = np.asarray(rights, dtype=np.intp)
        self.node_start = np.asarray(starts, dtype=np.intp)
        self.node_count = np.asarray(counts, dtype=np.intp)
        # per-kind primitive arrays of every leaf, gathered once (None for
        # inner nodes); nothing is filled in later, so render threads share
        # the geometry read-only
        self._packs = [
            self._pack(self.perm[s:s + c]) if left < 0 else None
            for left, s, c in zip(lefts, starts, counts)
        ]

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

    def intersect(self, o, d, t_min: float = T_MIN, t_max: float = np.inf):
        """Nearest hit per ray: (t, prim_index), prim_index = -1 on miss.

        ``o``/``d`` have shape (n, 3); directions are assumed unit length.
        """
        o = np.atleast_2d(np.asarray(o, dtype=np.float64))
        d = np.atleast_2d(np.asarray(d, dtype=np.float64))
        n = len(o)
        best_t = np.full(n, t_max, dtype=np.float64)
        best_p = np.full(n, -1, dtype=np.intp)
        if len(self) == 0:
            return best_t, best_p
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_d = 1.0 / d
        self._traverse(0, np.arange(n, dtype=np.intp), o, d, inv_d, best_t, best_p, t_min)
        return best_t, best_p

    def intersect_linear(self, o, d, t_min: float = T_MIN, t_max: float = np.inf):
        """Brute-force scan over all primitives (test reference path)."""
        o = np.atleast_2d(np.asarray(o, dtype=np.float64))
        d = np.atleast_2d(np.asarray(d, dtype=np.float64))
        n = len(o)
        best_t = np.full(n, t_max, dtype=np.float64)
        best_p = np.full(n, -1, dtype=np.intp)
        if len(self) == 0:
            return best_t, best_p
        ridx = np.arange(n, dtype=np.intp)
        pack = self._pack(np.arange(len(self), dtype=np.intp))
        self._leaf_hits(pack, ridx, o, d, best_t, best_p, t_min)
        return best_t, best_p

    def _traverse(self, node, ridx, o, d, inv_d, best_t, best_p, t_min):
        lo = self.node_lo[node]
        hi = self.node_hi[node]
        ro = o[ridx]
        ri = inv_d[ridx]
        t0 = (lo - ro) * ri
        t1 = (hi - ro) * ri
        tn = np.fmin(t0, t1).max(axis=1)
        tf = np.fmax(t0, t1).min(axis=1)
        mask = (tn <= tf) & (tf > t_min) & (tn <= best_t[ridx])
        idx = ridx[mask]
        if idx.size == 0:
            return
        cnt = self.node_count[node]
        if cnt > 0 or self.node_left[node] < 0:
            self._leaf_hits(self._packs[node], idx, o, d, best_t, best_p, t_min)
            return
        self._traverse(self.node_left[node], idx, o, d, inv_d, best_t, best_p, t_min)
        self._traverse(self.node_right[node], idx, o, d, inv_d, best_t, best_p, t_min)

    def _leaf_hits(self, pack, ridx, o, d, best_t, best_p, t_min):
        ro = o[ridx]
        rd = d[ridx]
        m = len(ridx)
        prims = pack["prims"]
        t_mat = np.full((m, pack["k"]), np.inf)

        if "sph" in pack:
            cols, c, r = pack["sph"]
            oc = ro[:, None, :] - c[None, :, :]
            b = np.einsum("mki,mi->mk", oc, rd)
            cc = np.einsum("mki,mki->mk", oc, oc) - r[None, :] ** 2
            disc = b * b - cc
            ok = disc >= 0.0
            sq = np.sqrt(np.where(ok, disc, 0.0))
            t_near = -b - sq
            t_far = -b + sq
            t = np.where(t_near > t_min, t_near, t_far)
            t = np.where(ok & (t > t_min), t, np.inf)
            t_mat[:, cols] = t

        if "quad" in pack:
            cols, corner, eu, ev, nq, gram = pack["quad"]
            denom = np.einsum("mi,ki->mk", rd, nq)
            w0 = corner[None, :, :] - ro[:, None, :]
            t = np.einsum("mki,ki->mk", w0, nq)
            with np.errstate(divide="ignore", invalid="ignore"):
                t = t / denom
                p = ro[:, None, :] + t[..., None] * rd[:, None, :]
                w = p - corner[None, :, :]
                r1 = np.einsum("mki,ki->mk", w, eu)
                r2 = np.einsum("mki,ki->mk", w, ev)
                alpha = gram[:, 2] * r1 - gram[:, 1] * r2
                beta = gram[:, 0] * r2 - gram[:, 1] * r1
                ok = (
                    (np.abs(denom) > _DEGENERATE)
                    & (t > t_min)
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
                    & (t > t_min)
                    & np.isfinite(t)
                )
            t_mat[:, cols] = np.where(ok, t, np.inf)

        leaf_best = t_mat.min(axis=1)
        leaf_arg = t_mat.argmin(axis=1)
        better = leaf_best < best_t[ridx]
        upd = ridx[better]
        best_t[upd] = leaf_best[better]
        best_p[upd] = prims[leaf_arg[better]]

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
