"""Spatial point index: radius (ball), k-nearest, and hybrid queries.

A :class:`PointIndex` snapshots an immutable array of 3D points. Queries
use a scipy cKDTree purely as a candidate generator; membership, distance,
and ordering are always recomputed in float64 numpy, so results are exactly
the (distance, id)-sorted sets a linear scan would produce. That keeps
boundary semantics (inclusive ``distance <= r``) and tie-breaking (ascending
id among equal distances) independent of the accelerator.

The batch kernels (``*_query_batch``, CSR layout) are the one
implementation; the scalar ``ball_query`` / ``knn_query`` /
``hybrid_query`` methods are batch-of-one wrappers over them.

``linear_ball_query`` / ``linear_knn_query`` / ``linear_hybrid_query`` are
the reference scans used by the test suite; they share only the distance
convention, not the index.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.spatial import cKDTree


def _distances(points, x):
    d = points - np.asarray(x, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def _sort_by_distance_then_id(ids, dists):
    order = np.lexsort((ids, dists))
    return ids[order], dists[order]


def _row_splits(owner, m):
    """CSR row offsets from the row index of each entry."""
    splits = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(np.bincount(owner, minlength=m), out=splits[1:])
    return splits


class PointIndex:
    """Immutable index over a snapshot of 3D points.

    Safe for concurrent queries; there is no incremental update, so callers
    rebuild when the underlying points move.
    """

    def __init__(self, points):
        points = np.asarray(points, dtype=np.float64)
        if points.size == 0:
            points = points.reshape(0, 3)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        self._points = points.copy()
        self._points.setflags(write=False)
        self._tree = cKDTree(self._points) if len(self._points) else None

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self):
        return self._points

    # -- scalar wrappers ---------------------------------------------------

    def ball_query(self, x, r: float):
        """All (id, distance) with distance <= r, sorted by (distance, id)."""
        return self._ball(np.asarray(x, dtype=np.float64).reshape(1, 3), r)[:2]

    def knn_query(self, x, k: int):
        """The min(k, n) nearest (id, distance), sorted by (distance, id).

        Ties at the k-th distance are resolved by ascending id, so results
        are unique for any input.
        """
        return self._knn(np.asarray(x, dtype=np.float64).reshape(1, 3), k)[:2]

    def hybrid_query(self, x, r: float, k_min: int):
        """Ball query, topped up with k-nearest neighbors when sparse.

        Returns deduplicated ids: the ball result when it already holds at
        least ``k_min`` points, otherwise the union of ball and k_min-NN
        results. Size is always >= min(k_min, n).
        """
        return self.hybrid_query_batch(np.asarray(x, dtype=np.float64).reshape(1, 3), r, k_min)[0]

    # -- batch kernels -----------------------------------------------------

    def _ball(self, xs, r):
        """Ball query of rows ``xs``: (ids, distances, row_splits)."""
        if r < 0:
            raise ValueError("radius must be non-negative")
        m = len(xs)
        if self._tree is None or m == 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64), np.zeros(m + 1, dtype=np.intp)
        # pad the tree radius a few ulps so exact recomputation never loses
        # a boundary point to accelerator-side rounding
        pad = np.nextafter(np.nextafter(r, np.inf), np.inf) + 1e-300
        pairs = cKDTree(xs).sparse_distance_matrix(self._tree, pad, output_type="ndarray")
        owner, flat = pairs["i"].astype(np.intp), pairs["j"].astype(np.intp)
        diff = self._points[flat] - xs[owner]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        keep = dist <= r
        flat, owner, dist = flat[keep], owner[keep], dist[keep]
        order = np.lexsort((flat, dist, owner))
        return flat[order], dist[order], _row_splits(owner[order], m)

    def _knn(self, xs, k):
        """k-nearest query of rows ``xs``: (ids, distances, row_splits)."""
        if k < 0:
            raise ValueError("k must be non-negative")
        m = len(xs)
        k_eff = min(k, len(self._points))
        if k_eff == 0 or m == 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64), np.zeros(m + 1, dtype=np.intp)
        dists, _ = self._tree.query(xs, k=k_eff)
        dmax = np.reshape(dists, (m, k_eff))[:, -1]
        # fetch everything within the k-th distance and re-rank exactly;
        # this makes the tie-break on id explicit
        rows = self._tree.query_ball_point(xs, dmax * (1.0 + 1e-12) + 1e-300)
        counts = np.fromiter((len(row) for row in rows), dtype=np.intp, count=m)
        short = counts < k_eff
        if np.any(short):  # accelerator distance rounded low; widen once
            rows[short] = self._tree.query_ball_point(xs[short], dmax[short] * (1.0 + 1e-9) + 1e-12)
            counts[short] = [len(row) for row in rows[short]]
        flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.intp, count=int(counts.sum()))
        owner = np.repeat(np.arange(m, dtype=np.intp), counts)
        diff = self._points[flat] - xs[owner]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        order = np.lexsort((flat, dist, owner))
        flat, owner, dist = flat[order], owner[order], dist[order]
        rank = np.arange(len(flat), dtype=np.intp) - (np.cumsum(counts) - counts)[owner]
        keep = rank < k_eff
        return flat[keep], dist[keep], _row_splits(owner[keep], m)

    def ball_query_batch(self, xs, r: float):
        """Vectorized ball query: (ids, row_splits) in CSR layout.

        ``ids[row_splits[i]:row_splits[i+1]]`` are the neighbors of point i,
        each row sorted by (distance, id).
        """
        return self._ball(np.asarray(xs, dtype=np.float64).reshape(-1, 3), r)[::2]

    def knn_query_batch(self, xs, k: int):
        """Vectorized k-nearest query in CSR layout (ids, row_splits).

        Each row holds exactly min(k, n) ids sorted by (distance, id).
        """
        return self._knn(np.asarray(xs, dtype=np.float64).reshape(-1, 3), k)[::2]

    def hybrid_query_batch(self, xs, r: float, k_min: int):
        """Vectorized hybrid query in CSR layout (ids, row_splits).

        Each row is its ball result, followed, when that holds fewer than
        min(k_min, n) ids, by the k_min-NN ids not already in it (in kNN
        order).
        """
        xs = np.asarray(xs, dtype=np.float64).reshape(-1, 3)
        flat, row_splits = self.ball_query_batch(xs, r)
        n, m = len(self._points), len(xs)
        counts = np.diff(row_splits)
        short = counts < min(k_min, n)
        if not np.any(short):
            return flat, row_splits
        sparse = np.nonzero(short)[0]
        kflat, ksplits = self.knn_query_batch(xs[sparse], k_min)
        kowner = np.repeat(sparse, np.diff(ksplits))
        owner = np.repeat(np.arange(m, dtype=np.intp), counts)
        # a kNN id is a duplicate when its (row, id) key is in a short ball
        in_short = short[owner]
        extra = ~np.isin(kowner * n + kflat, owner[in_short] * n + flat[in_short])
        # a stable sort on the row keeps ball ids first, then the extras
        owner = np.concatenate([owner, kowner[extra]])
        order = np.argsort(owner, kind="stable")
        return np.concatenate([flat, kflat[extra]])[order], _row_splits(owner, m)


def linear_ball_query(points, x, r: float):
    """Reference scan: all (id, distance) with distance <= r, (distance, id)-sorted."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(points) == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
    dists = _distances(points, x)
    ids = np.nonzero(dists <= r)[0].astype(np.intp)
    return _sort_by_distance_then_id(ids, dists[ids])


def linear_knn_query(points, x, k: int):
    """Reference scan: min(k, n) nearest (id, distance), (distance, id)-sorted."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(points)
    k_eff = min(k, n)
    if k_eff == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
    dists = _distances(points, x)
    ids = np.arange(n, dtype=np.intp)
    order = np.lexsort((ids, dists))[:k_eff]
    return ids[order], dists[order]


def linear_hybrid_query(points, x, r: float, k_min: int):
    """Reference scan for the hybrid (ball union kNN top-up) query."""
    ids, _ = linear_ball_query(points, x, r)
    if len(ids) >= k_min:
        return ids
    knn_ids, _ = linear_knn_query(points, x, k_min)
    if len(ids) == 0:
        return knn_ids
    extra = knn_ids[~np.isin(knn_ids, ids)]
    return np.concatenate([ids, extra])
