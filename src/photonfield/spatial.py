"""Spatial point index: radius (ball), k-nearest, and hybrid queries.

A :class:`PointIndex` snapshots an immutable array of 3D points into an
implicit kd-tree, and answers queries with the compiled kernels of
``_spatial.c`` (loaded through :func:`geometry.load_kernels`). The kernels
compute every distance as numpy's ``sqrt(einsum("ij,ij->i", d, d))`` with
``d = p - x`` rounds it, prune only boxes whose distance bound provably
exceeds the cut-off, and order every row by (distance, id). So each row is
exactly what a linear scan gives, with inclusive boundaries (``distance
<= r``) and ties broken by ascending id, whatever the tree's shape.

The batch queries (``*_query_batch``) are the only queries: they take an
(m, 3) array of points and answer in CSR layout, one row of ids per point.
:func:`gather_rows` picks rows out of such a result. A hybrid row is the
ball row, topped up from the kNN row when the ball holds fewer than
``k_eff = min(k_min, n)`` ids. Every row is (distance, id)-sorted with the
same rounding, so such a short ball row is a prefix of its kNN row, and its
hybrid row is the kNN row: the hybrid query splices the ball and kNN
results with that row gather.

``linear_ball_query`` / ``linear_knn_query`` / ``linear_hybrid_query`` are
the reference scans used by the test suite; they share only the distance
convention, not the index.
"""

from __future__ import annotations

import numpy as np

from .geometry import KdTreeTable, load_kernels

_LEAF_SIZE = 16  # at most this many points per leaf


def _distances(points, x):
    d = points - np.asarray(x, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def _sort_by_distance_then_id(ids, dists):
    order = np.lexsort((ids, dists))
    return ids[order], dists[order]


def _empty_rows(m):
    return np.empty(0, dtype=np.intp), np.zeros(m + 1, dtype=np.intp)


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
        n = len(self._points)
        if n == 0:
            return
        # the shallowest complete tree whose leaves hold at most _LEAF_SIZE points
        depth = 0
        while _LEAF_SIZE << depth < n:
            depth += 1
        self._tree = KdTreeTable(
            depth=depth,
            perm=np.empty(n, dtype=np.intp),  # point ids in leaf order
            tpts=np.empty((n, 3)),  # the points in leaf order
            lo=np.empty(((2 << depth) - 1, 3)),  # node box lower corners
            hi=np.empty(((2 << depth) - 1, 3)),  # node box upper corners
            leaf_start=np.empty((1 << depth) + 1, dtype=np.intp),  # leaf j holds perm[leaf_start[j]:leaf_start[j + 1]]
        )
        load_kernels().pf_kd_build(n, self._points.ctypes.data, self._tree)

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self):
        return self._points

    # -- batch kernels -----------------------------------------------------

    def ball_query_batch(self, xs, r: float):
        """Vectorized ball query: (ids, row_splits) in CSR layout.

        ``ids[row_splits[i]:row_splits[i+1]]`` are the ids within distance
        ``r`` of point i, each row sorted by (distance, id).
        """
        if not r >= 0:
            raise ValueError("radius must be non-negative")
        xs = _queries(xs)
        m = len(xs)
        if len(self) == 0 or m == 0:
            return _empty_rows(m)
        splits = np.zeros(m + 1, dtype=np.intp)
        cap = 8 * m + 64
        ids, dists = np.empty(cap, dtype=np.intp), np.empty(cap)  # the kernel sorts rows by dists
        row = 0
        while True:
            row = load_kernels().pf_ball(
                self._tree, m, xs.ctypes.data, r, row, cap, ids.ctypes.data, dists.ctypes.data, splits.ctypes.data
            )
            if row == m:
                break
            # row ``row`` did not fit: keep the finished rows, double the room
            done, cap = splits[row], 2 * cap
            ids = np.concatenate([ids[:done], np.empty(cap - done, dtype=np.intp)])
            dists = np.concatenate([dists[:done], np.empty(cap - done)])
        return ids[: splits[m]], splits

    def knn_query_batch(self, xs, k: int):
        """Vectorized k-nearest query in CSR layout (ids, row_splits).

        Each row holds exactly min(k, n) ids sorted by (distance, id), so
        ties at the k-th distance go to the lower ids.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        xs = _queries(xs)
        m = len(xs)
        k_eff = min(k, len(self))
        if k_eff == 0 or m == 0:
            return _empty_rows(m)
        ids, dists = np.empty(m * k_eff, dtype=np.intp), np.empty(m * k_eff)  # the kernel sorts rows by dists
        load_kernels().pf_knn(self._tree, m, xs.ctypes.data, k_eff, ids.ctypes.data, dists.ctypes.data)
        return ids, np.arange(m + 1, dtype=np.intp) * k_eff

    def hybrid_query_batch(self, xs, r: float, k_min: int):
        """Vectorized hybrid query in CSR layout (ids, row_splits).

        Each row is its ball result, topped up, when that holds fewer than
        ``k_eff = min(k_min, n)`` ids, with the k_min-NN ids not already in
        it (in kNN order). A short ball row of ``b < k_eff`` ids is exactly
        the first ``b`` ids of the same point's kNN row: every other id lies
        at a distance ``> r``, and both kernels round distances alike. So a
        short row's hybrid row is its kNN row, and every other row is its
        ball row.
        """
        if k_min < 0:
            raise ValueError("k_min must be non-negative")
        xs = _queries(xs)
        flat, splits = self.ball_query_batch(xs, r)
        k_eff = min(k_min, len(self))
        short = np.flatnonzero(np.diff(splits) < k_eff)
        if len(short) == 0:
            return flat, splits
        kflat, ksplits = self.knn_query_batch(xs[short], k_min)
        # the ball rows, then the kNN rows; a short row takes its kNN row
        m = len(xs)
        rows = np.arange(m, dtype=np.intp)
        rows[short] = m + np.arange(len(short), dtype=np.intp)
        return gather_rows(np.concatenate([flat, kflat]), np.concatenate([splits, len(flat) + ksplits[1:]]), rows)


def gather_rows(flat, splits, rows):
    """CSR sub-batch holding rows ``rows`` of ``(flat, splits)``, in order."""
    starts = splits[rows]
    counts = splits[rows + 1] - starts
    out_splits = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(counts, out=out_splits[1:])
    pos = np.repeat(starts - out_splits[:-1], counts) + np.arange(out_splits[-1], dtype=np.intp)
    return flat[pos], out_splits


def _queries(xs):
    """Query points as a C-contiguous float64 (m, 3) array; they must be finite."""
    xs = np.ascontiguousarray(xs, dtype=np.float64).reshape(-1, 3)
    if not np.all(np.isfinite(xs)):
        raise ValueError("query points must be finite")
    return xs


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
