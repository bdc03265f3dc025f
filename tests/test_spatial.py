"""Point index queries against independent linear-scan references."""

import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import linear_ball_query, linear_hybrid_query, linear_knn_query
from photonfield.spatial import PointIndex


def _random_points(n, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, (n, 3))


def _rows(flat, splits):
    return [flat[splits[i]:splits[i + 1]] for i in range(len(splits) - 1)]


def _dists(pts, ids, x):
    return np.linalg.norm(pts[ids] - x, axis=1)


class TestBallQuery:
    def test_constructed_distances(self):
        pts = np.array([[0.01, 0, 0], [0, 0.019, 0], [0, 0, 0.05]])
        ids, splits = PointIndex(pts).ball_query_batch(np.zeros((1, 3)), 0.02)
        np.testing.assert_array_equal(splits, [0, 2])
        np.testing.assert_array_equal(ids, [0, 1])
        np.testing.assert_allclose(_dists(pts, ids, 0.0), [0.01, 0.019])

    def test_boundary_is_inclusive(self):
        idx = PointIndex(np.array([[0.5, 0.0, 0.0]]))
        ids, _ = idx.ball_query_batch(np.zeros((1, 3)), 0.5)
        np.testing.assert_array_equal(ids, [0])

    def test_radius_zero_returns_self(self):
        pts = _random_points(1000, seed=1)
        queries = np.arange(0, 1000, 97)
        flat, splits = PointIndex(pts).ball_query_batch(pts[queries], 0.0)
        for i, row in zip(queries, _rows(flat, splits)):
            assert i in row
            assert np.all(pts[row] == pts[i])

    def test_infinite_radius_returns_everything(self):
        pts = _random_points(500, seed=2)
        flat, splits = PointIndex(pts).ball_query_batch(np.zeros((3, 3)), np.inf)
        np.testing.assert_array_equal(splits, [0, 500, 1000, 1500])

    def test_matches_linear_scan(self):
        pts = _random_points(2000, seed=3)
        idx = PointIndex(pts)
        rng = np.random.default_rng(4)
        for _ in range(5):
            xs = rng.uniform(-1.2, 1.2, (10, 3))
            r = rng.uniform(0.0, 0.6)
            flat, splits = idx.ball_query_batch(xs, r)
            for x, row in zip(xs, _rows(flat, splits)):
                np.testing.assert_array_equal(row, linear_ball_query(pts, x, r)[0])

    def test_empty_index_answers_empty(self):
        idx = PointIndex(np.zeros((0, 3)))
        for flat, splits in (idx.ball_query_batch(np.zeros((1, 3)), 1.0), idx.hybrid_query_batch(np.zeros((1, 3)), 1.0, 3)):
            assert len(flat) == 0
            np.testing.assert_array_equal(splits, [0, 0])

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            PointIndex(np.zeros((1, 3))).ball_query_batch(np.zeros((1, 3)), -0.1)

    def test_nonfinite_points_rejected(self):
        with pytest.raises(ValueError):
            PointIndex(np.array([[np.nan, 0, 0]]))

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_rows_ignore_later_writes_to_the_source_points(self, layout):
        pts = _random_points(300, seed=11)
        source = layout(pts.copy())
        idx = PointIndex(source)
        source[:] = _random_points(300, seed=12)
        xs = _random_points(8, seed=13)
        flat, splits = idx.ball_query_batch(xs, 0.4)
        kflat, ksplits = idx.knn_query_batch(xs, 5)
        for x, row, krow in zip(xs, _rows(flat, splits), _rows(kflat, ksplits)):
            np.testing.assert_array_equal(row, linear_ball_query(pts, x, 0.4)[0])
            np.testing.assert_array_equal(krow, linear_knn_query(pts, x, 5)[0])


class TestKnnQuery:
    def test_k_zero_is_empty(self):
        flat, splits = PointIndex(_random_points(10)).knn_query_batch(np.zeros((2, 3)), 0)
        assert len(flat) == 0
        np.testing.assert_array_equal(splits, [0, 0, 0])

    def test_k_at_least_n_returns_all_sorted(self):
        pts = _random_points(50, seed=5)
        x = np.array([0.1, 0.2, 0.3])
        ids, splits = PointIndex(pts).knn_query_batch(x[None], 100)
        np.testing.assert_array_equal(splits, [0, 50])
        assert np.all(np.diff(_dists(pts, ids, x)) >= 0)
        np.testing.assert_array_equal(np.sort(ids), np.arange(50))

    def test_matches_linear_scan(self):
        pts = _random_points(3000, seed=6)
        idx = PointIndex(pts)
        rng = np.random.default_rng(7)
        for k in range(1, 12):
            xs = rng.uniform(-1, 1, (5, 3))
            flat, splits = idx.knn_query_batch(xs, k)
            for x, row in zip(xs, _rows(flat, splits)):
                np.testing.assert_array_equal(row, linear_knn_query(pts, x, k)[0])

    def test_exact_ties_break_by_ascending_id(self):
        # four points at identical distance, ids decide the order
        pts = np.array([[0.25, 0, 0], [0, 0.25, 0], [-0.25, 0, 0], [0, -0.25, 0], [0, 0, 0.9]])
        ids, _ = PointIndex(pts).knn_query_batch(np.zeros((1, 3)), 3)
        np.testing.assert_array_equal(ids, [0, 1, 2])
        assert np.all(_dists(pts, ids, 0.0) == 0.25)
        np.testing.assert_array_equal(ids, linear_knn_query(pts, np.zeros(3), 3)[0])


class TestHybridQuery:
    def test_dense_region_uses_ball_result_only(self):
        rng = np.random.default_rng(8)
        cluster = rng.uniform(-0.01, 0.01, (10, 3))
        far = rng.uniform(0.5, 1.0, (5, 3))
        idx = PointIndex(np.vstack([cluster, far]))
        ids, _ = idx.hybrid_query_batch(np.zeros((1, 3)), 0.02, 3)
        ball_ids, _ = idx.ball_query_batch(np.zeros((1, 3)), 0.02)
        np.testing.assert_array_equal(ids, ball_ids)
        assert len(ids) >= 10

    def test_far_query_returns_k_min_nearest(self):
        idx = PointIndex(_random_points(100, seed=9))
        xs = np.array([[10.0, 10.0, 10.0], [-10.0, 0.0, 10.0]])
        ids, splits = idx.hybrid_query_batch(xs, 0.02, 3)
        knn_ids, knn_splits = idx.knn_query_batch(xs, 3)
        np.testing.assert_array_equal(ids, knn_ids)
        np.testing.assert_array_equal(splits, knn_splits)

    def test_union_deduplicates(self):
        pts = np.array([[0.005, 0, 0], [0, 0.01, 0], [0.5, 0, 0], [0, 0, 0.8]])
        ids, _ = PointIndex(pts).hybrid_query_batch(np.zeros((1, 3)), 0.02, 3)
        assert len(ids) == 3
        assert len(np.unique(ids)) == 3
        assert set(ids[:2]) == {0, 1}

    def test_result_superset_of_ball_and_size_floor(self):
        pts = _random_points(500, seed=10)
        idx = PointIndex(pts)
        rng = np.random.default_rng(11)
        for _ in range(10):
            xs = rng.uniform(-1.5, 1.5, (10, 3))
            r = rng.uniform(0.0, 0.3)
            k_min = int(rng.integers(0, 8))
            hybrid = _rows(*idx.hybrid_query_batch(xs, r, k_min))
            ball = _rows(*idx.ball_query_batch(xs, r))
            for x, ids, ball_ids in zip(xs, hybrid, ball):
                assert set(ball_ids).issubset(set(ids))
                assert len(ids) >= min(k_min, len(pts))
                np.testing.assert_array_equal(ids, linear_hybrid_query(pts, x, r, k_min))

    def test_negative_k_min_rejected(self):
        idx = PointIndex(_random_points(10))
        with pytest.raises(ValueError, match="k_min"):
            idx.hybrid_query_batch(np.zeros((1, 3)), 0.1, -2)


class TestHybridRowsAreBallOrKnnRows:
    """A ball row of b < min(k_min, n) ids is the first b ids of its kNN row,
    so each hybrid row is byte-equal to its kNN row when the ball row is
    short and to its ball row otherwise; the linear scan checks both."""

    def _check(self, pts, xs, r, k):
        idx = PointIndex(pts)
        hybrid = _rows(*idx.hybrid_query_batch(xs, r, k))
        ball = _rows(*idx.ball_query_batch(xs, r))
        knn = _rows(*idx.knn_query_batch(xs, k))
        k_eff = min(k, len(pts))
        assert len(hybrid) == len(xs)
        for x, h, b, nn in zip(xs, hybrid, ball, knn):
            assert h.tobytes() == (nn if len(b) < k_eff else b).tobytes()
            assert h.tobytes() == linear_hybrid_query(pts, x, r, k).astype(np.intp).tobytes()
        return sum(len(b) < k_eff for b in ball)

    def test_tie_heavy_grid(self):
        g = 0.125 * np.arange(5)
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        xs = np.vstack([pts[::3], pts[::7] + 0.0625, pts[::5] + [0.0625, 0.0, 0.0], [[1.0, 1.0, 1.0]]])
        for r in (0.0, 0.0625, 0.125, 0.25):
            for k in (1, 4, 7, 11):
                short = self._check(pts, xs, r, k)
                assert 0 < short or r == 0.25
        assert 0 < self._check(pts, xs, 0.125, 8) < len(xs)  # short and full rows in one batch

    def test_duplicated_points(self):
        rng = np.random.default_rng(41)
        base = rng.uniform(-1, 1, (120, 3))
        pts = np.vstack([base, base[:50], base[:50], base[:10]])  # up to four copies of one point
        xs = np.vstack([base[:40], rng.uniform(-1, 1, (40, 3))])
        for r, k in ((0.0, 2), (0.0, 5), (0.15, 6), (0.3, 9)):
            assert self._check(pts, xs, r, k) > 0

    def test_k_beyond_n_k_zero_and_empty_index(self):
        pts = _random_points(7, seed=42)
        xs = np.vstack([pts[:3], _random_points(12, seed=43, lo=-2.0, hi=2.0)])
        assert self._check(pts, xs, 0.3, 12) > 0
        assert self._check(pts, xs, 0.0, 7) == len(xs)  # k = n
        assert self._check(pts, xs, 0.0, 1) == len(xs) - 3  # each of pts[:3] finds only itself
        assert self._check(pts, xs, 0.3, 0) == 0
        assert self._check(np.zeros((0, 3)), xs, 0.3, 5) == 0


def _assert_batch_rows_match_linear_scan(pts, xs, r, k_min):
    """Every row of both batch kernels equals the linear-scan reference."""
    idx = PointIndex(pts)
    bflat, bsplits = idx.ball_query_batch(xs, r)
    hflat, hsplits = idx.hybrid_query_batch(xs, r, k_min)
    assert len(bsplits) == len(hsplits) == len(xs) + 1
    for i, x in enumerate(xs):
        ref_ball, _ = linear_ball_query(pts, x, r)
        np.testing.assert_array_equal(bflat[bsplits[i]:bsplits[i + 1]], ref_ball)
        ref_hybrid = linear_hybrid_query(pts, x, r, k_min)
        np.testing.assert_array_equal(hflat[hsplits[i]:hsplits[i + 1]], ref_hybrid)
    return np.diff(bsplits)


class TestBatchKernelsAgainstLinearScan:
    def test_empty_and_partly_overlapping_balls(self):
        rng = np.random.default_rng(24)
        pts = np.vstack([rng.normal(0.0, 0.03, (400, 3)), rng.uniform(-1, 1, (100, 3))])
        xs = np.vstack([rng.normal(0.0, 0.05, (150, 3)), rng.uniform(-1.5, 1.5, (150, 3))])
        ball_sizes = _assert_batch_rows_match_linear_scan(pts, xs, 0.02, 5)
        assert np.any(ball_sizes == 0)  # pure kNN rows
        assert np.any((ball_sizes > 0) & (ball_sizes < 5))  # ball and kNN overlap
        assert np.any(ball_sizes >= 5)  # ball only

    def test_k_min_at_least_n(self):
        pts = _random_points(6, seed=25)
        xs = np.vstack([pts[:2], _random_points(20, seed=26, lo=-2.0, hi=2.0)])
        for k_min in (6, 9):
            _assert_batch_rows_match_linear_scan(pts, xs, 0.3, k_min)
        flat, splits = PointIndex(pts).hybrid_query_batch(xs, 0.3, 9)
        assert np.all(np.diff(splits) == 6)

    def test_points_exactly_at_radius_and_exact_ties(self):
        # a grid on exact binary fractions: axis neighbors sit exactly at
        # r = 0.125 and many neighbors share one distance bit for bit
        g = 0.125 * np.arange(6)
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        xs = np.vstack([pts[::7], pts[::11] + 0.0625, [[2.0, 2.0, 2.0]]])
        ball_sizes = _assert_batch_rows_match_linear_scan(pts, xs, 0.125, 8)
        flat, splits = PointIndex(pts).ball_query_batch(pts[43:44], 0.125)
        assert len(flat) == 7  # itself plus all six axis neighbors at exactly r
        assert np.any(ball_sizes == 0) and np.any(ball_sizes >= 8)
        # kNN cut-offs land inside a tie group: the id order decides
        _assert_batch_rows_match_linear_scan(pts, xs, 0.0, 3)

    def test_empty_index_and_empty_batch(self):
        flat, splits = PointIndex(np.zeros((0, 3))).hybrid_query_batch(np.zeros((4, 3)), 0.1, 3)
        assert len(flat) == 0
        np.testing.assert_array_equal(splits, np.zeros(5))
        flat, splits = PointIndex(_random_points(10)).hybrid_query_batch(np.zeros((0, 3)), 0.1, 3)
        assert len(flat) == 0
        np.testing.assert_array_equal(splits, [0])


class TestStructuralProperties:
    def test_build_is_deterministic(self):
        pts = _random_points(1000, seed=18)
        a = PointIndex(pts)
        b = PointIndex(pts)
        xs = np.array([[0.2, -0.1, 0.4], [-0.5, 0.3, 0.0]])
        for query in (lambda idx: idx.ball_query_batch(xs, 0.3), lambda idx: idx.knn_query_batch(xs, 7)):
            for got, want in zip(query(a), query(b)):
                assert got.tobytes() == want.tobytes()

    def test_permutation_invariant_distance_multisets(self):
        pts = _random_points(400, seed=19)
        perm = np.random.default_rng(20).permutation(len(pts))
        a = PointIndex(pts)
        b = PointIndex(pts[perm])
        x = np.array([0.0, 0.1, -0.2])
        for query in (lambda idx: idx.ball_query_batch(x[None], 0.4), lambda idx: idx.knn_query_batch(x[None], 9)):
            da = _dists(pts, query(a)[0], x)
            db = _dists(pts[perm], query(b)[0], x)
            np.testing.assert_array_equal(np.sort(da), np.sort(db))

    def test_query_cost_stays_sublinear(self):
        # soft performance guard: per-query time on 10x the points must not
        # grow anywhere near 10x (accelerated lookups, not scans)
        small = PointIndex(_random_points(2000, seed=21))
        large = PointIndex(_random_points(20000, seed=22))
        xs = np.random.default_rng(23).uniform(-1, 1, (4000, 3))

        def timed(idx):
            t0 = time.perf_counter()
            idx.ball_query_batch(xs, 0.05)
            idx.knn_query_batch(xs, 4)
            return time.perf_counter() - t0

        timed(small)  # warm up
        t_small = timed(small)
        t_large = timed(large)
        assert t_large < 5.0 * max(t_small, 1e-4)


def _assert_kernels_match_linear_scan(pts, xs, r, k):
    """Ball, kNN and hybrid rows equal the linear scans' ids, byte for byte."""
    idx = PointIndex(pts)
    xs = np.asarray(xs, dtype=np.float64).reshape(-1, 3)
    ball = idx.ball_query_batch(xs, r)
    for (flat, splits), scan in (
        (ball, lambda x: linear_ball_query(pts, x, r)[0]),
        (idx.knn_query_batch(xs, k), lambda x: linear_knn_query(pts, x, k)[0]),
        (idx.hybrid_query_batch(xs, r, k), lambda x: linear_hybrid_query(pts, x, r, k)),
    ):
        assert len(splits) == len(xs) + 1
        for x, row in zip(xs, _rows(flat, splits)):
            assert row.tobytes() == scan(x).astype(np.intp).tobytes()
    return np.diff(ball[1])


class TestKernelAgainstLinearScan:
    """Edge cases of the compiled kd-tree, each checked against the linear scans."""

    def test_points_on_node_faces_and_at_exactly_r(self):
        # a lattice of exact binary fractions: node boxes have faces through
        # points, and lattice neighbours lie at exactly r
        g = 0.125 * np.arange(7)
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        idx = PointIndex(pts)
        lo, hi = idx._tree.arrays["lo"], idx._tree.arrays["hi"]
        outside = pts[pts[:, 2] == 0.0] - [0.0, 0.0, 0.25]  # the nearest point is exactly r = 0.25 below the root box
        xs = np.vstack([pts[::5], lo[::3], hi[::3], outside, pts[::9] + 0.0625])
        for r in (0.125, 0.25, float(np.sqrt(2 * 0.125 ** 2))):
            _assert_kernels_match_linear_scan(pts, xs, r, 9)
        ball = idx.ball_query_batch(outside, 0.25)
        assert np.all(np.diff(ball[1]) == 1)

    def test_duplicate_and_coincident_points(self):
        rng = np.random.default_rng(30)
        base = rng.uniform(-1, 1, (200, 3))
        pts = np.vstack([base, base[:60], base[:20]])  # ids 200.. repeat earlier points
        xs = np.vstack([base[:30], rng.uniform(-1, 1, (30, 3))])
        _assert_kernels_match_linear_scan(pts, xs, 0.0, 2)
        _assert_kernels_match_linear_scan(pts, xs, 0.2, 7)
        same = np.tile([0.3, -0.2, 0.1], (70, 1))  # zero-extent bounds on every axis
        xs = np.vstack([same[:1], [[0.3, -0.2, 0.2]], [[5.0, 5.0, 5.0]]])
        sizes = _assert_kernels_match_linear_scan(same, xs, 0.0, 5)
        np.testing.assert_array_equal(sizes, [70, 0, 0])
        _assert_kernels_match_linear_scan(same, xs, 0.1, 80)

    def test_knn_far_outside_the_point_bounds(self):
        pts = _random_points(1500, seed=31)
        rng = np.random.default_rng(32)
        direction = rng.normal(size=(40, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        xs = np.vstack([direction * 3.0, direction * 1e3, direction * 1e7])
        for k in (1, 6, 37):
            _assert_kernels_match_linear_scan(pts, xs, 0.01, k)

    def test_tight_cluster_inside_sparse_points(self):
        rng = np.random.default_rng(33)
        cluster = 0.25 + rng.normal(0.0, 1e-6, (3000, 3))
        pts = np.vstack([rng.uniform(-1, 1, (400, 3)), cluster])
        xs = np.vstack([cluster[::150], 0.25 + rng.normal(0.0, 3e-6, (20, 3)), rng.uniform(-1, 1, (20, 3))])
        sizes = _assert_kernels_match_linear_scan(pts, xs, 2e-6, 12)
        assert sizes.max() > 100 and sizes.min() == 0  # heap-sorted rows and pure kNN rows
        _assert_kernels_match_linear_scan(pts, xs[::4], 0.5, 400)

    def test_r_zero_r_inf_and_k_at_least_n(self):
        pts = _random_points(300, seed=34)
        xs = np.vstack([pts[::13], _random_points(10, seed=35, lo=-3.0, hi=3.0)])
        sizes = _assert_kernels_match_linear_scan(pts, xs, 0.0, len(pts))
        np.testing.assert_array_equal(sizes[:24], 1)
        sizes = _assert_kernels_match_linear_scan(pts, xs, np.inf, len(pts) + 5)
        assert np.all(sizes == len(pts))

    def test_empty_index_and_empty_batch_for_every_kernel(self):
        empty = PointIndex(np.zeros((0, 3)))
        xs = _random_points(4, seed=36)
        for flat, splits in (empty.ball_query_batch(xs, 0.5), empty.knn_query_batch(xs, 3), empty.hybrid_query_batch(xs, 0.5, 3)):
            assert len(flat) == 0
            np.testing.assert_array_equal(splits, np.zeros(5))
        idx = PointIndex(_random_points(20, seed=37))
        none = np.zeros((0, 3))
        for flat, splits in (idx.ball_query_batch(none, 0.5), idx.knn_query_batch(none, 3), idx.hybrid_query_batch(none, 0.5, 3)):
            assert len(flat) == 0
            np.testing.assert_array_equal(splits, [0])

    def test_two_threads_give_identical_bytes(self):
        rng = np.random.default_rng(38)
        pts = np.vstack([rng.uniform(-1, 1, (5000, 3)), 0.1 + rng.normal(0.0, 0.05, (5000, 3))])
        idx = PointIndex(pts)
        xs = np.vstack([rng.uniform(-1.1, 1.1, (20000, 3)), 0.1 + rng.normal(0.0, 0.05, (20000, 3))])

        def queries(i):
            part = xs[i::2]
            return [a.tobytes() for a in (*idx.ball_query_batch(part, 0.02), *idx.knn_query_batch(part, 5), *idx.hybrid_query_batch(part, 0.01, 6))]

        serial = [queries(i) for i in range(2)]
        with ThreadPoolExecutor(2) as pool:
            for _ in range(3):
                assert list(pool.map(queries, range(2))) == serial

    def test_distances_are_bit_equal_to_the_oracle(self):
        # offsets and spreads whose squared components round differently
        # when summed in another order
        rng = np.random.default_rng(39)
        pts = 100.0 + rng.normal(size=(2000, 3)) * rng.uniform(0.0, 2.0, (2000, 3))
        xs = 100.0 + rng.normal(size=(60, 3))
        _assert_kernels_match_linear_scan(pts, xs, 1.5, 25)
        # rows carry no distances, so their bits show at the inclusive
        # boundary: a radius equal to a point's distance keeps the point and
        # the float below drops it. Pick points whose distance another
        # summation order rounds differently, which would flip one answer.
        d = pts - xs[0]
        dist = np.sqrt(np.einsum("ij,ij->i", d, d))
        sq = d * d
        moved = np.zeros(len(pts), dtype=bool)
        for a, b, c in ((0, 1, 2), (1, 2, 0)):
            moved |= np.sqrt((sq[:, a] + sq[:, b]) + sq[:, c]) != dist
        picked = np.flatnonzero(moved)[:20]
        assert len(picked) == 20
        for j in picked:
            for r in (dist[j], np.nextafter(dist[j], 0.0)):
                _assert_kernels_match_linear_scan(pts, xs[:1], r, 25)

    def test_non_finite_queries_rejected(self):
        idx = PointIndex(_random_points(10))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                idx.ball_query_batch([[0.0, bad, 0.0]], 0.1)
            with pytest.raises(ValueError, match="finite"):
                idx.knn_query_batch([[bad, 0.0, 0.0]], 2)


def test_import_and_query_need_no_scipy():
    code = (
        "import sys, numpy as np, photonfield as pf; "
        "pts = np.random.default_rng(0).uniform(-1, 1, (100, 3)); "
        "flat, splits = pf.PointIndex(pts).hybrid_query_batch(pts[:10], 0.2, 4); "
        "assert len(splits) == 11; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"
