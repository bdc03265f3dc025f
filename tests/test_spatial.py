"""Point index queries against independent linear-scan references."""

import time

import numpy as np
import pytest

from photonfield.spatial import (
    build,
    linear_ball_query,
    linear_hybrid_query,
    linear_knn_query,
)


def _random_points(n, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, (n, 3))


class TestBallQuery:
    def test_constructed_distances(self):
        pts = np.array([[0.01, 0, 0], [0, 0.019, 0], [0, 0, 0.05]])
        idx = build(pts)
        ids, dists = idx.ball_query([0.0, 0.0, 0.0], 0.02)
        np.testing.assert_array_equal(ids, [0, 1])
        np.testing.assert_allclose(dists, [0.01, 0.019])

    def test_boundary_is_inclusive(self):
        idx = build(np.array([[0.5, 0.0, 0.0]]))
        ids, _ = idx.ball_query([0.0, 0.0, 0.0], 0.5)
        np.testing.assert_array_equal(ids, [0])

    def test_radius_zero_returns_self(self):
        pts = _random_points(1000, seed=1)
        idx = build(pts)
        for i in range(0, 1000, 97):
            ids, dists = idx.ball_query(pts[i], 0.0)
            assert i in ids
            assert np.all(dists == 0.0)

    def test_infinite_radius_returns_everything(self):
        pts = _random_points(500, seed=2)
        idx = build(pts)
        ids, _ = idx.ball_query([0.0, 0.0, 0.0], np.inf)
        assert len(ids) == 500

    def test_matches_linear_scan(self):
        pts = _random_points(2000, seed=3)
        idx = build(pts)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.uniform(-1.2, 1.2, 3)
            r = rng.uniform(0.0, 0.6)
            ids, dists = idx.ball_query(x, r)
            ref_ids, ref_dists = linear_ball_query(pts, x, r)
            np.testing.assert_array_equal(ids, ref_ids)
            np.testing.assert_array_equal(dists, ref_dists)

    def test_empty_index_answers_empty(self):
        idx = build(np.zeros((0, 3)))
        ids, _ = idx.ball_query([0.0, 0.0, 0.0], 1.0)
        assert len(ids) == 0
        assert len(idx.hybrid_query([0.0, 0.0, 0.0], 1.0, 3)) == 0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            build(np.zeros((1, 3))).ball_query([0, 0, 0], -0.1)

    def test_nonfinite_points_rejected(self):
        with pytest.raises(ValueError):
            build(np.array([[np.nan, 0, 0]]))


class TestKnnQuery:
    def test_k_zero_is_empty(self):
        idx = build(_random_points(10))
        ids, _ = idx.knn_query([0, 0, 0], 0)
        assert len(ids) == 0

    def test_k_at_least_n_returns_all_sorted(self):
        pts = _random_points(50, seed=5)
        idx = build(pts)
        ids, dists = idx.knn_query([0.1, 0.2, 0.3], 100)
        assert len(ids) == 50
        assert np.all(np.diff(dists) >= 0)
        np.testing.assert_array_equal(np.sort(ids), np.arange(50))

    def test_matches_linear_scan(self):
        pts = _random_points(3000, seed=6)
        idx = build(pts)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(-1, 1, 3)
            k = int(rng.integers(1, 12))
            ids, dists = idx.knn_query(x, k)
            ref_ids, ref_dists = linear_knn_query(pts, x, k)
            np.testing.assert_array_equal(ids, ref_ids)
            np.testing.assert_array_equal(dists, ref_dists)

    def test_exact_ties_break_by_ascending_id(self):
        # four points at identical distance, ids decide the order
        pts = np.array([[0.25, 0, 0], [0, 0.25, 0], [-0.25, 0, 0], [0, -0.25, 0], [0, 0, 0.9]])
        idx = build(pts)
        ids, dists = idx.knn_query([0.0, 0.0, 0.0], 3)
        np.testing.assert_array_equal(ids, [0, 1, 2])
        assert np.all(dists == 0.25)
        ref_ids, _ = linear_knn_query(pts, [0.0, 0.0, 0.0], 3)
        np.testing.assert_array_equal(ids, ref_ids)


class TestHybridQuery:
    def test_dense_region_uses_ball_result_only(self):
        rng = np.random.default_rng(8)
        cluster = rng.uniform(-0.01, 0.01, (10, 3))
        far = rng.uniform(0.5, 1.0, (5, 3))
        pts = np.vstack([cluster, far])
        idx = build(pts)
        ids = idx.hybrid_query([0.0, 0.0, 0.0], 0.02, 3)
        ball_ids, _ = idx.ball_query([0.0, 0.0, 0.0], 0.02)
        np.testing.assert_array_equal(ids, ball_ids)
        assert len(ids) >= 10

    def test_far_query_returns_k_min_nearest(self):
        pts = _random_points(100, seed=9)
        idx = build(pts)
        x = np.array([10.0, 10.0, 10.0])
        ids = idx.hybrid_query(x, 0.02, 3)
        knn_ids, _ = idx.knn_query(x, 3)
        np.testing.assert_array_equal(ids, knn_ids)

    def test_union_deduplicates(self):
        pts = np.array([[0.005, 0, 0], [0, 0.01, 0], [0.5, 0, 0], [0, 0, 0.8]])
        idx = build(pts)
        ids = idx.hybrid_query([0.0, 0.0, 0.0], 0.02, 3)
        assert len(ids) == 3
        assert len(np.unique(ids)) == 3
        assert set(ids[:2]) == {0, 1}

    def test_result_superset_of_ball_and_size_floor(self):
        pts = _random_points(500, seed=10)
        idx = build(pts)
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, 3)
            r = rng.uniform(0.0, 0.3)
            k_min = int(rng.integers(0, 8))
            ids = idx.hybrid_query(x, r, k_min)
            ball_ids, _ = idx.ball_query(x, r)
            assert set(ball_ids).issubset(set(ids))
            assert len(ids) >= min(k_min, len(pts))
            ref = linear_hybrid_query(pts, x, r, k_min)
            np.testing.assert_array_equal(ids, ref)


class TestBatchQueries:
    def test_batch_ball_matches_single(self):
        pts = _random_points(800, seed=12)
        idx = build(pts)
        xs = np.random.default_rng(13).uniform(-1, 1, (60, 3))
        flat, splits = idx.ball_query_batch(xs, 0.25)
        for i, x in enumerate(xs):
            ids, _ = idx.ball_query(x, 0.25)
            np.testing.assert_array_equal(flat[splits[i]:splits[i + 1]], ids)

    def test_batch_knn_matches_single(self):
        pts = _random_points(800, seed=14)
        idx = build(pts)
        xs = np.random.default_rng(15).uniform(-1, 1, (60, 3))
        flat, splits = idx.knn_query_batch(xs, 5)
        for i, x in enumerate(xs):
            ids, _ = idx.knn_query(x, 5)
            np.testing.assert_array_equal(flat[splits[i]:splits[i + 1]], ids)

    def test_batch_hybrid_matches_single(self):
        pts = _random_points(300, seed=16)
        idx = build(pts)
        xs = np.random.default_rng(17).uniform(-2, 2, (80, 3))
        flat, splits = idx.hybrid_query_batch(xs, 0.1, 4)
        for i, x in enumerate(xs):
            ids = idx.hybrid_query(x, 0.1, 4)
            np.testing.assert_array_equal(flat[splits[i]:splits[i + 1]], ids)



def _assert_batch_rows_match_linear_scan(pts, xs, r, k_min):
    """Every row of both batch kernels equals the linear-scan reference."""
    idx = build(pts)
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
        flat, splits = build(pts).hybrid_query_batch(xs, 0.3, 9)
        assert np.all(np.diff(splits) == 6)

    def test_points_exactly_at_radius_and_exact_ties(self):
        # a grid on exact binary fractions: axis neighbors sit exactly at
        # r = 0.125 and many neighbors share one distance bit for bit
        g = 0.125 * np.arange(6)
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        xs = np.vstack([pts[::7], pts[::11] + 0.0625, [[2.0, 2.0, 2.0]]])
        ball_sizes = _assert_batch_rows_match_linear_scan(pts, xs, 0.125, 8)
        flat, splits = build(pts).ball_query_batch(pts[43:44], 0.125)
        assert len(flat) == 7  # itself plus all six axis neighbors at exactly r
        assert np.any(ball_sizes == 0) and np.any(ball_sizes >= 8)
        # kNN cut-offs land inside a tie group: the id order decides
        _assert_batch_rows_match_linear_scan(pts, xs, 0.0, 3)

    def test_empty_index_and_empty_batch(self):
        flat, splits = build(np.zeros((0, 3))).hybrid_query_batch(np.zeros((4, 3)), 0.1, 3)
        assert len(flat) == 0
        np.testing.assert_array_equal(splits, np.zeros(5))
        flat, splits = build(_random_points(10)).hybrid_query_batch(np.zeros((0, 3)), 0.1, 3)
        assert len(flat) == 0
        np.testing.assert_array_equal(splits, [0])

    def test_knn_widens_once_when_tree_distance_rounds_low(self):
        pts = _random_points(300, seed=27)
        idx = build(pts)
        tree = idx._tree

        class LowTree:  # reports every k-th distance a few ulps short
            def query(self, xs, k):
                d, i = tree.query(xs, k=k)
                return np.asarray(d) * np.where(np.arange(k) == k - 1, 1.0 - 1e-10, 1.0), i

            def query_ball_point(self, xs, r):
                return tree.query_ball_point(xs, r)

        idx._tree = LowTree()
        xs = _random_points(40, seed=28)
        flat, splits = idx.knn_query_batch(xs, 4)
        for i, x in enumerate(xs):
            np.testing.assert_array_equal(flat[splits[i]:splits[i + 1]], linear_knn_query(pts, x, 4)[0])


class TestStructuralProperties:
    def test_build_is_deterministic(self):
        pts = _random_points(1000, seed=18)
        a = build(pts)
        b = build(pts)
        x = np.array([0.2, -0.1, 0.4])
        np.testing.assert_array_equal(a.ball_query(x, 0.3)[0], b.ball_query(x, 0.3)[0])
        np.testing.assert_array_equal(a.knn_query(x, 7)[0], b.knn_query(x, 7)[0])

    def test_permutation_invariant_distance_multisets(self):
        pts = _random_points(400, seed=19)
        perm = np.random.default_rng(20).permutation(len(pts))
        a = build(pts)
        b = build(pts[perm])
        x = np.array([0.0, 0.1, -0.2])
        _, da = a.ball_query(x, 0.4)
        _, db = b.ball_query(x, 0.4)
        np.testing.assert_array_equal(np.sort(da), np.sort(db))
        _, da = a.knn_query(x, 9)
        _, db = b.knn_query(x, 9)
        np.testing.assert_array_equal(np.sort(da), np.sort(db))

    def test_query_cost_stays_sublinear(self):
        # soft performance guard: per-query time on 10x the points must not
        # grow anywhere near 10x (accelerated lookups, not scans)
        small = build(_random_points(2000, seed=21))
        large = build(_random_points(20000, seed=22))
        xs = np.random.default_rng(23).uniform(-1, 1, (200, 3))

        def timed(idx):
            t0 = time.perf_counter()
            for x in xs:
                idx.ball_query(x, 0.05)
                idx.knn_query(x, 4)
            return time.perf_counter() - t0

        timed(small)  # warm up
        t_small = timed(small)
        t_large = timed(large)
        assert t_large < 5.0 * max(t_small, 1e-4)
