"""Math primitives: quaternions, hemisphere sampling, deterministic RNG."""

import numpy as np
import pytest
from scipy import stats

from photonfield.core import (
    Rng,
    draw_unit,
    draw_units,
    fold_key,
    normalize,
    orthonormal_basis,
    random_unit_quaternion,
    roulette,
    sample_cosine_hemisphere,
    seed_key,
)


class TestQuaternions:
    def test_sampled_quaternions_are_unit(self):
        q = random_unit_quaternion(Rng(7), 1000)
        np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)


class TestCosineHemisphere:
    def test_zero_inputs_give_pole_direction(self):
        n = np.array([[0.0, 0.0, 1.0]])
        d, pdf = sample_cosine_hemisphere(np.zeros(1), np.zeros(1), n)
        np.testing.assert_allclose(d, n, atol=1e-12)
        assert pdf[0] == pytest.approx(1.0 / np.pi, rel=1e-12)

    def test_directions_stay_in_normal_hemisphere(self):
        rng = Rng(8)
        n = normalize(np.stack([rng.uniform(500) - 0.5, rng.uniform(500) - 0.5, rng.uniform(500) - 0.5], axis=1))
        d, pdf = sample_cosine_hemisphere(rng.uniform(500), rng.uniform(500), n)
        assert np.all(np.einsum("ij,ij->i", d, n) > 0.0)
        assert np.all(pdf > 0.0)
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)

    def test_monte_carlo_integral_of_cosine_is_pi(self):
        # importance-weighted estimate of the hemisphere integral of cos
        rng = Rng(9)
        n = np.array([0.0, 0.0, 1.0])
        m = 100_000
        nn = np.broadcast_to(n, (m, 3))
        d, pdf = sample_cosine_hemisphere(rng.uniform(m), rng.uniform(m), nn)
        cos = d[:, 2]
        est = float(np.mean(cos / pdf))
        assert est == pytest.approx(np.pi, rel=0.01)

    def test_monte_carlo_integral_of_cosine_squared(self):
        # independent target: integral of cos^2 over the hemisphere is 2*pi/3
        rng = Rng(10)
        n = np.array([0.0, 0.0, 1.0])
        m = 100_000
        nn = np.broadcast_to(n, (m, 3))
        d, pdf = sample_cosine_hemisphere(rng.uniform(m), rng.uniform(m), nn)
        cos = d[:, 2]
        est = float(np.mean(cos**2 / pdf))
        assert est == pytest.approx(2.0 * np.pi / 3.0, rel=0.01)

    def test_empirical_density_matches_cosine_by_chi_square(self):
        # marginal density of cos(theta) under cos/pi sampling is 2c, so the
        # expected mass of bin [a, b] is b^2 - a^2
        rng = Rng(11)
        m = 100_000
        n = np.broadcast_to(np.array([0.0, 0.0, 1.0]), (m, 3))
        d, _ = sample_cosine_hemisphere(rng.uniform(m), rng.uniform(m), n)
        cos = d[:, 2]
        edges = np.linspace(0.0, 1.0, 17)
        counts, _ = np.histogram(cos, bins=edges)
        expected = (edges[1:] ** 2 - edges[:-1] ** 2) * m
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        crit = stats.chi2.ppf(0.999, len(counts) - 1)
        assert chi2 < crit


class TestRng:
    def test_equal_seeds_give_equal_streams(self):
        a = Rng(1234)
        b = Rng(1234)
        np.testing.assert_array_equal(a.uniform(10_000), b.uniform(10_000))

    def test_seed_changes_stream(self):
        assert not np.array_equal(Rng(1).uniform(100), Rng(2).uniform(100))

    def test_draws_lie_in_unit_interval(self):
        u = Rng(8).uniform(100_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.005

    def test_draw_unit_is_pure_function_of_key_and_counter(self):
        key = fold_key(seed_key(5), 9)
        np.testing.assert_array_equal(
            draw_unit(key, np.arange(100, dtype=np.uint64)),
            draw_unit(key, np.arange(100, dtype=np.uint64)),
        )

    @pytest.mark.parametrize("rows", [np.array([6, 1, 3]), np.arange(8) % 3 == 0, slice(2, 5)])
    def test_draw_units_are_sequential_draws_and_advance_only_their_rows(self, rows):
        keys = fold_key(seed_key(3), np.arange(8, dtype=np.uint64))
        ctrs = np.array([0, 4, 9, 2, 0, 7, 1, 5], dtype=np.uint64)
        before = ctrs.copy()
        u = draw_units(keys, ctrs, rows, 3)
        assert len(u) == 3
        for i in range(3):
            np.testing.assert_array_equal(u[i], draw_unit(keys[rows], before[rows] + np.uint64(i)))
        moved = np.zeros(8, dtype=bool)
        moved[rows] = True
        np.testing.assert_array_equal(ctrs[moved], before[moved] + np.uint64(3))
        np.testing.assert_array_equal(ctrs[~moved], before[~moved])

    def test_roulette_survival_probability_is_capped_max_channel(self):
        n = 20_000
        keys = fold_key(seed_key(4), np.arange(n, dtype=np.uint64))
        ctrs = np.zeros(n, dtype=np.uint64)
        beta = np.tile([0.1, 0.25, 0.05], (n, 1))
        beta[:100] = [2.0, 0.0, 0.0]  # p capped at 1: always survives, no compensation
        beta[100:200] = 0.0  # p = 0: never survives
        survive, inv_p = roulette(keys, ctrs, np.arange(n), beta)
        np.testing.assert_array_equal(ctrs, 1)
        np.testing.assert_array_equal(survive, draw_unit(keys, 0) < beta.max(axis=1))
        assert np.all(survive[:100]) and np.all(inv_p[:100] == 1.0)
        assert not np.any(survive[100:200])
        np.testing.assert_array_equal(inv_p[200:], np.where(survive[200:], 4.0, 0.0))
        assert float(survive[200:].mean()) == pytest.approx(0.25, abs=0.01)


class TestBasis:
    def test_orthonormal_basis_completes_frame(self):
        rng = Rng(12)
        n = normalize(np.stack([rng.uniform(300) - 0.5, rng.uniform(300) - 0.5, rng.uniform(300) - 0.5], axis=1))
        t, b = orthonormal_basis(n)
        np.testing.assert_allclose(np.einsum("ij,ij->i", t, n), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.einsum("ij,ij->i", b, n), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.einsum("ij,ij->i", t, b), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(t, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-12)

    def test_normalize_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            normalize(np.zeros(3))
