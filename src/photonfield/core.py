"""Shared math primitives: vectors, quaternions, hemisphere sampling, RNG.

Vectors are plain float64 numpy arrays with a trailing axis of size 3.
Every helper broadcasts over leading axes, so the same code path serves a
single point and a wavefront batch. Radiometric triples (radiance, flux,
throughput) use the same (..., 3) convention in linear units.

The generator is counter-based (SplitMix64-style): a stream is a 64-bit
key plus a draw counter, and draw ``i`` of stream ``k`` is a pure function
of ``(k, i)``. Streams for distinct (pixel, sample, pass) tags are derived
by key folding, which makes rendering order-independent and reproducible
regardless of chunking or thread count.

The wavefront bounce loops (camera prefix, path tracer) keep one stream
per path: :func:`draw_units` takes a path's next draws and advances its
counter, and :func:`roulette` is the Russian roulette they share, from
bounce ``RR_START`` on. The compiled photon tracer (``_photons.c``) draws
and plays roulette the same way.
"""

from __future__ import annotations

import numpy as np

UNIT_TOL = 1e-9
RAY_OFFSET = 1e-7  # spawn distance along a sampled direction, off the surface
RR_START = 3  # Russian roulette runs from this bounce on

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)
_ONE = np.uint64(1)
_U64_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


def _finalize(z):
    with np.errstate(over="ignore"):
        z = z ^ (z >> _SH30)
        z = z * _MULT1
        z = z ^ (z >> _SH27)
        z = z * _MULT2
        z = z ^ (z >> _SH31)
    return z


def seed_key(seed: int):
    """Map an arbitrary integer seed to a well-mixed 64-bit stream key."""
    with np.errstate(over="ignore"):
        return _finalize(np.uint64(seed & _U64_MASK) + _GOLDEN)


def fold_key(key, tag):
    """Derive a child stream key from ``key`` and a non-negative integer tag.

    Accepts scalars or arrays for ``tag`` (vectorized key derivation).
    """
    t = np.asarray(tag, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _finalize((key ^ (t * _MULT2)) + _GOLDEN)


def draw_unit(key, ctr):
    """Uniform float64 in [0, 1) for draw index ``ctr`` of stream ``key``.

    Both arguments broadcast; the result is a pure function of (key, ctr).
    """
    c = np.asarray(ctr, dtype=np.uint64)
    with np.errstate(over="ignore"):
        bits = _finalize(key + (c + _ONE) * _GOLDEN)
    return (bits >> _SH11) * _INV_2_53


def draw_units(keys, ctrs, rows, n: int):
    """``n`` consecutive draws for each stream in ``rows``, then advance
    those streams' counters by ``n``.

    ``keys``/``ctrs`` hold one key and one counter per stream; ``rows`` is
    anything that indexes them (index array, boolean mask, slice). Returns a
    list of ``n`` arrays: draw ``i`` of stream ``r`` is
    ``draw_unit(keys[r], ctrs[r] + i)``.
    """
    k = keys[rows]
    c = ctrs[rows]
    u = [draw_unit(k, c + np.uint64(i)) for i in range(n)]
    ctrs[rows] += np.uint64(n)
    return u


def roulette(keys, ctrs, rows, beta):
    """Russian roulette for the paths in ``rows`` with throughput ``beta``.

    Survival probability is min(1, max channel of ``beta``), decided by one
    draw per path. Returns ``(survive, inv_p)``: ``inv_p`` is the
    throughput compensation, 0 for paths that die.
    """
    p = np.minimum(1.0, beta.max(axis=1))
    (u,) = draw_units(keys, ctrs, rows, 1)
    survive = (u < p) & (p > 0.0)
    inv_p = np.where(survive, 1.0 / np.maximum(p, 1e-300), 0.0)
    return survive, inv_p


class Rng:
    """Deterministic counter-based random stream.

    Equal (seed, tags) construction yields bitwise-equal draw sequences;
    instances are cheap and never shared between concurrent tasks.
    """

    __slots__ = ("_key", "_ctr")

    def __init__(self, seed: int = 0, *tags: int):
        self._key = seed_key(seed)
        for t in tags:
            self._key = fold_key(self._key, t)
        self._ctr = 0

    @classmethod
    def from_key(cls, key) -> "Rng":
        rng = cls.__new__(cls)
        rng._key = np.uint64(key)
        rng._ctr = 0
        return rng

    @property
    def key(self):
        return self._key

    def uniform(self, n: int):
        """Next ``n`` draws in [0, 1), shape (n,)."""
        ctrs = self._ctr + np.arange(n, dtype=np.uint64)
        self._ctr += n
        return draw_unit(self._key, ctrs)


# ---------------------------------------------------------------------------
# vector helpers


def vdot(a, b):
    """Row-wise dot product over the trailing axis: (..., 3) -> (...)."""
    return np.einsum("...i,...i->...", a, b)


def norm(v):
    return np.sqrt(vdot(v, v))


def normalize(v):
    """Unit-length copy of ``v``; raises on zero-length input."""
    n = norm(v)
    if np.any(n == 0.0):
        raise ValueError("cannot normalize zero-length vector")
    return v / n[..., None]


def reflect(d, n):
    """Mirror direction ``d`` about unit normal ``n`` (both (..., 3))."""
    return d - 2.0 * vdot(d, n)[..., None] * n


def orthonormal_basis(n):
    """Tangent/bitangent pair completing unit normal ``n`` to a frame.

    Branchless construction, stable for all orientations; vectorized over
    leading axes. Returns (t, b) with ``t x b = n`` up to rounding.
    """
    n = np.asarray(n, dtype=np.float64)
    x, y, z = n[..., 0], n[..., 1], n[..., 2]
    s = np.where(z >= 0.0, 1.0, -1.0)
    a = -1.0 / (s + z)
    b = x * y * a
    t = np.stack([1.0 + s * x * x * a, s * b, -s * x], axis=-1)
    bt = np.stack([b, s + y * y * a, -y], axis=-1)
    return t, bt


def sample_cosine_hemisphere(u1, u2, n):
    """Cosine-weighted direction about unit normal ``n``.

    ``u1``/``u2`` are uniform in [0, 1); returns (direction, pdf) where
    pdf = cos(theta) / pi for the returned direction. The inputs broadcast
    against each other.
    """
    u1 = np.clip(np.asarray(u1, dtype=np.float64), 0.0, 1.0 - 1e-16)
    u2 = np.asarray(u2, dtype=np.float64)
    r = np.sqrt(u1)
    phi = (2.0 * np.pi) * u2
    z = np.sqrt(1.0 - u1)
    t, b = orthonormal_basis(n)
    d = (
        (r * np.cos(phi))[..., None] * t
        + (r * np.sin(phi))[..., None] * b
        + z[..., None] * np.asarray(n, dtype=np.float64)
    )
    return d, z / np.pi


# ---------------------------------------------------------------------------
# quaternions (w-first convention)


def random_unit_quaternion(rng: Rng, n: int):
    """``n`` uniform samples (n, 4) on the unit-quaternion sphere (Shoemake map)."""
    u1 = rng.uniform(n)
    u2 = rng.uniform(n)
    u3 = rng.uniform(n)
    a = np.sqrt(1.0 - u1)
    b = np.sqrt(u1)
    return np.stack(
        [
            b * np.cos(2.0 * np.pi * u3),
            a * np.sin(2.0 * np.pi * u2),
            a * np.cos(2.0 * np.pi * u2),
            b * np.sin(2.0 * np.pi * u3),
        ],
        axis=-1,
    )
