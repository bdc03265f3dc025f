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

The wavefront bounce loops (camera prefix, path tracer, photon tracer)
keep one stream per path: :func:`draw_units` takes a path's next draws
and advances its counter, and :func:`roulette` is the Russian roulette
they share, from bounce ``RR_START`` on.
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

    Equal (seed, tags) construction yields bitwise-equal draw sequences.
    ``derive`` produces an independent child stream; instances are cheap
    and never shared between concurrent tasks.
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

    def derive(self, *tags: int) -> "Rng":
        key = self._key
        for t in tags:
            key = fold_key(key, t)
        return Rng.from_key(key)

    def uniform(self, n: int | None = None):
        """Next draw(s) in [0, 1): a float when ``n`` is None, else shape (n,)."""
        if n is None:
            u = draw_unit(self._key, self._ctr)
            self._ctr += 1
            return float(u)
        ctrs = self._ctr + np.arange(n, dtype=np.uint64)
        self._ctr += n
        return draw_unit(self._key, ctrs)


def as_rng(rng_or_seed) -> Rng:
    if isinstance(rng_or_seed, Rng):
        return rng_or_seed
    return Rng(int(rng_or_seed))


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
    pdf = cos(theta) / pi for the returned direction. Vectorized: scalar
    inputs give a (3,) direction and float pdf, array inputs broadcast.
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
    pdf = z / np.pi
    if d.ndim == 1:
        return d, float(pdf)
    return d, pdf


# ---------------------------------------------------------------------------
# quaternions (w-first convention)


def random_unit_quaternion(rng: Rng, n: int | None = None):
    """Uniform sample(s) on the unit-quaternion sphere (Shoemake map)."""
    m = 1 if n is None else n
    u1 = rng.uniform(m)
    u2 = rng.uniform(m)
    u3 = rng.uniform(m)
    a = np.sqrt(1.0 - u1)
    b = np.sqrt(u1)
    q = np.stack(
        [
            b * np.cos(2.0 * np.pi * u3),
            a * np.sin(2.0 * np.pi * u2),
            a * np.cos(2.0 * np.pi * u2),
            b * np.sin(2.0 * np.pi * u3),
        ],
        axis=-1,
    )
    if n is None:
        return q[0]
    return q


def quaternion_to_matrix(q):
    """Rotation matrix for unit quaternion(s) ``q = (w, x, y, z)``.

    The polynomial form is used without renormalizing, so the map stays
    smooth in the ambient 4-vector (needed for analytic parameter
    gradients); callers keep ``q`` unit-length. Shape (..., 4) -> (..., 3, 3).
    """
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(q.shape[:-1] + (3, 3), dtype=np.float64)
    out[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    out[..., 0, 1] = 2.0 * (x * y - w * z)
    out[..., 0, 2] = 2.0 * (x * z + w * y)
    out[..., 1, 0] = 2.0 * (x * y + w * z)
    out[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    out[..., 1, 2] = 2.0 * (y * z - w * x)
    out[..., 2, 0] = 2.0 * (x * z - w * y)
    out[..., 2, 1] = 2.0 * (y * z + w * x)
    out[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out


def rotation_jacobian(q):
    """Partials of the rotation matrix w.r.t. the ambient quaternion.

    Shape (..., 4) -> (..., 4, 3, 3); slot ``k`` is dR/dq_k for the same
    polynomial form as :func:`quaternion_to_matrix`.
    """
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    zero = np.zeros_like(w)
    out = np.empty(q.shape[:-1] + (4, 3, 3), dtype=np.float64)
    # dR/dw
    out[..., 0, 0, 0] = zero
    out[..., 0, 0, 1] = -2.0 * z
    out[..., 0, 0, 2] = 2.0 * y
    out[..., 0, 1, 0] = 2.0 * z
    out[..., 0, 1, 1] = zero
    out[..., 0, 1, 2] = -2.0 * x
    out[..., 0, 2, 0] = -2.0 * y
    out[..., 0, 2, 1] = 2.0 * x
    out[..., 0, 2, 2] = zero
    # dR/dx
    out[..., 1, 0, 0] = zero
    out[..., 1, 0, 1] = 2.0 * y
    out[..., 1, 0, 2] = 2.0 * z
    out[..., 1, 1, 0] = 2.0 * y
    out[..., 1, 1, 1] = -4.0 * x
    out[..., 1, 1, 2] = -2.0 * w
    out[..., 1, 2, 0] = 2.0 * z
    out[..., 1, 2, 1] = 2.0 * w
    out[..., 1, 2, 2] = -4.0 * x
    # dR/dy
    out[..., 2, 0, 0] = -4.0 * y
    out[..., 2, 0, 1] = 2.0 * x
    out[..., 2, 0, 2] = 2.0 * w
    out[..., 2, 1, 0] = 2.0 * x
    out[..., 2, 1, 1] = zero
    out[..., 2, 1, 2] = 2.0 * z
    out[..., 2, 2, 0] = -2.0 * w
    out[..., 2, 2, 1] = 2.0 * z
    out[..., 2, 2, 2] = -4.0 * y
    # dR/dz
    out[..., 3, 0, 0] = -4.0 * z
    out[..., 3, 0, 1] = -2.0 * w
    out[..., 3, 0, 2] = 2.0 * x
    out[..., 3, 1, 0] = 2.0 * w
    out[..., 3, 1, 1] = -4.0 * z
    out[..., 3, 1, 2] = 2.0 * y
    out[..., 3, 2, 0] = 2.0 * x
    out[..., 3, 2, 1] = 2.0 * y
    out[..., 3, 2, 2] = zero
    return out


def rotation_jacobian_tdot(q, d):
    """``(dR/dq_m)^T d`` for every slot m, without forming the jacobian.

    Shapes (..., 4), (..., 3) -> (..., 4, 3). Entry (m, j) sums the
    products ``(dR/dq_m)[i, j] * d_i`` left to right over i = 0, 1, 2, zero
    entries included, so it equals
    ``einsum("...mij,...i->...mj", rotation_jacobian(q), d)`` bit for bit.
    Like einsum, each sum starts from +0.0, which matters only for the sign
    of a zero result.
    """
    q = np.asarray(q, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    w2, x2, y2, z2 = (2.0 * q[..., c] for c in range(4))
    x4, y4, z4 = (4.0 * q[..., c] for c in range(1, 4))
    d0, d1, d2 = d[..., 0], d[..., 1], d[..., 2]
    o0, o1, o2 = 0.0 * d0, 0.0 * d1, 0.0 * d2
    out = np.empty(q.shape[:-1] + (4, 3), dtype=np.float64)
    # column j of each dR/dq_m in rotation_jacobian, dotted with d
    out[..., 0, 0] = 0.0 + o0 + z2 * d1 - y2 * d2
    out[..., 0, 1] = 0.0 - z2 * d0 + o1 + x2 * d2
    out[..., 0, 2] = 0.0 + y2 * d0 - x2 * d1 + o2
    out[..., 1, 0] = 0.0 + o0 + y2 * d1 + z2 * d2
    out[..., 1, 1] = 0.0 + y2 * d0 - x4 * d1 + w2 * d2
    out[..., 1, 2] = 0.0 + z2 * d0 - w2 * d1 - x4 * d2
    out[..., 2, 0] = 0.0 - y4 * d0 + x2 * d1 - w2 * d2
    out[..., 2, 1] = 0.0 + x2 * d0 + o1 + z2 * d2
    out[..., 2, 2] = 0.0 + w2 * d0 + z2 * d1 - y4 * d2
    out[..., 3, 0] = 0.0 - z4 * d0 + w2 * d1 + x2 * d2
    out[..., 3, 1] = 0.0 - w2 * d0 - z4 * d1 + y2 * d2
    out[..., 3, 2] = 0.0 + x2 * d0 + y2 * d1 + o2
    return out
