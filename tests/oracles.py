"""Numpy oracles of the compiled kernels: the field's passes and Adam step
(``_field.c``), and the emitter sampler and photon density sum
(``_photons.c``).

These are the numpy code the kernels replaced: per-neighbour-row
temporaries, einsums, ordered ``bincount`` reductions, one Adam per
parameter block, and the per-slot emitter loop. The compiled code must
equal them bit for bit.
"""

import math

import numpy as np

from photonfield import core
from photonfield.core import vdot
from photonfield.field import SCALE_MAX, SCALE_MIN
from photonfield.scene import Quad, Sphere

FALLOFF_SHARPNESS = 3.0


def quaternion_to_matrix(q):
    """Rotation matrix for unit quaternion(s) ``q = (w, x, y, z)``.

    The polynomial form is used without renormalizing, so the map stays
    smooth in the ambient 4-vector (needed for analytic parameter
    gradients). Shape (..., 4) -> (..., 3, 3).
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
    rows = [
        # dR/dw
        [[zero, -2.0 * z, 2.0 * y], [2.0 * z, zero, -2.0 * x], [-2.0 * y, 2.0 * x, zero]],
        # dR/dx
        [[zero, 2.0 * y, 2.0 * z], [2.0 * y, -4.0 * x, -2.0 * w], [2.0 * z, 2.0 * w, -4.0 * x]],
        # dR/dy
        [[-4.0 * y, 2.0 * x, 2.0 * w], [2.0 * x, zero, 2.0 * z], [-2.0 * w, 2.0 * z, -4.0 * y]],
        # dR/dz
        [[-4.0 * z, -2.0 * w, 2.0 * x], [2.0 * w, -4.0 * z, 2.0 * y], [2.0 * x, 2.0 * y, zero]],
    ]
    return np.moveaxis(np.array(rows, dtype=np.float64), (0, 1, 2), (-3, -2, -1))


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


def falloff(dist, radius: float):
    r_eff = max(radius, 1e-6)
    t = np.maximum(dist - radius, 0.0) / r_eff
    return np.where(dist <= radius, 1.0, np.exp(-FALLOFF_SHARPNESS * t * t))


def weight_terms(field, xs_rows, ids):
    """Per-neighbour kernel terms shared by forward and backward."""
    d = xs_rows - field.means[ids]
    rot = quaternion_to_matrix(field.quats[ids])
    y = np.einsum("kij,ki->kj", rot, d)
    s = np.exp(field.log_scales[ids])
    u = y / s
    w_gauss = np.exp(-0.5 * np.einsum("kj,kj->k", u, u))
    dist = np.sqrt(np.einsum("ki,ki->k", d, d))
    psi = falloff(dist, field.radius)
    return d, rot, s, u, w_gauss, dist, psi, w_gauss * psi


def forward(field, xs, flat, splits):
    """Radiance (B, 3) of rows ``xs`` over CSR neighbourhoods, plus the
    per-neighbour terms and weight sums: ``(L, terms, s_tot)``."""
    b = len(xs)
    owner = np.repeat(np.arange(b, dtype=np.intp), np.diff(splits))
    terms = weight_terms(field, xs[owner], flat)
    w = terms[-1]
    s_tot = np.bincount(owner, weights=w, minlength=b)
    num = np.zeros((b, 3))
    wphi = w[:, None] * field.flux[flat]
    for ch in range(3):
        num[:, ch] = np.bincount(owner, weights=wphi[:, ch], minlength=b)
    z = np.maximum(s_tot, field.eps)
    return num / z[:, None], terms, s_tot


def backward_terms(field, ids, owner, dl_rows, fwd):
    """Per-neighbour parameter gradients of J = sum_b dl_b . L_b, from the
    ``(L, terms, s_tot)`` a :func:`forward` over the same rows gave."""
    L, (d, rot, s, u, w_gauss, dist, psi, w), s_tot = fwd
    z = np.maximum(s_tot, field.eps)
    ind = (s_tot > field.eps).astype(np.float64)
    dl_phi = np.einsum("kc,kc->k", dl_rows, field.flux[ids])
    dl_L = np.einsum("kc,kc->k", dl_rows, L[owner])
    g_w = (dl_phi - ind[owner] * dl_L) / z[owner]

    g_flux = (w / z[owner])[:, None] * dl_rows

    # d(w_gauss)/d(mean) = w_gauss * R (u / s); psi adds the radial term
    r_eff = max(field.radius, 1e-6)
    t_excess = np.maximum(dist - field.radius, 0.0) / r_eff
    outside = dist > field.radius
    with np.errstate(invalid="ignore", divide="ignore"):
        d_hat = np.where(dist[:, None] > 0.0, d / np.where(dist[:, None] > 0.0, dist[:, None], 1.0), 0.0)
    radial = np.where(outside, 2.0 * FALLOFF_SHARPNESS * t_excess / r_eff, 0.0)
    r_u_over_s = np.einsum("kij,kj->ki", rot, u / s)
    g_mean = (g_w * w)[:, None] * (r_u_over_s + radial[:, None] * d_hat)

    g_log_scale = (g_w * w)[:, None] * (u * u)

    a_t_d = rotation_jacobian_tdot(field.quats[ids], d)  # rows: (A_m^T d)_j
    g_quat = -(g_w * w)[:, None] * np.einsum("kmj,kj->km", a_t_d, u / s)

    return {"mean": g_mean, "quat": g_quat, "log_scale": g_log_scale, "flux": g_flux}


def backward_scatter(field, xs, dl, flat, splits):
    """Dense parameter gradients: each column an ordered ``bincount`` of
    the per-neighbour terms, summed from zero in flat order."""
    owner = np.repeat(np.arange(len(xs), dtype=np.intp), np.diff(splits))
    rows = backward_terms(field, flat, owner, dl[owner], forward(field, xs, flat, splits))
    g = {}
    for key, part in rows.items():
        g[key] = np.empty((len(field), part.shape[1]))
        for c in range(part.shape[1]):
            g[key][:, c] = np.bincount(flat, weights=part[:, c], minlength=len(field))
    return g


class Adam:
    """Adam on one parameter block."""

    def __init__(self, shape, beta1, beta2, eps):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0

    def step(self, grad, lr):
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return lr * m_hat / (np.sqrt(v_hat) + self.eps)


def adam_optimizers(field, cfg):
    """One :class:`Adam` per gradient block of ``field``, keyed as the gradients."""
    blocks = (("mean", "means"), ("quat", "quats"), ("log_scale", "log_scales"), ("flux", "flux"))
    return {key: Adam(getattr(field, attr).shape, cfg.beta1, cfg.beta2, cfg.adam_eps) for key, attr in blocks}


def adam_update(field, opt, grads, lr):
    """One Adam step on the field's parameters in place, from ``grads``."""
    field.means -= opt["mean"].step(grads["mean"], lr)
    quat_step = opt["quat"].step(grads["quat"], lr)
    field.quats -= quat_step
    # renormalize only rows the step moved: untouched primitives stay
    # bit-identical (a blanket renorm would seed spurious Adam drift)
    moved = np.any(quat_step != 0.0, axis=1)
    if np.any(moved):
        field.quats[moved] /= np.linalg.norm(field.quats[moved], axis=1, keepdims=True)
    field.log_scales -= opt["log_scale"].step(grads["log_scale"], lr)
    field.flux -= opt["flux"].step(grads["flux"], lr)
    np.clip(field.log_scales, np.log(SCALE_MIN), np.log(SCALE_MAX), out=field.log_scales)


# ---------------------------------------------------------------------------
# emission and density estimation (_photons.c)


def pick_emitter(scene, u):
    """Power-proportional emitter slots for uniform draws ``u``."""
    return np.searchsorted(scene.emitter_cdf, np.asarray(u), side="right").clip(0, len(scene.emitter_ids) - 1)


def sample_on_emitter(scene, slot, u1, u2):
    """Uniform-area points, normals and area pdfs on the emitters in ``slot``, one emitter at a time."""
    slot = np.asarray(slot, dtype=np.intp)
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    n = len(slot)
    pts = np.zeros((n, 3))
    nrm = np.zeros((n, 3))
    for s in np.unique(slot):
        rows = np.nonzero(slot == s)[0]
        shape = scene.shapes[scene.emitter_ids[s]]
        k = shape.kind
        if isinstance(k, Quad):
            pts[rows] = k.corner + u1[rows, None] * k.edge_u + u2[rows, None] * k.edge_v
            nrm[rows] = k.normal
        elif isinstance(k, Sphere):
            z = 1.0 - 2.0 * u1[rows]
            r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
            phi = 2.0 * math.pi * u2[rows]
            local = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
            pts[rows] = k.center + k.radius * local
            nrm[rows] = local
        else:  # TriangleMesh: pick triangle by area, then uniform barycentric
            areas = k.triangle_areas
            cdf = np.cumsum(areas) / areas.sum()
            tri = np.searchsorted(cdf, u1[rows], side="right").clip(0, len(areas) - 1)
            # re-stretch u1 within its triangle bin for the barycentric draw
            lo = np.concatenate([[0.0], cdf])[tri]
            hi = cdf[tri]
            f1 = np.clip((u1[rows] - lo) / np.maximum(hi - lo, 1e-300), 0.0, 1.0 - 1e-12)
            su = np.sqrt(f1)
            b0 = 1.0 - su
            b1 = u2[rows] * su
            a = k.vertices[k.indices[tri, 0]]
            b = k.vertices[k.indices[tri, 1]]
            c = k.vertices[k.indices[tri, 2]]
            pts[rows] = b0[:, None] * a + b1[:, None] * b + (1.0 - b0 - b1)[:, None] * c
            e1 = b - a
            e2 = c - a
            nn = np.cross(e1, e2)
            nrm[rows] = nn / np.linalg.norm(nn, axis=1, keepdims=True)
    pdf_area = 1.0 / scene.emitter_area[slot]
    return pts, nrm, pdf_area


def sample_light_emission(scene, keys, ctrs):
    """Emission samples (origins, directions, flux), one per stream.

    Stream ``i`` draws at counters ``ctrs[i]`` to ``ctrs[i] + 4`` (emitter
    pick, two area draws, two direction draws), and ``ctrs`` is advanced by
    5. Each photon carries flux = total emitter power / photon count.
    """
    scene._require_emitters()
    n = len(keys)
    u_pick, u_a1, u_a2, u_d1, u_d2 = core.draw_units(keys, ctrs, slice(None), 5)
    pts, nrm, _ = sample_on_emitter(scene, pick_emitter(scene, u_pick), u_a1, u_a2)
    dirs, _ = core.sample_cosine_hemisphere(u_d1, u_d2, nrm)
    flux = np.broadcast_to(scene.total_power / n, (n, 3)).copy()
    return pts, dirs, flux


def eval_bsdf_batch(albedo, normal, wi, wo):
    """Diffuse BSDF value: albedo/pi for rows with wi and wo above the
    surface, zero otherwise."""
    cos_i = vdot(wi, normal)
    cos_o = vdot(wo, normal)
    ok = (cos_i > 0.0) & (cos_o > 0.0)
    return np.where(ok[..., None], np.asarray(albedo) / math.pi, 0.0)


def kde_gather(index, photons, positions, normals, wos, albedo, radius):
    """The numpy gather: the ball rows' owners repeated, the diffuse BSDF per
    neighbour, and one ordered ``bincount`` per channel."""
    m = len(positions)
    out = np.zeros((m, 3))
    if len(photons) == 0 or m == 0:
        return out
    flat, splits = index.ball_query_batch(positions, radius)
    if len(flat) == 0:
        return out
    owner = np.repeat(np.arange(m, dtype=np.intp), np.diff(splits))
    fr = eval_bsdf_batch(albedo[owner], normals[owner], photons.incident[flat], wos[owner])
    contrib = photons.flux[flat] * fr
    for ch in range(3):  # bincount sums each row from zero in flat order, as np.add.at would
        out[:, ch] = np.bincount(owner, weights=contrib[:, ch], minlength=m)
    out /= math.pi * radius * radius
    return out
