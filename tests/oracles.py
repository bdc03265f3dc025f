"""Numpy oracles of the compiled kernels: the field's passes and Adam step
(``_field.c``), the hit shading, BSDF draws, emitter sampler and photon
density sum (``_photons.c``), the nearest-hit ray scan (``_bvh.c``) and
the linear ball, k-nearest and hybrid point scans (``_spatial.c``).

These are the numpy code the kernels replaced: per-neighbour-row
temporaries, einsums, ordered ``bincount`` reductions, one Adam per
parameter block, masked wavefront shading and BSDF sampling, the per-slot
emitter loop, and scans over every primitive or point. The compiled code
must equal them bit for bit.
"""

import math

import numpy as np

from photonfield import core
from photonfield.core import vdot
from photonfield.field import SCALE_MAX, SCALE_MIN
from photonfield.geometry import KIND_QUAD, KIND_SPHERE, KIND_TRIANGLE, T_MIN
from photonfield.scene import DIELECTRIC, DIFFUSE, MIRROR, Hits, Quad, Sphere

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
# hit shading and BSDF draws (_photons.c)


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


def fresnel_reflectance(cos_i, ior, entering) -> np.ndarray:
    """Unpolarized dielectric Fresnel reflectance for |cos| of incidence.

    ``entering`` selects whether the ray crosses into (True) or out of the
    medium with the given index. Total internal reflection returns 1.
    Vectorized over ``cos_i``/``ior``/``entering``.
    """
    cos_i = np.clip(np.abs(np.asarray(cos_i, dtype=np.float64)), 0.0, 1.0)
    entering = np.asarray(entering, dtype=bool)
    ior = np.asarray(ior, dtype=np.float64)
    eta_i = np.where(entering, 1.0, ior)
    eta_t = np.where(entering, ior, 1.0)
    sin2_t = (eta_i / eta_t) ** 2 * (1.0 - cos_i**2)
    tir = sin2_t >= 1.0
    cos_t = np.sqrt(np.clip(1.0 - sin2_t, 0.0, 1.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        r_par = (eta_t * cos_i - eta_i * cos_t) / (eta_t * cos_i + eta_i * cos_t)
        r_perp = (eta_i * cos_i - eta_t * cos_t) / (eta_i * cos_i + eta_t * cos_t)
        f = 0.5 * (r_par**2 + r_perp**2)
    return np.where(tir, 1.0, f)


def normals_at(g, prim_idx, points):
    """Geometric (outward/winding) unit normals of geometry ``g`` for prior hit results."""
    prim_idx = np.asarray(prim_idx, dtype=np.intp)
    out = g._normals[prim_idx].copy()
    sph = g.kinds[prim_idx] == KIND_SPHERE
    if np.any(sph):
        pid = prim_idx[sph]
        v = points[sph] - g.pa[pid]
        out[sph] = v / np.linalg.norm(v, axis=1, keepdims=True)
    return out


def intersect_batch(scene, o, d) -> Hits:
    """``Scene.intersect_batch``: the nearest hits of the rays, shaded in numpy row masks."""
    o = np.atleast_2d(np.asarray(o, dtype=np.float64))
    d = np.atleast_2d(np.asarray(d, dtype=np.float64))
    n = len(o)
    t, prim = scene.geometry.intersect(o, d)
    valid = prim >= 0
    pos = np.zeros((n, 3))
    nrm = np.zeros((n, 3))
    shape_id = np.full(n, -1, dtype=np.intp)
    mat_kind = np.zeros(n, dtype=np.uint8)
    albedo = np.zeros((n, 3))
    ior = np.ones(n)
    emission = np.zeros((n, 3))
    entering = np.zeros(n, dtype=bool)
    wo = -d
    if np.any(valid):
        vi = np.nonzero(valid)[0]
        pv = prim[vi]
        pos[vi] = o[vi] + t[vi, None] * d[vi]
        ngeo = normals_at(scene.geometry, pv, pos[vi])
        front = vdot(ngeo, wo[vi]) > 0.0
        entering[vi] = front
        nrm[vi] = np.where(front[:, None], ngeo, -ngeo)
        sids = scene.geometry.shape_ids[pv]
        shape_id[vi] = sids
        mids = scene.shape_mat[sids]
        mat_kind[vi] = scene._mat_kind[mids]
        albedo[vi] = scene._mat_albedo[mids]
        ior[vi] = scene._mat_ior[mids]
        emission[vi] = np.where(front[:, None], scene.shape_emission[sids], 0.0)
    return Hits(valid, t, pos, nrm, wo, shape_id, mat_kind, albedo, ior, emission, entering)


def sample_bsdf_batch(hits, u1, u2, u3):
    """``scene.sample_bsdf_batch``: one continuation per valid hit, sampled
    per material kind over row masks; (wi, weight, is_delta, pdf_dir)."""
    n = len(hits.t)
    wi = np.zeros((n, 3))
    weight = np.zeros((n, 3))
    is_delta = np.zeros(n, dtype=bool)
    pdf_dir = np.zeros(n)

    dif = hits.valid & (hits.mat_kind == DIFFUSE)
    if np.any(dif):
        d, pdf = sample_cosine_hemisphere(u1[dif], u2[dif], hits.normal[dif])
        wi[dif] = d
        weight[dif] = hits.albedo[dif]
        pdf_dir[dif] = pdf

    mir = hits.valid & (hits.mat_kind == MIRROR)
    if np.any(mir):
        wi[mir] = reflect(-hits.wo[mir], hits.normal[mir])
        weight[mir] = hits.albedo[mir]
        is_delta[mir] = True

    die = hits.valid & (hits.mat_kind == DIELECTRIC)
    if np.any(die):
        nrm = hits.normal[die]
        wo = hits.wo[die]
        ior = hits.ior[die]
        entering = hits.entering[die]
        cos_i = np.clip(vdot(wo, nrm), 0.0, 1.0)
        eta = np.where(entering, 1.0 / ior, ior)
        sin2_t = eta**2 * (1.0 - cos_i**2)
        tir = sin2_t >= 1.0
        f = fresnel_reflectance(cos_i, ior, entering)
        reflect_choice = (u3[die] < f) | tir
        refl = reflect(-wo, nrm)
        cos_t = np.sqrt(np.clip(1.0 - sin2_t, 0.0, 1.0))
        refr = -eta[:, None] * wo + (eta * cos_i - cos_t)[:, None] * nrm
        refr_norm = np.linalg.norm(refr, axis=1, keepdims=True)
        refr = refr / np.where(refr_norm > 0, refr_norm, 1.0)
        wi[die] = np.where(reflect_choice[:, None], refl, refr)
        weight[die] = 1.0
        is_delta[die] = True
    return wi, weight, is_delta, pdf_dir


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
    dirs, _ = sample_cosine_hemisphere(u_d1, u_d2, nrm)
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


# ---------------------------------------------------------------------------
# ray intersection (_bvh.c)

DEGENERATE = 1e-12  # DEGENERATE in _bvh.c


def _dot3(x, y):
    """Row-wise 3-vector dot product, summed as (x0*y0 + x2*y2) + x1*y1 like ``_bvh.c``."""
    return (x[..., 0] * y[..., 0] + x[..., 2] * y[..., 2]) + x[..., 1] * y[..., 1]


def _pack(g, prims):
    """Per-kind primitive arrays of the primitives ``prims`` of geometry ``g``."""
    kinds = g.kinds[prims]
    pack = {"prims": prims, "k": len(prims)}
    sph = np.nonzero(kinds == KIND_SPHERE)[0]
    if sph.size:
        pid = prims[sph]
        pack["sph"] = (sph, g.pa[pid], g.pb[pid, 0])
    quad = np.nonzero(kinds == KIND_QUAD)[0]
    if quad.size:
        pid = prims[quad]
        pack["quad"] = (quad, g.pa[pid], g.pb[pid], g.pc[pid], g._normals[pid], g._quad_gram[pid])
    tri = np.nonzero(kinds == KIND_TRIANGLE)[0]
    if tri.size:
        pid = prims[tri]
        pack["tri"] = (tri, g.pa[pid], g._tri_e1[pid], g._tri_e2[pid])
    return pack


def intersect_linear(g, o, d):
    """Nearest hit per ray (t, prim_index) by a numpy scan of all primitives
    of ``g`` in ``perm`` order: the formulas the leaf loop of ``_bvh.c`` compiles."""
    o = np.atleast_2d(np.asarray(o, dtype=np.float64))
    d = np.atleast_2d(np.asarray(d, dtype=np.float64))
    n = len(o)
    best_t, best_p = np.full(n, np.inf), np.full(n, -1, dtype=np.intp)
    pack = _pack(g, g.perm)
    for lo in range(0, n, 1024):  # bounds the (rays, primitives) temporaries
        sl = slice(lo, lo + 1024)
        _leaf_hits(pack, o[sl], d[sl], best_t[sl], best_p[sl])
    return best_t, best_p


def _leaf_hits(pack, ro, rd, best_t, best_p):
    """Nearest hit of every ray among the primitives of ``pack``."""
    prims = pack["prims"]
    t_mat = np.full((len(ro), pack["k"]), np.inf)

    if "sph" in pack:
        cols, c, r = pack["sph"]
        oc = ro[:, None, :] - c[None, :, :]
        b = _dot3(oc, rd[:, None, :])
        cc = _dot3(oc, oc) - r[None, :] ** 2
        disc = b * b - cc
        ok = disc >= 0.0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        t_near = -b - sq
        t_far = -b + sq
        t = np.where(t_near > T_MIN, t_near, t_far)
        t = np.where(ok & (t > T_MIN), t, np.inf)
        t_mat[:, cols] = t

    if "quad" in pack:
        cols, corner, eu, ev, nq, gram = pack["quad"]
        denom = _dot3(rd[:, None, :], nq[None, :, :])
        w0 = corner[None, :, :] - ro[:, None, :]
        t = _dot3(w0, nq[None, :, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            t = t / denom
            p = ro[:, None, :] + t[..., None] * rd[:, None, :]
            w = p - corner[None, :, :]
            r1 = _dot3(w, eu[None, :, :])
            r2 = _dot3(w, ev[None, :, :])
            alpha = gram[:, 2] * r1 - gram[:, 1] * r2
            beta = gram[:, 0] * r2 - gram[:, 1] * r1
            ok = (
                (np.abs(denom) > DEGENERATE)
                & (t > T_MIN)
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
                (np.abs(det) > DEGENERATE)
                & (u >= 0.0)
                & (v >= 0.0)
                & (u + v <= 1.0)
                & (t > T_MIN)
                & np.isfinite(t)
            )
        t_mat[:, cols] = np.where(ok, t, np.inf)

    leaf_best = t_mat.min(axis=1)
    leaf_arg = t_mat.argmin(axis=1)
    better = leaf_best < best_t
    best_t[better] = leaf_best[better]
    best_p[better] = prims[leaf_arg[better]]


# ---------------------------------------------------------------------------
# point queries (_spatial.c)


def _distances(points, x):
    d = points - np.asarray(x, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def _sort_by_distance_then_id(ids, dists):
    order = np.lexsort((ids, dists))
    return ids[order], dists[order]


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
