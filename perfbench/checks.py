"""Output checks for the benchmark workloads.

Every check is computed apart from the program: brute-force ray tests,
linear scans over all photons or primitives, a plain numpy evaluation of
the documented field formula, and central differences. None compares
against a stored copy of an earlier output. Each check takes outputs as
plain arrays and returns a list of failure messages (empty when it
passes), so the tests can hand it deliberately corrupted outputs.
"""

from __future__ import annotations

import math

import numpy as np

T_MIN = 1e-4  # the program's documented self-intersection epsilon


# ---------------------------------------------------------------------------
# images


def image(img, label: str) -> list[str]:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        return [f"{label}: image has shape {img.shape}, expected (h, w, 3)"]
    if not np.all(np.isfinite(img)):
        return [f"{label}: {int(np.sum(~np.isfinite(img)))} non-finite pixel values"]
    if np.any(img < 0.0):
        return [f"{label}: {int(np.sum(img < 0.0))} negative pixel values"]
    return []


def mean_agreement(img, reference_mean: float, tol: float, label: str) -> list[str]:
    """Two consistent estimators of one integral agree on the image mean."""
    m = float(np.mean(img))
    rel = abs(m - reference_mean) / reference_mean
    if not rel <= tol:
        return [f"{label}: image mean {m:.6g} is {rel:.3%} from the photon-mapped mean {reference_mean:.6g} (> {tol:.0%})"]
    return []


# ---------------------------------------------------------------------------
# geometry


def primitives(scene):
    """Flat primitive list in the documented order: shapes in scene order,
    mesh faces in index order. Each entry is (kind, a, b, c)."""
    out = []
    for shape in scene.shapes:
        k = shape.kind
        if hasattr(k, "radius"):
            out.append(("sphere", np.asarray(k.center, float), float(k.radius), None))
        elif hasattr(k, "edge_u"):
            out.append(("quad", np.asarray(k.corner, float), np.asarray(k.edge_u, float), np.asarray(k.edge_v, float)))
        else:
            v = np.asarray(k.vertices, float)
            for f in np.asarray(k.indices):
                out.append(("tri", v[f[0]], v[f[1]], v[f[2]]))
    return out


def diffuse_flags(scene):
    """Whether each entry of :func:`primitives` has a diffuse material."""
    flags = []
    for shape in scene.shapes:
        n = len(shape.kind.indices) if hasattr(shape.kind, "indices") else 1
        flags += [scene.materials[shape.material].is_diffuse] * n
    return flags


def _quad_coords(p, corner, eu, ev):
    w = p - corner
    uu, uv, vv = eu @ eu, eu @ ev, ev @ ev
    wu, wv = w @ eu, w @ ev
    det = uu * vv - uv * uv
    return (wu * vv - wv * uv) / det, (wv * uu - wu * uv) / det


def brute_force_t(prims, o, d, t_min: float = T_MIN):
    """(rays, prims) matrix of hit distances, inf where a ray misses."""
    o = np.asarray(o, float)
    d = np.asarray(d, float)
    t_all = np.full((len(o), len(prims)), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, (kind, a, b, c) in enumerate(prims):
            if kind == "sphere":
                oc = o - a
                bb = np.sum(oc * d, axis=1)
                disc = bb * bb - (np.sum(oc * oc, axis=1) - b * b)
                sq = np.sqrt(np.maximum(disc, 0.0))
                t = np.where(-bb - sq > t_min, -bb - sq, -bb + sq)
                ok = (disc >= 0.0) & (t > t_min)
            elif kind == "quad":
                n = np.cross(b, c)
                n = n / np.linalg.norm(n)
                denom = d @ n
                t = ((a - o) @ n) / denom
                p = o + t[:, None] * d
                al, be = _quad_coords(p, a, b, c)
                ok = (np.abs(denom) > 1e-12) & (t > t_min) & (al >= 0) & (al <= 1) & (be >= 0) & (be <= 1)
            else:  # Moller-Trumbore
                e1, e2 = b - a, c - a
                pv = np.cross(d, e2)
                det = pv @ e1
                tv = o - a
                u = np.sum(tv * pv, axis=1) / det
                qv = np.cross(tv, e1)
                v = np.sum(qv * d, axis=1) / det
                t = (qv @ e2) / det
                ok = (np.abs(det) > 1e-12) & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > t_min)
            t_all[:, j] = np.where(ok & np.isfinite(t), t, np.inf)
    return t_all


def nearest_hits(prims, o, d, t_prog, prim_prog, tol: float = 1e-9) -> list[str]:
    """The program's nearest hit is the brute-force nearest hit: same
    primitive (or one tied with it within ``tol``) and the same ``t``."""
    t_all = brute_force_t(prims, o, d)
    t_bf = t_all.min(axis=1)
    p_bf = np.where(np.isfinite(t_bf), t_all.argmin(axis=1), -1)
    t_prog = np.asarray(t_prog, float)
    prim_prog = np.asarray(prim_prog)
    bad = []
    for i in range(len(o)):
        if p_bf[i] < 0 or prim_prog[i] < 0:
            if p_bf[i] != prim_prog[i]:
                bad.append(f"ray {i}: program prim {prim_prog[i]}, brute force prim {p_bf[i]}")
            continue
        if not abs(t_prog[i] - t_bf[i]) <= tol:
            bad.append(f"ray {i}: program t {t_prog[i]!r}, brute force t {t_bf[i]!r}")
        elif prim_prog[i] != p_bf[i] and not abs(t_all[i, prim_prog[i]] - t_bf[i]) <= tol:
            bad.append(f"ray {i}: program prim {prim_prog[i]}, brute force prim {p_bf[i]}")
    return [f"nearest hit: {len(bad)} of {len(o)} rays disagree; first: {bad[0]}"] if bad else []


def photons_on_diffuse(prims, diffuse, positions, flux, tol: float = 1e-9) -> list[str]:
    """Every stored photon lies on a diffuse primitive and carries finite,
    non-negative flux. ``diffuse`` flags each entry of ``prims``."""
    positions = np.asarray(positions, float)
    flux = np.asarray(flux, float)
    on = np.zeros(len(positions), dtype=bool)
    for (kind, a, b, c), is_diffuse in zip(prims, diffuse):
        if not is_diffuse:
            continue
        if kind == "sphere":
            on |= np.abs(np.linalg.norm(positions - a, axis=1) - b) <= tol
        elif kind == "quad":
            n = np.cross(b, c)
            n = n / np.linalg.norm(n)
            al, be = _quad_coords(positions, a, b, c)
            on |= (np.abs((positions - a) @ n) <= tol) & (al >= -tol) & (al <= 1 + tol) & (be >= -tol) & (be <= 1 + tol)
        else:
            e1, e2 = b - a, c - a
            n = np.cross(e1, e2)
            n = n / np.linalg.norm(n)
            al, be = _quad_coords(positions, a, e1, e2)
            on |= (np.abs((positions - a) @ n) <= tol) & (al >= -tol) & (be >= -tol) & (al + be <= 1 + tol)
    out = []
    if not np.all(on):
        i = int(np.nonzero(~on)[0][0])
        out.append(f"photons: {int(np.sum(~on))} of {len(on)} lie on no diffuse shape; first at {positions[i].tolist()}")
    if not np.all(np.isfinite(flux)) or np.any(flux < 0.0):
        out.append(f"photons: {int(np.sum(~(np.isfinite(flux) & (flux >= 0.0))))} flux values are negative or non-finite")
    return out


# ---------------------------------------------------------------------------
# spatial index and density estimation


def _scan(points, x):
    return np.sqrt(np.sum((points - x) ** 2, axis=1))


def _ball(points, x, r):
    dist = _scan(points, x)
    ids = np.nonzero(dist <= r)[0]
    return ids[np.lexsort((ids, dist[ids]))], dist


def ball_rows(points, queries, r: float, flat, splits) -> list[str]:
    """CSR ball-query rows equal a distance scan: same ids, same order."""
    flat = np.asarray(flat)
    splits = np.asarray(splits)
    if len(splits) != len(queries) + 1:
        return [f"ball query: {len(splits)} row splits for {len(queries)} queries"]
    for i, x in enumerate(np.asarray(queries, float)):
        want, _ = _ball(points, x, r)
        got = flat[splits[i]:splits[i + 1]]
        if not np.array_equal(got, want):
            return [f"ball query row {i}: {len(got)} ids differ from the scan's {len(want)}"]
    return []


def kde_values(photon_pos, photon_flux, photon_incident, pos, nrm, wo, albedo, r: float, values, rtol: float = 1e-12) -> list[str]:
    """L = 1/(pi r^2) * sum over photons within r of flux * albedo/pi,
    counting only photons arriving above the surface seen from above."""
    want = np.zeros((len(pos), 3))
    for i in range(len(pos)):
        ids, _ = _ball(photon_pos, pos[i], r)
        above = (photon_incident[ids] @ nrm[i] > 0.0) & (wo[i] @ nrm[i] > 0.0)
        want[i] = photon_flux[ids][above].sum(axis=0) * (albedo[i] / math.pi)
    want /= math.pi * r * r
    err = np.abs(np.asarray(values) - want)
    bad = ~(err <= rtol * np.abs(want))
    if np.any(bad):
        i = int(np.nonzero(bad.any(axis=1))[0][0])
        return [f"kde gather: {int(bad.any(axis=1).sum())} of {len(pos)} points differ from the brute-force sum; point {i}: {values[i].tolist()} vs {want[i].tolist()}"]
    return []


# ---------------------------------------------------------------------------
# Gaussian photon field


def _rotation(q):
    """Polynomial rotation matrix of (w, x, y, z) quaternions, not renormalized."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        -2,
    )


def hybrid_ids(means, x, r: float, k_min: int):
    """Ball neighbours, topped up with the k_min nearest when fewer."""
    ids, dist = _ball(means, x, r)
    if len(ids) >= k_min:
        return ids
    all_ids = np.arange(len(means))
    knn = np.lexsort((all_ids, dist))[: min(k_min, len(means))]
    return np.concatenate([ids, knn[~np.isin(knn, ids)]])


def field_radiance(means, quats, log_scales, flux, radius, eps, xs, flat, splits):
    """L(x) = sum_i w_i flux_i / max(sum_i w_i, eps) with
    w_i = exp(-0.5 d^T Lambda_i d) * psi(|d|), Lambda = R S^-2 R^T, over
    the given neighbourhoods. Returns (L, sum_i w_i |flux_i| / Z)."""
    flat = np.asarray(flat)
    owner = np.repeat(np.arange(len(xs)), np.diff(splits))
    d = xs[owner] - means[flat]
    rot = _rotation(quats[flat])
    inv_s2 = np.exp(-2.0 * log_scales[flat])
    lam = np.einsum("kij,kj,klj->kil", rot, inv_s2, rot)
    quad = np.einsum("ki,kil,kl->k", d, lam, d)
    dist = np.linalg.norm(d, axis=1)
    excess = np.maximum(dist - radius, 0.0) / max(radius, 1e-6)
    psi = np.where(dist <= radius, 1.0, np.exp(-3.0 * excess * excess))
    w = np.exp(-0.5 * quad) * psi
    z = np.maximum(np.bincount(owner, weights=w, minlength=len(xs)), eps)
    num = np.stack([np.bincount(owner, weights=w * flux[flat, c], minlength=len(xs)) for c in range(3)], 1)
    mag = np.stack([np.bincount(owner, weights=w * np.abs(flux[flat, c]), minlength=len(xs)) for c in range(3)], 1)
    return num / z[:, None], mag / z[:, None]


def field_query(means, quats, log_scales, flux, radius, k_min, eps, xs, values, rtol: float = 1e-9) -> list[str]:
    """The field's query equals the formula over a brute-force hybrid
    neighbourhood."""
    xs = np.asarray(xs, float)
    rows = [hybrid_ids(means, x, radius, k_min) for x in xs]
    splits = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    want, mag = field_radiance(means, quats, log_scales, flux, radius, eps, xs, np.concatenate(rows), splits)
    bad = ~(np.abs(np.asarray(values) - want) <= rtol * (mag + 1e-300))
    if np.any(bad):
        i = int(np.nonzero(bad.any(axis=1))[0][0])
        return [f"field query: {int(bad.any(axis=1).sum())} of {len(xs)} points differ from the formula; point {i}: {values[i].tolist()} vs {want[i].tolist()}"]
    return []


_STEPS = {"mean": 1e-7, "quat": 1e-7, "log_scale": 1e-6, "flux": 1e-6}


def gradients(params: dict, radius, eps, xs, dl, flat, splits, grads: dict, rng, per_block: int = 8, rtol: float = 1e-4) -> list[str]:
    """Analytic gradients of J = sum_b dl_b . L_b agree with central
    differences of the formula on sampled parameters (neighbourhoods
    held fixed, as the field's gradients define them)."""
    xs = np.asarray(xs, float)
    ids = np.unique(np.asarray(flat))

    def objective(p):
        L, _ = field_radiance(p["mean"], p["quat"], p["log_scale"], p["flux"], radius, eps, xs, flat, splits)
        return float(np.sum(L * dl))

    bad = []
    checked = 0
    for block, h in _STEPS.items():
        g = np.asarray(grads[block])[ids]
        cand = np.argwhere(np.abs(g) >= 1e-2 * np.abs(g).max())
        for row, comp in cand[rng.permutation(len(cand))[:per_block]]:
            pid = ids[row]
            hi = {k: v.copy() if k == block else v for k, v in params.items()}
            lo = {k: v.copy() if k == block else v for k, v in params.items()}
            hi[block][pid, comp] += h
            lo[block][pid, comp] -= h
            fd = (objective(hi) - objective(lo)) / (2.0 * h)
            an = float(grads[block][pid, comp])
            checked += 1
            if not abs(an - fd) <= rtol * max(abs(an), abs(fd)):
                bad.append(f"{block}[{pid},{comp}] analytic {an:.6g} vs central difference {fd:.6g}")
    if checked == 0:
        return ["gradients: no parameter was sampled"]
    return [f"gradients: {len(bad)} of {checked} sampled parameters disagree; first: {bad[0]}"] if bad else []


def training(losses, initial_full: float, final_full: float) -> list[str]:
    losses = np.asarray(losses, float)
    out = []
    if not np.all(np.isfinite(losses)):
        out.append(f"training: {int(np.sum(~np.isfinite(losses)))} non-finite minibatch losses")
    if not final_full < initial_full:
        out.append(f"training: full-dataset loss did not fall ({initial_full!r} -> {final_full!r})")
    return out


def byte_stable(first: bytes, second: bytes) -> list[str]:
    if first != second:
        n = min(len(first), len(second))
        at = next((i for i in range(n) if first[i] != second[i]), n)
        return [f"checkpoint: save, load, save is not byte-stable ({len(first)} vs {len(second)} bytes, first difference at {at})"]
    return []
