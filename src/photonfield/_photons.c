/* Photon emission, hit shading, BSDF draws, photon paths and the photon density sum.
 *
 * The emitter sampler picks a slot by power (Scene.pick_emitter), a uniform-area point and unit normal on
 * it (Scene.sample_on_emitter: a sphere, a quad, or a mesh triangle picked by its area CDF) and a cosine
 * lobe about that normal. shade() is the package's one hit shading and sample_bsdf() its one BSDF draw;
 * pf_shade_hits (Scene.intersect_batch) and pf_sample_bsdf (scene.sample_bsdf_batch) run them on a batch of
 * rays. pf_trace_photons emits each photon and runs its whole path in one pass: nearest hit
 * (pf_bvh_nearest), shade(), a record at every diffuse hit, sample_bsdf(), and from bounce RR_START - 1 on
 * the Russian roulette of core.roulette. Photon i draws from stream keys[i] with core.draw_unit's
 * SplitMix64: 5 emission draws from counter 0 (slot, two area draws, two direction draws), then 3 draws per
 * bounce that samples a continuation, then 1 roulette draw. pf_kde_sum is the sum of
 * integrators.kde_gather_batch over CSR neighbour rows.
 *
 * Every formula keeps the operation order of its numpy oracle in tests/oracles.py: vdot (einsum) sums as
 * (x0*y0 + x2*y2) + x1*y1, linalg.norm as (x0*x0 + x1*x1) + x2*x2, np.cross term by term, and libm's sqrt,
 * cos and sin give numpy's bits. Build with -ffp-contract=off: a fused multiply-add would move bits.
 *
 * Records are written in photon order, each with its bounce index; the caller sorts them stably by bounce.
 * No state is static, so threads may trace at once. */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#include "_bvh.h"

#define RAY_OFFSET 1e-7 /* core.RAY_OFFSET */
#define RR_START 3      /* core.RR_START */

enum { DIFFUSE, MIRROR, DIELECTRIC }; /* scene.DIFFUSE, MIRROR, DIELECTRIC */

/* prim -> shape -> material lookup and shape emission; geometry.ShadingTable mirrors it member for member. */
struct pf_shading {
    const ptrdiff_t *shape_ids, *shape_mat;
    const unsigned char *mat_kind;
    const double *mat_albedo, *mat_ior, *shape_emission;
};

/* n rows of scene.Hits, member for member (bools as 0/1 bytes); geometry.HitsTable mirrors it. */
struct pf_hits {
    ptrdiff_t n;
    unsigned char *valid;
    double *t, *position, *normal, *wo;
    ptrdiff_t *shape_id;
    unsigned char *mat_kind;
    double *albedo, *ior, *emission;
    unsigned char *entering;
};

/* A Scene's emitters; geometry.EmitterTable mirrors it member for member.
 * Slot s is the shape whose primitives are start[s] .. start[s] + count[s] - 1
 * of the geometry arrays: one sphere (center pa, radius pb[0]), one quad
 * (corner pa, edges pb and pc) or the triangles (pa, pb, pc) of a mesh. */
struct pf_emitters {
    ptrdiff_t n;                      /* slots */
    const double *cdf;                /* (n,) power CDF over the slots: Scene.emitter_cdf */
    const double *power;              /* (3,) Scene.total_power */
    const ptrdiff_t *start, *count;   /* (n,) each slot's primitives */
    const unsigned char *kinds;       /* per primitive: KIND_* */
    const double *pa, *pb, *pc;       /* per primitive: the geometry's (P, 3) arrays */
    const double *normal;             /* (n, 3) a quad slot's unit normal: Quad.normal */
    const double *area_cdf;           /* per primitive: a mesh triangle's area CDF within its mesh */
};

/* core.draw_unit: draw *ctr of stream key, then advance the counter. */
static double draw_unit(uint64_t key, uint64_t *ctr)
{
    uint64_t z = key + (*ctr + 1) * 0x9E3779B97F4A7C15ULL;
    *ctr += 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return (double)(z >> 11) * 0x1p-53;
}

static double vdot(const double *x, const double *y)
{
    return (x[0] * y[0] + x[2] * y[2]) + x[1] * y[1];
}

static double vnorm(const double *v)
{
    return sqrt((v[0] * v[0] + v[1] * v[1]) + v[2] * v[2]);
}

/* np.clip: NaN passes through, and so does -0.0 against lo = 0.0. */
static double clip(double x, double lo, double hi)
{
    return isnan(x) ? x : x < lo ? lo : x > hi ? hi : x;
}

/* A cosine-weighted direction about the unit normal n (branchless frame); returns its pdf cos / pi. */
static double cosine_lobe(double u1, double u2, const double *n, double *out)
{
    u1 = clip(u1, 0.0, 1.0 - 1e-16);
    double r = sqrt(u1), phi = (2.0 * M_PI) * u2, z = sqrt(1.0 - u1);
    double rc = r * cos(phi), rs = r * sin(phi);
    double s = n[2] >= 0.0 ? 1.0 : -1.0;
    double a = -1.0 / (s + n[2]);
    double b = n[0] * n[1] * a;
    double t[3] = {1.0 + s * n[0] * n[0] * a, s * b, -s * n[0]};
    double bt[3] = {b, s + n[1] * n[1] * a, -n[1]};
    for (int k = 0; k < 3; k++)
        out[k] = (rc * t[k] + rs * bt[k]) + z * n[k];
    return z / M_PI;
}

/* Unpolarized Fresnel reflectance into (entering) or out of a medium of index ior; 1 past the critical angle. */
static double fresnel(double cos_i, double ior, int entering)
{
    cos_i = clip(fabs(cos_i), 0.0, 1.0);
    double eta_i = entering ? 1.0 : ior, eta_t = entering ? ior : 1.0;
    double ratio = eta_i / eta_t;
    double sin2_t = ratio * ratio * (1.0 - cos_i * cos_i);
    if (sin2_t >= 1.0)
        return 1.0;
    double cos_t = sqrt(clip(1.0 - sin2_t, 0.0, 1.0));
    double r_par = (eta_t * cos_i - eta_i * cos_t) / (eta_t * cos_i + eta_i * cos_t);
    double r_perp = (eta_i * cos_i - eta_t * cos_t) / (eta_i * cos_i + eta_t * cos_t);
    return 0.5 * (r_par * r_par + r_perp * r_perp);
}

/* One BSDF draw wi at a hit seen from wo, nrm flipped toward wo: the cosine lobe with weight albedo
 * (diffuse), the mirror direction with weight albedo (mirror), or, with weight 1, the mirror direction with
 * the Fresnel probability (u3 < F, or under total internal reflection) and else the refracted one
 * (dielectric). Returns the pdf: cos / pi, or 0 if delta. */
static double sample_bsdf(int kind, const double *albedo, double ior, int entering, const double *nrm,
                          const double *wo, double u1, double u2, double u3, double *wi, double *weight)
{
    for (int k = 0; k < 3; k++)
        weight[k] = kind == DIELECTRIC ? 1.0 : albedo[k];
    if (kind == DIFFUSE)
        return cosine_lobe(u1, u2, nrm, wi);
    double cos_i = clip(vdot(wo, nrm), 0.0, 1.0);
    double eta = entering ? 1.0 / ior : ior;
    double sin2_t = eta * eta * (1.0 - cos_i * cos_i);
    if (kind == MIRROR || u3 < fresnel(cos_i, ior, entering) || sin2_t >= 1.0) {
        double d[3] = {-wo[0], -wo[1], -wo[2]}, k2 = 2.0 * vdot(d, nrm);
        for (int k = 0; k < 3; k++)
            wi[k] = d[k] - k2 * nrm[k];
        return 0.0;
    }
    double cos_t = sqrt(clip(1.0 - sin2_t, 0.0, 1.0));
    for (int k = 0; k < 3; k++)
        wi[k] = -eta * wo[k] + (eta * cos_i - cos_t) * nrm[k];
    double len = vnorm(wi);
    len = len > 0 ? len : 1.0;
    for (int k = 0; k < 3; k++)
        wi[k] /= len;
    return 0.0;
}

/* The hit at t along (o, d) on primitive prim: its position, wo = -d and the geometric normal (a sphere's
 * radial one, else the stored one) flipped toward wo into nrm. Returns whether wo lies on the geometric
 * normal's side (the ray enters the surface). */
static int shade(const struct pf_bvh *g, ptrdiff_t prim, const double *o, const double *d, double t, double *pos,
                 double *wo, double *nrm)
{
    const double *ngeo = g->normals + 3 * prim;
    double v[3];
    for (int k = 0; k < 3; k++) {
        pos[k] = o[k] + t * d[k];
        wo[k] = -d[k];
        v[k] = pos[k] - g->pa[3 * prim + k];
    }
    if (g->kinds[prim] == KIND_SPHERE) {
        double len = vnorm(v);
        for (int k = 0; k < 3; k++)
            v[k] /= len;
        ngeo = v;
    }
    int entering = vdot(ngeo, wo) > 0.0;
    for (int k = 0; k < 3; k++)
        nrm[k] = entering ? ngeo[k] : -ngeo[k];
    return entering;
}

/* np.maximum / np.minimum: a NaN operand wins. */
static double max_nan(double a, double b)
{
    return a >= b || isnan(a) ? a : b;
}

static double min_nan(double a, double b)
{
    return a <= b || isnan(a) ? a : b;
}

/* np.searchsorted(cdf[:n], u, side="right"): the first i with u < cdf[i] in
 * numpy's order, where NaN sorts last. */
static ptrdiff_t search_right(const double *cdf, ptrdiff_t n, double u)
{
    ptrdiff_t lo = 0, hi = n;
    while (lo < hi) {
        ptrdiff_t mid = lo + ((hi - lo) >> 1);
        if (u < cdf[mid] || (isnan(cdf[mid]) && !isnan(u)))
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* Scene.pick_emitter: the power-proportional slot for the draw u, clipped to the last slot. */
static ptrdiff_t pick_emitter(const struct pf_emitters *e, double u)
{
    ptrdiff_t s = search_right(e->cdf, e->n, u);
    return s < e->n ? s : e->n - 1;
}

/* Scene.sample_on_emitter: a uniform-area point and its unit normal on slot s. */
static void sample_on_emitter(const struct pf_emitters *e, ptrdiff_t s, double u1, double u2, double *pt, double *nrm)
{
    ptrdiff_t p = e->start[s];
    if (e->kinds[p] == KIND_QUAD) {
        for (int k = 0; k < 3; k++) {
            pt[k] = (e->pa[3 * p + k] + u1 * e->pb[3 * p + k]) + u2 * e->pc[3 * p + k];
            nrm[k] = e->normal[3 * s + k];
        }
        return;
    }
    if (e->kinds[p] == KIND_SPHERE) {
        double z = 1.0 - 2.0 * u1;
        double r = sqrt(clip(1.0 - z * z, 0.0, 1.0)), phi = (2.0 * M_PI) * u2;
        double local[3] = {r * cos(phi), r * sin(phi), z};
        for (int k = 0; k < 3; k++) {
            pt[k] = e->pa[3 * p + k] + e->pb[3 * p] * local[k];
            nrm[k] = local[k];
        }
        return;
    }
    /* a mesh: the triangle by area, then u1 re-stretched within its CDF bin
     * and a uniform barycentric point */
    ptrdiff_t n = e->count[s];
    const double *cdf = e->area_cdf + p;
    ptrdiff_t t = search_right(cdf, n, u1);
    t = t < n ? t : n - 1;
    double lo = t > 0 ? cdf[t - 1] : 0.0;
    double f1 = clip((u1 - lo) / max_nan(cdf[t] - lo, 1e-300), 0.0, 1.0 - 1e-12);
    double su = sqrt(f1), b0 = 1.0 - su, b1 = u2 * su, b2 = (1.0 - b0) - b1;
    const double *a = e->pa + 3 * (p + t), *b = e->pb + 3 * (p + t), *c = e->pc + 3 * (p + t);
    double e1[3], e2[3];
    for (int k = 0; k < 3; k++) {
        pt[k] = (b0 * a[k] + b1 * b[k]) + b2 * c[k];
        e1[k] = b[k] - a[k];
        e2[k] = c[k] - a[k];
    }
    double nn[3] = {e1[1] * e2[2] - e1[2] * e2[1], e1[2] * e2[0] - e1[0] * e2[2], e1[0] * e2[1] - e1[1] * e2[0]};
    double len = vnorm(nn);
    for (int k = 0; k < 3; k++)
        nrm[k] = nn[k] / len;
}

/* Trace one photon from the ray (o, d) with flux f; append its records at
 * *m. Returns 0, or -1 if a BVH walk overran its stack. */
static int trace_one(const struct pf_bvh *g, const struct pf_shading *sh, const double *o0, const double *d0,
                     const double *f0, uint64_t key, uint64_t ctr, int bounces, double t_min, double *out_pos,
                     double *out_flux, double *out_wi, unsigned char *out_bounce, ptrdiff_t *m)
{
    double o[3] = {o0[0], o0[1], o0[2]}, d[3] = {d0[0], d0[1], d0[2]};
    double flux[3] = {f0[0], f0[1], f0[2]}, beta[3] = {1.0, 1.0, 1.0};
    for (int bounce = 0; bounce < bounces; bounce++) {
        double t = INFINITY;
        ptrdiff_t prim = -1;
        if (pf_bvh_nearest(g, o, d, t_min, &t, &prim) != 0)
            return -1;
        if (prim < 0)
            return 0;

        double pos[3], wo[3], nrm[3];
        int entering = shade(g, prim, o, d, t, pos, wo, nrm);
        ptrdiff_t mat = sh->shape_mat[sh->shape_ids[prim]];
        int kind = sh->mat_kind[mat];

        if (kind == DIFFUSE) {
            for (int k = 0; k < 3; k++) {
                out_pos[3 * *m + k] = pos[k];
                out_flux[3 * *m + k] = flux[k];
                out_wi[3 * *m + k] = wo[k];
            }
            out_bounce[*m] = (unsigned char)bounce;
            *m += 1;
        }
        if (bounce == bounces - 1)
            return 0;

        double u1 = draw_unit(key, &ctr), u2 = draw_unit(key, &ctr), u3 = draw_unit(key, &ctr);
        double wi[3], weight[3];
        sample_bsdf(kind, sh->mat_albedo + 3 * mat, sh->mat_ior[mat], entering, nrm, wo, u1, u2, u3, wi, weight);
        for (int k = 0; k < 3; k++) {
            beta[k] = beta[k] * weight[k];
            flux[k] = flux[k] * weight[k];
        }
        /* a path goes on while its BSDF weight is non-zero (not its throughput) */
        int keep = weight[0] > 0.0 || weight[1] > 0.0 || weight[2] > 0.0;
        if (bounce + 1 >= RR_START) {
            double p = min_nan(1.0, max_nan(max_nan(beta[0], beta[1]), beta[2]));
            int survive = draw_unit(key, &ctr) < p && p > 0.0;
            double inv_p = survive ? 1.0 / max_nan(p, 1e-300) : 0.0;
            keep = keep && survive;
            for (int k = 0; k < 3; k++) {
                beta[k] = beta[k] * inv_p;
                flux[k] = flux[k] * inv_p;
            }
        }
        if (!keep)
            return 0;
        for (int k = 0; k < 3; k++) {
            o[k] = pos[k] + RAY_OFFSET * wi[k];
            d[k] = wi[k];
        }
    }
    return 0;
}

/* Trace photons done..n-1 of n, photon i emitted on stream keys[i] with
 * flux total power / n, for at most `bounces` hits, storing a record
 * (position, flux, incident direction, bounce) at every diffuse hit. *m
 * counts the records of the output arrays, which hold cap. A photon stores
 * at most `bounces` records, so it starts only while that many slots are
 * free. Returns the index of the first photon not traced (n unless the
 * records ran out of room), or -1 if a BVH walk overran its stack. */
ptrdiff_t pf_trace_photons(ptrdiff_t n, ptrdiff_t done, const uint64_t *keys, int bounces, double t_min,
                           const struct pf_bvh *g, const struct pf_shading *sh, const struct pf_emitters *e,
                           ptrdiff_t cap, double *out_pos, double *out_flux, double *out_wi, unsigned char *out_bounce,
                           ptrdiff_t *m)
{
    double flux[3];
    for (int k = 0; k < 3; k++)
        flux[k] = e->power[k] / (double)n;
    for (ptrdiff_t i = done; i < n; i++) {
        if (cap - *m < bounces)
            return i;
        /* emission: slot, point and normal, direction */
        uint64_t ctr = 0;
        ptrdiff_t s = pick_emitter(e, draw_unit(keys[i], &ctr));
        double u1 = draw_unit(keys[i], &ctr), u2 = draw_unit(keys[i], &ctr);
        double o[3], nrm[3], d[3];
        sample_on_emitter(e, s, u1, u2, o, nrm);
        u1 = draw_unit(keys[i], &ctr);
        u2 = draw_unit(keys[i], &ctr);
        cosine_lobe(u1, u2, nrm, d);
        if (trace_one(g, sh, o, d, flux, keys[i], ctr, bounces, t_min, out_pos, out_flux, out_wi, out_bounce, m) != 0)
            return -1;
    }
    return n;
}

/* Scene.intersect_batch: fill the rows of h (t written) for the rays (o, d) and their nearest primitives
 * prim: a hit takes its shape's material and, from the normal's side, its emission; a miss (prim -1) is
 * zero but for wo = -d, shape_id -1 and ior 1. */
void pf_shade_hits(const struct pf_bvh *g, const struct pf_shading *sh, const double *o, const double *d,
                   const ptrdiff_t *prim, const struct pf_hits *h)
{
    for (ptrdiff_t i = 0; i < h->n; i++) {
        double *pos = h->position + 3 * i, *nrm = h->normal + 3 * i, *wo = h->wo + 3 * i;
        double *albedo = h->albedo + 3 * i, *emission = h->emission + 3 * i;
        ptrdiff_t p = prim[i];
        h->valid[i] = p >= 0;
        if (p < 0) {
            for (int k = 0; k < 3; k++) {
                pos[k] = nrm[k] = albedo[k] = emission[k] = 0.0;
                wo[k] = -d[3 * i + k];
            }
            h->shape_id[i] = -1;
            h->mat_kind[i] = h->entering[i] = 0;
            h->ior[i] = 1.0;
            continue;
        }
        int entering = shade(g, p, o + 3 * i, d + 3 * i, h->t[i], pos, wo, nrm);
        ptrdiff_t s = sh->shape_ids[p], mat = sh->shape_mat[s];
        h->shape_id[i] = s;
        h->mat_kind[i] = sh->mat_kind[mat];
        h->ior[i] = sh->mat_ior[mat];
        h->entering[i] = (unsigned char)entering;
        for (int k = 0; k < 3; k++) {
            albedo[k] = sh->mat_albedo[3 * mat + k];
            emission[k] = entering ? sh->shape_emission[3 * s + k] : 0.0;
        }
    }
}

/* scene.sample_bsdf_batch: one BSDF draw per valid row of h from the draws
 * u1[i], u2[i], u3[i]; the outputs of an invalid row keep the caller's zeros. */
void pf_sample_bsdf(const struct pf_hits *h, const double *u1, const double *u2, const double *u3, double *wi,
                    double *weight, unsigned char *is_delta, double *pdf)
{
    for (ptrdiff_t i = 0; i < h->n; i++) {
        int kind = h->mat_kind[i];
        if (!h->valid[i])
            continue;
        pdf[i] = sample_bsdf(kind, h->albedo + 3 * i, h->ior[i], h->entering[i], h->normal + 3 * i, h->wo + 3 * i,
                             u1[i], u2[i], u3[i], wi + 3 * i, weight + 3 * i);
        is_delta[i] = kind != DIFFUSE;
    }
}

/* Scene.pick_emitter for the n draws u. */
void pf_pick_emitter(const struct pf_emitters *e, ptrdiff_t n, const double *u, ptrdiff_t *slot)
{
    for (ptrdiff_t i = 0; i < n; i++)
        slot[i] = pick_emitter(e, u[i]);
}

/* Scene.sample_on_emitter for n rows: row i on slot[i] from the draws u1[i], u2[i]. */
void pf_sample_on_emitter(const struct pf_emitters *e, ptrdiff_t n, const ptrdiff_t *slot, const double *u1,
                          const double *u2, double *pts, double *nrm)
{
    for (ptrdiff_t i = 0; i < n; i++)
        sample_on_emitter(e, slot[i], u1[i], u2[i], pts + 3 * i, nrm + 3 * i);
}

/* The sum of integrators.kde_gather_batch over m query rows: row r sums,
 * over its neighbours flat[splits[r]] .. flat[splits[r + 1] - 1], the
 * photon flux times the diffuse BSDF: albedo[r] / pi where the photon's
 * incident direction and wos[r] both lie above normals[r], and 0 elsewhere.
 * Each channel sums from +0.0 in flat order, as np.bincount does. */
void pf_kde_sum(ptrdiff_t m, const ptrdiff_t *splits, const ptrdiff_t *flat, const double *incident,
                const double *flux, const double *normals, const double *wos, const double *albedo, double *out)
{
    for (ptrdiff_t r = 0; r < m; r++) {
        const double *nrm = normals + 3 * r;
        int front = vdot(wos + 3 * r, nrm) > 0.0;
        double fr[3], sum[3] = {0.0, 0.0, 0.0};
        for (int k = 0; k < 3; k++)
            fr[k] = albedo[3 * r + k] / M_PI;
        for (ptrdiff_t j = splits[r]; j < splits[r + 1]; j++) {
            const double *f = flux + 3 * flat[j];
            int lit = front && vdot(incident + 3 * flat[j], nrm) > 0.0;
            for (int k = 0; k < 3; k++)
                sum[k] += f[k] * (lit ? fr[k] : 0.0);
        }
        for (int k = 0; k < 3; k++)
            out[3 * r + k] = sum[k];
    }
}
