/* Photon path tracing for photonfield.photons.trace_photons.
 *
 * Each photon's whole path runs in one pass: nearest hit (pf_bvh_nearest),
 * the hit shading of Scene.intersect_batch, a record at every diffuse hit,
 * the BSDF draw of scene.sample_bsdf_batch, and from bounce RR_START - 1 on
 * the Russian roulette of core.roulette. Photon i draws from stream keys[i]
 * from counter ctrs[i] on, with core.draw_unit's SplitMix64: 3 draws per
 * bounce that samples a continuation, then 1 roulette draw.
 *
 * Every formula keeps the operation order of its numpy original: vdot
 * (einsum) sums as (x0*y0 + x2*y2) + x1*y1 and linalg.norm as
 * (x0*x0 + x1*x1) + x2*x2, and libm's sqrt, cos and sin give numpy's bits.
 * Build with -ffp-contract=off: a fused multiply-add would move bits.
 *
 * Records are written in photon order, each with its bounce index; the
 * caller sorts them stably by bounce. No state is static, so threads may
 * trace at once.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#include "_bvh.h"

#define RAY_OFFSET 1e-7 /* core.RAY_OFFSET */
#define RR_START 3      /* core.RR_START */

enum { DIFFUSE, MIRROR, DIELECTRIC }; /* scene.DIFFUSE, MIRROR, DIELECTRIC */

/* prim -> shape -> material lookup; geometry.ShadingTable mirrors it member for member. */
struct pf_shading {
    const ptrdiff_t *shape_ids, *shape_mat;
    const unsigned char *mat_kind;
    const double *mat_albedo, *mat_ior;
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

/* core.reflect */
static void reflect(const double *d, const double *n, double *out)
{
    double k = 2.0 * vdot(d, n);
    for (int i = 0; i < 3; i++)
        out[i] = d[i] - k * n[i];
}

/* core.sample_cosine_hemisphere with core.orthonormal_basis */
static void cosine_lobe(double u1, double u2, const double *n, double *out)
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
}

/* scene.fresnel_reflectance */
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

/* scene.sample_bsdf_batch for one hit seen along d: direction wi and weight. */
static void sample_bsdf(int kind, const double *albedo, double ior, int entering, const double *nrm, const double *d,
                        const double *wo, double u1, double u2, double u3, double *wi, double *weight)
{
    for (int k = 0; k < 3; k++)
        weight[k] = kind == DIELECTRIC ? 1.0 : albedo[k];
    if (kind == DIFFUSE) {
        cosine_lobe(u1, u2, nrm, wi);
        return;
    }
    if (kind == MIRROR) {
        reflect(d, nrm, wi);
        return;
    }
    double cos_i = clip(vdot(wo, nrm), 0.0, 1.0);
    double eta = entering ? 1.0 / ior : ior;
    double sin2_t = eta * eta * (1.0 - cos_i * cos_i);
    if (u3 < fresnel(cos_i, ior, entering) || sin2_t >= 1.0) {
        reflect(d, nrm, wi);
        return;
    }
    double cos_t = sqrt(clip(1.0 - sin2_t, 0.0, 1.0));
    for (int k = 0; k < 3; k++)
        wi[k] = -eta * wo[k] + (eta * cos_i - cos_t) * nrm[k];
    double len = vnorm(wi);
    len = len > 0 ? len : 1.0;
    for (int k = 0; k < 3; k++)
        wi[k] /= len;
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

        /* Scene.intersect_batch */
        double pos[3], wo[3], ngeo[3], nrm[3];
        for (int k = 0; k < 3; k++) {
            pos[k] = o[k] + t * d[k];
            wo[k] = -d[k];
        }
        if (g->kinds[prim] == KIND_SPHERE) {
            double v[3];
            for (int k = 0; k < 3; k++)
                v[k] = pos[k] - g->pa[3 * prim + k];
            double len = vnorm(v);
            for (int k = 0; k < 3; k++)
                ngeo[k] = v[k] / len;
        } else {
            for (int k = 0; k < 3; k++)
                ngeo[k] = g->normals[3 * prim + k];
        }
        int entering = vdot(ngeo, wo) > 0.0;
        for (int k = 0; k < 3; k++)
            nrm[k] = entering ? ngeo[k] : -ngeo[k];
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
        sample_bsdf(kind, sh->mat_albedo + 3 * mat, sh->mat_ior[mat], entering, nrm, d, wo, u1, u2, u3, wi, weight);
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

/* Trace photons 0..n-1, photon i from the ray (o[i], d[i]) with flux
 * flux[i], for at most `bounces` hits, storing a record (position, flux,
 * incident direction, bounce) at every diffuse hit. *m counts the records
 * of the output arrays, which hold cap. A photon stores at most `bounces`
 * records, so it starts only while that many slots are free. Returns the
 * number of photons traced (n unless the records ran out of room), or -1
 * if a BVH walk overran its stack. */
ptrdiff_t pf_trace_photons(ptrdiff_t n, const double *o, const double *d, const double *flux, const uint64_t *keys,
                           const uint64_t *ctrs, int bounces, double t_min, const struct pf_bvh *g,
                           const struct pf_shading *sh, ptrdiff_t cap, double *out_pos, double *out_flux,
                           double *out_wi, unsigned char *out_bounce, ptrdiff_t *m)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        if (cap - *m < bounces)
            return i;
        if (trace_one(g, sh, o + 3 * i, d + 3 * i, flux + 3 * i, keys[i], ctrs[i], bounces, t_min, out_pos,
                      out_flux, out_wi, out_bounce, m) != 0)
            return -1;
    }
    return n;
}
