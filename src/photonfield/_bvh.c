/* Nearest-hit BVH traversal for photonfield.geometry.
 *
 * pf_bvh_nearest walks the flat node arrays built by Geometry._build_bvh
 * for one ray, with an explicit stack, left child first; pf_intersect runs
 * it over a batch of rays and _photons.c along photon paths. Leaf
 * primitives are tested in perm order and a hit replaces the best one only
 * if strictly nearer, so of equal-t hits the first primitive in perm order
 * wins.
 *
 * The leaf formulas and their operation order are those of
 * Geometry._leaf_hits; every three-term dot product is summed as
 * (x0*y0 + x2*y2) + x1*y1. Build with -ffp-contract=off: a fused
 * multiply-add rounds differently and would move bits.
 */
#include <math.h>
#include <stddef.h>

#include "_bvh.h"

#define STACK_MAX 64 /* geometry._STACK_MAX */
#define DEGENERATE 1e-12

static double dot3(const double *x, const double *y)
{
    return (x[0] * y[0] + x[2] * y[2]) + x[1] * y[1];
}

static double hit_sphere(const double *o, const double *d, const double *c, double r, double t_min)
{
    double oc[3] = {o[0] - c[0], o[1] - c[1], o[2] - c[2]};
    double b = dot3(oc, d);
    double cc = dot3(oc, oc) - r * r;
    double disc = b * b - cc;
    int ok = disc >= 0.0;
    double sq = sqrt(ok ? disc : 0.0);
    double t_near = -b - sq, t_far = -b + sq;
    double t = t_near > t_min ? t_near : t_far;
    return ok && t > t_min ? t : INFINITY;
}

static double hit_quad(const double *o, const double *d, const double *corner, const double *eu,
                       const double *ev, const double *nq, const double *gram, double t_min)
{
    double denom = dot3(d, nq);
    double w0[3] = {corner[0] - o[0], corner[1] - o[1], corner[2] - o[2]};
    double t = dot3(w0, nq) / denom;
    double w[3];
    for (int k = 0; k < 3; k++)
        w[k] = (o[k] + t * d[k]) - corner[k];
    double r1 = dot3(w, eu), r2 = dot3(w, ev);
    double alpha = gram[2] * r1 - gram[1] * r2;
    double beta = gram[0] * r2 - gram[1] * r1;
    int ok = fabs(denom) > DEGENERATE && t > t_min && alpha >= 0.0 && alpha <= 1.0 && beta >= 0.0
             && beta <= 1.0 && isfinite(t);
    return ok ? t : INFINITY;
}

static double hit_triangle(const double *o, const double *d, const double *pa, const double *e1,
                           const double *e2, double t_min)
{
    double px = d[1] * e2[2] - d[2] * e2[1];
    double py = d[2] * e2[0] - d[0] * e2[2];
    double pz = d[0] * e2[1] - d[1] * e2[0];
    double det = e1[0] * px + e1[1] * py + e1[2] * pz;
    double tx = o[0] - pa[0], ty = o[1] - pa[1], tz = o[2] - pa[2];
    double inv_det = 1.0 / det;
    double u = (tx * px + ty * py + tz * pz) * inv_det;
    double qx = ty * e1[2] - tz * e1[1];
    double qy = tz * e1[0] - tx * e1[2];
    double qz = tx * e1[1] - ty * e1[0];
    double v = (d[0] * qx + d[1] * qy + d[2] * qz) * inv_det;
    double t = (e2[0] * qx + e2[1] * qy + e2[2] * qz) * inv_det;
    int ok = fabs(det) > DEGENERATE && u >= 0.0 && v >= 0.0 && u + v <= 1.0 && t > t_min && isfinite(t);
    return ok ? t : INFINITY;
}

/* Does the ray enter the box [lo, hi] before best_t and leave it after t_min?
 * An axis whose direction component is zero constrains nothing while the
 * origin lies in the closed slab, on its bounding planes included. */
static int slab_hit(const double *o, const double *inv_d, const double *lo, const double *hi,
                    double t_min, double best_t)
{
    double tn = -INFINITY, tf = INFINITY;
    for (int k = 0; k < 3; k++) {
        double t0 = (lo[k] - o[k]) * inv_d[k];
        double t1 = (hi[k] - o[k]) * inv_d[k];
        if (isnan(t0) || isnan(t1))
            continue; /* 0 * inf: origin on a bounding plane, d[k] == 0 */
        double near = t0 < t1 ? t0 : t1, far = t0 < t1 ? t1 : t0;
        tn = near > tn ? near : tn;
        tf = far < tf ? far : tf;
    }
    return tn <= tf && tf > t_min && tn <= best_t;
}

int pf_bvh_nearest(const struct pf_bvh *g, const double *o, const double *d, double t_min, double *best_t,
                   ptrdiff_t *best_p)
{
    if (g->stack_size > STACK_MAX)
        return -1;
    double inv_d[3] = {1.0 / d[0], 1.0 / d[1], 1.0 / d[2]};
    double best = *best_t;
    ptrdiff_t best_prim = *best_p;
    ptrdiff_t stack[STACK_MAX];
    int sp = 0;
    stack[sp++] = 0;
    while (sp > 0) {
        ptrdiff_t node = stack[--sp];
        if (!slab_hit(o, inv_d, g->node_lo + 3 * node, g->node_hi + 3 * node, t_min, best))
            continue;
        if (g->node_count[node] == 0 && g->node_left[node] >= 0) {
            if (sp + 2 > g->stack_size)
                return -1;
            stack[sp++] = g->node_right[node];
            stack[sp++] = g->node_left[node];
            continue;
        }
        for (ptrdiff_t j = g->node_start[node]; j < g->node_start[node] + g->node_count[node]; j++) {
            ptrdiff_t p = g->perm[j];
            double t;
            if (g->kinds[p] == KIND_SPHERE)
                t = hit_sphere(o, d, g->pa + 3 * p, g->pb[3 * p], t_min);
            else if (g->kinds[p] == KIND_QUAD)
                t = hit_quad(o, d, g->pa + 3 * p, g->pb + 3 * p, g->pc + 3 * p, g->normals + 3 * p,
                             g->quad_gram + 3 * p, t_min);
            else
                t = hit_triangle(o, d, g->pa + 3 * p, g->tri_e1 + 3 * p, g->tri_e2 + 3 * p, t_min);
            if (t < best) {
                best = t;
                best_prim = p;
            }
        }
    }
    *best_t = best;
    *best_p = best_prim;
    return 0;
}

/* Nearest hit of each of n rays; best_t holds t_max on entry. Returns 0,
 * or -1 if stack_size exceeds STACK_MAX or the walk would need more than
 * stack_size slots (the outputs are then incomplete). */
int pf_intersect(ptrdiff_t n, const double *o, const double *d, double t_min, double *best_t,
                 ptrdiff_t *best_p, const struct pf_bvh *g)
{
    for (ptrdiff_t i = 0; i < n; i++)
        if (pf_bvh_nearest(g, o + 3 * i, d + 3 * i, t_min, best_t + i, best_p + i) != 0)
            return -1;
    return 0;
}
