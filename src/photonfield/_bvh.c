/* BVH build and nearest-hit traversal for photonfield.geometry.
 *
 * pf_bvh_build builds the tree into flat node arrays in pre-order: the left
 * child of an inner node is node + 1, the right one node_right, and a leaf
 * holds perm[node_start .. node_start + node_count). Each node is split
 * where the surface-area heuristic (MacDonald and Booth 1990), swept over
 * every position of the primitives sorted by centroid along each axis, is
 * cheapest, ties going to the lowest axis and then the lowest position, so
 * a build is a pure function of the primitive boxes. A node of at most
 * LEAF_SIZE primitives becomes a leaf when no split is cheaper than testing
 * them all, counting COST_NODE for the split. A node whose centroids all
 * coincide, or that has no depth to spare, is split at its median along
 * its widest centroid spread instead, so the tree is never deeper than
 * halving every node would make it.
 *
 * pf_bvh_nearest walks those arrays for one ray, with an explicit stack,
 * left child first; pf_intersect runs it over a batch of rays (for
 * Geometry.intersect, and intersect_linear's one-leaf tree) and _photons.c
 * along photon paths. Leaf primitives are tested in perm order and a hit
 * replaces the best one only if strictly nearer, so of equal-t hits the
 * first primitive in perm order wins, whatever the tree's shape.
 *
 * The leaf formulas and their operation order are those of the numpy scan
 * in tests/oracles.py; every three-term dot product is summed as
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
        if (g->node_count[node] == 0) { /* inner: its left child is node + 1 */
            if (sp + 2 > g->stack_size)
                return -1;
            stack[sp++] = g->node_right[node];
            stack[sp++] = node + 1;
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

/* ---- build ------------------------------------------------------------- */

#define LEAF_SIZE 8 /* geometry._LEAF_SIZE */
/* The SAH cost of a split, in primitive tests: the walk then tests both
 * children's boxes. At 1.0 caustic-sphere's 3 primitives split into 3
 * leaves and its photon pass ran about 10% slower (2-core x86-64, gcc 12
 * -O2), while caustic-pool's and cornell-box's ran no faster than at 2.5. */
#define COST_NODE 2.5

struct builder {
    const struct pf_bvh *g;   /* primitives in, nodes and perm out */
    double *lo, *hi, *cen;    /* primitive boxes and their centroids, n x 3 each */
    double *area;             /* sweep scratch: half areas of the right-hand boxes */
    ptrdiff_t *order[3];      /* primitive ids by (centroid, id) on each axis; a node owns one range of all three */
    ptrdiff_t *tmp, *is_left; /* sort and partition scratch, by position and by primitive id */
    int max_depth;
    ptrdiff_t nodes;
};

static double half_area(const double *l, const double *h)
{
    double dx = h[0] - l[0], dy = h[1] - l[1], dz = h[2] - l[2];
    return (dx * dy + dy * dz) + dz * dx;
}

static void grow(double *l, double *h, const double *pl, const double *ph)
{
    for (int k = 0; k < 3; k++) {
        l[k] = pl[k] < l[k] ? pl[k] : l[k];
        h[k] = ph[k] > h[k] ? ph[k] : h[k];
    }
}

/* The box of primitive p: a sphere's centre +- radius, a quad's four corners, a triangle's vertices. */
static void prim_box(const struct pf_bvh *g, ptrdiff_t p, double *l, double *h)
{
    const double *a = g->pa + 3 * p, *b = g->pb + 3 * p, *c = g->pc + 3 * p;
    for (int k = 0; k < 3; k++) {
        l[k] = g->kinds[p] == KIND_SPHERE ? a[k] - b[0] : INFINITY;
        h[k] = g->kinds[p] == KIND_SPHERE ? a[k] + b[0] : -INFINITY;
    }
    if (g->kinds[p] == KIND_QUAD) {
        double ab[3] = {a[0] + b[0], a[1] + b[1], a[2] + b[2]}, ac[3] = {a[0] + c[0], a[1] + c[1], a[2] + c[2]};
        double abc[3] = {ab[0] + c[0], ab[1] + c[1], ab[2] + c[2]};
        grow(l, h, a, a);
        grow(l, h, ab, ab);
        grow(l, h, ac, ac);
        grow(l, h, abc, abc);
    } else if (g->kinds[p] == KIND_TRIANGLE) {
        grow(l, h, a, a);
        grow(l, h, b, b);
        grow(l, h, c, c);
    }
}

/* Sort ids[0, m) by their centroids along axis, stably (a merge sort through b->tmp). */
static void sort_ids(const struct builder *b, int axis, ptrdiff_t *ids, ptrdiff_t m)
{
    if (m < 2)
        return;
    ptrdiff_t half = m / 2, i = 0, j = half, k = 0;
    sort_ids(b, axis, ids, half);
    sort_ids(b, axis, ids + half, m - half);
    while (i < half && j < m)
        b->tmp[k++] = b->cen[3 * ids[j] + axis] < b->cen[3 * ids[i] + axis] ? ids[j++] : ids[i++];
    while (i < half)
        b->tmp[k++] = ids[i++];
    for (i = 0; i < k; i++) /* ids[j, m) are in place */
        ids[i] = b->tmp[i];
}

/* Levels below a node of m primitives when every split halves it. */
static int median_levels(ptrdiff_t m)
{
    int levels = 0;
    for (; m > LEAF_SIZE; m -= m / 2)
        levels++;
    return levels;
}

/* The SAH's cheapest split of the node over positions [s, e): the first *k
 * primitives of order[*axis] go left. Returns its cost, in primitive tests
 * times the node's half area, or INFINITY (and *axis = -1) if every cost
 * overflows. Ties go to the lowest axis, then the lowest k. */
static double sah_split(const struct builder *b, ptrdiff_t s, ptrdiff_t e, int *axis, ptrdiff_t *k)
{
    ptrdiff_t m = e - s;
    double best = INFINITY;
    *axis = -1;
    for (int a = 0; a < 3; a++) {
        const ptrdiff_t *ord = b->order[a] + s;
        double l[3] = {INFINITY, INFINITY, INFINITY}, h[3] = {-INFINITY, -INFINITY, -INFINITY};
        for (ptrdiff_t j = m - 1; j > 0; j--) {
            grow(l, h, b->lo + 3 * ord[j], b->hi + 3 * ord[j]);
            b->area[j] = half_area(l, h);
        }
        double ll[3] = {INFINITY, INFINITY, INFINITY}, lh[3] = {-INFINITY, -INFINITY, -INFINITY};
        for (ptrdiff_t j = 1; j < m; j++) {
            grow(ll, lh, b->lo + 3 * ord[j - 1], b->hi + 3 * ord[j - 1]);
            double cost = half_area(ll, lh) * (double)j + b->area[j] * (double)(m - j);
            if (cost < best) {
                best = cost;
                *axis = a;
                *k = j;
            }
        }
    }
    return best;
}

/* Move the first k primitives of order[axis]'s range [s, e) to the front
 * of the other two orders' ranges, keeping each side's order. */
static void partition(const struct builder *b, ptrdiff_t s, ptrdiff_t e, int axis, ptrdiff_t k)
{
    for (ptrdiff_t j = s; j < e; j++)
        b->is_left[b->order[axis][j]] = j < s + k;
    for (int a = 0; a < 3; a++) {
        if (a == axis)
            continue;
        ptrdiff_t *ord = b->order[a], nl = s, nr = 0;
        for (ptrdiff_t j = s; j < e; j++) {
            if (b->is_left[ord[j]])
                ord[nl++] = ord[j];
            else
                b->tmp[nr++] = ord[j];
        }
        for (ptrdiff_t j = 0; j < nr; j++)
            ord[nl + j] = b->tmp[j];
    }
}

/* Append the subtree over positions [s, e) at the given depth, in pre-order;
 * returns the depth of its deepest leaf. */
static int build_node(struct builder *b, ptrdiff_t s, ptrdiff_t e, int depth)
{
    const struct pf_bvh *g = b->g;
    ptrdiff_t me = b->nodes++, m = e - s;
    double *l = g->node_lo + 3 * me, *h = g->node_hi + 3 * me;
    for (int k = 0; k < 3; k++) {
        l[k] = INFINITY;
        h[k] = -INFINITY;
    }
    for (ptrdiff_t j = s; j < e; j++)
        grow(l, h, b->lo + 3 * b->order[0][j], b->hi + 3 * b->order[0][j]);
    g->node_right[me] = -1;

    double spread[3];
    for (int a = 0; a < 3; a++)
        spread[a] = b->cen[3 * b->order[a][e - 1] + a] - b->cen[3 * b->order[a][s] + a];
    int axis = -1;
    ptrdiff_t k = 0;
    /* the SAH may split unevenly only while a median split below each child
     * still fits the depth budget, and only where centroids differ */
    if (depth + 1 + median_levels(m) <= b->max_depth && (spread[0] > 0.0 || spread[1] > 0.0 || spread[2] > 0.0)) {
        double area = half_area(l, h);
        double split = sah_split(b, s, e, &axis, &k) + COST_NODE * area;
        if (m <= LEAF_SIZE && !(split < (double)m * area))
            axis = -1;
    }
    if (axis < 0 && m > LEAF_SIZE) { /* the median along the widest centroid spread */
        axis = 0;
        for (int a = 1; a < 3; a++)
            if (spread[a] > spread[axis])
                axis = a;
        k = m / 2;
    }
    if (axis < 0) { /* a leaf: its primitives in id order */
        ptrdiff_t *leaf = g->perm + s;
        for (ptrdiff_t j = 0; j < m; j++) {
            ptrdiff_t p = b->order[0][s + j], i = j;
            for (; i > 0 && leaf[i - 1] > p; i--)
                leaf[i] = leaf[i - 1];
            leaf[i] = p;
        }
        g->node_start[me] = s;
        g->node_count[me] = m;
        return depth;
    }
    partition(b, s, e, axis, k);
    g->node_start[me] = 0;
    g->node_count[me] = 0;
    int left = build_node(b, s, s + k, depth + 1);
    g->node_right[me] = b->nodes;
    int right = build_node(b, s + k, e, depth + 1);
    return left > right ? left : right;
}

/* Build the BVH of g's n > 0 primitives into its node arrays (room for
 * 2n - 1 nodes) and perm, and write the node count into *nodes. fwork (10n)
 * and iwork (5n) are scratch. Returns the depth of the deepest leaf, which
 * stays within max_depth whenever halving every node would. */
int pf_bvh_build(const struct pf_bvh *g, ptrdiff_t n, int max_depth, double *fwork, ptrdiff_t *iwork, ptrdiff_t *nodes)
{
    struct builder b = {g, fwork, fwork + 3 * n, fwork + 6 * n, fwork + 9 * n, {iwork, iwork + n, iwork + 2 * n},
                        iwork + 3 * n, iwork + 4 * n, max_depth, 0};
    for (ptrdiff_t p = 0; p < n; p++) {
        prim_box(g, p, b.lo + 3 * p, b.hi + 3 * p);
        for (int k = 0; k < 3; k++)
            b.cen[3 * p + k] = 0.5 * (b.lo[3 * p + k] + b.hi[3 * p + k]);
    }
    for (int a = 0; a < 3; a++) {
        for (ptrdiff_t p = 0; p < n; p++)
            b.order[a][p] = p;
        sort_ids(&b, a, b.order[a], n);
    }
    int depth = build_node(&b, 0, n, 0);
    *nodes = b.nodes;
    return depth;
}
