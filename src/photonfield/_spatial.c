/* Exact neighbour queries for photonfield.spatial.
 *
 * The index is an implicit kd-tree: a complete binary tree of the given
 * depth, node i with children 2i+1 and 2i+2, built by splitting each
 * node's points at their median along the longest axis of the node's
 * bounding box. Every node stores the tight box of its points, and leaf
 * j holds the points perm[leaf_start[j] .. leaf_start[j+1]). Points are
 * also kept in that order (tpts) so a leaf scan reads memory in order.
 *
 * A query computes each distance as sqrt((d0*d0 + d2*d2) + d1*d1) with
 * d = p - x, which rounds exactly like numpy's
 * sqrt(einsum("ij,ij->i", d, d)). The lower bound on the distance to a
 * box is the same formula over the per-axis gaps; every rounded step is
 * monotone, so no point in a box is nearer than its computed bound, and
 * pruning a box whose bound exceeds the cut-off loses nothing. Build with
 * -ffp-contract=off: a fused multiply-add rounds differently.
 *
 * Results are ordered by (distance, id), which makes every row unique
 * whatever the tree's shape. Since pf_ball and pf_knn round distances
 * with the same dist3, a ball row of b < k ids is exactly the first b
 * ids of the same point's k-nearest row: every id outside the ball lies
 * at a distance > r. So the hybrid query (ball, topped up to k from the
 * k nearest) needs no kernel of its own: spatial.py takes the kNN row
 * for each short ball row.
 */
#include <math.h>
#include <stddef.h>

#define STACK_MAX 64 /* a depth-D tree needs D + 1 slots; D < 63 for any n */
#define INSERTION_MAX 16 /* rows up to this long are insertion-sorted, longer ones heap-sorted */

/* A tree of the given depth, whose arrays pf_kd_build fills; geometry.KdTreeTable mirrors it. */
struct pf_kdtree {
    int depth;
    ptrdiff_t *perm, *leaf_start; /* n and 2^depth + 1 entries */
    double *tpts, *lo, *hi;       /* n, 2^(depth+1) - 1 and 2^(depth+1) - 1 rows */
};

static double dist3(const double *p, const double *x)
{
    double d0 = p[0] - x[0], d1 = p[1] - x[1], d2 = p[2] - x[2];
    return sqrt((d0 * d0 + d2 * d2) + d1 * d1);
}

static double box_dist(const double *x, const double *lo, const double *hi)
{
    double g[3];
    for (int k = 0; k < 3; k++)
        g[k] = x[k] < lo[k] ? lo[k] - x[k] : x[k] > hi[k] ? x[k] - hi[k] : 0.0;
    return sqrt((g[0] * g[0] + g[2] * g[2]) + g[1] * g[1]);
}

static int pair_less(double da, ptrdiff_t ia, double db, ptrdiff_t ib)
{
    return da < db || (da == db && ia < ib);
}

static void swap_pair(ptrdiff_t *ids, double *ds, ptrdiff_t a, ptrdiff_t b)
{
    ptrdiff_t i = ids[a];
    double d = ds[a];
    ids[a] = ids[b];
    ds[a] = ds[b];
    ids[b] = i;
    ds[b] = d;
}

/* Restore the max-heap order of ids/ds[0 .. len) below slot i. */
static void sift_down(ptrdiff_t *ids, double *ds, ptrdiff_t i, ptrdiff_t len)
{
    for (;;) {
        ptrdiff_t c = 2 * i + 1;
        if (c >= len)
            return;
        if (c + 1 < len && pair_less(ds[c], ids[c], ds[c + 1], ids[c + 1]))
            c++;
        if (!pair_less(ds[i], ids[i], ds[c], ids[c]))
            return;
        swap_pair(ids, ds, i, c);
        i = c;
    }
}

static void sift_up(ptrdiff_t *ids, double *ds, ptrdiff_t i)
{
    while (i > 0 && pair_less(ds[(i - 1) / 2], ids[(i - 1) / 2], ds[i], ids[i])) {
        swap_pair(ids, ds, i, (i - 1) / 2);
        i = (i - 1) / 2;
    }
}

/* Sort a max-heap of len pairs into ascending (distance, id) order. */
static void unheap(ptrdiff_t *ids, double *ds, ptrdiff_t len)
{
    for (ptrdiff_t end = len - 1; end > 0; end--) {
        swap_pair(ids, ds, 0, end);
        sift_down(ids, ds, 0, end);
    }
}

static void sort_pairs(ptrdiff_t *ids, double *ds, ptrdiff_t len)
{
    if (len <= INSERTION_MAX) {
        for (ptrdiff_t i = 1; i < len; i++)
            for (ptrdiff_t j = i; j > 0 && pair_less(ds[j], ids[j], ds[j - 1], ids[j - 1]); j--)
                swap_pair(ids, ds, j, j - 1);
        return;
    }
    for (ptrdiff_t i = len / 2 - 1; i >= 0; i--)
        sift_down(ids, ds, i, len);
    unheap(ids, ds, len);
}

static void swap_slot(double *tpts, ptrdiff_t *perm, ptrdiff_t a, ptrdiff_t b)
{
    ptrdiff_t t = perm[a];
    perm[a] = perm[b];
    perm[b] = t;
    for (int k = 0; k < 3; k++) {
        double v = tpts[3 * a + k];
        tpts[3 * a + k] = tpts[3 * b + k];
        tpts[3 * b + k] = v;
    }
}

/* Quickselect (Hoare): reorder slots s .. e so slot mid holds the point
 * of rank mid - s by (coordinate on axis, point id), a strict total
 * order, with smaller points before it and larger after. */
static void select_rank(double *tpts, ptrdiff_t *perm, int axis, ptrdiff_t s, ptrdiff_t e, ptrdiff_t mid)
{
    ptrdiff_t lo = s, hi = e - 1;
    while (hi > lo) {
        ptrdiff_t c = lo + (hi - lo) / 2;
        double pv = tpts[3 * c + axis];
        ptrdiff_t pid = perm[c], i = lo, j = hi;
        while (i <= j) {
            while (pair_less(tpts[3 * i + axis], perm[i], pv, pid))
                i++;
            while (pair_less(pv, pid, tpts[3 * j + axis], perm[j]))
                j--;
            if (i <= j)
                swap_slot(tpts, perm, i++, j--);
        }
        if (mid <= j)
            hi = j;
        else if (mid >= i)
            lo = i;
        else
            return;
    }
}

static void build(const struct pf_kdtree *t, ptrdiff_t node, int level, ptrdiff_t s, ptrdiff_t e)
{
    double *l = t->lo + 3 * node, *h = t->hi + 3 * node;
    for (int k = 0; k < 3; k++) {
        l[k] = INFINITY;
        h[k] = -INFINITY;
    }
    for (ptrdiff_t j = s; j < e; j++)
        for (int k = 0; k < 3; k++) {
            double v = t->tpts[3 * j + k];
            l[k] = v < l[k] ? v : l[k];
            h[k] = v > h[k] ? v : h[k];
        }
    if (level == t->depth) {
        t->leaf_start[node - (((ptrdiff_t)1 << t->depth) - 1)] = s;
        return;
    }
    int axis = 0;
    for (int k = 1; k < 3; k++)
        if (h[k] - l[k] > h[axis] - l[axis])
            axis = k;
    ptrdiff_t mid = s + (e - s) / 2;
    select_rank(t->tpts, t->perm, axis, s, e, mid);
    build(t, 2 * node + 1, level + 1, s, mid);
    build(t, 2 * node + 2, level + 1, mid, e);
}

/* Build the tree of n > 0 points: fill every array of t from its depth. */
void pf_kd_build(ptrdiff_t n, const double *pts, const struct pf_kdtree *t)
{
    for (ptrdiff_t j = 0; j < n; j++) {
        t->perm[j] = j;
        for (int k = 0; k < 3; k++)
            t->tpts[3 * j + k] = pts[3 * j + k];
    }
    build(t, 0, 0, 0, n);
    t->leaf_start[(ptrdiff_t)1 << t->depth] = n;
}

/* Ball query of rows row .. m of xs: every id with distance <= r, each row
 * sorted by (distance, id), written from ids/ds[splits[row]] on and ending
 * at splits[i + 1]. Stops before a row that would take more than cap
 * entries in all and returns its index; returns m when done. */
ptrdiff_t pf_ball(const struct pf_kdtree *t, ptrdiff_t m, const double *xs, double r, ptrdiff_t row, ptrdiff_t cap,
                  ptrdiff_t *ids, double *ds, ptrdiff_t *splits)
{
    ptrdiff_t first_leaf = ((ptrdiff_t)1 << t->depth) - 1;
    for (; row < m; row++) {
        const double *x = xs + 3 * row;
        ptrdiff_t start = splits[row], cnt = start;
        ptrdiff_t stack[STACK_MAX];
        int sp = 0;
        stack[sp++] = 0;
        while (sp > 0) {
            ptrdiff_t node = stack[--sp];
            if (box_dist(x, t->lo + 3 * node, t->hi + 3 * node) > r)
                continue;
            if (node < first_leaf) {
                stack[sp++] = 2 * node + 2;
                stack[sp++] = 2 * node + 1;
                continue;
            }
            for (ptrdiff_t j = t->leaf_start[node - first_leaf]; j < t->leaf_start[node - first_leaf + 1]; j++) {
                double d = dist3(t->tpts + 3 * j, x);
                if (d <= r) {
                    if (cnt == cap)
                        return row;
                    ids[cnt] = t->perm[j];
                    ds[cnt++] = d;
                }
            }
        }
        sort_pairs(ids + start, ds + start, cnt - start);
        splits[row + 1] = cnt;
    }
    return m;
}

/* The k nearest ids of each of m rows of xs, 0 < k <= n, sorted by
 * (distance, id) into ids/ds[i * k .. (i + 1) * k). */
void pf_knn(const struct pf_kdtree *t, ptrdiff_t m, const double *xs, ptrdiff_t k, ptrdiff_t *ids, double *ds)
{
    ptrdiff_t first_leaf = ((ptrdiff_t)1 << t->depth) - 1;
    for (ptrdiff_t row = 0; row < m; row++) {
        const double *x = xs + 3 * row;
        ptrdiff_t *hid = ids + row * k, size = 0; /* a max-heap of the best so far */
        double *hd = ds + row * k;
        struct { ptrdiff_t node; double bound; } stack[STACK_MAX];
        int sp = 0;
        stack[sp].node = 0;
        stack[sp++].bound = box_dist(x, t->lo, t->hi);
        while (sp > 0) {
            ptrdiff_t node = stack[--sp].node;
            /* a box at exactly the k-th distance may still hold a lower id */
            if (size == k && stack[sp].bound > hd[0])
                continue;
            if (node < first_leaf) {
                ptrdiff_t a = 2 * node + 1, b = 2 * node + 2;
                double da = box_dist(x, t->lo + 3 * a, t->hi + 3 * a), db = box_dist(x, t->lo + 3 * b, t->hi + 3 * b);
                if (da > db) { /* a is the nearer child, popped first */
                    ptrdiff_t c = a;
                    double dc = da;
                    a = b, da = db;
                    b = c, db = dc;
                }
                stack[sp].node = b;
                stack[sp++].bound = db;
                stack[sp].node = a;
                stack[sp++].bound = da;
                continue;
            }
            for (ptrdiff_t j = t->leaf_start[node - first_leaf]; j < t->leaf_start[node - first_leaf + 1]; j++) {
                double d = dist3(t->tpts + 3 * j, x);
                if (size < k) {
                    hid[size] = t->perm[j];
                    hd[size] = d;
                    sift_up(hid, hd, size++);
                } else if (pair_less(d, t->perm[j], hd[0], hid[0])) {
                    hid[0] = t->perm[j];
                    hd[0] = d;
                    sift_down(hid, hd, 0, k);
                }
            }
        }
        unheap(hid, hd, k);
    }
}
