/* The BVH nearest-hit walk that _bvh.c exports to the other kernels. */
#ifndef PHOTONFIELD_BVH_H
#define PHOTONFIELD_BVH_H

#include <stddef.h>

enum { KIND_SPHERE, KIND_QUAD, KIND_TRIANGLE };

/* The flat arrays of a Geometry: BVH nodes and perm, which pf_bvh_build
 * writes, then primitives; mirrored member for member by geometry.BvhTable. */
struct pf_bvh {
    double *node_lo, *node_hi;
    ptrdiff_t *node_right, *node_start, *node_count;
    ptrdiff_t stack_size;
    ptrdiff_t *perm;
    const unsigned char *kinds;
    const double *pa, *pb, *pc, *normals, *quad_gram, *tri_e1, *tri_e2;
};

/* Nearest hit of the ray (o, d) strictly nearer than *best_t, which holds
 * t_max on entry; on a hit, *best_t and *best_p are its t and primitive.
 * Returns 0, or -1 if the walk would overrun its stack. */
__attribute__((visibility("hidden"))) int pf_bvh_nearest(const struct pf_bvh *g, const double *o, const double *d,
                                                         double t_min, double *best_t, ptrdiff_t *best_p);

#endif
