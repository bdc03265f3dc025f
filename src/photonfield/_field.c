/* Forward and backward passes of photonfield.field.GaussianField, and
 * the Adam step of photonfield.training.train.
 *
 * A batch is B query rows over CSR neighbourhoods: row b owns the
 * primitives flat[splits[b] .. splits[b+1]), one neighbour row each. A
 * forward runs in three steps, with numpy's exp between two C passes,
 * because libm's exp does not give numpy's bits:
 *
 *   pf_field_terms  per neighbour row: d = x - mean, R^T d, u = R^T d / s,
 *                   u.u and |d|, and from them the exponents of the
 *                   Gaussian factor (-0.5 u.u) and of the falloff (-3 t^2);
 *   np.exp          of those exponents, in place;
 *   pf_field_sum    per query row, the weight sum of w = w_gauss * psi and
 *                   L = sum w flux / max(sum w, eps).
 *
 * pf_field_backward then adds every parameter gradient of J = sum dl . L
 * into its primitive's row. Every sum starts from +0.0 and adds in flat
 * order, as numpy's bincount does, so each result equals the numpy
 * passes' (tests/oracles.py) bit for bit. pf_adam_step takes one Adam
 * step on the parameters in place, in the numpy optimizer's operation
 * order. R is the polynomial form of the quaternion's rotation matrix,
 * without renormalizing. An einsum over three terms sums as
 * 0.0 + ((p0 + p2) + p1) when the reduced axis is contiguous, and as
 * ((0.0 + p0) + p1) + p2 when it is the matrix row (R^T d). Build with
 * -ffp-contract=off: a fused multiply-add would move bits.
 *
 * Python checks every index before calling; no state is static, so
 * threads may run passes at once.
 */
#include <math.h>
#include <stddef.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

#define FALLOFF_SHARPNESS 3.0 /* psi = exp(-3 t^2) beyond the radius (field.py) */

/* The field's parameters, n rows each; geometry.FieldTable mirrors it. */
struct pf_field {
    ptrdiff_t n;
    const double *means, *quats, *scales, *flux; /* 3, 4, 3 and 3 columns; scales = exp(log_scales) */
    double radius, eps;
};

/* Query rows over CSR neighbourhoods, and what the passes write for
 * them; geometry.BatchTable mirrors it. */
struct pf_batch {
    ptrdiff_t rows;                 /* B */
    const double *xs;               /* B x 3 */
    const ptrdiff_t *splits, *flat; /* B + 1 and K entries */
    double *expo;                   /* 2K: Gaussian, then falloff exponents; exponentiated in place between the passes */
    double *s_tot, *L;              /* B and B x 3 */
};

/* np.maximum: a NaN in a passes through. */
static double maximum(double a, double b)
{
    return (a >= b || a != a) ? a : b;
}

static double r_eff(const struct pf_field *f)
{
    return f->radius < 1e-6 ? 1e-6 : f->radius;
}

/* einsum over a contiguous axis of three: 0.0 + ((x0*y0 + x2*y2) + x1*y1). */
static double dot3(const double *x, const double *y)
{
    return 0.0 + ((x[0] * y[0] + x[2] * y[2]) + x[1] * y[1]);
}

/* The rotation matrix of unit quaternion q = (w, x, y, z), row-major. */
static void rotation(const double *q, double r[9])
{
    double w = q[0], x = q[1], y = q[2], z = q[3];
    r[0] = 1.0 - 2.0 * (y * y + z * z);
    r[1] = 2.0 * (x * y - w * z);
    r[2] = 2.0 * (x * z + w * y);
    r[3] = 2.0 * (x * y + w * z);
    r[4] = 1.0 - 2.0 * (x * x + z * z);
    r[5] = 2.0 * (y * z - w * x);
    r[6] = 2.0 * (x * z - w * y);
    r[7] = 2.0 * (y * z + w * x);
    r[8] = 1.0 - 2.0 * (x * x + y * y);
}

/* d = x - mean, R, u = (R^T d) / s of primitive i at x; returns |d|. */
static double neighbour(const struct pf_field *f, const double *x, ptrdiff_t i, double d[3], double r[9], double u[3])
{
    const double *m = f->means + 3 * i, *s = f->scales + 3 * i;
    for (int c = 0; c < 3; c++)
        d[c] = x[c] - m[c];
    rotation(f->quats + 4 * i, r);
    for (int j = 0; j < 3; j++)
        u[j] = (((0.0 + r[j] * d[0]) + r[3 + j] * d[1]) + r[6 + j] * d[2]) / s[j];
    return sqrt(dot3(d, d));
}

/* The radius-relative excess distance t of the falloff. */
static double excess(const struct pf_field *f, double dist)
{
    return maximum(dist - f->radius, 0.0) / r_eff(f);
}

/* The exponents of w_gauss and psi for every neighbour row. Inside the
 * radius the falloff exponent is 0.0, whose exp is psi's 1.0 there. */
void pf_field_terms(const struct pf_field *f, const struct pf_batch *bt)
{
    ptrdiff_t k_all = bt->splits[bt->rows];
    for (ptrdiff_t b = 0; b < bt->rows; b++) {
        for (ptrdiff_t k = bt->splits[b]; k < bt->splits[b + 1]; k++) {
            double d[3], r[9], u[3];
            double dist = neighbour(f, bt->xs + 3 * b, bt->flat[k], d, r, u);
            double t = excess(f, dist);
            bt->expo[k] = -0.5 * dot3(u, u);
            bt->expo[k_all + k] = dist <= f->radius ? 0.0 : -FALLOFF_SHARPNESS * t * t;
        }
    }
}

/* Per query row, the weight sum and L = sum w flux / max(sum w, eps), with
 * w = w_gauss * psi from the exponentiated expo. */
void pf_field_sum(const struct pf_field *f, const struct pf_batch *bt)
{
    ptrdiff_t k_all = bt->splits[bt->rows];
    for (ptrdiff_t b = 0; b < bt->rows; b++) {
        double s_tot = 0.0, num[3] = {0.0, 0.0, 0.0};
        for (ptrdiff_t k = bt->splits[b]; k < bt->splits[b + 1]; k++) {
            const double *phi = f->flux + 3 * bt->flat[k];
            double w = bt->expo[k] * bt->expo[k_all + k];
            s_tot += w;
            for (int c = 0; c < 3; c++)
                num[c] += w * phi[c];
        }
        double z = maximum(s_tot, f->eps);
        bt->s_tot[b] = s_tot;
        for (int c = 0; c < 3; c++)
            bt->L[3 * b + c] = num[c] / z;
    }
}

/* Row m is (dR/dq_m)^T d: each entry sums its three products left to
 * right from +0.0, zero ones included, as the einsum over the jacobian
 * dR/dq does. */
static void jacobian_tdot(const double *q, const double *d, double a[12])
{
    double w2 = 2.0 * q[0], x2 = 2.0 * q[1], y2 = 2.0 * q[2], z2 = 2.0 * q[3];
    double x4 = 4.0 * q[1], y4 = 4.0 * q[2], z4 = 4.0 * q[3];
    double o0 = 0.0 * d[0], o1 = 0.0 * d[1], o2 = 0.0 * d[2];
    a[0] = 0.0 + o0 + z2 * d[1] - y2 * d[2];
    a[1] = 0.0 - z2 * d[0] + o1 + x2 * d[2];
    a[2] = 0.0 + y2 * d[0] - x2 * d[1] + o2;
    a[3] = 0.0 + o0 + y2 * d[1] + z2 * d[2];
    a[4] = 0.0 + y2 * d[0] - x4 * d[1] + w2 * d[2];
    a[5] = 0.0 + z2 * d[0] - w2 * d[1] - x4 * d[2];
    a[6] = 0.0 - y4 * d[0] + x2 * d[1] - w2 * d[2];
    a[7] = 0.0 + x2 * d[0] + o1 + z2 * d[2];
    a[8] = 0.0 + w2 * d[0] + z2 * d[1] - y4 * d[2];
    a[9] = 0.0 - z4 * d[0] + w2 * d[1] + x2 * d[2];
    a[10] = 0.0 - w2 * d[0] - z4 * d[1] + y2 * d[2];
    a[11] = 0.0 + x2 * d[0] + y2 * d[1] + o2;
}

/* Zero g_mean, g_quat, g_log_scale and g_flux (n x 3, 4, 3 and 3), then
 * add each neighbour row's gradient of J = sum_b dl_b . L_b into its
 * primitive's row of them, from a pf_field_sum'd batch. It recomputes
 * each row's d, R and u rather than storing them: a fresh array per pass
 * costs more in page faults than the arithmetic. */
void pf_field_backward(const struct pf_field *f, const struct pf_batch *bt, const double *dl, double *g_mean,
                       double *g_quat, double *g_log_scale, double *g_flux)
{
    ptrdiff_t k_all = bt->splits[bt->rows];
    memset(g_mean, 0, 3 * f->n * sizeof(double));
    memset(g_quat, 0, 4 * f->n * sizeof(double));
    memset(g_log_scale, 0, 3 * f->n * sizeof(double));
    memset(g_flux, 0, 3 * f->n * sizeof(double));
    for (ptrdiff_t b = 0; b < bt->rows; b++) {
        const double *dlb = dl + 3 * b;
        double s_tot = bt->s_tot[b];
        double z = maximum(s_tot, f->eps);
        double ind = s_tot > f->eps ? 1.0 : 0.0;
        double dl_L = dot3(dlb, bt->L + 3 * b);
        for (ptrdiff_t k = bt->splits[b]; k < bt->splits[b + 1]; k++) {
            ptrdiff_t i = bt->flat[k];
            double d[3], r[9], u[3], v[3], a[12];
            double dist = neighbour(f, bt->xs + 3 * b, i, d, r, u);
            for (int j = 0; j < 3; j++)
                v[j] = u[j] / f->scales[3 * i + j];
            double w = bt->expo[k] * bt->expo[k_all + k];
            double g_w = (dot3(dlb, f->flux + 3 * i) - ind * dl_L) / z;
            double wz = w / z, gw_w = g_w * w;
            double radial = dist > f->radius ? 2.0 * FALLOFF_SHARPNESS * excess(f, dist) / r_eff(f) : 0.0;
            jacobian_tdot(f->quats + 4 * i, d, a);
            for (int c = 0; c < 3; c++) {
                double d_hat = dist > 0.0 ? d[c] / dist : 0.0;
                g_mean[3 * i + c] += gw_w * (dot3(r + 3 * c, v) + radial * d_hat);
                g_log_scale[3 * i + c] += gw_w * (u[c] * u[c]);
                g_flux[3 * i + c] += wz * dlb[c];
            }
            for (int m = 0; m < 4; m++)
                g_quat[4 * i + m] += -gw_w * dot3(a + 3 * m, v);
        }
    }
}

/* One Adam step's state over a field's parameter blocks;
 * geometry.AdamTable mirrors it. */
struct pf_adam {
    ptrdiff_t n;
    double *means, *quats, *log_scales, *flux;            /* n x 3, 4, 3 and 3; updated in place */
    const double *g_mean, *g_quat, *g_log_scale, *g_flux; /* their gradients */
    double *m, *v;                                        /* 13n each: the four blocks' moments, in that order */
    double lr, beta1, beta2, eps;
    double log_scale_min, log_scale_max; /* np.log of SCALE_MIN and SCALE_MAX (libm's log differs) */
};

/* Adam on count elements: the moments of gradient g, and p -= s with
 * s = (lr * (m / c1)) / (sqrt(v / c2) + eps), each as numpy evaluates it.
 * Returns whether any s is not 0 (a NaN counts). SSE2 takes two elements
 * at a time; its packed division and square root are correctly rounded,
 * as the scalar ones are. It skips a pair whose m, v and g are all +0.0:
 * with lr, eps, c1 and c2 positive, as TrainConfig ensures, their step is
 * an exact no-op (m and v stay +0.0 and s is +0.0), so a primitive no
 * batch has reached yet costs no division. */
static int adam(const struct pf_adam *a, double c1, double c2, ptrdiff_t count, double *p, const double *g, double *m,
                double *v)
{
    double b1 = a->beta1, b2 = a->beta2, ob1 = 1.0 - b1, ob2 = 1.0 - b2, lr = a->lr, eps = a->eps;
    int moved = 0;
    ptrdiff_t i = 0;
#ifdef __SSE2__
    __m128d any = _mm_setzero_pd();
    for (; i + 2 <= count; i += 2) {
        __m128d gi = _mm_loadu_pd(g + i);
        __m128i bits = _mm_castpd_si128(_mm_or_pd(_mm_or_pd(gi, _mm_loadu_pd(m + i)), _mm_loadu_pd(v + i)));
        if (_mm_movemask_epi8(_mm_cmpeq_epi32(bits, _mm_setzero_si128())) == 0xFFFF)
            continue;
        __m128d mi = _mm_add_pd(_mm_mul_pd(_mm_set1_pd(b1), _mm_loadu_pd(m + i)), _mm_mul_pd(_mm_set1_pd(ob1), gi));
        __m128d vi = _mm_add_pd(_mm_mul_pd(_mm_set1_pd(b2), _mm_loadu_pd(v + i)),
                                _mm_mul_pd(_mm_mul_pd(_mm_set1_pd(ob2), gi), gi));
        __m128d num = _mm_mul_pd(_mm_set1_pd(lr), _mm_div_pd(mi, _mm_set1_pd(c1)));
        __m128d s = _mm_div_pd(num, _mm_add_pd(_mm_sqrt_pd(_mm_div_pd(vi, _mm_set1_pd(c2))), _mm_set1_pd(eps)));
        _mm_storeu_pd(m + i, mi);
        _mm_storeu_pd(v + i, vi);
        _mm_storeu_pd(p + i, _mm_sub_pd(_mm_loadu_pd(p + i), s));
        any = _mm_or_pd(any, _mm_cmpneq_pd(s, _mm_setzero_pd()));
    }
    moved = _mm_movemask_pd(any) != 0;
#endif
    for (; i < count; i++) {
        double mi = b1 * m[i] + ob1 * g[i];
        double vi = b2 * v[i] + (ob2 * g[i]) * g[i];
        double s = (lr * (mi / c1)) / (sqrt(vi / c2) + eps);
        m[i] = mi;
        v[i] = vi;
        p[i] -= s;
        moved |= s != 0.0;
    }
    return moved;
}

/* One Adam step on every parameter, with c1 = 1 - beta1^t and
 * c2 = 1 - beta2^t. A quaternion row is renormalized only if its step
 * moved it, so untouched rows keep their bits; the norm sums its squares
 * left to right, as np.linalg.norm does. Log-scales are then clamped to
 * [log_scale_min, log_scale_max], a NaN passing through as in np.clip. */
void pf_adam_step(const struct pf_adam *a, double c1, double c2)
{
    ptrdiff_t n = a->n;
    adam(a, c1, c2, 3 * n, a->means, a->g_mean, a->m, a->v);
    for (ptrdiff_t i = 0; i < n; i++) {
        double *q = a->quats + 4 * i;
        if (adam(a, c1, c2, 4, q, a->g_quat + 4 * i, a->m + 3 * n + 4 * i, a->v + 3 * n + 4 * i)) {
            double norm = sqrt(((q[0] * q[0] + q[1] * q[1]) + q[2] * q[2]) + q[3] * q[3]);
            for (int c = 0; c < 4; c++)
                q[c] /= norm;
        }
    }
    double *ls = a->log_scales;
    adam(a, c1, c2, 3 * n, ls, a->g_log_scale, a->m + 7 * n, a->v + 7 * n);
    for (ptrdiff_t i = 0; i < 3 * n; i++) {
        if (ls[i] < a->log_scale_min)
            ls[i] = a->log_scale_min;
        else if (ls[i] > a->log_scale_max)
            ls[i] = a->log_scale_max;
    }
    adam(a, c1, c2, 3 * n, a->flux, a->g_flux, a->m + 10 * n, a->v + 10 * n);
}
