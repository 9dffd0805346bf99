/* Elementwise loops of the grid kernel and the steppers.

   Each loop makes, value by value, the IEEE operations of the NumPy passes
   it stands for, on the same operands and in the same order, so every value
   has the bits those passes gave: the build forbids contraction into fused
   multiply-adds (-ffp-contract=off) and uses no fast-math.  The one
   reduction here, the source's sum in `rhs`, runs in the order of NumPy's
   pairwise sum; no other loop reassociates a sum.  The powers and the other
   reductions stay NumPy calls in the callers (`grid._Kernel`, `solver`).
   Where GCC or Clang can dispatch on the host (x86-64 Linux with glibc),
   each entry point is cloned for x86-64-v4, x86-64-v3 and the baseline;
   every clone makes the same operations, only wider.  LOOPS_NO_CLONES
   builds the baseline alone.

   The face workspace (`grid._Faces`) is described once per grid by a
   `faces` struct.  Per axis of flat stride s, with n cells: face entry j
   (s <= j < n) lies between cells j - s and j, so cell c's faces are
   entries c and c + s; entries below s and from n on are outer-boundary
   faces and stay +0.0.  Where `wrap` is nonzero, the entries at its
   multiples straddle a row end: they are outer-boundary faces too, and
   every loop that writes a face array writes +0.0 there. */

#include <math.h>
#include <stddef.h>

#ifndef __has_attribute
#define __has_attribute(x) 0
#endif

#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBC__) && \
    !defined(LOOPS_NO_CLONES) && __has_attribute(target_clones)
#define CLONED __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define CLONED
#endif

/* inlined into each caller, whose constant arguments then drop the unused
   branches from its loops */
#define INLINE static inline __attribute__((always_inline))

typedef struct {
    long s, wrap;      /* flat stride; row length on a row-end axis, else 0 */
    double rel;        /* (h_0 / h)^2 against the first axis' spacing */
    double *g, *f;     /* n + s face entries: differences; fluxes */
} axis_t;

typedef struct {
    long n, naxes;
    double scale;      /* 0.5 / h_0^2 */
    double vol, omega; /* the cell volume and the domain's */
    double *x, *mag2;
    axis_t axis[2];
} faces_t;

static void zero_row_ends(const axis_t *a, long n, double *face)
{
    if (a->wrap)
        for (long j = a->wrap; j < n; j += a->wrap)
            face[j] = 0.0;
}

/* One pass over the cells for axis k: the cell terms into out, the first
   axis writing out, a later one weighted by its rel and added to out, and
   the last one scaling the sum.  The term of cell c is, from the face
   differences g, g[c]^2 + g[c + s]^2, the sum of its faces' squares, or,
   with flux, from the face fluxes f[c + s] - f[c], its right less its left
   flux.  A product by 1.0 returns its operand's bits, so a weight of 1 and
   an axis that is not the last multiply by 1.0 where the NumPy passes
   skipped the product.  With a, the same pass adds the source less its
   mean, copysign(a, x) - m, to out (`rhs`).  No two of the arrays overlap
   (`grid._Kernel` checks a caller's output), and `restrict` says so to the
   compiler, which would otherwise test each pair before it vectorizes. */
INLINE void cell_pass(const faces_t *F, long k, int flux, double *restrict out,
                      const double *restrict a, double m)
{
    const long n = F->n, s = F->axis[k].s;
    const double *restrict g = F->axis[k].g, *restrict f = F->axis[k].f, *restrict x = F->x;
    const double rel = F->axis[k].rel, scale = k == F->naxes - 1 ? F->scale : 1.0;
#define TERM (flux ? f[c + s] - f[c] : g[c] * g[c] + g[c + s] * g[c + s])
#define STORE(v) (out[c] = a ? (v) + (copysign(a[c], x[c]) - m) : (v))
    if (!k)
        for (long c = 0; c < n; c++)
            STORE(TERM * scale);
    else
        for (long c = 0; c < n; c++)
            STORE((out[c] + TERM * rel) * scale);
#undef STORE
#undef TERM
}

/* |grad u|^2 into mag2 from the state x: per axis the raw differences
   g = x[j] - x[j - s], each cell's sum of their squares over its two faces,
   summed across the axes and scaled once.  With q, also q = mag2 + d2;
   with au, also |x|.  Those two run as passes of their own: written in the
   last axis' cell pass, next to its sum, they took longer. */
CLONED void grad2(const faces_t *F, double d2, double *q, double *au)
{
    const long n = F->n;
    const double *x = F->x;
    for (long k = 0; k < F->naxes; k++) {
        const axis_t *a = &F->axis[k];
        const long s = a->s;
        double *g = a->g;
        for (long j = s; j < n; j++)
            g[j] = x[j] - x[j - s];
        zero_row_ends(a, n, g);
        cell_pass(F, k, 0, F->mag2, NULL, 0.0);
    }
    if (q)
        for (long c = 0; c < n; c++)
            q[c] = F->mag2[c] + d2;
    if (au)
        for (long c = 0; c < n; c++)
            au[c] = fabs(x[c]);
}

/* The sum of copysign(a, x) over n cells in the order of NumPy's pairwise
   sum, whose bits `np.sum` gave on the NumPy this is tested against: under
   8 terms one by one; up to 128 the first 8 terms start 8 accumulators,
   each later block of 8 adds into them, their sum is formed in pairs and
   the remaining terms are added one by one; above 128 the sums of the two
   parts, split at n / 2 rounded down to a multiple of 8. */
static double signed_sum(const double *a, const double *x, long n)
{
    if (n < 8) {
        double res = 0.0;
        for (long i = 0; i < n; i++)
            res += copysign(a[i], x[i]);
        return res;
    }
    if (n <= 128) {
        double r[8];
        long i;
        for (int k = 0; k < 8; k++)
            r[k] = copysign(a[k], x[k]);
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += copysign(a[i + k], x[i + k]);
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += copysign(a[i], x[i]);
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return signed_sum(a, x, n2) + signed_sum(a + n2, x + n2, n - n2);
}

/* The right-hand side into out, from the weights w and the differences g
   that `grad2` left: per axis the face fluxes f = (w_L + w_R) g, each
   cell's right less left flux, summed across the axes in out and scaled
   once.  With a, the source sign(u) a = copysign(a, x) less its mean
   m = vol sum / omega, its sum 0.0 + `signed_sum` as `np.sum` forms it, is
   added in the last axis' pass; m is returned, 0.0 without a. */
CLONED double rhs(const faces_t *F, const double *w, const double *a, double *out)
{
    const long n = F->n, last = F->naxes - 1;
    const double m = a ? F->vol * (0.0 + signed_sum(a, F->x, n)) / F->omega : 0.0;
    for (long k = 0; k <= last; k++) {
        const axis_t *ax = &F->axis[k];
        const long s = ax->s;
        const double *g = ax->g;
        double *f = ax->f;
        for (long j = s; j < n; j++)
            f[j] = (w[j - s] + w[j]) * g[j];
        zero_row_ends(ax, n, f);
        if (k == last && a)
            cell_pass(F, k, 1, out, a, m);
        else
            cell_pass(F, k, 1, out, NULL, 0.0);
    }
    return m;
}

/* A step's first stage state x = u + f c and its first increment d = f b. */
CLONED void step_start(long n, const double *u, const double *f, double c, double b,
                       double *x, double *d)
{
    for (long i = 0; i < n; i++) {
        x[i] = u[i] + f[i] * c;
        d[i] = f[i] * b;
    }
}

/* An RKC2 stage: from the slope F in inc, the increment
   ((F a + f b) + d mu) + prev nu into inc, and the state u + inc into x. */
CLONED void rkc2_inc(long n, double *inc, double a, const double *f, double b,
                     const double *d, double mu, const double *prev, double nu,
                     const double *u, double *x)
{
    for (long i = 0; i < n; i++) {
        double v = ((inc[i] * a + f[i] * b) + d[i] * mu) + prev[i] * nu;
        inc[i] = v;
        x[i] = u[i] + v;
    }
}

/* An RK4 stage: the increment d + k b into d, and the state u + k c into x. */
CLONED void rk4_acc(long n, double *d, const double *k, double b, const double *u,
                    double c, double *x)
{
    for (long i = 0; i < n; i++) {
        d[i] = d[i] + k[i] * b;
        x[i] = u[i] + k[i] * c;
    }
}

/* The last RK4 stage: the increment d + k b into d, and u + d into out. */
CLONED void rk4_last(long n, double *d, const double *k, double b, const double *u,
                     double *out)
{
    for (long i = 0; i < n; i++) {
        double v = d[i] + k[i] * b;
        d[i] = v;
        out[i] = u[i] + v;
    }
}
