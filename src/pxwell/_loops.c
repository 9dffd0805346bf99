/* Elementwise loops of the grid kernel and the steppers.

   Each loop makes, value by value, the IEEE operations of the NumPy passes
   it stands for, on the same operands and in the same order, so every value
   has the bits those passes gave: the build forbids contraction into fused
   multiply-adds (-ffp-contract=off) and uses no fast-math, and no loop
   reassociates a sum.  Powers and reductions stay NumPy calls in the
   callers (`grid._Kernel`, `solver`).  Where GCC or Clang can dispatch on
   the host (x86-64 Linux with glibc), each entry point is cloned for
   x86-64-v4, x86-64-v3 and the baseline; every clone makes the same
   operations, only wider.  LOOPS_NO_CLONES builds the baseline alone.

   The face workspace (`grid._Faces`) is described once per grid by a
   `faces` struct.  Per axis of flat stride s, with n cells: face entry j
   (s <= j < n) lies between cells j - s and j, so cell c's faces are
   entries c and c + s; entries below s and from n on are outer-boundary
   faces and stay +0.0.  Where `wrap` is nonzero, the entries at its
   multiples straddle a row end: they are outer-boundary faces too, and
   every loop that writes a face array writes +0.0 there. */

#include <math.h>

#ifndef __has_attribute
#define __has_attribute(x) 0
#endif

#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBC__) && \
    !defined(LOOPS_NO_CLONES) && __has_attribute(target_clones)
#define CLONED __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define CLONED
#endif

typedef struct {
    long s, wrap;      /* flat stride; row length on a row-end axis, else 0 */
    double rel;        /* (h_0 / h)^2 against the first axis' spacing */
    double *g, *f;     /* n + s face entries: differences; squares or fluxes */
} axis_t;

typedef struct {
    long n, naxes;
    double scale;      /* 0.5 / h_0^2 */
    double *x, *mag2;
    axis_t axis[2];
} faces_t;

static void zero_row_ends(const axis_t *a, long n, double *face)
{
    if (a->wrap)
        for (long j = a->wrap; j < n; j += a->wrap)
            face[j] = 0.0;
}

/* Sums the cell terms of axis k into out: the first axis writes out, a
   later one is weighted by its rel and added to out, and the last one
   scales the sum.  The term of cell c is, from the face differences g,
   g[c]^2 + g[c + s]^2, the sum of its faces' squares, or, with flux, from
   the face fluxes f[c + s] - f[c], its right less its left flux.  A product
   by 1.0 returns its operand's bits, so a weight of 1 and an axis that is
   not the last multiply by 1.0 where the NumPy passes skipped the
   product. */
static inline void cell_sums(const faces_t *F, long k, int flux, double *out)
{
    const long n = F->n, s = F->axis[k].s;
    const double *g = F->axis[k].g, *f = F->axis[k].f, rel = F->axis[k].rel;
    const double scale = k == F->naxes - 1 ? F->scale : 1.0;
#define TERM (flux ? f[c + s] - f[c] : g[c] * g[c] + g[c + s] * g[c + s])
    if (!k)
        for (long c = 0; c < n; c++)
            out[c] = TERM * scale;
    else
        for (long c = 0; c < n; c++)
            out[c] = (out[c] + TERM * rel) * scale;
#undef TERM
}

/* |grad u|^2 into mag2 from the state x: per axis the raw differences
   g = x[j] - x[j - s], each cell's sum of their squares over its two faces,
   summed across the axes and scaled once.  With q, also q = mag2 + d2;
   with au, also |x|. */
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
        cell_sums(F, k, 0, F->mag2);
    }
    if (q)
        for (long c = 0; c < n; c++)
            q[c] = F->mag2[c] + d2;
    if (au)
        for (long c = 0; c < n; c++)
            au[c] = fabs(x[c]);
}

/* The scaled divergence of the face flux (w_L + w_R) g into out, from the
   differences g that `grad2` left: per axis the fluxes f, each cell's
   right less left flux, summed across the axes in out and scaled once. */
CLONED void flux(const faces_t *F, const double *w, double *out)
{
    const long n = F->n;
    for (long k = 0; k < F->naxes; k++) {
        const axis_t *a = &F->axis[k];
        const long s = a->s;
        const double *g = a->g;
        double *f = a->f;
        for (long j = s; j < n; j++)
            f[j] = (w[j - s] + w[j]) * g[j];
        zero_row_ends(a, n, f);
        cell_sums(F, k, 1, out);
    }
}

/* The source sign(u) a: sa = copysign(a, x). */
CLONED void source_sign(long n, const double *a, const double *x, double *sa)
{
    for (long c = 0; c < n; c++)
        sa[c] = copysign(a[c], x[c]);
}

/* The source less its mean m, added to the divergence in out:
   out + (sa - m). */
CLONED void source_add(long n, double *out, const double *sa, double m)
{
    for (long c = 0; c < n; c++)
        out[c] = out[c] + (sa[c] - m);
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
