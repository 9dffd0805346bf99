/* Elementwise loops of the grid kernel and the steppers.

   Each loop makes, value by value, the IEEE operations of the NumPy passes
   it stands for, on the same operands and in the same order, so every value
   has the bits those passes gave: the build forbids contraction into fused
   multiply-adds (-ffp-contract=off) and uses no fast-math.  The one
   reduction here, the source's sum in `rhs`, runs in the order of NumPy's
   pairwise sum; no other loop reassociates a sum.  The powers and the other
   reductions stay NumPy calls in the one caller, `grid._Kernel`.
   Where GCC or Clang can dispatch on the host (x86-64 Linux with glibc),
   each entry point is cloned for x86-64-v4, x86-64-v3 and the baseline;
   every clone makes the same operations, only wider.  LOOPS_NO_CLONES
   builds the baseline alone.

   The entry points: `grad2` and `rhs`, the two halves of a kernel's
   right-hand side around its powers, and for the steppers `step_begin` and
   `step_stage`, which run a whole step but its powers: a step
   (`grid._Kernel.step`) is one `step_begin`, then per inner stage the
   kernel's powers and one `step_stage`, which forms the slope (`rhs`), the
   increment and the next stage state, and that state's `grad2`.

   The face workspace (`grid._Faces`) is described once per grid by a
   `faces` struct.  Per axis of flat stride s, with n cells: face entry j
   (s <= j < n) lies between cells j - s and j, so cell c's faces are
   entries c and c + s; entries below s and from n on are outer-boundary
   faces and stay +0.0.  Where `wrap` is nonzero, the entries at its
   multiples straddle a row end: they are outer-boundary faces too, and
   every loop that writes a face array writes +0.0 there.  A `simulate` run
   describes its stepper once by a `stepper` struct
   (`grid._Kernel.stepper`). */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

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

/* A run's stepper: its kernel's workspace and buffers and three work
   buffers, described once per run, and the step under way, which
   `step_begin` sets.  d, prev and inc are the work buffers in their
   current roles: RKC2's increments d_{j-1} and d_{j-2} and the stage's
   slope, which becomes d_j; RK4 keeps its increment in d and each slope
   in inc. */
typedef struct {
    const faces_t *F;
    double d2;                /* delta^2 */
    double *q, *au;           /* grad2's q and |u|; au NULL without the source */
    const double *w, *a;      /* the powers rhs reads; a NULL without the source */
    double *d, *prev, *inc;
    const double *u, *f;      /* the step's state and its right-hand side */
    double *out;              /* the step's new state */
    const double *weights;    /* RKC2's rows of 4 weights; NULL on RK4 */
    double dt;
    long s;                   /* the stage count, 4 on RK4 */
} stepper_t;

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
   mean, copysign(a, x) - m, to out (`rhs`); with shift, it adds m (a
   stage's q = |grad u|^2 + d2).  No two of the arrays overlap
   (`grid._Kernel` checks a caller's output), and `restrict` says so to the
   compiler, which would otherwise test each pair before it vectorizes. */
INLINE void cell_pass(const faces_t *F, long k, int flux, double *restrict out,
                      const double *restrict a, double m, int shift)
{
    const long n = F->n, s = F->axis[k].s;
    const double *restrict g = F->axis[k].g, *restrict f = F->axis[k].f, *restrict x = F->x;
    const double rel = F->axis[k].rel, scale = k == F->naxes - 1 ? F->scale : 1.0;
#define TERM (flux ? f[c + s] - f[c] : g[c] * g[c] + g[c + s] * g[c + s])
#define STORE(v) (out[c] = a ? (v) + (copysign(a[c], x[c]) - m) : shift ? (v) + m : (v))
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
   last axis' cell pass, next to its sum, they took longer.  A lean call,
   for an inner stage, which reads q but not |grad u|^2, forms the sums in
   q instead and adds d2 in the last axis' pass, in the same operations:
   it skips a pass and leaves mag2 as it was. */
INLINE void form_grad2(const faces_t *F, double d2, double *q, double *au, int lean)
{
    const long n = F->n, last = F->naxes - 1;
    const double *x = F->x;
    for (long k = 0; k <= last; k++) {
        const axis_t *a = &F->axis[k];
        const long s = a->s;
        double *g = a->g;
        for (long j = s; j < n; j++)
            g[j] = x[j] - x[j - s];
        zero_row_ends(a, n, g);
        if (lean && k == last)
            cell_pass(F, k, 0, q, NULL, d2, 1);
        else
            cell_pass(F, k, 0, lean ? q : F->mag2, NULL, 0.0, 0);
    }
    if (q && !lean)
        for (long c = 0; c < n; c++)
            q[c] = F->mag2[c] + d2;
    if (au)
        for (long c = 0; c < n; c++)
            au[c] = fabs(x[c]);
}

CLONED void grad2(const faces_t *F, double d2, double *q, double *au)
{
    form_grad2(F, d2, q, au, 0);
}

/* The sum of copysign(a, x) over n cells in the order of NumPy's pairwise
   sum, whose bits `np.sum` gave on the NumPy this is tested against: under
   8 terms one by one; up to 128 the first 8 terms start 8 accumulators,
   each later block of 8 adds into them, their sum is formed in pairs and
   the remaining terms are added one by one; above 128 the sums of the two
   parts, split at n / 2 rounded down to a multiple of 8.  It is cloned like
   the entry points: a wider clone adds into the 8 accumulators as one
   vector, each lane the same sum; `rhs` with the source then took 5.3 us
   against 5.9 us at 64^2. */
CLONED static double signed_sum(const double *a, const double *x, long n)
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
   added in the last axis' pass; m is returned, 0.0 without a.  Each
   flux is formed once, into f, and read back by the cell pass: formed in
   the cell pass, twice per face with +0.0 selected at the outer and
   row-end faces, it kept every bit but took longer. */
INLINE double form_rhs(const faces_t *F, const double *w, const double *a, double *out)
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
            cell_pass(F, k, 1, out, a, m, 0);
        else
            cell_pass(F, k, 1, out, NULL, 0.0, 0);
    }
    return m;
}

CLONED double rhs(const faces_t *F, const double *w, const double *a, double *out)
{
    return form_rhs(F, w, a, out);
}

/* A step's start: the first stage state x = u + f c and increment d = f b,
   with c = b = mu~_1 dt on RKC2 (weights: its rows (mu_j, nu_j, mu~_j,
   gamma~_j), row 0 holding mu~_1) and c = dt / 2, b = (1 / 6) dt on RK4
   (weights NULL, s = 4), RKC2's d_0 = +0.0 in prev, all bits clear, and
   the state's lean `grad2`: q and |u|, not |grad u|^2. */
CLONED void step_begin(stepper_t *S, const double *u, const double *f, double *out,
                       double dt, long s, const double *weights)
{
    const faces_t *F = S->F;
    const long n = F->n;
    const double c = weights ? weights[0] * dt : 0.5 * dt;
    const double b = weights ? c : 1.0 / 6.0 * dt;
    double *x = F->x, *d = S->d;
    S->u = u, S->f = f, S->out = out, S->dt = dt, S->s = s, S->weights = weights;
    for (long i = 0; i < n; i++) {
        x[i] = u[i] + f[i] * c;
        d[i] = f[i] * b;
    }
    if (weights)
        memset(S->prev, 0, n * sizeof(double));
    form_grad2(F, S->d2, S->q, S->au, 1);
}

/* 1 where v is not finite, else 0: an IEEE value is not finite exactly
   where its exponent bits are all set */
INLINE uint64_t not_finite(double v)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    return (bits & UINT64_C(0x7ff0000000000000)) == UINT64_C(0x7ff0000000000000);
}

/* Stage j (2 <= j <= s) of the step under way, after the caller's powers
   at the stage state in x: its slope, the right-hand side, into inc; the
   increment and the next stage state; and that state's `grad2` with q and
   |u|, lean but on the last stage, whose |grad u|^2 the trial's evaluation
   reads.  RKC2: the increment ((inc mu~_j dt + f gamma~_j dt) + d mu_j)
   + prev nu_j, the state u plus it, and the buffers' roles rotate.  RK4,
   slope k: the increment d + k b with b = (1 / 3) dt, and the state u + k c
   with c = dt / 2 at j = 2 and dt at j = 3; on the last stage
   b = (1 / 6) dt.  The last stage (j = s) writes the step's new state, u
   plus the increment, which it does not keep, to x, copies it to out, and
   returns whether every entry of it is finite; an inner stage returns 1.
   Written to out and x in one loop, the state took 3 us longer at 64^2:
   GCC versions a loop on at most 10 pairs of pointers that may overlap,
   and with both it would need 11, so it did not vectorize the loop. */
CLONED long step_stage(stepper_t *S, long j)
{
    const faces_t *F = S->F;
    const long n = F->n, last = j == S->s;
    const double dt = S->dt, *u = S->u, *f = S->f;
    double *x = F->x, *inc = S->inc, *d = S->d;
    uint64_t bad = 0;
    form_rhs(F, S->w, S->a, inc);
    if (S->weights) {
        const double *W = S->weights + 4 * (j - 1);
        double *prev = S->prev;
        const double mu = W[0], nu = W[1], a = W[2] * dt, b = W[3] * dt;
        if (!last)
            for (long i = 0; i < n; i++) {
                double v = ((inc[i] * a + f[i] * b) + d[i] * mu) + prev[i] * nu;
                inc[i] = v;
                x[i] = u[i] + v;
            }
        else
            for (long i = 0; i < n; i++) {
                x[i] = u[i] + (((inc[i] * a + f[i] * b) + d[i] * mu) + prev[i] * nu);
                bad |= not_finite(x[i]);
            }
        S->prev = S->d, S->d = S->inc, S->inc = prev;
    } else if (!last) {
        const double b = 1.0 / 3.0 * dt, c = j == 2 ? 0.5 * dt : dt;
        for (long i = 0; i < n; i++) {
            d[i] = d[i] + inc[i] * b;
            x[i] = u[i] + inc[i] * c;
        }
    } else {
        const double b = 1.0 / 6.0 * dt;
        for (long i = 0; i < n; i++) {
            x[i] = u[i] + (d[i] + inc[i] * b);
            bad |= not_finite(x[i]);
        }
    }
    if (last)
        memcpy(S->out, x, n * sizeof *x);
    form_grad2(F, S->d2, S->q, S->au, !last);
    return !bad;
}
