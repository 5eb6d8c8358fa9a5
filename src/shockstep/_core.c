/* The stepping core: every time loop of the forward and dual marches.
 *
 * Each march writes into caller-owned buffers and returns how many steps
 * (or intervals) it completed; on a failure it stops there and sets a
 * reason code and value, which the Python side turns into an exception.
 *
 * The arithmetic is the numpy formulas' own, operation for operation, so
 * the results are bit-identical to them.  That rests on three things:
 *   - the build uses -ffp-contract=off, so no a*b+c becomes one fused
 *     multiply-add (one rounding instead of two), and no -ffast-math;
 *   - max(v, 0) and min(v, 0) follow np.maximum / np.minimum: NaN
 *     propagates, and on a tie (v = -0.0) the second argument, +0.0, wins;
 *   - sums that numpy takes with np.sum use numpy's pairwise summation.
 */
#include <float.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

enum { OK = 0, CFL = 1, NONFINITE_STATE = 2, NONFINITE_RESIDUAL = 3,
       SINGULAR = 4, STALLED = 5, NO_MEMORY = 6 };
enum { BURGERS = 0, LINEAR = 1 };
enum { STOP_TOL = 1, STOP_FLOOR = 2 };

/* np.maximum(v, 0.0), np.minimum(v, 0.0) */
static double pos(double v) { return (v > 0.0 || v != v) ? v : 0.0; }
static double neg(double v) { return (v < 0.0 || v != v) ? v : 0.0; }

/* one step of np.maximum.reduce: NaN propagates */
static double nanmax(double m, double v) { return (v > m || v != v) ? v : m; }

static int all_finite(const double *u, long n)
{
    for (long j = 0; j < n; j++)
        if (!isfinite(u[j]))
            return 0;
    return 1;
}

/* numpy's pairwise summation of a contiguous float64 array, as np.sum
 * takes it: 8 accumulators over blocks of at most 128, halves above. */
static double pairwise(const double *a, long n)
{
    if (n < 8) {
        double res = 0.0;
        for (long i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        long i;
        for (int q = 0; q < 8; q++)
            r[q] = a[q];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int q = 0; q < 8; q++)
                r[q] += a[i + q];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

static double np_sum(const double *a, long n) { return 0.0 + pairwise(a, n); }

/* The flux classes' `split` of one value v: one-sided derivatives *dp,
 * *dm and flux parts *fp, *fm. */
static inline __attribute__((always_inline))
void split(int kind, double a, double v, double *dp, double *dm, double *fp,
           double *fm)
{
    if (kind == BURGERS) {
        double p = pos(v), m = neg(v);
        *dp = p;
        *dm = m;
        *fp = (p * 0.5) * p;
        *fm = (m * 0.5) * m;
    } else {
        /* Python's max(a, 0.0) and min(a, 0.0): a unless 0.0 beats it */
        double p = (0.0 > a) ? 0.0 : a, m = (0.0 < a) ? 0.0 : a;
        *dp = p;
        *dm = m;
        *fp = p * v;
        *fm = m * v;
    }
}

/* The fluxes F_i = fp(v_i) + fm(v_{i+1}), i = 0 .. J, of the values
 * v = (g, u_0 .. u_{J-1}, u_{J-1}), split one at a time; the derivative
 * parts of all J + 2 values go to dp and dm unless those are NULL.
 * Returns max |f'| = max(dp - dm) over the J + 2 values. */
static inline __attribute__((always_inline))
double fluxes_of(int kind, double a, const double *u, long J, double g,
                 double *dp, double *dm, double *F)
{
    double p, m, fp, fm, fprev;
    split(kind, a, g, &p, &m, &fprev, &fm);
    double smax = p - m;
    if (dp) {
        dp[0] = p;
        dm[0] = m;
    }
    for (long i = 1; i <= J + 1; i++) {
        split(kind, a, u[i <= J ? i - 1 : J - 1], &p, &m, &fp, &fm);
        if (dp) {
            dp[i] = p;
            dm[i] = m;
        }
        F[i - 1] = fprev + fm;
        fprev = fp;
        smax = nanmax(smax, p - m);
    }
    return smax;
}

/* `fluxes_of`, compiled once per flux kind and per (dp, dm) output, so
 * that the per-value branches on them fold away. */
static double fluxes(int kind, double a, const double *u, long J, double g,
                     double *dp, double *dm, double *F)
{
    if (kind == BURGERS)
        return dp ? fluxes_of(BURGERS, a, u, J, g, dp, dm, F)
                  : fluxes_of(BURGERS, a, u, J, g, NULL, NULL, F);
    return dp ? fluxes_of(LINEAR, a, u, J, g, dp, dm, F)
              : fluxes_of(LINEAR, a, u, J, g, NULL, NULL, F);
}

struct work {
    double *dp, *dm;                    /* J + 2 each */
    double *r, *diag, *sub, *sup;       /* J each */
    double *block;
};

static int work_alloc(struct work *w, long J)
{
    w->block = malloc(sizeof(double) * (2 * (J + 2) + 4 * J));
    if (!w->block)
        return 0;
    w->dp = w->block;
    w->dm = w->dp + J + 2;
    w->r = w->dm + J + 2;
    w->diag = w->r + J;
    w->sub = w->diag + J;
    w->sup = w->sub + J;
    return 1;
}

/* Forward Euler over n steps: rows u[0 .. n] of length J, row 0 given.
 * Step i has length k[i] and inflow g[i]; F (J + 1) ends with the fluxes
 * of the last step taken.  A step with k max|f'| / h > 1 is refused
 * (its row is not written, *value = its CFL). */
long march_explicit(long n, long J, double h, const double *k,
                    const double *g, int kind, double a, double *u,
                    double *F, int *code, double *value)
{
    *code = OK;
    long i;
    for (i = 0; i < n; i++) {
        const double *uo = u + i * J;
        double *un = u + (i + 1) * J;
        double lam = k[i] / h;
        double smax = fluxes(kind, a, uo, J, g[i], NULL, NULL, F);
        double cfl = k[i] * smax / h;
        if (cfl > 1.0) {
            *code = CFL;
            *value = cfl;
            break;
        }
        for (long j = 0; j < J; j++)
            un[j] = uo[j] - (F[j + 1] - F[j]) * lam;
        if (!all_finite(un, J)) {
            *code = NONFINITE_STATE;
            break;
        }
    }
    return i;
}

/* Reference LAPACK dgtsv for one right-hand side, transcribed statement by
 * statement: Gaussian elimination with partial pivoting on the tridiagonal
 * system (dl, d, du) x = b, all four overwritten, x in b.  Returns INFO:
 * 0, or the 1-based index of a zero pivot. */
long dgtsv(long n, double *dl, double *d, double *du, double *b)
{
    if (n == 0)
        return 0;
    for (long i = 0; i < n - 2; i++) {
        if (fabs(d[i]) >= fabs(dl[i])) {
            if (d[i] != 0.0) {
                double fact = dl[i] / d[i];
                d[i + 1] = d[i + 1] - fact * du[i];
                b[i + 1] = b[i + 1] - fact * b[i];
            } else {
                return i + 1;
            }
            dl[i] = 0.0;
        } else {
            double fact = d[i] / dl[i];
            d[i] = dl[i];
            double temp = d[i + 1];
            d[i + 1] = du[i] - fact * temp;
            dl[i] = du[i + 1];
            du[i + 1] = -fact * dl[i];
            du[i] = temp;
            temp = b[i];
            b[i] = b[i + 1];
            b[i + 1] = temp - fact * b[i + 1];
        }
    }
    if (n > 1) {
        long i = n - 2;
        if (fabs(d[i]) >= fabs(dl[i])) {
            if (d[i] != 0.0) {
                double fact = dl[i] / d[i];
                d[i + 1] = d[i + 1] - fact * du[i];
                b[i + 1] = b[i + 1] - fact * b[i];
            } else {
                return i + 1;
            }
        } else {
            double fact = d[i] / dl[i];
            d[i] = dl[i];
            double temp = d[i + 1];
            d[i + 1] = du[i] - fact * temp;
            du[i] = temp;
            temp = b[i];
            b[i] = b[i + 1];
            b[i + 1] = temp - fact * b[i + 1];
        }
    }
    if (d[n - 1] == 0.0)
        return n;
    b[n - 1] = b[n - 1] / d[n - 1];
    if (n > 1)
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2];
    for (long i = n - 3; i >= 0; i--)
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i];
    return 0;
}

/* Backward Euler over n steps, rows as in march_explicit, g[i] the inflow
 * at the step's end.  Newton with full steps on
 *     r = (u - u_old) + lam (F[1:] - F[:-1]) = 0
 * and the analytic tridiagonal Jacobian.  It stops as converged when
 * max|r| <= tol ("tol"), or at the round-off floor ("floor"): after the
 * third iteration, once max|r| <= 8 eps (max|u| + lam max|F|), the size
 * at which rounding alone leaves lam (F[1:] - F[:-1]), while max|r| no
 * longer halves.  iters, resid and stop receive each step's iteration
 * count, final max|r| and stop rule.  A failure leaves the last iterate
 * in its row; *value holds the last max|r| (STALLED, after max_iter
 * iterations) or dgtsv's INFO (SINGULAR). */
long march_implicit(long n, long J, double h, const double *k,
                    const double *g, int kind, double a, double tol,
                    long max_iter, double *u, double *F, int *iters,
                    double *resid, signed char *stop, int *code,
                    double *value)
{
    struct work w;
    *code = OK;
    if (!work_alloc(&w, J)) {
        *code = NO_MEMORY;
        return 0;
    }
    long i;
    for (i = 0; i < n; i++) {
        const double *uo = u + i * J;
        double *un = u + (i + 1) * J;
        double lam = k[i] / h;
        double res = INFINITY, prev = INFINITY;
        int done = 0;
        memcpy(un, uo, sizeof(double) * J);
        long it;
        for (it = 1; it <= max_iter; it++) {
            fluxes(kind, a, un, J, g[i], w.dp, w.dm, F);
            res = 0.0;
            for (long j = 0; j < J; j++) {
                double r = (un[j] - uo[j]) + (F[j + 1] - F[j]) * lam;
                w.r[j] = r;
                res = j ? nanmax(res, fabs(r)) : fabs(r);
            }
            if (res <= tol) {
                done = STOP_TOL;
                break;
            }
            if (!isfinite(res)) {
                *code = NONFINITE_RESIDUAL;
                break;
            }
            if (it > 3 && res >= 0.5 * prev) {
                double umax = 0.0, Fmax = 0.0;
                for (long j = 0; j < J; j++)
                    umax = fmax(umax, fabs(un[j]));
                for (long j = 0; j <= J; j++)
                    Fmax = fmax(Fmax, fabs(F[j]));
                if (res <= 8.0 * DBL_EPSILON * (umax + lam * Fmax)) {
                    done = STOP_FLOOR;
                    break;
                }
            }
            prev = res;
            for (long j = 0; j < J; j++) {
                w.diag[j] = (w.dp[j + 1] - w.dm[j + 1]) * lam + 1.0;
                w.r[j] = -w.r[j];
            }
            /* the right ghost copies u_J: 1 + lam (f'(u_J) - dm(u_J)) */
            w.diag[J - 1] = 1.0 + lam * ((w.dp[J + 1] + w.dm[J + 1]) - w.dm[J]);
            for (long j = 0; j < J - 1; j++) {
                w.sup[j] = w.dm[j + 2] * lam;
                w.sub[j] = w.dp[j + 1] * -lam;
            }
            long info = dgtsv(J, w.sub, w.diag, w.sup, w.r);
            if (info) {
                *code = SINGULAR;
                *value = (double)info;
                break;
            }
            for (long j = 0; j < J; j++)
                un[j] += w.r[j];
            if (!all_finite(un, J)) {
                *code = NONFINITE_STATE;
                break;
            }
        }
        if (*code)
            break;
        if (!done) {
            *code = STALLED;
            *value = res;
            break;
        }
        iters[i] = (int)it;
        resid[i] = res;
        stop[i] = (signed char)done;
    }
    free(w.block);
    return i;
}

/* The dual gradient's explicit backward march over n intervals, taken
 * from the last to the first.  Interval i has the frozen coefficient row
 * A[i] (J finite values, which the caller checks), m[i] substeps of
 * length dt[i], and receives in samples[i] the profile after substep
 * (m + 1) / 2.  wext holds w between two zero ghost values and carries it
 * from call to call.  With the interface coefficient s = (a_left +
 * a_right) / 2, edge cells extended, split into ap = max(s, 0) and
 * am = min(s, 0), each substep is
 *     S = ap w_right + am w_left,  w += lam (S[1:] - S[:-1]),  w += dt src
 * in one pass that reads S's two old w values before it overwrites w_j.
 * When mass is not NULL it receives each substep's relative mass-balance
 * residual, in march order.  Returns the intervals completed: a
 * non-finite w stops the march after its interval; -1 is out of memory. */
long march_dual(long n, long J, double h, const double *A, const long *m,
                const double *dt, const double *src, double src_total,
                double *wext, double *samples, double *mass)
{
    double *block = malloc(sizeof(double) * (2 * (J + 1) + 2 * J));
    if (!block)
        return -1;
    double *ap = block, *am = ap + J + 1, *diff = am + J + 1, *absw = diff + J;
    double *w = wext + 1;
    long done = 0;
    for (long i = n - 1; i >= 0; i--) {
        const double *a = A + i * J;
        double lam = dt[i] / h, dti = dt[i];
        long sample_at = (m[i] + 1) / 2;
        for (long q = 0; q <= J; q++) {
            double s = ((q ? a[q - 1] : a[0]) + (q < J ? a[q] : a[J - 1])) * 0.5;
            am[q] = s < 0.0 ? s : 0.0;
            ap[q] = s > 0.0 ? s : 0.0;
        }
        for (long step = 1; step <= m[i]; step++) {
            double S0 = ap[0] * wext[1] + am[0] * wext[0], Sl = S0;
            for (long j = 0; j < J; j++) {
                double old = wext[j + 1];
                double Sr = ap[j + 1] * wext[j + 2] + am[j + 1] * old;
                double x = old + (Sr - Sl) * lam;
                x = x + dti * src[j];
                wext[j + 1] = x;
                Sl = Sr;
                if (mass) {
                    diff[j] = x - old;
                    absw[j] = fabs(x);
                }
            }
            if (mass) {
                /* telescoping mass balance of the conservative update */
                double G0 = -S0, GJ = -Sl;
                double resid = fabs(h * np_sum(diff, J) + dti * (GJ - G0)
                                    - dti * src_total);
                double scale = h * np_sum(absw, J) + fabs(dti * src_total)
                               + dti * (fabs(G0) + fabs(GJ)) + 1e-300;
                *mass++ = resid / scale;
            }
            if (step == sample_at)
                memcpy(samples + i * J, w, sizeof(double) * J);
        }
        if (!all_finite(w, J))
            break;
        done++;
    }
    free(block);
    return done;
}
