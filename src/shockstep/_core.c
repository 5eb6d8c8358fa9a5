/* The stepping core: every time loop of the forward marches, the one
 * backward sweep that marches the dual and reduces each interval's error
 * breakdown from its sample, the wave speeds max|f'| of rows of states,
 * the planner's two walks, the `%.5e` text of the CSVs, and the departure
 * filter of the inflow table.  The flux's f'(u) is formed here
 * alone, from the states and the flux's (kind, a): the dual coefficient,
 * the breakdown's linearization and the one max|f'| reduction,
 * max_speed.
 *
 * Each march writes into caller-owned buffers and returns how many steps
 * (or intervals) it completed; on a failure it stops there and sets a
 * reason code and value, which the Python side turns into an exception.
 * The planner walks run twice: a count pass with NULL outputs returns the
 * length, the caller allocates it, and a fill pass writes it.
 *
 * The arithmetic is the numpy formulas' own, operation for operation, so
 * the results are bit-identical to them.  That rests on six things:
 *   - the build uses -ffp-contract=off, so no a*b+c becomes one fused
 *     multiply-add (one rounding instead of two), and no -ffast-math;
 *   - max(v, 0) and min(v, 0) follow np.maximum / np.minimum: NaN
 *     propagates, and on a tie (v = -0.0) the second argument, +0.0, wins;
 *   - sums that numpy takes with np.sum use numpy's pairwise summation;
 *   - the vector code (GCC/Clang vector extensions) applies the same
 *     operations lane by lane: every lane is one cell's IEEE operation,
 *     nothing is reassociated, and only OR-ed flags and maxima cross
 *     lanes;
 *   - an operation is skipped only where it cannot change a bit: dgtsv
 *     leaves x - p undone when p is a zero and x is not;
 *   - the forward marches leave out the stationary cells right of the
 *     shock only where the full row would keep them bit for bit, and
 *     take the step at full width otherwise (see "The active window").
 * The departure filter is the one kernel that does not transcribe numpy
 * bit for bit: it is a filter, and its values reach no output.  It only
 * decides the comparisons its error bound certifies; the table's bits
 * rest on numpy's exact map, which decides every other comparison and
 * gives every table value.
 *
 * The vector loops (the flux pass, the explicit update, Newton's residual,
 * Jacobian and update, the dual march's interface split and its two
 * passes, the cell terms and the pairwise sum) are written once, for
 * vectors of LANES doubles, and the library is built for one width:
 * -DMAX_LANES=8 compiles the whole file for AVX-512F (one register holds
 * 8 doubles), 4 for AVX2 and 2 (the default) for the baseline, SSE2.
 * The loader passes the widest the CPU runs; other compilers than GCC,
 * and other targets than x86-64, build 2 lanes without a target.  Since
 * every lane does its own cell's operations, the width changes no bit.
 */

#include <float.h>
#include <limits.h>
#include <math.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#ifndef MAX_LANES
#define MAX_LANES 2
#endif
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define WIDEST MAX_LANES
#else
#define WIDEST 2
#endif
/* doubles per vector in the vector loops, and their instruction set */
#if WIDEST >= 8
#define LANES 8
#pragma GCC target("avx512f")
#elif WIDEST >= 4
#define LANES 4
#pragma GCC target("avx2")
#else
#define LANES 2
#endif

enum { OK = 0, CFL = 1, NONFINITE_STATE = 2, NONFINITE_RESIDUAL = 3,
       SINGULAR = 4, STALLED = 5, NO_MEMORY = 6,
       WIDEN = 7 /* a step the window cannot take: run it at full width */ };
enum { BURGERS = 0, LINEAR = 1 };
enum { STOP_TOL = 1, STOP_FLOOR = 2 };

/* LANES doubles, the comparison masks they give, and vd at a double's
 * alignment, to load and store at any cell */
typedef double vd __attribute__((vector_size(8 * LANES)));
typedef long long vl __attribute__((vector_size(8 * LANES)));
typedef double vu __attribute__((vector_size(8 * LANES), aligned(8), may_alias));

#define load(p) (*(const vu *)(p))
#define store(p, v) (*(vu *)(p) = (v))

/* every lane x: a lane's bits, -0.0 included */
static inline __attribute__((always_inline)) vd splat(double x)
{
    vd v;
    for (int q = 0; q < LANES; q++)
        v[q] = x;
    return v;
}

/* pos and neg lane by lane: the mask clears the lanes that become +0.0 */
#define vpos(v) ((vd)((vl)(v) & ~((v) <= 0.0)))
#define vneg(v) ((vd)((vl)(v) & ~((v) >= 0.0)))
#define vabs(v) ((vd)((vl)(v) & LLONG_MAX))

/* whether any lane of a mask is set */
static inline __attribute__((always_inline)) int any(vl m)
{
    long long o = 0;
    for (int q = 0; q < LANES; q++)
        o |= m[q];
    return o != 0;
}

/* np.maximum(v, 0.0), np.minimum(v, 0.0) */
static double pos(double v) { return v <= 0.0 ? 0.0 : v; }
static double neg(double v) { return v >= 0.0 ? 0.0 : v; }

/* one step of np.maximum.reduce: NaN propagates */
static double nanmax(double m, double v) { return (v > m || v != v) ? v : m; }

/* The flux splitting of one value v: one-sided derivatives *dp, *dm and
 * flux parts *fp, *fm, with f = fp(uL) + fm(uR) the interface flux
 * (Engquist-Osher for BURGERS, upwind for LINEAR's constant speed a). */
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

/* The largest s with (k s) / h <= 1.  k s / h rounds monotonically in s,
 * so a speed s >= 0 that is not NaN gives a step at CFL k s / h > 1
 * exactly when s > cfl_threshold(k, h). */
static double cfl_threshold(double k, double h)
{
    if (!((k * INFINITY) / h > 1.0))
        return INFINITY;                /* k <= 0 or NaN: nothing refused */
    if (!((k * DBL_MAX) / h > 1.0))
        return DBL_MAX;                 /* only an infinite speed */
    double s = h / k;
    while ((k * s) / h <= 1.0)
        s = nextafter(s, INFINITY);
    while ((k * s) / h > 1.0)
        s = nextafter(s, 0.0);
    return s;
}

/* max|f'| over the inflow value g and the row u of J states, as
 * np.maximum.reduce takes it over |f'(g)|, |f'(u_0)| .. |f'(u_{J-1})|:
 * NaN when one of them is NaN, otherwise their maximum, inf included.
 * f'(v) is v for BURGERS and LINEAR's a for every v.  This is the one
 * wave-speed reduction: the explicit refusal and row_speeds take it, and
 * through row_speeds the speed profile and the dual's substep counts.
 * Four scalar running maxima (LANES-wide ones ran slower), which no NaN
 * passes, and four running sums of the same |values| as its NaN flag:
 * every term is >= 0, so a sum turns NaN exactly when a term is NaN, and
 * an infinite term only makes it inf. */
static double max_speed(int kind, double a, const double *u, long J,
                        double g)
{
    if (kind != BURGERS)
        return fabs(a);
    double b[4] = {fabs(g), 0.0, 0.0, 0.0}, z[4] = {fabs(g), 0.0, 0.0, 0.0};
    long j = 0;
    for (; j + 3 < J; j += 4)
        for (int q = 0; q < 4; q++) {
            double v = fabs(u[j + q]);
            b[q] = v > b[q] ? v : b[q];
            z[q] += v;
        }
    for (; j < J; j++) {
        double v = fabs(u[j]);
        b[0] = v > b[0] ? v : b[0];
        z[0] += v;
    }
    double nan = (z[0] + z[1]) + (z[2] + z[3]);
    return nan != nan ? NAN : fmax(fmax(b[0], b[1]), fmax(b[2], b[3]));
}

/* max_speed of each of the n rows u[i] (J states) alone (g = 0) into
 * alone[i], and with the inflow g[i] into out[i], from one pass over the
 * row: the maximum of |g[i]| and the row's, NaN when either is NaN, is
 * the one over g[i] and the row. */
void row_speeds(long n, long J, const double *u, const double *g, int kind,
                double a, double *out, double *alone)
{
    for (long i = 0; i < n; i++) {
        double m = max_speed(kind, a, u + i * J, J, 0.0), v = fabs(g[i]);
        alone[i] = m;
        out[i] = kind != BURGERS ? m : (m != m || v != v) ? NAN : fmax(v, m);
    }
}

/* x - p, but x itself when p is a zero and x is not: x - (+-0) = x for
 * every x but -0.0, so the skip is exact, and a NaN p is no zero.  The
 * Newton Jacobian's off-diagonals are +0 or -0 wherever the flow does not
 * reach across the interface, which makes half of dgtsv's updates such
 * no-ops away from a shock.  A predicted branch lets the next row's
 * division start before this product is known; written as a select (a
 * blend), it would wait for the product and keep the chain. */
static inline __attribute__((always_inline)) double minus(double x, double p)
{
    if (p == 0.0 && x != 0.0)
        return x;
    return x - p;
}

/* Reference LAPACK dgtsv for one right-hand side, transcribed statement by
 * statement: Gaussian elimination with partial pivoting on the tridiagonal
 * system (dl, d, du) x = b, all four overwritten, x in b.  The rows that
 * need no interchange, and the back substitution, subtract through
 * `minus`, which gives every bit of the plain subtraction.  Returns INFO:
 * 0, or the 1-based index of a zero pivot. */
long dgtsv(long n, double *dl, double *d, double *du, double *b)
{
    if (n == 0)
        return 0;
    for (long i = 0; i < n - 2; i++) {
        if (fabs(d[i]) >= fabs(dl[i])) {
            if (d[i] != 0.0) {
                double fact = dl[i] / d[i];
                d[i + 1] = minus(d[i + 1], fact * du[i]);
                b[i + 1] = minus(b[i + 1], fact * b[i]);
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
                d[i + 1] = minus(d[i + 1], fact * du[i]);
                b[i + 1] = minus(b[i + 1], fact * b[i]);
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
        b[n - 2] = minus(b[n - 2], du[n - 2] * b[n - 1]) / d[n - 2];
    for (long i = n - 3; i >= 0; i--)
        b[i] = minus(minus(b[i], du[i] * b[i + 1]), dl[i] * b[i + 2]) / d[i];
    return 0;
}

/* The dual march's substep plan of n intervals: interval i, of length
 * k[i] and with amax[i] the largest |a| of its coefficient a = f'(u) over
 * its end state u (max_speed of the row with g = 0, which the forward
 * march reduces each row to), takes
 *     m[i] = max(ceil((k amax) / (cfl h) - 1e-12), 1)
 * substeps of length dt[i] = k[i] / m[i], in numpy's operation order.
 * Returns n; or i, the first interval with a NaN or infinite amax; or
 * -1 - i, the first interval whose finite amax gives a count that is not
 * finite or does not fit a long.  Nothing is written for it. */
long dual_substeps(long n, double h, double cfl, const double *k,
                   const double *amax, long *m, double *dt)
{
    for (long i = 0; i < n; i++) {
        if (!isfinite(amax[i]))
            return i;
        double mi = ceil((k[i] * amax[i]) / (cfl * h) - 1e-12);
        mi = mi < 1.0 ? 1.0 : mi;
        if (!(mi <= (double)(LONG_MAX / 2)))
            return -1 - i;
        m[i] = (long)mi;
        dt[i] = k[i] / mi;
    }
    return n;
}

/* The dual substep's interface terms S_q = ap_q w_{q+1} + am_q w_q,
 * q = 0 .. J, from wext = (0, w_0 .. w_{J-1}, 0), LANES at a time. */
static void dual_fluxes(const double *ap, const double *am, const double *wext,
                        long J, double *S)
{
    long q = 0;
    for (; q + LANES <= J + 1; q += LANES)
        store(S + q, load(ap + q) * load(wext + q + 1) + load(am + q) * load(wext + q));
    for (; q <= J; q++)
        S[q] = ap[q] * wext[q + 1] + am[q] * wext[q];
}

/* w_j = (w_j + (S_{j+1} - S_j) lam) + dt src_j, LANES cells at a time;
 * with diff, also diff_j = w_j - old w_j and absw_j = |w_j|.  Returns
 * whether some new w_j is not finite.  Compiled once with diff and once
 * without, so that the branches on it fold. */
static inline __attribute__((always_inline))
int dual_update(double *w, const double *S, const double *src, long J,
                double lam, double dt, double *diff, double *absw)
{
    vd vlam = splat(lam), vdt = splat(dt), zero = {0.0};
    vl bad = {0};
    long j = 0;
    for (; j + LANES <= J; j += LANES) {
        vd old = load(w + j);
        vd x = old + (load(S + j + 1) - load(S + j)) * vlam;
        x = x + vdt * load(src + j);
        store(w + j, x);
        if (diff) {
            store(diff + j, x - old);
            store(absw + j, vabs(x));
        }
        bad |= (x - x) != zero;        /* NaN exactly when x is not finite */
    }
    int b = any(bad);
    for (; j < J; j++) {
        double old = w[j];
        double x = old + (S[j + 1] - S[j]) * lam;
        x = x + dt * src[j];
        w[j] = x;
        if (diff) {
            diff[j] = x - old;
            absw[j] = fabs(x);
        }
        b |= !isfinite(x);
    }
    return b;
}

/* 10^0 .. 10^22: every one of them is exact in a double */
static const double pow10_exact[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
    1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* a 10^(5 - e) for -39 <= e <= 27: one correctly rounded operation by an
 * exact power, or two below e = -17 */
static double scaled(double a, int e)
{
    int p = 5 - e;
    if (p < 0)
        return a / pow10_exact[-p];
    if (p > 22)
        return (a * 1e22) * pow10_exact[p - 22];
    return a * pow10_exact[p];
}

/* x as Python's '%.5e' % x, into s (room for 16); returns its length.
 * With e = floor(log10 |x|), y = scaled(|x|, e) lies in [1e5, 1e6) and is
 * off the exact |x| 10^(5 - e) by at most 1.7e-10 (a half ulp of y < 2^20
 * is 5.8e-11; the two-operation path adds a relative 2^-53 of y).  When y
 * is farther than FMT_MARGIN from a half-integer and from 1e5 and 1e6,
 * the exact value has the same six rounded digits and exponent, and they
 * are written directly.  Everything else goes to snprintf, which (like
 * Python's dtoa) rounds the exact binary value half to even.  Non-finite
 * values are spelled as Python does: nan (whatever its sign bit), inf,
 * -inf. */
#define FMT_MARGIN 1e-9
static int format_e5(double x, char *s)
{
    if (x != x) {
        memcpy(s, "nan", 3);
        return 3;
    }
    char *p = s;
    if (signbit(x))
        *p++ = '-';
    double a = fabs(x);
    if (a == INFINITY) {
        memcpy(p, "inf", 3);
        return (int)(p - s) + 3;
    }
    long r = 0;
    int e = 0;
    if (a != 0.0) {
        /* |x| = m 2^b with m in [1, 2) (subnormals land out of range), so
         * log10 |x| lies in [b log10 2, (b + 1) log10 2): e or one below */
        unsigned long long bits;
        memcpy(&bits, &a, sizeof bits);
        double t = ((int)(bits >> 52) - 1023) * 0.30102999566398120;
        e = (int)t;
        e -= t < e;                             /* floor */
        if (e < -39 || e > 26)
            return snprintf(s, 16, "%.5e", x);
        double y = scaled(a, e);
        if (y >= 1e6)
            y = scaled(a, ++e);
        if (!(y - 1e5 > FMT_MARGIN && 1e6 - y > FMT_MARGIN))
            return snprintf(s, 16, "%.5e", x);
        r = (long)y;                            /* floor: y > 0 */
        double frac = y - (double)r;            /* exact: r <= y < r + 1 */
        if (fabs(frac - 0.5) <= FMT_MARGIN)
            return snprintf(s, 16, "%.5e", x);
        r += frac > 0.5;
        if (r == 1000000) {
            r = 100000;
            e++;
        }
    }
    *p++ = (char)('0' + r / 100000);
    *p++ = '.';
    for (int q = 4; q >= 0; q--, r /= 10)
        p[q] = (char)('0' + r % 10);
    p += 5;
    *p++ = 'e';
    *p++ = e < 0 ? '-' : '+';
    e = e < 0 ? -e : e;                         /* two digits: at most 39 here */
    *p++ = (char)('0' + e / 10);
    *p++ = (char)('0' + e % 10);
    return (int)(p - s);
}

/* The CSV body of n rows of ncol columns, column c in x[c n .. c n + n):
 * each value as format_e5 writes it, joined by commas, a newline after
 * each row.  When modes is not NULL, row i's mode word, explicit (0) or
 * implicit (1), goes before column mode_at.  out needs n (14 ncol + 10)
 * bytes.  Returns the bytes written, or -(i + 1) when modes[i] is neither
 * mode. */
long format_rows(long n, long ncol, const double *x, const signed char *modes,
                 long mode_at, char *out)
{
    char *p = out;
    for (long i = 0; i < n; i++)
        for (long c = 0; c < ncol; c++) {
            if (modes && c == mode_at) {
                if (modes[i] != 0 && modes[i] != 1)
                    return -(i + 1);
                memcpy(p, modes[i] ? "implicit," : "explicit,", 9);
                p += 9;
            }
            p += format_e5(x[c * n + i], p);
            *p++ = c + 1 < ncol ? ',' : '\n';
        }
    return p - out;
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
        /* accumulators 0 .. 7 are the lanes of r[0], r[1], ... in turn */
        vd r[8 / LANES];
#pragma GCC unroll 4
        for (int q = 0; q < 8 / LANES; q++)
            r[q] = load(a + q * LANES);
        long i;
        for (i = 8; i < n - (n % 8); i += 8) {
#pragma GCC unroll 4
            for (int q = 0; q < 8 / LANES; q++)
                r[q] += load(a + i + q * LANES);
        }
#define ACC(q) r[(q) / LANES][(q) % LANES]
        double res = ((ACC(0) + ACC(1)) + (ACC(2) + ACC(3))) +
                     ((ACC(4) + ACC(5)) + (ACC(6) + ACC(7)));
#undef ACC
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

static double np_sum(const double *a, long n) { return 0.0 + pairwise(a, n); }

/* The fluxes F_i = fp(v_i) + fm(v_{i+1}), i = 0 .. J, of the values
 * v = (g, u_0 .. u_{J-1}, u_{J-1}), LANES at a time; the derivative parts
 * of all J + 2 values go to dp and dm unless those are NULL.  For BURGERS
 * the wave speed of v is |v|, so unless over is NULL the pass also sets
 * *over when a speed is above t (a NaN speed is not); LINEAR's one speed
 * is the caller's to test. */
static inline __attribute__((always_inline))
void fluxes_of(int kind, double a, const double *u, long J, double g,
               double *dp, double *dm, double *F, double t, int *over)
{
    double p = 0.0, m = 0.0, vp, vm, fp, fm, fprev;
    if (kind == LINEAR)
        split(LINEAR, a, 0.0, &p, &m, &fp, &fm);
    vd vt = splat(t);
    vl big = {0};
    long i = 1;
    for (; i + LANES <= J; i += LANES) {
        vd l = load(u + i - 1), r = load(u + i);
        if (kind == BURGERS) {
            /* fp(l) + fm(r) as `split` forms them */
            vd lp = vpos(l), rm = vneg(r);
            store(F + i, (lp * 0.5) * lp + (rm * 0.5) * rm);
            if (dp) {
                store(dp + i, lp);
                store(dm + i, vneg(l));
            }
            if (over)
                big |= vabs(l) > vt;
        } else {
            store(F + i, p * l + m * r);
            if (dp) {
                store(dp + i, splat(p));
                store(dm + i, splat(m));
            }
        }
    }
    /* v_0 = g and F_0; then one value at a time from the first value no
     * vector took, through v_J = v_{J+1} = u_{J-1} */
    long tail = i;
    int o = any(big) | (fabs(g) > t);
    split(kind, a, g, &vp, &vm, &fprev, &fm);
    if (dp) {
        dp[0] = vp;
        dm[0] = vm;
    }
    if (tail > 1) {
        split(kind, a, u[0], &vp, &vm, &fp, &fm);
        F[0] = fprev + fm;
        split(kind, a, u[tail - 2], &vp, &vm, &fprev, &fm);
    }
    for (i = tail; i <= J + 1; i++) {
        double v = u[i <= J ? i - 1 : J - 1];
        split(kind, a, v, &vp, &vm, &fp, &fm);
        if (dp) {
            dp[i] = vp;
            dm[i] = vm;
        }
        F[i - 1] = fprev + fm;
        fprev = fp;
        o |= fabs(v) > t;
    }
    if (kind == BURGERS && over)
        *over = o;
}

/* `fluxes_of`, compiled once per flux kind and per output, so that the
 * per-value branches on them fold away: the derivative parts (Newton),
 * the CFL flag (explicit steps) or the fluxes alone (the breakdown). */
static void fluxes(int kind, double a, const double *u, long J, double g,
                   double *dp, double *dm, double *F, double t, int *over)
{
    if (kind == BURGERS) {
        if (dp)
            fluxes_of(BURGERS, a, u, J, g, dp, dm, F, 0.0, NULL);
        else if (over)
            fluxes_of(BURGERS, a, u, J, g, NULL, NULL, F, t, over);
        else
            fluxes_of(BURGERS, a, u, J, g, NULL, NULL, F, 0.0, NULL);
    } else {
        if (dp)
            fluxes_of(LINEAR, a, u, J, g, dp, dm, F, 0.0, NULL);
        else
            fluxes_of(LINEAR, a, u, J, g, NULL, NULL, F, 0.0, NULL);
    }
}

/* un = uo - (F[1:] - F[:-1]) * lam, LANES cells at a time; returns
 * whether every cell of un is finite. */
static int update(const double *uo, const double *F, long J, double lam,
                  double *un)
{
    vd vlam = splat(lam), zero = {0.0};
    vl bad = {0};
    long j = 0;
    for (; j + LANES <= J; j += LANES) {
        vd x = load(uo + j) - (load(F + j + 1) - load(F + j)) * vlam;
        store(un + j, x);
        bad |= (x - x) != zero;        /* NaN exactly when x is not finite */
    }
    int b = any(bad);
    for (; j < J; j++) {
        un[j] = uo[j] - (F[j + 1] - F[j]) * lam;
        b |= !isfinite(un[j]);
    }
    return !b;
}

/* the doubles per vector this library was built for */
long lanes(void) { return LANES; }

/* whether x and y have the same bits: -0.0 is not 0.0 */
static int same(double x, double y)
{
    unsigned long long p, q;
    memcpy(&p, &x, sizeof p);
    memcpy(&q, &y, sizeof q);
    return p == q;
}

/* Where the trailing run of cells of u with c's bits starts, given that
 * u[from] .. u[J - 1] have them. */
static long run_start(const double *u, long from, double c)
{
    while (from > 0 && same(u[from - 1], c))
        from--;
    return from;
}

/* u[0 .. n) = c, LANES cells at a time */
static void fill(double *u, long n, double c)
{
    vd v = splat(c);
    long j = 0;
    for (; j + LANES <= n; j += LANES)
        store(u + j, v);
    for (; j < n; j++)
        u[j] = c;
}

/* The active window.  The forward states are stationary right of the
 * shock: there every cell of a row holds the row's last value c, bit for
 * bit, and a step leaves it there.  So each step of the two forward
 * marches runs on the cells [0, W) alone, W = hi + 1, where u[hi] ..
 * u[J - 1] is the trailing run of cells with c's bits.  The window holds
 * the run's first cell, so the flux pass's right ghost copies c, the
 * window's last flux F[W] is the run's own fp(c) + fm(c), and every flux,
 * speed, residual, maximum and update the window forms is the full row's:
 * the cells past W add only |c| and F[W] to the maxima, which the window
 * already holds.  The cells past W are c, copied, and F gets its J + 1
 * values when the march ends.  hi is carried from step to step: an
 * explicit step moves it right by at most one cell, a windowed implicit
 * step not right at all.
 *
 * A step the window cannot vouch for bit for bit runs again at full
 * width from the old row, and so does any step that fails in the window
 * (a non-finite c, which the window holds, fails or widens at once): its
 * result, or its failure with code, value and row, is then the full
 * width's. */

/* Forward Euler on the cells [0, W) of uo into un with the fluxes F[0 ..
 * W], as march_explicit takes a step over W cells: OK, or the failure's
 * code (and *value). */
static int explicit_step(int kind, double a, const double *uo, long W,
                         double g, double k, double h, double t,
                         double speed, double *un, double *F, double *value)
{
    int over = speed > t;
    fluxes(kind, a, uo, W, g, NULL, NULL, F, t, &over);
    if (over) {
        double cfl = k * max_speed(kind, a, uo, W, g) / h;
        if (cfl > 1.0) {
            *value = cfl;
            return CFL;
        }
    }
    return update(uo, F, W, k / h, un) ? OK : NONFINITE_STATE;
}

/* Forward Euler over n steps: rows u[0 .. n] of length J, row 0 given.
 * Step i has length k[i] and reads the inflow g[i] at its start (g holds
 * n + 1 values, one per time); F (J + 1) ends with the fluxes
 * of the last step tried.  A step with k max|f'| / h > 1 is refused (its
 * row is not written, *value = its CFL); a NaN wave speed makes max|f'|
 * NaN, as np.maximum.reduce does, which is no refusal: the step runs and
 * fails as a non-finite state.  The flux pass compares each speed with
 * cfl_threshold, so max|f'| and the CFL are only formed once a speed is
 * above it.
 *
 * Each step runs in the active window.  Every cell past it would step
 * to the same value, c - (F[W] - F[W]) lam, at full width; the step
 * forms that value once and widens unless it has c's bits (which holds
 * whenever F[W] and lam are finite, and c is not -0.0 under a negative
 * lam). */
long march_explicit(long n, long J, double h, const double *k,
                    const double *g, int kind, double a, double *u,
                    double *F, int *code, double *value)
{
    double speed = max_speed(kind, a, NULL, 0, 0.0);   /* |a|, or 0 for BURGERS */
    long i, W = J, hi = run_start(u, J - 1, u[J - 1]);
    *code = OK;
    for (i = 0; i < n; i++) {
        const double *uo = u + i * J;
        double *un = u + (i + 1) * J;
        double c = uo[J - 1], lam = k[i] / h, t = cfl_threshold(k[i], h);
        W = hi + 1;
        *code = explicit_step(kind, a, uo, W, g[i], k[i], h, t, speed, un, F,
                              value);
        if (W < J && (*code || !same(c - (F[W] - F[W]) * lam, c))) {
            W = J;
            *code = explicit_step(kind, a, uo, J, g[i], k[i], h, t, speed, un,
                                  F, value);
        }
        if (*code)
            break;
        fill(un + W, J - W, c);
        hi = run_start(un, W < J ? W : J - 1, un[J - 1]);
    }
    fill(F + W + 1, J - W, F[W]);
    return i;
}

/* r = (u - uo) + (F[1:] - F[:-1]) * lam, LANES cells at a time; returns
 * max|r| as np.maximum.reduce takes it: per-lane maxima, and NaN when
 * some |r| is NaN. */
static double residual(const double *u, const double *uo, const double *F,
                       long J, double lam, double *r)
{
    vd vlam = splat(lam), top = {0.0};
    vl nan = {0};
    long j = 0;
    for (; j + LANES <= J; j += LANES) {
        vd x = (load(u + j) - load(uo + j)) + (load(F + j + 1) - load(F + j)) * vlam;
        store(r + j, x);
        x = vabs(x);
        vl up = x > top;
        top = (vd)(((vl)x & up) | ((vl)top & ~up));
        nan |= x != x;
    }
    double res = 0.0;
    for (int q = 0; q < LANES; q++)
        res = top[q] > res ? top[q] : res;
    for (; j < J; j++) {
        r[j] = (u[j] - uo[j]) + (F[j + 1] - F[j]) * lam;
        res = nanmax(res, fabs(r[j]));
    }
    return any(nan) ? NAN : res;
}

/* The Newton system of the residual w->r from the derivative parts w->dp,
 * w->dm, LANES cells at a time: diag = (dp - dm) lam + 1 and r = -r on
 * the J cells, sup = dm lam and sub = dp (-lam) on the J - 1 interfaces
 * between them, and last the right ghost's row, which copies u_J:
 * 1 + lam (f'(u_J) - dm(u_J)). */
static void jacobian(struct work *w, long J, double lam)
{
    const double *dp = w->dp + 1, *dm = w->dm + 1;
    vd vlam = splat(lam), vmlam = splat(-lam), one = splat(1.0);
    long j = 0;
    for (; j + LANES <= J; j += LANES) {
        store(w->diag + j, (load(dp + j) - load(dm + j)) * vlam + one);
        store(w->r + j, -load(w->r + j));
    }
    for (; j < J; j++) {
        w->diag[j] = (dp[j] - dm[j]) * lam + 1.0;
        w->r[j] = -w->r[j];
    }
    for (j = 0; j + LANES <= J - 1; j += LANES) {
        store(w->sup + j, load(dm + j + 1) * vlam);
        store(w->sub + j, load(dp + j) * vmlam);
    }
    for (; j < J - 1; j++) {
        w->sup[j] = dm[j + 1] * lam;
        w->sub[j] = dp[j] * -lam;
    }
    w->diag[J - 1] = 1.0 + lam * ((dp[J] + dm[J]) - dm[J - 1]);
}

/* u += r, LANES cells at a time; returns whether every u is finite, and
 * sets *zero when some u was +0.0 or -0.0 before. */
static int add_finite(double *u, const double *r, long J, int *zero)
{
    vd z = {0.0};
    vl bad = {0}, was = {0};
    long j = 0;
    for (; j + LANES <= J; j += LANES) {
        vd old = load(u + j), x = old + load(r + j);
        store(u + j, x);
        bad |= (x - x) != z;           /* NaN exactly when x is not finite */
        was |= old == z;
    }
    int b = any(bad);
    *zero = any(was);
    for (; j < J; j++) {
        *zero |= u[j] == 0.0;
        u[j] += r[j];
        b |= !isfinite(u[j]);
    }
    return !b;
}

/* Newton on the cells [0, W) of un, which holds uo on entry, with the
 * fluxes F[0 .. W], as march_implicit takes a step over W cells: OK with
 * the step's record in *iters, *resid and *stop, or the failure's code
 * (and *value).  In the window (`window`) it returns WIDEN as soon as the
 * window's last row is not one of the stationary tail's. */
static int implicit_step(int kind, double a, const double *uo, long W,
                         int window, double g, double lam, double tol,
                         long max_iter, struct work *w, double *un, double *F,
                         int *iters, double *resid, signed char *stop,
                         double *value)
{
    double res = INFINITY, prev = INFINITY;
    for (long it = 1; it <= max_iter; it++) {
        int done = 0, zero;
        fluxes(kind, a, un, W, g, w->dp, w->dm, F, 0.0, NULL);
        res = residual(un, uo, F, W, lam, w->r);
        if (res <= tol)
            done = STOP_TOL;
        else if (!isfinite(res))
            return NONFINITE_RESIDUAL;
        else if (it > 3 && res >= 0.5 * prev) {
            double umax = 0.0, Fmax = 0.0;
            for (long j = 0; j < W; j++)
                umax = fmax(umax, fabs(un[j]));
            for (long j = 0; j <= W; j++)
                Fmax = fmax(Fmax, fabs(F[j]));
            if (res <= 8.0 * DBL_EPSILON * (umax + lam * Fmax))
                done = STOP_FLOOR;
        }
        if (done) {
            *iters = (int)it;
            *resid = res;
            *stop = (signed char)done;
            return OK;
        }
        prev = res;
        jacobian(w, W, lam);
        if (window && (w->r[W - 1] != 0.0 || (W > 1 && w->sub[W - 2] != 0.0)))
            return WIDEN;
        long info = dgtsv(W, w->sub, w->diag, w->sup, w->r);
        if (info) {
            *value = (double)info;
            return SINGULAR;
        }
        if (!add_finite(un, w->r, W, &zero))
            return NONFINITE_STATE;
        if (window && zero)
            return WIDEN;
    }
    *value = res;
    return STALLED;
}

/* Backward Euler over n steps, rows and g as in march_explicit: step i
 * reads the inflow g[i + 1] at its end.  Newton with full steps on
 *     r = (u - u_old) + lam (F[1:] - F[:-1]) = 0
 * and the analytic tridiagonal Jacobian, the residual, the Jacobian and
 * the update formed LANES cells at a time and the system solved by dgtsv.
 * It stops as converged when max|r| <= tol ("tol"), or at the round-off
 * floor ("floor"): after the third iteration, once max|r| <= 8 eps
 * (max|u| + lam max|F|), the size at which rounding alone leaves
 * lam (F[1:] - F[:-1]), while max|r| no longer halves.  iters, resid and
 * stop receive each step's iteration count, final max|r| and stop rule.
 * A failure leaves the last iterate in its row; *value holds the last
 * max|r| (STALLED, after max_iter iterations) or dgtsv's INFO
 * (SINGULAR).
 *
 * Each step runs in the active window, which is exact while the tail's
 * rows of the full system stay decoupled, with a zero right-hand side
 * and zero updates:
 *   - per step: lam >= 0 and lam |f'(c)| is finite, so the tail's
 *     diagonal (dp(c) - dm(c)) lam + 1 is finite and >= 1.  The tail's
 *     residuals are +0.0 and one of dp(c) and dm(c) is zero, so dgtsv
 *     eliminates nothing inside the tail and solves it to zeros;
 *   - per iteration: the window's last row, the tail's first, has a zero
 *     residual and no coupling to the cell on its left (sub[W - 2] = 0).
 *     Then dgtsv leaves the window's rows as the full system's, whose
 *     last row differs from the window's (the ghost) only in what
 *     multiplies the zero update there, and every update in the window
 *     is the full width's up to the sign of a zero;
 *   - no iterate holds +0.0 or -0.0 in the window, where that sign would
 *     show (u + (+0.0) and u + (-0.0) differ for u = -0.0), c included.
 * Otherwise the step widens, from the iteration at which a check fails:
 * when the shock reaches the window's last cell, or a state is a zero.
 * A linear flux with a > 0 couples every row to its left neighbour, so
 * its steps do not take the window at all. */
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
    long i, W = J, hi = run_start(u, J - 1, u[J - 1]);
    for (i = 0; i < n; i++) {
        const double *uo = u + i * J;
        double *un = u + (i + 1) * J;
        double lam = k[i] / h;
        double tail = lam * max_speed(kind, a, uo + J - 1, 1, 0.0);  /* lam |f'(c)| */
        W = lam >= 0.0 && isfinite(tail) && !(kind == LINEAR && a > 0.0)
            ? hi + 1 : J;
        memcpy(un, uo, sizeof(double) * J);
        *code = implicit_step(kind, a, uo, W, W < J, g[i + 1], lam, tol,
                              max_iter, &w, un, F, iters + i, resid + i,
                              stop + i, value);
        if (*code && W < J) {
            W = J;
            memcpy(un, uo, sizeof(double) * J);
            *code = implicit_step(kind, a, uo, J, 0, g[i + 1], lam, tol,
                                  max_iter, &w, un, F, iters + i, resid + i,
                                  stop + i, value);
        }
        if (*code)
            break;
        hi = run_start(un, W < J ? W : J - 1, un[J - 1]);
    }
    fill(F + W + 1, J - W, F[W]);
    free(w.block);
    return i;
}

/* The cell terms of one interval (see march_dual) into tk and th, and
 * their absolute values into ak and ah, LANES cells at a time. */
static inline __attribute__((always_inline))
void cell_terms(int kind, double a, long J, double ck, double ch,
                const double *u0, const double *u1, const double *psi,
                const double *wi, const double *F, double *tk, double *th,
                double *ak, double *ah)
{
    long j = 0;
    for (; j + LANES <= J; j += LANES) {
        vd x = load(u1 + j), w = load(wi + j);
        vd f = kind == BURGERS ? (0.5 * x) * x : a * x;
        vd c = kind == BURGERS ? x : splat(a);
        vd ek = (ck * (x - load(u0 + j))) * (load(psi + j) - c * w);
        vd eh = (ch * w) * ((load(F + j + 1) + load(F + j)) - 2.0 * f);
        store(tk + j, ek);
        store(th + j, eh);
        store(ak + j, vabs(ek));
        store(ah + j, vabs(eh));
    }
    for (; j < J; j++) {
        double f = kind == BURGERS ? (0.5 * u1[j]) * u1[j] : a * u1[j];
        double c = kind == BURGERS ? u1[j] : a;
        tk[j] = (ck * (u1[j] - u0[j])) * (psi[j] - c * wi[j]);
        th[j] = (ch * wi[j]) * ((F[j + 1] + F[j]) - 2.0 * f);
        ak[j] = fabs(tk[j]);
        ah[j] = fabs(th[j]);
    }
}

/* The inputs of the error breakdown (see march_dual) and its work rows:
 * F (J + 1) and tk, th, ak, ah (J each). */
struct breakdown {
    const double *k, *u, *g, *psi;
    const signed char *modes;
    double *out, *F, *tk, *th, *ak, *ah;
};

/* Interval i reduced to its four sums from its dual sample wi, while the
 * sample is still in cache. */
static void reduce_interval(const struct breakdown *b, long i, long J,
                            double h, int kind, double a, const double *wi)
{
    const double *u0 = b->u + i * J, *u1 = u0 + J;
    double ck = (-0.5 * b->k[i]) * h, ch = (b->k[i] * 0.5) * h;
    long at = i + (b->modes[i] != 0);      /* the stencil's time */
    fluxes(kind, a, b->u + at * J, J, b->g[at], NULL, NULL, b->F, 0.0, NULL);
    if (kind == BURGERS)
        cell_terms(BURGERS, a, J, ck, ch, u0, u1, b->psi, wi, b->F, b->tk,
                   b->th, b->ak, b->ah);
    else
        cell_terms(LINEAR, a, J, ck, ch, u0, u1, b->psi, wi, b->F, b->tk,
                   b->th, b->ak, b->ah);
    double *sums = b->out + 4 * i;
    sums[0] = np_sum(b->tk, J);
    sums[1] = np_sum(b->ak, J);
    sums[2] = np_sum(b->th, J);
    sums[3] = np_sum(b->ah, J);
}

/* The one backward sweep: the dual gradient's explicit march over n
 * intervals, from the last to the first, and the error breakdown of each
 * interval as soon as its dual sample exists.  The caller may sweep a
 * run in blocks of intervals, the last block first, one call each with
 * its arrays offset to the block: wext carries w from block to block.
 *
 * The march.  u holds the n + 1 states u[0] .. u[n] of J cells each, and
 * interval i has the frozen coefficient c = f'(u[i + 1]) of its end
 * state, J finite values (the caller checks them): the row u[i + 1]
 * itself for BURGERS, and for LINEAR one row of a, filled once.  It takes
 * m[i] substeps of length dt[i], and its sample is the profile after
 * substep (m + 1) / 2, copied to samples[i] unless samples is NULL.  wext
 * holds w between two zero ghost values, w at the end of interval n - 1
 * on entry and at the start of interval 0 on return.  With the
 * interface coefficient s = (c_left + c_right) / 2, edge cells extended,
 * split into ap = max(s, 0) and am = min(s, 0), each substep is
 *     S = ap w_right + am w_left,  w += lam (S[1:] - S[:-1]),  w += dt src
 * in two vector passes: the first writes all J + 1 values of S from the
 * old w, the second updates w from them.  (A NaN s would keep its NaN in
 * ap and am, where np.maximum does too; only a non-finite coefficient
 * gives one, and dual_substeps refuses those before any substep runs.)
 * When mass is not NULL it receives each substep's relative mass-balance
 * residual, in march order.
 *
 * The breakdown, unless out is NULL.  Interval i has length k[i], the
 * states u[i] and u[i + 1] and the sample w; its stencil is what the
 * forward march read, the row u[i] and the inflow g[i] (explicit,
 * modes[i] = 0) or the row u[i + 1] and g[i + 1] (implicit), from g's
 * n + 1 values.  psi holds the weight at the J cell centres.  Its cell
 * terms, in numpy's operation order, are
 *     eta_k = ((-0.5 k) h) (u1 - u0) (psi - f'(u1) w)
 *     eta_h = (((k 0.5) h) w) ((F_{j+1} + F_j) - 2 f(u1))
 * with f'(u1) = u1 for BURGERS and LINEAR's a, and the fluxes F of the
 * stencil, rebuilt as the forward march built them.  out receives n rows
 * of four: the np.sum of eta_k, of |eta_k|, of eta_h and of |eta_h| over
 * each interval's cells.  Each interval's sums depend on that
 * interval alone, so the order of the sweep moves no bit.  The march
 * reduces the sample right after the substep that takes it, from w
 * itself: no row of samples is needed, and none is written unless
 * samples is given.
 *
 * Returns the intervals completed: a non-finite w stops the march after
 * its interval, as the flag of the interval's last update pass shows (a
 * non-finite w_j stays so through every later substep); -1 is out of
 * memory. */
long march_dual(long n, long J, double h, const double *u, int kind, double a,
                const long *m, const double *dt, const double *src,
                double src_total, double *wext, double *samples, double *mass,
                const double *k, const signed char *modes, const double *g,
                const double *psi, double *out)
{
    double *block = malloc(sizeof(double) * (4 * (J + 1) + 7 * J));
    if (!block)
        return -1;
    double *ap = block, *am = ap + J + 1, *S = am + J + 1, *diff = S + J + 1,
           *absw = diff + J, *row = absw + J, *F = row + J, *tk = F + J + 1,
           *th = tk + J, *ak = th + J;
    struct breakdown b = {k, u, g, psi, modes, out, F, tk, th, ak, ak + J};
    for (long j = 0; kind != BURGERS && j < J; j++)
        row[j] = a;
    double *w = wext + 1;
    long done = 0;
    for (long i = n - 1; i >= 0; i--) {
        const double *ci = kind == BURGERS ? u + (i + 1) * J : row;
        double lam = dt[i] / h, dti = dt[i];
        long sample_at = (m[i] + 1) / 2;
        long q = 1;
        for (; q + LANES <= J; q += LANES) {
            vd s = (load(ci + q - 1) + load(ci + q)) * 0.5;
            store(ap + q, vpos(s));
            store(am + q, vneg(s));
        }
        for (; q < J; q++) {
            double s = (ci[q - 1] + ci[q]) * 0.5;
            ap[q] = pos(s);
            am[q] = neg(s);
        }
        double s0 = (ci[0] + ci[0]) * 0.5, sJ = (ci[J - 1] + ci[J - 1]) * 0.5;
        ap[0] = pos(s0);
        am[0] = neg(s0);
        ap[J] = pos(sJ);
        am[J] = neg(sJ);
        int bad = 0;
        for (long step = 1; step <= m[i]; step++) {
            dual_fluxes(ap, am, wext, J, S);
            if (mass) {
                bad = dual_update(w, S, src, J, lam, dti, diff, absw);
                /* telescoping mass balance of the conservative update */
                double G0 = -S[0], GJ = -S[J];
                double resid = fabs(h * np_sum(diff, J) + dti * (GJ - G0)
                                    - dti * src_total);
                double scale = h * np_sum(absw, J) + fabs(dti * src_total)
                               + dti * (fabs(G0) + fabs(GJ)) + 1e-300;
                *mass++ = resid / scale;
            } else {
                bad = dual_update(w, S, src, J, lam, dti, NULL, NULL);
            }
            if (step == sample_at) {
                if (samples)
                    memcpy(samples + i * J, w, sizeof(double) * J);
                if (out)
                    reduce_interval(&b, i, J, h, kind, a, w);
            }
        }
        if (bad)
            break;
        done++;
    }
    free(block);
    return done;
}

/* The proposal walk of adaptivity.propose_timesteps over the old times
 * t_old[0 .. n] (n intervals, their steps k_m in km) on [0, T]: from t,
 * the step is the k_m of the interval holding t + eps (bisect_left),
 * cut back to the first old boundary it would cross whose own k_m is
 * smaller than the gap left beyond it, and clipped at T.  Returns the
 * count of times, 0 and T included, and writes them to times unless that
 * is NULL (the count pass).  A step that leaves t unchanged stops the
 * walk: the return is -1, with the step and t in stuck[0] and stuck[1].
 * The count pass also stops when the walk needs more times than a 64-bit
 * address space holds: steps from interval i are at most km[i] long, so
 * leaving it from t takes at least (t_old[i + 1] - eps - t) / km[i] of
 * them.  The return is then -2, with that lower bound on the count and t
 * in stuck[0] and stuck[1]. */
long propose_walk(long n, const double *t_old, const double *km, double T,
                  double *times, double *stuck)
{
    const double most = 0x1p64 / sizeof(double);
    double t = 0.0, eps = 1e-12 * T;
    long count = 1;
    if (times)
        times[0] = 0.0;
    while (t < T - eps) {
        /* Python's bisect_left over all n + 1 times */
        long lo = 0, hi = n + 1;
        while (lo < hi) {
            long mid = (lo + hi) / 2;
            if (t_old[mid] < t + eps)
                lo = mid + 1;
            else
                hi = mid;
        }
        long i = lo - 1;
        i = i < 0 ? 0 : i > n - 1 ? n - 1 : i;
        double step = km[i];
        for (long m = i + 1; m < n; m++) {
            double b = t_old[m];
            if (b >= t + step)
                break;
            if (km[m] < (t + step) - b) {
                step = b - t;
                break;
            }
        }
        if (t + step > T)
            step = T - t;
        if (t + step == t) {
            stuck[0] = step;
            stuck[1] = t;
            return -1;
        }
        if (!times) {
            double need = (double)count
                + ((i < n - 1 ? t_old[i + 1] : T) - eps - t) / km[i];
            if (!(need <= most)) {
                stuck[0] = need;
                stuck[1] = t;
                return -2;
            }
        }
        t += step;
        if (times)
            times[count] = t;
        count++;
    }
    return count;
}

/* The steps adaptivity.assign_modes lays over n segments [edges[i],
 * edges[i + 1]] of planning CFL cfl[i] and wave speed speed[i].  A
 * segment at CFL >= cfl_switch stays implicit, cut into
 *     pieces = max(ceil(cfl / cfl_cap - 1e-12), 1)
 * equal steps; each maximal run of segments below it is one span [ta, tb]
 * laid with
 *     ne = max(ceil((tb - ta) s / cfl_h - 1e-12), 1)
 * equal explicit steps, s the run's largest speed (one step when s is
 * 0), cfl_h the explicit CFL times h.  Piece p of P ends at
 * t0 + ((t1 - t0) p) / P, the last at t1 itself.  Returns the count of
 * steps, and unless times is NULL (the count pass) writes their end
 * times to times[1 ..] and their modes, explicit (0) or implicit (1), to
 * modes.  A segment whose count, or the running total, would not fit a
 * long stops the count pass: it returns -(i + 1) for segment i.  cfl
 * holds no NaN. */
long lay_steps(long n, const double *edges, const double *speed,
               const double *cfl, double cfl_switch, double cfl_cap,
               double cfl_h, double *times, signed char *modes)
{
    const double most = (double)(LONG_MAX / 2);
    long count = 0;
    if (times)
        times[0] = 0.0;
    for (long i = 0; i < n;) {
        double t0 = edges[i], t1, c;
        signed char mode;
        long j = i;
        if (cfl[i] >= cfl_switch) {
            t1 = edges[++j];
            c = ceil(cfl[i] / cfl_cap - 1e-12);
            mode = 1;
        } else {
            double s = 0.0;
            while (j < n && cfl[j] < cfl_switch) {
                s = speed[j] > s ? speed[j] : s;
                j++;
            }
            t1 = edges[j];
            c = s > 0.0 ? ceil(((t1 - t0) * s) / cfl_h - 1e-12) : 1.0;
            mode = 0;
        }
        if (!(c <= most - (double)count))
            return -(i + 1);
        long pieces = c < 1.0 ? 1 : (long)c;
        if (times)
            for (long p = 1; p <= pieces; p++) {
                times[count + p] = p == pieces
                    ? t1 : t0 + ((t1 - t0) * (double)p) / (double)pieces;
                modes[count + p - 1] = mode;
            }
        count += pieces;
        i = j;
    }
    return count;
}

/* testcase.py's departure map on one shock window, a filter in front of
 * numpy's map: testcase._below asks numpy only about the points this
 * kernel cannot decide, so every table value still comes from numpy alone.
 * w = (amp, a, b, norm, scale, omega, x0).  At each of the n points
 * tau[i] it evaluates, in numpy's operation order (testcase._window_path,
 * _departure_time), with ta = tau - a, tb = tau - b,
 *     theta = amp ta^4 tb^4 / norm,
 *     dtheta = amp 4 (ta^3 tb^4 + ta^4 tb^3) / norm,
 *     s = x0 + scale theta sin(omega ta),
 *     sdot = scale (dtheta sin(omega ta) + theta omega cos(omega ta)),
 *     dep = tau - s / (1 + 2 sdot),
 * but with the powers as products and libm's sin and cos, so not with
 * numpy's bits.  Beside dep it bounds |dep - numpy's dep| by e, to first
 * order: both evaluations start from the same ta, tb and omega ta, their
 * factors ta^3, ta^4, tb^3, tb^4, sin and cos differ by at most R
 * relative (measured with numpy 2.4 on an AVX-512F host: numpy's pow
 * within 0.7 ulp of the exact power, the products within 1.9 ulps,
 * numpy's and libm's sin and cos within 0.52), and every later
 * operation rounds on both sides (ROUNDS).  e is
 * infinite where an intermediate nears overflow, or where u_L = 1 + 2 sdot
 * is not clear of 0.
 *
 * Without targets (x NULL) it writes dep and sdot.  With targets,
 * verdict[i] is 1 where x[i] - dep > e, so numpy's departure is below
 * x[i]; 0 where dep - x[i] > e, so it is not; and -1, undecided, where
 * neither holds, NaN included.  Near the root x[i] - dep is exact
 * (Sterbenz), and elsewhere it rounds monotonically, so a verdict drawn
 * from the rounded difference holds for the exact one. */
#define U (DBL_EPSILON / 2)
#define R (4 * DBL_EPSILON)
/* one rounding of the value v on each side: 2 U |v|, or the subnormal
 * spacing, where the relative bound fails */
#define ROUNDS(v) (2 * U * fabs(v) + DBL_MIN)

void departure_filter(long n, const double *tau, const double *w,
                      const double *x, double *dep, double *sdot,
                      signed char *verdict)
{
    const double amp = w[0], a = w[1], b = w[2], norm = w[3], scale = w[4],
                 omega = w[5], x0 = w[6];
    for (long i = 0; i < n; i++) {
        double t = tau[i], ta = t - a, tb = t - b, ta2 = ta * ta, tb2 = tb * tb;
        double ta3 = ta2 * ta, ta4 = ta2 * ta2, tb3 = tb2 * tb, tb4 = tb2 * tb2;
        double sn = sin(omega * ta), cs = cos(omega * ta);
        double m1 = amp * ta4, th0 = m1 * tb4, theta = th0 / norm;
        double A = ta3 * tb4, B = ta4 * tb3, S0 = A + B;
        double d0 = amp * 4.0 * S0, dtheta = d0 / norm;
        double st = scale * theta, P = st * sn, s = x0 + P;
        double T1 = dtheta * sn, tw = theta * omega, T2 = tw * cs, S = T1 + T2;
        double sd = scale * S, uL = 1.0 + 2.0 * sd, q = s / uL, d = t - q;
        if (!x) {
            dep[i] = d;
            sdot[i] = sd;
            continue;
        }
        /* the distance of each value above from numpy's */
        double eta3 = R * fabs(ta3) + DBL_MIN, eta4 = R * fabs(ta4) + DBL_MIN;
        double etb3 = R * fabs(tb3) + DBL_MIN, etb4 = R * fabs(tb4) + DBL_MIN;
        double esn = R * fabs(sn) + DBL_MIN, ecs = R * fabs(cs) + DBL_MIN;
        double em1 = fabs(amp) * eta4 + ROUNDS(m1);
        double eth0 = fabs(tb4) * em1 + fabs(m1) * etb4 + ROUNDS(th0);
        double eth = eth0 / fabs(norm) + ROUNDS(theta);
        double eA = fabs(tb4) * eta3 + fabs(ta3) * etb4 + ROUNDS(A);
        double eB = fabs(tb3) * eta4 + fabs(ta4) * etb3 + ROUNDS(B);
        double eS0 = eA + eB + ROUNDS(S0);
        double ed0 = fabs(amp * 4.0) * eS0 + ROUNDS(d0);
        double edth = ed0 / fabs(norm) + ROUNDS(dtheta);
        double est = fabs(scale) * eth + ROUNDS(st);
        double eP = fabs(sn) * est + fabs(st) * esn + ROUNDS(P);
        double es = eP + ROUNDS(s);
        double eT1 = fabs(sn) * edth + fabs(dtheta) * esn + ROUNDS(T1);
        double etw = fabs(omega) * eth + ROUNDS(tw);
        double eT2 = fabs(cs) * etw + fabs(tw) * ecs + ROUNDS(T2);
        double eS = eT1 + eT2 + ROUNDS(S);
        double esd = fabs(scale) * eS + ROUNDS(sd);
        double euL = 2.0 * esd + ROUNDS(uL);
        double eq = (es + fabs(q) * euL) / (fabs(uL) - euL) + ROUNDS(q);
        /* the neglected second-order terms and the rounding of e itself
         * stay far below 2^-30 of e */
        double e = (eq + ROUNDS(d)) * (1.0 + 0x1p-30);
        double size = fabs(ta3) + fabs(ta4) + fabs(tb3) + fabs(tb4)
            + fabs(m1) + fabs(th0) + fabs(theta) + fabs(A) + fabs(B)
            + fabs(d0) + fabs(dtheta) + fabs(st) + fabs(P) + fabs(s)
            + fabs(T1) + fabs(tw) + fabs(T2) + fabs(sd) + fabs(uL) + fabs(q);
        if (!(size < 0x1p1000 && fabs(uL) > euL))
            e = INFINITY;
        verdict[i] = x[i] - d > e ? 1 : d - x[i] > e ? 0 : -1;
    }
}
