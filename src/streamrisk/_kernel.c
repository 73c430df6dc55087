/* Replicate kernel of streamrisk.experiments.
 *
 * step_table fills a chunk's step table: the quantities that all lanes share
 * at each step, computed once per chunk with libm's pow, as CPython's float
 * ** computes StepSchedule.gain_a/gain_b, so each entry equals the scalar
 * reference's.  advance walks `lanes` replicates through `span` steps of the
 * joint recursion (a chunk ends at each checkpoint, where the caller records
 * the state), two lanes per vector with their state in registers; an odd
 * last lane fills both halves of its vector and only one is written back.  The
 * vectors are GCC vector extensions, whose operations are IEEE per element, and
 * the indicators are comparison masks ANDed with the bits of 1.0, so a lane
 * takes no branch on its data and rounds exactly as the scalar code would.
 * Operation for operation this is estimators.step, so the file must be
 * compiled without floating-point contraction (-ffp-contract=off) and without
 * any flag that lets the compiler replace pow (-ffast-math, vector math
 * libraries).
 *
 * table[r * ldt + t]   row r at step n = n0 + t: 0 gain_a(max(n, 1)),
 *                      1 gain_b(n), 2 n / (n + 1), 3 1 / (n + 1)
 * x[l * span + t]      draw of lane l at step n0 + t (lane-major)
 * state[k * ld + l]    estimator k of lane l, in the order theta, theta_bar,
 *                      embedded, classical, bardou; read and written back
 */
#include <stdint.h>

/* libm's pow, declared here rather than through <math.h>, whose parsing is
 * about a tenth of the compile (C11 7.1.4 allows the declaration). */
double pow(double, double);

void step_table(int64_t span, int64_t n0, double a1, double a_exp, double b1, double b_exp,
                double *table, int64_t ldt)
{
    for (int64_t t = 0; t < span; t++) {
        int64_t n = n0 + t;
        table[t] = a1 * pow((double)(n > 1 ? n : 1), -a_exp);
        table[ldt + t] = b1 * pow((double)(n + 1), -b_exp);
        table[2 * ldt + t] = (double)n / (double)(n + 1);
        table[3 * ldt + t] = 1.0 / (double)(n + 1);
    }
}

/* 16 bytes: one SSE2 register.  Wider vectors without AVX are lowered
 * piecewise, and run slower than scalar code. */
typedef double v2d __attribute__((vector_size(16)));
typedef int64_t v2i __attribute__((vector_size(16)));

/* 1.0 where the comparison mask is set, else +0.0: as (double)(a > b), without a branch. */
static inline v2d indicator(v2i mask)
{
    const v2d one = {1.0, 1.0};
    return (v2d)(mask & (v2i)one);
}

static inline v2d splat(double a)
{
    return (v2d){a, a};
}

/* Lane l's value at p[0] and its partner's at p[d]. */
static inline v2d load_pair(const double *p, int64_t d)
{
    return (v2d){p[0], p[d]};
}

/* The partner's half is not written when d = 0: an odd last lane rides alone. */
static inline void store_pair(double *p, int64_t d, v2d v)
{
    p[0] = v[0];
    if (d)
        p[d] = v[1];
}

void advance(int64_t lanes, int64_t span, const double *x, const double *table, int64_t ldt,
             double alpha, double inv1ma, double *state, int64_t ld)
{
    const double *gain_a = table, *gain_b = table + ldt;
    const double *cn = table + 2 * ldt, *cn1 = table + 3 * ldt;
    const v2d valpha = splat(alpha), vinv1ma = splat(inv1ma), one = splat(1.0);
    for (int64_t l = 0; l < lanes; l += 2) {
        int64_t d = l + 1 < lanes ? 1 : 0;  /* lane l + d is l's partner */
        const double *x0 = x + l * span, *x1 = x + (l + d) * span;
        double *st = state + l;
        v2d theta = load_pair(st, d), theta_bar = load_pair(st + ld, d);
        v2d sq_e = load_pair(st + 2 * ld, d), sq_c = load_pair(st + 3 * ld, d);
        v2d sq_b = load_pair(st + 4 * ld, d);
        for (int64_t t = 0; t < span; t++) {
            v2d xt = {x0[t], x1[t]};
            v2d a_n = splat(gain_a[t]), b_n = splat(gain_b[t]);
            v2d theta_old = theta;
            v2d ind_bar = indicator((v2i)(xt > theta_bar));
            v2d ind_th = indicator((v2i)(xt > theta_old));
            v2d ind_q = indicator((v2i)(xt <= theta_old));

            theta = (theta_old - ind_q * a_n) + a_n * valpha;
            theta_bar = theta_bar * splat(cn[t]) + theta * splat(cn1[t]);

            v2d scale = b_n * vinv1ma;
            sq_e = sq_e * (one - b_n) + (xt * ind_bar) * scale;
            sq_c = sq_c * (one - b_n) + (xt * ind_th) * scale;
            v2d target = ((xt - theta_old) * vinv1ma) * ind_th + theta_old;
            sq_b = sq_b * (one - b_n) + target * b_n;
        }
        store_pair(st, d, theta);
        store_pair(st + ld, d, theta_bar);
        store_pair(st + 2 * ld, d, sq_e);
        store_pair(st + 3 * ld, d, sq_c);
        store_pair(st + 4 * ld, d, sq_b);
    }
}
