/* Replicate kernel of streamrisk.experiments.
 *
 * step_table fills a chunk's step table: the quantities that all lanes share
 * at each step, computed once per chunk with libm's pow, as CPython's float
 * ** computes StepSchedule.gain_a/gain_b, so each entry equals the scalar
 * reference's.  advance walks `lanes` replicates through `span` steps of the
 * joint recursion, one lane at a time with its state in registers.  Operation
 * for operation this is estimators.step, so the file must be compiled without
 * floating-point contraction (-ffp-contract=off) and without any flag that
 * lets the compiler replace pow (-ffast-math, vector math libraries).
 *
 * table[r * ldt + t]   row r at step n = n0 + t: 0 gain_a(max(n, 1)),
 *                      1 gain_b(n), 2 n / (n + 1), 3 1 / (n + 1)
 * x[l * span + t]      draw of lane l at step n0 + t (lane-major)
 * state[k * ld + l]    estimator k of lane l, in the order theta, theta_bar,
 *                      embedded, classical, bardou; read and written back
 * cp[0..ncp)           ascending step counts in 1..span after which the five
 *                      estimators go to snap[(c * 5 + k) * ld + l]
 */
#include <math.h>
#include <stdint.h>

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

void advance(int64_t lanes, int64_t span, const double *x, const double *table, int64_t ldt,
             double alpha, double inv1ma, double *state, int64_t ld, int64_t ncp,
             const int64_t *cp, double *snap)
{
    const double *gain_a = table, *gain_b = table + ldt;
    const double *cn = table + 2 * ldt, *cn1 = table + 3 * ldt;
    for (int64_t l = 0; l < lanes; l++) {
        const double *xl = x + l * span;
        double theta = state[l], theta_bar = state[ld + l];
        double sq_e = state[2 * ld + l], sq_c = state[3 * ld + l], sq_b = state[4 * ld + l];
        int64_t c = 0;
        for (int64_t t = 0; t < span; t++) {
            double xt = xl[t], a_n = gain_a[t], b_n = gain_b[t];
            double theta_old = theta;
            double ind_bar = (double)(xt > theta_bar);
            double ind_th = (double)(xt > theta_old);
            double ind_q = (double)(xt <= theta_old);

            theta = (theta_old - ind_q * a_n) + a_n * alpha;
            theta_bar = theta_bar * cn[t] + theta * cn1[t];

            double scale = b_n * inv1ma;
            sq_e = sq_e * (1.0 - b_n) + (xt * ind_bar) * scale;
            sq_c = sq_c * (1.0 - b_n) + (xt * ind_th) * scale;
            double target = ((xt - theta_old) * inv1ma) * ind_th + theta_old;
            sq_b = sq_b * (1.0 - b_n) + target * b_n;

            if (c < ncp && t + 1 == cp[c]) {
                double *s = snap + c * 5 * ld + l;
                s[0] = theta;
                s[ld] = theta_bar;
                s[2 * ld] = sq_e;
                s[3 * ld] = sq_c;
                s[4 * ld] = sq_b;
                c++;
            }
        }
        state[l] = theta;
        state[ld + l] = theta_bar;
        state[2 * ld + l] = sq_e;
        state[3 * ld + l] = sq_c;
        state[4 * ld + l] = sq_b;
    }
}
