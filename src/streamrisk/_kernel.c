/* Replicate kernel of streamrisk.experiments: advances `lanes` replicates
 * through `span` steps of the joint recursion, one lane at a time with its
 * state in registers.  Operation for operation this is estimators.step, so it
 * must be compiled without floating-point contraction (-ffp-contract=off).
 *
 * x[l * span + t]      draw of lane l at step n0 + t (lane-major)
 * gain_a[t], gain_b[t] the gains of step n0 + t
 * state[k * ld + l]    estimator k of lane l, in the order theta, theta_bar,
 *                      embedded, classical, bardou; read and written back
 * cp[0..ncp)           ascending step counts in 1..span after which the five
 *                      estimators go to snap[(c * 5 + k) * ld + l]
 */
#include <stdint.h>

void advance(int64_t lanes, int64_t span, int64_t n0, const double *x,
             const double *gain_a, const double *gain_b, double alpha, double inv1ma,
             double *state, int64_t ld, int64_t ncp, const int64_t *cp, double *snap)
{
    for (int64_t l = 0; l < lanes; l++) {
        const double *xl = x + l * span;
        double theta = state[l], theta_bar = state[ld + l];
        double sq_e = state[2 * ld + l], sq_c = state[3 * ld + l], sq_b = state[4 * ld + l];
        int64_t c = 0;
        for (int64_t t = 0; t < span; t++) {
            int64_t n = n0 + t;
            double xt = xl[t], a_n = gain_a[t], b_n = gain_b[t];
            double theta_old = theta;
            double ind_bar = (double)(xt > theta_bar);
            double ind_th = (double)(xt > theta_old);
            double ind_q = (double)(xt <= theta_old);

            theta = (theta_old - ind_q * a_n) + a_n * alpha;
            double cn = (double)n / (double)(n + 1);
            double cn1 = 1.0 / (double)(n + 1);
            theta_bar = theta_bar * cn + theta * cn1;

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
