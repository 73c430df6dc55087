/* Gaussian inverse-cdf transform of streamrisk.distributions.
 *
 * normal_quantile writes x[i] = mean + sd * ndtri(u[i]) for i < n, where
 * ndtri is Cephes' inverse of the standard normal cdf (S. L. Moshier).
 * Operation for operation it is that routine, and distributions._ndtri, with
 * libm's log and sqrt, so the file must be compiled without floating-point
 * contraction (-ffp-contract=off) and without any flag that lets the compiler
 * replace log or sqrt (-ffast-math, vector math libraries): either changes the
 * last bit of some draws.
 *
 * ndtri(0) = -inf, ndtri(1) = inf, and u outside [0, 1] or NaN gives NaN.
 * The draws go in blocks of BLOCK, with no branch on a draw's value: every draw
 * takes the central approximation, two per vector (GCC vector extensions:
 * IEEE operations per element, which round as the scalar ones); the tail draws
 * are then compacted and redone, their log and sqrt in a scalar loop, their
 * P1/Q1 polynomials two per vector.  The scalar far_tail redoes the few draws
 * those passes leave over: 0, 1, NaN, values outside [0, 1], and y <= exp(-32).
 * The tests pin every path to distributions._ndtri and to Cephes' own ndtri.
 * The vector polynomial loops are unrolled: at -O2 gcc keeps them as loops,
 * which costs about 3-4 ns of the 14-19 ns a draw takes.
 */
#include <stdint.h>

/* libm's log and sqrt, declared here rather than through <math.h>, whose
 * parsing is about a tenth of the compile (C11 7.1.4 allows the declarations). */
double log(double);
double sqrt(double);
#define INFINITY __builtin_inf()
#define NAN __builtin_nan("")

/* exp(-2): the split between the central and the tail approximations. */
#define EXP_M2 0.13533528323661269189
#define S2PI 2.50662827463100050242E0

/* Approximation for 0 <= |u - 0.5| <= 1/2 - exp(-2). */
static const double P0[5] = {
    -5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
    1.39312609387279679503E1, -1.23916583867381258016E0,
};
static const double Q0[8] = {
    1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
    -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
    1.59056225126211695515E1, -1.18331621121330003142E0,
};
/* Approximation for z = sqrt(-2 log y) in [2, 8), y in (exp(-32), exp(-2)]. */
static const double P1[9] = {
    4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
    4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
    -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4,
};
static const double Q1[8] = {
    1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
    1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
    -3.80806407691578277194E-2, -9.33259480895457427372E-4,
};
/* Approximation for z = sqrt(-2 log y) >= 8, y <= exp(-32). */
static const double P2[9] = {
    3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
    1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
    3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9,
};
static const double Q2[8] = {
    6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
    2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
    2.89247864745380683936E-6, 6.79019408009981274425E-9,
};

/* c[0] x^n + ... + c[n] */
static double polevl(double x, const double *c, int n)
{
    double ans = c[0];
    for (int i = 1; i <= n; i++)
        ans = ans * x + c[i];
    return ans;
}

/* x^n + c[0] x^(n-1) + ... + c[n-1] */
static double p1evl(double x, const double *c, int n)
{
    double ans = x + c[0];
    for (int i = 1; i < n; i++)
        ans = ans * x + c[i];
    return ans;
}

/* ndtri of the draws the vector passes leave over: 0, 1, NaN, values outside
 * [0, 1], and the far tails, y <= exp(-32), which take the P2/Q2 approximation. */
static double far_tail(double y0)
{
    if (y0 == 0.0)
        return -INFINITY;
    if (y0 == 1.0)
        return INFINITY;
    if (!(y0 > 0.0 && y0 < 1.0))
        return NAN;
    int negate = 1;
    double y = y0;
    if (y > 1.0 - EXP_M2) {
        y = 1.0 - y;
        negate = 0;
    }
    double x = sqrt(-2.0 * log(y));
    double x0 = x - log(x) / x;
    double z = 1.0 / x;
    double x1 = z * polevl(z, P2, 8) / p1evl(z, Q2, 8);
    x = x0 - x1;
    return negate ? -x : x;
}

typedef double v2d __attribute__((vector_size(16)));
typedef int64_t v2i __attribute__((vector_size(16)));

static inline v2d splat(double a)
{
    return (v2d){a, a};
}

/* polevl and p1evl of two arguments at once. */
static inline v2d polevl2(v2d x, const double *c, int n)
{
    v2d ans = splat(c[0]);
#pragma GCC unroll 16
    for (int i = 1; i <= n; i++)
        ans = ans * x + splat(c[i]);
    return ans;
}

static inline v2d p1evl2(v2d x, const double *c, int n)
{
    v2d ans = x + splat(c[0]);
#pragma GCC unroll 16
    for (int i = 1; i < n; i++)
        ans = ans * x + splat(c[i]);
    return ans;
}

/* ndtri's central approximation: ndtri(y0) for y0 in (exp(-2), 1 - exp(-2)]. */
static inline v2d central(v2d y0)
{
    v2d y = y0 - splat(0.5);
    v2d y2 = y * y;
    v2d x = y + y * (y2 * polevl2(y2, P0, 4) / p1evl2(y2, Q0, 8));
    return x * splat(S2PI);
}

/* ndtri's tail approximation from x = sqrt(-2 log y) in [2, 8) and lx =
 * log(x), negated where neg is -0.0 (its sign bit flips the result's). */
static inline v2d tail(v2d x, v2d lx, v2d neg)
{
    v2d x0 = x - lx / x;
    v2d z = splat(1.0) / x;
    v2d x1 = z * polevl2(z, P1, 8) / p1evl2(z, Q1, 8);
    return (v2d)((v2i)(x0 - x1) ^ (v2i)neg);
}

#define BLOCK 256

/* Draws u[0..m), m <= BLOCK, into x. */
static void block(int m, const double *u, double mean, double sd, double *x)
{
    const v2d vmean = splat(mean), vsd = splat(sd);
    /* Tail draw k is u[idx[k]] = y0[k]; y[k] is what ndtri takes the log of,
     * neg[k] its sign, tx[k] and lx[k] its x and log(x).  The spare last slot
     * pads an odd count of tails to whole vectors. */
    double y0[BLOCK + 1], y[BLOCK + 1], neg[BLOCK + 1], tx[BLOCK + 1], lx[BLOCK + 1];
    int idx[BLOCK], redo[BLOCK];
    int nt = 0;
    for (int i = 0; i < m; i++) {
        idx[nt] = i;
        y0[nt] = u[i];
        nt += !((u[i] > EXP_M2) & (u[i] <= 1.0 - EXP_M2));
    }

    for (int i = 0; i < m; i += 2) {
        int j = i + 1 < m ? i + 1 : i;  /* an odd last draw fills both halves */
        v2d r = vmean + vsd * central((v2d){u[i], u[j]});
        x[i] = r[0];
        x[j] = r[1];
    }

    /* Above 1 - exp(-2), y = 1 - y0 and the result keeps its sign; below, y =
     * y0 and the result is negated.  Both are selected on the comparison mask. */
    y0[nt] = 0.5;
    for (int k = 0; k < nt; k += 2) {
        v2d v = {y0[k], y0[k + 1]};
        v2i upper = (v2i)(v > splat(1.0 - EXP_M2));
        v2d w = (v2d)((upper & (v2i)(splat(1.0) - v)) | (~upper & (v2i)v));
        v2d s = (v2d)(~upper & (v2i)splat(-0.0));
        y[k] = w[0], y[k + 1] = w[1];
        neg[k] = s[0], neg[k + 1] = s[1];
    }
    /* x >= 8 takes ndtri's P2/Q2 approximation; 0, 1, NaN and values outside
     * [0, 1] make x infinite or NaN.  far_tail redoes all of them. */
    int nr = 0;
    for (int k = 0; k < nt; k++) {
        double t = sqrt(-2.0 * log(y[k]));
        tx[k] = t;
        lx[k] = log(t);
        redo[nr] = k;
        nr += !(t < 8.0);
    }
    tx[nt] = lx[nt] = 1.0;
    for (int k = 0; k < nt; k += 2) {
        v2d r = vmean + vsd * tail((v2d){tx[k], tx[k + 1]}, (v2d){lx[k], lx[k + 1]},
                                    (v2d){neg[k], neg[k + 1]});
        x[idx[k]] = r[0];
        if (k + 1 < nt)
            x[idx[k + 1]] = r[1];
    }
    for (int j = 0; j < nr; j++)
        x[idx[redo[j]]] = mean + sd * far_tail(y0[redo[j]]);
}

void normal_quantile(int64_t n, const double *u, double mean, double sd, double *x)
{
    for (int64_t i = 0; i < n; i += BLOCK)
        block(n - i < BLOCK ? (int)(n - i) : BLOCK, u + i, mean, sd, x + i);
}
