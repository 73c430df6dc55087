/* Gaussian inverse-cdf transform of streamrisk.distributions.
 *
 * normal_quantile writes x[i] = mean + sd * ndtri(u[i]) for i < n, where
 * ndtri is Cephes' inverse of the standard normal cdf (S. L. Moshier), the
 * routine scipy.special.ndtri runs.  Operation for operation it is that
 * routine, and distributions._ndtri, with libm's log and sqrt, so the file
 * must be compiled without floating-point contraction (-ffp-contract=off) and
 * without any flag that lets the compiler replace log or sqrt (-ffast-math,
 * vector math libraries): either changes the last bit of some draws.
 *
 * ndtri(0) = -inf, ndtri(1) = inf, and u outside [0, 1] or NaN gives NaN.
 * The polynomial loops are unrolled: at -O2 gcc keeps them as loops, which
 * costs about 4 ns of the 26 ns a draw takes.
 */
#include <math.h>
#include <stdint.h>

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
#pragma GCC unroll 16
    for (int i = 1; i <= n; i++)
        ans = ans * x + c[i];
    return ans;
}

/* x^n + c[0] x^(n-1) + ... + c[n-1] */
static double p1evl(double x, const double *c, int n)
{
    double ans = x + c[0];
#pragma GCC unroll 16
    for (int i = 1; i < n; i++)
        ans = ans * x + c[i];
    return ans;
}

static double ndtri(double y0)
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
    if (y > EXP_M2) {
        y = y - 0.5;
        double y2 = y * y;
        double x = y + y * (y2 * polevl(y2, P0, 4) / p1evl(y2, Q0, 8));
        return x * S2PI;
    }
    double x = sqrt(-2.0 * log(y));
    double x0 = x - log(x) / x;
    double z = 1.0 / x;
    double x1;
    if (x < 8.0)
        x1 = z * polevl(z, P1, 8) / p1evl(z, Q1, 8);
    else
        x1 = z * polevl(z, P2, 8) / p1evl(z, Q2, 8);
    x = x0 - x1;
    return negate ? -x : x;
}

void normal_quantile(int64_t n, const double *u, double mean, double sd, double *x)
{
    for (int64_t i = 0; i < n; i++)
        x[i] = mean + sd * ndtri(u[i]);
}
