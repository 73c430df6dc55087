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
 * takes the central approximation, W per vector (_simd.h's vectors, whose
 * operations round as the scalar ones), and that pass's comparison masks
 * append the tail draws to a compacted list.  The tails are then redone,
 * their log and sqrt with libm's, as the scalar routine calls them, each call
 * in a loop of its own over the block's tails (log(y), then sqrt(-2 log y),
 * then log(x)), so the core overlaps the calls of different draws (one loop
 * of the whole chain took 6.5 against 5.7-5.9 ns per uniform draw and
 * 17.5-18.3 against 15.4-16.2 per tail draw at 4 doubles), and the rest W per
 * vector: each lane takes the P1/Q1 or the P2/Q2 polynomials on a comparison
 * mask, and masks give 0, 1, NaN and values outside [0, 1] their results.  So
 * every tail draw takes one path, and the results are the same bits at every
 * width.  The tests pin both passes to
 * distributions._ndtri and to Cephes' own ndtri.  The vector polynomial
 * loops are unrolled: at -O2 gcc keeps them as loops, and a uniform draw then
 * takes about 2 ns more (9.6 against 7.6 ns at 4 doubles, 12.1 against 10.0
 * at 2; the fastest of 150 calls on 2^17 draws, AVX-512 Xeon).
 *
 * Where gcc targets AVX-512 F, DQ and VL, W is 8 (set here, before _simd.h
 * picks 4 or 2), and three steps use AVX-512 instructions through gcc's
 * builtins: the central pass lists a vector's tails by one compress-store of
 * their values and one of their indices, where other targets append them
 * lane by lane; sqrt(-2 log y) is one vector sqrt per 8 tails, which rounds
 * correctly as libm's sqrt does, so the bits are the same; and the tail pass
 * writes a vector's results back by one masked scatter.  The two logs stay
 * libm calls, one loop each, and they set the floor.  Per draw, 2^17 draws,
 * medians of 30 alternating rounds against 4 doubles on an AVX-512 Xeon:
 * uniform 5.1 -> 4.0 ns, central 1.9 -> 1.3, tail only 15.6 -> 12.3.
 */
#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__) && !defined(__clang__)
#define W 8
#endif
#include "_simd.h"

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

/* Lane j of a where the mask m is set, else of b. */
static inline vd pick(vi m, vd a, vd b)
{
    return (vd)((m & (vi)a) | (~m & (vi)b));
}

/* Cephes' polevl, c[0] x^n + ... + c[n], and p1evl, x^n + c[0] x^(n-1) + ...
 * + c[n-1], of W arguments at once, each lane's c being a where m is set and
 * b elsewhere. */
static inline vd polevlv(vd x, vi m, const double *a, const double *b, int n)
{
    vd ans = pick(m, splat(a[0]), splat(b[0]));
#pragma GCC unroll 16
    for (int i = 1; i <= n; i++)
        ans = ans * x + pick(m, splat(a[i]), splat(b[i]));
    return ans;
}

static inline vd p1evlv(vd x, vi m, const double *a, const double *b, int n)
{
    vd ans = x + pick(m, splat(a[0]), splat(b[0]));
#pragma GCC unroll 16
    for (int i = 1; i < n; i++)
        ans = ans * x + pick(m, splat(a[i]), splat(b[i]));
    return ans;
}

/* ndtri's central approximation: ndtri(y0) for y0 in (exp(-2), 1 - exp(-2)]. */
static inline vd central(vd y0)
{
    vd y = y0 - 0.5;
    vd y2 = y * y;
    vd x = y + y * (y2 * polevlv(y2, (vi){}, P0, P0, 4) / p1evlv(y2, (vi){}, Q0, Q0, 8));
    return x * S2PI;
}

/* ndtri(y0) from x = sqrt(-2 log y) and lx = log(x), y being 1 - y0 above
 * 1 - exp(-2) and y0 elsewhere: P1/Q1 where x < 8, P2/Q2 elsewhere, negated
 * (by the sign bit) where y0 is not above 1 - exp(-2).  x is inf only where
 * y0 is 0 (or -0) or 1, whose results are -inf and inf, and NaN only where y0
 * is NaN or outside [0, 1], whose result is NaN. */
static inline vd tail(vd y0, vd x, vd lx)
{
    vi near = (vi)(x < 8.0);
    vd x0 = x - lx / x;
    vd z = 1.0 / x;
    vd x1 = z * polevlv(z, near, P1, P2, 8) / p1evlv(z, near, Q1, Q2, 8);
    vd r = pick((vi)(x == INFINITY), splat(INFINITY), x0 - x1);
    r = (vd)((vi)r ^ (~(vi)(y0 > 1.0 - EXP_M2) & (vi)splat(-0.0)));
    return pick((vi)(x == x), r, splat(NAN));
}

/* Elements 0..count-1 of v into p[0..count). */
static inline void store(double *p, vd v, int count)
{
    if (count == W) {
        __builtin_memcpy(p, &v, sizeof v);
        return;
    }
    for (int j = 0; j < count; j++)
        p[j] = v[j];
}

#if W == 8
/* AVX-512's mask registers, through gcc's builtins (clang names some of them
 * differently, and <immintrin.h> would more than double the compile): one bit
 * per lane. */
typedef int vs8 __attribute__((vector_size(32)));
typedef unsigned char mask8;
#define CMP_GT_OQ 0x1e
#define CMP_LE_OQ 0x12
#define CUR_ROUNDING 4

/* The lanes of m where v's lanes compare to a by predicate: as v > a or
 * v <= a, false on NaN. */
static inline mask8 compare(vd v, double a, int predicate, mask8 m)
{
    return __builtin_ia32_cmppd512_mask(v, splat(a), predicate, m, CUR_ROUNDING);
}

/* The first count lanes. */
static inline mask8 first(int count)
{
    return (mask8)((1u << count) - 1);
}
#endif

#define BLOCK 256

/* Draws u[0..m), m <= BLOCK, into x. */
static void block(int m, const double *u, double mean, double sd, double *x)
{
    /* Tail draw k is u[idx[k]] = y0[k]; y[k] is what ndtri takes the log of,
     * tx[k] and lx[k] its x and log(x).  The spare last slots pad the tails
     * to whole vectors. */
    double y0[BLOCK + W], y[BLOCK + W], tx[BLOCK + W], lx[BLOCK + W];
    int idx[BLOCK];
    /* Every draw takes the central approximation; those outside (exp(-2),
     * 1 - exp(-2)] are appended to the tails on the pass's comparison mask. */
    int nt = 0;
    for (int i = 0; i < m; i += W) {
        int count = m - i < W ? m - i : W;
        vd v = load(u + i, count);
#if W == 8
        store(x + i, mean + sd * central(v), count);
        /* One compress-store each of the tails' values and of their indices. */
        mask8 tails = first(count) & ~compare(v, 1.0 - EXP_M2, CMP_LE_OQ, compare(v, EXP_M2, CMP_GT_OQ, 0xFF));
        __builtin_ia32_compressstoredf512_mask((vd *)(y0 + nt), v, tails);
        __builtin_ia32_compressstoresi256_mask((vs8 *)(idx + nt), (vs8){0, 1, 2, 3, 4, 5, 6, 7} + i, tails);
        nt += __builtin_popcount(tails);
#else
        vi above = (vi)(v > splat(EXP_M2)), upto = (vi)(v <= splat(1.0 - EXP_M2));
        store(x + i, mean + sd * central(v), count);
#pragma GCC unroll 4
        for (int j = 0; j < count; j++) {
            idx[nt] = i + j;
            y0[nt] = v[j];
            nt += 1 + (int)(above[j] & upto[j]);  /* a mask is -1 where set */
        }
#endif
    }

    /* Above 1 - exp(-2), y = 1 - y0; below, y = y0, on the comparison mask. */
    for (int j = 0; j < W; j++)
        y0[nt + j] = 0.5;
    for (int k = 0; k < nt; k += W) {
        vd v = load(y0 + k, W);
        store(y + k, pick((vi)(v > 1.0 - EXP_M2), 1.0 - v, v), W);
    }
    /* x = sqrt(-2 log y) and log(x), one libm call per loop, so that the
     * calls of different draws overlap rather than wait on each other. */
    for (int k = 0; k < nt; k++)
        tx[k] = log(y[k]);
#if W == 8
    /* The vector sqrt rounds correctly, as libm's does: the same bits.  The
     * spare slots take sqrt(-2 * -0.5) = 1. */
    for (int j = 0; j < W; j++)
        tx[nt + j] = -0.5;
    for (int k = 0; k < nt; k += W)
        store(tx + k, __builtin_ia32_sqrtpd512_mask(-2.0 * load(tx + k, W), splat(0.0), 0xFF, CUR_ROUNDING), W);
#else
    for (int k = 0; k < nt; k++)
        tx[k] = sqrt(-2.0 * tx[k]);
#endif
    for (int k = 0; k < nt; k++)
        lx[k] = log(tx[k]);
    for (int j = 0; j < W; j++)
        tx[nt + j] = lx[nt + j] = 1.0;
    for (int k = 0; k < nt; k += W) {
        vd r = mean + sd * tail(load(y0 + k, W), load(tx + k, W), load(lx + k, W));
#if W == 8
        /* One masked scatter of the vector's tail draws to their places. */
        vs8 at;
        __builtin_memcpy(&at, idx + k, sizeof at);
        __builtin_ia32_scattersiv8df(x, nt - k < W ? first(nt - k) : 0xFF, at, r, 8);
#else
#pragma GCC unroll 4
        for (int j = 0; j < W; j++)
            if (k + j < nt)
                x[idx[k + j]] = r[j];
#endif
    }
}

void normal_quantile(int64_t n, const double *u, double mean, double sd, double *x)
{
    for (int64_t i = 0; i < n; i += BLOCK)
        block(n - i < BLOCK ? (int)(n - i) : BLOCK, u + i, mean, sd, x + i);
}
