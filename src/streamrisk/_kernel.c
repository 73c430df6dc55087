/* Replicate kernel of streamrisk.experiments.
 *
 * draw fills a sub-block's uniform draws: each lane's PCG64 generator, as
 * numpy's PCG64 (XSL-RR 128/64) steps it, turned into doubles as
 * Generator.random turns its 64-bit outputs, so a lane's row equals what
 * Generator.random would have filled it with, bit for bit.  It interleaves
 * four lanes' LCG chains, which hides the 128-bit multiply's latency; a last
 * group of fewer lanes repeats its last lane, which writes the same draws
 * and state to the same place again.
 * step_table fills a chunk's step table: the quantities that all lanes share
 * at each step, computed once per chunk with libm's pow, as CPython's float
 * ** computes StepSchedule.gain_a/gain_b, so each entry equals the scalar
 * reference's.  advance walks `lanes` replicates through `span` steps of the
 * joint recursion (a chunk ends at each checkpoint, where the caller records
 * the state), W lanes per vector and two independent vectors per step, their
 * state in registers; a last group of fewer lanes repeats its last lane in
 * the spare slots, which are not written back.  W and the vectors are
 * _simd.h's, and the indicators are comparison masks ANDed with the bits of
 * 1.0, so a lane takes no branch on its data and rounds exactly as the
 * scalar code would, at either width.  Operation for operation this is
 * estimators.step, so the file must be compiled without floating-point
 * contraction (-ffp-contract=off) and without any flag that lets the
 * compiler replace pow (-ffast-math, vector math libraries).
 *
 * gen[4 * l + 0..3]    lane l's PCG64 state, low word first, then its
 *                      increment; read and written back
 * u[l * span + t]      uniform draw of lane l at step n0 + t (lane-major)
 * table[r * ldt + t]   row r at step n = n0 + t: 0 gain_a(max(n, 1)),
 *                      1 gain_b(n), 2 n / (n + 1), 3 1 / (n + 1)
 * x[l * span + t]      draw of lane l at step n0 + t (lane-major)
 * state[k * ld + l]    estimator k of lane l, in the order theta, theta_bar,
 *                      embedded, classical, bardou; read and written back
 */
#include "_simd.h"

/* libm's pow, declared here rather than through <math.h>, whose parsing is
 * about a tenth of the compile (C11 7.1.4 allows the declaration). */
double pow(double, double);

typedef unsigned __int128 u128;

/* numpy's PCG64 multiplier, PCG_DEFAULT_MULTIPLIER_128. */
#define PCG_MULT (((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL)
#define DRAW_WAYS 4

/* The next Generator.random of a generator at *s: step, then XSL-RR output,
 * then its top 53 bits times 2^-53. */
static inline double next_double(u128 *s, u128 inc)
{
    *s = *s * PCG_MULT + inc;
    uint64_t xored = (uint64_t)(*s >> 64) ^ (uint64_t)*s;
    unsigned rot = (unsigned)(*s >> 122);
    uint64_t out = (xored >> rot) | (xored << (-rot & 63));
    return (double)(int64_t)(out >> 11) * (1.0 / 9007199254740992.0);
}

void draw(int64_t lanes, int64_t span, uint64_t *gen, double *u)
{
    for (int64_t l = 0; l < lanes; l += DRAW_WAYS) {
        /* The group's lanes, the last repeated in the spare ways: a repeat
         * writes the same draws and state to the same place. */
        uint64_t *g[DRAW_WAYS];
        double *row[DRAW_WAYS];
        u128 s[DRAW_WAYS], inc[DRAW_WAYS];
        for (int j = 0; j < DRAW_WAYS; j++) {
            int64_t lane = l + j < lanes ? l + j : lanes - 1;
            g[j] = gen + 4 * lane;
            row[j] = u + lane * span;
            s[j] = (u128)g[j][1] << 64 | g[j][0];
            inc[j] = (u128)g[j][3] << 64 | g[j][2];
        }
        for (int64_t t = 0; t < span; t++) {
#pragma GCC unroll 4
            for (int j = 0; j < DRAW_WAYS; j++)
                row[j][t] = next_double(&s[j], inc[j]);
        }
        for (int j = 0; j < DRAW_WAYS; j++) {
            g[j][0] = (uint64_t)s[j];
            g[j][1] = (uint64_t)(s[j] >> 64);
        }
    }
}

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

/* 1.0 where the comparison mask is set, else +0.0: as (double)(a > b), without a branch. */
static inline vd indicator(vi mask)
{
    return (vd)(mask & (vi)splat(1.0));
}

/* One step of estimators.step on W lanes with draws xt; s holds theta,
 * theta_bar and the embedded, classical and bardou superquantiles. */
static inline void step(vd *s, vd xt, double a, double b, double cn, double cn1, double alpha,
                        double inv1ma)
{
    vd a_n = splat(a), b_n = splat(b), vinv1ma = splat(inv1ma);
    vd theta_old = s[0];
    vd ind_bar = indicator((vi)(xt > s[1]));
    vd ind_th = indicator((vi)(xt > theta_old));
    vd ind_q = indicator((vi)(xt <= theta_old));

    s[0] = (theta_old - ind_q * a_n) + a_n * alpha;
    s[1] = s[1] * cn + s[0] * cn1;

    vd scale = b_n * vinv1ma;
    s[2] = s[2] * (1.0 - b_n) + (xt * ind_bar) * scale;
    s[3] = s[3] * (1.0 - b_n) + (xt * ind_th) * scale;
    vd target = ((xt - theta_old) * vinv1ma) * ind_th + theta_old;
    s[4] = s[4] * (1.0 - b_n) + target * b_n;
}

void advance(int64_t lanes, int64_t span, const double *x, const double *table, int64_t ldt,
             double alpha, double inv1ma, double *state, int64_t ld)
{
    const double *gain_a = table, *gain_b = table + ldt;
    const double *cn = table + 2 * ldt, *cn1 = table + 3 * ldt;
    for (int64_t l = 0; l < lanes; l += 2 * W) {
        /* The group's lanes, the last repeated in the spare slots. */
        int count = lanes - l < 2 * W ? (int)(lanes - l) : 2 * W;
        const double *row[2 * W];
        vd s[2][5];
        for (int j = 0; j < 2 * W; j++) {
            int64_t lane = l + (j < count ? j : count - 1);
            row[j] = x + lane * span;
            for (int k = 0; k < 5; k++)
                s[j / W][k][j % W] = state[k * ld + lane];
        }
        for (int64_t t = 0; t < span; t++) {
#pragma GCC unroll 2
            for (int h = 0; h < 2; h++) {
                vd xt;
#pragma GCC unroll 4
                for (int j = 0; j < W; j++)
                    xt[j] = row[h * W + j][t];
                step(s[h], xt, gain_a[t], gain_b[t], cn[t], cn1[t], alpha, inv1ma);
            }
        }
        for (int j = 0; j < count; j++)
            for (int k = 0; k < 5; k++)
                state[k * ld + l + j] = s[j / W][k][j % W];
    }
}
