/* Replicate kernel of streamrisk.experiments.
 *
 * seed writes, for each replicate r in [first, first + count), the four
 * 64-bit words that numpy's SeedSequence((master, experiment, r))
 * .generate_state(4, np.uint64) returns, which is what numpy's PCG64 seeds
 * itself from: the entropy split into 32-bit words, low first and at least
 * one per integer, hashed into a 4-word pool and mixed (hashmix, mix), then
 * eight 32-bit words drawn from the pool and paired low word first.
 * streamrisk.distributions.substream hands them to numpy's PCG64, so its
 * generator's state equals default_rng((master, experiment, r))'s; the tests
 * pin the words to SeedSequence's.
 * draw fills a sub-block's uniform draws: each lane's PCG64 generator, as
 * numpy's PCG64 (XSL-RR 128/64) steps it, turned into doubles as
 * Generator.random turns its 64-bit outputs, so a lane's draws equal what
 * Generator.random would have given it, bit for bit.  Where the compiler
 * targets AVX-512 (F and DQ), whole groups of GROUP lanes step as
 * GROUP_VECTORS interleaved vectors of DRAW_W lanes, each 128-bit multiply
 * built from 32 x 32-bit products, and each vector's DRAW_W draws of a step
 * are one store.  The lanes past the last whole group, and every lane on
 * other targets, go four at a time through the scalar next_double, four LCG
 * chains interleaved to hide the 128-bit multiply's latency; a last group of
 * fewer lanes steps copies of its last lane in the spare ways, which store
 * nothing.  (One vector with idle lanes is slower on a narrow sub-block than
 * this scalar path.)
 * step_table fills a chunk's step table: the quantities that all lanes share
 * at each step, computed once per chunk with libm's pow, as CPython's float
 * ** computes StepSchedule.gain_a/gain_b, so each entry equals the scalar
 * reference's.
 * advance walks `lanes` replicates through `span` steps of the joint
 * recursion (a chunk ends at each checkpoint, where the caller records the
 * state), in groups of 2 W lanes, each group one vector when it has at most
 * W lanes and two otherwise, their state in registers; each step of a vector
 * loads its W draws at once, and a last group's spare slots repeat its last
 * lane and are not written back.  W and the vectors are _simd.h's, and the
 * indicators are comparison masks ANDed with the bits of 1.0, so a lane takes
 * no branch on its data and rounds exactly as the scalar code would, at
 * either width.  Operation for operation this is estimators.step, so the
 * file must be compiled without floating-point contraction (-ffp-contract=off)
 * and without any flag that lets the compiler replace pow (-ffast-math,
 * vector math libraries).
 *
 * The draws and their transform are step-major, each step's lanes side by
 * side, so a vector of lanes is one contiguous load or store:
 *
 * words[4 * i + 0..3]  replicate first + i's seed words
 * gen[4 * l + 0..3]    lane l's PCG64 state, low word first, then its
 *                      increment; read and written back
 * u[t * lanes + l]     uniform draw of lane l at step n0 + t
 * table[r * ldt + t]   row r at step n = n0 + t: 0 gain_a(max(n, 1)),
 *                      1 gain_b(n), 2 n / (n + 1), 3 1 / (n + 1)
 * x[t * lanes + l]     draw of lane l at step n0 + t
 * state[k * ld + l]    estimator k of lane l, in the order theta, theta_bar,
 *                      embedded, classical, bardou; read and written back
 */
#include "_simd.h"

/* libm's pow, declared here rather than through <math.h>, whose parsing is
 * about a tenth of the compile (C11 7.1.4 allows the declaration). */
double pow(double, double);

typedef unsigned __int128 u128;

/* numpy's PCG64 multiplier, PCG_DEFAULT_MULTIPLIER_128, and its two words. */
#define MULT_HI 0x2360ED051FC65DA4ULL
#define MULT_LO 0x4385DF649FCCF645ULL
#define PCG_MULT ((u128)MULT_HI << 64 | MULT_LO)
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

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#define DRAW_W 8
#define GROUP_VECTORS 4
#define GROUP (GROUP_VECTORS * DRAW_W)
typedef uint64_t vu8 __attribute__((vector_size(8 * DRAW_W)));
typedef int64_t vi8 __attribute__((vector_size(8 * DRAW_W)));
typedef double vd8 __attribute__((vector_size(8 * DRAW_W)));

/* The products of the low 32-bit halves of a's and b's lanes, one vpmuludq
 * (gcc 12 makes the generic form a slower vpmullq). */
static inline vu8 mul32(vu8 a, vu8 b)
{
#ifdef __clang__
    return (a & 0xFFFFFFFF) * (b & 0xFFFFFFFF);
#else
    typedef int vs16 __attribute__((vector_size(8 * DRAW_W)));
    typedef long long vll8 __attribute__((vector_size(8 * DRAW_W)));
    return (vu8)__builtin_ia32_pmuludq512_mask((vs16)a, (vs16)b, (vll8){}, 0xFF);
#endif
}

/* next_double of DRAW_W generators, each state's words in *hi and *lo and
 * its increment's in inc_hi and inc_lo.  The low word times MULT_LO is
 * taken as 128 bits from four 32 x 32-bit products. */
static inline vd8 next_doubles(vu8 *hi, vu8 *lo, vu8 inc_hi, vu8 inc_lo)
{
    const vu8 m0 = (vu8){} + (MULT_LO & 0xFFFFFFFF), m1 = (vu8){} + (MULT_LO >> 32);
    vu8 a1 = *lo >> 32;
    vu8 p00 = mul32(*lo, m0), p01 = mul32(*lo, m1), p10 = mul32(a1, m0), p11 = mul32(a1, m1);
    vu8 mid = (p00 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF);
    vu8 low = (mid << 32 | (p00 & 0xFFFFFFFF)) + inc_lo;
    vu8 carry = (vu8)(low < inc_lo); /* all ones where the low word wrapped */
    *hi = *hi * MULT_LO + *lo * MULT_HI + p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + inc_hi - carry;
    *lo = low;
    vu8 xored = *hi ^ *lo, rot = *hi >> 58;
    vu8 out = (xored >> rot) | (xored << (-rot & 63));
    return __builtin_convertvector((vi8)(out >> 11), vd8) * (1.0 / 9007199254740992.0);
}

/* Lanes [l, l + GROUP) of draw, in GROUP_VECTORS vectors stepped together. */
static void draw_group(int64_t l, int64_t lanes, int64_t span, uint64_t *gen, double *u)
{
    vu8 hi[GROUP_VECTORS], lo[GROUP_VECTORS], inc_hi[GROUP_VECTORS], inc_lo[GROUP_VECTORS];
    for (int j = 0; j < GROUP; j++) {
        const uint64_t *g = gen + 4 * (l + j);
        lo[j / DRAW_W][j % DRAW_W] = g[0];
        hi[j / DRAW_W][j % DRAW_W] = g[1];
        inc_lo[j / DRAW_W][j % DRAW_W] = g[2];
        inc_hi[j / DRAW_W][j % DRAW_W] = g[3];
    }
    for (int64_t t = 0; t < span; t++) {
#pragma GCC unroll 4
        for (int v = 0; v < GROUP_VECTORS; v++) {
            vd8 d = next_doubles(&hi[v], &lo[v], inc_hi[v], inc_lo[v]);
            __builtin_memcpy(u + t * lanes + l + v * DRAW_W, &d, sizeof d);
        }
    }
    for (int j = 0; j < GROUP; j++) {
        gen[4 * (l + j)] = lo[j / DRAW_W][j % DRAW_W];
        gen[4 * (l + j) + 1] = hi[j / DRAW_W][j % DRAW_W];
    }
}
#else
#define GROUP 0
#endif

void draw(int64_t lanes, int64_t span, uint64_t *gen, double *u)
{
    int64_t l = 0;
#if GROUP
    for (; l + GROUP <= lanes; l += GROUP)
        draw_group(l, lanes, span, gen, u);
#endif
    for (; l < lanes; l += DRAW_WAYS) {
        /* A last group of fewer lanes steps copies of its last lane in the
         * spare ways, which store nothing. */
        int count = lanes - l < DRAW_WAYS ? (int)(lanes - l) : DRAW_WAYS;
        u128 s[DRAW_WAYS], inc[DRAW_WAYS];
        for (int j = 0; j < DRAW_WAYS; j++) {
            const uint64_t *g = gen + 4 * (l + (j < count ? j : count - 1));
            s[j] = (u128)g[1] << 64 | g[0];
            inc[j] = (u128)g[3] << 64 | g[2];
        }
        double *row = u + l;
        for (int64_t t = 0; t < span; t++, row += lanes) {
#pragma GCC unroll 4
            for (int j = 0; j < DRAW_WAYS; j++) {
                double d = next_double(&s[j], inc[j]);
                if (j < count)
                    row[j] = d;
            }
        }
        for (int j = 0; j < count; j++) {
            gen[4 * (l + j)] = (uint64_t)s[j];
            gen[4 * (l + j) + 1] = (uint64_t)(s[j] >> 64);
        }
    }
}

/* numpy's SeedSequence (numpy/random/bit_generator.pyx): the constants of its
 * hashmix, mix and generate_state, and the xor-shift of all three. */
#define POOL 4
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u
#define XSHIFT 16

static inline uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ value >> XSHIFT;
}

static inline uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ result >> XSHIFT;
}

/* n's 32-bit words, low first and at least one, appended to entropy[*len..]. */
static inline void append_words(uint64_t n, uint32_t *entropy, int *len)
{
    do {
        entropy[(*len)++] = (uint32_t)n;
        n >>= 32;
    } while (n);
}

void seed(uint64_t master, uint64_t experiment, uint64_t first, int64_t count, uint64_t *words)
{
    for (int64_t i = 0; i < count; i++) {
        uint32_t entropy[6], pool[POOL], hash_a = INIT_A, hash_b = INIT_B;
        int len = 0;
        append_words(master, entropy, &len);
        append_words(experiment, entropy, &len);
        append_words(first + (uint64_t)i, entropy, &len);
        /* The pool takes the first POOL words, hashed (zeros past the entropy's
         * end), mixes every word into every other, then mixes in the rest. */
        for (int j = 0; j < POOL; j++)
            pool[j] = hashmix(j < len ? entropy[j] : 0, &hash_a);
        for (int src = 0; src < POOL; src++)
            for (int dst = 0; dst < POOL; dst++)
                if (src != dst)
                    pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_a));
        for (int src = POOL; src < len; src++)
            for (int dst = 0; dst < POOL; dst++)
                pool[dst] = mix(pool[dst], hashmix(entropy[src], &hash_a));
        /* generate_state(4, np.uint64): eight 32-bit words drawn cycling over
         * the pool, paired low word first. */
        for (int k = 0; k < 8; k++) {
            uint32_t value = pool[k % POOL] ^ hash_b;
            hash_b *= MULT_B;
            value *= hash_b;
            value ^= value >> XSHIFT;
            if (k % 2 == 0)
                words[4 * i + k / 2] = value;
            else
                words[4 * i + k / 2] |= (uint64_t)value << 32;
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
        /* The group's lanes in one vector, or two, the last lane repeated in
         * the spare slots. */
        int count = lanes - l < 2 * W ? (int)(lanes - l) : 2 * W;
        int vectors = count <= W ? 1 : 2;
        vd s[2][5];
        for (int j = 0; j < vectors * W; j++)
            for (int k = 0; k < 5; k++)
                s[j / W][k][j % W] = state[k * ld + l + (j < count ? j : count - 1)];
        for (int64_t t = 0; t < span; t++) {
#pragma GCC unroll 2
            for (int h = 0; h < vectors; h++) {
                vd xt = load(x + t * lanes + l + h * W, count - h * W);
                step(s[h], xt, gain_a[t], gain_b[t], cn[t], cn1[t], alpha, inv1ma);
            }
        }
        for (int j = 0; j < count; j++)
            for (int k = 0; k < 5; k++)
                state[k * ld + l + j] = s[j / W][k][j % W];
    }
}
