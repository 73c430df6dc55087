/* The vectors of the package's C sources: GCC vector extensions of W doubles
 * (vd) or W 64-bit integers (vi), whose operations are IEEE per element, so
 * they round as the scalar ones at any width.  One register per vector: W is
 * 4 where the compiler targets AVX2 and 2 (one SSE2 register) elsewhere;
 * without AVX2, gcc lowers a 32-byte vector piecewise, and it runs slower
 * than scalar code.  A source may preset W before including this header:
 * _normal.c sets 8 (one AVX-512 register) where the compiler targets
 * AVX-512 F, DQ and VL, and _kernel.c keeps the choice below. */
#pragma once
#include <stdint.h>

#ifndef W
#ifdef __AVX2__
#define W 4
#else
#define W 2
#endif
#endif
typedef double vd __attribute__((vector_size(8 * W)));
typedef int64_t vi __attribute__((vector_size(8 * W)));

/* The lane loops below are unrolled at every W, 8 included: tuned for a real
 * AVX-512 CPU (not generic x86-64-v4), gcc 12 warns that load's rolled 8-lane
 * loop may use v uninitialized. */

/* Every element a (as (vd){} + a would not be for a = -0.0). */
static inline vd splat(double a)
{
    vd v;
#pragma GCC unroll 8
    for (int j = 0; j < W; j++)
        v[j] = a;
    return v;
}

/* Elements 0..W-1 of p, or, where count < W, of p[0..count) with its last
 * element repeated. */
static inline vd load(const double *p, int count)
{
    vd v;
    if (count >= W) {
        __builtin_memcpy(&v, p, sizeof v);
        return v;
    }
#pragma GCC unroll 8
    for (int j = 0; j < W; j++)
        v[j] = p[j < count ? j : count - 1];
    return v;
}
