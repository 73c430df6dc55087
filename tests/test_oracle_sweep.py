"""The closed-form v_alpha of every model against mpmath at 50 digits.

The reference is the difference of the raw tail moments E[X^k 1{X > theta}],
which cancels in float arithmetic on narrow models far from 0 but not at 50
digits, taken at the oracle's own float theta: it shares no formula with
``distributions.tail_variance``.  mpmath is imported at module level, so a
missing install stops collection instead of skipping.
"""

import random
import time

import mpmath

from streamrisk.distributions import Exponential, Gaussian, Pareto, Uniform, oracle

MODELS = 3000
BUDGET_S = 2.0


def _alpha(rng: random.Random) -> float:
    """Uniform on (0, 1) for a third of the draws, else log-spread towards 0
    (down to 1e-300) or towards 1 (up to 1 - 1e-15)."""
    u = rng.random()
    if u < 1 / 3:
        return rng.uniform(1e-3, 1 - 1e-3)
    if u < 2 / 3:
        return 10.0 ** -rng.uniform(1.0, 300.0)
    return 1.0 - 10.0 ** -rng.uniform(1.0, 15.0)


def _model(rng: random.Random, kind: int):
    """Uniform and Gaussian centres up to 1e8 either side of 0, widths from
    1e-6 and spreads from 1e-4 up to 1e3; Exponential rates and Pareto scales
    over 1e-3..1e3, Pareto shapes from 2.01 to 12."""
    centre = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 8.0)
    if kind == 0:
        width = 10.0 ** rng.uniform(-6.0, 3.0)
        return Uniform(centre - width / 2, centre + width / 2)
    if kind == 1:
        return Exponential(10.0 ** rng.uniform(-3.0, 3.0))
    if kind == 2:
        return Gaussian(centre, 10.0 ** rng.uniform(-4.0, 3.0))
    return Pareto(10.0 ** rng.uniform(-3.0, 3.0), 2.0 + 10.0 ** rng.uniform(-2.0, 1.0))


def _raw_tail_moments(model, theta: float):
    """E[X 1{X > theta}] and E[X^2 1{X > theta}] at the current mpmath precision."""
    t = mpmath.mpf(theta)
    if isinstance(model, Uniform):
        lo, hi = mpmath.mpf(model.lo), mpmath.mpf(model.hi)
        return (hi**2 - t**2) / (2 * (hi - lo)), (hi**3 - t**3) / (3 * (hi - lo))
    if isinstance(model, Exponential):
        r = mpmath.mpf(model.rate)
        tail = mpmath.exp(-r * t)
        return tail * (t + 1 / r), tail * (t * t + 2 * t / r + 2 / r**2)
    if isinstance(model, Gaussian):
        m, s = mpmath.mpf(model.mean), mpmath.mpf(model.stddev)
        z = (t - m) / s
        q, phi = mpmath.ncdf(-z), mpmath.npdf(z)
        return m * q + s * phi, m * m * q + 2 * m * s * phi + s * s * (q + z * phi)
    s, k = mpmath.mpf(model.scale), mpmath.mpf(model.shape)
    return k * s**k * t ** (1 - k) / (k - 1), k * s**k * t ** (2 - k) / (k - 2)


def test_closed_form_v_alpha_matches_mpmath_on_a_seeded_sweep():
    rng = random.Random(27)
    cases = [(_model(rng, i % 4), _alpha(rng)) for i in range(MODELS)]
    misses = []
    start = time.perf_counter()
    with mpmath.workdps(50):
        for model, alpha in cases:
            closed = oracle(model, alpha)
            e1, e2 = _raw_tail_moments(model, closed.theta_alpha)
            exact = e2 - e1 * e1
            # e1^2 <= e2, so the reference loses log10(e2 / exact) of its 50 digits.
            assert exact == 0 or e2 / exact < 1e30, (model, alpha)
            if abs(closed.v_alpha - exact) > 1e-8 * exact:
                misses.append((model, alpha, closed.v_alpha, float(exact)))
    elapsed = time.perf_counter() - start
    assert misses == [], f"{len(misses)} of {MODELS} models miss 1e-8, first {misses[:3]}"
    assert elapsed < BUDGET_S, f"{MODELS} models took {elapsed:.2f} s"
