import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from streamrisk.asymptotics import (
    VERDICT_BOUNDARY,
    VERDICT_COMPETITOR,
    VERDICT_DEGENERATE,
    VERDICT_EMBEDDED,
    averaged_quantile_remainder_exponent,
    c_alpha_b1,
    clt_covariance_fast,
    clt_variance_slow,
    embedded_remainder_exponent,
    finite_n_mse,
    mse_bound_averaged_quantile,
    mse_bound_embedded,
    quantile_clt_variance,
    report,
    sigma_from_generator,
    variance_comparison,
)
from streamrisk.distributions import Exponential, Pareto, RiskOracle, Uniform, oracle
from streamrisk.experiments import fit_rate
from streamrisk.schedules import StepSchedule

UNIFORM_V = Fraction(7, 24) - Fraction(9, 64)  # 29/192
UNIFORM_ORACLE = oracle(Uniform(0.0, 1.0), 0.5)


def synthetic(alpha=0.5, theta=1.0, vartheta=2.0, density=1.0, v=1.0) -> RiskOracle:
    return RiskOracle(
        alpha=alpha,
        theta_alpha=theta,
        vartheta_alpha=vartheta,
        density_at_quantile=density,
        v_alpha=v,
    )


class TestSlowVariance:
    def test_uniform_exact_fraction(self):
        expected = float(UNIFORM_V / (2 * Fraction(1, 4)))  # 29/96
        assert clt_variance_slow(UNIFORM_ORACLE) == pytest.approx(expected, rel=1e-14)

    def test_zero_variance_oracle(self):
        assert clt_variance_slow(synthetic(v=0.0)) == 0.0

    def test_exponential_tail_value(self):
        o = oracle(Exponential(1.0), 0.9)
        t = math.log(10.0)
        v_exact = (t * t + 2 * t + 2) * 0.1 - ((t + 1) * 0.1) ** 2
        assert clt_variance_slow(o) == pytest.approx(v_exact / 0.02, rel=1e-12)
        assert clt_variance_slow(o) == pytest.approx(54.0818, rel=1e-4)


class TestFastCovariance:
    def test_uniform_exact_entries(self):
        s2 = clt_covariance_fast(UNIFORM_ORACLE, 1.0)
        assert s2[0, 0] == pytest.approx(0.25, rel=1e-14)
        assert s2[0, 1] == pytest.approx(0.125, rel=1e-14)
        assert s2[1, 0] == s2[0, 1]
        assert s2[1, 1] == pytest.approx(float(Fraction(17, 48)), rel=1e-13)

    def test_pole_at_half(self):
        with pytest.raises(ValueError):
            clt_covariance_fast(UNIFORM_ORACLE, 0.5)

    def test_divergence_towards_pole(self):
        values = [clt_covariance_fast(UNIFORM_ORACLE, b1)[1, 1] for b1 in (0.51, 0.6, 0.8)]
        assert values[0] > values[1] > values[2]

    def test_degenerate_gap_zeroes_cross_term(self):
        s2 = clt_covariance_fast(synthetic(theta=1.0, vartheta=1.0, v=1.0), 1.0)
        assert s2[0, 1] == 0.0

    def test_negative_variance_rejected(self):
        bad = synthetic(theta=10.0, vartheta=11.0, v=1e-3)
        with pytest.raises(ValueError, match="negative"):
            clt_covariance_fast(bad, 1.0)


class TestEmbeddedBound:
    def test_slow_branch_is_variance_times_gain(self):
        # gain_b(15) = 0.08 * 16^(-3/4) = 0.01 exactly
        sched = StepSchedule(a1=1.0, a_exp=0.6, b1=0.08, b_exp=0.75)
        expected = float(UNIFORM_V / (2 * Fraction(1, 4))) * 0.01
        assert mse_bound_embedded(UNIFORM_ORACLE, sched, 15) == pytest.approx(expected, rel=1e-13)

    def test_fast_branch_constant_symbolic_cross_check(self):
        # lead = 4 b1^2 a(1-a)/((2b1-1)^2 f^2) = 1 at b1 = 1;
        # inner = 1 + V/(4 a (1-a)^3) = 77/48
        with mpmath.workdps(50):
            expected = float((1 + mpmath.sqrt(mpmath.mpf(77) / 48)) ** 2)
        assert c_alpha_b1(UNIFORM_ORACLE, 1.0) == pytest.approx(expected, rel=1e-13)
        sched = StepSchedule(a1=1.0, a_exp=2 / 3, b1=1.0, b_exp=1.0)
        assert mse_bound_embedded(UNIFORM_ORACLE, sched, 100) == pytest.approx(expected / 100, rel=1e-13)

    def test_fast_branch_requires_b1_above_half(self):
        sched = StepSchedule(a1=1.0, a_exp=2 / 3, b1=0.4, b_exp=1.0)
        with pytest.raises(ValueError):
            mse_bound_embedded(UNIFORM_ORACLE, sched, 10)

    def test_bound_decreases_to_zero(self):
        sched = StepSchedule(a1=1.0, a_exp=0.6, b1=1.0, b_exp=0.75)
        values = [mse_bound_embedded(UNIFORM_ORACLE, sched, n) for n in (10, 100, 1000, 10**6)]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert values[-1] < 1e-3


class TestAveragedQuantileBound:
    def test_uniform_first_order(self):
        sched = StepSchedule(a1=1.0, a_exp=2 / 3, b1=1.0, b_exp=1.0)
        assert mse_bound_averaged_quantile(UNIFORM_ORACLE, sched, 10**4) == pytest.approx(2.5e-5, rel=1e-14)

    def test_remainder_exponent_optimal(self):
        assert averaged_quantile_remainder_exponent(2 / 3) == pytest.approx(7 / 6, rel=1e-15)

    def test_remainder_exponent_at_half(self):
        assert averaged_quantile_remainder_exponent(0.5) == pytest.approx(1.0, rel=1e-15)

    def test_embedded_remainder_exponents(self):
        assert embedded_remainder_exponent(
            StepSchedule(1.0, 0.6, 1.0, 0.75)
        ) == pytest.approx(0.875, rel=1e-15)
        assert embedded_remainder_exponent(
            StepSchedule(1.0, 2 / 3, 1.0, 1.0)
        ) == pytest.approx(4 / 3, rel=1e-15)


class TestVarianceComparison:
    def test_pareto_shape3_is_boundary(self):
        o = oracle(Pareto(1.0, 3.0), 0.9)
        rep = variance_comparison(o, 0.8, 1.0)
        assert abs(rep.b1_threshold - 0.5) < 1e-12
        assert rep.verdict == VERDICT_BOUNDARY

    def test_pareto_heavy_tail_window(self):
        o = oracle(Pareto(1.0, 2.2), 0.9)
        rep = variance_comparison(o, 0.55, 1.0)
        assert rep.b1_threshold == pytest.approx(0.625, rel=1e-12)
        assert rep.verdict == VERDICT_EMBEDDED
        rep_hi = variance_comparison(o, 0.9, 1.0)
        assert rep_hi.verdict == VERDICT_COMPETITOR

    def test_zero_quantile_threshold_is_one(self):
        rep = variance_comparison(synthetic(theta=0.0, vartheta=1.0), 0.8, 1.0)
        assert rep.b1_threshold == 1.0
        assert rep.verdict == VERDICT_DEGENERATE

    def test_uniform_boundary(self):
        rep = variance_comparison(UNIFORM_ORACLE, 0.55, 1.0)
        assert rep.verdict == VERDICT_BOUNDARY

    def test_slow_regime_competitor_wins_for_positive_quantities(self):
        o = oracle(Exponential(1.0), 0.9)
        rep = variance_comparison(o, 0.8, 0.75)
        assert rep.gamma_vartheta == pytest.approx(0.8 * rep.tau_alpha_sq / 2.0, rel=1e-14)
        assert rep.verdict == VERDICT_COMPETITOR

    def test_fast_regime_requires_b1_above_half(self):
        with pytest.raises(ValueError):
            variance_comparison(UNIFORM_ORACLE, 0.5, 1.0)


class TestSigmaFromGenerator:
    def test_identity_at_b1_one(self):
        sigma = sigma_from_generator(UNIFORM_ORACLE, 1.0)
        s2 = clt_covariance_fast(UNIFORM_ORACLE, 1.0)
        assert np.allclose(sigma, s2, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("b1", [0.6, 0.8, 1.0])
    def test_rescaling_identity(self, b1):
        sigma = sigma_from_generator(UNIFORM_ORACLE, b1)
        scale = np.diag([1.0, math.sqrt(b1)])
        s2 = clt_covariance_fast(UNIFORM_ORACLE, b1)
        assert np.allclose(scale @ sigma @ scale, s2, rtol=1e-12, atol=1e-14)

    def test_degenerate_gap_zero_cross(self):
        sigma = sigma_from_generator(synthetic(theta=1.0, vartheta=1.0, v=1.0), 0.8)
        assert sigma[0, 1] == 0.0

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            sigma_from_generator(UNIFORM_ORACLE, 0.5)

    def test_two_route_s22_agreement_random_inputs(self, random_admissible):
        for o, b1 in random_admissible(10, seed=2024):
            direct = clt_covariance_fast(o, b1)[1, 1]
            rescaled = b1 * sigma_from_generator(o, b1)[1, 1]
            assert abs(direct - rescaled) <= 1e-12 * max(abs(direct), 1.0)


class TestTwoRouteVerdicts:
    def test_threshold_route_matches_variance_route(self, random_admissible):
        for o, b1 in random_admissible(20, seed=7):
            rep = variance_comparison(o, b1, 1.0)
            threshold_route = (
                VERDICT_EMBEDDED if b1 < rep.b1_threshold else VERDICT_COMPETITOR
            )
            if rep.verdict == VERDICT_BOUNDARY:
                continue
            assert rep.verdict == threshold_route


class TestReport:
    def test_fast_schedule_report(self):
        sched = StepSchedule(a1=1.0, a_exp=2 / 3, b1=1.0, b_exp=1.0)
        rep = report(UNIFORM_ORACLE, sched)
        assert rep.s2 is not None and rep.s2[0, 0] == rep.quantile_clt_var
        assert np.allclose(rep.s2, rep.s2.T)
        assert rep.c_alpha_b1 > 0
        assert rep.gamma_vartheta == pytest.approx(rep.tau_alpha_sq, rel=1e-14)  # b1 = 1, b = 1

    def test_small_b1_leaves_fast_fields_empty(self):
        sched = StepSchedule(a1=1.0, a_exp=0.55, b1=0.3, b_exp=0.75)
        rep = report(UNIFORM_ORACLE, sched)
        assert rep.s2 is None and rep.c_alpha_b1 is None
        assert rep.sq_var_slow == pytest.approx(float(UNIFORM_V / (2 * Fraction(1, 4))), rel=1e-14)

    def test_c_alpha_positive_whenever_admissible(self, random_admissible):
        for o, b1 in random_admissible(10, seed=31):
            assert c_alpha_b1(o, b1) > 0


@pytest.mark.parametrize(
    "name, compute",
    [
        # f * f underflows to a zero divisor.
        ("quantile_clt_var", lambda: quantile_clt_variance(synthetic(density=1e-200))),
        ("quantile_clt_var", lambda: clt_covariance_fast(synthetic(density=1e-200), 1.0)),
        # (2 b1 - 1) ** 2 overflows, where float ** raises OverflowError.
        ("c_alpha_b1", lambda: c_alpha_b1(UNIFORM_ORACLE, 1e200)),
        # b1 * b1 overflows and inf / inf reads NaN.
        ("s2_22", lambda: clt_covariance_fast(UNIFORM_ORACLE, 1e308)),
        ("gamma_vartheta", lambda: variance_comparison(UNIFORM_ORACLE, 1e308, 1.0)),
        ("sq_var_slow", lambda: clt_variance_slow(synthetic(alpha=1 - 2**-53, v=1e300))),
        ("tau_alpha_sq", lambda: variance_comparison(synthetic(v=1e308, theta=-1e308, vartheta=1e308), 0.8, 0.75)),
    ],
)
def test_non_finite_constant_names_itself(name, compute):
    with pytest.raises(ValueError, match=f"^{name} overflows float arithmetic$"):
        compute()


def _dense_finite_n_mse(o, sched, n_grid):
    """Reference for finite_n_mse: the covariance of (t, s, e, c) iterated as
    dense matrices, P <- A P A^T + L Q L^T, from the warm start P = 0."""
    alpha, f = o.alpha, o.density_at_quantile
    g = o.theta_alpha * f / (1.0 - alpha)
    m = alpha * (1.0 - alpha)
    q = np.array([[m, m * o.vartheta_alpha], [m * o.vartheta_alpha, o.v_alpha]])
    p = np.zeros((4, 4))
    out = []
    for k in range(max(n_grid)):
        a, b = sched.gain_a(max(k, 1)), sched.gain_b(k)
        ca, cb, bn = 1.0 - a * f, 1.0 - b, b / (1.0 - alpha)
        # before the first update theta_bar is theta itself
        emb = [-b * g, 0.0, cb, 0.0] if k == 0 else [0.0, -b * g / k, cb, 0.0]
        big_a = np.array([[ca, 0, 0, 0], [ca, 1, 0, 0], emb, [-b * g, 0, 0, cb]])
        big_l = np.array([[a, 0.0], [a, 0.0], [0.0, bn], [0.0, bn]])
        p = big_a @ p @ big_a.T + big_l @ q @ big_l.T
        if k + 1 in n_grid:
            out.append((p[1, 1] / (k + 1) ** 2, p[2, 2], p[3, 3]))
    return np.array(out).T


SLOW_SCHEDULE = StepSchedule(a1=0.7, a_exp=0.6, b1=1.0, b_exp=0.75)
FAST_SCHEDULE = StepSchedule(a1=1.0, a_exp=2 / 3, b1=1.0, b_exp=1.0)
HEAVY_SCHEDULE = StepSchedule(a1=1.0, a_exp=2 / 3, b1=0.55, b_exp=1.0)
EXPONENTIAL_ORACLE = oracle(Exponential(1.0), 0.9)
PARETO_ORACLE = oracle(Pareto(1.0, 2.2), 0.9)
GRID_1E3_1E6 = (1000, 3162, 10000, 31623, 100000, 316228, 1000000)
DECADES = (10**4, 10**5, 10**6)


@functools.cache
def _fast_mse(o, grid):
    return finite_n_mse(o, FAST_SCHEDULE, grid)


class TestFiniteNMse:
    @pytest.mark.parametrize(
        "o", [UNIFORM_ORACLE, EXPONENTIAL_ORACLE, PARETO_ORACLE], ids=["uniform", "exp", "pareto"]
    )
    @pytest.mark.parametrize(
        "sched", [SLOW_SCHEDULE, HEAVY_SCHEDULE, FAST_SCHEDULE], ids=["slow", "fast-b1-0.55", "fast"]
    )
    def test_matches_dense_reference(self, o, sched):
        grid = (1, 2, 3, 17, 200)
        got = finite_n_mse(o, sched, grid)
        want = _dense_finite_n_mse(o, sched, grid)
        for row, key in zip(want, ("theta_bar", "embedded", "classical")):
            assert np.allclose(got[key], row, rtol=1e-12, atol=0.0), key

    def test_averaged_quantile_figure(self):
        mse = _fast_mse(UNIFORM_ORACLE, DECADES)
        assert 1e6 * mse["theta_bar"][-1] == pytest.approx(0.25127, abs=5e-6)

    def test_fast_regime_slope_figure(self):
        fit = fit_rate(zip(GRID_1E3_1E6, _fast_mse(EXPONENTIAL_ORACLE, GRID_1E3_1E6)["embedded"]))
        assert fit.slope == pytest.approx(-1.1300, abs=5e-5)

    def test_heavy_tail_ratio_figures(self):
        mse = finite_n_mse(PARETO_ORACLE, HEAVY_SCHEDULE, DECADES)
        ratio = mse["embedded"] / mse["classical"]
        assert ratio == pytest.approx([1.1876, 1.2756, 1.2526], abs=5e-5)

    def test_fast_regime_approaches_clt_constants(self):
        for o, grid in ((UNIFORM_ORACLE, DECADES), (EXPONENTIAL_ORACLE, GRID_1E3_1E6)):
            mse = _fast_mse(o, grid)
            s2 = clt_covariance_fast(o, FAST_SCHEDULE.b1)
            for key, limit in (("theta_bar", s2[0, 0]), ("embedded", s2[1, 1])):
                gaps = [abs(n * mse[key][grid.index(n)] / limit - 1.0) for n in DECADES]
                # each decade shrinks the gap to the CLT constant, by about 10^(-1/3)
                assert gaps[1] < 0.6 * gaps[0] and gaps[2] < 0.6 * gaps[1], (key, gaps)

    @pytest.mark.parametrize("grid", [(), (0, 5), (5, 5), (10, 3)])
    def test_grid_must_be_increasing_positive(self, grid):
        with pytest.raises(ValueError):
            finite_n_mse(UNIFORM_ORACLE, FAST_SCHEDULE, grid)
