"""Closed-form limiting variances, rate constants, and variance comparisons.

Everything here is a pure function of a :class:`~streamrisk.distributions.RiskOracle`
and step-schedule parameters.  The CLI calls the constants and bounds it
prints itself, before it runs any replicate; each raises a ValueError naming
a value that leaves float range.  Rate bounds return first-order terms only; the
remainder constants are existence statements without values, so the remainders
are exposed as exponents and never fabricated numerically.

:func:`finite_n_mse` is the one finite-n quantity: the exact second moment of
a linearized surrogate of the recursions.  It is a prediction for what a
finite-horizon experiment should read, not a value of any remainder constant.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .distributions import RiskOracle, finite
from .schedules import StepSchedule

VERDICT_EMBEDDED = "embedded_better"
VERDICT_COMPETITOR = "competitor_better"
VERDICT_TIE = "tie"
VERDICT_BOUNDARY = "boundary"
VERDICT_DEGENERATE = "degenerate"


def quantile_clt_variance(oracle: RiskOracle) -> float:
    """Limiting variance of sqrt(n) (theta_bar - theta): alpha (1-alpha) / f^2."""
    f = oracle.density_at_quantile
    return finite("quantile_clt_var", lambda: oracle.alpha * (1.0 - oracle.alpha) / (f * f))


def clt_variance_slow(oracle: RiskOracle) -> float:
    """Limiting variance of b_n^(-1/2) (sq - truth) in the slow regime b < 1:
    v_alpha / (2 (1-alpha)^2)."""
    one_m = 1.0 - oracle.alpha
    return finite("sq_var_slow", lambda: oracle.v_alpha / (2.0 * one_m * one_m))


def clt_covariance_fast(oracle: RiskOracle, b1: float) -> np.ndarray:
    """Joint CLT covariance S^2 of sqrt(n) (theta_bar - theta, sq - vartheta)
    in the fast regime b = 1, b1 > 1/2."""
    if not b1 > 0.5:
        raise ValueError(f"fast-regime covariance requires b1 > 1/2, got {b1}")
    alpha = oracle.alpha
    one_m = 1.0 - alpha
    f = oracle.density_at_quantile
    gap = oracle.vartheta_alpha - oracle.theta_alpha
    s11 = quantile_clt_variance(oracle)
    s12 = finite("s2_12", lambda: alpha * gap / f)
    s22 = finite(
        "s2_22",
        lambda: (b1 * b1 / (2.0 * b1 - 1.0)) * oracle.v_alpha / (one_m * one_m)
        - (2.0 * b1 / (2.0 * b1 - 1.0)) * alpha * oracle.theta_alpha * gap / one_m,
    )
    if s22 < 0.0:
        raise ValueError(
            "oracle yields a negative limiting variance "
            f"(s22 = {s22}); input rejected as inadmissible"
        )
    return np.array([[s11, s12], [s12, s22]])


def sigma_from_generator(oracle: RiskOracle, b1: float) -> np.ndarray:
    """Invariant covariance Sigma of the limiting Ornstein-Uhlenbeck diffusion,
    solved from the three second-moment equations of its generator.

    It is a route independent of :func:`clt_covariance_fast`, to which it is
    related by S^2 = diag(1, sqrt(b1)) Sigma diag(1, sqrt(b1)).
    """
    if not b1 > 0.5:
        raise ValueError(f"generator route requires b1 > 1/2, got {b1}")
    alpha = oracle.alpha
    one_m = 1.0 - alpha
    f = oracle.density_at_quantile
    gap = oracle.vartheta_alpha - oracle.theta_alpha
    s_xx = alpha * one_m / (f * f)
    s_xy = alpha * gap / (f * math.sqrt(b1))
    s_yy = (2.0 / (2.0 * b1 - 1.0)) * (
        b1 * oracle.v_alpha / (2.0 * one_m * one_m)
        - alpha * oracle.theta_alpha * gap / one_m
    )
    if s_yy < 0.0:
        raise ValueError(
            "oracle yields a negative limiting variance "
            f"(sigma_yy = {s_yy}); input rejected as inadmissible"
        )
    return np.array([[s_xx, s_xy], [s_xy, s_yy]])


def c_alpha_b1(oracle: RiskOracle, b1: float) -> float:
    """Fast-regime (b = 1) non-asymptotic constant in the n*MSE bound:

    C = 4 b1^2 a(1-a) / ((2 b1 - 1)^2 f^2)
        * [1 + sqrt(1 + v_alpha f^2 (2 b1 - 1) / (4 a (1-a)^3))]^2.
    """
    if not b1 > 0.5:
        raise ValueError(f"fast-regime constant requires b1 > 1/2, got {b1}")
    alpha = oracle.alpha
    one_m = 1.0 - alpha
    f = oracle.density_at_quantile

    def constant() -> float:
        lead = 4.0 * b1 * b1 * alpha * one_m / ((2.0 * b1 - 1.0) ** 2 * f * f)
        inner = 1.0 + oracle.v_alpha * f * f * (2.0 * b1 - 1.0) / (4.0 * alpha * one_m**3)
        return lead * (1.0 + math.sqrt(inner)) ** 2

    return finite("c_alpha_b1", constant)


def mse_bound_embedded(oracle: RiskOracle, schedule: StepSchedule, n: int) -> float:
    """First-order term of the embedded-variant MSE bound at step ``n``:
    slow regime (b < 1) gives ``clt_variance_slow * b_n``; fast regime (b = 1)
    gives ``c_alpha_b1 / n``.  Remainder terms are deliberately excluded."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if schedule.b_exp == 1.0:
        return finite("mse_bound_embedded", lambda: c_alpha_b1(oracle, schedule.b1) / n)
    return finite("mse_bound_embedded", lambda: clt_variance_slow(oracle) * schedule.gain_b(n))


def embedded_remainder_exponent(schedule: StepSchedule) -> float:
    """Decay exponent of the (constant-free) remainder in the embedded bound."""
    if schedule.b_exp == 1.0:
        return min(1.0 + schedule.a_exp / 2.0, 2.0 - schedule.a_exp)
    return (schedule.b_exp + 1.0) / 2.0


def mse_bound_averaged_quantile(oracle: RiskOracle, schedule: StepSchedule, n: int) -> float:
    """First-order term alpha (1-alpha) / (f^2 n) of the averaged-quantile MSE."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    f = oracle.density_at_quantile
    return finite("mse_bound_averaged_quantile", lambda: oracle.alpha * (1.0 - oracle.alpha) / (f * f * n))


def averaged_quantile_remainder_exponent(a_exp: float) -> float:
    """Remainder exponent r = min(1/2 + a, 3/2 - a/2); equal branches at a = 2/3."""
    return min(0.5 + a_exp, 1.5 - a_exp / 2.0)


def mse_bound_competitor(oracle: RiskOracle, schedule: StepSchedule, n: int) -> float:
    """First-order MSE heuristic for the classical/Bardou variants at step ``n``,
    from their (prior-work) CLT variance: gamma_vartheta * n^(-b)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gamma = variance_comparison(oracle, schedule.b1, schedule.b_exp).gamma_vartheta
    return finite("mse_bound_competitor", lambda: gamma * float(n) ** (-schedule.b_exp))


@dataclass(frozen=True)
class ComparisonReport:
    """Limiting-variance comparison of the embedded variant against the
    classical/Bardou recursions at gain multiplier b1.

    ``embedded_variance`` and ``gamma_vartheta`` are on the common
    sqrt(n^b) scaling; ``b1_threshold`` is 1 - theta/(2 vartheta - theta),
    the b = 1 crossover below which the embedded variant wins.
    """

    b1: float
    tau_alpha_sq: float
    gamma_vartheta: float
    embedded_variance: float
    b1_threshold: float
    verdict: str


def variance_comparison(oracle: RiskOracle, b1: float, b_exp: float) -> ComparisonReport:
    """Compare limiting variances: embedded vs classical/Bardou.

    Degenerate oracles (theta_alpha <= 0 or vartheta_alpha == theta_alpha) get
    their quantities computed but the verdict flagged, since the comparison
    algebra presumes positive quantile and superquantile.
    """
    if not 0.5 < b_exp <= 1.0:
        raise ValueError(f"b_exp must lie in (1/2, 1], got {b_exp}")
    if b_exp == 1.0 and not b1 > 0.5:
        raise ValueError(f"b_exp = 1 comparison requires b1 > 1/2, got {b1}")
    if not b1 > 0:
        raise ValueError(f"b1 must be positive, got {b1}")
    alpha = oracle.alpha
    one_m = 1.0 - alpha
    theta = oracle.theta_alpha
    vartheta = oracle.vartheta_alpha
    tau_sq = finite(
        "tau_alpha_sq",
        lambda: oracle.v_alpha / (one_m * one_m) - (alpha * theta / one_m) * (2.0 * vartheta - theta),
    )
    if b_exp == 1.0:
        gamma = finite("gamma_vartheta", lambda: b1 * b1 * tau_sq / (2.0 * b1 - 1.0))
        embedded = float(clt_covariance_fast(oracle, b1)[1, 1])
    else:
        gamma = finite("gamma_vartheta", lambda: b1 * tau_sq / 2.0)
        embedded = finite("embedded_variance", lambda: b1 * clt_variance_slow(oracle))
    threshold = finite("b1_threshold", lambda: 1.0 - theta / (2.0 * vartheta - theta))

    if theta <= 0.0 or vartheta <= theta:
        verdict = VERDICT_DEGENERATE
    elif b_exp == 1.0 and abs(threshold - 0.5) <= 1e-12:
        verdict = VERDICT_BOUNDARY
    elif embedded < gamma:
        verdict = VERDICT_EMBEDDED
    elif embedded > gamma:
        verdict = VERDICT_COMPETITOR
    else:
        verdict = VERDICT_TIE

    return ComparisonReport(
        b1=b1,
        tau_alpha_sq=tau_sq,
        gamma_vartheta=gamma,
        embedded_variance=embedded,
        b1_threshold=threshold,
        verdict=verdict,
    )


def finite_n_mse(
    oracle: RiskOracle, schedule: StepSchedule, n_grid: Sequence[int]
) -> dict[str, np.ndarray]:
    """Exact MSE of ``theta_bar``, ``embedded`` and ``classical`` at each ``n``
    of ``n_grid`` in the warm-started linearized system.  With t the quantile
    deviation, s its running sum (theta_bar deviates by s / n), and e, c the
    embedded and classical deviations, the update at counter k with gains
    a_k = gain_a(max(k, 1)) and b_k = gain_b(k) reads

        t' = (1 - a_k f) t + a_k dM            s' = s + t'
        e' = (1 - b_k) e - b_k g s / k + b_k / (1 - alpha) dN
        c' = (1 - b_k) c - b_k g t     + b_k / (1 - alpha) dN

    where g = theta_alpha f / (1 - alpha), Var dM = alpha (1 - alpha),
    Var dN = v_alpha and Cov(dM, dN) = alpha (1 - alpha) vartheta_alpha.  From
    the warm start the state stays centred, so the MSEs are entries of its
    covariance P <- A_k P A_k^T + L_k Q L_k^T, iterated exactly (less the cross
    terms of s and e with c, which feed none of them).
    """
    grid = [int(n) for n in n_grid]
    if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"n_grid must be strictly increasing positive integers, got {n_grid}")
    one_m = 1.0 - oracle.alpha
    f = oracle.density_at_quantile
    g = oracle.theta_alpha * f / one_m
    q_mm = oracle.alpha * one_m
    q_mn = q_mm * oracle.vartheta_alpha
    tt = ts = ss = te = se = ee = tc = cc = 0.0
    rows = []
    for k in range(grid[-1]):
        k1 = max(k, 1)
        a, b = schedule.gain_a(k1), schedule.gain_b(k)
        ca, cb, bn = 1.0 - a * f, 1.0 - b, b / one_m
        u = b * g  # classical: loading of t
        w = u / k1  # embedded: loading of s (the state is still zero at k = 0)
        noise_mn, noise_nn = a * bn * q_mn, bn * bn * oracle.v_alpha
        tt_n = ca * ca * tt + a * a * q_mm
        te_n = ca * (cb * te - w * ts) + noise_mn
        tc_n = ca * (cb * tc - u * tt) + noise_mn
        # every right-hand side reads the previous step's entries
        tt, ts, ss, te, se, ee, tc, cc = (
            tt_n,
            tt_n + ca * ts,
            tt_n + 2.0 * ca * ts + ss,
            te_n,
            te_n + cb * se - w * ss,
            cb * cb * ee - 2.0 * w * cb * se + w * w * ss + noise_nn,
            tc_n,
            cb * cb * cc - 2.0 * u * cb * tc + u * u * tt + noise_nn,
        )
        if k + 1 == grid[len(rows)]:
            rows.append((ss / ((k + 1) * (k + 1)), ee, cc))
    theta_bar, embedded, classical = np.array(rows).T
    return {"theta_bar": theta_bar, "embedded": embedded, "classical": classical}
