"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one `ACCEPTANCE <id>: PASS/FAIL` line (visible with
`pytest -s`).  Three criteria are KNOWN RED, and each is kept faithful to its
statement rather than re-seeded or loosened (see the repository README).  Their
lines print the prediction of `asymptotics.finite_n_mse` (the linearized
recursions) and a z-score next to the measurement:

* 2: n*mse = 0.22407 against 0.25 +-10%; predicted 0.25127, so the fixed seed
  is a z = -2.75 draw.  At 1000 replicates the band is +-2.24 standard errors.
* 4: slope -1.147 against -1 +-0.1; predicted -1.130 on the same grid, and
  n*mse at 1e6 agrees (z = 0.77): the fit is still pre-asymptotic.
* 7a: embedded/classical MSE ratio 1.516 at n = 1e6, above even the predicted
  1.2526 (z = 3.58) and far from the asymptotic ordering (< 1) asserted.  The
  classical variant nears its asymptote from below at the n^-0.1 rate set by
  2(b1 - 1/2), so the ratio drops below 1 only near n ~ 1e14.
"""

import dataclasses
import math
import statistics
import time

import numpy as np
import pytest

from streamrisk.asymptotics import (
    VERDICT_BOUNDARY,
    VERDICT_COMPETITOR,
    VERDICT_EMBEDDED,
    c_alpha_b1,
    clt_covariance_fast,
    clt_variance_slow,
    finite_n_mse,
    sigma_from_generator,
    variance_comparison,
)
from streamrisk.cli import main
from streamrisk.distributions import (
    Exponential,
    Gaussian,
    Pareto,
    Uniform,
    numeric_oracle,
    oracle,
)
from streamrisk.experiments import (
    ExperimentConfig,
    ExperimentResult,
    compare_variants,
    empirical_clt_cov,
    fit_rate,
    moment_curve,
    run_experiment,
)
from streamrisk.schedules import StepSchedule

SEED = 20240817
GRID_1E3_1E6 = (1000, 3162, 10000, 31623, 100000, 316228, 1000000)
GRID_1E2_1E5 = (100, 316, 1000, 3162, 10000, 31623, 100000)

FAST = StepSchedule(a1=1.0, a_exp=2 / 3, b1=1.0, b_exp=1.0)
SLOW = StepSchedule(a1=1.0, a_exp=0.6, b1=1.0, b_exp=0.75)


def _report(tag: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


# --- criterion 1: oracle equivalence ---------------------------------------

def test_criterion_01_oracle_equivalence():
    kinds = [Gaussian(0.0, 1.0), Exponential(1.0), Uniform(0.0, 1.0), Pareto(1.0, 3.0)]
    t0 = time.perf_counter()
    worst = 0.0
    for model in kinds:
        for alpha in (0.1, 0.5, 0.9, 0.95):
            closed = oracle(model, alpha)
            numeric = numeric_oracle(model, alpha)
            for field in ("theta_alpha", "vartheta_alpha", "v_alpha"):
                worst = max(worst, _rel(getattr(closed, field), getattr(numeric, field)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    line = _report("1 oracle-equivalence", ok, f"worst rel {worst:.2e}, {elapsed:.2f}s")
    assert ok, line


# --- criterion 2: averaged-quantile CLT constant ----------------------------

@pytest.fixture(scope="module")
def uniform_fast_result():
    """Criterion 5's run; criterion 2 reads its first 1000 replicates."""
    cfg = ExperimentConfig(
        model=Uniform(0.0, 1.0), alpha=0.5, schedule=FAST,
        n_grid=(1000000,), replicates=2000, master_seed=SEED, warm_start=True,
    )
    return run_experiment(cfg)


def test_criterion_02_averaged_quantile_constant(uniform_fast_result):
    cfg = ExperimentConfig(
        model=Uniform(0.0, 1.0), alpha=0.5, schedule=FAST,
        n_grid=(1000000,), replicates=1000, master_seed=SEED, warm_start=True,
    )
    # Replicate r draws from substream (seed, experiment, r) alone, so a run
    # that differs only in having more replicates holds this one's data as its
    # first cfg.replicates lanes, bit for bit.
    shared = uniform_fast_result
    assert dataclasses.replace(shared.config, replicates=cfg.replicates) == cfg
    res = ExperimentResult(
        config=cfg,
        oracle=shared.oracle,
        estimates={k: v[:, : cfg.replicates] for k, v in shared.estimates.items()},
    )
    mse, se = res.mse_curve("theta_bar")
    value = 1e6 * mse[0]
    predicted = finite_n_mse(res.oracle, cfg.schedule, cfg.n_grid)["theta_bar"]
    ok = abs(value - 0.25) <= 0.025
    line = _report(
        "2 averaged-quantile-constant", ok,
        f"n*mse = {value:.5f}, target 0.25 +-10%; "
        f"linearized {1e6 * predicted[0]:.5f}, z = {(mse[0] - predicted[0]) / se[0]:.2f}",
    )
    assert ok, line


# --- criterion 3: superquantile rate, slow regime ---------------------------

@pytest.fixture(scope="module")
def slow_rate_result():
    cfg = ExperimentConfig(
        model=Exponential(1.0), alpha=0.9, schedule=SLOW,
        n_grid=GRID_1E3_1E6, replicates=400, master_seed=SEED, warm_start=False,
    )
    return run_experiment(cfg)


def test_criterion_03_slow_regime_rate(slow_rate_result):
    res = slow_rate_result
    mse, _ = res.mse_curve("embedded")
    fit = fit_rate(zip(GRID_1E3_1E6, mse))
    target = clt_variance_slow(res.oracle)
    assert target == pytest.approx(54.0818, rel=1e-4)
    level = mse[-1] / SLOW.gain_b(1000000)
    ok = (
        abs(fit.slope - (-0.75)) <= 0.1
        and fit.r_squared > 0.95
        and abs(level - target) <= 0.2 * target
    )
    line = _report(
        "3 slow-regime-rate", ok,
        f"slope {fit.slope:.4f} (target -0.75 +-0.1), r2 {fit.r_squared:.4f} (>0.95), "
        f"mse/b_n = {level:.2f} vs {target:.2f} +-20%",
    )
    assert ok, line


# --- criterion 4: superquantile rate, fast regime ---------------------------

def test_criterion_04_fast_regime_rate():
    cfg = ExperimentConfig(
        model=Exponential(1.0), alpha=0.9, schedule=FAST,
        n_grid=GRID_1E3_1E6, replicates=400, master_seed=SEED, warm_start=True,
    )
    res = run_experiment(cfg)
    mse, se = res.mse_curve("embedded")
    fit = fit_rate(zip(GRID_1E3_1E6, mse))
    bound = c_alpha_b1(res.oracle, 1.0)
    level = 1e6 * mse[-1]
    predicted = finite_n_mse(res.oracle, cfg.schedule, cfg.n_grid)["embedded"]
    predicted_fit = fit_rate(zip(cfg.n_grid, predicted))
    ok = abs(fit.slope - (-1.0)) <= 0.1 and level <= bound
    line = _report(
        "4 fast-regime-rate", ok,
        f"slope {fit.slope:.4f} (target -1 +-0.1), n*mse = {level:.2f} <= C = {bound:.2f}; "
        f"linearized slope {predicted_fit.slope:.4f}, n*mse = {1e6 * predicted[-1]:.2f}, "
        f"z = {(mse[-1] - predicted[-1]) / se[-1]:.2f}",
    )
    assert ok, line


# --- criterion 5: joint CLT covariance --------------------------------------

def test_criterion_05_joint_clt_covariance(uniform_fast_result):
    res = uniform_fast_result
    cov, se = empirical_clt_cov(res, 1000000)
    s2 = clt_covariance_fast(res.oracle, 1.0)
    assert s2[0, 0] == pytest.approx(0.25, abs=1e-12)
    assert s2[0, 1] == pytest.approx(0.125, abs=1e-12)
    assert s2[1, 1] == pytest.approx(0.3541667, abs=5e-8)
    details = []
    ok = True
    for (i, j), name in (((0, 0), "s11"), ((0, 1), "s12"), ((1, 1), "s22")):
        dev = abs(cov[i, j] - s2[i, j])
        entry_ok = dev <= 3.0 * se[i, j] and dev <= 0.15 * abs(s2[i, j])
        ok = ok and entry_ok
        details.append(f"{name} {cov[i, j]:.5f} vs {s2[i, j]:.5f} ({dev / se[i, j]:.2f} se)")
    line = _report("5 joint-clt-covariance", ok, "; ".join(details))
    assert ok, line


# --- criterion 6: marginal CLT variance, slow regime ------------------------

def test_criterion_06_slow_clt_variance():
    cfg = ExperimentConfig(
        model=Exponential(1.0), alpha=0.9, schedule=SLOW,
        n_grid=(1000000,), replicates=2000, master_seed=SEED, warm_start=True,
    )
    res = run_experiment(cfg)
    pairs = res.clt_pairs(1000000)
    var_emp = float(pairs[:, 1].var(ddof=1))
    target = clt_variance_slow(res.oracle)
    ok = abs(var_emp - target) <= 0.15 * target
    line = _report(
        "6 slow-clt-variance", ok, f"var = {var_emp:.2f} vs {target:.2f} +-15%"
    )
    assert ok, line


# --- criterion 7: variance-comparison consistency ---------------------------

def test_criterion_07a_heavy_tail_comparison():
    """KNOWN RED: asserts the asymptotic embedded<classical ordering is already
    empirical at n = 1e6; the linearized finite-n dynamics sit at ratio 1.2526
    there (see module docstring).  Kept faithful rather than loosened."""
    cfg = ExperimentConfig(
        model=Pareto(1.0, 2.2), alpha=0.9,
        schedule=StepSchedule(a1=1.0, a_exp=2 / 3, b1=0.55, b_exp=1.0),
        n_grid=(1000000,), replicates=1000, master_seed=SEED, warm_start=True,
    )
    res = run_experiment(cfg)
    rep = compare_variants(res)
    theory = rep.theory
    prediction_ok = (
        theory.verdict == VERDICT_EMBEDDED
        and theory.b1_threshold == pytest.approx(0.625, abs=1e-12)
    )
    row = next(r for r in rep.rows if r.pair == "embedded/classical" and r.n == 1000000)
    empirical_ok = row.mse_ratio < 1.0 and row.ci_high < 1.0
    ok = prediction_ok and empirical_ok
    predicted = finite_n_mse(res.oracle, cfg.schedule, cfg.n_grid)
    predicted_ratio = predicted["embedded"][0] / predicted["classical"][0]
    se = (row.ci_high - row.ci_low) / (2.0 * statistics.NormalDist().inv_cdf(0.975))
    line = _report(
        "7a heavy-tail-comparison", ok,
        f"theory: {theory.verdict}, b1* = {theory.b1_threshold:.4f}; "
        f"empirical ratio {row.mse_ratio:.4f}, 95% CI [{row.ci_low:.4f}, {row.ci_high:.4f}]; "
        f"linearized ratio {predicted_ratio:.4f}, z = {(row.mse_ratio - predicted_ratio) / se:.2f}",
    )
    assert ok, line


def test_criterion_07b_uniform_boundary_verdict():
    rep = variance_comparison(oracle(Uniform(0.0, 1.0), 0.5), 0.55, 1.0)
    ok = rep.verdict == VERDICT_BOUNDARY
    line = _report("7b uniform-boundary-verdict", ok, f"verdict = {rep.verdict}")
    assert ok, line


# --- criterion 8: fourth-moment decay of the raw quantile iterate -----------

def test_criterion_08_moment_decay():
    cfg = ExperimentConfig(
        model=Uniform(0.0, 1.0), alpha=0.5, schedule=FAST,
        n_grid=GRID_1E2_1E5, replicates=500, master_seed=SEED, warm_start=False,
    )
    res = run_experiment(cfg)
    m4 = moment_curve(res, "theta", 4)
    fit = fit_rate(zip(GRID_1E2_1E5, m4))
    limit = -2.0 * (2.0 / 3.0) + 0.15
    ok = fit.slope <= limit
    line = _report("8 moment-decay", ok, f"slope {fit.slope:.4f} <= {limit:.4f}")
    assert ok, line


# --- criterion 9: algebraic identities --------------------------------------

def test_criterion_09_algebraic_identities(random_admissible):
    t0 = time.perf_counter()
    worst = 0.0
    for o, b1 in random_admissible(10, seed=424242):
        s2 = clt_covariance_fast(o, b1)
        scale = np.diag([1.0, math.sqrt(b1)])
        rescaled = scale @ sigma_from_generator(o, b1) @ scale
        worst = max(worst, float(np.max(np.abs(s2 - rescaled) / np.maximum(np.abs(s2), 1.0))))
    identities_ok = worst <= 1e-12
    verdicts_ok = True
    for o, b1 in random_admissible(20, seed=555555):
        rep = variance_comparison(o, b1, 1.0)
        threshold_route = VERDICT_EMBEDDED if b1 < rep.b1_threshold else VERDICT_COMPETITOR
        if rep.verdict != VERDICT_BOUNDARY and rep.verdict != threshold_route:
            verdicts_ok = False
    elapsed = time.perf_counter() - t0
    ok = identities_ok and verdicts_ok and elapsed < 1.0
    line = _report(
        "9 algebraic-identities", ok,
        f"worst rescaling dev {worst:.2e}, verdict routes agree: {verdicts_ok}, {elapsed:.3f}s",
    )
    assert ok, line


# --- criterion 10: determinism across reruns and thread counts --------------

def test_criterion_10_determinism(tmp_path):
    cfg_text = (
        "dist = exponential rate=1.0\n"
        "alpha = 0.9\n"
        "a1 = 1.0\na = 0.6\nb1 = 1.0\nb = 0.75\n"
        "n_grid = 100,1000\n"
        "replicates = 8\n"
        f"master_seed = {SEED}\n"
        "warm_start = false\n"
    )
    cfg = tmp_path / "det.cfg"
    cfg.write_text(cfg_text)
    outs = []
    for label, threads in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / label
        code = main(["rates", "--config", str(cfg), "--out", str(out), "--threads", str(threads)])
        assert code == 0
        outs.append(out)
    same = all(
        (outs[0] / name).read_bytes() == (o / name).read_bytes()
        for o in outs[1:]
        for name in ("mse.csv", "ratefit.csv", "rates.svg")
    )
    line = _report("10 determinism", same, "rerun and 1-vs-8-thread outputs byte-identical")
    assert same, line
