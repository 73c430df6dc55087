import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import streamrisk as sr
from streamrisk.distributions import sample, substream
from streamrisk.estimators import init, run_stream, step
from streamrisk import experiments as ex
from streamrisk.experiments import ExperimentConfig, _simulate_block, run_experiment
from streamrisk.schedules import StepSchedule

FAST = StepSchedule(a1=1.0, a_exp=2 / 3, b1=1.0, b_exp=1.0)


def test_init_fields():
    st0 = init(0.5, FAST, theta0=0.0, sq0=0.0)
    assert st0.n == 0
    assert st0.theta == st0.theta_bar == 0.0
    assert st0.sq_embedded == st0.sq_classical == st0.sq_bardou == 0.0


def test_init_warm_start_passthrough():
    st0 = init(0.9, FAST, theta0=2.302585, sq0=3.302585)
    assert st0.theta == 2.302585 and st0.sq_embedded == 3.302585


def test_init_rejects_bad_alpha_and_schedule():
    with pytest.raises(ValueError):
        init(0.0, FAST, 0.0, 0.0)
    with pytest.raises(ValueError):
        init(0.5, StepSchedule(1.0, 0.4, 1.0, 0.8), 0.0, 0.0)  # chain: a <= 1/2
    with pytest.raises(ValueError):
        init(0.5, FAST, math.nan, 0.0)


@pytest.mark.parametrize(
    "schedule", [StepSchedule(1.0, 0.4, 1.0, 0.8), StepSchedule(1.0, 0.8, 1.0, 0.75)], ids=["a<=1/2", "a>=b"]
)
def test_engine_and_reference_refuse_the_same_broken_chain(schedule):
    with pytest.raises(ValueError, match="exponent chain") as reference:
        init(0.5, schedule, 0.0, 0.0)
    with pytest.raises(ValueError, match="exponent chain") as engine:
        ExperimentConfig(model=sr.Uniform(0.0, 1.0), alpha=0.5, schedule=schedule, n_grid=(10,), replicates=2,
                         master_seed=0)
    assert str(engine.value) == str(reference.value)


def test_single_step_sets_cesaro_to_first_iterate():
    st0 = init(0.5, FAST, theta0=7.0, sq0=0.0)
    step(st0, 1.25)
    assert st0.n == 1
    assert st0.theta_bar == st0.theta


def test_quantile_step_above():
    # a_1 = a1 = 0.5, indicator 0: theta <- 0 - 0.5*(0 - 0.5) = 0.25
    sched = StepSchedule(a1=0.5, a_exp=2 / 3, b1=1.0, b_exp=1.0)
    st0 = init(0.5, sched, 0.0, 0.0)
    step(st0, 1.0)
    assert st0.theta == pytest.approx(0.25, abs=1e-15)


def test_quantile_step_below():
    sched = StepSchedule(a1=0.5, a_exp=2 / 3, b1=1.0, b_exp=1.0)
    st0 = init(0.5, sched, 0.0, 0.0)
    step(st0, -1.0)
    assert st0.theta == pytest.approx(-0.25, abs=1e-15)


def test_embedded_step_arithmetic():
    # b_0 = b1 = 0.1, 1-alpha = 0.1: target 5/0.1 = 50, sq <- 3 + 0.1*(50-3) = 7.7
    sched = StepSchedule(a1=1.0, a_exp=2 / 3, b1=0.1, b_exp=1.0)
    st0 = init(0.9, sched, theta0=2.0, sq0=3.0)
    step(st0, 5.0)
    assert st0.sq_embedded == pytest.approx(7.7, rel=1e-15)


def test_three_step_golden_trace():
    st0 = init(0.5, FAST, 0.0, 0.0)
    for x in (0.7, 0.2, 0.9):
        step(st0, x)
    assert st0.theta == pytest.approx(2.0 ** (-2.0 / 3.0) / 2.0, rel=1e-15)
    assert st0.theta_bar == pytest.approx((0.5 + 0.0 + 2.0 ** (-2.0 / 3.0) / 2.0) / 3.0, rel=1e-15)
    assert st0.sq_embedded == pytest.approx(16.0 / 15.0, rel=1e-15)
    assert st0.sq_classical == pytest.approx(16.0 / 15.0, rel=1e-15)
    assert st0.sq_bardou == pytest.approx(37.0 / 30.0, rel=1e-15)


def test_rejects_non_finite_observation_unchanged_state():
    st0 = init(0.5, FAST, 1.0, 2.0)
    before = dataclasses.replace(st0)
    with pytest.raises(ValueError, match="non-finite"):
        step(st0, math.inf)
    assert st0 == before


def test_run_stream_empty_is_identity():
    st0 = init(0.5, FAST, 1.0, 2.0)
    before = dataclasses.replace(st0)
    assert run_stream(st0, []) == before


def test_run_stream_single_equals_step():
    a = init(0.5, FAST, 0.3, 0.4)
    b = init(0.5, FAST, 0.3, 0.4)
    run_stream(a, [0.9])
    step(b, 0.9)
    assert a == b


def test_run_stream_error_carries_index():
    st0 = init(0.5, FAST, 0.0, 0.0)
    with pytest.raises(ValueError, match="observation 2"):
        run_stream(st0, [0.1, 0.2, math.nan])
    assert st0.n == 2


def test_run_stream_trace_rows():
    st0 = init(0.5, FAST, 0.0, 0.0)
    final, rows = run_stream(st0, [0.7, 0.2, 0.9, 0.4], checkpoints=[1, 3])
    assert [r[0] for r in rows] == [1, 3]
    assert rows[1][1] == pytest.approx(2.0 ** (-2.0 / 3.0) / 2.0, rel=1e-15)
    assert final.n == 4


@pytest.mark.parametrize("consumed, checkpoints, bad", [(0, [0, 1, 2], 0), (5, [3, 6, 7], 3)])
def test_run_stream_rejects_checkpoint_not_after_counter(consumed, checkpoints, bad):
    state = run_stream(init(0.5, FAST, 0.0, 0.0), [0.5] * consumed)
    with pytest.raises(ValueError, match=rf"checkpoint {bad} .* counter n = {consumed}"):
        run_stream(state, [0.1, 0.9, 0.3], checkpoints=checkpoints)
    assert state.n == consumed


@given(
    xs=st.lists(st.floats(-10, 10), min_size=1, max_size=60),
    alpha=st.floats(0.05, 0.95),
)
@settings(max_examples=150)
def test_cesaro_identity(xs, alpha):
    state = init(alpha, FAST, 0.0, 0.0)
    thetas = []
    for x in xs:
        step(state, x)
        thetas.append(state.theta)
    assert state.theta_bar == pytest.approx(sum(thetas) / len(thetas), rel=1e-12, abs=1e-12)


@given(
    xs=st.lists(st.floats(-10, 10), min_size=1, max_size=60),
    alpha=st.floats(0.05, 0.95),
    b1=st.floats(0.05, 1.0),
)
@settings(max_examples=150)
def test_bounded_increments_and_convex_combination(xs, alpha, b1):
    sched = StepSchedule(a1=1.0, a_exp=2 / 3, b1=b1, b_exp=1.0)
    state = init(alpha, sched, 0.0, 0.0)
    inv1ma = 1.0 / (1.0 - alpha)
    for x in xs:
        n = state.n
        a_n = sched.gain_a(max(n, 1))
        b_n = sched.gain_b(n)
        prev_theta = state.theta
        prev = (state.sq_embedded, state.sq_classical, state.sq_bardou)
        targets = (
            (x * (1.0 if x > state.theta_bar else 0.0)) * inv1ma,
            (x * (1.0 if x > state.theta else 0.0)) * inv1ma,
            state.theta + ((x - state.theta) * inv1ma) * (1.0 if x > state.theta else 0.0),
        )
        step(state, x)
        assert abs(state.theta - prev_theta) <= a_n * max(alpha, 1 - alpha) * (1 + 1e-12)
        if b_n <= 1.0:
            for new, old, tgt in zip(
                (state.sq_embedded, state.sq_classical, state.sq_bardou), prev, targets
            ):
                lo, hi = min(old, tgt), max(old, tgt)
                pad = 4 * math.ulp(max(abs(lo), abs(hi), 1.0))
                assert lo - pad <= new <= hi + pad


def test_determinism_same_seed_same_state():
    model = sr.Exponential(1.0)

    def run():
        rng = substream(11, 0, 0)
        state = init(0.9, FAST, 1.0, 10.0)
        for _ in range(500):
            step(state, sample(model, rng))
        return state

    assert run() == run()


# One lane past a kernel sub-block boundary; the checkpoints sit on and next
# to the kernel's chunk boundaries.
_WIDE = 128 * ex._KERNEL_LANES + 1
_KERNEL_CHUNK = ex._KERNEL_STEPS
_WIDE_GRID = (_KERNEL_CHUNK - 1, _KERNEL_CHUNK, _KERNEL_CHUNK + 1, 2 * _KERNEL_CHUNK, 2 * _KERNEL_CHUNK + 3)


def _scalar_rows(model, alpha, sched, oracle, warm, seed, lane, n_grid):
    """The five estimators of one replicate at each checkpoint, by estimators.step."""
    rng = substream(seed, 0, lane)
    if warm:
        state = init(alpha, sched, oracle.theta_alpha, oracle.vartheta_alpha)
    else:
        x0 = sample(model, rng)
        state = init(alpha, sched, x0, x0 / (1.0 - alpha))
    rows = []
    for n_target in n_grid:
        while state.n < n_target:
            step(state, sample(model, rng))
        rows.append((state.theta, state.theta_bar, state.sq_embedded, state.sq_classical, state.sq_bardou))
    return rows


@pytest.mark.parametrize(
    "model, warm, replicates, n_grid",
    [
        pytest.param(model, warm, 3, (3, 17, 5000), id=f"{model}-{warm}")
        for model in (sr.Uniform(0, 1), sr.Exponential(1.0), sr.Pareto(1.0, 2.2))
        for warm in (True, False)
    ]
    + [pytest.param(sr.Gaussian(0.0, 1.0), False, _WIDE, _WIDE_GRID, id="wide-Gaussian-False")],
)
def test_kernel_matches_scalar_stream(model, warm, replicates, n_grid):
    sched = StepSchedule(a1=1.0, a_exp=0.6, b1=0.8, b_exp=0.75)
    cfg = ExperimentConfig(
        model=model,
        alpha=0.85,
        schedule=sched,
        n_grid=n_grid,
        replicates=replicates,
        master_seed=314,
        warm_start=warm,
    )
    oracle = sr.oracle(model, cfg.alpha)
    rngs = [substream(314, 0, r) for r in range(replicates)]
    block = _simulate_block(cfg, oracle, rngs)
    lanes = {0, 1, ex._KERNEL_LANES - 1, ex._KERNEL_LANES, replicates // 2, replicates - 1}
    for r in sorted(lane for lane in lanes if lane < replicates):
        rows = _scalar_rows(model, cfg.alpha, sched, oracle, warm, 314, r, n_grid)
        for k, row in enumerate(rows):
            assert tuple(block[key][k, r] for key in ex.ESTIMATOR_KEYS) == row


# The kernel advances lanes in pairs; an odd last lane rides alone in its pair.
@pytest.mark.parametrize("replicates", [2, 3, ex._KERNEL_LANES + 1, ex._KERNEL_LANES + 3])
@pytest.mark.parametrize(
    "model, alpha, warm", [(sr.Uniform(0, 1), 0.5, False), (sr.Pareto(1.0, 2.2), 0.9, True)], ids=["Uniform", "Pareto"]
)
def test_kernel_matches_scalar_stream_on_every_lane(model, alpha, warm, replicates):
    # Checkpoints 1 and 2 make one-step chunks, and those on and next to the
    # first chunk boundary check the state that each pair writes back and
    # reads again in the next chunk.
    n_grid = (1, 2, 3, _KERNEL_CHUNK - 1, _KERNEL_CHUNK, _KERNEL_CHUNK + 2)
    cfg = ExperimentConfig(model=model, alpha=alpha, schedule=FAST, n_grid=n_grid, replicates=replicates,
                           master_seed=2718, warm_start=warm)
    oracle = sr.oracle(model, alpha)
    block = _simulate_block(cfg, oracle, [substream(2718, 0, r) for r in range(replicates)])
    for r in range(replicates):
        rows = _scalar_rows(model, alpha, FAST, oracle, warm, 2718, r, n_grid)
        for k, row in enumerate(rows):
            assert tuple(block[key][k, r] for key in ex.ESTIMATOR_KEYS) == row, (r, n_grid[k])


@st.composite
def _engine_cases(draw):
    a_exp = draw(st.floats(0.51, 0.95))
    if draw(st.booleans()):  # the fast regime, b1 near its CLT bound 1/2
        b_exp, b1 = 1.0, draw(st.floats(0.5, 0.6))
    else:
        b_exp, b1 = draw(st.floats(a_exp + 0.01, 1.0)), draw(st.floats(0.1, 2.0))
    sched = StepSchedule(a1=draw(st.floats(0.1, 3.0)), a_exp=a_exp, b1=b1, b_exp=b_exp)
    cfg = ExperimentConfig(
        model=draw(st.sampled_from(
            [sr.Uniform(-1, 2), sr.Exponential(0.5), sr.Pareto(1.0, 2.2), sr.Gaussian(0.0, 1.0)])),
        alpha=draw(st.floats(0.05, 0.95)),
        schedule=sched,
        n_grid=sorted(draw(st.sets(st.integers(1, 300), min_size=1, max_size=5))),
        replicates=draw(st.integers(2, 3 * ex._KERNEL_LANES + 8)),
        master_seed=draw(st.integers(0, 2**32)),
        warm_start=draw(st.booleans()),
    )
    return cfg


@given(cfg=_engine_cases(), workers=st.sampled_from([1, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_engines_equal_scalar_recursion_exactly(cfg, workers):
    oracle = sr.oracle(cfg.model, cfg.alpha)
    rngs = [substream(cfg.master_seed, 0, r) for r in range(cfg.replicates)]
    out = _simulate_block(cfg, oracle, rngs, workers)
    kernel = np.stack([out[key] for key in ex.ESTIMATOR_KEYS], axis=-1)
    scalar = np.array([
        _scalar_rows(cfg.model, cfg.alpha, cfg.schedule, oracle, cfg.warm_start, cfg.master_seed, r, cfg.n_grid)
        for r in range(cfg.replicates)
    ]).transpose(1, 0, 2)
    assert np.array_equal(kernel, scalar)


def test_quantile_consistency_desk_scale():
    # Uniform(0,1), alpha=0.5: median absolute error of theta at n=1e5 over
    # 200 replicates stays below 0.01.
    cfg = ExperimentConfig(
        model=sr.Uniform(0, 1),
        alpha=0.5,
        schedule=FAST,
        n_grid=(100000,),
        replicates=200,
        master_seed=77,
        warm_start=False,
    )
    res = run_experiment(cfg)
    errors = np.abs(res.estimates["theta"][0] - 0.5)
    assert np.median(errors) < 0.01


def test_superquantile_hits_oracle_on_most_replicates():
    # 1e6 Exponential(1) draws at alpha=0.9: embedded estimate within 0.05 of
    # the oracle superquantile for >= 95% of 100 replicates.
    cfg = ExperimentConfig(
        model=sr.Exponential(1.0),
        alpha=0.9,
        schedule=FAST,
        n_grid=(1000000,),
        replicates=100,
        master_seed=88,
        warm_start=False,
    )
    res = run_experiment(cfg)
    hits = np.abs(res.estimates["embedded"][0] - res.oracle.vartheta_alpha) < 0.05
    assert hits.mean() >= 0.95
