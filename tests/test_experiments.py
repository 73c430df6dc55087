import ctypes
import math
import os
import re
import shlex
import subprocess
import sys
import sysconfig
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import WIDTHS, build_at_width, width_command

import streamrisk as sr
from streamrisk import _native, distributions
from streamrisk import experiments as ex
from streamrisk.distributions import ZERO_DRAW, sample, substream
from streamrisk.estimators import JointEstimatorState, init, step
from streamrisk.experiments import (
    ExperimentConfig,
    ExperimentResult,
    _simulate_block,
    compare_variants,
    empirical_clt_cov,
    fit_rate,
    moment_curve,
    run_experiment,
)
from streamrisk.schedules import StepSchedule

FAST = StepSchedule(a1=1.0, a_exp=2 / 3, b1=1.0, b_exp=1.0)
SLOW = StepSchedule(a1=1.0, a_exp=0.6, b1=1.0, b_exp=0.75)


def small_config(**overrides):
    base = dict(
        model=sr.Uniform(0.0, 1.0),
        alpha=0.5,
        schedule=FAST,
        n_grid=(10, 100),
        replicates=8,
        master_seed=555,
        warm_start=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            small_config(n_grid=(100, 10))

    def test_replicates_minimum(self):
        with pytest.raises(ValueError):
            small_config(replicates=1)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            small_config(variants=("embedded", "sliding"))

    def test_variants_normalized_to_canonical_order(self):
        cfg = small_config(variants=("bardou", "embedded"))
        assert cfg.variants == ("embedded", "bardou")


class TestRateFit:
    def test_exact_power_law(self):
        ns = [10, 100, 1000, 10000]
        fit = fit_rate([(n, 4.0 * n**-0.75) for n in ns])
        assert fit.slope == pytest.approx(-0.75, abs=1e-10)
        assert fit.intercept == pytest.approx(math.log(4.0), abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-10)

    def test_three_collinear_points(self):
        fit = fit_rate([(10, 1e-2), (100, 1e-3), (1000, 1e-4)])
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_reciprocal_slope_window(self):
        rng = np.random.default_rng(99)
        ns = np.logspace(3, 6, 12)
        mses = (1.0 / ns) * (1.0 + 0.01 * rng.standard_normal(12))
        fit = fit_rate(zip(ns, mses))
        assert -1.05 <= fit.slope <= -0.95

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fit_rate([(10, 1.0), (100, 0.1)])
        with pytest.raises(ValueError):
            fit_rate([(10, 1.0), (100, 0.0), (1000, 0.1)])


class TestRunExperiment:
    def test_estimate_shapes_and_keys(self):
        res = run_experiment(small_config())
        assert set(res.estimates) == {"theta", "theta_bar", "embedded", "classical", "bardou"}
        assert res.estimates["theta"].shape == (2, 8)

    def test_replicates_beyond_physical_memory_fail_before_seeding(self, monkeypatch):
        # 8 replicates at 2 checkpoints: 8 * (1024 + 2 * 40) bytes, one more than the memory.
        monkeypatch.setattr(ex, "_physical_memory", lambda: 8 * 1104 - 1)
        monkeypatch.setattr(ex, "substream", lambda *seed: pytest.fail(f"seeded {seed}"))
        with pytest.raises(ValueError, match=r"^replicates = 8 needs about 0\.0 GiB \(1104 bytes per replicate: "
                                             r"its generator and 2 checkpoints\), more than the 0\.0 GiB of "
                                             r"physical memory$"):
            run_experiment(small_config())

    @pytest.mark.parametrize("memory", [8 * 1104, None])
    def test_replicates_within_or_without_known_memory_run(self, monkeypatch, memory):
        monkeypatch.setattr(ex, "_physical_memory", lambda: memory)
        assert run_experiment(small_config()).estimates["theta"].shape == (2, 8)

    def test_physical_memory_from_sysconf(self):
        if "SC_PHYS_PAGES" not in getattr(os, "sysconf_names", {}):
            pytest.skip("no physical memory figure on this platform")
        memory = ex._physical_memory()
        assert isinstance(memory, int) and memory > 0

    def test_thread_count_does_not_change_values(self, monkeypatch):
        # Three sub-blocks, the last of 5 lanes, on three CPUs: threads=3 and
        # the default both start three workers.
        monkeypatch.setattr(ex, "_usable_cpus", lambda: 3)
        cfg = small_config(replicates=2 * ex._KERNEL_LANES + 5, n_grid=(7, 29, 301))
        res1 = run_experiment(cfg, threads=1)
        pools = _record_pools(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose a lost update
        try:
            for threads in (3, None):
                res = run_experiment(cfg, threads=threads)
                for key in res1.estimates:
                    assert np.array_equal(res1.estimates[key], res.estimates[key])
        finally:
            sys.setswitchinterval(interval)
        assert pools == [3, 3]

    def test_workers_capped_at_usable_cpus(self, monkeypatch):
        # threads=3 on three sub-blocks and two CPUs starts two workers, without a warning.
        monkeypatch.setattr(ex, "_usable_cpus", lambda: 2)
        pools = _record_pools(monkeypatch)
        run_experiment(small_config(replicates=2 * ex._KERNEL_LANES + 5), threads=3)
        assert pools == [2]

    def test_narrow_run_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(ex, "_usable_cpus", lambda: 8)
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
        run_experiment(small_config(replicates=ex._KERNEL_LANES), threads=8)

    def test_rerun_is_bit_identical(self):
        cfg = small_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for key in a.estimates:
            assert np.array_equal(a.estimates[key], b.estimates[key])

    def test_golden_two_replicate_fixture(self):
        # Frozen from the first validated run; guards the whole pipeline
        # (substreams, draws, update arithmetic) against silent drift.
        cfg = small_config(replicates=2, n_grid=(10,))
        res = run_experiment(cfg)
        expected = {
            "theta": [0.36529111375761375, 0.668130452107947],
            "theta_bar": [0.3480378868860341, 0.6593915739900393],
            "embedded": [0.7546573476090572, 0.6730344887824111],
            "classical": [0.6386685598259467, 0.7919444684362543],
            "bardou": [0.7699793591551756, 0.9332318145375369],
        }
        for key, values in expected.items():
            assert res.estimates[key][0].tolist() == pytest.approx(values, rel=1e-15)

    def test_warm_start_single_step_clt_sample(self):
        cfg = small_config(n_grid=(1,), replicates=4, warm_start=True, master_seed=2)
        res = run_experiment(cfg)
        pairs = res.clt_pairs(1)
        for r in range(4):
            rng = substream(2, 0, r)
            state = init(cfg.alpha, FAST, res.oracle.theta_alpha, res.oracle.vartheta_alpha)
            step(state, sample(cfg.model, rng))
            assert pairs[r, 0] == 1.0 * (state.theta_bar - res.oracle.theta_alpha)
            assert pairs[r, 1] == 1.0 * (state.sq_embedded - res.oracle.vartheta_alpha)

    def test_clt_rescale_slow_regime(self):
        cfg = small_config(schedule=SLOW, n_grid=(50,), replicates=4)
        res = run_experiment(cfg)
        pairs = res.clt_pairs(50)
        expected = (res.estimates["embedded"][0] - res.oracle.vartheta_alpha) / math.sqrt(
            SLOW.gain_b(50)
        )
        assert np.allclose(pairs[:, 1], expected, rtol=1e-15)

    def test_mse_curve_matches_direct_computation(self):
        res = run_experiment(small_config())
        sq = (res.estimates["embedded"] - res.oracle.vartheta_alpha) ** 2
        mse, stderr = res.mse_curve("embedded")
        assert np.allclose(mse, sq.mean(axis=1))
        assert np.allclose(stderr, sq.std(axis=1, ddof=1) / math.sqrt(8))

    def test_unknown_checkpoint_rejected(self):
        res = run_experiment(small_config())
        with pytest.raises(ValueError, match="not a checkpoint"):
            res.clt_pairs(11)

    def test_non_finite_draw_aborts_with_diagnostics(self):
        # An infinite draw in lane 1, step 4 of the 3-lane second sub-block is
        # named by its global replicate index.
        def quantile(u):
            x = np.array(u, dtype=np.float64)
            if x.shape[:1] == (3,):
                x[1, 3] = np.inf
            return x

        cfg = small_config(replicates=ex._KERNEL_LANES + 3, warm_start=True)
        object.__setattr__(cfg, "model", SimpleNamespace(quantile=quantile))
        rngs = [substream(555, 0, r) for r in range(cfg.replicates)]
        with pytest.raises(RuntimeError, match=r"^non-finite draw at replicate 33, step 4$"):
            _simulate_block(cfg, sr.oracle(sr.Uniform(0, 1), 0.5), rngs)

    def test_non_finite_initial_draw_aborts_before_the_first_chunk(self):
        # A cold start reads each replicate's first draw as theta_0; an infinite
        # one that is not a u = 0 draw is named at step 0, not found as a
        # non-finite estimator after the first chunk.
        def quantile(u):
            x = np.array(u, dtype=np.float64)
            if x.shape[1:] == (1,):
                x[2, 0] = np.inf
            return x

        cfg = small_config(replicates=4, n_grid=(10,))
        object.__setattr__(cfg, "model", SimpleNamespace(quantile=quantile))
        rngs = [substream(555, 0, r) for r in range(cfg.replicates)]
        with pytest.raises(RuntimeError, match=r"^non-finite draw at replicate 2, step 0$"):
            _simulate_block(cfg, sr.oracle(sr.Uniform(0, 1), 0.5), rngs)

    def test_zero_draw_is_read_as_zero_draw_constant(self):
        # A u = 0 draw maps to -inf under the Gaussian inverse cdf; the engine
        # must read it as ZERO_DRAW, as the scalar reference does, in the
        # initial draw (lane 0, drawn by numpy) and inside a chunk (lane 1,
        # drawn by the kernel).
        cfg = small_config(model=sr.Gaussian(0.0, 1.0), n_grid=(3, 40), replicates=3)
        zero_at = {0: 0, 1: 7}

        def rngs():
            return [_zero_at(substream(555, 0, r), zero_at[r]) if r in zero_at else substream(555, 0, r)
                    for r in range(3)]

        assert [rng.random(8).tolist().index(0.0) for rng in rngs()[:2]] == [0, 7]
        assert ex._pcg64_words(rngs()) is not None
        block = _simulate_block(cfg, sr.oracle(cfg.model, cfg.alpha), rngs())
        for r, rng in enumerate(rngs()):
            x0 = sample(cfg.model, rng)
            if r == 0:
                assert x0 == cfg.model.quantile(ZERO_DRAW)
            state = init(cfg.alpha, FAST, x0, x0 / (1.0 - cfg.alpha))
            for k, n_target in enumerate(cfg.n_grid):
                while state.n < n_target:
                    step(state, sample(cfg.model, rng))
                assert block["theta"][k, r] == state.theta
                assert block["embedded"][k, r] == state.sq_embedded
                assert block["bardou"][k, r] == state.sq_bardou

    def test_generators_the_kernel_cannot_draw_for_draw_themselves(self):
        # The kernel reproduces Generator.random on PCG64 only: generators on
        # another bit generator, or objects that only act like a Generator,
        # must draw through their own random.
        cfg = small_config(n_grid=(5, 4100), replicates=3)
        oracle = sr.oracle(cfg.model, cfg.alpha)
        for make in (lambda r: np.random.Generator(np.random.Philox(r)), lambda r: _Like(substream(9, 0, r))):
            assert ex._pcg64_words([make(r) for r in range(3)]) is None
            block = _simulate_block(cfg, oracle, [make(r) for r in range(3)])
            for r in range(3):
                rng = make(r)
                x0 = sample(cfg.model, rng)
                state = init(cfg.alpha, FAST, x0, x0 / (1.0 - cfg.alpha))
                for k, n_target in enumerate(cfg.n_grid):
                    while state.n < n_target:
                        step(state, sample(cfg.model, rng))
                    assert block["theta"][k, r] == state.theta
                    assert block["bardou"][k, r] == state.sq_bardou


def _record_pools(monkeypatch) -> list[int]:
    """The sizes of the thread pools that runs start from now on."""
    pools = []

    def pool(workers):
        pools.append(workers)
        return ThreadPoolExecutor(workers)

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", pool)
    return pools


# numpy's PCG64 multiplier and its inverse modulo 2**128.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 2**128)


def _zero_at(rng: np.random.Generator, k: int) -> np.random.Generator:
    """``rng`` set to a state from which its draw number ``k`` (from 0) is
    exactly 0.0.  PCG64 steps its 128-bit state, then outputs the rotated XOR
    of its two halves, so a state with equal halves outputs 0, and Generator.random
    reads 0 as 0.0; such a state is stepped back k + 1 times."""
    bits = rng.bit_generator.state
    pcg = bits["state"]
    low = pcg["state"] & (2**64 - 1)
    state = low << 64 | low
    for _ in range(k + 1):
        state = (state - pcg["inc"]) * _PCG_MULT_INV % 2**128
    pcg["state"] = state
    rng.bit_generator.state = bits
    return rng


class _Like:
    """Acts like the Generator ``rng`` without being one."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.bit_generator = rng.bit_generator

    def random(self, size=None, out=None):
        return self.rng.random(size, out=out)


@pytest.fixture(scope="module")
def kernel():
    kernel = _native.load(**ex._KERNEL)
    if kernel is None:
        pytest.skip("the replicate kernel could not be built here")
    return kernel


def test_kernel_draw_equal_to_an_iterate_counts_as_not_above(kernel):
    # Continuous draws never tie, so the differential tests cannot see which
    # side of a comparison a tie takes: x = theta must count as x <= theta.
    lanes, n, alpha = 3, 5, 0.5
    state = np.array([[0.5, 0.5, 0.25], [0.5, 0.3, 0.25], [1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [1.0, 1.0, 0.5]])
    x = np.array([0.5, 0.5, 0.25])  # lane 0 ties theta and theta_bar, lane 1 theta, lane 2 both
    table = np.empty((4, 1))
    kernel.step_table(1, n, FAST.a1, FAST.a_exp, FAST.b1, FAST.b_exp, table.ctypes.data, 1)
    want = []
    for lane in range(lanes):
        st_ = JointEstimatorState(alpha, FAST, n, *state[:, lane].tolist())
        step(st_, float(x[lane]))
        want.append((st_.theta, st_.theta_bar, st_.sq_embedded, st_.sq_classical, st_.sq_bardou))
    kernel.advance(lanes, 1, x.ctypes.data, table.ctypes.data, 1, alpha, 1.0 / (1.0 - alpha),
                   state.ctypes.data, lanes)
    assert state.T.tolist() == [list(row) for row in want]


@pytest.mark.parametrize("cold", [False, True], ids=["fresh", "after-cold-start"])
@pytest.mark.parametrize("span", [1, ex._KERNEL_STEPS])
@pytest.mark.parametrize("lanes", [1, 2, 3, 5, 31, 32, 33])
def test_kernel_draw_equals_numpy_random(kernel, lanes, span, cold):
    # numpy promises PCG64's bit stream, not Generator.random's across
    # versions: this pins the kernel's port to the numpy it runs with.  Three
    # calls carry each lane's state over; a cold start has drawn one value
    # through numpy before the kernel reads the state.
    rngs = [substream(31, lanes, r) for r in range(lanes)]
    if cold:
        ex._draws(sr.Uniform(0, 1), rngs, np.empty((lanes, 1)), 0, -1)
    words = ex._pcg64_words(rngs)
    for _ in range(3):
        u = np.empty((lanes, span))
        kernel.draw(lanes, span, words.ctypes.data, u.ctypes.data)
        want = np.stack([rng.random(span) for rng in rngs])
        assert np.array_equal(u.view(np.uint64), want.view(np.uint64))


def test_advance_gives_the_same_bits_at_either_width(tmp_path):
    # Odd lane counts leave every remainder of a group of two vectors at
    # either width.  Each count runs a chunk of random draws and a step whose
    # draws tie theta (even lanes) or theta_bar (odd lanes).
    host, narrow = (build_at_width(ex._KERNEL, tmp_path, width) for width in WIDTHS)
    rng = np.random.default_rng(20261019)
    n0, alpha = 3, 0.9
    for lanes in [*range(1, 18, 2), 33]:
        start = np.vstack([rng.exponential(size=(2, lanes)), rng.exponential(2.0, size=(3, lanes))])
        ties = np.where(np.arange(lanes) % 2 == 0, start[0], start[1])[:, None]
        for x in (rng.exponential(size=(lanes, 257)), ties):
            span = x.shape[1]
            table = np.empty((4, span))
            host.step_table(span, n0, FAST.a1, FAST.a_exp, FAST.b1, FAST.b_exp, table.ctypes.data, span)
            states = []
            for library in (host, narrow):
                state = start.copy()
                library.advance(lanes, span, x.ctypes.data, table.ctypes.data, span, alpha,
                                1.0 / (1.0 - alpha), state.ctypes.data, lanes)
                states.append(state.view(np.uint64))
            assert np.array_equal(*states), (lanes, span)


def test_chunk_memory_stays_within_budget(kernel):
    # 4096 replicates through one full kernel chunk and one more step.  The
    # kernel draws one sub-block (_KERNEL_LANES, _KERNEL_STEPS) at a time, so
    # the block's traced peak, beyond its generators, is a few sub-block arrays
    # (draws, transform, its temporaries) whatever the replicate count.
    budget = ex._KERNEL_LANES * ex._KERNEL_STEPS * 8
    cfg = small_config(replicates=4096, n_grid=(ex._KERNEL_STEPS + 1,), warm_start=True)
    oracle = sr.oracle(cfg.model, cfg.alpha)
    rngs = [substream(cfg.master_seed, 0, r) for r in range(cfg.replicates)]
    tracemalloc.start()
    try:
        _simulate_block(cfg, oracle, rngs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * budget, f"traced peak {peak / 2**20:.1f} MiB"


@given(
    a1=st.floats(1e-100, 1e100),
    a_exp=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    b1=st.floats(1e-100, 1e100),
    b_exp=st.just(1.0) | st.floats(0.5, 1.0, exclude_min=True),
    n0=st.sampled_from([0, 1, 4095, 10**6, 10**9 + 7, 2**40]),
    span=st.sampled_from([1, ex._KERNEL_STEPS]),
)
@settings(max_examples=60, deadline=None)
def test_step_table_matches_schedule_exactly(kernel, a1, a_exp, b1, b_exp, n0, span):
    # The kernel's rows are the gains and Cesaro weights of estimators.step,
    # computed in Python, with == on every entry.
    sched = StepSchedule(a1=a1, a_exp=a_exp, b1=b1, b_exp=b_exp)
    table = np.full((4, ex._KERNEL_STEPS), np.nan)
    kernel.step_table(span, n0, a1, a_exp, b1, b_exp, table.ctypes.data, ex._KERNEL_STEPS)
    steps = range(n0, n0 + span)
    assert table[0, :span].tolist() == [sched.gain_a(max(n, 1)) for n in steps]
    assert table[1, :span].tolist() == [sched.gain_b(n) for n in steps]
    assert table[2, :span].tolist() == [n / (n + 1) for n in steps]
    assert table[3, :span].tolist() == [1.0 / (n + 1) for n in steps]


class _OneUlpHighGainB(StepSchedule):
    def gain_b(self, n: int) -> float:
        return math.nextafter(super().gain_b(n), math.inf)


def test_step_table_that_differs_from_the_schedule_aborts(kernel):
    # The kernel computes the gains from the schedule's fields; a schedule whose
    # own gain_b is one ulp off must stop the run at the first chunk.
    cfg = small_config(schedule=_OneUlpHighGainB(a1=1.0, a_exp=2 / 3, b1=1.0, b_exp=1.0))
    with pytest.raises(RuntimeError, match=r"^step table differs from the schedule's gains at step 0$"):
        run_experiment(cfg)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("source", sorted(Path(ex.__file__).parent.glob("*.c")), ids=lambda p: p.name)
def test_c_source_compiles_without_warnings(tmp_path, source, width):
    # The command the build runs, with every warning an error.
    command = [*width_command(source.stem, str(tmp_path / "k.so"), width), "-Wall", "-Wextra", "-Werror"]
    # The sources' vectors must map to the target's registers: gcc lowers a
    # wider vector piecewise, much more slowly than the scalar code.
    macros = subprocess.run([command[0], "-dM", "-E", "-x", "c", os.devnull], capture_output=True, text=True,
                            timeout=120).stdout
    if "__GNUC__" in macros and "__clang__" not in macros:
        command.append("-Wvector-operation-performance")
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_package_data_lists_every_c_source_and_header():
    # An installed package builds its libraries from the files it ships, so
    # every source and header the builds read must be package data.
    tomllib = pytest.importorskip("tomllib")
    package = Path(_native.__file__).parent
    pyproject = tomllib.loads((package.parent.parent / "pyproject.toml").read_text())
    listed = set(pyproject["tool"]["setuptools"]["package-data"]["streamrisk"])
    native = {p.name for pattern in ("*.c", "*.h") for p in package.glob(pattern)}
    assert native >= {"_kernel.c", "_normal.c", "_simd.h"}
    assert native <= listed


def test_calls_inside_a_library_bind_to_that_library(tmp_path):
    # glibc also exports advance (its legacy <regexp.h> API), as _kernel.c
    # does: a call from inside a library must reach the library's own function,
    # not crash in libc's.
    source = tmp_path / "probe.c"
    source.write_text("int advance(int x) { return x + 1; }\nint probe(void) { return advance(41); }\n")
    library = str(tmp_path / "probe.so")
    kernel = str(Path(_native.__file__).with_name("_kernel.c"))
    command = [str(source) if arg == kernel else arg for arg in width_command("_kernel", library, "host")]
    subprocess.run(command, check=True, capture_output=True, timeout=120)
    probe = f"import ctypes; print(ctypes.CDLL({library!r}).probe())"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == (0, "42\n"), run.stderr


_C_TYPES = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}


@pytest.mark.parametrize("spec", [ex._KERNEL, distributions._NORMAL], ids=lambda spec: spec["stem"])
def test_ctypes_signatures_match_c_prototypes(spec):
    # ctypes passes what argtypes says, whatever the C function takes: a
    # mismatch is undefined behaviour that no call reports.
    source = Path(ex.__file__).with_name(f"{spec['stem']}.c").read_text()
    prototypes = {
        name: [ctypes.c_void_p if "*" in param else _C_TYPES[param.split()[-2]] for param in params.split(",")]
        for name, params in re.findall(r"^void (\w+)\(([^)]*)\)", source, re.M)
    }
    assert prototypes == {name: argtypes for name, argtypes in spec.items() if name not in ("stem", "fallback")}


@pytest.mark.parametrize("warm", [True, False])
@pytest.mark.parametrize(
    "model", [sr.Uniform(0, 1), sr.Exponential(1.0), sr.Pareto(1.0, 2.2), sr.Gaussian(0.0, 1.0)], ids=str
)
def test_failed_kernel_build_falls_back_to_scalar_reference(monkeypatch, model, warm):
    # 35 lanes cross a sub-block boundary, and the checkpoints make one-step
    # chunks (1, 2) and cross a chunk boundary, over all of which the fold must
    # carry each lane's state.  Warm runs also end a full chunk past the second
    # boundary (a cold start differs only in the state it starts from).
    n_grid = (1, 2, 10, 4095, 4096, 4097) + ((2 * ex._KERNEL_STEPS + 1,) if warm else ())
    cfg = small_config(model=model, warm_start=warm, replicates=ex._KERNEL_LANES + 3, n_grid=n_grid)
    expected = run_experiment(cfg).estimates
    # The compiler writes the marker reversed back, so it is in its stderr
    # only, not in the command line that str(CalledProcessError) quotes.
    marker = "kernel.c:1: error: marker"
    failing_cc = shlex.join(
        [sys.executable, "-c", f"import sys; sys.stderr.write({marker[::-1]!r}[::-1]); raise SystemExit(1)"]
    )
    monkeypatch.setattr(_native, "_loaded", {})
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: failing_cc)
    with pytest.warns(RuntimeWarning, match="scalar reference") as record:
        runs = [run_experiment(cfg).estimates for _ in range(2)]
    # One warning per library that failed, in the first run only.
    failed = ["_kernel", "_normal"] if isinstance(model, sr.Gaussian) else ["_kernel"]
    assert _native._loaded == dict.fromkeys(failed)
    warned = [re.match(r"native library (\w+) not built \(", str(w.message)) for w in record]
    assert sorted(m[1] for m in warned if m) == failed and len(record) == len(failed)
    assert all(marker in str(w.message) for w in record)
    for got in runs:
        for key in expected:
            assert np.array_equal(got[key], expected[key])


@pytest.mark.parametrize("fold", [False, True], ids=["kernel", "scalar-fold"])
def test_estimator_overflow_names_replicate_and_step(monkeypatch, fold):
    # Finite but huge draws in the 3-lane second sub-block only:
    # (x * 1{x > theta_bar}) / (1 - alpha) overflows its embedded superquantile
    # at the first step, found after the chunk and named by its global index.
    if fold:
        monkeypatch.setitem(_native._loaded, "_kernel", None)
    cfg = small_config(alpha=0.9, n_grid=(5,), replicates=ex._KERNEL_LANES + 3, warm_start=True)
    huge_in_second = SimpleNamespace(quantile=lambda u: np.full_like(u, 1e308 if len(u) == 3 else 0.5))
    object.__setattr__(cfg, "model", huge_in_second)
    rngs = [substream(555, 0, r) for r in range(cfg.replicates)]
    with pytest.raises(RuntimeError, match="^estimator 'embedded' became non-finite in replicate 32 by step 5$"):
        _simulate_block(cfg, sr.oracle(sr.Uniform(0, 1), 0.9), rngs)


def _fake_result(pairs: np.ndarray, n: int = 1) -> ExperimentResult:
    """Result whose clt_pairs(n) returns exactly `pairs` (checkpoint n=1, b=1)."""
    r = pairs.shape[0]
    cfg = ExperimentConfig(
        model=sr.Uniform(0.0, 1.0),
        alpha=0.5,
        schedule=FAST,
        n_grid=(n,),
        replicates=r,
        master_seed=0,
        warm_start=True,
    )
    oracle = sr.oracle(cfg.model, cfg.alpha)
    scale = math.sqrt(n)
    estimates = {key: np.zeros((1, r)) for key in ("theta", "theta_bar", "embedded", "classical", "bardou")}
    estimates["theta_bar"][0] = oracle.theta_alpha + pairs[:, 0] / scale
    estimates["embedded"][0] = oracle.vartheta_alpha + pairs[:, 1] / scale
    return ExperimentResult(config=cfg, oracle=oracle, estimates=estimates)


class TestEmpiricalCltCov:
    def test_degenerate_identical_replicates(self):
        pairs = np.tile([0.3, -0.2], (64, 1))
        cov, se = empirical_clt_cov(_fake_result(pairs), 1)
        assert np.allclose(cov, 0.0)
        assert np.allclose(se, 0.0)

    def test_requires_thirty_replicates(self):
        pairs = np.zeros((29, 2))
        with pytest.raises(ValueError, match="replicates >= 30"):
            empirical_clt_cov(_fake_result(pairs), 1)

    def test_recovers_known_covariance_within_three_ses(self):
        rng = np.random.default_rng(1234)
        target = np.array([[2.0, 0.6], [0.6, 1.0]])
        chol = np.linalg.cholesky(target)
        pairs = rng.standard_normal((5000, 2)) @ chol.T
        cov, se = empirical_clt_cov(_fake_result(pairs), 1)
        for i in range(2):
            for j in range(2):
                assert abs(cov[i, j] - target[i, j]) <= 3.0 * se[i, j]


class TestCompareVariants:
    def test_identical_columns_give_unit_ratio(self):
        res = run_experiment(small_config())
        res.estimates["classical"] = res.estimates["embedded"].copy()
        ec = [r for r in compare_variants(res) if r.pair == "embedded/classical"]
        assert all(r.mse_ratio == 1.0 for r in ec)
        assert all(r.ci_low == 1.0 and r.ci_high == 1.0 for r in ec)

    def test_requires_two_variants(self):
        res = run_experiment(small_config(variants=("embedded",)))
        with pytest.raises(ValueError):
            compare_variants(res)

    def test_rows_cover_all_pairs_and_checkpoints(self):
        rows = compare_variants(run_experiment(small_config()))
        labels = {r.pair for r in rows}
        assert labels == {"embedded/classical", "embedded/bardou", "classical/bardou"}
        assert len(rows) == 3 * 2


def test_moment_curve_power():
    res = run_experiment(small_config())
    m4 = moment_curve(res, "theta", 4)
    direct = ((np.abs(res.estimates["theta"] - 0.5)) ** 4).mean(axis=1)
    assert np.allclose(m4, direct)
