"""Monte-Carlo harness: replicate streams, MSE curves, log-log rate fits,
empirical CLT covariances, and paired variant comparison.  The theory these
measurements are read against lives in :mod:`streamrisk.asymptotics`; nothing
here computes it.

Replicates draw and advance in a small C kernel (``_kernel.c``), which
:func:`streamrisk._native.load` compiles on the first run of a process and
loads through ``ctypes``, which releases the GIL.  The kernel draws each
replicate's uniforms with a port of numpy's PCG64 that equals
``Generator.random`` bit for bit, from a copy of each generator's state read
once per run (after a cold start's first draw, which numpy makes), so the
generator objects are read, not advanced; generators of any other kind draw
through their own ``random``.  It walks replicates two SIMD vectors at a
time, a replicate per vector element, through a chunk of steps with the
arithmetic of :func:`streamrisk.estimators.step`, operation for operation and
without a branch on the data, so a replicate is bit-identical to running its
stream through the scalar recursion.  One
chunk-major loop drives it and alone knows the checkpoints: a chunk is at most
4096 steps and ends at the next checkpoint, where the loop copies the state
into the results, so a grid of G checkpoints adds at most G chunks.  Per chunk
the calling thread has the kernel fill the step table (the gains and Cesaro
weights that all replicates share), checks its first gains against the
schedule, and fans the chunk's 32-replicate sub-blocks out to a pool of
workers, joining them before the next chunk; a run starts no more workers
than its ``threads``, the CPUs it may use, or its sub-blocks.  No Python runs
per step.  When no compiler works, the same loop folds the scalar recursion
over each replicate in the kernel's place, with draws from the generators
themselves, after one ``RuntimeWarning`` per process: the same results, tens
of times more slowly.
Each replicate owns the substream (master_seed, experiment_id, replicate) and
its own columns of the state and results, which makes thread count and
completion order irrelevant to the output.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import distributions
from ._native import load
from .distributions import DistributionModel, RiskOracle, substream
from .estimators import JointEstimatorState, run_stream
from .schedules import StepSchedule

VARIANT_KEYS = ("embedded", "classical", "bardou")
ESTIMATOR_KEYS = ("theta", "theta_bar") + VARIANT_KEYS

# The kernel advances sub-blocks of _KERNEL_LANES replicates through chunks of
# _KERNEL_STEPS steps.  A sub-block's draws are one (lanes, steps) array, drawn
# and transformed just before the kernel reads it, so each thread holds a few
# such arrays (1 MiB each) whatever the replicate count.  A run starts at most
# one thread per sub-block.
_KERNEL_LANES = 32
_KERNEL_STEPS = 4096

# Memory a run holds per replicate whatever its length: the generator (about
# 1 KB, traced) and five float64 estimators per checkpoint.
_GENERATOR_BYTES = 1024
_CHECKPOINT_BYTES = 5 * 8

# The engine's kernel, as _native.load takes it: the C signatures of its three
# functions, and what runs in its place when it cannot be built.
_I64, _PTR, _DBL = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
_LOW64 = 2**64 - 1
_KERNEL = dict(
    stem="_kernel",
    fallback="folding the scalar reference estimators.step over each replicate, tens of times more slowly",
    draw=[_I64, _I64, _PTR, _PTR],
    step_table=[_I64, _I64, _DBL, _DBL, _DBL, _DBL, _PTR, _I64],
    advance=[_I64, _I64, _PTR, _PTR, _I64, _DBL, _DBL, _PTR, _I64],
)


@dataclass(frozen=True)
class ExperimentConfig:
    model: DistributionModel
    alpha: float
    schedule: StepSchedule
    n_grid: tuple[int, ...]
    replicates: int
    master_seed: int
    warm_start: bool = False
    variants: tuple[str, ...] = VARIANT_KEYS
    experiment_id: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid:
            raise ValueError("n_grid must be non-empty")
        if grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"n_grid must be strictly ascending positive integers, got {grid}")
        object.__setattr__(self, "n_grid", grid)
        if self.replicates < 2:
            raise ValueError(f"replicates must be >= 2, got {self.replicates}")
        unknown = set(self.variants) - set(VARIANT_KEYS)
        if unknown or not self.variants:
            raise ValueError(f"variants must be a non-empty subset of {VARIANT_KEYS}")
        ordered = tuple(k for k in VARIANT_KEYS if k in set(self.variants))
        object.__setattr__(self, "variants", ordered)
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")
        if self.experiment_id < 0:
            raise ValueError(f"experiment_id must be nonnegative, got {self.experiment_id}")


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass
class ExperimentResult:
    """Per-replicate estimator values at every checkpoint of the n-grid.

    ``estimates[key]`` has shape (len(n_grid), replicates) for each of
    ``theta``, ``theta_bar``, ``embedded``, ``classical``, ``bardou``.
    """

    config: ExperimentConfig
    oracle: RiskOracle
    estimates: dict[str, np.ndarray]

    def truth(self, key: str) -> float:
        if key in ("theta", "theta_bar"):
            return self.oracle.theta_alpha
        if key in VARIANT_KEYS:
            return self.oracle.vartheta_alpha
        raise KeyError(f"unknown estimator key {key!r}")

    def squared_errors(self, key: str) -> np.ndarray:
        err = self.estimates[key] - self.truth(key)
        return err * err

    def mse_curve(self, key: str) -> tuple[np.ndarray, np.ndarray]:
        """Mean squared error and its standard error per checkpoint."""
        sq = self.squared_errors(key)
        r = sq.shape[1]
        return sq.mean(axis=1), sq.std(axis=1, ddof=1) / math.sqrt(r)

    def checkpoint_index(self, n: int) -> int:
        try:
            return self.config.n_grid.index(int(n))
        except ValueError:
            raise ValueError(f"n = {n} is not a checkpoint of {self.config.n_grid}") from None

    def clt_pairs(self, n: int) -> np.ndarray:
        """Replicate values of the rescaled pair at checkpoint ``n``:
        (sqrt(n) (theta_bar - theta_alpha), rescale * (embedded - vartheta_alpha))
        with rescale sqrt(n) in the fast regime and b_n^(-1/2) otherwise."""
        k = self.checkpoint_index(n)
        sched = self.config.schedule
        rescale_q = math.sqrt(n)
        if sched.b_exp == 1.0:
            rescale_sq = math.sqrt(n)
        else:
            rescale_sq = distributions.finite(f"b_n^(-1/2) at n = {n}", lambda: 1.0 / math.sqrt(sched.gain_b(n)))
        pairs = np.empty((self.config.replicates, 2))
        pairs[:, 0] = rescale_q * (self.estimates["theta_bar"][k] - self.oracle.theta_alpha)
        pairs[:, 1] = rescale_sq * (self.estimates["embedded"][k] - self.oracle.vartheta_alpha)
        return pairs


def run_experiment(config: ExperimentConfig, threads: int | None = None) -> ExperimentResult:
    """Run all replicates to max(n_grid), recording every estimator at each
    checkpoint.  ``threads`` (default: the CPUs this process may use) caps the
    worker threads: a run starts min(threads, those CPUs, one per
    _KERNEL_LANES replicates) of them.  Results are independent of it."""
    cpus = _usable_cpus()
    if threads is None:
        threads = cpus
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    workers = min(threads, cpus, -(-config.replicates // _KERNEL_LANES))
    _check_memory(config)
    oracle = distributions.oracle(config.model, config.alpha)
    rngs = [substream(config.master_seed, config.experiment_id, r) for r in range(config.replicates)]
    estimates = _simulate_block(config, oracle, rngs, workers)
    return ExperimentResult(config=config, oracle=oracle, estimates=estimates)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(config: ExperimentConfig) -> None:
    """Refuse a replicate count whose generators and checkpoint results alone
    exceed physical memory, before seeding any of them."""
    per_replicate = _GENERATOR_BYTES + _CHECKPOINT_BYTES * len(config.n_grid)
    need, have = config.replicates * per_replicate, _physical_memory()
    if have is not None and need > have:
        raise ValueError(
            f"replicates = {config.replicates} needs about {need / 2**30:.1f} GiB "
            f"({per_replicate} bytes per replicate: its generator and {len(config.n_grid)} "
            f"checkpoints), more than the {have / 2**30:.1f} GiB of physical memory"
        )


def _simulate_block(
    config: ExperimentConfig,
    oracle: RiskOracle,
    rngs: list[np.random.Generator],
    workers: int = 1,
) -> dict[str, np.ndarray]:
    """Advance replicates ``rngs`` to max(n_grid) with the compiled kernel,
    which must stay in lockstep with estimators.step (same operations in the
    same order on each lane), or with estimators.step itself when the kernel
    cannot be built.
    """
    r_total = len(rngs)
    if config.warm_start:
        theta = np.full(r_total, float(oracle.theta_alpha))
        sq0 = np.full(r_total, float(oracle.vartheta_alpha))
    else:
        # A cold start takes each replicate's first draw, its step 0, as theta_0.
        theta = _draws(config.model, rngs, np.empty((r_total, 1)), 0, -1)[:, 0]
        sq0 = theta / (1.0 - config.alpha)
    # Rows in ESTIMATOR_KEYS order: theta, theta_bar, embedded, classical, bardou.
    state = np.stack([theta, theta, sq0, sq0, sq0])
    out = np.empty((len(config.n_grid), len(ESTIMATOR_KEYS), r_total))
    _advance(load(**_KERNEL), config, rngs, state, out, workers)
    return {key: out[:, k] for k, key in enumerate(ESTIMATOR_KEYS)}


def _draws(model: DistributionModel, rngs, u: np.ndarray, first_replicate: int, n: int) -> np.ndarray:
    """Fill row j of ``u`` (lanes, steps) with the next draws of ``rngs[j]``
    and return their transform (see _transform)."""
    for row, rng in zip(u, rngs):
        rng.random(out=row)
    return _transform(model, u, first_replicate, n)


def _transform(model: DistributionModel, u: np.ndarray, first_replicate: int, n: int) -> np.ndarray:
    """The transform of draws ``u`` (lanes, steps) as a C-contiguous array;
    steps count from ``n + 1`` and rows from replicate ``first_replicate``."""
    x = np.ascontiguousarray(model.quantile(u), dtype=np.float64)
    if x.shape != u.shape:  # the kernel reads x through a raw pointer
        raise ValueError(f"quantile of {u.shape} draws returned shape {x.shape}")
    if not np.isfinite(x).all():
        x = distributions.mend_zero_draws(model, u, x)
        bad = np.argwhere(~np.isfinite(x))
        if bad.size:
            raise RuntimeError(
                f"non-finite draw at replicate {first_replicate + int(bad[0, 0])}, "
                f"step {n + int(bad[0, 1]) + 1}"
            )
    return x


def _pcg64_words(rngs) -> np.ndarray | None:
    """Each generator's PCG64 state and increment as a (lanes, 4) uint64 array,
    low words first, as the kernel's draw reads and advances them; None unless
    every generator is a numpy Generator on a PCG64, whose random the kernel
    reproduces.  The generators are read, not advanced."""
    if not all(type(rng) is np.random.Generator and type(rng.bit_generator) is np.random.PCG64 for rng in rngs):
        return None
    words = np.empty((len(rngs), 4), dtype=np.uint64)
    for row, rng in zip(words, rngs):
        pcg = rng.bit_generator.state["state"]
        row[:] = (pcg["state"] & _LOW64, pcg["state"] >> 64, pcg["inc"] & _LOW64, pcg["inc"] >> 64)
    return words


def _check_finite(state: np.ndarray, n: int) -> None:
    if not np.isfinite(state).all():
        k, r = np.argwhere(~np.isfinite(state))[0]
        raise RuntimeError(
            f"estimator {ESTIMATOR_KEYS[k]!r} became non-finite in replicate {int(r)} by step {n}"
        )


def _advance(kernel, config, rngs, state, out, workers) -> None:
    """Advance ``state`` (5, lanes) through the n-grid in chunks of at most
    _KERNEL_STEPS steps, none of which runs past the next checkpoint; on
    reaching checkpoint c the loop copies ``state`` into ``out[c]``.  The
    calling thread has the kernel fill the chunk's step table once, then maps
    the chunk's sub-blocks of _KERNEL_LANES lanes over ``workers`` threads and
    joins them before the next chunk.  Each sub-block is drawn, by the kernel
    from a copy of its generators' states taken here or else by the
    generators themselves, transformed, and walked through the chunk by the
    kernel, or by estimators.step when ``kernel`` is None."""
    sched, model = config.schedule, config.model
    r_total = len(rngs)
    words = None if kernel is None else _pcg64_words(rngs)
    table = np.empty((4, _KERNEL_STEPS))  # gain_a, gain_b, n/(n+1), 1/(n+1)
    inv1ma = 1.0 / (1.0 - config.alpha)
    # Each thread reuses one draw buffer and holds its last transform until the
    # next one exists: arrays freed between sub-blocks go back to the OS and
    # are faulted in again, which makes a one-thread Pareto run 25% slower.
    mine = threading.local()

    def sub_block(lo: int) -> None:
        hi = min(lo + _KERNEL_LANES, r_total)
        if not hasattr(mine, "buf"):
            mine.buf = np.empty(min(_KERNEL_LANES, r_total) * _KERNEL_STEPS)
        u = mine.buf[: (hi - lo) * span].reshape(hi - lo, span)
        if words is None:
            mine.x = x = _draws(model, rngs[lo:hi], u, lo, n)
        else:
            kernel.draw(hi - lo, span, words[lo:].ctypes.data, u.ctypes.data)
            mine.x = x = _transform(model, u, lo, n)
        if kernel is None:
            _fold_scalar(config, x, n, state[:, lo:hi])
        else:
            kernel.advance(hi - lo, span, x.ctypes.data, table.ctypes.data, _KERNEL_STEPS,
                           config.alpha, inv1ma, state.ctypes.data + 8 * lo, r_total)

    n = 0
    if workers > 1:  # a run that starts no worker does not import concurrent.futures
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        fan_out = map if pool is None else pool.map
        for c, checkpoint in enumerate(config.n_grid):
            while n < checkpoint:
                span = min(_KERNEL_STEPS, checkpoint - n)
                if kernel is not None:
                    kernel.step_table(span, n, sched.a1, sched.a_exp, sched.b1, sched.b_exp,
                                      table.ctypes.data, _KERNEL_STEPS)
                    # The table must hold the schedule's own gains: a schedule whose
                    # gains are not the power laws of its fields, or a pow that is
                    # not the interpreter's, would part the kernel from estimators.step.
                    if table[0, 0] != sched.gain_a(max(n, 1)) or table[1, 0] != sched.gain_b(n):
                        raise RuntimeError(f"step table differs from the schedule's gains at step {n}")
                list(fan_out(sub_block, range(0, r_total, _KERNEL_LANES)))
                n += span
                _check_finite(state, n)
            out[c] = state


def _fold_scalar(config, x, n, state) -> None:
    """The kernel's work done by estimators.run_stream: each lane of ``x``
    steps on from counter ``n`` and its column of ``state``, and leaves its
    final state back in ``state``."""
    for lane, draws in enumerate(x.tolist()):
        start = JointEstimatorState(config.alpha, config.schedule, n, *state[:, lane].tolist())
        end = run_stream(start, draws)
        state[:, lane] = (end.theta, end.theta_bar, end.sq_embedded, end.sq_classical, end.sq_bardou)


def fit_rate(points: Iterable[tuple[float, float]]) -> RateFit:
    """Ordinary least squares of log(mse) on log(n)."""
    pts = [(float(n), float(m)) for n, m in points]
    if len(pts) < 3:
        raise ValueError(f"rate fit needs at least 3 points, got {len(pts)}")
    if any(m <= 0 for _, m in pts):
        raise ValueError("rate fit requires strictly positive mse values")
    if any(n <= 0 for n, _ in pts):
        raise ValueError("rate fit requires strictly positive n values")
    logn = np.log([n for n, _ in pts])
    logm = np.log([m for _, m in pts])
    slope, intercept = np.polyfit(logn, logm, 1)
    fitted = slope * logn + intercept
    ss_res = float(np.sum((logm - fitted) ** 2))
    ss_tot = float(np.sum((logm - logm.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2)


def _jackknife_se(loo_values: np.ndarray) -> float:
    r = loo_values.shape[0]
    centered = loo_values - loo_values.mean()
    return math.sqrt((r - 1) / r * float(np.sum(centered * centered)))


def _loo_cov(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Leave-one-out sample covariances of the pair (x, y)."""
    r = x.shape[0]
    sx, sy, sxy = x.sum(), y.sum(), (x * y).sum()
    m = r - 1
    mean_x = (sx - x) / m
    mean_y = (sy - y) / m
    cross = sxy - x * y
    return (cross - m * mean_x * mean_y) / (m - 1)


def empirical_clt_cov(result: ExperimentResult, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance of the rescaled CLT pair at checkpoint ``n`` across
    replicates, with jackknife standard errors per entry."""
    pairs = result.clt_pairs(n)
    r = pairs.shape[0]
    if r < 30:
        raise ValueError(f"replicates >= 30 required for CLT covariance, got {r}")
    cov = np.cov(pairs, rowvar=False, ddof=1)
    se = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            se[i, j] = _jackknife_se(_loo_cov(pairs[:, i], pairs[:, j]))
    return cov, se


_Z_975 = 1.959963984540054  # the standard normal's 0.975 quantile


@dataclass(frozen=True)
class VariantComparisonRow:
    n: int
    pair: str
    mse_ratio: float
    ci_low: float
    ci_high: float


def compare_variants(result: ExperimentResult) -> tuple[VariantComparisonRow, ...]:
    """Paired MSE ratios between variants per checkpoint.

    Ratios are paired through common random numbers (all variants consumed the
    same draws); 95% confidence intervals come from leave-one-replicate-out
    jackknife.
    """
    present = result.config.variants
    if len(present) < 2:
        raise ValueError("variant comparison requires at least 2 variants")
    pairs = [(a, b) for i, a in enumerate(present) for b in present[i + 1 :]]

    rows: list[VariantComparisonRow] = []
    for a, b in pairs:
        sq_a = result.squared_errors(a)
        sq_b = result.squared_errors(b)
        for k, n in enumerate(result.config.n_grid):
            ea, eb = sq_a[k], sq_b[k]
            sa, sb = ea.sum(), eb.sum()
            ratio = (sa / ea.shape[0]) / (sb / eb.shape[0])
            loo = (sa - ea) / (sb - eb)
            se = _jackknife_se(loo)
            rows.append(
                VariantComparisonRow(
                    n=n,
                    pair=f"{a}/{b}",
                    mse_ratio=float(ratio),
                    ci_low=float(ratio - _Z_975 * se),
                    ci_high=float(ratio + _Z_975 * se),
                )
            )
    return tuple(rows)


def moment_curve(result: ExperimentResult, key: str, power: int) -> np.ndarray:
    """Empirical E|estimate - truth|^power per checkpoint (used for the
    fourth-moment decay check of the raw quantile iterate)."""
    err = np.abs(result.estimates[key] - result.truth(key))
    return (err**power).mean(axis=1)
