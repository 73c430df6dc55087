"""The Gaussian model's ports of Cephes' ndtr and ndtri, pinned to scipy.special.

Every value must equal scipy's, NaN for NaN: the scalar ``_ndtr`` and
``_ndtri``, and the compiled ``_normal.c`` behind an array
``Gaussian.quantile`` (or ``_ndtri`` over each draw where it cannot be
built).  The inputs sit on each branch switch of the routines and in both
tails down to the smallest subnormal.  The compiled transform,
which works in blocks, is also pinned at lengths around its block size, with
the draws its vector passes leave to its scalar routine at any position.
"""

import math
import re
import shlex
import sys
import sysconfig
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from streamrisk import _native, distributions
from streamrisk.distributions import Gaussian, _ndtr, _ndtri

MEAN_SD = [(0.0, 1.0), (0.5, 2.0)]


def _same(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    differ = ~((got == want) | (np.isnan(got) & np.isnan(want)))
    assert not differ.any(), f"{int(differ.sum())} differ, first at input index {np.argwhere(differ)[0]}"


def _neighbours(x: float, k: int = 200) -> list[float]:
    """x and its k nearest floats on each side."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _ndtr_inputs() -> np.ndarray:
    rng = np.random.default_rng(20261019)
    points = [0.0, -0.0, math.inf, -math.inf, math.nan]
    # |a| sqrt(1/2) = 1 switches erf to erfc, 8 switches erfc's P/Q to R/S,
    # and a^2 / 2 = MAXLOG underflows erfc's exp(-z^2) to 0.
    for z in (1.0, 8.0, math.sqrt(distributions._MAXLOG)):
        a = z / distributions._SQRT1_2
        points += _neighbours(a) + _neighbours(-a)
    points += list(rng.normal(0.0, 4.0, 50_000)) + list(rng.uniform(-40.0, 40.0, 50_000))
    return np.array(points)


def _ndtri_inputs(tail_draws: int) -> np.ndarray:
    rng = np.random.default_rng(20261020)
    e2, e32 = distributions._EXP_M2, math.exp(-32.0)
    points = [0.0, 1.0, 2.0**-54, 2.0**-53, 1.0 - 2.0**-53, 5e-324, 2.0**-1022, -0.5, 1.5, math.nan]
    # exp(-2) and 1 - exp(-2) switch the central to the tail approximation,
    # exp(-32) the tail's P1/Q1 to P2/Q2.
    for y in (e2, 1.0 - e2, e32, 1.0 - e32):
        points += _neighbours(y)
    tails = np.exp(-rng.uniform(0.0, 745.0, tail_draws))  # log-uniform down to the subnormals
    return np.concatenate([points, tails, 1.0 - tails[: tail_draws // 4]])


def test_scalar_ndtr_equals_scipy():
    x = _ndtr_inputs()
    _same([_ndtr(float(a)) for a in x], ndtr(x))


def test_scalar_ndtri_equals_scipy():
    u = np.concatenate([_ndtri_inputs(50_000), np.random.default_rng(3).random(50_000)])
    _same([_ndtri(float(y)) for y in u], ndtri(u))


@pytest.mark.parametrize("mean, sd", MEAN_SD)
def test_scalar_quantile_equals_scipy(mean, sd):
    u = _ndtri_inputs(2_000)
    got = [Gaussian(mean, sd).quantile(float(y)) for y in u]
    assert all(type(x) is float for x in got)
    _same(got, mean + sd * ndtri(u))


@pytest.mark.parametrize("mean, sd", MEAN_SD)
def test_compiled_quantile_equals_scipy(mean, sd):
    u = np.concatenate([_ndtri_inputs(200_000), np.random.default_rng(4).random(1_000_000)])
    _same(Gaussian(mean, sd).quantile(u), mean + sd * ndtri(u))
    assert _native._loaded["_normal"] is not None


def test_compiled_quantile_keeps_shape_and_reads_any_layout():
    u = np.random.default_rng(5).random((7, 40))
    g = Gaussian(3.5, 0.25)
    for view in (u, u.T, u[:, ::3], u.tolist()):
        x = g.quantile(view)
        _same(x, 3.5 + 0.25 * ndtri(np.asarray(view)))


def test_unbuildable_transform_falls_back_to_ndtri_with_one_warning(monkeypatch):
    failing_cc = shlex.join([sys.executable, "-c", "raise SystemExit(1)"])
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: failing_cc)
    monkeypatch.setattr(_native, "_loaded", {})
    u = np.concatenate([_ndtri_inputs(10_000), np.random.default_rng(6).random(100_000)])
    g = Gaussian(0.5, 2.0)
    with pytest.warns(RuntimeWarning, match=r"^native library _normal not built .*scalar reference _ndtri") as record:
        x = g.quantile(u)
        grid = g.quantile(u[:4000].reshape(40, 100)[:, ::3])
    assert len(record) == 1
    assert _native._loaded == {"_normal": None}
    _same(x, 0.5 + 2.0 * ndtri(u))
    _same(grid, 0.5 + 2.0 * ndtri(u[:4000].reshape(40, 100)[:, ::3]))


def test_library_built_once_across_threads(monkeypatch):
    # Engine workers can make a process's first array quantile concurrently.
    builds = []

    def counting_build(stem, fallback, signatures):
        builds.append(stem)
        return real_build(stem, fallback, signatures)

    real_build = _native._build
    monkeypatch.setattr(_native, "_build", counting_build)
    monkeypatch.setattr(_native, "_loaded", {})
    u = np.random.default_rng(7).random((4, 1000))
    results = [None] * 4
    libraries = [None] * 4
    start = threading.Barrier(4)

    def worker(i):
        start.wait()
        libraries[i] = _native.load(**distributions._NORMAL)
        results[i] = Gaussian(0.0, 1.0).quantile(u[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert builds == ["_normal"]
    assert libraries[0] is not None and all(lib is libraries[0] for lib in libraries)
    for i in range(4):
        _same(results[i], ndtri(u[i]))


# The compiled transform works in blocks of _BLOCK draws: central pass on every
# draw, then the compacted tails, then the scalar far_tail on the few left over.
_BLOCK = int(re.search(r"#define BLOCK (\d+)", Path(distributions.__file__).with_name("_normal.c").read_text())[1])
_E2 = distributions._EXP_M2
# Each left to far_tail: 0, 1, NaN, out of [0, 1], subnormal, and
# y <= exp(-32) in either tail (x = sqrt(-2 log y) >= 8).
_SPECIAL = [0.0, 1.0, math.nan, -0.1, 1.1, -0.0, 5e-324, 2.0**-1030, 1e-20, math.exp(-32.0), 1.0 - 1e-15]


def _pin_block_transform(u, mean=0.5, sd=2.0):
    assert _native.load(**distributions._NORMAL) is not None
    x = Gaussian(mean, sd).quantile(u)
    _same(x, mean + sd * ndtri(u))
    _same(x, [mean + sd * _ndtri(float(y)) for y in u])


@pytest.mark.parametrize("n", [0, 1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1])
def test_block_transform_at_every_length(n):
    _pin_block_transform(np.random.default_rng(n).random(n))


@pytest.mark.parametrize("value", _SPECIAL, ids=repr)
def test_block_transform_special_value_at_any_position(value):
    # First, last, odd and even positions of the first and second blocks, among
    # uniform draws that mix central and tail ones.
    positions = [0, 1, 2, 129, 130, _BLOCK - 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK]
    for p in positions:
        u = np.random.default_rng(p).random(2 * _BLOCK + 1)
        u[p] = value
        _pin_block_transform(u)


@pytest.mark.parametrize("n", [1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("kind", ["central", "lower", "upper", "both-tails", "all-special"])
def test_block_transform_runs_of_one_kind(kind, n):
    rng = np.random.default_rng(n)
    if kind == "central":
        u = rng.uniform(_E2, 1.0 - _E2, n)
        u[0], u[-1] = 1.0 - _E2, math.nextafter(_E2, 1.0)  # the two ends of the central range
    else:
        tails = np.exp(-rng.uniform(2.0, 40.0, n))  # some y <= exp(-32) among them
        u = {"lower": tails, "upper": 1.0 - tails, "both-tails": np.where(rng.random(n) < 0.5, tails, 1.0 - tails),
             "all-special": rng.choice(_SPECIAL, n)}[kind]
    _pin_block_transform(u)
