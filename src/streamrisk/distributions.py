"""Samplable distribution models with exact and quadrature-based risk oracles.

Each model carries its cdf/pdf/quantile trio plus closed-form upper-tail
moments.  :func:`oracle` assembles the exact risk quantities -- quantile,
superquantile, density at the quantile, and the tail variance

    v_alpha = E[X^2 1{X > theta}] - (E[X 1{X > theta}])^2,

while :func:`numeric_oracle` recomputes the same structure by bisection on the
cdf and adaptive Gauss-Legendre quadrature of (x - theta) f(x) and
(x - theta)^2 f(x) only, so the two routes stay independent cross-checks of
each other.  numpy is the only library either route uses.

The Gaussian cdf and inverse cdf are Cephes' ``ndtr`` and ``ndtri``, ported
operation for operation so that every value equals Cephes' own bit for bit:
:func:`_ndtr` and :func:`_ndtri` in Python for scalars (the oracles and the
``u = 0`` mend), and the compiled ``_normal.c``, built through
:func:`streamrisk._native.load` on the first array :meth:`Gaussian.quantile`
of a process, for the draws.  When it cannot be built, array draws go through
:func:`_ndtri` one by one, after one ``RuntimeWarning``: the same values,
about 1.2 us a draw instead of 7 ns (2**17 uniform draws, AVX-512 Xeon).
"""

from __future__ import annotations

import contextlib
import ctypes
import heapq
import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._native import load

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# The quadrature of unbounded supports splits at T, the model's own inverse
# cdf at 1 - _TAIL_EPS, so that a narrow bump far from 0 lies below it.  The
# mass past T is not dropped: for heavy tails the moment integrals carry
# weight past any quantile (see _tail_integral for the rule and its bounds).
_TAIL_EPS = 1e-13
_TAIL_DECADES = 10
_MAX_SPLITS = 500

# Read in place of a u = 0 draw whose inverse-cdf transform is non-finite; it
# is half the smallest positive value rng.random() returns (2**-53).
ZERO_DRAW = 2.0**-54

# The Gaussian's compiled transform, as _native.load takes it: the C signature
# of x[i] = mean + sd * ndtri(u[i]), and what runs in its place when it cannot
# be built.
_NORMAL = dict(
    stem="_normal",
    fallback="Gaussian draws go through the scalar reference _ndtri, about a microsecond each",
    normal_quantile=[ctypes.c_int64, ctypes.c_void_p, ctypes.c_double, ctypes.c_double, ctypes.c_void_p],
)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class Gaussian:
    mean: float
    stddev: float

    def __post_init__(self) -> None:
        if not self.stddev > 0:
            raise ValueError(f"stddev must be positive, got {self.stddev}")

    def pdf(self, x: float) -> float:
        z = (x - self.mean) / self.stddev
        return math.exp(-0.5 * z * z) / (self.stddev * _SQRT_2PI)

    def cdf(self, x: float) -> float:
        return _ndtr((float(x) - self.mean) / self.stddev)

    def quantile(self, u):
        if isinstance(u, float):
            return self.mean + self.stddev * _ndtri(float(u))
        u = np.ascontiguousarray(u, dtype=np.float64)
        library = load(**_NORMAL)
        if library is None:
            x = [self.mean + self.stddev * _ndtri(y) for y in u.ravel().tolist()]
            return np.array(x, dtype=np.float64).reshape(u.shape)
        x = np.empty_like(u)
        library.normal_quantile(u.size, u.ctypes.data, self.mean, self.stddev, x.ctypes.data)
        return x

    def superquantile(self, alpha: float, theta: float) -> float:
        z = (theta - self.mean) / self.stddev
        phi = math.exp(-0.5 * z * z) / _SQRT_2PI
        return self.mean + self.stddev * phi / (1.0 - alpha)

    def tail_first_moment(self, t: float) -> float:
        z = (float(t) - self.mean) / self.stddev
        q = _ndtr(-z)
        phi = math.exp(-0.5 * z * z) / _SQRT_2PI
        return self.mean * q + self.stddev * phi

    def tail_second_moment(self, t: float) -> float:
        z = (float(t) - self.mean) / self.stddev
        q = _ndtr(-z)
        phi = math.exp(-0.5 * z * z) / _SQRT_2PI
        return (
            self.mean * self.mean * q
            + 2.0 * self.mean * self.stddev * phi
            + self.stddev * self.stddev * (q + z * phi)
        )

    def _quantile_bracket(self, alpha: float) -> tuple[float, float]:
        lo, hi = self.mean - self.stddev, self.mean + self.stddev
        if not lo < hi:  # the widening below would never move
            raise QuadratureError(f"stddev {self.stddev!r} is below the float spacing at mean {self.mean!r}")
        while self.cdf(lo) >= alpha:
            lo -= hi - lo
        while self.cdf(hi) <= alpha:
            hi += hi - lo
        return lo, hi

    @property
    def support(self) -> tuple[float, float]:
        return -math.inf, math.inf


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    def pdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        return self.rate * math.exp(-self.rate * x)

    def cdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        return -math.expm1(-self.rate * x)

    def quantile(self, u):
        return -np.log1p(-u) / self.rate

    def superquantile(self, alpha: float, theta: float) -> float:
        return theta + 1.0 / self.rate

    def tail_first_moment(self, t: float) -> float:
        t = max(t, 0.0)
        return math.exp(-self.rate * t) * (t + 1.0 / self.rate)

    def tail_second_moment(self, t: float) -> float:
        t = max(t, 0.0)
        r = self.rate
        return math.exp(-r * t) * (t * t + 2.0 * t / r + 2.0 / (r * r))

    def _quantile_bracket(self, alpha: float) -> tuple[float, float]:
        lo, hi = 0.0, 1.0 / self.rate
        while self.cdf(hi) <= alpha:
            hi *= 2.0
        return lo, hi

    @property
    def support(self) -> tuple[float, float]:
        return 0.0, math.inf


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got lo={self.lo}, hi={self.hi}")

    def pdf(self, x: float) -> float:
        if self.lo <= x <= self.hi:
            return 1.0 / (self.hi - self.lo)
        return 0.0

    def cdf(self, x: float) -> float:
        if x <= self.lo:
            return 0.0
        if x >= self.hi:
            return 1.0
        return (x - self.lo) / (self.hi - self.lo)

    def quantile(self, u):
        return self.lo + (self.hi - self.lo) * u

    def superquantile(self, alpha: float, theta: float) -> float:
        return 0.5 * (theta + self.hi)

    def tail_first_moment(self, t: float) -> float:
        t = min(max(t, self.lo), self.hi)
        return (self.hi * self.hi - t * t) / (2.0 * (self.hi - self.lo))

    def tail_second_moment(self, t: float) -> float:
        t = min(max(t, self.lo), self.hi)
        return (self.hi**3 - t**3) / (3.0 * (self.hi - self.lo))

    def _quantile_bracket(self, alpha: float) -> tuple[float, float]:
        return self.lo, self.hi

    @property
    def support(self) -> tuple[float, float]:
        return self.lo, self.hi


@dataclass(frozen=True)
class Pareto:
    """Classical Pareto with density k * xm^k * x^(-k-1) on [xm, inf).

    shape > 2 keeps a finite moment of order strictly larger than 2.
    """

    scale: float
    shape: float

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not self.shape > 2:
            raise ValueError(f"shape must exceed 2, got {self.shape}")

    def pdf(self, x: float) -> float:
        if x < self.scale:
            return 0.0
        with contextlib.suppress(OverflowError):  # float ** raises where it overflows
            a, b = self.scale**self.shape, x ** (-self.shape - 1.0)
            if min(a, b) >= sys.float_info.min:
                return self.shape * a * b
        # A factor out of normal range (x^(-shape-1) far out) lost bits or overflowed.
        return (self.shape / self.scale) * (self.scale / x) ** (self.shape + 1.0)

    def cdf(self, x: float) -> float:
        if x <= self.scale:
            return 0.0
        return 1.0 - (self.scale / x) ** self.shape

    def quantile(self, u):
        return self.scale * (1.0 - u) ** (-1.0 / self.shape)

    def superquantile(self, alpha: float, theta: float) -> float:
        return theta * self.shape / (self.shape - 1.0)

    def tail_first_moment(self, t: float) -> float:
        t = max(t, self.scale)
        k = self.shape
        return k * self.scale**k * t ** (1.0 - k) / (k - 1.0)

    def tail_second_moment(self, t: float) -> float:
        t = max(t, self.scale)
        k = self.shape
        return k * self.scale**k * t ** (2.0 - k) / (k - 2.0)

    def _quantile_bracket(self, alpha: float) -> tuple[float, float]:
        lo, hi = self.scale, 2.0 * self.scale
        while self.cdf(hi) <= alpha:
            hi *= 2.0
        return lo, hi

    @property
    def support(self) -> tuple[float, float]:
        return self.scale, math.inf


DistributionModel = Union[Gaussian, Exponential, Uniform, Pareto]


@dataclass(frozen=True)
class RiskOracle:
    """Exact risk quantities of a (model, alpha) pair.

    Synthetic oracles (for formula-level tests) are allowed as long as the
    invariants hold: vartheta_alpha >= theta_alpha, v_alpha >= 0, positive
    density.
    """

    alpha: float
    theta_alpha: float
    vartheta_alpha: float
    density_at_quantile: float
    v_alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.vartheta_alpha < self.theta_alpha:
            raise ValueError(
                "superquantile must dominate the quantile: "
                f"{self.vartheta_alpha} < {self.theta_alpha}"
            )
        if not self.density_at_quantile > 0:
            raise ValueError(f"density at quantile must be positive, got {self.density_at_quantile}")
        if self.v_alpha < 0:
            raise ValueError(f"v_alpha must be nonnegative, got {self.v_alpha}")


def finite(what: str, formula, *args) -> float:
    """``formula(*args)`` as a float, or a ValueError saying that ``what``
    overflows float arithmetic: a float ``**`` that overflows, a divisor that
    underflows to zero, or an inf or NaN value."""
    try:
        value = float(formula(*args))
    except ArithmeticError:  # float ** raises OverflowError, / ZeroDivisionError
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{what} overflows float arithmetic")
    return value


def oracle(model: DistributionModel, alpha: float) -> RiskOracle:
    """Closed-form risk oracle for a supported model at level ``alpha``; a
    ValueError names the first quantity whose closed form overflows."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    where = f"of {model} at alpha = {alpha!r}"
    with np.errstate(all="ignore"):  # numpy scalars overflow quietly; finite() reports it
        theta = finite(f"theta_alpha {where}", model.quantile, alpha)
        vartheta = finite(f"vartheta_alpha {where}", model.superquantile, alpha, theta)
        e1 = finite(f"tail first moment {where}", model.tail_first_moment, theta)
        e2 = finite(f"tail second moment {where}", model.tail_second_moment, theta)
        density = finite(f"density_at_quantile {where}", model.pdf, theta)
    return RiskOracle(
        alpha=alpha,
        theta_alpha=theta,
        vartheta_alpha=vartheta,
        density_at_quantile=density,
        v_alpha=e2 - e1 * e1,
    )


def numeric_oracle(model: DistributionModel, alpha: float) -> RiskOracle:
    """Brute-force oracle: bisection on the cdf plus adaptive Gauss-Legendre quadrature.

    Deliberately avoids the closed-form tail moments and the inverse cdf
    (except to place the finite/infinite split point of the tail integral), so
    it can serve as an independent check of :func:`oracle`.  A quantity that
    comes out non-finite, or quantities that break :class:`RiskOracle`'s
    invariants, raise :class:`QuadratureError`: the quadrature was too coarse
    for the model.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    lo, hi = model._quantile_bracket(alpha)
    theta = _bisect_quantile(model, alpha, lo, hi)
    # Moments about theta, d_k = E[(X - theta)^k 1{X > theta}], keep e2 - e1^2
    # from cancelling on narrow models far from 0: with F = cdf(theta) (alpha
    # but for theta's rounding, which v_alpha can feel), e1 = d1 + theta (1 - F)
    # and e2 - e1^2 = d2 - d1^2 + F theta (2 d1 + theta (1 - F)).
    below = model.cdf(theta)
    d1 = _tail_integral(model, theta, power=1)
    d2 = _tail_integral(model, theta, power=2)
    quantities = dict(
        theta_alpha=theta,
        vartheta_alpha=theta + d1 / (1.0 - alpha),
        density_at_quantile=_fd_density(model, theta, hi - lo),
        v_alpha=d2 - d1 * d1 + below * theta * (2.0 * d1 + theta * (1.0 - below)),
    )
    for name, value in quantities.items():
        if not math.isfinite(value):
            raise QuadratureError(f"{name} of {model} at alpha = {alpha!r} is {value} by quadrature")
    try:
        return RiskOracle(alpha=alpha, **quantities)
    except ValueError as exc:
        raise QuadratureError(str(exc)) from exc


def _bisect_quantile(model: DistributionModel, alpha: float, lo: float, hi: float) -> float:
    """Where the cdf reaches alpha in [lo, hi], cdf(lo) < alpha < cdf(hi),
    bisected to float resolution: a midpoint where the cdf equals alpha, or,
    once no midpoint lies strictly between the ends, the end whose cdf is
    nearer alpha."""
    f_lo, f_hi = model.cdf(lo), model.cdf(hi)
    while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:  # halves first: lo + hi can overflow
        f_mid = model.cdf(mid)
        if f_mid == alpha:
            return mid
        if f_mid < alpha:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise QuadratureError(f"the quantile bracket [{lo!r}, {hi!r}] leaves float range")
    return lo if alpha - f_lo < f_hi - alpha else hi


def _tail_integral(model: DistributionModel, lo: float, power: int) -> float:
    """Integral of (x - lo)^power f(x) over [lo, support top) by the 20-point
    Gauss-Legendre rule on pieces between decade waypoints up to the top or,
    where there is none, T = quantile(1 - _TAIL_EPS) and _TAIL_DECADES decades
    past it, plus the rest of a geometric series with the last two decades'
    ratio (exact for a power tail, 0 for a light one).  The piece whose halves
    differ most from its whole is halved, at most _MAX_SPLITS times, until
    those differences sum to 1e-14 of the total, or to 1e-11 of it and a
    halving no longer lowers their sum."""
    nodes, weights = (v.tolist() for v in np.polynomial.legendre.leggauss(20))

    def rule(a: float, b: float) -> float:
        half, mid, total = 0.5 * (b - a), 0.5 * (a + b), 0.0
        for t, w in zip(nodes, weights):
            x = mid + half * t
            d = x - lo
            total += w * model.pdf(x) * d * (d if power == 2 else 1.0)  # d**2 alone can overflow
        return half * total

    def piece(a: float, b: float, whole: float, index: int) -> tuple:
        mid = 0.5 * (a + b)
        left, right = rule(a, mid), rule(mid, b)
        return -abs(whole - left - right), a, b, index, left, right

    top = model.support[1]
    bounded = math.isfinite(top)
    split = top if bounded else float(model.quantile(1.0 - _TAIL_EPS))
    edges = [lo]
    w = max(abs(lo), 1.0) * 10.0
    while w < split:
        edges.append(w)
        w *= 10.0
    edges.append(split)
    if not bounded:
        edges += [(split if split > 0.0 else 1.0) * 10.0**k for k in range(1, _TAIL_DECADES + 1)]
    heap = [piece(a, b, rule(a, b), i) for i, (a, b) in enumerate(zip(edges, edges[1:]))]
    heapq.heapify(heap)
    before = math.inf
    for _ in range(_MAX_SPLITS):
        err, total = -sum(p[0] for p in heap), abs(sum(p[4] + p[5] for p in heap))
        # Within 1e-11 of the total, an error that a halving no longer lowers is
        # the nodes' rounding, which more halvings do not remove; NaN stops too.
        if not err > 1e-14 * total or before <= err <= 1e-11 * total:
            break
        before = err
        _, a, b, index, left, right = heapq.heappop(heap)
        heapq.heappush(heap, piece(a, 0.5 * (a + b), left, index))
        heapq.heappush(heap, piece(0.5 * (a + b), b, right, index))
    values = [0.0] * (len(edges) - 1)
    for p in heap:
        values[p[3]] += p[4] + p[5]
    value, err = math.fsum(values), -math.fsum(p[0] for p in heap)
    if not bounded and values[-1] != 0.0:
        with np.errstate(all="ignore"):
            r_prev, r = np.divide(values[-2:], values[-3:-1]).tolist()
        if not (0.0 <= r_prev < 1.0 and 0.0 <= r < 1.0):
            raise QuadratureError(f"(x - {lo})^{power} f(x) has decade ratios {r_prev:.6e}, {r:.6e} past {split}")
        rest_prev, rest = (values[-1] * q / (1.0 - q) for q in (r_prev, r))
        value, err = value + rest, err + abs(rest - rest_prev)
    if err > 1e-9 * max(abs(value), 1.0):
        raise QuadratureError(f"tail integral of (x - {lo})^{power} f(x) reached abs error {err:.3e} "
                              f"for value {value:.6e} (target 1e-9 relative)")
    return value


def _fd_density(model: DistributionModel, theta: float, spread: float) -> float:
    """The cdf's derivative at theta by a 5-point difference, independent of
    model.pdf.  The step h is 3e-4 of ``spread`` (the width of the bisection's
    bracket, which each model opens at its own scale), rounded so that each
    theta + k h is exact; the stencil is central, or one-sided where it would
    cross an end of the support.  NaN when no step is left."""
    h = (theta + 3e-4 * spread) - theta
    if not h > 0.0:
        return math.nan
    bottom, top = model.support
    if bottom <= theta - 2.0 * h and theta + 2.0 * h <= top:
        steps, weights = (-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0)
    else:  # forward from the bottom, or backward (a negative step) from the top
        h = h if theta - 2.0 * h < bottom else -h
        steps, weights = range(5), (-25.0, 48.0, -36.0, 16.0, -3.0)
    return math.fsum(w * model.cdf(theta + k * h) for k, w in zip(steps, weights)) / (12.0 * h)


def mend_zero_draws(model: DistributionModel, u, x) -> np.ndarray:
    """``x = model.quantile(u)`` with each non-finite value that comes from a
    ``u = 0`` draw replaced by ``model.quantile(ZERO_DRAW)``.

    ``rng.random()`` can return 0, and an unbounded lower tail maps it to
    ``-inf`` (Gaussian).  Callers pass ``x`` here only when it holds a
    non-finite value; other non-finite values are left for them to report.
    """
    zero = (u == 0.0) & ~np.isfinite(x)
    return np.where(zero, model.quantile(ZERO_DRAW), x)


def sample(model: DistributionModel, rng: np.random.Generator) -> float:
    """One draw via inverse-cdf transform of ``rng.random()``: the scalar
    reference that tests hold the replicate engine's draws to.

    The transform runs on a one-element array, as in the engine: numpy's
    array loops can round differently from Python's float arithmetic (``**``
    for the Pareto differs in about 5% of draws by one ulp on CPUs where
    numpy vectorises ``power``)."""
    u = rng.random(1)
    x = np.asarray(model.quantile(u), dtype=np.float64)
    if not np.isfinite(x).all():
        x = mend_zero_draws(model, u, x)
    return float(x[0])


def substream(master_seed: int, experiment_id: int, replicate: int) -> np.random.Generator:
    """Independent generator for replicate ``replicate`` of one experiment.

    Seeding with the (master_seed, experiment_id, replicate) triple keeps
    parallel replicates bit-reproducible regardless of execution order.
    """
    if master_seed < 0 or experiment_id < 0 or replicate < 0:
        raise ValueError("seed components must be nonnegative")
    return np.random.default_rng((int(master_seed), int(experiment_id), int(replicate)))


# Cephes' normal cdf and its inverse (S. L. Moshier), ported operation for
# operation with math.exp/log/sqrt, which are libm's, so each value equals
# Cephes' bit for bit.  A numpy-ufunc port would not: np.log rounds
# differently from libm's log on some inputs where numpy vectorises it.
# _normal.c holds the same ndtri for arrays.

_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_SQRT1_2 = 7.07106781186547524401e-1

# erfc(x) = exp(-x^2) P(x) / Q(x) on 1 <= x < 8 and R(x) / S(x) on x >= 8;
# erf(x) = x T(x^2) / U(x^2) on |x| < 1.  Q, S and U omit their leading 1.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)

# ndtri: P0/Q0 on |u - 1/2| <= 1/2 - exp(-2); with z = sqrt(-2 log y) for the
# nearer tail mass y, P1/Q1 on 2 <= z < 8 and P2/Q2 on z >= 8.  The Q lists
# omit their leading 1.
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    # As _polevl with a leading coefficient 1 before ``coef``.
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr(a: float) -> float:
    """Standard normal cdf at a Python float: Cephes' ndtr with the branches
    of its erf and erfc that ndtr reaches written in place."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:  # 0.5 + 0.5 erf(x)
        x2 = x * x
        return 0.5 + 0.5 * (x * _polevl(x2, _ERF_T) / _p1evl(x2, _ERF_U))
    # y = 0.5 erfc(z), read as 1 - y for x > 0
    w = -z * z
    if w < -_MAXLOG:
        y = 0.0
    elif z < 8.0:
        y = 0.5 * ((math.exp(w) * _polevl(z, _ERFC_P)) / _p1evl(z, _ERFC_Q))
    else:
        y = 0.5 * ((math.exp(w) * _polevl(z, _ERFC_R)) / _p1evl(z, _ERFC_S))
    return 1.0 - y if x > 0 else y


def _ndtri(y0: float) -> float:
    """Inverse of the standard normal cdf at a Python float; as _normal.c's
    ndtri, operation for operation."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x
