"""Samplable distribution models with exact and quadrature-based risk oracles.

Each model carries its cdf/pdf/quantile trio plus closed-form upper-tail
moments.  :func:`oracle` assembles the exact risk quantities -- quantile,
superquantile, density at the quantile, and the tail variance

    v_alpha = E[X^2 1{X > theta}] - (E[X 1{X > theta}])^2,

while :func:`numeric_oracle` recomputes the same structure by bisection on the
cdf and adaptive quadrature of x*f(x) and x^2*f(x) only, so the two routes
stay independent cross-checks of each other.

scipy is imported on first use, inside the functions that need it: ``quad``
by the quadrature of :func:`numeric_oracle`, ``ndtr``/``ndtri`` by the
:class:`Gaussian` methods.  Importing this module (and the CLI) loads none of
it, so a run on the other models never pays scipy's import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Quadrature truncation point for unbounded supports: the model's own inverse
# cdf at 1 - _TAIL_EPS.  The mass beyond it is integrated separately (see
# _tail_integral), not dropped: for heavy tails the moment integrals carry
# non-negligible weight past any fixed quantile.
_TAIL_EPS = 1e-13

# Read in place of a u = 0 draw whose inverse-cdf transform is non-finite; it
# is half the smallest positive value rng.random() returns (2**-53).
ZERO_DRAW = 2.0**-54


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
        from scipy.special import ndtr

        return float(ndtr((x - self.mean) / self.stddev))

    def quantile(self, u):
        from scipy.special import ndtri

        return self.mean + self.stddev * ndtri(u)

    def superquantile(self, alpha: float, theta: float) -> float:
        z = (theta - self.mean) / self.stddev
        phi = math.exp(-0.5 * z * z) / _SQRT_2PI
        return self.mean + self.stddev * phi / (1.0 - alpha)

    def tail_first_moment(self, t: float) -> float:
        from scipy.special import ndtr

        z = (t - self.mean) / self.stddev
        q = float(ndtr(-z))
        phi = math.exp(-0.5 * z * z) / _SQRT_2PI
        return self.mean * q + self.stddev * phi

    def tail_second_moment(self, t: float) -> float:
        from scipy.special import ndtr

        z = (t - self.mean) / self.stddev
        q = float(ndtr(-z))
        phi = math.exp(-0.5 * z * z) / _SQRT_2PI
        return (
            self.mean * self.mean * q
            + 2.0 * self.mean * self.stddev * phi
            + self.stddev * self.stddev * (q + z * phi)
        )

    def _quantile_bracket(self, alpha: float) -> tuple[float, float]:
        lo, hi = self.mean - self.stddev, self.mean + self.stddev
        while self.cdf(lo) >= alpha:
            lo -= hi - lo
        while self.cdf(hi) <= alpha:
            hi += hi - lo
        return lo, hi

    @property
    def support_top(self) -> float:
        return math.inf


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
    def support_top(self) -> float:
        return math.inf


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
    def support_top(self) -> float:
        return self.hi


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
        return self.shape * self.scale**self.shape * x ** (-self.shape - 1.0)

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
    def support_top(self) -> float:
        return math.inf


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


def oracle(model: DistributionModel, alpha: float) -> RiskOracle:
    """Closed-form risk oracle for a supported model at level ``alpha``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    theta = float(model.quantile(alpha))
    vartheta = model.superquantile(alpha, theta)
    e1 = model.tail_first_moment(theta)
    e2 = model.tail_second_moment(theta)
    return RiskOracle(
        alpha=alpha,
        theta_alpha=theta,
        vartheta_alpha=vartheta,
        density_at_quantile=model.pdf(theta),
        v_alpha=e2 - e1 * e1,
    )


def numeric_oracle(model: DistributionModel, alpha: float) -> RiskOracle:
    """Brute-force oracle: bisection on the cdf plus adaptive quadrature.

    Deliberately avoids the closed-form tail moments and the inverse cdf
    (except to place the finite/infinite split point of the tail integral), so
    it can serve as an independent check of :func:`oracle`.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    theta = _bisect_quantile(model, alpha)
    e1 = _tail_integral(model, theta, power=1)
    e2 = _tail_integral(model, theta, power=2)
    return RiskOracle(
        alpha=alpha,
        theta_alpha=theta,
        vartheta_alpha=e1 / (1.0 - alpha),
        density_at_quantile=_fd_density(model, theta),
        v_alpha=e2 - e1 * e1,
    )


def _bisect_quantile(
    model: DistributionModel, alpha: float, tol: float = 1e-12, max_iter: int = 400
) -> float:
    lo, hi = model._quantile_bracket(alpha)
    mid = 0.5 * (lo + hi)
    achieved = math.inf
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = model.cdf(mid)
        achieved = abs(fm - alpha)
        if achieved < tol:
            return mid
        if fm < alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * math.ulp(abs(mid)):
            break
    raise QuadratureError(
        f"bisection stalled at |F(theta)-alpha| = {achieved:.3e} (target {tol:.0e})"
    )


def _quad_checked(func, lo: float, hi: float) -> tuple[float, float]:
    from scipy.integrate import quad

    # Splitting at decade waypoints keeps each subrange well-conditioned;
    # a single pass over many decades of power-law decay trips QUADPACK's
    # extrapolation roundoff detection.
    waypoints: list[float] = []
    w = max(abs(lo), 1.0) * 10.0
    while w < hi:
        if w > lo:
            waypoints.append(w)
        w *= 10.0
    edges = [lo, *waypoints, hi]
    value = err = 0.0
    for a, b in zip(edges, edges[1:]):
        out = quad(func, a, b, epsabs=0.0, epsrel=1e-12, limit=200, full_output=1)
        value += out[0]
        err += out[1]
    return value, err


def _tail_integral(model: DistributionModel, lo: float, power: int) -> float:
    """Integral of x^power * f(x) over [lo, support top) by adaptive quadrature.

    For unbounded supports the range splits at T = quantile(1 - 1e-13); the
    remainder over [T, inf) is mapped to (0, 1/T] with y = 1/x so that slowly
    decaying tails (Pareto) are captured instead of truncated.
    """
    from scipy.integrate import quad

    def g(x: float) -> float:
        return x**power * model.pdf(x)

    top = model.support_top
    if math.isfinite(top):
        value, err = _quad_checked(g, lo, top)
    else:
        split = float(model.quantile(1.0 - _TAIL_EPS))
        v1, e1 = _quad_checked(g, lo, split)
        v2, e2 = quad(
            lambda y: g(1.0 / y) / (y * y),
            0.0,
            1.0 / split,
            epsabs=1e-15,
            epsrel=1e-12,
            limit=300,
            full_output=1,
        )[:2]
        value, err = v1 + v2, e1 + e2
    if err > 1e-9 * max(abs(value), 1.0):
        raise QuadratureError(
            f"tail integral of x^{power} f(x) from {lo} reached abs error {err:.3e} "
            f"for value {value:.6e} (target 1e-9 relative)"
        )
    return value


def _fd_density(model: DistributionModel, theta: float) -> float:
    # 5-point central difference of the cdf; independent of model.pdf.
    h = 3e-4 * max(1.0, abs(theta))
    num = (
        -model.cdf(theta + 2.0 * h)
        + 8.0 * model.cdf(theta + h)
        - 8.0 * model.cdf(theta - h)
        + model.cdf(theta - 2.0 * h)
    )
    return num / (12.0 * h)


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
    """One draw via inverse-cdf transform of ``rng.random()``.

    The transform runs on a one-element array, as in :func:`sample_array` and
    the replicate engine: numpy's array loops can round differently from
    Python's float arithmetic (``**`` for the Pareto differs in about 5% of
    draws by one ulp on CPUs where numpy vectorises ``power``)."""
    return float(sample_array(model, rng, 1)[0])


def sample_array(model: DistributionModel, rng: np.random.Generator, size) -> np.ndarray:
    """Vectorized draws; bit-identical to repeated :func:`sample` calls."""
    u = rng.random(size)
    x = np.asarray(model.quantile(u), dtype=np.float64)
    if not np.isfinite(x).all():
        x = mend_zero_draws(model, u, x)
    return x


def substream(master_seed: int, experiment_id: int, replicate: int) -> np.random.Generator:
    """Independent generator for replicate ``replicate`` of one experiment.

    Seeding with the (master_seed, experiment_id, replicate) triple keeps
    parallel replicates bit-reproducible regardless of execution order.
    """
    if master_seed < 0 or experiment_id < 0 or replicate < 0:
        raise ValueError("seed components must be nonnegative")
    return np.random.default_rng((int(master_seed), int(experiment_id), int(replicate)))
