"""Samplable distribution models with exact and quadrature-based risk oracles.

Each model carries its cdf/pdf/quantile trio plus closed-form upper-tail
moments.  :func:`oracle` assembles the exact risk quantities -- quantile,
superquantile, density at the quantile, and the tail variance

    v_alpha = E[X^2 1{X > theta}] - (E[X 1{X > theta}])^2,

while :func:`numeric_oracle` recomputes the same structure by bisection on the
cdf and adaptive quadrature of x*f(x) and x^2*f(x) only, so the two routes
stay independent cross-checks of each other.

The Gaussian cdf and inverse cdf are Cephes' ``ndtr`` and ``ndtri``, the
routines scipy.special runs, ported so that every value equals scipy's bit for
bit: :func:`_ndtr` and :func:`_ndtri` in Python for scalars (the oracles and
the ``u = 0`` mend), and the compiled ``_normal.c``, built on the first array
:meth:`Gaussian.quantile` of a process, for the draws.  scipy is imported only
where it is still used: ``quad`` by the quadrature of :func:`numeric_oracle`,
and ``scipy.special.ndtri`` for array draws when ``_normal.c`` cannot be built.
Importing this module (and the CLI) loads none of it, and neither does a run
on any model.
"""

from __future__ import annotations

import ctypes
import math
import subprocess
import threading
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._native import build_library

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
        return _ndtr((float(x) - self.mean) / self.stddev)

    def quantile(self, u):
        if isinstance(u, float):
            return self.mean + self.stddev * _ndtri(float(u))
        transform = _normal_transform()
        if transform is None:
            from scipy.special import ndtri

            return self.mean + self.stddev * ndtri(u)
        u = np.ascontiguousarray(u, dtype=np.float64)
        x = np.empty_like(u)
        transform(u.size, u.ctypes.data, self.mean, self.stddev, x.ctypes.data)
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
    """Closed-form risk oracle for a supported model at level ``alpha``; a
    ValueError names the first quantity whose closed form overflows."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")

    def finite(name: str, method, *args) -> float:
        try:
            value = float(method(*args))
        except ArithmeticError:  # float ** raises OverflowError, / ZeroDivisionError
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{name} of {model} at alpha = {alpha!r} overflows float arithmetic")
        return value

    theta = finite("theta_alpha", model.quantile, alpha)
    vartheta = finite("vartheta_alpha", model.superquantile, alpha, theta)
    e1 = finite("tail first moment", model.tail_first_moment, theta)
    e2 = finite("tail second moment", model.tail_second_moment, theta)
    return RiskOracle(
        alpha=alpha,
        theta_alpha=theta,
        vartheta_alpha=vartheta,
        density_at_quantile=finite("density_at_quantile", model.pdf, theta),
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


# Cephes' normal cdf and its inverse (S. L. Moshier), the routines that
# scipy.special.ndtr and ndtri run, ported operation for operation with
# math.exp/log/sqrt, which are libm's, so each value equals scipy's bit for
# bit.  A numpy-ufunc port would not: np.log rounds differently from libm's
# log on some inputs where numpy vectorises it.  _normal.c holds the same
# ndtri for arrays.

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


_normal = _UNBUILT = object()
_normal_lock = threading.Lock()


def _normal_transform():
    """``normal_quantile(n, u, mean, sd, x)`` of the compiled ``_normal.c``,
    or None when it cannot be built.  It is built once per process, on the
    first array :meth:`Gaussian.quantile`, which engine workers can make
    concurrently."""
    global _normal
    with _normal_lock:
        if _normal is _UNBUILT:
            try:
                transform = build_library("_normal").normal_quantile
            except (OSError, subprocess.SubprocessError):
                transform = None
            else:
                i64, ptr, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
                transform.argtypes = [i64, ptr, dbl, dbl, ptr]
                transform.restype = None
            _normal = transform
    return _normal
