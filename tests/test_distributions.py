import math

import numpy as np
import pytest

from streamrisk.distributions import (
    Exponential,
    Gaussian,
    Pareto,
    Uniform,
    ZERO_DRAW,
    numeric_oracle,
    oracle,
    sample,
    substream,
)
from streamrisk.experiments import _draws

ALL_MODELS = [
    Uniform(0.0, 1.0),
    Exponential(1.0),
    Gaussian(0.0, 1.0),
    Gaussian(2.0, 3.0),
    Pareto(1.0, 3.0),
    Pareto(1.0, 2.2),
]

ALPHA_GRID = (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


class TestClosedFormOracle:
    def test_uniform_midpoint(self):
        o = oracle(Uniform(0.0, 1.0), 0.5)
        assert o.theta_alpha == 0.5
        assert o.vartheta_alpha == 0.75
        assert o.density_at_quantile == 1.0
        assert o.v_alpha == pytest.approx(7 / 24 - 9 / 64, rel=1e-14)

    def test_exponential_tail(self):
        o = oracle(Exponential(1.0), 0.9)
        assert o.theta_alpha == pytest.approx(math.log(10.0), rel=1e-14)
        assert o.vartheta_alpha == pytest.approx(math.log(10.0) + 1.0, rel=1e-14)
        assert o.density_at_quantile == pytest.approx(0.1, rel=1e-12)

    def test_pareto_superquantile_ratio(self):
        o = oracle(Pareto(1.0, 3.0), 0.9)
        assert o.vartheta_alpha / o.theta_alpha == pytest.approx(1.5, rel=1e-15)

    def test_gaussian_quantile(self):
        o = oracle(Gaussian(0.0, 1.0), 0.95)
        assert o.theta_alpha == pytest.approx(1.6448536269514722, rel=1e-12)
        assert o.vartheta_alpha == pytest.approx(2.0627128075074257, rel=1e-12)

    def test_alpha_domain(self):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0,1\)"):
            oracle(Uniform(0.0, 1.0), 1.5)
        with pytest.raises(ValueError):
            numeric_oracle(Uniform(0.0, 1.0), 0.0)

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            Gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            Exponential(-1.0)
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            Pareto(1.0, 2.0)


def _assert_oracles_agree(model, alpha):
    closed = oracle(model, alpha)
    numeric = numeric_oracle(model, alpha)
    for field in ("theta_alpha", "vartheta_alpha", "density_at_quantile", "v_alpha"):
        assert _rel(getattr(closed, field), getattr(numeric, field)) < 1e-8, field


class TestNumericOracleAgreement:
    def test_uniform_linear_cdf(self):
        o = numeric_oracle(Uniform(0.0, 1.0), 0.25)
        assert abs(o.theta_alpha - 0.25) < 1e-12

    # Pareto shapes just above 2, where x^2 f(x) decays slowest; models whose
    # spread is far from max(1, |theta|); Pareto tails whose x^(-shape-1) turns
    # subnormal; and quantiles 1e-4 below Uniform's top.
    @pytest.mark.parametrize(
        "model",
        ALL_MODELS
        + [Pareto(1.0, k) for k in (2.01, 2.05, 2.1)]
        + [Gaussian(1e6, 10.0), Gaussian(-50.0, 0.1), Exponential(1e6)]
        + [Pareto(1e100, 2.2), Pareto(1e100, 2.01)],
        ids=str,
    )
    @pytest.mark.parametrize("alpha", ALPHA_GRID + (0.9999,))
    def test_componentwise_agreement(self, model, alpha):
        _assert_oracles_agree(model, alpha)

    # Narrow models far from 0, where moments about 0 cancel: at the small
    # alpha, v_alpha = e2 - e1^2 is about 4e-6 of e2.  Moments about 0 read
    # the Uniform's v_alpha 1.9% low.
    @pytest.mark.parametrize(
        "model, alpha",
        [
            (Gaussian(-35232.2, 4e-4), 3.78e-6),
            (Gaussian(-523581.07343374286, 0.00015423031483910525), 0.3457830769015436),
            (Uniform(-14311438.34151228, -14311438.327200841), 1.7098424266984954e-06),
        ],
        ids=str,
    )
    def test_componentwise_agreement_narrow_model_far_from_zero(self, model, alpha):
        _assert_oracles_agree(model, alpha)

    def test_uniform_v_alpha_exact_integrals(self):
        # int_{1/2}^1 x^2 dx - (int_{1/2}^1 x dx)^2 = 7/24 - 9/64
        o = numeric_oracle(Uniform(0.0, 1.0), 0.5)
        assert o.v_alpha == pytest.approx(7 / 24 - 9 / 64, rel=1e-10)


class TestOracleProperties:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=str)
    def test_monotone_in_alpha(self, model):
        thetas = [oracle(model, a).theta_alpha for a in ALPHA_GRID]
        varthetas = [oracle(model, a).vartheta_alpha for a in ALPHA_GRID]
        assert all(x < y for x, y in zip(thetas, thetas[1:]))
        assert all(x < y for x, y in zip(varthetas, varthetas[1:]))

    @pytest.mark.parametrize("model", ALL_MODELS, ids=str)
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_domination_and_nonnegative_variance(self, model, alpha):
        o = oracle(model, alpha)
        assert o.vartheta_alpha >= o.theta_alpha
        assert o.v_alpha >= 0.0

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_gaussian_affine_equivariance(self, alpha):
        base = oracle(Gaussian(0.0, 1.0), alpha)
        shifted = oracle(Gaussian(2.0, 3.0), alpha)
        assert shifted.theta_alpha == pytest.approx(2.0 + 3.0 * base.theta_alpha, rel=1e-12)
        assert shifted.vartheta_alpha == pytest.approx(2.0 + 3.0 * base.vartheta_alpha, rel=1e-12)


class TestSampling:
    def test_uniform_range_and_determinism(self):
        m = Uniform(0.0, 1.0)
        x1 = sample(m, substream(7, 0, 0))
        x2 = sample(m, substream(7, 0, 0))
        assert 0.0 <= x1 < 1.0
        assert x1 == x2
        assert sample(m, substream(7, 0, 1)) != x1

    def test_exponential_law_of_large_numbers(self):
        draws = _draws(Exponential(1.0), [substream(123, 0, 0)], np.empty((10**6, 1)), 0, 0)
        assert abs(draws.mean() - 1.0) < 0.005

    def test_pareto_law_of_large_numbers(self):
        draws = _draws(Pareto(1.0, 3.0), [substream(123, 0, 1)], np.empty((10**6, 1)), 0, 0)
        assert abs(draws.mean() - 1.5) < 0.01

    @pytest.mark.parametrize("m", ALL_MODELS, ids=repr)
    def test_block_draws_match_scalar_draws(self, m):
        # The engine's draws, two lanes (columns) at once, against repeated
        # scalar draws.
        block = _draws(m, [substream(99, 3, r) for r in (5, 6)], np.empty((2000, 2)), 5, 0)
        for lane, r in enumerate((5, 6)):
            rng = substream(99, 3, r)
            assert np.array_equal(block[:, lane], [sample(m, rng) for _ in range(2000)])

    def test_chunked_generation_matches_unchunked(self):
        for m in ALL_MODELS:
            rng, reference = substream(5, 0, 0), substream(5, 0, 0)
            chunked = np.concatenate([_draws(m, [rng], np.empty((size, 1)), 0, 0)[:, 0] for size in (10, 22)])
            assert np.array_equal(chunked, [sample(m, reference) for _ in range(32)]), m

    def test_zero_draw_is_read_as_zero_draw_constant(self):
        class ZeroRng:
            def random(self, size=None, out=None):
                if out is None:
                    return np.zeros(size)
                out.fill(0.0)
                return out

        m = Gaussian(1.0, 2.0)
        expected = float(m.quantile(ZERO_DRAW))
        assert math.isfinite(expected) and not math.isfinite(m.quantile(0.0))
        assert sample(m, ZeroRng()) == expected
        assert np.array_equal(_draws(m, [ZeroRng()], np.empty((3, 1)), 0, 0), np.full((3, 1), expected))
        assert sample(Exponential(1.0), ZeroRng()) == 0.0

    @pytest.mark.parametrize("m", ALL_MODELS, ids=repr)
    def test_quantile_into_out_equals_quantile(self, m):
        # The engine transforms into a buffer it reuses: quantile(u, out=x)
        # must return x, holding quantile(u)'s bits, ends of the draws' range
        # included.
        u = np.concatenate([[0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53], substream(4, 0, 0).random(4093)]).reshape(4097, 1)
        x = np.full_like(u, np.nan)
        with np.errstate(divide="ignore"):
            assert m.quantile(u, out=x) is x
            assert np.array_equal(x.view(np.uint64), np.asarray(m.quantile(u)).view(np.uint64))
