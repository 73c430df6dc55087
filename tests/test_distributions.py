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
    sample_array,
    substream,
)

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


class TestNumericOracleAgreement:
    def test_uniform_linear_cdf(self):
        o = numeric_oracle(Uniform(0.0, 1.0), 0.25)
        assert abs(o.theta_alpha - 0.25) < 1e-12

    @pytest.mark.parametrize("model", ALL_MODELS, ids=str)
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_componentwise_agreement(self, model, alpha):
        closed = oracle(model, alpha)
        numeric = numeric_oracle(model, alpha)
        for field in ("theta_alpha", "vartheta_alpha", "density_at_quantile", "v_alpha"):
            assert _rel(getattr(closed, field), getattr(numeric, field)) < 1e-8, field

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
        draws = sample_array(Exponential(1.0), substream(123, 0, 0), 10**6)
        assert abs(draws.mean() - 1.0) < 0.005

    def test_pareto_law_of_large_numbers(self):
        draws = sample_array(Pareto(1.0, 3.0), substream(123, 0, 1), 10**6)
        assert abs(draws.mean() - 1.5) < 0.01

    @pytest.mark.parametrize("m", ALL_MODELS, ids=repr)
    def test_block_draws_match_scalar_draws(self, m):
        block = sample_array(m, substream(99, 3, 5), 2000)
        rng = substream(99, 3, 5)
        singles = np.array([sample(m, rng) for _ in range(2000)])
        assert np.array_equal(block, singles)

    def test_chunked_generation_matches_unchunked(self):
        m = Exponential(0.5)
        rng = substream(5, 0, 0)
        a = np.concatenate([sample_array(m, rng, 10), sample_array(m, rng, 22)])
        b = sample_array(m, substream(5, 0, 0), 32)
        assert np.array_equal(a, b)

    def test_zero_draw_is_read_as_zero_draw_constant(self):
        class ZeroRng:
            def random(self, size=None):
                return 0.0 if size is None else np.zeros(size)

        m = Gaussian(1.0, 2.0)
        expected = float(m.quantile(ZERO_DRAW))
        assert math.isfinite(expected) and not math.isfinite(m.quantile(0.0))
        assert sample(m, ZeroRng()) == expected
        assert np.array_equal(sample_array(m, ZeroRng(), 3), np.full(3, expected))
        assert sample(Exponential(1.0), ZeroRng()) == 0.0

    def test_substream_rejects_negative_components(self):
        with pytest.raises(ValueError):
            substream(-1, 0, 0)
