import numpy as np
import pytest

from streamrisk.asymptotics import clt_covariance_fast
from streamrisk.distributions import RiskOracle


@pytest.fixture
def random_admissible():
    """``random_admissible(count, seed)``: ``count`` random (oracle, b1) pairs
    whose fast-regime covariance is admissible."""

    def draw(count, seed):
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < count:
            alpha = rng.uniform(0.05, 0.95)
            theta = rng.uniform(0.1, 4.0)
            vartheta = theta * rng.uniform(1.01, 3.0)
            o = RiskOracle(
                alpha=alpha,
                theta_alpha=theta,
                vartheta_alpha=vartheta,
                density_at_quantile=rng.uniform(0.05, 2.0),
                v_alpha=rng.uniform(0.01, 10.0),
            )
            b1 = rng.uniform(0.51, 1.5)
            try:
                clt_covariance_fast(o, b1)
            except ValueError:
                continue
            out.append((o, b1))
        return out

    return draw
