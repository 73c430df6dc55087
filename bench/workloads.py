"""The benchmark's workloads: experiment configs made from a seed, and the
closed-form truths their estimates are checked against.

The truths are computed here, apart from ``streamrisk.distributions``, so a
wrong oracle in the program cannot hide a wrong estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

A_EXP = "0.6666666666666666"  # a = 2/3, as in the repository's fast-regime configs


def gaussian_truth(mean: float, stddev: float, alpha: float) -> tuple[float, float]:
    """Quantile and superquantile of N(mean, stddev^2): Phi^-1 and the tail mean."""
    unit = NormalDist()
    z = unit.inv_cdf(alpha)
    return mean + stddev * z, mean + stddev * unit.pdf(z) / (1.0 - alpha)


def exponential_truth(rate: float, alpha: float) -> tuple[float, float]:
    theta = -math.log1p(-alpha) / rate
    return theta, theta + 1.0 / rate


def pareto_truth(scale: float, shape: float, alpha: float) -> tuple[float, float]:
    theta = scale * (1.0 - alpha) ** (-1.0 / shape)
    return theta, theta * shape / (shape - 1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # streamrisk subcommand
    dist: str  # distribution spec in config-file form
    alpha: float
    b1: float
    n_grid: tuple[int, ...]
    replicates: int
    replay_lanes: tuple[int, ...]  # lanes replayed through estimators.run_stream every round
    truth: Callable[[], tuple[float, float]]  # (theta_alpha, vartheta_alpha)
    experiment_id: int
    # Thread count of an extra, untimed run on a prefix of the replicates that
    # must equal the timed single-thread run; 0 for none.
    check_threads: int = 0

    @property
    def lane_steps(self) -> int:
        return self.replicates * self.n_grid[-1]

    def config_text(self, master_seed: int) -> str:
        return "\n".join(
            [
                f"# benchmark workload {self.name}",
                f"dist = {self.dist}",
                f"alpha = {self.alpha!r}",
                "a1 = 1.0",
                f"a = {A_EXP}",
                f"b1 = {self.b1!r}",
                "b = 1.0",
                "n_grid = " + ",".join(str(n) for n in self.n_grid),
                f"replicates = {self.replicates}",
                f"master_seed = {master_seed}",
                "warm_start = true",
                "variants = embedded,classical,bardou",
                f"experiment_id = {self.experiment_id}",
                "",
            ]
        )


def master_seed(seed: int) -> int:
    """The experiment's master seed for benchmark seed ``seed``."""
    return int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])


WORKLOADS = {
    w.name: w
    for w in (
        # Per-lane work dominates: PCG64 draws, the costliest inverse cdf
        # (ndtri) and the recursion's ufunc inner loops over 2000 lanes.
        Workload(
            name="clt_gauss_wide",
            command="clt",
            dist="gaussian mean=0 stddev=1",
            alpha=0.9,
            b1=1.0,
            n_grid=(2000, 6325, 20000),
            replicates=2000,
            replay_lanes=tuple(range(0, 2000, 125)) + (1999,),
            truth=lambda: gaussian_truth(0.0, 1.0, 0.9),
            experiment_id=1,
        ),
        # Per-step Python overhead dominates: gains, ~25 ufunc dispatches and
        # the checkpoint test per step, on 4 lanes only.
        Workload(
            name="rates_narrow_long",
            command="rates",
            dist="exponential rate=1.0",
            alpha=0.9,
            b1=1.0,
            n_grid=(100, 1000, 10000, 100000),
            replicates=4,
            replay_lanes=(0, 1, 2, 3),
            truth=lambda: exponential_truth(1.0, 0.9),
            experiment_id=2,
        ),
        # Heavy-tail transform (pow) and the jackknife ratio aggregation.  The
        # thread pool is checked (threads = 2 against 1) but timed with one
        # thread: two threads gain nothing, the second waits on the GIL.
        Workload(
            name="compare_pareto_t2",
            command="compare",
            dist="pareto scale=1 shape=2.2",
            alpha=0.9,
            b1=0.55,
            n_grid=(1000, 3000, 10000, 30000),
            replicates=1000,
            replay_lanes=tuple(sorted({*range(0, 1000, 100), 499, 500, 999})),
            truth=lambda: pareto_truth(1.0, 2.2, 0.9),
            experiment_id=3,
            check_threads=2,
        ),
    )
}
