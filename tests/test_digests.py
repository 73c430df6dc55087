"""The engine's estimates, pinned by SHA-256: Uniform and Gaussian runs, warm
and cold, on one thread and on several, must keep their bits.

The digests hold wherever the C sources build and libm's ``pow`` (the step
table's gains) and ``log`` (the Gaussian tail) return the bits they return on
the host that pinned them, so each test first checks a sweep of those two and
skips, saying so, where it differs.  Exponential and Pareto stay out: their
transforms run numpy's ``log1p`` and ``power``, whose bits depend on the CPU
features numpy dispatches on.
"""

import hashlib
import math
import struct

import numpy as np
import pytest

import streamrisk as sr
from streamrisk.experiments import ExperimentConfig, run_experiment
from streamrisk.schedules import StepSchedule

FAST = StepSchedule(a1=1.0, a_exp=2 / 3, b1=1.0, b_exp=1.0)
SLOW = StepSchedule(a1=1.0, a_exp=0.6, b1=1.0, b_exp=0.75)
# Four sub-blocks of lanes; the last checkpoint lies past the first 4096-step chunk.
N_GRID = (10, 100, 5000)
REPLICATES = 3 * 32 + 5

MODELS = {
    "uniform": (sr.Uniform(0.0, 1.0), 0.5, FAST),
    "gaussian": (sr.Gaussian(0.0, 1.0), 0.9, SLOW),
}

DIGESTS = {
    ("uniform", False): "19e2b10d9938045242316cae5399079e24ff8d568776c60ccacb5d18e2b32384",
    ("uniform", True): "3453a728f9cc3d4f1bcfafa6cc82aa514aacb2b166fef3505b2498aa433577f0",
    ("gaussian", False): "7a1defc6a3e622a382e35024b55ed7c7b6de139475216b5b2aa125e4f2a1278d",
    ("gaussian", True): "9711bc84ab6e05c3c4637fa01a4e96ef820528bbfe1ca5693f0cc83edc37cc85",
}

# The bits of pow for every gain the runs above take, and of the two logs of
# the Gaussian tail, log(y) and log(sqrt(-2 log y)), over y from 2**-999 to 1/4.
LIBM_DIGEST = "4365947879dff972e21b754d771284977d0bc61031d4cb259969159673129b4d"


def _libm_digest() -> str:
    h = hashlib.sha256()
    for sched in (FAST, SLOW):
        for n in range(1, N_GRID[-1] + 2):
            h.update(struct.pack("<2d", math.pow(float(n), -sched.a_exp), math.pow(float(n), -sched.b_exp)))
    for e in range(3, 1000, 3):
        for j in range(0, 64, 8):
            y = math.ldexp(1.0 + j / 64, -e)
            x = math.sqrt(-2.0 * math.log(y))
            h.update(struct.pack("<2d", math.log(y), math.log(x)))
    return h.hexdigest()


def _estimates_digest(estimates: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for key in sorted(estimates):
        h.update(key.encode())
        h.update(np.ascontiguousarray(estimates[key], dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_estimates_keep_their_digest(kind, warm, threads):
    if _libm_digest() != LIBM_DIGEST:
        pytest.skip("this libm's pow or log returns other bits than the host that pinned the digests")
    model, alpha, schedule = MODELS[kind]
    config = ExperimentConfig(
        model=model, alpha=alpha, schedule=schedule, n_grid=N_GRID,
        replicates=REPLICATES, master_seed=20240817, warm_start=warm,
    )
    assert _estimates_digest(run_experiment(config, threads=threads).estimates) == DIGESTS[kind, warm]
