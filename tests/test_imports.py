"""Which scipy modules each command loads, checked in fresh interpreters.

scipy's import costs several times a small run's engine time, so no run on any
model loads it: the Gaussian model's ``ndtr``/``ndtri`` are ports of scipy's
own routines.  Only the ``oracle`` command loads ``scipy.integrate``, for its
quadrature column.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.special import ndtri

import streamrisk
from streamrisk.distributions import ZERO_DRAW
from streamrisk.tables import read_csv

SRC = str(Path(streamrisk.__file__).resolve().parent.parent)

# Runs the body in a fresh interpreter, then prints the body's ``result`` and
# the scipy modules loaded as one JSON line.
PRELUDE = """\
import json, sys
from streamrisk import cli
result = None
"""
EPILOGUE = """
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"result": result, "scipy": loaded}))
"""

CFG = """\
dist = {dist}
alpha = 0.9
a1 = 1.0
a = 0.6666666666666666
b1 = 1.0
b = 1.0
n_grid = 100,400
replicates = 40
master_seed = 3
warm_start = {warm}
"""


def _fresh(body: str) -> tuple[object, set[str]]:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body + EPILOGUE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["result"], set(out["scipy"])


def _run_cli(tmp_path, command: str, dist: str, warm: bool = True) -> set[str]:
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(CFG.format(dist=dist, warm=str(warm).lower()))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / command)]
    code, loaded = _fresh(f"result = cli.main({argv!r})\n")
    assert code == 0
    return loaded


def test_import_loads_no_scipy():
    _, loaded = _fresh("import streamrisk\n")
    assert loaded == set()


@pytest.mark.parametrize(
    "command, dist",
    [("rates", "exponential rate=1.0"), ("compare", "pareto scale=1 shape=2.2")],
)
def test_runs_on_other_models_load_no_scipy(tmp_path, command, dist):
    assert _run_cli(tmp_path, command, dist) == set()


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("command, output", [("clt", "clt.csv"), ("rates", "mse.csv")])
def test_gaussian_runs_load_no_scipy(tmp_path, command, output, warm):
    # A cold start draws each replicate's theta_0 through quantile before the
    # first chunk; a warm one reads the closed-form oracle.
    assert _run_cli(tmp_path, command, "gaussian mean=0 stddev=1", warm) == set()
    assert (tmp_path / command / output).exists()


def test_gaussian_setup_loads_no_scipy(tmp_path):
    cfg = tmp_path / "setup.cfg"
    cfg.write_text(CFG.format(dist="gaussian mean=0.5 stddev=2", warm="true"))
    body = f"""\
from streamrisk import config, distributions
cfg = config.load_experiment_config({str(cfg)!r})
result = distributions.oracle(cfg.model, cfg.alpha).theta_alpha
"""
    theta, loaded = _fresh(body)
    assert theta == 0.5 + 2.0 * float(ndtri(0.9))
    assert loaded == set()


def test_gaussian_zero_draw_in_fresh_interpreter():
    body = """\
import numpy as np
from streamrisk.distributions import Gaussian, sample

class ZeroRng:
    def random(self, size=None):
        return np.zeros(size)

result = sample(Gaussian(1.0, 2.0), ZeroRng())
"""
    x, loaded = _fresh(body)
    assert math.isfinite(x)
    assert x == 1.0 + 2.0 * float(ndtri(ZERO_DRAW))
    assert loaded == set()


def test_oracle_command_works_for_every_model(tmp_path):
    dists = ["uniform:0,1", "exponential:1.5", "pareto:1,3", "gaussian:0,1"]
    argvs = [
        ["oracle", "--dist", d, "--alpha", "0.9", "--out", str(tmp_path / str(i))]
        for i, d in enumerate(dists)
    ]
    codes, loaded = _fresh(f"result = [cli.main(a) for a in {argvs!r}]\n")
    assert codes == [0, 0, 0, 0]
    assert "scipy.integrate" in loaded
    for i in range(len(dists)):
        _, header, rows = read_csv(tmp_path / str(i) / "oracle.csv")
        closed = dict(zip(header[1:], map(float, rows[0][1:])))
        quadrature = dict(zip(header[1:], map(float, rows[1][1:])))
        for key in ("theta_alpha", "vartheta_alpha"):
            assert quadrature[key] == pytest.approx(closed[key], rel=1e-8), (dists[i], key)
