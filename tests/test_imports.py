"""Every command runs in one fresh interpreter that blocks scipy's import:
numpy is the only runtime dependency, and scipy a reference for the tests.
Importing the CLI loads no module that only worker threads or library builds use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.special import ndtri

import streamrisk
from streamrisk.distributions import ZERO_DRAW
from streamrisk.tables import read_csv

# A None entry in sys.modules makes every import of scipy raise ImportError.
BLOCKED = """\
import json, sys
sys.modules["scipy"] = None
import numpy as np
from streamrisk import cli
from streamrisk.distributions import Gaussian, sample

class ZeroRng:
    def random(self, size=None):
        return np.zeros(size)

codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "zero_draw": sample(Gaussian(1.0, 2.0), ZeroRng())}))
"""

# A cold start draws each replicate's theta_0 through quantile before the
# first chunk; a warm one reads the closed-form oracle.
CFG = """\
dist = gaussian mean=0 stddev=1
alpha = 0.9
a1 = 1.0
a = 0.6666666666666666
b1 = 1.0
b = 1.0
n_grid = 100,400
replicates = 40
master_seed = 3
warm_start = {}
"""


def test_every_command_runs_without_scipy(tmp_path):
    dists = ["uniform:0,1", "exponential:1.5", "pareto:1,3", "gaussian:0,1"]
    argvs = [["oracle", "--dist", d, "--alpha", "0.9", "--out", str(tmp_path / d)] for d in dists]
    argvs.append(["asymptotics", "--dist", "gaussian:0,1", "--alpha", "0.9", "--a", "0.6", "--b", "1"])
    for warm in ("true", "false"):
        (tmp_path / f"{warm}.cfg").write_text(CFG.format(warm))
        for command in ("rates", "clt", "compare"):
            argvs.append([command, "--config", str(tmp_path / f"{warm}.cfg"), "--out", str(tmp_path / warm)])
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED, json.dumps(argvs)], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(Path(streamrisk.__file__).resolve().parent.parent)),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0] * len(argvs)
    assert out["zero_draw"] == 1.0 + 2.0 * float(ndtri(ZERO_DRAW))
    assert {p.name for p in (tmp_path / "false").iterdir()} >= {"mse.csv", "clt.csv", "compare.csv"}
    for d in dists:
        _, header, rows = read_csv(tmp_path / d / "oracle.csv")
        for key, closed, quadrature in zip(header[1:5], rows[0][1:], rows[1][1:]):
            assert float(quadrature) == pytest.approx(float(closed), rel=1e-8), (d, key)


def test_cli_import_loads_neither_threads_nor_compiler_modules():
    # A run imports concurrent.futures only to start workers, and _native
    # imports subprocess only to build a library.
    probe = "import sys, streamrisk.cli; print(sorted({'concurrent.futures', 'subprocess'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(streamrisk.__file__).resolve().parent.parent)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
