"""Time streamrisk's set-up in a fresh interpreter and print it as JSON.

Set-up is the import of ``streamrisk.cli``, the parse of the experiment
config and the closed-form ``distributions.oracle``.  Interpreter start-up is
not included.  Run with ``src`` on ``PYTHONPATH``:

    PYTHONPATH=src python3 bench/setup_probe.py CONFIG
"""

import json
import sys
import time

t0 = time.perf_counter()
import streamrisk.cli  # noqa: E402,F401
from streamrisk import config, distributions  # noqa: E402

t1 = time.perf_counter()
cfg = config.load_experiment_config(sys.argv[1])
t2 = time.perf_counter()
distributions.oracle(cfg.model, cfg.alpha)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_load_s": t2 - t1, "oracle_s": t3 - t2}))
