"""Self-tests of the benchmark's own checks: each check passes on good output
and catches a planted error.  Run with ``src`` on ``PYTHONPATH``:

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
from checks import CheckError
from workloads import WORKLOADS, exponential_truth, gaussian_truth, pareto_truth

streamrisk = pytest.importorskip("streamrisk")
from streamrisk import estimators, experiments, svgplot, tables  # noqa: E402


def _engine_and_rows(lane=1):
    cfg = experiments.ExperimentConfig(
        model=streamrisk.Gaussian(0.0, 1.0),
        alpha=0.9,
        schedule=streamrisk.StepSchedule(1.0, 2 / 3, 1.0, 1.0),
        n_grid=(5, 50, 300),
        replicates=3,
        master_seed=7,
        warm_start=True,
    )
    res = experiments.run_experiment(cfg)
    x = cfg.model.quantile(streamrisk.substream(7, 0, lane).random(cfg.n_grid[-1])).tolist()
    state = estimators.init(cfg.alpha, cfg.schedule, res.oracle.theta_alpha, res.oracle.vartheta_alpha)
    _, rows = estimators.run_stream(state, x, checkpoints=cfg.n_grid)
    return res.estimates, rows, cfg.n_grid


def test_lane_identity_holds_on_the_engine_and_catches_one_ulp():
    est, rows, grid = _engine_and_rows()
    checks.lane_identity(est, 1, rows, grid)
    est["classical"][1, 1] = np.nextafter(est["classical"][1, 1], np.inf)
    with pytest.raises(CheckError, match="classical"):
        checks.lane_identity(est, 1, rows, grid)


def test_truth_check_catches_a_shift_of_a_few_standard_errors():
    values = np.random.default_rng(3).normal(2.0, 0.1, size=1000)
    checks.truth(values, 2.0, "unshifted")
    with pytest.raises(CheckError, match="from truth"):
        checks.truth(values + 2 * 0.1, 2.0, "shifted by two standard errors")


def _write_csv(path: Path, n_rows: int) -> None:
    tables.write_csv(path, ["n", "mse"], [[n, 1.0 / n] for n in range(1, n_rows + 1)], ["test"])


@pytest.mark.parametrize("cut", ["line", "mid-line"])
def test_artifact_check_catches_a_truncated_csv(tmp_path, cut):
    path = tmp_path / "mse.csv"
    _write_csv(path, 4)
    checks.csv_table(tables.read_csv, path, ["n", "mse"], 4)
    text = path.read_text()
    path.write_text(text[: text.rindex("\n", 0, -1) + 1] if cut == "line" else text[:-6])
    with pytest.raises(CheckError):
        checks.csv_table(tables.read_csv, path, ["n", "mse"], 4)


def test_svg_check_catches_a_truncated_file(tmp_path):
    path = tmp_path / "plot.svg"
    svgplot.loglog_plot(path, [("a", [1, 10, 100], [1.0, 0.1, 0.01], False)], "t", "x", "y")
    checks.svg(path)
    path.write_text(path.read_text()[:-20])
    with pytest.raises(CheckError):
        checks.svg(path)


def test_property_checks_catch_violations():
    checks.covariance(np.array([[2.0, 1.0], [1.0, 2.0]]), "ok")
    with pytest.raises(CheckError, match="symmetric"):
        checks.covariance(np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]]), "asym")
    with pytest.raises(CheckError, match="semidefinite"):
        checks.covariance(np.array([[1.0, 2.0], [2.0, 1.0]]), "indefinite")
    checks.ci_brackets(1.0, 0.9, 1.1, "ok")
    with pytest.raises(CheckError):
        checks.ci_brackets(1.2, 0.9, 1.1, "outside")
    est = np.array([[1.5, 2.5], [1.9, 2.1]])
    checks.mse_falls(est, 2.0, "ok")
    with pytest.raises(CheckError):
        checks.mse_falls(est[::-1], 2.0, "rising")


def test_closed_form_truths_match_the_numeric_oracle():
    cases = [
        (streamrisk.Gaussian(0.0, 1.0), gaussian_truth(0.0, 1.0, 0.9)),
        (streamrisk.Exponential(1.0), exponential_truth(1.0, 0.9)),
        (streamrisk.Pareto(1.0, 2.2), pareto_truth(1.0, 2.2, 0.9)),
    ]
    for model, (theta, vartheta) in cases:
        checks.oracle_agrees(streamrisk.numeric_oracle(model, 0.9), theta, vartheta, 1e-8, str(model))


def test_self_time_subtracts_the_union_of_children():
    sp = [
        {"id": 1, "name": "experiments.run_experiment", "start": 0, "end": 100, "parent": 0},
        {"id": 2, "name": "distributions.random", "start": 10, "end": 30, "parent": 1},
        {"id": 3, "name": "distributions.random", "start": 20, "end": 40, "parent": 1},  # other thread
        {"id": 4, "name": "distributions.quantile", "start": 90, "end": 120, "parent": 1},
    ]
    assert spans.self_times(sp) == {1: 100 - 30 - 10, 2: 20, 3: 20, 4: 30}
    assert spans.layer_self_ns(sp) == {"experiments": 60, "distributions": 70}


def test_tracer_nests_worker_thread_spans_under_the_open_span():
    tracer = spans.Tracer()
    work = tracer.wrap("distributions.random", lambda: None)
    with tracer.span("experiments.run_experiment"):
        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=10)
    assert not t.is_alive()
    child, parent = tracer.spans
    assert child["parent"] == parent["id"]


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert math.isclose(max(m["bound"] for m in doc["end_to_end"]),
                        next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s"))
