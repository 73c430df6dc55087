"""Benchmark of the streamrisk experiment commands.

    python3 bench/run.py --workload clt_gauss_wide --seed 1 --seconds 25 --trace 0

Builds the workload's experiment config from ``--seed``, times five fresh
set-ups, then runs the experiment command through ``streamrisk.cli.main``
round after round for ``--seconds``.  Every round replays some lanes through
``estimators.run_stream`` and is checked (see checks.py).  The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed`` rounds,
and the end-to-end metrics, or with ``--trace 1`` the per-layer metrics from
spans recorded around the program's calls (see spans.py and README.md).
Outputs go to bench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans
from checks import CheckError
from workloads import WORKLOADS, Workload, master_seed

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5

END_TO_END = {
    "wall_s": "s",
    "lane_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "experiments.run_experiment.ns_per_lane_step": "ns",
    "experiments.recursion.self_ns_per_lane_step": "ns",
    "experiments.run_experiment.cpu_s": "s",
    "experiments.run_experiment.cpu_per_wall": "s/s",
    "experiments.aggregate_ms": "ms",
    "distributions.random.ns_per_draw": "ns",
    "distributions.random.calls": "count",
    "distributions.quantile.ns_per_draw": "ns",
    "distributions.quantile.calls": "count",
    "distributions.substream.us_per_replicate": "us",
    "schedules.gain.calls": "count",
    "schedules.gain.ns_per_call": "ns",
    "estimators.step.ns_per_obs": "ns",
    "estimators.run_stream.obs_per_s": "1/s",
    "config.load_ms": "ms",
    "distributions.oracle_ms": "ms",
    "import_s": "s",
    "asymptotics.ms": "ms",
    "tables.write_ms": "ms",
    "tables.bytes_written": "bytes",
    "svgplot.write_ms": "ms",
    "svgplot.bytes_written": "bytes",
    "cli.self_ms": "ms",
    "tracing_overhead_s": "s",
}
AGGREGATE = {"experiments.mse_curve", "experiments.fit_rate", "experiments.empirical_clt_cov",
             "experiments.compare_variants"}


def probe_setup(src: Path, cfg_path: Path) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(cfg_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class EngineProbe:
    """Stands in for ``cli.run_experiment``: times the engine and keeps its result."""

    def __init__(self, real, tracer: spans.Tracer | None) -> None:
        self.real = real
        self.tracer = tracer
        self.seconds = 0.0
        self.result = None

    def __call__(self, config, threads=1):
        t0 = time.perf_counter()
        if self.tracer is None:
            result = self.real(config, threads)
        else:
            cpu0 = time.process_time()
            with self.tracer.span("experiments.run_experiment") as attrs:
                result = self.real(spans.engine_config(config, self.tracer), threads)
                attrs["cpu_s"] = time.process_time() - cpu0
            result.config = config
        self.seconds = time.perf_counter() - t0
        self.result = result
        return result


@dataclass
class Round:
    wall_s: float
    engine_s: float
    replay_s: float
    result: object
    rows: dict[int, list]


class Bench:
    def __init__(self, wl: Workload, sr: dict, cfg_path: Path, out: Path) -> None:
        self.wl, self.sr = wl, sr
        self.cfg = sr["config"].load_experiment_config(cfg_path)
        if not self.cfg.warm_start:
            raise ValueError("the lane replay assumes warm-started workloads")
        self.oracle = sr["distributions"].oracle(self.cfg.model, self.cfg.alpha)
        self.artifacts = out / "artifacts"
        self.argv = [wl.command, "--config", str(cfg_path), "--out", str(self.artifacts),
                     "--threads", "1"]
        self.log_path = out / "cli.log"
        n_total = self.cfg.n_grid[-1]
        self.observations = {}
        for lane in wl.replay_lanes:
            rng = sr["distributions"].substream(self.cfg.master_seed, self.cfg.experiment_id, lane)
            self.observations[lane] = np.asarray(self.cfg.model.quantile(rng.random(n_total))).tolist()
        self.replay_obs = n_total * len(wl.replay_lanes)
        self.first_bytes: dict[str, bytes] = {}

    def replay(self, lane: int) -> list:
        est = self.sr["estimators"]
        state = est.init(self.cfg.alpha, self.cfg.schedule, self.oracle.theta_alpha, self.oracle.vartheta_alpha)
        _, rows = est.run_stream(state, self.observations[lane], checkpoints=self.cfg.n_grid)
        return rows

    def round(self, tracer: spans.Tracer | None = None) -> Round | None:
        cli = self.sr["cli"]
        probe = EngineProbe(cli.run_experiment, tracer)
        instrumented = spans.instrument(tracer, self.sr) if tracer else contextlib.nullcontext()
        traced = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        with instrumented:
            cli.run_experiment = probe
            try:
                with open(self.log_path, "a") as log, contextlib.redirect_stdout(log):
                    t0 = time.perf_counter()
                    with traced("cli.main"):
                        rc = cli.main(self.argv)
                    wall = time.perf_counter() - t0
            finally:
                cli.run_experiment = probe.real
            if rc != 0:
                return None
            t0 = time.perf_counter()
            with traced("estimators.run_stream"):
                rows = {lane: self.replay(lane) for lane in self.wl.replay_lanes}
            replay_s = time.perf_counter() - t0
        return Round(wall, probe.seconds, replay_s, probe.result, rows)

    def check_every_round(self, rnd: Round) -> None:
        for lane, rows in rnd.rows.items():
            checks.lane_identity(rnd.result.estimates, lane, rows, self.cfg.n_grid)
        for name, data in self.first_bytes.items():
            checks.same_bytes(self.artifacts / name, data)

    def check_first_round(self, rnd: Round) -> None:
        sr, wl, cfg = self.sr, self.wl, self.cfg
        theta, vartheta = wl.truth()
        checks.oracle_agrees(self.oracle, theta, vartheta, 1e-12, "distributions.oracle")
        numeric = sr["distributions"].numeric_oracle(cfg.model, cfg.alpha)
        checks.oracle_agrees(numeric, theta, vartheta, 1e-8, "distributions.numeric_oracle")
        est = rnd.result.estimates
        checks.truth(est["theta_bar"][-1], theta, f"theta_bar at n = {cfg.n_grid[-1]}")
        for key in cfg.variants:
            checks.truth(est[key][-1], vartheta, f"{key} at n = {cfg.n_grid[-1]}")
            checks.mse_falls(est[key], vartheta, key)
        self.check_every_round(rnd)
        getattr(self, f"check_{wl.command}")(rnd, theta, vartheta)
        if wl.check_threads:
            prefix = wl.replicates // 2 + 2
            threaded = sr["experiments"].run_experiment(
                dataclasses.replace(cfg, replicates=prefix), threads=wl.check_threads).estimates
            checks.same_estimates(threaded, {k: v[:, :prefix] for k, v in est.items()},
                                  f"threads={wl.check_threads} vs threads=1 on replicates 0..{prefix - 1}")
        self.first_bytes = {p.name: p.read_bytes() for p in sorted(self.artifacts.iterdir())}

    def _csv(self, name, header, n_rows):
        return checks.csv_table(self.sr["tables"].read_csv, self.artifacts / name, header, n_rows)

    def check_rates(self, rnd: Round, theta: float, vartheta: float) -> None:
        cfg, est = self.cfg, rnd.result.estimates
        keys = list(cfg.variants) + ["theta_bar"]
        rows = self._csv("mse.csv", ["variant", "n", "mse", "stderr", "theory_first_order"],
                         len(keys) * len(cfg.n_grid))
        for variant, n, mse, *_ in rows:
            target = theta if variant == "theta_bar" else vartheta
            k = cfg.n_grid.index(int(n))
            want = float(((est[variant][k] - target) ** 2).mean())
            checks.close(float(mse), want, 1e-9, f"mse.csv {variant} n = {n}")
        self._csv("ratefit.csv", ["variant", "slope", "intercept", "r2", "theory_slope"], len(keys))
        checks.svg(self.artifacts / "rates.svg")

    def check_clt(self, rnd: Round, theta: float, vartheta: float) -> None:
        cfg, est = self.cfg, rnd.result.estimates
        header = ["n", "s11_emp", "s12_emp", "s22_emp", "s11_se", "s12_se", "s22_se",
                  "s11_theory", "s12_theory", "s22_theory"]
        rows = self._csv("clt.csv", header, len(cfg.n_grid))
        for k, (n, s11, s12, s22, *_) in enumerate(rows):
            n = int(n)
            pairs = math.sqrt(n) * np.stack([est["theta_bar"][k] - theta, est["embedded"][k] - vartheta])
            dev = pairs - pairs.mean(axis=1, keepdims=True)
            cov = dev @ dev.T / (cfg.replicates - 1)
            scale = math.sqrt(cov[0, 0] * cov[1, 1])
            for got, want, name in ((s11, cov[0, 0], "s11"), (s12, cov[0, 1], "s12"), (s22, cov[1, 1], "s22")):
                checks.close(float(got), float(want), 1e-9, f"clt.csv {name} n = {n}", scale)
            emp, _ = self.sr["experiments"].empirical_clt_cov(rnd.result, n)
            checks.covariance(emp, f"empirical_clt_cov n = {n}")
        checks.svg(self.artifacts / "clt.svg")

    def check_compare(self, rnd: Round, theta: float, vartheta: float) -> None:
        cfg, est = self.cfg, rnd.result.estimates
        n_pairs = len(cfg.variants) * (len(cfg.variants) - 1) // 2
        rows = self._csv("compare.csv", ["n", "pair", "mse_ratio", "ci_low", "ci_high", "theory_verdict"],
                         n_pairs * len(cfg.n_grid))
        for n, pair, ratio, low, high, _ in rows:
            label = f"compare.csv {pair} n = {n}"
            checks.ci_brackets(float(ratio), float(low), float(high), label)
            a, b = pair.split("/")
            k = cfg.n_grid.index(int(n))
            want = ((est[a][k] - vartheta) ** 2).mean() / ((est[b][k] - vartheta) ** 2).mean()
            checks.close(float(ratio), float(want), 1e-9, label)


def layer_metrics(rnd: dict, wl: Workload, replay_obs: int) -> dict[str, float]:
    """Per-layer figures of one traced round, from its spans and counters."""
    sp, counters = rnd["spans"], rnd["counters"]
    own = spans.self_times(sp)
    named: dict[str, list[dict]] = {}
    for s in sp:
        named.setdefault(s["name"], []).append(s)

    def total_ns(name):
        return sum(s["end"] - s["start"] for s in named.get(name, ()))

    def items(name):
        return sum(s["items"] for s in named.get(name, ()))

    layer_ms = {k: v / 1e6 for k, v in spans.layer_self_ns(sp).items()}

    def bytes_written(layer):
        return sum(s["bytes"] for s in sp if s["name"].startswith(layer + "."))

    engine = named["experiments.run_experiment"][0]
    engine_ns = engine["end"] - engine["start"]
    gain, step = counters["schedules.gain"], counters["estimators.step"]
    return {
        "experiments.run_experiment.ns_per_lane_step": engine_ns / wl.lane_steps,
        "experiments.recursion.self_ns_per_lane_step": own[engine["id"]] / wl.lane_steps,
        "experiments.run_experiment.cpu_s": engine["cpu_s"],
        "experiments.run_experiment.cpu_per_wall": engine["cpu_s"] / (engine_ns / 1e9),
        "experiments.aggregate_ms": sum(own[s["id"]] for s in sp if s["name"] in AGGREGATE) / 1e6,
        "distributions.random.ns_per_draw": total_ns("distributions.random") / items("distributions.random"),
        "distributions.random.calls": len(named["distributions.random"]),
        "distributions.quantile.ns_per_draw": total_ns("distributions.quantile") / items("distributions.quantile"),
        "distributions.quantile.calls": len(named["distributions.quantile"]),
        "distributions.substream.us_per_replicate":
            total_ns("distributions.substream") / len(named["distributions.substream"]) / 1e3,
        "schedules.gain.calls": gain["calls"],
        "schedules.gain.ns_per_call": gain["ns"] / gain["calls"],
        "estimators.step.ns_per_obs": step["ns"] / replay_obs,
        "asymptotics.ms": layer_ms.get("asymptotics", 0.0),
        "tables.write_ms": layer_ms.get("tables", 0.0),
        "tables.bytes_written": bytes_written("tables"),
        "svgplot.write_ms": layer_ms.get("svgplot", 0.0),
        "svgplot.bytes_written": bytes_written("svgplot"),
        "cli.self_ms": own[named["cli.main"][0]["id"]] / 1e6,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    p.add_argument("--seconds", type=int, default=25, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: record spans and report per-layer metrics")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = HERE.parent / "src"
    if not (src / "streamrisk" / "__init__.py").is_file():
        print(f"error: no streamrisk package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sr = {name: importlib.import_module(f"streamrisk.{name}") for name in
          ("asymptotics", "cli", "config", "distributions", "estimators", "experiments", "tables")}
    wl = WORKLOADS[args.workload]
    out = HERE / "out" / wl.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg_path = out / "experiment.cfg"
    cfg_path.write_text(wl.config_text(master_seed(args.seed)))

    setups = [probe_setup(src, cfg_path) for _ in range(SETUP_PROBES)]
    bench = Bench(wl, sr, cfg_path, out)
    attempted = failed = 0
    problems: list[str] = []
    plain: list[Round] = []
    traced: list[Round] = []
    trace_rounds: list[dict] = []

    def one_round(trace: bool) -> Round | None:
        nonlocal attempted, failed
        tracer = spans.Tracer() if trace else None
        attempted += 1
        rnd = bench.round(tracer)
        if rnd is None:
            failed += 1
            return None
        if tracer is not None:
            trace_rounds.append({"round": attempted - 1, "spans": tracer.spans, "counters": tracer.counters()})
        return rnd

    try:
        first = one_round(False)
        if first is not None:
            bench.check_first_round(first)
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or not plain or (args.trace and not traced):
            trace = bool(args.trace) and len(plain) > len(traced)
            rnd = one_round(trace)
            if rnd is not None:
                bench.check_every_round(rnd)
                (traced if trace else plain).append(rnd)
    except CheckError as exc:
        problems.append(str(exc))

    med = statistics.median
    if args.trace:
        spans_path = out / "spans.json"
        spans_path.write_text(json.dumps({"workload": wl.name, "seed": args.seed, "rounds": trace_rounds}))
        per_round = [layer_metrics(r, wl, bench.replay_obs) for r in trace_rounds]
        metrics = {k: med(m[k] for m in per_round) for k in per_round[0]} if per_round else {}
        metrics.update({
            "config.load_ms": med(s["config_load_s"] for s in setups) * 1e3,
            "distributions.oracle_ms": med(s["oracle_s"] for s in setups) * 1e3,
            "import_s": med(s["import_s"] for s in setups),
        })
        if plain and traced:
            metrics["tracing_overhead_s"] = med(r.wall_s for r in traced) - med(r.wall_s for r in plain)
            metrics["estimators.run_stream.obs_per_s"] = med(bench.replay_obs / r.replay_s for r in plain)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": med(sum(s.values()) for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if plain:
            metrics.update({
                "wall_s": med(r.wall_s for r in plain),
                "lane_steps_per_s": med(wl.lane_steps / r.engine_s for r in plain),
            })
        units = END_TO_END

    correct = not problems and set(metrics) == set(units)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{wl.name} seed {args.seed}: {attempted} rounds attempted, {failed} failed, "
          f"{len(plain)} timed, {len(traced)} traced")
    for name in units:
        if name in metrics:
            print(f"  {name:<46} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
