"""Command-line front end.

Subcommands: ``oracle`` (exact vs quadrature risk quantities), ``asymptotics``
(closed-form theorem constants), ``rates`` (MSE curves and log-log fits),
``clt`` (empirical vs theoretical CLT covariance), ``compare`` (paired variant
MSE ratios).  Exit codes: 0 success, 2 usage/config error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import asymptotics, distributions
from .config import (
    ConfigError,
    config_summary,
    format_distribution,
    load_experiment_config,
    parse_distribution,
)
from .experiments import (
    ExperimentConfig,
    compare_variants,
    empirical_clt_cov,
    fit_rate,
    run_experiment,
)
from .schedules import StepSchedule
from .svgplot import loglog_plot, scatter_plot
from .tables import write_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamrisk",
        description="Streaming quantile/superquantile estimation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_oracle = sub.add_parser("oracle", help="exact and quadrature risk quantities")
    p_oracle.add_argument("--dist", required=True, help="distribution, e.g. uniform:0,1")
    p_oracle.add_argument("--alpha", required=True, type=float)
    p_oracle.add_argument("--out", default=None, help="directory for oracle.csv")
    p_oracle.set_defaults(handler=_cmd_oracle)

    p_asym = sub.add_parser("asymptotics", help="closed-form limiting constants")
    p_asym.add_argument("--dist", required=True)
    p_asym.add_argument("--alpha", required=True, type=float)
    p_asym.add_argument("--a1", type=float, default=1.0)
    p_asym.add_argument("--a", type=float, required=True)
    p_asym.add_argument("--b1", type=float, default=1.0)
    p_asym.add_argument("--b", type=float, required=True)
    p_asym.add_argument("--out", default=None, help="directory for asymptotics.csv")
    p_asym.set_defaults(handler=_cmd_asymptotics)

    for name, handler, blurb in (
        ("rates", _cmd_rates, "MSE curves and log-log rate fits"),
        ("clt", _cmd_clt, "empirical CLT covariance vs theory"),
        ("compare", _cmd_compare, "paired variant MSE ratios"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--threads", type=int, default=None, help="upper bound (default: usable CPUs)")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


def _load_config(args) -> ExperimentConfig:
    cfg = load_experiment_config(args.config)
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise ConfigError(f"--seed must be a 64-bit unsigned integer, got {args.seed}")
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


_ORACLE_FIELDS = ("theta_alpha", "vartheta_alpha", "density_at_quantile", "v_alpha")


def _cmd_oracle(args) -> int:
    model = parse_distribution(args.dist)
    closed = distributions.oracle(model, args.alpha)
    numeric = distributions.numeric_oracle(model, args.alpha)
    print(f"# {format_distribution(model)}; alpha = {args.alpha!r}")
    print(f"{'quantity':<22}{'closed_form':>18}{'quadrature':>18}{'abs_diff':>14}")
    rows = []
    for field in _ORACLE_FIELDS:
        c, q = getattr(closed, field), getattr(numeric, field)
        print(f"{field:<22}{c:>18.10g}{q:>18.10g}{abs(c - q):>14.3e}")
        rows.append((c, q))
    ratio_c = closed.vartheta_alpha / closed.theta_alpha
    ratio_q = numeric.vartheta_alpha / numeric.theta_alpha
    print(f"{'vartheta_over_theta':<22}{ratio_c:>18.10g}{ratio_q:>18.10g}{abs(ratio_c - ratio_q):>14.3e}")
    rows.append((ratio_c, ratio_q))
    if args.out is not None:
        header = list(_ORACLE_FIELDS) + ["vartheta_over_theta"]
        csv_rows = [
            ["closed_form"] + [r[0] for r in rows],
            ["quadrature"] + [r[1] for r in rows],
            ["abs_discrepancy"] + [abs(r[0] - r[1]) for r in rows],
        ]
        write_csv(
            _out_dir(args) / "oracle.csv",
            ["source"] + header,
            csv_rows,
            comments=[f"streamrisk oracle; dist = {format_distribution(model)}; alpha = {args.alpha!r}"],
        )
    return 0


def _cmd_asymptotics(args) -> int:
    model = parse_distribution(args.dist)
    schedule = StepSchedule(a1=args.a1, a_exp=args.a, b1=args.b1, b_exp=args.b)
    oracle = distributions.oracle(model, args.alpha)
    rep = asymptotics.report(oracle, schedule)
    flat = [
        ("quantile_clt_var", rep.quantile_clt_var),
        ("sq_var_slow", rep.sq_var_slow),
        ("s2_11", None if rep.s2 is None else rep.s2[0, 0]),
        ("s2_12", None if rep.s2 is None else rep.s2[0, 1]),
        ("s2_22", None if rep.s2 is None else rep.s2[1, 1]),
        ("c_alpha_b1", rep.c_alpha_b1),
        ("tau_alpha_sq", rep.tau_alpha_sq),
        ("gamma_vartheta", rep.gamma_vartheta),
        ("b1_threshold", rep.b1_threshold),
        ("averaged_remainder_exponent", rep.averaged_remainder_exponent),
        ("embedded_remainder_exponent", rep.embedded_remainder_exponent),
    ]
    for key, value in flat:
        print(f"{key} = {'n/a' if value is None else repr(float(value))}")
    if args.out is not None:
        write_csv(
            _out_dir(args) / "asymptotics.csv",
            [k for k, _ in flat],
            [[v for _, v in flat]],
            comments=[
                "streamrisk asymptotics; "
                f"dist = {format_distribution(model)}; alpha = {args.alpha!r}; "
                f"a1 = {args.a1!r}; a = {args.a!r}; b1 = {args.b1!r}; b = {args.b!r}"
            ],
        )
    return 0


def _theory_first_order(key: str, oracle, schedule: StepSchedule, n: int):
    if key == "embedded":
        if schedule.b_exp == 1.0 and schedule.b1 <= 0.5:
            return None
        return asymptotics.mse_bound_embedded(oracle, schedule, n)
    if key in ("classical", "bardou"):
        if schedule.b_exp == 1.0 and schedule.b1 <= 0.5:
            return None
        return asymptotics.mse_bound_competitor(oracle, schedule, n)
    if key == "theta_bar":
        return asymptotics.mse_bound_averaged_quantile(oracle, schedule, n)
    return None


def _cmd_rates(args) -> int:
    cfg = _load_config(args)
    result = run_experiment(cfg, threads=args.threads)
    out = _out_dir(args)
    comments = ["streamrisk rates; " + config_summary(cfg)]
    keys = list(cfg.variants) + ["theta_bar"]

    mse_rows = []
    curves: dict[str, np.ndarray] = {}
    for key in keys:
        mse, stderr = result.mse_curve(key)
        curves[key] = mse
        for k, n in enumerate(cfg.n_grid):
            mse_rows.append(
                [key, n, mse[k], stderr[k], _theory_first_order(key, result.oracle, cfg.schedule, n)]
            )
    write_csv(out / "mse.csv", ["variant", "n", "mse", "stderr", "theory_first_order"], mse_rows, comments)

    fit_rows = []
    for key in keys:
        theory_slope = -1.0 if key == "theta_bar" else -cfg.schedule.b_exp
        if len(cfg.n_grid) >= 3:
            fit = fit_rate(zip(cfg.n_grid, curves[key]))
            fit_rows.append([key, fit.slope, fit.intercept, fit.r_squared, theory_slope])
            print(f"{key}: fitted slope {fit.slope:.4f} (theory {theory_slope}), r2 {fit.r_squared:.4f}")
        else:
            fit_rows.append([key, None, None, None, theory_slope])
    write_csv(out / "ratefit.csv", ["variant", "slope", "intercept", "r2", "theory_slope"], fit_rows, comments)

    series = [(key, cfg.n_grid, curves[key], False) for key in keys]
    theory = [_theory_first_order("embedded", result.oracle, cfg.schedule, n) for n in cfg.n_grid]
    if all(v is not None for v in theory):
        series.append(("embedded theory", cfg.n_grid, theory, True))
    loglog_plot(out / "rates.svg", series, "MSE vs n", "n", "mse")
    print(f"wrote {out / 'mse.csv'}, {out / 'ratefit.csv'}, {out / 'rates.svg'}")
    return 0


def _cmd_clt(args) -> int:
    cfg = _load_config(args)
    if cfg.replicates < 30:
        raise ConfigError(f"replicates >= 30 required for clt, got {cfg.replicates}")
    # The theory is computed before the run, so a config it rejects (a fast
    # regime with b1 <= 1/2) fails without simulating any replicate.
    oracle = distributions.oracle(cfg.model, cfg.alpha)
    if cfg.schedule.b_exp == 1.0:
        s2 = asymptotics.clt_covariance_fast(oracle, cfg.schedule.b1)
        theory = (s2[0, 0], s2[0, 1], s2[1, 1])
    else:
        s2 = None
        f = oracle.density_at_quantile
        theory = (
            oracle.alpha * (1.0 - oracle.alpha) / (f * f),
            None,
            asymptotics.clt_variance_slow(oracle),
        )
    result = run_experiment(cfg, threads=args.threads)
    out = _out_dir(args)
    comments = ["streamrisk clt; " + config_summary(cfg)]
    rows = []
    for n in cfg.n_grid:
        cov, se = empirical_clt_cov(result, n)
        rows.append(
            [n, cov[0, 0], cov[0, 1], cov[1, 1], se[0, 0], se[0, 1], se[1, 1], *theory]
        )
    write_csv(
        out / "clt.csv",
        [
            "n",
            "s11_emp", "s12_emp", "s22_emp",
            "s11_se", "s12_se", "s22_se",
            "s11_theory", "s12_theory", "s22_theory",
        ],
        rows,
        comments,
    )
    final_n = cfg.n_grid[-1]
    pairs = result.clt_pairs(final_n)
    scatter_plot(
        out / "clt.svg",
        pairs,
        f"rescaled deviations at n = {final_n}",
        "sqrt(n) (theta_bar - theta_alpha)",
        "rescaled superquantile deviation",
        ellipse_cov=s2,
    )
    # cov is the loop's last, at final_n.
    print(
        f"n = {final_n}: empirical (s11, s12, s22) = "
        f"({cov[0, 0]:.6g}, {cov[0, 1]:.6g}, {cov[1, 1]:.6g})"
    )
    print(f"wrote {out / 'clt.csv'}, {out / 'clt.svg'}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_config(args)
    if len(cfg.variants) < 2:
        raise ConfigError("compare requires at least 2 variants in the config")
    # Before the run, as in _cmd_clt.
    oracle = distributions.oracle(cfg.model, cfg.alpha)
    theory = asymptotics.variance_comparison(oracle, cfg.schedule.b1, cfg.schedule.b_exp)
    result = run_experiment(cfg, threads=args.threads)
    out = _out_dir(args)
    report = compare_variants(result, theory)
    rows = []
    for row in report.rows:
        verdict = report.theory.verdict if "embedded" in row.pair else "tie"
        rows.append([row.n, row.pair, row.mse_ratio, row.ci_low, row.ci_high, verdict])
    write_csv(
        out / "compare.csv",
        ["n", "pair", "mse_ratio", "ci_low", "ci_high", "theory_verdict"],
        rows,
        comments=["streamrisk compare; " + config_summary(cfg)],
    )
    th = report.theory
    print(
        f"theory: verdict = {th.verdict}; b1 = {th.b1!r}; b1_threshold = {th.b1_threshold!r}; "
        f"embedded_variance = {th.embedded_variance!r}; gamma_vartheta = {th.gamma_vartheta!r}"
    )
    final_n = cfg.n_grid[-1]
    for row in report.rows:
        if row.n == final_n:
            print(
                f"n = {row.n}: mse[{row.pair}] = {row.mse_ratio:.6g} "
                f"(95% CI {row.ci_low:.6g} .. {row.ci_high:.6g})"
            )
    print(f"wrote {out / 'compare.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
