"""Command-line front end.

Subcommands: ``oracle`` (exact vs quadrature risk quantities), ``asymptotics``
(closed-form theorem constants), ``rates`` (MSE curves and log-log fits),
``clt`` (empirical vs theoretical CLT covariance), ``compare`` (paired variant
MSE ratios).  Exit codes: 0 success, 2 usage/config error, 3 runtime failure.
``oracle`` checks the closed form by quadrature; where the quadrature fails,
its cells read ``n/a`` and one line says why, and the command exits 0.
``rates``, ``clt``, ``compare`` and ``asymptotics`` print each of the paper's
hypotheses that the schedule fails (:func:`streamrisk.schedules.unmet`) as
``hypothesis not met: ...`` and write ``n/a`` for every value of a theorem
whose hypothesis fails.  The run commands take their theory from
:mod:`streamrisk.asymptotics` before the run, so a config whose theory is
rejected or leaves float range exits 2 without simulating a replicate.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import asymptotics, distributions, schedules
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
from .tables import fmt_value, write_csv


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
    if args.seed is not None:  # ExperimentConfig checks its range (exit 2)
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_unmet(failed: dict[str, str]) -> dict[str, str]:
    """Print each unmet hypothesis of ``failed`` (from :func:`schedules.unmet`) on stdout, and return it."""
    for message in failed.values():
        print(f"hypothesis not met: {message}")
    return failed


def _check_finite(header: list[str], rows: list[list], labels: int) -> None:
    """A ValueError (exit 2) naming the first float cell of ``rows`` that is not finite, with
    its row's first ``labels`` cells; the run commands check their rows before writing any."""
    for row in rows:
        for name, cell in zip(header, row):
            if isinstance(cell, float) and not np.isfinite(cell):
                where = ", ".join(f"{h} = {c}" for h, c in zip(header[:labels], row))
                raise ValueError(f"{name} at {where} is {float(cell)!r}, not finite; nothing was written")


_ORACLE_FIELDS = ("theta_alpha", "vartheta_alpha", "density_at_quantile", "v_alpha")


def _cmd_oracle(args) -> int:
    model = parse_distribution(args.dist)
    closed = distributions.oracle(model, args.alpha)
    # The closed form is the answer and the quadrature its check: a quadrature
    # that fails leaves its cells n/a and says why.
    try:
        numeric, failure = distributions.numeric_oracle(model, args.alpha), []
    except distributions.QuadratureError as exc:
        numeric, failure = None, [f"quadrature not available: {exc}"]
    print(f"# {format_distribution(model)}; alpha = {args.alpha!r}")
    print(f"{'quantity':<22}{'closed_form':>18}{'quadrature':>18}{'abs_diff':>14}")
    header = list(_ORACLE_FIELDS) + ["vartheta_over_theta"]
    rows = [(getattr(closed, field), getattr(numeric, field, None)) for field in _ORACLE_FIELDS]
    # vartheta / theta reads as a multiple of the quantile only when theta > 0.
    rows.append(tuple(o.vartheta_alpha / o.theta_alpha if o is not None and o.theta_alpha > 0 else None
                      for o in (closed, numeric)))
    # Equal values differ by 0, also when both overflow to inf.
    rows = [(c, q, None if None in (c, q) else 0.0 if c == q else abs(c - q)) for c, q in rows]
    for name, row in zip(header, rows):
        c, q, d = ("n/a" if v is None else format(v, spec) for v, spec in zip(row, (".10g", ".10g", ".3e")))
        print(f"{name:<22}{c:>18}{q:>18}{d:>14}")
    for line in failure:
        print(line)
    if args.out is not None:
        sources = ("closed_form", "quadrature", "abs_discrepancy")
        csv_rows = [[source] + [row[k] for row in rows] for k, source in enumerate(sources)]
        write_csv(
            _out_dir(args) / "oracle.csv",
            ["source"] + header,
            csv_rows,
            comments=[f"streamrisk oracle; dist = {format_distribution(model)}; alpha = {args.alpha!r}", *failure],
        )
    return 0


_ASYMPTOTICS_COLUMNS = (
    "quantile_clt_var", "sq_var_slow", "s2_11", "s2_12", "s2_22", "c_alpha_b1", "tau_alpha_sq",
    "gamma_vartheta", "b1_threshold", "averaged_remainder_exponent", "embedded_remainder_exponent",
)


def _cmd_asymptotics(args) -> int:
    model = parse_distribution(args.dist)
    schedule = StepSchedule(a1=args.a1, a_exp=args.a, b1=args.b1, b_exp=args.b)
    # S^2 and C_alpha,b1 are the b = 1 regime's constants, so their hypotheses
    # are checked as if b = 1, whatever the schedule's b.
    own = schedules.unmet(schedule)
    fast = schedules.unmet(dataclasses.replace(schedule, b_exp=1.0))
    _print_unmet(own | {key: fast[key] for key in ("rate", "clt") if key in fast})
    oracle = distributions.oracle(model, args.alpha)
    flat = dict.fromkeys(_ASYMPTOTICS_COLUMNS)
    # Every theorem behind these constants assumes the chain 1/2 < a < b <= 1:
    # on a broken chain each reads n/a.
    if "chain" not in own:
        if "clt" not in own:
            comparison = asymptotics.variance_comparison(oracle, schedule.b1, schedule.b_exp)
            flat.update((key, getattr(comparison, key)) for key in ("tau_alpha_sq", "gamma_vartheta", "b1_threshold"))
        if "clt" not in fast:
            s2 = asymptotics.clt_covariance_fast(oracle, schedule.b1)
            flat.update(s2_11=s2[0, 0], s2_12=s2[0, 1], s2_22=s2[1, 1])
        flat.update(
            quantile_clt_var=asymptotics.quantile_clt_variance(oracle),
            sq_var_slow=asymptotics.clt_variance_slow(oracle),
        )
        if "rate" not in fast:
            flat["c_alpha_b1"] = asymptotics.c_alpha_b1(oracle, schedule.b1)
        flat.update(
            averaged_remainder_exponent=asymptotics.averaged_quantile_remainder_exponent(schedule.a_exp),
            embedded_remainder_exponent=asymptotics.embedded_remainder_exponent(schedule),
        )
    for key, value in flat.items():
        print(f"{key} = {'n/a' if value is None else repr(float(value))}")
    if args.out is not None:
        write_csv(
            _out_dir(args) / "asymptotics.csv",
            list(flat),
            [list(flat.values())],
            comments=[
                "streamrisk asymptotics; "
                f"dist = {format_distribution(model)}; alpha = {args.alpha!r}; "
                f"a1 = {args.a1!r}; a = {args.a!r}; b1 = {args.b1!r}; b = {args.b!r}"
            ],
        )
    return 0


def _cmd_rates(args) -> int:
    cfg = _load_config(args)
    sched = cfg.schedule
    keys = list(cfg.variants) + ["theta_bar"]
    # The theory comes before the run, as in _cmd_clt: one first-order term
    # per checkpoint and a slope for each key whose theorem's hypothesis
    # holds.  The embedded bound needs the rate condition and the
    # classical/Bardou heuristic the CLT's.  The plot's "embedded theory"
    # series is drawn whichever variants run.
    failed = _print_unmet(schedules.unmet(sched))
    oracle = distributions.oracle(cfg.model, cfg.alpha)
    bounds = {"theta_bar": asymptotics.mse_bound_averaged_quantile}
    if "rate" not in failed:
        bounds["embedded"] = asymptotics.mse_bound_embedded
    if "clt" not in failed:
        bounds["classical"] = bounds["bardou"] = asymptotics.mse_bound_competitor
    theory = {
        key: [bounds[key](oracle, sched, n) for n in cfg.n_grid]
        for key in dict.fromkeys(keys + ["embedded"])
        if key in bounds
    }
    result = run_experiment(cfg, threads=args.threads)
    mse_header = ["variant", "n", "mse", "stderr", "theory_first_order"]
    fit_header = ["variant", "slope", "intercept", "r2", "theory_slope"]
    mse_rows, fit_rows = [], []
    curves: dict[str, np.ndarray] = {}
    with np.errstate(all="ignore"):  # _check_finite reports what numpy would warn of
        for key in keys:
            mse, stderr = result.mse_curve(key)
            curves[key] = mse
            first_order = theory.get(key, [None] * len(cfg.n_grid))
            mse_rows += [[key, n, mse[k], stderr[k], first_order[k]] for k, n in enumerate(cfg.n_grid)]
        _check_finite(mse_header, mse_rows, 2)  # the fits need finite mse
        for key in keys:
            theory_slope = None if key not in bounds else -1.0 if key == "theta_bar" else -sched.b_exp
            if len(cfg.n_grid) >= 3:
                fit = fit_rate(zip(cfg.n_grid, curves[key]))
                fit_rows.append([key, fit.slope, fit.intercept, fit.r_squared, theory_slope])
            else:
                fit_rows.append([key, None, None, None, theory_slope])
    _check_finite(fit_header, fit_rows, 1)
    out = _out_dir(args)
    comments = ["streamrisk rates; " + config_summary(cfg)]
    write_csv(out / "mse.csv", mse_header, mse_rows, comments)
    for key, slope, _, r2, theory_slope in fit_rows:
        if slope is not None:
            print(f"{key}: fitted slope {slope:.4f} (theory {fmt_value(theory_slope)}), r2 {r2:.4f}")
    write_csv(out / "ratefit.csv", fit_header, fit_rows, comments)

    series = [(key, cfg.n_grid, curves[key], False) for key in keys]
    if "embedded" in theory:
        series.append(("embedded theory", cfg.n_grid, theory["embedded"], True))
    loglog_plot(out / "rates.svg", series, "MSE vs n", "n", "mse")
    print(f"wrote {out / 'mse.csv'}, {out / 'ratefit.csv'}, {out / 'rates.svg'}")
    return 0


def _cmd_clt(args) -> int:
    cfg = _load_config(args)
    if cfg.replicates < 30:
        raise ConfigError(f"replicates >= 30 required for clt, got {cfg.replicates}")
    # The theory is computed before the run, so a config it rejects (a fast
    # regime with b1 <= 1/2) fails without simulating any replicate.
    _print_unmet(schedules.unmet(cfg.schedule))
    oracle = distributions.oracle(cfg.model, cfg.alpha)
    if cfg.schedule.b_exp == 1.0:
        s2 = asymptotics.clt_covariance_fast(oracle, cfg.schedule.b1)
        try:  # clt.svg draws S^2's ellipse through its Cholesky factor
            np.linalg.cholesky(s2)
        except np.linalg.LinAlgError:
            raise ValueError(f"S^2 = {s2.tolist()} is not positive definite in float arithmetic") from None
        theory = (s2[0, 0], s2[0, 1], s2[1, 1])
    else:
        s2 = None
        theory = (asymptotics.quantile_clt_variance(oracle), None, asymptotics.clt_variance_slow(oracle))
    result = run_experiment(cfg, threads=args.threads)
    header = [
        "n",
        "s11_emp", "s12_emp", "s22_emp",
        "s11_se", "s12_se", "s22_se",
        "s11_theory", "s12_theory", "s22_theory",
    ]
    rows = []
    with np.errstate(all="ignore"):  # as in _cmd_rates
        for n in cfg.n_grid:
            cov, se = empirical_clt_cov(result, n)
            rows.append([n, cov[0, 0], cov[0, 1], cov[1, 1], se[0, 0], se[0, 1], se[1, 1], *theory])
    _check_finite(header, rows, 1)
    out = _out_dir(args)
    write_csv(out / "clt.csv", header, rows, ["streamrisk clt; " + config_summary(cfg)])
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
    _print_unmet(schedules.unmet(cfg.schedule))
    oracle = distributions.oracle(cfg.model, cfg.alpha)
    theory = asymptotics.variance_comparison(oracle, cfg.schedule.b1, cfg.schedule.b_exp)
    result = run_experiment(cfg, threads=args.threads)
    with np.errstate(all="ignore"):  # as in _cmd_rates
        ratios = compare_variants(result)
    header = ["n", "pair", "mse_ratio", "ci_low", "ci_high", "theory_verdict"]
    rows = []
    for row in ratios:
        verdict = theory.verdict if "embedded" in row.pair else "tie"
        rows.append([row.n, row.pair, row.mse_ratio, row.ci_low, row.ci_high, verdict])
    _check_finite(header, rows, 2)
    out = _out_dir(args)
    write_csv(out / "compare.csv", header, rows, comments=["streamrisk compare; " + config_summary(cfg)])
    print(
        f"theory: verdict = {theory.verdict}; b1 = {theory.b1!r}; b1_threshold = {theory.b1_threshold!r}; "
        f"embedded_variance = {theory.embedded_variance!r}; gamma_vartheta = {theory.gamma_vartheta!r}"
    )
    final_n = cfg.n_grid[-1]
    for row in ratios:
        if row.n == final_n:
            print(
                f"n = {row.n}: mse[{row.pair}] = {row.mse_ratio:.6g} "
                f"(95% CI {row.ci_low:.6g} .. {row.ci_high:.6g})"
            )
    print(f"wrote {out / 'compare.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
