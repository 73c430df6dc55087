import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamrisk import cli, experiments
from streamrisk.cli import main
from streamrisk.experiments import _KERNEL_LANES
from streamrisk.tables import fmt_value, read_csv, render_csv

GOLDEN_CFG = """\
# golden small config
dist = uniform lo=0 hi=1
alpha = 0.5
a1 = 1.0
a = 0.6666666666666666
b1 = 1.0
b = 1.0
n_grid = 10,100
replicates = 2
master_seed = 555
warm_start = false
"""

RATES_SLOW_CFG = """\
dist = exponential rate=1.0
alpha = 0.9
a1 = 1.0
a = 0.6
b1 = 1.0
b = 0.75
n_grid = 50,200,800
replicates = 40
master_seed = 99
warm_start = false
"""

CLT_FAST_CFG = """\
dist = uniform lo=0 hi=1
alpha = 0.5
a1 = 1.0
a = 0.6666666666666666
b1 = 1.0
b = 1.0
n_grid = 400
replicates = 60
master_seed = 7
warm_start = true
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestOracleCommand:
    def test_uniform_row_and_agreement(self, tmp_path, capsys):
        code = main(["oracle", "--dist", "uniform:0,1", "--alpha", "0.5", "--out", str(tmp_path)])
        assert code == 0
        comments, header, rows = read_csv(tmp_path / "oracle.csv")
        assert header[0] == "source"
        closed = dict(zip(header[1:], map(float, rows[0][1:])))
        assert closed["theta_alpha"] == 0.5
        assert closed["vartheta_alpha"] == 0.75
        assert closed["density_at_quantile"] == 1.0
        assert closed["v_alpha"] == pytest.approx(0.1510417, abs=5e-8)
        discrepancy = [float(v) for v in rows[2][1:]]
        assert all(d < 1e-8 for d in discrepancy)
        assert any("alpha = 0.5" in c for c in comments)

    def test_invalid_alpha_exits_2(self, capsys):
        code = main(["oracle", "--dist", "uniform:0,1", "--alpha", "1.5"])
        assert code == 2
        assert "alpha must lie in (0,1)" in capsys.readouterr().err

    def test_pareto_ratio_column(self, tmp_path):
        code = main(["oracle", "--dist", "pareto:1,3", "--alpha", "0.9", "--out", str(tmp_path)])
        assert code == 0
        _, header, rows = read_csv(tmp_path / "oracle.csv")
        idx = header.index("vartheta_over_theta")
        assert float(rows[0][idx]) == pytest.approx(1.5, rel=1e-12)

    def test_unknown_distribution_exits_2(self, capsys):
        assert main(["oracle", "--dist", "cauchy:0,1", "--alpha", "0.5"]) == 2

    def test_zero_quantile_ratio_is_not_available(self, tmp_path, capsys):
        assert main(["oracle", "--dist", "gaussian:0,1", "--alpha", "0.5", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split() == ["vartheta_over_theta"] + ["n/a"] * 3
        _, header, rows = read_csv(tmp_path / "oracle.csv")
        assert [row[header.index("vartheta_over_theta")] for row in rows] == ["n/a"] * 3

    # Far-out tails: x**2 in the integrand overflowed (an OverflowError
    # traceback), and the mapped tail integral read v_alpha as inf.
    @pytest.mark.parametrize("dist", ["exponential:1e-150", "exponential:1e-120"])
    def test_quadrature_of_a_far_tail_agrees_with_closed_form(self, tmp_path, capsys, dist):
        assert main(["oracle", "--dist", dist, "--alpha", "0.9", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        _, header, rows = read_csv(tmp_path / "oracle.csv")
        for key, closed, quadrature in zip(header[1:], rows[0][1:], rows[1][1:]):
            assert float(quadrature) == pytest.approx(float(closed), rel=1e-8), key


@pytest.mark.parametrize("command", ["oracle", "rates"])
@pytest.mark.parametrize("dist", ["exponential:1e-300", "exponential:5e-324", "uniform:-1e308,1e308", "pareto:1e300,2.5"])
def test_oracle_outside_float_range_exits_2(tmp_path, capsys, command, dist):
    cfg = _write(tmp_path, "edge.cfg", GOLDEN_CFG.replace("uniform lo=0 hi=1", dist))
    argv = {"oracle": ["--dist", dist, "--alpha", "0.5"], "rates": ["--config", str(cfg), "--out", str(tmp_path)]}
    assert main([command, *argv[command]]) == 2
    assert "overflows float arithmetic" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dist, alpha",
    [
        ("gaussian:0,1e308", "0.999"),
        ("gaussian:0,1e308", "1e-300"),
        ("gaussian:-1e308,1e308", "1e-300"),
        ("gaussian:-1e308,1e308", "0.9999999999999999"),
    ],
)
def test_gaussian_oracle_overflow_exits_2_without_warning(capsys, dist, alpha):
    # The quantile overflows in Python float arithmetic, which gives inf
    # without the RuntimeWarning a numpy scalar would print first.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["oracle", "--dist", dist, "--alpha", alpha]) == 2
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: theta_alpha of Gaussian") and err[0].endswith("overflows float arithmetic")


class TestRatesCommand:
    def test_missing_config_exits_2(self, tmp_path):
        assert main(["rates", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2

    def test_golden_config_byte_identical_reruns(self, tmp_path):
        cfg = _write(tmp_path, "golden.cfg", GOLDEN_CFG)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["rates", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["rates", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "mse.csv").read_bytes() == (out2 / "mse.csv").read_bytes()
        assert (out1 / "ratefit.csv").read_bytes() == (out2 / "ratefit.csv").read_bytes()
        assert (out1 / "rates.svg").read_bytes() == (out2 / "rates.svg").read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        # Three sub-blocks of the kernel on three CPUs, so --threads 3 starts three workers.
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
        replicates = 2 * _KERNEL_LANES + 5
        cfg = _write(tmp_path, "wide.cfg", GOLDEN_CFG.replace("replicates = 2", f"replicates = {replicates}"))
        out1, out3 = tmp_path / "t1", tmp_path / "t3"
        assert main(["rates", "--config", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
        assert main(["rates", "--config", str(cfg), "--out", str(out3), "--threads", "3"]) == 0
        for name in ("mse.csv", "ratefit.csv", "rates.svg"):
            assert (out1 / name).read_bytes() == (out3 / name).read_bytes()

    def test_zero_threads_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "golden.cfg", GOLDEN_CFG)
        assert main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "0"]) == 2
        assert "threads must be >= 1, got 0" in capsys.readouterr().err

    def test_replicates_beyond_physical_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "_physical_memory", lambda: 1024)
        cfg = _write(tmp_path, "golden.cfg", GOLDEN_CFG)
        assert main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: replicates = 2 needs about") and err.count("\n") == 1
        assert not (tmp_path / "o" / "mse.csv").exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = _write(tmp_path, "golden.cfg", GOLDEN_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["rates", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["rates", "--config", str(cfg), "--out", str(out2), "--seed", "556"]) == 0
        assert (out1 / "mse.csv").read_bytes() != (out2 / "mse.csv").read_bytes()
        comments, _, _ = read_csv(out2 / "mse.csv")
        assert any("master_seed = 556" in c for c in comments)

    def test_theory_slope_column_matches_slow_exponent(self, tmp_path):
        cfg = _write(tmp_path, "slow.cfg", RATES_SLOW_CFG)
        out = tmp_path / "out"
        assert main(["rates", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "ratefit.csv")
        slope_idx = header.index("theory_slope")
        for row in rows:
            if row[0] == "embedded":
                assert float(row[slope_idx]) == -0.75
            if row[0] == "theta_bar":
                assert float(row[slope_idx]) == -1.0

    def test_mse_theory_column_positive_and_decreasing(self, tmp_path):
        cfg = _write(tmp_path, "slow.cfg", RATES_SLOW_CFG)
        out = tmp_path / "out"
        assert main(["rates", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "mse.csv")
        t_idx, n_idx = header.index("theory_first_order"), header.index("n")
        emb = [(int(r[n_idx]), float(r[t_idx])) for r in rows if r[0] == "embedded"]
        assert all(x[1] > y[1] for x, y in zip(emb, emb[1:]))

    def test_fast_regime_at_b1_half_has_only_quantile_theory(self, tmp_path):
        # b = 1 with b1 <= 1/2 has no superquantile theory: its first-order
        # terms read n/a and the plot has no theory series.
        cfg = _write(tmp_path, "half.cfg", GOLDEN_CFG.replace("b1 = 1.0", "b1 = 0.5"))
        out = tmp_path / "out"
        assert main(["rates", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "mse.csv")
        theory = [(r[0], int(r[1]), r[header.index("theory_first_order")]) for r in rows]
        assert [(key, v) for key, _, v in theory if key != "theta_bar"] == [
            (key, "n/a") for key in ("embedded", "classical", "bardou") for _ in (10, 100)
        ]
        # alpha (1 - alpha) / (f^2 n) with f = 1
        assert [(n, float(v)) for key, n, v in theory if key == "theta_bar"] == [(10, 0.025), (100, 0.0025)]
        svg = (out / "rates.svg").read_text()
        assert ">theta_bar</text>" in svg and "embedded theory" not in svg


class TestCltCommand:
    def test_fast_regime_theory_columns(self, tmp_path):
        cfg = _write(tmp_path, "clt.cfg", CLT_FAST_CFG)
        out = tmp_path / "out"
        assert main(["clt", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "clt.csv")
        row = rows[0]
        assert float(row[header.index("s11_theory")]) == pytest.approx(0.25, rel=1e-12)
        assert float(row[header.index("s12_theory")]) == pytest.approx(0.125, rel=1e-12)
        assert float(row[header.index("s22_theory")]) == pytest.approx(0.3541667, abs=5e-8)
        assert (out / "clt.svg").exists()

    def test_slow_regime_marks_cross_covariance_na(self, tmp_path):
        text = CLT_FAST_CFG.replace("b = 1.0", "b = 0.75").replace(
            "a = 0.6666666666666666", "a = 0.6"
        )
        cfg = _write(tmp_path, "clt_slow.cfg", text)
        out = tmp_path / "out"
        assert main(["clt", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "clt.csv")
        assert rows[0][header.index("s12_theory")] == "n/a"

    def test_too_few_replicates_exit_2(self, tmp_path, capsys):
        text = CLT_FAST_CFG.replace("replicates = 60", "replicates = 4")
        cfg = _write(tmp_path, "clt_small.cfg", text)
        assert main(["clt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "replicates >= 30" in capsys.readouterr().err

    def test_single_replicate_rejected_at_config_level(self, tmp_path, capsys):
        text = CLT_FAST_CFG.replace("replicates = 60", "replicates = 1")
        cfg = _write(tmp_path, "clt_one.cfg", text)
        assert main(["clt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "replicates" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, message",
    [
        ("clt", "error: fast-regime covariance requires b1 > 1/2, got 0.5"),
        ("compare", "error: b_exp = 1 comparison requires b1 > 1/2, got 0.5"),
    ],
)
def test_fast_regime_b1_at_half_exits_2_before_the_run(tmp_path, capsys, monkeypatch, command, message):
    def run_experiment(*args, **kwargs):
        raise AssertionError("run_experiment called for a config the theory rejects")

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    cfg = _write(tmp_path, "half.cfg", CLT_FAST_CFG.replace("b1 = 1.0", "b1 = 0.5"))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "o").exists()


_HUGE_B1_CFG = CLT_FAST_CFG.replace("b1 = 1.0", "b1 = 1e308")

# f * f * n underflows to zero in the averaged-quantile bound.
_TINY_DENSITY_CFG = """\
dist = gaussian mean=2.2 stddev=1e12
alpha = 1e-300
a1 = 1e300
a = 0.6666666666666666
b1 = 1e-12
b = 0.75
n_grid = 3,10,50
replicates = 32
master_seed = 199
warm_start = true
"""


@pytest.mark.parametrize(
    "command, cfg_text",
    [
        # At b1 = 1e308, b1 * b1 overflows and the fast-regime theory reads inf / inf.
        ("asymptotics", None),
        ("clt", _HUGE_B1_CFG),
        ("compare", _HUGE_B1_CFG),
        ("rates", _HUGE_B1_CFG),
        ("rates", _TINY_DENSITY_CFG),
    ],
    ids=["asymptotics", "clt", "compare", "rates", "rates-tiny-density"],
)
def test_non_finite_theory_exits_2_before_the_run(tmp_path, capsys, monkeypatch, command, cfg_text):
    def run_experiment(*args, **kwargs):
        raise AssertionError("run_experiment called for a config whose theory is not finite")

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    if cfg_text is None:
        argv = ["--dist", "uniform:0,1", "--alpha", "0.5", "--a", "0.6", "--b", "1", "--b1", "1e308"]
    else:
        argv = ["--config", str(_write(tmp_path, "edge.cfg", cfg_text)), "--out", str(tmp_path / "o")]
    assert main([command, *argv]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: \w+ overflows float arithmetic\n", captured.err), captured.err
    assert "nan" not in captured.out
    assert not (tmp_path / "o").exists()


class TestCompareCommand:
    def test_compare_writes_rows_with_verdict(self, tmp_path):
        cfg = _write(tmp_path, "cmp.cfg", GOLDEN_CFG)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "compare.csv")
        assert header == ["n", "pair", "mse_ratio", "ci_low", "ci_high", "theory_verdict"]
        verdicts = {r[1]: r[5] for r in rows}
        assert verdicts["embedded/classical"] == "boundary"
        assert verdicts["classical/bardou"] == "tie"

    def test_single_variant_config_rejected(self, tmp_path, capsys):
        text = GOLDEN_CFG + "variants = embedded\n"
        cfg = _write(tmp_path, "one.cfg", text)
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


class TestAsymptoticsCommand:
    def test_prints_constants(self, capsys):
        code = main(
            ["asymptotics", "--dist", "uniform:0,1", "--alpha", "0.5",
             "--a", "0.6666666666666666", "--b", "1.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "quantile_clt_var = 0.25" in out
        assert "s2_22 = 0.3541666" in out
        assert "b1_threshold = 0.5" in out

    @pytest.mark.parametrize(
        "schedule, values",
        [
            (
                ("1.0", "0.6666666666666666", "1.0", "1.0"),
                ("0.25", "0.30208333333333337", "0.25", "0.125", "0.35416666666666674", "5.137280692261779",
                 "0.10416666666666674", "0.10416666666666674", "0.5", "1.1666666666666665", "1.3333333333333333"),
            ),
            # b1 <= 1/2: S^2 and C_alpha,b1 belong to the b = 1 regime, which needs b1 > 1/2.
            (
                ("1.0", "0.55", "0.3", "0.75"),
                ("0.25", "0.30208333333333337", "n/a", "n/a", "n/a", "n/a",
                 "0.10416666666666674", "0.01562500000000001", "0.5", "1.05", "0.875"),
            ),
        ],
        ids=["b1-above-half", "b1-below-half"],
    )
    def test_every_constant_on_stdout_and_in_csv(self, tmp_path, capsys, schedule, values):
        names = (
            "quantile_clt_var", "sq_var_slow", "s2_11", "s2_12", "s2_22", "c_alpha_b1", "tau_alpha_sq",
            "gamma_vartheta", "b1_threshold", "averaged_remainder_exponent", "embedded_remainder_exponent",
        )
        a1, a, b1, b = schedule
        argv = ["--dist", "uniform:0,1", "--alpha", "0.5", "--a1", a1, "--a", a, "--b1", b1, "--b", b]
        assert main(["asymptotics", *argv, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == "".join(f"{k} = {v}\n" for k, v in zip(names, values))
        assert (tmp_path / "asymptotics.csv").read_text() == (
            "# streamrisk asymptotics; dist = uniform lo=0.0 hi=1.0; alpha = 0.5; "
            f"a1 = {a1}; a = {a}; b1 = {b1}; b = {b}\n" + ",".join(names) + "\n" + ",".join(values) + "\n"
        )
        pinned = dict(zip(names, values))
        assert pinned["s2_11"] in (pinned["quantile_clt_var"], "n/a")

    def test_writes_csv(self, tmp_path):
        code = main(
            ["asymptotics", "--dist", "exponential:1.0", "--alpha", "0.9",
             "--a", "0.6", "--b", "0.75", "--out", str(tmp_path)]
        )
        assert code == 0
        _, header, rows = read_csv(tmp_path / "asymptotics.csv")
        val = float(rows[0][header.index("sq_var_slow")])
        assert val == pytest.approx(54.0818, rel=1e-4)


class TestCsvRoundTrip:
    def test_floats_round_trip_exactly(self, tmp_path):
        rows = [["a", 1, 0.1, 1 / 3, 1e-17, 123456.789012345]]
        text = render_csv(["name", "i", "x", "y", "z", "w"], rows)
        p = tmp_path / "t.csv"
        p.write_text(text)
        _, header, parsed = read_csv(p)
        assert parsed[0][0] == "a"
        assert int(parsed[0][1]) == 1
        for got, want in zip(parsed[0][2:], rows[0][2:]):
            assert float(got) == want

    def test_numpy_scalars_written_like_python_ones(self):
        assert fmt_value(np.int64(1000)) == "1000"
        assert fmt_value(np.uint8(7)) == "7"
        assert fmt_value(np.bool_(True)) == "true"
        assert fmt_value(np.bool_(False)) == "false"
        assert fmt_value(np.float64(0.1)) == "0.1"

    def test_comment_lines_preserved(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(render_csv(["x"], [[1.0]], comments=["hello world"]))
        comments, _, _ = read_csv(p)
        assert comments == ["hello world"]


def test_usage_error_exits_2():
    assert main(["rates"]) == 2


def test_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "dist, alpha, message",
    [
        # mean -/+ stddev rounds to the mean, so widening the bisection bracket hung.
        ("gaussian:-1,1e-300", "0.5", "stddev 1e-300 is below the float spacing at mean -1.0"),
        ("gaussian:0.5,1e-100", "1e-16", "stddev 1e-100 is below the float spacing at mean 0.5"),
        # The tail integrals read NaN, which printed with exit 0.
        ("gaussian:0,5e-324", "5e-324", "vartheta_alpha of Gaussian(mean=0.0, stddev=5e-324) at alpha = 5e-324 "
         "is nan by quadrature"),
    ],
)
def test_quadrature_oracle_out_of_float_range_exits_3(capsys, dist, alpha, message):
    assert main(["oracle", "--dist", dist, "--alpha", alpha]) == 3
    assert capsys.readouterr().err == f"runtime error: {message}\n"


# Values that sit at or past the edges of float arithmetic, for the property below.
_EDGE_NUMBERS = ["0", "-0", "5e-324", "1e-300", "-1e-300", "1e300", "-1e300", "1e308", "-1e308",
                 "nan", "inf", "-inf", "1", "-1", "0.5", "2.5"]
_NUMBER = (
    st.sampled_from(_EDGE_NUMBERS)
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.floats(0.01, 100.0).map(repr)
)
_ALPHA = st.sampled_from(["5e-324", "1e-300", "1e-16", "0.5", "0.9", "0.9999999999999999", "0", "1"]) | st.floats(
    0.0, 1.0
).map(repr)
_DIST = st.sampled_from([("gaussian", 2), ("exponential", 1), ("uniform", 2), ("pareto", 2)]).flatmap(
    lambda kind: st.lists(_NUMBER, min_size=kind[1], max_size=kind[1]).map(lambda p: f"{kind[0]}:{','.join(p)}")
)


@given(
    command=st.sampled_from(["oracle", "asymptotics"]),
    dist=_DIST,
    alpha=_ALPHA,
    a1=_NUMBER,
    a=st.sampled_from(["0.6", "0.6666666666666666", "0.99"]),
    b1=_NUMBER,
    b=st.sampled_from(["1", "0.75", "0.51"]),
)
@settings(max_examples=300, deadline=2000)
def test_edge_inputs_exit_cleanly(command, dist, alpha, a1, a, b1, b):
    # Every outcome is a success, a usage error or a runtime error with a
    # message, never an escaped exception, and a success prints no NaN.
    argv = [command, f"--dist={dist}", f"--alpha={alpha}"]
    if command == "asymptotics":
        argv += [f"--a1={a1}", f"--a={a}", f"--b1={b1}", f"--b={b}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (code, err.getvalue())
    if code == 0:
        assert "nan" not in out.getvalue(), out.getvalue()
    else:
        assert err.getvalue().startswith(("error: ", "runtime error: ")), err.getvalue()


def _run_edge_config(command, *fields):
    """Exit code, stderr and {name: text} of the files written by ``command``
    on a config of R = 32 over n 3, 10, 50 with ``fields``, in a temporary
    directory."""
    keys = ("dist", "alpha", "a1", "a", "b1", "b", "master_seed", "warm_start")
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out, err = Path(tmp) / "edge.cfg", Path(tmp) / "out", io.StringIO()
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in zip(keys, fields)) + "n_grid = 3,10,50\nreplicates = 32\n")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(out)])
        return code, err.getvalue(), {p.name: p.read_text() for p in sorted(out.glob("*"))}


@pytest.mark.parametrize(
    "command, fields, message",
    [
        # Every squared error is 0, so the ratios read 0/0.
        ("compare", ("gaussian mean=5e-324 stddev=1e-300", 0.9, 1.0, 0.6, 1.0, 0.75, 14),
         "mse_ratio at n = 3, pair = embedded/classical is nan"),
        # The squared errors overflow.
        ("rates", ("uniform lo=-1 hi=3", 1e-300, 1e300, 0.6, 1e-300, 0.999, 34), "mse at variant = theta_bar, n = 3 is inf"),
        # The jackknife's sum of squares overflows.
        ("clt", ("exponential rate=1e-100", 0.9, 1.0, 0.6, 1.0, 1, 175), "s22_se at n = 3 is inf"),
    ],
    ids=["compare", "rates", "clt"],
)
def test_non_finite_aggregate_exits_2_before_writing(command, fields, message):
    # pytest's filterwarnings makes a numpy warning fail the test.
    assert _run_edge_config(command, *fields, "true") == (2, f"error: {message}, not finite; nothing was written\n", {})


@given(
    command=st.sampled_from(["rates", "clt", "compare"]),
    dist=_DIST,
    alpha=_ALPHA,
    a1=_NUMBER,
    a=st.sampled_from(["0.6", "0.6666666666666666", "0.99"]),
    b1=_NUMBER,
    b=st.sampled_from(["1", "0.75", "0.51"]),
    seed=st.integers(0, 1000),
    warm=st.sampled_from(["true", "false"]),
)
# Faults this property found: a fast-regime S^2 that is not positive definite
# in float arithmetic failed in clt.svg after clt.csv was written, and b_n
# underflowing to 0 ended in a ZeroDivisionError traceback.
@example("clt", "exponential:2.0", "5e-324", "5e-324", "0.6", "1.0", "1", 0, "true")
@example("clt", "exponential:1.0", "5e-324", "5e-324", "0.6", "5e-324", "0.75", 0, "true")
@settings(max_examples=100, deadline=None)
def test_run_edge_inputs_exit_cleanly(command, dist, alpha, a1, a, b1, b, seed, warm):
    # As test_edge_inputs_exit_cleanly, for the run commands: a failure writes
    # nothing, and a success writes no NaN or infinity into a CSV.
    code, err, written = _run_edge_config(command, dist, alpha, a1, a, b1, b, seed, warm)
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        for name in ("mse.csv", "ratefit.csv", "clt.csv", "compare.csv"):
            rows = [line.split(",") for line in written.get(name, "").splitlines() if not line.startswith("#")]
            assert not {"nan", "inf", "-inf"} & {cell for row in rows for cell in row}, written[name]
    else:
        assert err.startswith(("error: ", "runtime error: ")) and err.count("\n") == 1, err
        assert written == {}, err
