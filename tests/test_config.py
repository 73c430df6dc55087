"""Config files and distribution specs: every ConfigError that config.py
raises, the two spellings of a spec, and configs read back from the summary
line that heads every CSV."""

import re

import pytest
from hypothesis import given, settings, strategies as st

import streamrisk as sr
from streamrisk.cli import main
from streamrisk.config import (
    ConfigError,
    config_summary,
    experiment_config_from_mapping,
    format_distribution,
    load_experiment_config,
    parse_distribution,
    parse_kv_text,
)
from streamrisk.experiments import VARIANT_KEYS, ExperimentConfig
from streamrisk.schedules import StepSchedule

CONFIG = {
    "dist": "uniform lo=0 hi=1",
    "alpha": "0.5",
    "a1": "1",
    "a": "0.6",
    "b1": "1",
    "b": "1",
    "n_grid": "10,100",
    "replicates": "4",
    "master_seed": "7",
}


def _config(fields):
    return experiment_config_from_mapping({**CONFIG, **fields})


# With the two load_experiment_config tests below, one case per ConfigError
# raise in config.py, in the order of the source.
REJECTED = [
    (parse_distribution, "  ", "empty distribution spec"),
    (parse_distribution, "cauchy:0,1", "unknown distribution kind 'cauchy'"),
    (parse_distribution, "gaussian:0", "gaussian takes 2 parameters ('mean', 'stddev'), got 1"),
    (parse_distribution, "gaussian mean=0 stddev", "expected name=value in distribution spec, got 'stddev'"),
    (parse_distribution, "pareto scale=1 rate=3", "pareto has no parameter 'rate' (expected ('scale', 'shape'))"),
    (parse_distribution, "gaussian mean=0 stddev=1 stddev=2", "gaussian spec repeats parameter 'stddev'"),
    (parse_distribution, "uniform lo=0", "uniform spec is missing parameters: ['hi']"),
    (parse_distribution, "exponential:-1", "invalid exponential parameters: rate must be positive, got -1.0"),
    (format_distribution, "not a model", "unsupported model 'not a model'"),
    (parse_kv_text, "# c\n\nalpha 0.5", "line 3: expected 'key = value', got 'alpha 0.5'"),
    (parse_kv_text, "a = 1\na = 2", "line 2: duplicate key 'a'"),
    (parse_distribution, "gaussian:0,x", "gaussian parameter: expected a number, got 'x'"),
    (_config, {"replicates": "4.5"}, "replicates: expected an integer, got '4.5'"),
    (_config, {"warm_start": "yes"}, "warm_start: expected true or false, got 'yes'"),
    (experiment_config_from_mapping, {"dist": "uniform:0,1"}, "config is missing required keys: ['alpha', "),
    (_config, {"seed": "1"}, "config has unknown keys: ['seed']"),
    (_config, {"b": "0.4"}, "invalid schedule: b_exp must lie in (1/2, 1], got 0.4"),
    (_config, {"alpha": "1.5"}, "alpha must lie in (0,1), got 1.5"),
]


@pytest.mark.parametrize("function, argument, message", REJECTED)
def test_rejected_with_its_message(function, argument, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        function(argument)


def test_unreadable_config_names_its_path(tmp_path):
    with pytest.raises(ConfigError, match=f"^cannot read config {re.escape(str(tmp_path / 'nope.cfg'))}: "):
        load_experiment_config(tmp_path / "nope.cfg")


def test_config_error_names_its_file(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("alpha = 0.5\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: config is missing required keys"):
        load_experiment_config(path)


@pytest.mark.parametrize(
    "colon, keyword, model, text",
    [
        ("gaussian:0,1", "gaussian stddev=1 mean=0", sr.Gaussian(0.0, 1.0), "gaussian mean=0.0 stddev=1.0"),
        ("Exponential: 1.5", "exponential rate=1.5", sr.Exponential(1.5), "exponential rate=1.5"),
        ("uniform:-1,2,", "  UNIFORM lo=-1 hi=2 ", sr.Uniform(-1.0, 2.0), "uniform lo=-1.0 hi=2.0"),
        ("pareto:1, 2.2", "pareto scale=1 shape=2.2", sr.Pareto(1.0, 2.2), "pareto scale=1.0 shape=2.2"),
    ],
)
def test_both_spellings_build_one_model(colon, keyword, model, text):
    assert parse_distribution(colon) == parse_distribution(keyword) == model
    assert format_distribution(model) == text
    assert parse_distribution(text) == model


def test_cli_refuses_a_repeated_parameter(capsys):
    assert main(["oracle", "--dist", "gaussian mean=0 stddev=1 stddev=2", "--alpha", "0.9"]) == 2
    assert capsys.readouterr().err == "error: gaussian spec repeats parameter 'stddev'\n"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_refuses_a_seed_out_of_range(tmp_path, capsys, seed):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in CONFIG.items()))
    assert main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o"), f"--seed={seed}"]) == 2
    assert capsys.readouterr().err == f"error: master_seed must be a 64-bit unsigned integer, got {seed}\n"
    assert not (tmp_path / "o").exists()


_finite = dict(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=1e-300, max_value=1e300, **_finite)


@st.composite
def _models(draw):
    kind = draw(st.sampled_from(["gaussian", "exponential", "uniform", "pareto"]))
    if kind == "gaussian":
        return sr.Gaussian(draw(st.floats(**_finite)), draw(_positive))
    if kind == "exponential":
        return sr.Exponential(draw(_positive))
    if kind == "uniform":
        lo, hi = sorted(draw(st.lists(st.floats(**_finite), min_size=2, max_size=2, unique=True)))
        return sr.Uniform(lo, hi)
    return sr.Pareto(draw(_positive), draw(st.floats(min_value=2.0, exclude_min=True, **_finite)))


_open_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@st.composite
def _configs(draw):
    schedule = StepSchedule(
        a1=draw(_positive),
        a_exp=draw(_open_unit),
        b1=draw(_positive),
        b_exp=draw(st.floats(min_value=0.5, max_value=1.0, exclude_min=True)),
    )
    return ExperimentConfig(
        model=draw(_models()),
        alpha=draw(_open_unit),
        schedule=schedule,
        n_grid=tuple(sorted(draw(st.sets(st.integers(1, 10**12), min_size=1, max_size=5)))),
        replicates=draw(st.integers(2, 10**9)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        warm_start=draw(st.booleans()),
        variants=tuple(draw(st.sets(st.sampled_from(VARIANT_KEYS), min_size=1))),
        experiment_id=draw(st.integers(0, 10**9)),
    )


@given(_configs())
@settings(max_examples=300, deadline=None)
def test_summary_reads_back_as_its_config(cfg):
    summary = config_summary(cfg)
    assert experiment_config_from_mapping(parse_kv_text(summary.replace("; ", "\n"))) == cfg
