"""Flat `key = value` experiment configs and distribution spec parsing.

The on-disk format is one assignment per line, `#` for comment lines, no
nesting.  Distributions are written either keyword-style
(``exponential rate=1.0``) as used in config files, or colon-style
(``exponential:1.0``) as used on the command line.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Mapping

from .distributions import DistributionModel, Exponential, Gaussian, Pareto, Uniform
from .experiments import VARIANT_KEYS, ExperimentConfig
from .schedules import StepSchedule


class ConfigError(ValueError):
    """Malformed config file, flag value, or distribution spec."""


# Each kind's model; its parameters are the model's dataclass fields, in order.
_DIST_FIELDS: dict[str, type] = {"gaussian": Gaussian, "exponential": Exponential, "uniform": Uniform, "pareto": Pareto}


def parse_distribution(text: str) -> DistributionModel:
    """The model of ``kind:v1,v2`` (values in field order) or ``kind name=value ...``."""
    s = text.strip()
    if not s:
        raise ConfigError("empty distribution spec")
    colon = ":" in s and "=" not in s
    if colon:
        kind, _, rest = s.partition(":")
        words = [p for p in rest.split(",") if p.strip()]
    else:
        kind, *words = s.split()
    kind = kind.strip().lower()
    if kind not in _DIST_FIELDS:
        raise ConfigError(f"unknown distribution kind {kind!r}")
    cls = _DIST_FIELDS[kind]
    fields = tuple(f.name for f in dataclasses.fields(cls))
    if colon and len(words) != len(fields):
        raise ConfigError(f"{kind} takes {len(fields)} parameters {fields}, got {len(words)}")
    kwargs: dict[str, float] = {}
    for k, word in enumerate(words):
        if colon:
            name, value = fields[k], word
        elif "=" not in word:
            raise ConfigError(f"expected name=value in distribution spec, got {word!r}")
        else:
            name, _, value = word.partition("=")
        if name not in fields:
            raise ConfigError(f"{kind} has no parameter {name!r} (expected {fields})")
        if name in kwargs:
            raise ConfigError(f"{kind} spec repeats parameter {name!r}")
        kwargs[name] = _parse_float(value, f"{kind} parameter" if colon else f"{kind}.{name}")
    missing = [f for f in fields if f not in kwargs]
    if missing:
        raise ConfigError(f"{kind} spec is missing parameters: {missing}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {kind} parameters: {exc}") from exc


def format_distribution(model: DistributionModel) -> str:
    for kind, cls in _DIST_FIELDS.items():
        if isinstance(model, cls):
            params = " ".join(f"{f.name}={getattr(model, f.name)!r}" for f in dataclasses.fields(cls))
            return f"{kind} {params}"
    raise ConfigError(f"unsupported model {model!r}")


def parse_kv_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{what}: expected a number, got {text!r}") from None


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{what}: expected an integer, got {text!r}") from None


def _parse_bool(text: str, what: str) -> bool:
    low = text.strip().lower()
    if low == "true":
        return True
    if low == "false":
        return False
    raise ConfigError(f"{what}: expected true or false, got {text!r}")


_REQUIRED = ("dist", "alpha", "a1", "a", "b1", "b", "n_grid", "replicates", "master_seed")
_OPTIONAL = ("warm_start", "variants", "experiment_id")


def experiment_config_from_mapping(kv: Mapping[str, str]) -> ExperimentConfig:
    missing = [k for k in _REQUIRED if k not in kv]
    if missing:
        raise ConfigError(f"config is missing required keys: {missing}")
    unknown = [k for k in kv if k not in _REQUIRED + _OPTIONAL]
    if unknown:
        raise ConfigError(f"config has unknown keys: {unknown}")
    model = parse_distribution(kv["dist"])
    try:
        schedule = StepSchedule(
            a1=_parse_float(kv["a1"], "a1"),
            a_exp=_parse_float(kv["a"], "a"),
            b1=_parse_float(kv["b1"], "b1"),
            b_exp=_parse_float(kv["b"], "b"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid schedule: {exc}") from exc
    n_grid = tuple(
        _parse_int(p, "n_grid entry") for p in kv["n_grid"].split(",") if p.strip()
    )
    variants = tuple(
        p.strip() for p in kv.get("variants", ",".join(VARIANT_KEYS)).split(",") if p.strip()
    )
    try:
        return ExperimentConfig(
            model=model,
            alpha=_parse_float(kv["alpha"], "alpha"),
            schedule=schedule,
            n_grid=n_grid,
            replicates=_parse_int(kv["replicates"], "replicates"),
            master_seed=_parse_int(kv["master_seed"], "master_seed"),
            warm_start=_parse_bool(kv.get("warm_start", "false"), "warm_start"),
            variants=variants,
            experiment_id=_parse_int(kv.get("experiment_id", "0"), "experiment_id"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        return experiment_config_from_mapping(parse_kv_text(text))
    except ConfigError as exc:
        raise ConfigError(f"{p}: {exc}") from exc


def config_summary(config: ExperimentConfig) -> str:
    """One-line resolved config for embedding in output file headers."""
    parts = [
        f"dist = {format_distribution(config.model)}",
        f"alpha = {config.alpha!r}",
        f"a1 = {config.schedule.a1!r}",
        f"a = {config.schedule.a_exp!r}",
        f"b1 = {config.schedule.b1!r}",
        f"b = {config.schedule.b_exp!r}",
        "n_grid = " + ",".join(str(n) for n in config.n_grid),
        f"replicates = {config.replicates}",
        f"master_seed = {config.master_seed}",
        f"warm_start = {str(config.warm_start).lower()}",
        "variants = " + ",".join(config.variants),
        f"experiment_id = {config.experiment_id}",
    ]
    return "; ".join(parts)
