"""Correctness checks on one benchmark round.

Each check compares the program's output with a computation made apart from
it, or with a property the method must have; none compares with a stored
copy of earlier output.  A failed check raises :class:`CheckError` naming
what differs.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import stats

# Order of the estimator fields in an ``estimators.run_stream`` checkpoint row.
ROW_KEYS = ("theta", "theta_bar", "embedded", "classical", "bardou")

# Finite-n bias allowed in the truth check, in estimator standard deviations
# (the spread across replicates).  The largest bias measured on the
# workloads' sizes is about 0.25 of that spread.
BIAS_SD = 0.5
# Chance that an unbiased estimate fails the truth check on noise alone.
FALSE_ALARM = 1e-6


class CheckError(Exception):
    """The program's output failed a benchmark check."""


def lane_identity(estimates: dict, lane: int, rows: Sequence[tuple], n_grid: Sequence[int]) -> None:
    """Engine lane ``lane`` equals the ``run_stream`` rows, bit for bit."""
    if [row[0] for row in rows] != list(n_grid):
        raise CheckError(f"lane {lane}: run_stream checkpoints {[r[0] for r in rows]} != {list(n_grid)}")
    for k, row in enumerate(rows):
        for key, ref in zip(ROW_KEYS, row[1:]):
            got = float(estimates[key][k, lane])
            if got.hex() != float(ref).hex():
                raise CheckError(
                    f"lane {lane}, n = {row[0]}, {key}: engine {got!r} != run_stream {ref!r}"
                )


def same_estimates(got: dict, want: dict, label: str) -> None:
    """Every estimator array in ``got`` equals the one in ``want`` exactly."""
    for key in ROW_KEYS:
        if got[key].shape != want[key].shape or not np.array_equal(got[key], want[key]):
            raise CheckError(f"{label}: {key} differs")


def truth(values: np.ndarray, target: float, label: str) -> float:
    """The replicate mean lies within a spread-based tolerance of ``target``.

    The tolerance is ``BIAS_SD`` standard deviations of the estimator plus
    the Student-t noise band of the mean at ``FALSE_ALARM``.  Returns the
    deviation in standard deviations.
    """
    r = values.shape[0]
    sd = float(values.std(ddof=1))
    dev = float(values.mean()) - target
    tol = sd * (BIAS_SD + stats.t.isf(FALSE_ALARM / 2, r - 1) / math.sqrt(r))
    if not abs(dev) <= tol:
        raise CheckError(
            f"{label}: mean {values.mean()!r} is {dev / sd:+.3f} sd from truth {target!r} "
            f"(tolerance {tol / sd:.3f} sd over {r} replicates)"
        )
    return dev / sd


def close(got: float, want: float, rel: float, label: str, scale: float | None = None) -> None:
    """``|got - want| <= rel * scale`` with ``scale`` defaulting to ``|want|``."""
    ref = abs(want) if scale is None else scale
    if not abs(got - want) <= rel * ref:
        raise CheckError(f"{label}: {got!r} != {want!r} (relative tolerance {rel:g})")


def oracle_agrees(oracle, theta: float, vartheta: float, rel: float, label: str) -> None:
    close(oracle.theta_alpha, theta, rel, f"{label} theta_alpha")
    close(oracle.vartheta_alpha, vartheta, rel, f"{label} vartheta_alpha")


def mse_falls(values: np.ndarray, target: float, label: str) -> None:
    """Mean squared error at the last checkpoint is below the first one's.

    ``values`` has shape (checkpoints, replicates).
    """
    mse = ((values - target) ** 2).mean(axis=1)
    if not mse[-1] < mse[0]:
        raise CheckError(f"{label}: mse {mse[-1]!r} at the last checkpoint >= {mse[0]!r} at the first")


def ci_brackets(ratio: float, low: float, high: float, label: str) -> None:
    if not low <= ratio <= high:
        raise CheckError(f"{label}: ratio {ratio!r} outside its CI [{low!r}, {high!r}]")


def covariance(cov: np.ndarray, label: str) -> None:
    """Symmetric exactly and positive semidefinite up to rounding."""
    if cov.shape != (2, 2) or not np.array_equal(cov, cov.T):
        raise CheckError(f"{label}: covariance is not symmetric: {cov.tolist()}")
    eig = np.linalg.eigvalsh(cov)
    if not eig[0] >= -1e-12 * max(abs(eig[-1]), 1e-300):
        raise CheckError(f"{label}: covariance is not positive semidefinite, eigenvalues {eig.tolist()}")


def csv_table(read_csv, path: Path, header: Sequence[str], n_rows: int) -> list[list[str]]:
    """Parse ``path`` with ``read_csv``; require ``header`` and ``n_rows`` full rows."""
    try:
        _, got_header, rows = read_csv(path)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from None
    if got_header != list(header):
        raise CheckError(f"{path.name}: header {got_header} != {list(header)}")
    if len(rows) != n_rows:
        raise CheckError(f"{path.name}: {len(rows)} rows, expected {n_rows}")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise CheckError(f"{path.name}: row {i} has {len(row)} fields, expected {len(header)}")
    return rows


def svg(path: Path) -> None:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        raise CheckError(f"{path.name}: {exc}") from None
    if not root.tag.endswith("svg"):
        raise CheckError(f"{path.name}: root element is {root.tag}, not svg")


def same_bytes(path: Path, want: bytes) -> None:
    if path.read_bytes() != want:
        raise CheckError(f"{path.name}: differs from the first round's bytes")
