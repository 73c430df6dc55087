"""Streaming recursions for joint quantile/superquantile estimation.

One observation drives all estimators at once (common random numbers):

* ``theta``        Robbins-Monro quantile iterate,
* ``theta_bar``    its Cesaro (Polyak-Ruppert) average,
* ``sq_embedded``  superquantile recursion whose indicator reads the *averaged*
                   quantile iterate (the pre-update ``theta_bar``),
* ``sq_classical`` same recursion with the raw iterate ``theta``,
* ``sq_bardou``    convexified update ``L(theta, x) = theta + (x-theta)/(1-alpha) * 1{x > theta}``.

Indicator conventions are fixed: the quantile update uses the closed event
``x <= theta`` while the superquantile targets use the open ``x > threshold``.
The update consuming an observation at pre-update counter ``n`` uses gains
``gain_a(max(n, 1))`` and ``gain_b(n)``.

The compiled replicate kernel of :mod:`streamrisk.experiments` matches the
arithmetic below operation for operation, so single-stream and replicate-block
execution are bit-identical.  It reads the gains and the Cesaro weights
``n / (n + 1)`` and ``1 / (n + 1)`` from a per-chunk table that it fills with
libm's ``pow``, the function Python's float ``**`` calls, so every entry
equals the value computed here.  Where the kernel cannot be built, the
replicate engine folds :func:`run_stream` itself over each replicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .schedules import StepSchedule, require_chain

TraceRow = tuple[int, float, float, float, float, float]


@dataclass
class JointEstimatorState:
    alpha: float
    schedule: StepSchedule
    n: int
    theta: float
    theta_bar: float
    sq_embedded: float
    sq_classical: float
    sq_bardou: float


def init(alpha: float, schedule: StepSchedule, theta0: float, sq0: float) -> JointEstimatorState:
    """Fresh state at counter 0 with all superquantile fields at ``sq0``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    require_chain(schedule)
    if not (math.isfinite(theta0) and math.isfinite(sq0)):
        raise ValueError("theta0 and sq0 must be finite")
    return JointEstimatorState(
        alpha=alpha,
        schedule=schedule,
        n=0,
        theta=theta0,
        theta_bar=theta0,
        sq_embedded=sq0,
        sq_classical=sq0,
        sq_bardou=sq0,
    )


def step(state: JointEstimatorState, x: float) -> JointEstimatorState:
    """Consume one observation, updating the state in place.

    Non-finite observations are rejected before any field changes.
    """
    if not math.isfinite(x):
        raise ValueError(f"non-finite observation {x!r}")
    n = state.n
    schedule = state.schedule
    alpha = state.alpha
    a_n = schedule.gain_a(n if n >= 1 else 1)
    b_n = schedule.gain_b(n)
    inv1ma = 1.0 / (1.0 - alpha)

    theta_old = state.theta
    tbar_old = state.theta_bar
    ind_bar = 1.0 if x > tbar_old else 0.0
    ind_th = 1.0 if x > theta_old else 0.0
    ind_q = 1.0 if x <= theta_old else 0.0

    theta = (theta_old - ind_q * a_n) + a_n * alpha

    cn = n / (n + 1)
    cn1 = 1.0 / (n + 1)
    theta_bar = tbar_old * cn + theta * cn1

    scale = b_n * inv1ma
    sq_embedded = state.sq_embedded * (1.0 - b_n) + (x * ind_bar) * scale
    sq_classical = state.sq_classical * (1.0 - b_n) + (x * ind_th) * scale
    bardou_target = ((x - theta_old) * inv1ma) * ind_th + theta_old
    sq_bardou = state.sq_bardou * (1.0 - b_n) + bardou_target * b_n

    state.theta = theta
    state.theta_bar = theta_bar
    state.sq_embedded = sq_embedded
    state.sq_classical = sq_classical
    state.sq_bardou = sq_bardou
    state.n = n + 1
    return state


def run_stream(
    state: JointEstimatorState,
    observations: Iterable[float],
    checkpoints: Sequence[int] | None = None,
):
    """Fold :func:`step` over ``observations``.

    Returns the final state; when ``checkpoints`` is given, returns
    ``(state, rows)`` where each row is
    ``(n, theta, theta_bar, sq_embedded, sq_classical, sq_bardou)`` captured
    right after the counter reaches a checkpoint value.  A checkpoint at or
    below the counter at the call can never be reached and raises ValueError.
    """
    wanted = sorted({int(c) for c in checkpoints or ()})
    if wanted and wanted[0] <= state.n:
        raise ValueError(
            f"checkpoint {wanted[0]} is not after the state's counter n = {state.n}"
        )
    rows: list[TraceRow] = []
    pos = 0
    for i, x in enumerate(observations):
        try:
            step(state, x)
        except ValueError as exc:
            raise ValueError(f"observation {i}: {exc}") from exc
        if pos < len(wanted) and state.n == wanted[pos]:
            rows.append((state.n, state.theta, state.theta_bar,
                         state.sq_embedded, state.sq_classical, state.sq_bardou))
            pos += 1
    return state if checkpoints is None else (state, rows)
