"""Power-law gain sequences for the quantile and superquantile recursions.

The quantile update at step n uses ``a_n = a1 * n**(-a)`` (n >= 1) and the
superquantile update uses ``b_n = b1 * (n + 1)**(-b)`` (n >= 0).  The shift
inside ``b_n`` is deliberate and preserved verbatim; callers always pass the
same raw step counter to both gains.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StepSchedule:
    """Gain-sequence parameters (a1, a_exp) for the quantile and (b1, b_exp)
    for the superquantile.

    Construction enforces the per-field domains (a1, b1 > 0, a_exp in (0, 1),
    b_exp in (1/2, 1]).  The joint chain 1/2 < a_exp < b_exp <= 1 and the
    theorems' conditions on b1 are *reported* by :func:`unmet`, not enforced,
    so that the asymptotics calculator takes any schedule; a run refuses a
    broken chain through :func:`require_chain`, and every command writes
    ``n/a`` for a theory value whose hypothesis the schedule fails.
    """

    a1: float
    a_exp: float
    b1: float
    b_exp: float

    def __post_init__(self) -> None:
        if not self.a1 > 0:
            raise ValueError(f"a1 must be positive, got {self.a1}")
        if not self.b1 > 0:
            raise ValueError(f"b1 must be positive, got {self.b1}")
        if not 0.0 < self.a_exp < 1.0:
            raise ValueError(f"a_exp must lie in (0, 1), got {self.a_exp}")
        if not 0.5 < self.b_exp <= 1.0:
            raise ValueError(f"b_exp must lie in (1/2, 1], got {self.b_exp}")

    def gain_a(self, n: int) -> float:
        """Quantile gain a_n = a1 * n**(-a_exp); defined for n >= 1 only."""
        if n < 1:
            raise ValueError(f"gain_a requires n >= 1, got {n}")
        return self.a1 * float(n) ** (-self.a_exp)

    def gain_b(self, n: int) -> float:
        """Superquantile gain b_n = b1 * (n + 1)**(-b_exp); defined for n >= 0."""
        if n < 0:
            raise ValueError(f"gain_b requires n >= 0, got {n}")
        return self.b1 * float(n + 1) ** (-self.b_exp)


def unmet(schedule: StepSchedule) -> dict[str, str]:
    """Map each of the paper's hypotheses that ``schedule`` fails to its
    message; an empty dict when every one holds.

    ``chain`` is 1/2 < a_exp < b_exp <= 1.  In the fast regime b_exp == 1
    only, ``rate`` is the non-asymptotic MSE bounds' b1 > min((1 + a_exp)/2,
    5/2 - a_exp) and ``clt`` the diffusion-approximation CLT's b1 > 1/2.
    """
    failed: dict[str, str] = {}
    chain = []
    if schedule.a_exp <= 0.5:
        chain.append(f"chain requires a_exp > 1/2, got a_exp={schedule.a_exp}")
    if schedule.a_exp >= schedule.b_exp:
        chain.append(f"chain requires a_exp < b_exp, got a_exp={schedule.a_exp}, b_exp={schedule.b_exp}")
    if chain:
        failed["chain"] = "; ".join(chain)
    if schedule.b_exp == 1.0:
        threshold = min((1.0 + schedule.a_exp) / 2.0, 2.5 - schedule.a_exp)
        if not schedule.b1 > threshold:
            failed["rate"] = f"fast-regime rate bound requires b1 > {threshold}, got b1={schedule.b1}"
        if not schedule.b1 > 0.5:
            failed["clt"] = f"fast-regime CLT requires b1 > 1/2, got b1={schedule.b1}"
    return failed


def require_chain(schedule: StepSchedule) -> None:
    """Refuse a schedule that breaks the exponent chain 1/2 < a < b <= 1 with
    a ValueError listing every hypothesis it fails (:func:`unmet`): the one
    admission rule of the replicate engine and the scalar reference."""
    failed = unmet(schedule)
    if "chain" in failed:
        raise ValueError("schedule violates the exponent chain 1/2 < a < b <= 1: " + "; ".join(failed.values()))
