import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from streamrisk.schedules import StepSchedule, require_chain, unmet


def test_gain_a_base_case():
    s = StepSchedule(a1=1.0, a_exp=2 / 3, b1=1.0, b_exp=1.0)
    assert s.gain_a(1) == 1.0


def test_gain_a_power_of_two():
    s = StepSchedule(a1=1.0, a_exp=2 / 3, b1=1.0, b_exp=1.0)
    assert s.gain_a(8) == pytest.approx(0.25, rel=1e-15)


def test_gain_a_high_precision_cross_check():
    s = StepSchedule(a1=0.5, a_exp=0.6, b1=1.0, b_exp=0.8)
    expected = float(mpmath.mpf("0.5") * mpmath.power(1000, mpmath.mpf("-0.6")))
    assert s.gain_a(1000) == pytest.approx(expected, rel=1e-14)


def test_gain_a_rejects_n_zero():
    s = StepSchedule(a1=1.0, a_exp=0.6, b1=1.0, b_exp=0.8)
    with pytest.raises(ValueError):
        s.gain_a(0)


def test_gain_b_values():
    s = StepSchedule(a1=1.0, a_exp=0.6, b1=1.0, b_exp=1.0)
    assert s.gain_b(0) == 1.0
    assert s.gain_b(3) == 0.25
    s2 = StepSchedule(a1=1.0, a_exp=0.6, b1=2.0, b_exp=0.75)
    assert s2.gain_b(15) == pytest.approx(0.25, rel=1e-15)


def test_gain_b_rejects_negative_n():
    s = StepSchedule(a1=1.0, a_exp=0.6, b1=1.0, b_exp=0.8)
    with pytest.raises(ValueError):
        s.gain_b(-1)


def test_construction_domains():
    with pytest.raises(ValueError):
        StepSchedule(a1=0.0, a_exp=0.6, b1=1.0, b_exp=0.8)
    with pytest.raises(ValueError):
        StepSchedule(a1=1.0, a_exp=0.6, b1=-1.0, b_exp=0.8)
    with pytest.raises(ValueError):
        StepSchedule(a1=1.0, a_exp=1.0, b1=1.0, b_exp=1.0)
    with pytest.raises(ValueError):
        StepSchedule(a1=1.0, a_exp=0.6, b1=1.0, b_exp=0.5)
    with pytest.raises(ValueError):
        StepSchedule(a1=1.0, a_exp=0.6, b1=1.0, b_exp=1.0001)


def test_unmet_fast_regime_all_met():
    # min((1 + 2/3)/2, 5/2 - 2/3) = 5/6 and 1 > 5/6
    assert unmet(StepSchedule(a1=1.0, a_exp=2 / 3, b1=1.0, b_exp=1.0)) == {}


def test_unmet_chain_low_a():
    failed = unmet(StepSchedule(a1=1.0, a_exp=0.4, b1=1.0, b_exp=0.8))
    assert failed == {"chain": "chain requires a_exp > 1/2, got a_exp=0.4"}


def test_unmet_chain_ordering():
    failed = unmet(StepSchedule(a1=1.0, a_exp=0.7, b1=1.0, b_exp=0.6))
    assert failed == {"chain": "chain requires a_exp < b_exp, got a_exp=0.7, b_exp=0.6"}
    with pytest.raises(ValueError, match="^schedule violates the exponent chain 1/2 < a < b <= 1: chain requires"):
        require_chain(StepSchedule(a1=1.0, a_exp=0.7, b1=1.0, b_exp=0.6))


def test_unmet_fast_b1_conditions():
    failed = unmet(StepSchedule(a1=1.0, a_exp=2 / 3, b1=0.6, b_exp=1.0))
    assert failed == {"rate": "fast-regime rate bound requires b1 > 0.8333333333333333, got b1=0.6"}
    both = unmet(StepSchedule(a1=1.0, a_exp=2 / 3, b1=0.5, b_exp=1.0))
    assert list(both) == ["rate", "clt"]
    assert both["clt"] == "fast-regime CLT requires b1 > 1/2, got b1=0.5"
    # b < 1 reports no b1 condition, whatever b1.
    for b1 in (0.05, 0.5, 0.6):
        assert unmet(StepSchedule(a1=1.0, a_exp=0.6, b1=b1, b_exp=0.75)) == {}


@pytest.mark.parametrize("a_exp, threshold", [(2 / 3, 0.8333333333333333), (0.9, 0.95)])
def test_unmet_rate_condition_is_strict(a_exp, threshold):
    # b1 equal to min((1 + a)/2, 5/2 - a) fails the rate condition; the next float above meets it.
    assert threshold == min((1.0 + a_exp) / 2.0, 2.5 - a_exp)
    assert "rate" in unmet(StepSchedule(a1=1.0, a_exp=a_exp, b1=threshold, b_exp=1.0))
    assert unmet(StepSchedule(a1=1.0, a_exp=a_exp, b1=math.nextafter(threshold, 2.0), b_exp=1.0)) == {}


@given(
    a1=st.floats(0.05, 10.0),
    a_exp=st.floats(0.51, 0.99),
    n=st.integers(1, 10**7),
)
def test_gain_a_strictly_decreasing(a1, a_exp, n):
    s = StepSchedule(a1=a1, a_exp=a_exp, b1=1.0, b_exp=1.0)
    assert s.gain_a(n) > s.gain_a(n + 1)


@given(
    b1=st.floats(0.05, 10.0),
    b_exp=st.floats(0.51, 1.0),
    n=st.integers(0, 10**7),
)
def test_gain_b_non_increasing(b1, b_exp, n):
    s = StepSchedule(a1=1.0, a_exp=0.505, b1=b1, b_exp=b_exp)
    assert s.gain_b(n) >= s.gain_b(n + 1)


@given(
    a1=st.floats(0.05, 10.0),
    a_exp=st.floats(0.51, 0.99),
    n=st.integers(1, 5 * 10**6),
)
def test_gain_a_doubling_ratio(a1, a_exp, n):
    s = StepSchedule(a1=a1, a_exp=a_exp, b1=1.0, b_exp=1.0)
    ratio = s.gain_a(n) / s.gain_a(2 * n)
    target = 2.0**a_exp
    assert abs(ratio - target) <= 4 * math.ulp(target)


def test_unmet_is_pure():
    s = StepSchedule(a1=1.0, a_exp=0.7, b1=0.6, b_exp=1.0)
    assert unmet(s) == unmet(s)
