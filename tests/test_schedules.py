import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from streamrisk.schedules import StepSchedule, validate


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


def test_validate_fast_regime_all_ok():
    # min((1 + 2/3)/2, 5/2 - 2/3) = 5/6 and 1 > 5/6
    rep = validate(StepSchedule(a1=1.0, a_exp=2 / 3, b1=1.0, b_exp=1.0))
    assert rep.chain_ok
    assert rep.fast_rate_b1_ok is True
    assert rep.fast_clt_b1_ok is True
    assert not rep.failures


def test_validate_chain_fail_low_a():
    rep = validate(StepSchedule(a1=1.0, a_exp=0.4, b1=1.0, b_exp=0.8))
    assert not rep.chain_ok
    assert any("a_exp > 1/2" in f for f in rep.failures)


def test_validate_chain_fail_ordering():
    rep = validate(StepSchedule(a1=1.0, a_exp=0.7, b1=1.0, b_exp=0.6))
    assert not rep.chain_ok
    assert any("a_exp < b_exp" in f for f in rep.failures)


def test_validate_fast_b1_conditions():
    rep = validate(StepSchedule(a1=1.0, a_exp=2 / 3, b1=0.6, b_exp=1.0))
    assert rep.chain_ok
    assert rep.fast_rate_b1_ok is False  # 0.6 < 5/6
    assert rep.fast_clt_b1_ok is True
    slow = validate(StepSchedule(a1=1.0, a_exp=0.6, b1=0.6, b_exp=0.75))
    assert slow.fast_rate_b1_ok is None and slow.fast_clt_b1_ok is None


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


def test_validate_is_pure():
    s = StepSchedule(a1=1.0, a_exp=0.7, b1=0.6, b_exp=1.0)
    assert validate(s) == validate(s)
