"""Certified tail brackets against independent high-precision sums."""

import math

import mpmath
import pytest

from seqspaces import Bracket, DomainError, power_tail_bracket, zeta_bracket

mpmath.mp.dps = 40


def test_bracket_invariants():
    b = Bracket(1.0, 1.5)
    assert b.lo == 1.0 and b.hi == 1.5
    assert b.mid == 1.25 and b.width == 0.5
    assert b.contains(1.2) and not b.contains(1.6)
    e = Bracket.exact(2.0)
    assert e.lo == e.hi == e.mid == 2.0 and e.width == 0.0


def test_bracket_arithmetic():
    b = Bracket(4.0, 4.41)
    s = b.powed(0.5)
    assert s.lo <= 2.0 <= s.hi and s.lo >= 1.99
    sc = b.scaled(2.0)
    assert sc.lo == 8.0 and sc.hi == 8.82
    sh = b.shifted(1.0)
    assert sh.lo == 5.0 and sh.hi == 5.41


def test_zeta_values_high_precision():
    for s in (1.5, 2.0, 3.0, 4.0):
        b = zeta_bracket(s, width=1e-12)
        assert b.width <= 1e-12
        assert b.contains(float(mpmath.zeta(s)))


def test_tail_values_high_precision():
    # Hurwitz zeta(s, n+1) is exactly the tail past n.
    for s in (1.2, 2.0, 3.5):
        for n in (1, 10, 1000):
            b = power_tail_bracket(s, n, width=1e-13)
            assert b.width <= 1e-13
            assert b.contains(float(mpmath.zeta(s, n + 1)))


def test_tail_within_integral_bounds():
    # Crude integral comparison: int_{n+1}^inf x^-s dx <= tail <= int_n^inf.
    for s in (1.5, 2.0, 3.0):
        for n in (1, 5, 50):
            b = power_tail_bracket(s, n, width=1e-10)
            lo = (n + 1.0) ** (1.0 - s) / (s - 1.0)
            hi = float(n) ** (1.0 - s) / (s - 1.0)
            assert lo <= b.hi and b.lo <= hi


def test_width_request_honored():
    for width in (1e-6, 1e-9, 1e-13):
        b = zeta_bracket(2.0, width=width)
        assert b.width <= width
        assert b.contains(math.pi**2 / 6.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        power_tail_bracket(1.0, 10)  # divergent
    with pytest.raises(DomainError):
        power_tail_bracket(2.0, -1)
    with pytest.raises(DomainError):
        zeta_bracket(2.0, width=0.0)
    for width in (math.nan, math.inf):
        with pytest.raises(DomainError):
            power_tail_bracket(2.0, 10, width=width)
