"""Certified tail brackets against independent high-precision sums."""

import math
import tracemalloc

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqspaces import Bracket, DomainError, power_tail_bracket, series, zeta_bracket
from seqspaces.series import EulerMaclaurin

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


# -- the closed-form block sum_{n < i <= m} i^(-p) -------------------------


def _hurwitz_block(p, n, m):
    """sum_{n < i <= m} i^(-p) as a difference of Hurwitz zeta values, 40 digits.

    mpmath's zeta(p, n + 1) can lose as many digits as (n+1)^(-p) is below 1
    (at 40 digits, zeta(14, 305) is off in its 16th), so the working
    precision grows with p log10(n+1).
    """
    with mpmath.workdps(40 + math.ceil(p * math.log10(n + 1))):
        P = mpmath.mpf(p)
        return +(mpmath.zeta(P, n + 1) - mpmath.zeta(P, m + 1))


def _contains_up_to_rounding(b, ref):
    # The endpoints are rounded to nearest, not outward (ROADMAP open item
    # 1), so the true value is only known to lie within a few roundings of
    # them: zeta(3) and zeta(16) lie above the float both ends of their
    # brackets round to.
    return b.lo - 4 * math.ulp(b.lo) <= ref <= b.hi + 4 * math.ulp(b.hi)


def test_euler_maclaurin_remainder_is_negative_and_bounded():
    # Exact arithmetic at small anchors, where the remainder is large enough to see.
    def T(P, x):
        x = mpmath.mpf(x)
        return x**-P * (
            mpmath.mpf(1) / 2 - P / (12 * x) + P * (P + 1) * (P + 2) / (720 * x**3)
            - P * (P + 1) * (P + 2) * (P + 3) * (P + 4) / (30240 * x**5)
        )

    for p in (0.5, 1.001, 1.5, 2.0, 5.0, 16.0):
        P = mpmath.mpf(p)
        em = EulerMaclaurin(p)
        for a in (1, 2, 3, 5, 9):
            for z in (a + 1, a + 5, 10 * a + 3, 1000):
                exact = mpmath.fsum(mpmath.mpf(i) ** -P for i in range(a + 1, z + 1))
                integral = mpmath.quad(lambda x: x**-P, [a, z])
                r = exact - (integral + T(P, z) - T(P, a))
                assert -mpmath.exp(em.log_remainder(a)) <= r <= 0, (p, a, z)


@settings(max_examples=300, deadline=None)
@given(
    p=st.floats(1.001, 16.0),
    n=st.integers(0, 10**7),
    gap=st.integers(0, 1 << 26),
)
def test_block_sum_within_4_ulp_of_hurwitz(p, n, gap):
    block, remainder = series._block_sum(p, n, n + gap)
    ref = _hurwitz_block(p, n, n + gap)
    assert abs(mpmath.mpf(block) - ref) <= 4 * math.ulp(float(ref))
    assert 0.0 <= remainder <= 2.0**-60 * (n + 1.0) ** -p


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(1.001, 16.0),
    n=st.integers(0, 10**6),
    width=st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12, 1e-13]),
)
def test_tail_bracket_keeps_the_frontier_and_contains_hurwitz(p, n, width):
    b = power_tail_bracket(p, n, width)
    # The frontier is the first doubling from max(n, 8) whose integral
    # bounds are within the width, so thi - tlo is the same float as before
    # the block was put in closed form.
    m, tlo, thi = series._frontier(p, n, width)
    k = (m // max(n, 8)).bit_length() - 1
    assert m == max(n, 8) << k
    assert (tlo, thi) == series._tail_bounds(p, m)
    assert thi - tlo <= width
    for j in range(k):
        lo_j, hi_j = series._tail_bounds(p, max(n, 8) << j)
        assert hi_j - lo_j > width
    block, remainder = series._block_sum(p, n, m)
    assert (b.lo, b.hi) == (block + (tlo - remainder), block + thi)
    assert _contains_up_to_rounding(b, mpmath.zeta(mpmath.mpf(p), n + 1))


@pytest.mark.parametrize("p", [1.0 + 1e-9, 50.0, 1e3, 1e6])
def test_edge_exponents_end_finite_or_refused(p):
    for n in (0, 1, 7, 64, 10**6):
        for width in (1e-6, 1e-12, 1e-15):
            try:
                b = power_tail_bracket(p, n, width)
            except DomainError as e:
                assert "frontier" in str(e)
                continue
            assert math.isfinite(b.lo) and math.isfinite(b.hi)


def test_far_frontier_is_bounded_work():
    # The width the bounds reach at m = 2^26 puts the frontier there, the
    # farthest one allowed; the block past n is summed in closed form, not
    # term by term.
    p = 3.0  # its bound widths still fall strictly at every doubling up to 2^26
    tlo, thi = series._tail_bounds(p, 1 << 26)
    width = thi - tlo
    assert series._frontier(p, 0, width)[0] == 1 << 26
    tracemalloc.start()
    try:
        b = zeta_bracket(p, width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert _contains_up_to_rounding(b, mpmath.zeta(p))
    # A width the frontier cannot reach within 2^26 terms is still refused.
    with pytest.raises(DomainError, match="frontier"):
        zeta_bracket(p, width * 0.5)


def test_tail_bounds_never_invert_near_p_one():
    # Near p = 1 the two integral bounds agree to the last bit or two, and
    # rounding can put the upper one below the lower one.  Such a pair must
    # hold both estimates strictly inside it, and the frontier must not stop
    # on it; stopping there made the bracket invalid.
    for p, m in [(1.0010000000000001, 2104916), (1.0010000000000001, 4209832), (1.001, 4209832)]:
        lo = (m + 1.0) ** (1.0 - p) / (p - 1.0) + 0.5 * (m + 1.0) ** (-p)
        hi = (m + 0.5) ** (1.0 - p) / (p - 1.0)
        assert hi < lo
        tlo, thi = series._tail_bounds(p, m)
        assert tlo < hi and lo < thi
    # Here the doubling from n = 526229 meets the inverted pair at m = 2104916.
    p, n, width = 1.0010000000000001, 526229, 1e-13
    m, tlo, thi = series._frontier(p, n, width)
    assert m > 2104916 and 0.0 <= thi - tlo <= width
    b = power_tail_bracket(p, n, width)
    assert b.lo <= b.hi
    assert _contains_up_to_rounding(b, mpmath.zeta(mpmath.mpf(p), n + 1))
    for m in (8, 10**5, 10**7, 2**26):
        tlo, thi = series._tail_bounds(1.001, m)
        assert tlo <= thi
