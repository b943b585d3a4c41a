"""Certified enclosures for the infinite series used by the norms.

Several norms of finitely supported vectors are genuinely infinite series
(the Cesaro norm sums prefix averages over all indices).  Those values are
returned as two-sided enclosures rather than point estimates.  The tail
sum(i > n) i^(-p) is split at a frontier m >= n: the remainder past m is
bracketed by integral comparison, and the block n < i <= m is evaluated in
closed form.

The integral bounds used here are the convexity refinements of
int_{m+1}^inf x^(-p) dx <= sum_{i>m} i^(-p) <= int_m^inf x^(-p) dx:
the trapezoid rule gives the lower bound and the midpoint rule the upper
bound, both rigorous because x^(-p) is convex and decreasing.  The frontier
doubles until they are narrower than the requested width.

The block n < i <= m is summed term by term, exactly rounded, only up to an
anchor b a little past n (or to m, if that comes first); from b to m it is
Euler-Maclaurin summation with three Bernoulli terms (``EulerMaclaurin``,
shared with the closed-form prefix sums of the weights).  Its remainder has
one sign and a known bound, which widens the bracket on that side.  A
bracket therefore sums at most b - n terms, about 140 for any p > 1 and n
at worst, however far the frontier moved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .jsonio import JsonRecord

__all__ = ["Bracket", "EulerMaclaurin", "power_tail_bracket", "zeta_bracket"]

_MAX_TERMS = 1 << 26  # farthest a tail bracket's frontier may move past n
_MIN_ANCHOR = 64  # the closed form is anchored no lower than this index
_LOG_ANCHOR_GAP = 60.0 * math.log(2.0)  # remainder under 2^-60 of the first term


@dataclass(frozen=True)
class Bracket(JsonRecord):
    """A closed interval [lo, hi] certified to contain a real value."""

    lo: float
    hi: float
    json_computed = ("mid",)

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise DomainError(f"invalid bracket [{self.lo}, {self.hi}]")

    @staticmethod
    def exact(x: float) -> "Bracket":
        return Bracket(x, x)

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def powed(self, e: float) -> "Bracket":
        """Image under x -> x**e for nonnegative lo and e > 0."""
        if self.lo < 0 or e <= 0:
            raise DomainError("powed requires lo >= 0 and a positive exponent")
        return Bracket(self.lo**e, self.hi**e)

    def scaled(self, c: float) -> "Bracket":
        if c < 0:
            raise DomainError("scaled requires a nonnegative factor")
        return Bracket(c * self.lo, c * self.hi)

    def shifted(self, c: float) -> "Bracket":
        return Bracket(self.lo + c, self.hi + c)


class EulerMaclaurin:
    """Euler-Maclaurin summation of f(x) = x**(-s), s > 0, with three Bernoulli terms.

    For integers 0 < a < z (Abramowitz & Stegun 23.1.30; Graham, Knuth &
    Patashnik, Concrete Mathematics 9.5),

        sum_{a < i <= z} f(i) = integral of f over [a, z] + T(z) - T(a) + R,
        T(x) = x**(-s) (1/2 - s/(12 x) + s(s+1)(s+2)/(720 x**3)
                        - s(s+1)(s+2)(s+3)(s+4)/(30240 x**5)).

    Every even derivative of f is positive, so R has the sign of the first
    omitted term, which is negative, and is smaller in size (T. M. Apostol,
    "An elementary view of Euler's summation formula", Amer. Math. Monthly
    106 (1999)):  0 <= -R <= |B_8|/8! s(s+1)...(s+6) a**(-s-7).
    """

    def __init__(self, s: float):
        self.s = s
        self.c1 = s / 12.0
        self.c3 = s * (s + 1.0) * (s + 2.0) / 720.0
        self.c5 = s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) / 30240.0
        # log(|B_8|/8! s(s+1)...(s+6)), as a sum of logs so no product overflows
        self.log_c7 = math.fsum(math.log(s + j) for j in range(7)) - math.log(1209600.0)

    def t(self, x, f):
        """T(x), given f = x**(-s); x and f may be arrays."""
        r = 1.0 / x
        r2 = r * r
        return f * (0.5 - r * (self.c1 - r2 * (self.c3 - r2 * self.c5)))

    def log_remainder(self, a: float) -> float:
        """log of the bound on -R for a sum anchored at a."""
        return self.log_c7 - (self.s + 7.0) * math.log(a)


def _tail_bounds(p: float, m: int) -> tuple[float, float]:
    # Bounds for sum_{i>m} i^(-p), m >= 1:
    #   lower: integral over [m+1, inf) plus half the first term (trapezoid),
    #   upper: integral over [m+1/2, inf) (midpoint).
    lo = (m + 1.0) ** (1.0 - p) / (p - 1.0) + 0.5 * (m + 1.0) ** (-p)
    hi = (m + 0.5) ** (1.0 - p) / (p - 1.0)
    if hi < lo:
        # Near p = 1 both are about m^(1-p)/(p-1), and rounding can put the
        # upper bound below the lower one.  Keep both estimates, an ulp
        # outward: the pair is then wider than its rounding, not inverted,
        # and the frontier moves on past it.
        lo, hi = math.nextafter(hi, -math.inf), math.nextafter(lo, math.inf)
    return lo, hi


def _frontier(p: float, n: int, width: float) -> tuple[int, float, float]:
    """The first m on the doubling from max(n, 8) whose tail bounds are within width.

    Returns m with the bounds (tlo, thi) on sum_{i>m} i^(-p).  A frontier
    more than _MAX_TERMS past n is refused with DomainError.
    """
    m = max(n, 8)
    tlo, thi = _tail_bounds(p, m)
    while thi - tlo > width:
        m *= 2
        if m - n > _MAX_TERMS:
            raise DomainError(
                f"bracket width {width} for p = {p} needs a frontier more than "
                f"{_MAX_TERMS} terms past n = {n}"
            )
        tlo, thi = _tail_bounds(p, m)
    return m, tlo, thi


def _powers(p: float, lo: int, hi: int) -> list[float]:
    """i^(-p) for lo <= i <= hi."""
    return (np.arange(lo, hi + 1, dtype=np.float64) ** (-p)).tolist()


def _block_sum(p: float, n: int, m: int) -> tuple[float, float]:
    """sum_{n < i <= m} i^(-p) for p > 1, and how far the true sum may lie below it.

    The terms up to the anchor b are summed exactly rounded; past b the
    block is Euler-Maclaurin summation, whose remainder is negative and at
    most 2^-60 (n+1)^(-p): a small fraction of one rounding of the block,
    which is at least (n+1)^(-p).  b is the least index past n and
    _MIN_ANCHOR with that remainder bound; when m <= b every term is summed.
    """
    em = EulerMaclaurin(p)
    log_target = -_LOG_ANCHOR_GAP - p * math.log(n + 1)
    b = max(n + 1, _MIN_ANCHOR, math.ceil(math.exp((em.log_c7 - log_target) / (p + 7.0))))
    if m <= b:
        return math.fsum(_powers(p, n + 1, m)), 0.0
    x = float(b)
    # integral of x^(-p) over [b, m], through expm1 and log1p: nothing cancels
    # as p -> 1 or as m -> b
    d = -(x ** (1.0 - p)) * math.expm1((1.0 - p) * math.log1p((m - b) / x)) / (p - 1.0)
    z = float(m)
    corrections = [d, em.t(z, z ** (-p)), -em.t(x, x ** (-p))]
    return math.fsum(_powers(p, n + 1, b) + corrections), math.exp(em.log_remainder(x))


def power_tail_bracket(p: float, n: int, width: float = 1e-12) -> Bracket:
    """Bracket sum_{i > n} i^(-p) for p > 1 to the requested absolute width.

    The frontier m doubles on the integral bounds alone until they enclose
    the remainder past m narrowly enough; a width that needs a frontier more
    than 2^26 terms past n is refused with DomainError.  The block
    n < i <= m is then evaluated in O(b - n) work (``_block_sum``), and its
    one-signed Euler-Maclaurin remainder lowers the lower end.
    """
    if p <= 1.0:
        raise DomainError(f"tail of sum i^(-p) diverges for p = {p}")
    if n < 0:
        raise DomainError("tail start must be nonnegative")
    if not (0 < width < math.inf):
        raise DomainError(f"bracket width target must be positive and finite, got {width}")
    m, tlo, thi = _frontier(p, n, width)
    block, remainder = _block_sum(p, n, m)
    return Bracket(block + (tlo - remainder), block + thi)


def zeta_bracket(s: float, width: float = 1e-12) -> Bracket:
    """Bracket sum_{i >= 1} i^(-s) for s > 1."""
    return power_tail_bracket(s, 0, width)
