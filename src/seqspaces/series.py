"""Certified enclosures for the infinite series used by the norms.

Several norms of finitely supported vectors are genuinely infinite series
(the Cesaro norm sums prefix averages over all indices).  Those values are
returned as two-sided enclosures rather than point estimates.  The tail
sum(i > N) i^(-p) is bracketed by integral comparison and the bracket is
tightened by summing explicit terms until the requested width is reached.

The integral bounds used here are the convexity refinements of
int_{N+1}^inf x^(-p) dx <= sum_{i>N} i^(-p) <= int_N^inf x^(-p) dx:
the trapezoid rule gives the lower bound and the midpoint rule the upper
bound, both rigorous because x^(-p) is convex and decreasing.  They enclose
the same tail as the plain integral bounds, only tighter, so far fewer
explicit terms are needed for a given width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["Bracket", "power_tail_bracket", "zeta_bracket"]


@dataclass(frozen=True)
class Bracket:
    """A closed interval [lo, hi] certified to contain a real value."""

    lo: float
    hi: float

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

    def to_json_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "mid": self.mid}


def _tail_bounds(p: float, m: int) -> tuple[float, float]:
    # Bounds for sum_{i>m} i^(-p), m >= 1:
    #   lower: integral over [m+1, inf) plus half the first term (trapezoid),
    #   upper: integral over [m+1/2, inf) (midpoint).
    lo = (m + 1.0) ** (1.0 - p) / (p - 1.0) + 0.5 * (m + 1.0) ** (-p)
    hi = (m + 0.5) ** (1.0 - p) / (p - 1.0)
    return lo, hi


def power_tail_bracket(p: float, n: int, width: float = 1e-12) -> Bracket:
    """Bracket sum_{i > n} i^(-p) for p > 1 to the requested absolute width.

    Terms from n+1 up to a moving frontier are summed explicitly (exactly
    rounded via fsum); the remainder past the frontier is enclosed by the
    integral bounds.  The frontier doubles until the enclosure is narrow
    enough.
    """
    if p <= 1.0:
        raise DomainError(f"tail of sum i^(-p) diverges for p = {p}")
    if n < 0:
        raise DomainError("tail start must be nonnegative")
    if not (0 < width < math.inf):
        raise DomainError(f"bracket width target must be positive and finite, got {width}")
    terms: list[float] = []
    m = max(n, 8)
    if m > n:
        terms.extend((np.arange(n + 1, m + 1, dtype=np.float64) ** (-p)).tolist())
    for _ in range(64):
        explicit = math.fsum(terms)
        tlo, thi = _tail_bounds(p, m)
        if thi - tlo <= width:
            return Bracket(explicit + tlo, explicit + thi)
        step = m  # double the explicit range
        terms.extend((np.arange(m + 1, m + step + 1, dtype=np.float64) ** (-p)).tolist())
        m += step
    explicit = math.fsum(terms)
    tlo, thi = _tail_bounds(p, m)
    return Bracket(explicit + tlo, explicit + thi)


def zeta_bracket(s: float, width: float = 1e-12) -> Bracket:
    """Bracket sum_{i >= 1} i^(-s) for s > 1."""
    return power_tail_bracket(s, 0, width)
