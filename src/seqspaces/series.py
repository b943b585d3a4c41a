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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .jsonio import JsonRecord

__all__ = ["Bracket", "power_tail_bracket", "zeta_bracket"]

_MAX_TERMS = 1 << 26  # explicit terms one tail bracket may sum
_CHUNK = 1 << 16


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


def _tail_bounds(p: float, m: int) -> tuple[float, float]:
    # Bounds for sum_{i>m} i^(-p), m >= 1:
    #   lower: integral over [m+1, inf) plus half the first term (trapezoid),
    #   upper: integral over [m+1/2, inf) (midpoint).
    lo = (m + 1.0) ** (1.0 - p) / (p - 1.0) + 0.5 * (m + 1.0) ** (-p)
    hi = (m + 0.5) ** (1.0 - p) / (p - 1.0)
    return lo, hi


def power_tail_bracket(p: float, n: int, width: float = 1e-12) -> Bracket:
    """Bracket sum_{i > n} i^(-p) for p > 1 to the requested absolute width.

    The frontier m doubles on the integral bounds alone until they enclose
    the remainder past m narrowly enough; then the terms n+1..m are summed
    once, exactly rounded via fsum, in chunks of 2^16.  A width that needs
    more than 2^26 explicit terms is refused with DomainError before any
    term is summed.
    """
    if p <= 1.0:
        raise DomainError(f"tail of sum i^(-p) diverges for p = {p}")
    if n < 0:
        raise DomainError("tail start must be nonnegative")
    if not (0 < width < math.inf):
        raise DomainError(f"bracket width target must be positive and finite, got {width}")
    m = max(n, 8)
    tlo, thi = _tail_bounds(p, m)
    while thi - tlo > width:
        m *= 2
        if m - n > _MAX_TERMS:
            raise DomainError(
                f"bracket width {width} for p = {p} needs more than {_MAX_TERMS} explicit terms"
            )
        tlo, thi = _tail_bounds(p, m)
    chunks = (
        (np.arange(k, min(k + _CHUNK, m + 1), dtype=np.float64) ** (-p)).tolist()
        for k in range(n + 1, m + 1, _CHUNK)
    )
    explicit = math.fsum(itertools.chain.from_iterable(chunks))
    return Bracket(explicit + tlo, explicit + thi)


def zeta_bracket(s: float, width: float = 1e-12) -> Bracket:
    """Bracket sum_{i >= 1} i^(-s) for s > 1."""
    return power_tail_bracket(s, 0, width)
