"""Seeded random vector generators shared by the verification suites.

Every generator takes an explicit np.random.Generator; suites build one per
case via rng_for(seed, case), so reports are reproducible for a given seed
regardless of evaluation order or thread count.
"""

from __future__ import annotations

import numpy as np

from .vectors import CoeffVec

__all__ = ["rng_for", "random_coeffvec", "random_nonincreasing"]


def rng_for(seed: int, case: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(case)])


def random_coeffvec(
    rng: np.random.Generator,
    max_support: int = 16,
    max_index: int = 256,
    nonneg: bool = False,
) -> CoeffVec:
    """A random finitely supported vector with varied value profiles.

    Mixes uniform, heavy-tailed, small-integer (ties and zeros) and spiky
    values; support positions are drawn without replacement from
    1..max_index.  Never returns the zero vector.
    """
    max_support = min(max_support, max_index)
    m = int(rng.integers(1, max_support + 1))
    idx = np.sort(rng.choice(np.arange(1, max_index + 1), size=m, replace=False))
    style = int(rng.integers(0, 4))
    if style == 0:
        vals = rng.uniform(-1.0, 1.0, size=m)
    elif style == 1:
        vals = rng.standard_normal(m) * float(np.exp(rng.uniform(-2.0, 3.0)))
    elif style == 2:
        vals = rng.integers(-3, 4, size=m).astype(np.float64)
    else:
        vals = rng.uniform(0.0, 1.0, size=m) ** 4 * rng.choice([-1.0, 1.0], size=m)
    if nonneg:
        vals = np.abs(vals)
    if not np.any(vals != 0.0):
        vals = vals.copy()
        vals[0] = 1.0
    # Distinct sorted draws from 1..max_index and finite values; small-integer
    # profiles hold zeros, which are dropped here.
    keep = vals != 0.0
    if not keep.all():
        idx, vals = idx[keep], vals[keep]
    return CoeffVec._trusted(idx.astype(np.int64, copy=False), vals)


def random_nonincreasing(rng: np.random.Generator, n: int) -> CoeffVec:
    """A dense nonnegative nonincreasing vector on indices 1..n."""
    vals = np.sort(np.abs(rng.uniform(0.0, 1.0, size=n)))[::-1]
    if vals[0] == 0.0:
        vals = vals.copy()
        vals[0] = 1.0
    # Finite values on 1..n; a zero draw is dropped like any zero.
    idx = np.arange(1, n + 1, dtype=np.int64)
    keep = vals != 0.0
    if not keep.all():
        idx, vals = idx[keep], vals[keep]
    return CoeffVec._trusted(idx, vals)
