"""Independent reference values for the benchmark's correctness checks.

Nothing here calls seqspaces: every value is recomputed from the raw
generated inputs, by a different method where one exists (a vectorized
subset enumeration and a column-wise dynamic program for the Garling norm,
dense suffix maxima, an asymptotic expansion or mpmath for weight prefix
sums, extended-precision heads and mpmath Hurwitz-zeta tails for the
Cesaro norm).
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import mpmath
import numpy as np

mpmath.mp.dps = 40

HERE = Path(__file__).resolve().parent
ANCHORS = json.loads((HERE / "anchors.json").read_text())
FROZEN = json.loads((HERE / "frozen.json").read_text())

EULER_GAMMA = 0.57721566490153286060651209008240243


def close(got: float, want: float, rel: float = 1e-12) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want), 1e-300)


# -- weights ------------------------------------------------------------


def weight_values(spec: str, lo: int, hi: int) -> np.ndarray:
    """w_i for i in [lo, hi) for the specs 'harmonic' and 'power:a=<a>'."""
    i = np.arange(lo, hi, dtype=np.float64)
    if spec == "harmonic":
        return 1.0 / i
    return i ** (-float(spec.split("=", 1)[1]))


def prefix_sum(spec: str, n: int) -> float:
    """S(n) to about 1e-15 relative: fsum below 2^17, closed forms above."""
    if n <= 1 << 17:
        return math.fsum(weight_values(spec, 1, n + 1))
    if spec == "harmonic":
        x = float(n)
        return math.log(x) + EULER_GAMMA + 1 / (2 * x) - 1 / (12 * x * x) + 1 / (120 * x**4)
    a = float(spec.split("=", 1)[1])
    return float(mpmath.zeta(a) - mpmath.zeta(a, n + 1))


# -- norms of finitely supported vectors ----------------------------------


def lp(vals: np.ndarray, p: float) -> float:
    a = np.abs(vals)
    if math.isinf(p):
        return float(a.max())
    return math.fsum(a**p) ** (1.0 / p)


def lorentz(vals: np.ndarray, wspec: str, p: float) -> float:
    a = np.sort(np.abs(vals))[::-1]
    return math.fsum(a**p * weight_values(wspec, 1, a.size + 1)) ** (1.0 / p)


def garling_oracle(vals: np.ndarray, wspec: str, p: float) -> float:
    """Max over every nonempty subset, enumerated as bit masks (support <= 14)."""
    m = vals.size
    vp = np.abs(vals) ** p
    w = weight_values(wspec, 1, m + 1)
    masks = np.arange(1, 1 << m, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(m)) & 1).astype(bool)
    rank = np.cumsum(bits, axis=1) - 1
    contrib = np.where(bits, vp[None, :] * w[np.clip(rank, 0, m - 1)], 0.0)
    return float(contrib.sum(axis=1).max()) ** (1.0 / p)


def garling_dp(vals: np.ndarray, wspec: str, p: float) -> float:
    """Column-wise DP: f_k[i] = best sum of k picks among the first i+1 entries."""
    m = vals.size
    vp = np.abs(vals) ** p
    w = weight_values(wspec, 1, m + 1)
    best = -math.inf
    prev = np.zeros(m + 1)  # f_{k-1} shifted: prev[i] uses entries before i
    for k in range(1, m + 1):
        cur = np.full(m, -np.inf)
        cur[k - 1 :] = np.maximum.accumulate(prev[k - 1 : m] + vp[k - 1 :] * w[k - 1])
        best = max(best, float(cur[-1]))
        prev = np.concatenate(([-np.inf], cur))
    return best ** (1.0 / p)


def _dense(idx: np.ndarray, vals: np.ndarray) -> np.ndarray:
    out = np.zeros(int(idx[-1]))
    out[idx - 1] = np.abs(vals)
    return out


def tandori(idx: np.ndarray, vals: np.ndarray, p: float) -> float:
    d = _dense(idx, vals)
    suff = np.maximum.accumulate(d[::-1])[::-1]
    return math.fsum(suff**p) ** (1.0 / p)


def blocksum(idx: np.ndarray, vals: np.ndarray, lengths: str, inner: float, outer: float) -> float:
    d = _dense(idx, vals)
    norms, start, n = [], 0, 1
    while start < d.size:
        ln = (1 << (n - 1)) if lengths == "dyadic" else n
        chunk = d[start : start + ln]
        norms.append(lp(chunk, inner) if chunk.any() else 0.0)
        start += ln
        n += 1
    return lp(np.array(norms), outer)


def epw(vals: np.ndarray, p: float, w: float) -> float:
    return max(lp(vals, p), w * lp(vals, 2.0))


def cesaro(idx: np.ndarray, vals: np.ndarray, p: float):
    """The Cesaro norm as an mpmath number: extended-precision head, Hurwitz tail."""
    n = int(idx[-1])
    running = np.zeros(n, dtype=np.longdouble)
    running[idx - 1] = np.abs(vals).astype(np.longdouble)
    running = np.cumsum(running)
    i = np.arange(1, n + 1, dtype=np.longdouble)
    terms = (running / i) ** np.longdouble(p)
    hi = terms.astype(np.float64)
    lo = (terms - hi.astype(np.longdouble)).astype(np.float64)
    head = mpmath.mpf(math.fsum(hi)) + mpmath.mpf(math.fsum(lo))
    total = mpmath.mpf(math.fsum(np.abs(vals)))
    tail = total ** p * mpmath.zeta(p, n + 1)
    return (head + tail) ** (1 / mpmath.mpf(p))


def anchor(table: str, x: float):
    return mpmath.mpf(ANCHORS[table][repr(float(x))])


def space_ref(spec: str, idx: np.ndarray, vals: np.ndarray) -> float:
    """Reference for an exact (non-Cesaro) family given by its spec string."""
    family, body = spec.split(":", 1)
    fields = dict(re.findall(r"(\w+)=((?:power:a=)?[^,]+)", body))
    fl = lambda key: math.inf if fields[key] == "inf" else float(fields[key])
    if family == "lp":
        return lp(vals, fl("p"))
    if family == "lorentz":
        return lorentz(vals, fields["w"], fl("p"))
    if family == "garling":
        if vals.size <= 14:
            return garling_oracle(vals, fields["w"], fl("p"))
        return garling_dp(vals, fields["w"], fl("p"))
    if family == "tandori":
        return tandori(idx, vals, fl("p"))
    if family == "blocksum":
        return blocksum(idx, vals, fields["lengths"], fl("inner"), fl("outer"))
    if family == "epw":
        return epw(vals, fl("p"), fl("w"))
    raise ValueError(f"no reference for {spec!r}")
