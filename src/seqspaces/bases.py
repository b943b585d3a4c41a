"""Canonical bases of the suffix-sup and prefix-average spaces.

The normalized basis of the suffix-sup space is f_k = k^{-1/p} e_k; its
coordinate functionals act through g_k = k^{1/p} e_k inside the conjugate
prefix-average space.  Floating point cannot represent k^{1/p} and k^{-1/p}
exactly, so the two scales are chosen together, each within a few ulps of
the ideal value, such that their rounded product is exactly 1.0.  That makes
the duality pairing <g_j, f_k> = delta_jk hold bit-exactly.

Also here: the layered representation of the isometric embedding of the
suffix-sup space into an l_p sum of sup-normed rows (row n sees the raw
sequence from index n on), and the two-sided comparison of the suffix-sup
norm with the dyadic block sup norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ParseError
from .jsonio import JsonRecord, dumps, json_key, load_json
from .norms import _ABOVE_ONE, _ANY_P, _FINITE_P, blocksum_norm, cesaro_norm, tandori_norm
from .series import Bracket
from .vectors import CoeffVec, json_index, parse_vector_json

__all__ = [
    "conjugate",
    "f_scale",
    "g_scale",
    "f_coeffs_to_raw",
    "g_vector",
    "duality_pair",
    "g_norm_in_cesaro",
    "LayeredVec",
    "embed_tandori_lpc0",
    "TandoriVpReport",
    "tandori_vp_check",
]

_ROWS_CAP = 1 << 14


def conjugate(p: float) -> float:
    """The conjugate exponent q with 1/p + 1/q = 1, for p in [1, inf]."""
    _ANY_P.check(p, "exponent")
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _ulp_candidates(x: float, radius: int) -> list[float]:
    out = [x]
    up = down = x
    for _ in range(radius):
        up = math.nextafter(up, math.inf)
        down = math.nextafter(down, -math.inf)
        out.append(up)
        out.append(down)
    return out


@lru_cache(maxsize=65536)
def _dual_scales(k: int, p: float) -> tuple[float, float]:
    """Floats (f, g) near (k^{-1/p}, k^{1/p}) with fl(f * g) == 1.0.

    g is searched outward from the correctly rounded k^{1/p} (for p = 1 the
    exact integer k comes first), f outward from fl(1/g); the first pair
    whose product rounds to exactly 1.0 wins, so both stay within a few ulps
    of the ideal scales.
    """
    if k < 1:
        raise DomainError(f"basis index must be >= 1, got {k}")
    if p == 1.0:
        g_candidates = _ulp_candidates(float(k), 12)
    else:
        g_candidates = _ulp_candidates(float(k) ** (1.0 / p), 12)
    for g in g_candidates:
        for f in _ulp_candidates(1.0 / g, 2):
            if f * g == 1.0:
                return f, g
    raise RuntimeError(f"no exact dual scale pair near k = {k}, p = {p}")


def f_scale(k: int, p: float) -> float:
    """The normalizing scale of the k-th basis vector, close to k^{-1/p}."""
    _FINITE_P.check(p, "basis exponent")
    return _dual_scales(k, p)[0]


def g_scale(k: int, p: float) -> float:
    """The functional scale of the k-th basis vector, close to k^{1/p}."""
    _FINITE_P.check(p, "basis exponent")
    return _dual_scales(k, p)[1]


def f_coeffs_to_raw(a: CoeffVec, p: float) -> CoeffVec:
    """Expand coefficients over the normalized basis to the raw sequence.

    The entry at index k becomes a_k * f_scale(k, p).
    """
    _FINITE_P.check(p, "basis exponent")
    if a.is_zero():
        return a
    scales = np.array([_dual_scales(int(k), p)[0] for k in a.indices], dtype=np.float64)
    idx, raw = a.indices, a.values * scales
    # Scales lie in (0, 1], so the products are finite; tiny ones can underflow to 0.
    keep = raw != 0.0
    if not keep.all():
        idx, raw = idx[keep], raw[keep]
    return CoeffVec._trusted(idx, raw)


def g_vector(k: int, p: float) -> CoeffVec:
    """The k-th coordinate functional's vector: a single entry near k^{1/p}."""
    return CoeffVec.basis(k, g_scale(k, p))


def duality_pair(x: CoeffVec, y: CoeffVec) -> float:
    """The bilinear pairing sum_i x_i y_i over the common support."""
    if x.is_zero() or y.is_zero():
        return 0.0
    common, ix, iy = np.intersect1d(x.indices, y.indices, return_indices=True)
    if common.size == 0:
        return 0.0
    return math.fsum(x.values[ix] * y.values[iy])


def g_norm_in_cesaro(k: int, p_prime: float, tol: float = 1e-9) -> Bracket:
    """Prefix-average norm of the k-th functional vector, p' conjugate to p.

    Requires p' in (1, inf]; the functional scale uses p = conjugate(p').
    """
    _ABOVE_ONE.check(p_prime, "conjugate exponent")
    p = conjugate(p_prime)
    return cesaro_norm(g_vector(k, p), p_prime, tol)


# ---------------------------------------------------------------------------
# layered (row-wise sup) representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayeredVec:
    """An element of an l_p sum of sup-normed rows.

    Two internal layouts:

    * suffix layout: ``raw`` holds one sequence; row n is raw restricted to
      indices >= n, for n = 1..support_max.  Produced by the embedding.
    * explicit layout: ``rows`` holds (n, CoeffVec) pairs with strictly
      increasing n.  Produced by JSON input.

    The norm is (sum_n ||row_n||_inf^p)^{1/p} in both layouts.
    """

    raw: CoeffVec | None = None
    rows: tuple[tuple[int, CoeffVec], ...] | None = None

    def __post_init__(self):
        if (self.raw is None) == (self.rows is None):
            raise DomainError("LayeredVec needs exactly one of raw or rows")
        if self.rows is not None:
            prev = 0
            for n, vec in self.rows:
                if n <= prev:
                    raise DomainError("row indices must be strictly increasing")
                if not isinstance(vec, CoeffVec):
                    raise DomainError("rows must hold coefficient vectors")
                prev = n

    def norm(self, p: float) -> float:
        """(sum over rows of sup^p)^{1/p}, p in [1, inf)."""
        _FINITE_P.check(p, "layered norm exponent")
        if self.raw is not None:
            # Row n's sup is the suffix max of |raw| from n on: the suffix-sup norm.
            return tandori_norm(self.raw, p)
        sups = [float(np.max(np.abs(vec.values))) for _, vec in self.rows if not vec.is_zero()]
        if not sups:
            return 0.0
        return math.fsum(s**p for s in sups) ** (1.0 / p)

    def rows_list(self) -> list[tuple[int, CoeffVec]]:
        """Materialized (n, row) pairs; empty rows are omitted."""
        if self.rows is not None:
            return [(n, vec) for n, vec in self.rows if not vec.is_zero()]
        if self.raw is None or self.raw.is_zero():
            return []
        k = self.raw.support_max
        if k > _ROWS_CAP:
            raise DomainError(f"refusing to materialize {k} rows (cap {_ROWS_CAP})")
        idx = self.raw.indices
        out = []
        for n in range(1, k + 1):
            lo = int(np.searchsorted(idx, n, side="left"))
            # A suffix of a valid vector is valid.
            out.append((n, CoeffVec._trusted(idx[lo:], self.raw.values[lo:])))
        return out

    def to_json_obj(self) -> dict:
        return {
            "rows": [
                {"n": int(n), "vector": vec.to_json_obj()} for n, vec in self.rows_list()
            ]
        }

    def to_json(self) -> str:
        return dumps(self)

    @staticmethod
    def from_json(text: str) -> "LayeredVec":
        obj = load_json(text, "layered vector JSON")
        if not isinstance(obj, dict) or set(obj) != {"rows"}:
            raise ParseError("layered vector JSON must be an object with a 'rows' key")
        if not isinstance(obj["rows"], list):
            raise ParseError("layered vector 'rows' must be a list")
        rows = []
        for item in obj["rows"]:
            if not isinstance(item, dict) or set(item) != {"n", "vector"}:
                raise ParseError("each row must be an object with keys 'n' and 'vector'")
            rows.append((json_index(item["n"], "row 'n'"), parse_vector_json(item["vector"])))
        return LayeredVec(rows=tuple(rows))


def embed_tandori_lpc0(a: CoeffVec, p: float) -> LayeredVec:
    """Isometric image of f-basis coefficients in the layered space.

    The k-th basis vector maps to k^{-1/p} times the first k rows' k-th
    coordinates, so row n carries the raw sequence from index n on.  The
    layered norm then reproduces the suffix-sup norm exactly: both sum the
    same multiset of suffix suprema.
    """
    return LayeredVec(raw=f_coeffs_to_raw(a, p))


# ---------------------------------------------------------------------------
# suffix-sup norm vs dyadic block sup norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TandoriVpReport(JsonRecord):
    """Two-sided comparison of the suffix-sup and dyadic block norms."""

    p: float
    t: float = json_key("suffix_sup_norm")
    u: float = json_key("dyadic_block_norm")
    ratio: float
    passed: bool


def tandori_vp_check(a: CoeffVec, p: float, tol: float = 1e-12) -> TandoriVpReport:
    """Check t^p <= 2 u^p and u^p <= 72 t^p for f-basis coefficients a.

    t is the suffix-sup norm of the raw sequence; u is the block norm of the
    coefficients with dyadic lengths, sup inside each block, l_p across
    blocks.  ``tol`` absorbs floating point rounding on the comparisons.
    """
    _FINITE_P.check(p, "basis exponent")
    if a.is_zero():
        raise DomainError("the two-sided comparison needs a nonzero vector")
    t = tandori_norm(f_coeffs_to_raw(a, p), p)
    u = blocksum_norm(a, "dyadic", math.inf, p)
    tp = t**p
    up = u**p
    passed = tp <= 2.0 * up * (1.0 + tol) and up <= 72.0 * tp * (1.0 + tol)
    return TandoriVpReport(p=p, t=t, u=u, ratio=t / u, passed=passed)
