"""Weight sequences and their asymptotic diagnostics.

A weight is a positive nonincreasing null sequence w with w_1 = 1 that is
not summable.  Three kinds are supported:

* ``harmonic``: w_i = 1/i, stored as the power weight with a = 1,
* ``power:a=<a>``: w_i = i**(-a) for a in (0, 1],
* ``explicit:<json array or path>``: a finite prefix given literally.

Prefix sums S(n) = w_1 + ... + w_n are the package's central quantity.  For
the parametric kinds, w_i = i**(-a), they come from one vectorized closed
form (``_PowerSums``): a table of compensated sums for n <= 64 and
Euler-Maclaurin summation anchored on that table beyond it.  An
explicit weight's whole prefix table is accumulated once by the same
compensated recurrence.  Either way S(n) is a pure function of n, evaluated
elementwise: a value never depends on which other indices were asked for.

The condition checks report three-valued verdicts.  A finite horizon can
witness that a prefix is *consistent* with an asymptotic condition, or that
a closed-form criterion is *violated*, but it can never certify a liminf or
a sup over all n; such cases are reported as *inconclusive* with a note.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError
from .jsonio import JsonRecord, dumps, json_key, load_json
from .series import EulerMaclaurin

__all__ = [
    "Weight",
    "ConditionReport",
    "make_weight",
    "check_nuc",
    "check_2sb",
    "check_summable",
]

_HORIZON_CAP = 1 << 28  # guard against runaway horizons in the checks
_N0 = 64  # tabled head of the closed form; a power of two, so n / _N0 is exact
_BATCH = 1 << 16  # indices per closed-form evaluation, to bound temporaries


def _compensated_sums(terms: np.ndarray) -> np.ndarray:
    """[0, t_1, t_1 + t_2, ...]: running compensated sums, term by term in order."""
    out = [0.0]
    s = c = 0.0
    for x in terms.tolist():
        y = x - c
        t = s + y
        c = (t - s) - y
        s = t
        out.append(s)
    return np.array(out)


class _PowerSums:
    """S(n) = sum_{i <= n} i**(-s) for any s > 0, elementwise over an index array.

    ``head`` holds the first _N0 terms; S(n) for n <= _N0 is their compensated
    running sum.  Beyond _N0, Euler-Maclaurin summation over [_N0, n]
    (``series.EulerMaclaurin``: integral D, end correction T, remainder R) gives

        S(n) = S(_N0) - T(_N0) + D(n) + T(n) + R(n),
        D(n) = integral of x**(-s) over [_N0, n].

    The additive constant comes from the tabled head, so no value of Euler's
    gamma or zeta(s) enters.  R(n) is one-signed and
    |R(n)| <= |B_8|/8! s(s+1)...(s+6) _N0**(-s-7).  Relative to S(n) >= S(_N0)
    that is below 3.2e-18 for every s > 0 (largest near s = 1), far under one
    rounding.  The float64 evaluation stays within about 3 ulp of the true sum.
    """

    def __init__(self, s: float, head: np.ndarray):
        self.s = s
        self.table = _compensated_sums(head)
        self._t = EulerMaclaurin(s).t
        x0 = float(_N0)
        self.p0 = x0 ** (1.0 - s)
        self.const = math.fsum(head.tolist() + [-self._t(x0, x0 ** (-s))])

    def _tail(self, x: np.ndarray) -> np.ndarray:
        s = self.s
        log_ratio = np.log(x * (1.0 / _N0))
        if s == 1.0:
            return self.const + (log_ratio + self._t(x, 1.0 / x))
        f = np.power(x, -s)
        # D(n) = (n**(1-s) - _N0**(1-s))/(1-s).  Through expm1 while the
        # exponent u is small (no cancellation as s -> 1); through the powers
        # once u is large (the error of u would grow with it).
        u = (1.0 - s) * log_ratio
        d = np.where(
            u < 1.0, self.p0 * np.expm1(u) / (1.0 - s), (f * x - self.p0) / (1.0 - s)
        )
        return self.const + (d + self._t(x, f))

    def __call__(self, ns: np.ndarray) -> np.ndarray:
        out = self.table[np.minimum(ns, _N0)]
        for lo in range(0, ns.size, _BATCH):
            part = ns[lo : lo + _BATCH]
            big = np.flatnonzero(part > _N0)
            if big.size:
                out[lo + big] = self._tail(part[big].astype(np.float64))
        return out


class Weight:
    """A weight sequence with closed-form (or tabled) prefix sums."""

    def __init__(self, kind: str, a: float | None = None, data: np.ndarray | None = None):
        if kind == "harmonic":
            a = 1.0  # the power weight with exponent 1
        elif kind == "power":
            if a is None or not (0.0 < a <= 1.0):
                raise DomainError(f"power weight needs an exponent in (0, 1], got {a!r}")
        elif kind == "explicit":
            if data is None or data.size == 0:
                raise DomainError("explicit weight needs a nonempty value list")
            if data[0] != 1.0:
                raise DomainError("explicit weight must start with w_1 = 1")
            if np.any(data <= 0.0):
                raise DomainError("explicit weight values must be positive")
            if np.any(np.diff(data) > 0.0):
                raise DomainError("explicit weight values must be nonincreasing")
        else:
            raise DomainError(f"unknown weight kind {kind!r}")
        self.kind = kind
        self.a = float(a) if a is not None else None
        self.data = data

    # -- value access -------------------------------------------------

    @property
    def limit(self) -> int | None:
        """Largest accessible index, or None when unbounded."""
        return int(self.data.size) if self.kind == "explicit" else None

    def values(self, lo: int, hi: int) -> np.ndarray:
        """Weight values w_i for i in [lo, hi), 1-based."""
        if lo < 1 or hi < lo:
            raise DomainError("invalid index range")
        if self.kind != "explicit":
            return np.arange(lo, hi, dtype=np.float64) ** (-self.a)
        if hi - 1 > self.data.size:
            raise DomainError(
                f"explicit weight has {self.data.size} values, index {hi - 1} is out of range"
            )
        return self.data[lo - 1 : hi - 1]

    # -- prefix sums ----------------------------------------------------

    @functools.cached_property
    def _sums(self):
        if self.kind == "explicit":
            return _compensated_sums(self.data).__getitem__
        return _PowerSums(self.a, self.values(1, _N0 + 1))

    def prefix_sums(self, ns) -> np.ndarray:
        """S(n) = w_1 + ... + w_n for every n in an integer array (S(0) = 0).

        The result has the shape of ``ns``.  Each entry depends on its own
        index only, so a scalar query and an array query agree bit for bit.
        """
        ns = np.asarray(ns, dtype=np.int64)
        if ns.size:
            if ns.min() < 0:
                raise DomainError("prefix sum index must be >= 0")
            top = int(ns.max())
            if self.limit is not None and top > self.limit:
                raise DomainError(
                    f"explicit weight has {self.limit} values, S({top}) is not available"
                )
        return self._sums(ns.ravel()).reshape(ns.shape)

    def prefix_sum(self, n: int) -> float:
        """S(n) = w_1 + ... + w_n. S(0) = 0."""
        return float(self.prefix_sums([n])[0])

    # -- misc -----------------------------------------------------------

    @property
    def spec(self) -> str:
        if self.kind == "harmonic":
            return "harmonic"
        if self.kind == "power":
            return f"power:a={self.a!r}"
        return "explicit:" + dumps(self.data.tolist())

    def __repr__(self) -> str:
        return f"Weight({self.spec})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    @staticmethod
    def harmonic() -> "Weight":
        return Weight("harmonic")

    @staticmethod
    def power(a: float) -> "Weight":
        return Weight("power", a=a)

    @staticmethod
    def explicit(values) -> "Weight":
        return Weight("explicit", data=np.asarray(list(values), dtype=np.float64))


def make_weight(spec: str) -> Weight:
    """Parse a weight spec: harmonic | power:a=<a> | explicit:<array or path>."""
    if not isinstance(spec, str):
        raise ParseError("weight spec must be a string")
    s = spec.strip()
    if s == "harmonic":
        return Weight.harmonic()
    if s.startswith("power:"):
        body = s[len("power:") :]
        if not body.startswith("a="):
            raise ParseError(f"power weight spec must look like power:a=0.5, got {spec!r}")
        try:
            a = float(body[2:])
        except ValueError:
            raise ParseError(f"bad power exponent in {spec!r}") from None
        try:
            return Weight.power(a)
        except DomainError as e:
            raise ParseError(str(e)) from None
    if s.startswith("explicit:"):
        body = s[len("explicit:") :].strip()
        if body.startswith("["):
            arr = load_json(body, "explicit weight array")
        else:
            if not os.path.exists(body):
                raise ParseError(f"explicit weight file not found: {body}")
            with open(body) as f:
                arr = load_json(f.read(), f"explicit weight file {body}")
        if not isinstance(arr, list) or not arr:
            raise ParseError("explicit weight must be a nonempty JSON array")
        try:
            return Weight.explicit(arr)
        except DomainError as e:
            raise ParseError(str(e)) from None
    raise ParseError(f"unknown weight spec {spec!r}")


@dataclass
class ConditionReport(JsonRecord):
    """Outcome of a finite-horizon weight-condition check."""

    condition: str
    params: dict
    horizon: int
    profile_args: np.ndarray = json_key(None)
    profile_values: np.ndarray = json_key(None)
    extremum: float
    arg_extremum: int | tuple[int, int]
    verdict: str  # consistent | violated | inconclusive
    note: str
    json_computed = ("profile",)
    profile_points = 129  # the printed profile samples this many points, plus the extremum

    @property
    def profile(self) -> list[list[float]]:
        """Geometrically subsampled profile, always including the extremum."""
        n = self.profile_args.shape[0]
        if n == 0:
            return []
        if n <= self.profile_points:
            sel = np.arange(n)
        else:
            sel = np.unique(np.geomspace(1, n, self.profile_points).astype(np.int64) - 1)
        if isinstance(self.arg_extremum, int):
            hits = np.nonzero(self.profile_args == self.arg_extremum)[0]
            if hits.size:
                sel = np.unique(np.append(sel, hits[0]))
        return [[int(self.profile_args[i]), float(self.profile_values[i])] for i in sel]


def check_nuc(w: Weight, horizon: int, slack: float = 0.1) -> ConditionReport:
    """Profile r(n) = S(2n)/S(n) for n <= horizon against inf_n r(n) = 1.

    The verdict is ``consistent`` when min r(n) - 1 < slack and
    ``inconclusive`` otherwise: a finite prefix can bound the infimum from
    above but can never certify that it equals 1.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    if 2 * horizon > _HORIZON_CAP:
        raise DomainError(f"horizon {horizon} is beyond the supported range")
    if not (0 < slack < math.inf):
        raise DomainError(f"slack must be positive and finite, got {slack}")
    ns = np.arange(1, horizon + 1, dtype=np.int64)
    ratios = w.prefix_sums(2 * ns) / w.prefix_sums(ns)
    k = int(np.argmin(ratios))
    mn = float(ratios[k])
    if mn - 1.0 < slack:
        verdict = "consistent"
        note = (
            "min ratio is within the slack of 1; a finite prefix cannot certify "
            "that the infimum over all n equals 1"
        )
    else:
        verdict = "inconclusive"
        note = (
            "min ratio stays above 1 + slack on this horizon; the infimum over "
            "all n may still reach 1 beyond it"
        )
    return ConditionReport(
        condition="nuc",
        params={"slack": slack},
        horizon=horizon,
        profile_args=ns,
        profile_values=ratios,
        extremum=mn,
        arg_extremum=int(ns[k]),
        verdict=verdict,
        note=note,
    )


def check_2sb(w: Weight, horizon: int) -> ConditionReport:
    """Profile q(n,k) = S(nk)/(S(n) S(k)) for n <= k <= horizon.

    Reports the sup over the triangle.  A finite sup is always consistent
    with the boundedness condition; the report says the horizon is finite.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    if horizon * horizon > _HORIZON_CAP:
        raise DomainError(f"horizon {horizon} is beyond the supported range")
    ns = np.arange(1, horizon + 1, dtype=np.int64)
    S = w.prefix_sums(ns)
    q = w.prefix_sums(np.outer(ns, ns)) / np.outer(S, S)
    iu = np.triu_indices(horizon)
    tri = q[iu]
    k = int(np.argmax(tri))
    sup = float(tri[k])
    arg = (int(iu[0][k] + 1), int(iu[1][k] + 1))
    return ConditionReport(
        condition="2sb",
        params={},
        horizon=horizon,
        profile_args=ns,
        profile_values=np.max(np.triu(q), axis=1),  # row-wise sup profile
        extremum=sup,
        arg_extremum=arg,
        verdict="consistent",
        note="finite sup over a finite horizon; boundedness beyond it is not certified",
    )


def check_summable(w: Weight, r: float, horizon: int) -> ConditionReport:
    """Profile partial sums of w_i**r and decide summability where possible.

    For the parametric kinds the verdict uses the closed form: i**(-a*r) is
    summable iff a*r > 1 (harmonic has a = 1).  For explicit weights only a
    finite prefix is known, so the verdict is inconclusive.
    """
    if not (0 < r < math.inf):
        raise DomainError(f"summability exponent must be positive and finite, got {r}")
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    if horizon > _HORIZON_CAP:
        raise DomainError(f"horizon {horizon} is beyond the supported range")
    ns = np.arange(1, horizon + 1, dtype=np.int64)
    if w.kind == "explicit":
        partial = _compensated_sums(w.values(1, horizon + 1) ** r)[1:]
        verdict = "inconclusive"
        note = "explicit weight gives only a finite prefix; summability is undetermined"
    else:
        partial = _PowerSums(w.a * r, w.values(1, _N0 + 1) ** r)(ns)
        summable = w.a * r > 1.0
        verdict = "consistent" if summable else "violated"
        note = (
            f"closed-form criterion a*r > 1 with a = {w.a}: "
            + ("series converges" if summable else "series diverges")
        )
    return ConditionReport(
        condition="summable",
        params={"r": r},
        horizon=horizon,
        profile_args=ns,
        profile_values=partial,
        extremum=float(partial[-1]),
        arg_extremum=int(horizon),
        verdict=verdict,
        note=note,
    )
