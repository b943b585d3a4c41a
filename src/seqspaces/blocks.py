"""Constant-coefficient block systems over a weighted symmetric basis.

A block system packs, for each level k = 1..k_max, k consecutive blocks of a
common size M_k, where M_k is the smallest size whose constant-coefficient
blocks are K-equivalent to the unit basis of l_inf^k: the equivalence
constant is exactly (S(k M_k)/S(M_k))^{1/p}, with S the prefix sums of the
weight.  Each block is normalized by c_k = S(M_k)^{1/p}, the Lorentz (and
Garling) norm of a constant block of size M_k.

Expanded vectors are run-length encoded (RunVec): block sizes grow fast as
K comes down, so dense supports are impractical.  Use .to_coeffvec() on the
result for small systems.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, ScanCapExceeded
from .jsonio import JsonRecord, dumps, load_json
from .norms import (
    _FINITE_P,
    SpaceSpec,
    garling_norm_runs,
    lorentz_norm_runs,
    norm,
    parse_space,
)
from .vectors import CoeffVec, RunVec, add_coeffvecs, json_index, json_real
from .weights import Weight, make_weight

__all__ = [
    "Level",
    "BlockSystem",
    "find_block_sizes",
    "expand",
    "wp_norm",
    "WpEquivReport",
    "wp_equivalence_ratios",
    "averaging_projection",
    "fdd_block_check",
]

_DEFAULT_SCAN_CAP = 10**7


@dataclass(frozen=True)
class Level(JsonRecord):
    """One level: k blocks of size M starting at ``start``, normalizer c."""

    k: int
    M: int
    start: int
    c: float

    def block_range(self, i: int) -> tuple[int, int]:
        """Half-open index range [lo, hi) of the i-th block, 1-based i."""
        if not (1 <= i <= self.k):
            raise DomainError(f"block index {i} out of range at level {self.k}")
        lo = self.start + (i - 1) * self.M
        return lo, lo + self.M

    @property
    def end(self) -> int:
        """First index after the level."""
        return self.start + self.k * self.M


@dataclass(frozen=True)
class BlockSystem(JsonRecord):
    weight: Weight
    p: float
    K: float
    levels: tuple[Level, ...]
    scan_cap: int = _DEFAULT_SCAN_CAP

    def __post_init__(self):
        _FINITE_P.check(self.p, "block system exponent")
        if not (self.K > 1.0):
            raise DomainError(f"target constant must exceed 1, got {self.K}")
        pos = 1
        for n, lvl in enumerate(self.levels, start=1):
            if lvl.k != n:
                raise DomainError("levels must be numbered 1..k_max consecutively")
            if lvl.start != pos:
                raise DomainError("levels must be laid out consecutively")
            if lvl.M < 1:
                raise DomainError("block sizes must be positive")
            pos = lvl.end

    @property
    def k_max(self) -> int:
        return len(self.levels)

    @property
    def span(self) -> int:
        """Total number of indices covered by all blocks."""
        return 0 if not self.levels else self.levels[-1].end - 1

    def certificate(self, k: int) -> float:
        """(S(k M_k)/S(M_k))^{1/p}: the exact l_inf^k equivalence constant."""
        lvl = self.levels[k - 1]
        s1, sk = self.weight.prefix_sums([lvl.M, k * lvl.M])
        return float(sk / s1) ** (1.0 / self.p)

    def to_json(self) -> str:
        return dumps(self)

    @staticmethod
    def from_json_dict(obj) -> "BlockSystem":
        try:
            w = make_weight(obj["weight"])
            levels = tuple(
                Level(
                    k=json_index(l["k"], "level 'k'"),
                    M=json_index(l["M"], "level 'M'"),
                    start=json_index(l["start"], "level 'start'"),
                    c=json_real(l["c"], "level 'c'"),
                )
                for l in obj["levels"]
            )
            scan_cap = json_index(obj.get("scan_cap", _DEFAULT_SCAN_CAP), "'scan_cap'")
            if scan_cap < 1:
                raise ParseError(f"'scan_cap' must be at least 1, got {scan_cap}")
            return BlockSystem(
                weight=w,
                p=json_real(obj["p"], "'p'"),
                K=json_real(obj["K"], "'K'"),
                levels=levels,
                scan_cap=scan_cap,
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"bad block system JSON: {e}") from None

    @staticmethod
    def from_json(text: str) -> "BlockSystem":
        return BlockSystem.from_json_dict(load_json(text, "block system JSON"))


def _find_min_M(w: Weight, k: int, Kp: float, p: float, cap: int) -> int:
    """Smallest M with S(kM)/S(M) <= Kp, by upward scan in growing chunks."""
    if k == 1:
        return 1
    best = math.inf
    chunk = 1 << 12
    max_chunk = max(1 << 14, (1 << 22) // k)
    lo = 1
    while lo <= cap:
        hi = min(lo + chunk - 1, cap)
        ms = np.arange(lo, hi + 1, dtype=np.int64)
        ratios = w.prefix_sums(k * ms) / w.prefix_sums(ms)
        ok = ratios <= Kp
        if ok.any():
            return lo + int(np.argmax(ok))
        best = min(best, float(ratios.min()))
        lo = hi + 1
        chunk = min(chunk * 2, max_chunk)
    raise ScanCapExceeded(level=k, cap=cap, best_ratio=best ** (1.0 / p))


def find_block_sizes(
    w: Weight, p: float, K: float, k_max: int, scan_cap: int = _DEFAULT_SCAN_CAP
) -> BlockSystem:
    """Build the minimal block system for (w, p, K) with levels 1..k_max.

    For each level, M_k is the smallest block size whose k constant blocks
    are K-equivalent to l_inf^k, i.e. S(k M_k)/S(M_k) <= K^p.  Raises a
    structured ScanCapExceeded naming the level when no size up to
    ``scan_cap`` qualifies (the weight is not flat enough at this K).
    """
    if not (K > 1.0):
        raise DomainError(f"target constant must exceed 1, got {K}")
    _FINITE_P.check(p, "exponent")
    if k_max < 1:
        raise DomainError("need at least one level")
    if scan_cap < 1:
        raise DomainError("scan cap must be positive")
    Kp = K**p
    levels = []
    start = 1
    for k in range(1, k_max + 1):
        M = _find_min_M(w, k, Kp, p, scan_cap)
        c = w.prefix_sum(M) ** (1.0 / p)
        levels.append(Level(k=k, M=M, start=start, c=c))
        start += k * M
    return BlockSystem(weight=w, p=p, K=K, levels=tuple(levels), scan_cap=scan_cap)


def _coeff_rows(bs: BlockSystem, A) -> list[list[float]]:
    rows = [list(map(float, row)) for row in A]
    if len(rows) > bs.k_max:
        raise DomainError(f"{len(rows)} coefficient rows for {bs.k_max} levels")
    for n, row in enumerate(rows, start=1):
        if len(row) > n:
            raise DomainError(f"level {n} takes at most {n} coefficients, got {len(row)}")
        for x in row:
            if not math.isfinite(x):
                raise DomainError("coefficients must be finite")
    return rows

def expand(bs: BlockSystem, A) -> RunVec:
    """Raw vector sum_{k,i} a_i^{(k)} c_k^{-1} 1_{block(k,i)}, run encoded.

    ``A`` is a level-indexed ragged array: row k-1 holds up to k coefficients
    (missing entries are zero).
    """
    rows = _coeff_rows(bs, A)
    starts, lens, vals = [], [], []
    for lvl, row in zip(bs.levels, rows):
        for i, a in enumerate(row):
            if a != 0.0:
                starts.append(lvl.start + i * lvl.M)
                lens.append(lvl.M)
                vals.append(a / lvl.c)
    return RunVec(
        np.asarray(starts, dtype=np.int64),
        np.asarray(lens, dtype=np.int64),
        np.asarray(vals, dtype=np.float64),
    )


def wp_norm(A, p: float) -> float:
    """(sum over levels of max_i |a_i^{(k)}|^p)^{1/p}."""
    _FINITE_P.check(p, "exponent")
    maxes = []
    for row in A:
        row = [abs(float(x)) for x in row]
        if row and max(row) > 0.0:
            maxes.append(max(row))
    if not maxes:
        return 0.0
    return math.fsum(m**p for m in maxes) ** (1.0 / p)


@dataclass(frozen=True)
class WpEquivReport(JsonRecord):
    space: str
    samples: int
    seed: int
    cases: int
    min_ratio: float
    max_ratio: float
    min_witness: list
    max_witness: list
    K: float
    passed: bool


def _sample_coeff_rows(bs: BlockSystem, rng: np.random.Generator) -> list[list[float]]:
    rows = []
    style = rng.integers(0, 3)
    for lvl in bs.levels:
        if style == 0:
            row = rng.uniform(-1.0, 1.0, size=lvl.k)
        elif style == 1:
            row = rng.standard_normal(lvl.k) * np.exp(rng.uniform(-3.0, 1.0))
        else:
            row = rng.uniform(-1.0, 1.0, size=lvl.k)
            row[rng.random(lvl.k) < 0.5] = 0.0
        rows.append([float(x) for x in row])
    return rows


def wp_equivalence_ratios(
    bs: BlockSystem, space: str = "lorentz", samples: int = 1000, seed: int = 0
) -> WpEquivReport:
    """Ratios norm(expand(A))/||A||_{W_p} over deterministic and random A.

    The upper bound max ratio <= K is asserted (it is exact for this
    construction); the min ratio is only reported.  ``space`` selects the
    Lorentz or the Garling norm for the expanded vector; the Garling variant
    densifies and is for small systems only.
    """
    if space not in ("lorentz", "garling"):
        raise DomainError(f"space must be lorentz or garling, got {space!r}")
    if samples < 0:
        raise DomainError("sample count must be nonnegative")
    w, p = bs.weight, bs.p

    def ratio(rows) -> float:
        denom = wp_norm(rows, p)
        if denom == 0.0:
            return 1.0
        rv = expand(bs, rows)
        if space == "lorentz":
            num = lorentz_norm_runs(rv, w, p)
        else:
            num = garling_norm_runs(rv, w, p)
        return num / denom

    cases: list[list[list[float]]] = []
    for lvl in bs.levels:  # single normalized block
        cases.append([[0.0]] * (lvl.k - 1) + [[1.0]])
    for lvl in bs.levels:  # all ones at one level: ratio = certificate
        cases.append([[0.0]] * (lvl.k - 1) + [[1.0] * lvl.k])
    cases.append([[1.0] * (n + 1) for n in range(bs.k_max)])  # all ones everywhere
    for j in range(samples):
        rng = np.random.default_rng([seed, j])
        cases.append(_sample_coeff_rows(bs, rng))

    lo, hi = math.inf, -math.inf
    lo_w, hi_w = None, None
    n_run = 0
    for rows in cases:
        if wp_norm(rows, p) == 0.0:
            continue
        r = ratio(rows)
        n_run += 1
        if r < lo:
            lo, lo_w = r, rows
        if r > hi:
            hi, hi_w = r, rows
    passed = n_run > 0 and hi <= bs.K * (1.0 + 1e-12) and lo > 0.0
    return WpEquivReport(
        space=space,
        samples=samples,
        seed=seed,
        cases=n_run,
        min_ratio=lo,
        max_ratio=hi,
        min_witness=lo_w,
        max_witness=hi_w,
        K=bs.K,
        passed=passed,
    )


def averaging_projection(bs: BlockSystem, x: CoeffVec | RunVec) -> RunVec:
    """Replace x on each block by the block's coordinate average.

    Coordinates outside all blocks are annihilated.  A run that covers a
    whole block on its own passes its value through unchanged, which makes
    the projection exactly idempotent on its range.
    """
    if isinstance(x, CoeffVec):
        x = RunVec(x.indices, np.ones_like(x.indices), x.values)  # unit runs
    elif not isinstance(x, RunVec):
        raise DomainError("projection input must be a coefficient or run vector")
    r_starts, r_vals = x.starts.tolist(), x.values.tolist()
    r_ends = (x.starts + x.lengths).tolist()
    starts, lens, vals = [], [], []
    for lvl in bs.levels:
        for i in range(1, lvl.k + 1):
            blo, bhi = lvl.block_range(i)
            first = bisect.bisect_right(r_ends, blo)
            last = bisect.bisect_left(r_starts, bhi)
            if first >= last:
                continue
            if last - first == 1 and r_starts[first] <= blo and r_ends[first] >= bhi:
                lam = r_vals[first]
            else:
                lam = math.fsum(
                    r_vals[j] * (min(r_ends[j], bhi) - max(r_starts[j], blo))
                    for j in range(first, last)
                ) / lvl.M
            if lam != 0.0:
                starts.append(blo)
                lens.append(lvl.M)
                vals.append(lam)
    return RunVec(
        np.asarray(starts, dtype=np.int64),
        np.asarray(lens, dtype=np.int64),
        np.asarray(vals, dtype=np.float64),
    )


def fdd_block_check(
    blocks: list[CoeffVec],
    components: list[tuple[SpaceSpec | str, int]],
    p: float,
    c,
) -> tuple[float, float]:
    """Both sides of the l_p direct-sum identity for disjoint block vectors.

    ``components`` lists (space spec, dimension) pairs laid out consecutively
    in global coordinates.  Each block must be supported on its own set of
    components (sharing a component raises DomainError).  Returns
    (||sum c_i z_i||, (sum |c_i|^p ||z_i||^p)^{1/p}); the two agree up to
    floating point rounding.
    """
    _FINITE_P.check(p, "outer exponent")
    if len(c) != len(blocks):
        raise DomainError("one coefficient per block required")
    specs = [parse_space(s) for s, _ in components]
    dims = [int(d) for _, d in components]
    if any(d < 1 for d in dims):
        raise DomainError("component dimensions must be positive")
    offsets = np.concatenate(([0], np.cumsum(dims)))  # comp j spans (offsets[j], offsets[j+1]]
    total = int(offsets[-1])

    def comp_ids(v: CoeffVec) -> set[int]:
        if v.is_zero():
            return set()
        if v.support_max > total:
            raise DomainError(f"support reaches {v.support_max}, beyond the {total} components")
        return set((np.searchsorted(offsets, v.indices, side="left") - 1).tolist())

    def sum_norm_p(v: CoeffVec) -> float:
        """sum over components of ||v restricted to the component||^p."""
        if v.is_zero():
            return 0.0
        parts = []
        for j in sorted(comp_ids(v)):
            lo = int(np.searchsorted(v.indices, offsets[j] + 1, side="left"))
            hi = int(np.searchsorted(v.indices, offsets[j + 1], side="right"))
            # A slice of a valid vector, shifted so that its component starts at index 1.
            local = CoeffVec._trusted(v.indices[lo:hi] - int(offsets[j]), v.values[lo:hi])
            parts.append(norm(local, specs[j]).mid ** p)
        return math.fsum(parts)

    owned: set[int] = set()
    for z in blocks:
        ids = comp_ids(z)
        if ids & owned:
            raise DomainError("blocks share a component; ranges must be disjoint")
        owned |= ids

    combined = add_coeffvecs([(float(ci), z) for ci, z in zip(c, blocks)])
    lhs = sum_norm_p(combined) ** (1.0 / p)
    rhs = math.fsum(
        abs(float(ci)) ** p * sum_norm_p(z) for ci, z in zip(c, blocks)
    ) ** (1.0 / p)
    return lhs, rhs
