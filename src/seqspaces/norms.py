"""Norms of finitely supported vectors in the supported sequence spaces.

Families and their admissible exponents:

* ``lp:p=<p>``                      p in [1, inf]
* ``lorentz:w=<wspec>,p=<p>``       p in [1, inf); sup over rearrangements
* ``garling:w=<wspec>,p=<p>``       p in [1, inf); sup over increasing subsequences
* ``cesaro:p=<p>``                  p in (1, inf]; norm of the prefix averages
* ``tandori:p=<p>``                 p in [1, inf); norm of the suffix suprema
* ``blocksum:lengths=<..>,inner=<q>,outer=<p>``  lengths dyadic | triangular
* ``epw:n=<n>,p=<p>,w=<w>``         max of the l_p norm and w times the l_2 norm

Each family is one entry of the table ``_FAMILIES``: its spec fields in
canonical order, its exponent domain, whether its norm is rearrangement
invariant, and how to build, format and evaluate it.  ``SpaceSpec``
validation and formatting, ``parse_space`` and ``norm`` are each one lookup
in that table, and each kernel checks its exponent against the same domain
object, so a new family takes one kernel and one entry.

The Cesaro norm of a finitely supported vector is an infinite series, so it
is returned as a certified Bracket; every other family is exact in floating
point and is reported as a degenerate bracket by the dispatcher.

p = inf is written as the literal token ``inf`` in spec strings.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ParseError
from .series import Bracket, power_tail_bracket
from .vectors import DENSIFY_CAP, CoeffVec, RunVec
from .weights import Weight, make_weight

__all__ = [
    "SpaceSpec",
    "parse_space",
    "parse_exponent",
    "format_exponent",
    "lp_norm",
    "lorentz_norm",
    "garling_norm",
    "garling_norm_bruteforce",
    "tandori_norm",
    "cesaro_norm",
    "blocksum_norm",
    "epw_norm",
    "norm",
    "lorentz_norm_runs",
    "garling_norm_runs",
]

_GARLING_NUMPY_CUTOFF = 36
_PACK_ROWS = 64  # rows per batch-kernel call of _packed_norms
_GARLING_CHUNK = 64  # positions per column-range step of the numpy Garling DP
_BRUTEFORCE_CAP = 20
_GARLING_RUNS_CAP = 1 << 15
_NORMAL_MIN = np.finfo(np.float64).smallest_normal
_BLOCK_LENGTHS = {  # named block length sequences of the blocksum family
    "dyadic": lambda: (1 << (n - 1) for n in itertools.count(1)),
    "triangular": lambda: itertools.count(1),
}


def parse_exponent(token: str) -> float:
    """Parse an exponent token: a decimal number or the literal ``inf``."""
    t = token.strip()
    if t == "inf":
        return math.inf
    try:
        p = float(t)
    except ValueError:
        raise ParseError(f"bad exponent {token!r} (use a decimal number or 'inf')") from None
    if math.isnan(p) or math.isinf(p):
        raise ParseError(f"bad exponent {token!r} (use a decimal number or 'inf')")
    return p


def format_exponent(p: float) -> str:
    if math.isinf(p):
        return "inf"
    return repr(int(p)) if float(p).is_integer() else repr(p)


@dataclass(frozen=True)
class _Exponents:
    """The exponents p >= 1 (p > 1 when ``open_lo``), with p = inf when ``with_inf``."""

    open_lo: bool = False
    with_inf: bool = True

    def check(self, p: float, what: str) -> None:
        if not ((p > 1.0 if self.open_lo else p >= 1.0) and (self.with_inf or p < math.inf)):
            raise DomainError(f"{what} must be in {self}, got {p}")

    def __str__(self) -> str:
        return ("(1, " if self.open_lo else "[1, ") + ("inf]" if self.with_inf else "inf)")


_ANY_P = _Exponents()  # [1, inf]
_FINITE_P = _Exponents(with_inf=False)  # [1, inf)
_ABOVE_ONE = _Exponents(open_lo=True)  # (1, inf]


@dataclass(frozen=True)
class SpaceSpec:
    """A parsed space description."""

    family: str
    p: float
    weight: Weight | None = None
    inner: float | None = None
    lengths: str | None = None
    n: int | None = None
    w_scalar: float | None = None

    def __post_init__(self):
        entry = _FAMILIES.get(self.family)
        if entry is None:
            raise DomainError(f"unknown space family {self.family!r}")
        for f in entry.fields:
            if getattr(self, f.attr) is None:
                raise DomainError(f"{self.family} space needs its {f.name} field")
        entry.domain.check(self.p, f"{self.family} exponent")
        entry.validate(self)

    @property
    def spec(self) -> str:
        fields = _FAMILIES[self.family].fields
        return f"{self.family}:" + ",".join(
            f"{f.name}={f.format(getattr(self, f.attr))}" for f in fields
        )

    def __repr__(self) -> str:
        return f"SpaceSpec({self.spec})"


def _split_fields(body: str) -> list[str]:
    """Split on commas at bracket depth zero (weight specs may contain commas)."""
    parts = []
    depth = 0
    cur = []
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced brackets in {body!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {body!r}")
    parts.append("".join(cur))
    return parts


def _parse_fields(body: str, allowed: tuple[str, ...], where: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in _split_fields(body):
        if "=" not in part:
            raise ParseError(f"expected key=value in {where}, got {part!r}")
        key, val = part.split("=", 1)
        key = key.strip()
        if key not in allowed:
            raise ParseError(f"unknown field {key!r} in {where} (allowed: {', '.join(allowed)})")
        if key in out:
            raise ParseError(f"duplicate field {key!r} in {where}")
        out[key] = val.strip()
    missing = [k for k in allowed if k not in out]
    if missing:
        raise ParseError(f"missing field(s) {', '.join(missing)} in {where}")
    return out


def _parse_weighted_fields(body: str, allowed: tuple[str, ...], where: str) -> dict[str, str]:
    """``w=<weight>,p=<exponent>``: w= consumes everything up to the final ,p= field."""
    parts = _split_fields(body)
    first, last = parts[0].strip(), parts[-1].strip()
    if len(parts) < 2 or not first.startswith("w=") or not last.startswith("p="):
        raise ParseError(f"{where} needs w=<weight> and p=<exponent>")
    return {"w": ",".join([first[2:]] + parts[1:-1]), "p": last[2:]}


def parse_space(spec: str | SpaceSpec) -> SpaceSpec:
    """Parse a space spec string (grammar in the module docstring); a SpaceSpec passes through.

    Parsed strings are remembered (the last 256): a SpaceSpec and its Weight
    are never modified, so one object serves every call.  A bad spec raises
    each time, and a spec naming an explicit weight file reads the file each
    time.
    """
    if isinstance(spec, SpaceSpec):
        return spec
    if not isinstance(spec, str):
        raise ParseError("space spec must be a string")
    if any(not w.lstrip().startswith("[") for w in spec.split("explicit:")[1:]):
        return _parse_space_str(spec)
    return _parse_space_cached(spec)


def _parse_space_str(spec: str) -> SpaceSpec:
    s = spec.strip()
    if ":" not in s:
        raise ParseError(f"space spec needs a family prefix, got {spec!r}")
    family, body = s.split(":", 1)
    family = family.strip()
    entry = _FAMILIES.get(family)
    if entry is None:
        raise ParseError(f"unknown space family {family!r}")
    where = f"{family} spec"
    tokens = entry.split(body, tuple(f.name for f in entry.fields), where)
    values = {}
    for f in entry.fields:
        try:
            values[f.attr] = f.parse(tokens[f.name])
        except ParseError:
            raise
        except ValueError:  # int() or float() of a bad token
            raise ParseError(f"bad {f.name} {tokens[f.name]!r} in {where}") from None
    return SpaceSpec(family, **values)


_parse_space_cached = functools.lru_cache(maxsize=256)(_parse_space_str)


# ---------------------------------------------------------------------------
# norm implementations
# ---------------------------------------------------------------------------


def _lp(a: np.ndarray, p: float) -> float:
    """The l_p norm of a nonempty array of magnitudes."""
    if math.isinf(p):
        return float(a.max())
    if p == 1.0:
        return math.fsum(a)
    return math.fsum(a**p) ** (1.0 / p)


def lp_norm(v: CoeffVec, p: float) -> float:
    """The l_p norm, p in [1, inf]."""
    _ANY_P.check(p, "lp_norm exponent")
    if v.is_zero():
        return 0.0
    return _lp(np.abs(v.values), p)


def lorentz_norm(v: CoeffVec, w: Weight, p: float) -> float:
    """Largest rearrangement of sum |a|^p w: pair sorted values with w_1, w_2, ...

    The sup over permutations is attained by sorting |a| in nonincreasing
    order, because the weights are nonincreasing.
    """
    _FINITE_P.check(p, "lorentz_norm exponent")
    if v.is_zero():
        return 0.0
    m = len(v)
    wv = w.values(1, m + 1)
    a = np.sort(np.abs(v.values))[::-1]
    return math.fsum(a**p * wv) ** (1.0 / p)


def garling_norm(v: CoeffVec, w: Weight, p: float) -> float:
    """Sup of sum_k |a_{n_k}|^p w_k over strictly increasing index sequences.

    Dynamic program over support positions in index order: after each
    position, best[k] holds the largest attainable sum using exactly k
    selected positions, the k-th selected position being paired with w_k.
    Zeros contribute nothing and only waste a weight slot, so only the
    support is iterated.  O(m^2) in the support size m.

    Above ``_GARLING_NUMPY_CUTOFF`` entries each position is one numpy
    update of columns 1..n, n the last position of its chunk of
    ``_GARLING_CHUNK``; the width grows and the views are taken once per
    chunk.  After position i (counting from 1) a column past i can only hold
    a selection that leaves a weight slot unused, and such a selection never
    beats the maximum (see ``_garling_rows``).  So any width from i to m
    columns gives the same float.
    """
    _FINITE_P.check(p, "garling_norm exponent")
    if v.is_zero():
        return 0.0
    m = len(v)
    wv = w.values(1, m + 1)
    vp = np.abs(v.values) ** p
    if m <= _GARLING_NUMPY_CUTOFF:  # Python floats: no numpy scalar per step
        wv = wv.tolist()
        best = [0.0] * (m + 1)
        for i, t in enumerate(vp.tolist()):
            for k in range(i + 1, 0, -1):
                cand = best[k - 1] + t * wv[k - 1]
                if cand > best[k]:
                    best[k] = cand
        return max(best[1:]) ** (1.0 / p)
    best = np.zeros(m + 1, dtype=np.float64)
    for c in range(0, m, _GARLING_CHUNK):
        n = min(c + _GARLING_CHUNK, m)
        hi, lo, wn = best[1 : n + 1], best[:n], wv[:n]
        for t in vp[c:n]:
            np.maximum(hi, lo + t * wn, out=hi)
    return float(best[1:].max()) ** (1.0 / p)


def garling_norm_bruteforce(v: CoeffVec, w: Weight, p: float) -> float:
    """Independent oracle: every subset's sum, adding its entries left to right.

    Subsets are bit masks; the i-th entry joins with the weight of its rank
    among those selected.  By doubling, the sums of masks in [2^i, 2^(i+1))
    are those below 2^i plus entry i at rank popcount: 2^m additions, in
    place.  At the cap, m = 20, the peak memory is 13 MB: the sums (8 MB), a
    uint8 popcount table (1 MB) and ``take``'s index copy of half (4 MB).
    """
    _FINITE_P.check(p, "garling_norm_bruteforce exponent")
    m = len(v)  # the zero vector has one subset, the empty one, of sum 0.0
    if m > _BRUTEFORCE_CAP:
        raise DomainError(f"brute force supports at most {_BRUTEFORCE_CAP} entries, got {m}")
    wv = np.asarray(w.values(1, m + 1), dtype=np.float64)
    sums = np.zeros(1 << m)
    count = np.zeros(1 << m, dtype=np.uint8)
    for i, t in enumerate((np.abs(v.values) ** p).tolist()):
        h = 1 << i
        hi = sums[h : 2 * h]  # every mask below 2^i, with entry i added last
        wv.take(count[:h], out=hi, mode="clip")  # "raise" would buffer out
        hi *= t
        hi += sums[:h]
        np.add(count[:h], 1, out=count[h : 2 * h])
    return float(sums.max()) ** (1.0 / p)


def tandori_norm(v: CoeffVec, p: float) -> float:
    """l_p norm of i -> sup_{j >= i} |a_j|, p in [1, inf)."""
    _FINITE_P.check(p, "tandori_norm exponent")
    if v.is_zero():
        return 0.0
    # Positions i in (idx_{j-1}, idx_j] share the suffix supremum
    # max(|a_{idx_j}|, ..., |a_{idx_m}|); beyond idx_m the supremum is 0.
    terms = np.maximum.accumulate(np.abs(v.values)[::-1])[::-1] ** p
    lens = np.diff(np.concatenate(([0], v.indices)))
    if v.support_max <= DENSIFY_CAP:
        # Exactly rounded accumulation over the per-index terms.
        total = math.fsum(np.repeat(terms, lens))
    else:
        total = math.fsum(terms * lens)
    return total ** (1.0 / p)


def _cesaro_head(a: np.ndarray, lens: np.ndarray, first: int, p: float) -> tuple[float, float]:
    """(sum of (prefix average)^p through the support, (sum |a|)^p); inf on overflow."""
    prefixes = np.cumsum(a)
    running = np.repeat(prefixes, lens)  # prefix sums of |a| at idx_1 .. n_max
    with np.errstate(over="ignore"):
        try:
            head = math.fsum((running / np.arange(first, first + running.size)) ** p)
            return head, float(prefixes[-1]) ** p
        except OverflowError:
            return math.inf, math.inf


def cesaro_norm(v: CoeffVec, p: float, tol: float = 1e-9) -> Bracket:
    """l_p norm of the prefix averages i -> (1/i) sum_{j<=i} |a_j|, p in (1, inf].

    For finite p this is an infinite series: the averages decay like
    sum|a| / i past the support.  The head through the support and beyond is
    summed exactly; the remaining tail is bracketed via power_tail_bracket
    and tightened until the bracket width is at most tol relative to the
    norm value.  When the head or (sum|a|)^p leaves the normal float range,
    the series is summed for 2**-k v instead, with sum|a| in [1/2, 1), and
    the bracket is scaled back by 2**k: the norm is homogeneous, and scaling
    by a power of two is exact.
    """
    _ABOVE_ONE.check(p, "cesaro_norm exponent")
    if not (0 < tol < math.inf):
        raise DomainError(f"cesaro_norm: tolerance must be positive and finite, got {tol}")
    if v.is_zero():
        return Bracket.exact(0.0)
    idx = v.indices
    a = np.abs(v.values)
    if math.isinf(p):
        # Averages only change at support points and decay in between.
        sup = float(np.max(np.cumsum(a) / idx))
        return Bracket.exact(sup)
    n_max = v.support_max
    if n_max > DENSIFY_CAP:
        raise DomainError(f"cesaro_norm: support extends past {DENSIFY_CAP}")
    # The prefix sum is constant on [idx_j, idx_{j+1}) and zero before idx_1.
    lens = np.diff(np.concatenate((idx, [n_max + 1])))
    head, scale = _cesaro_head(a, lens, int(idx[0]), p)
    k = 0
    if not (_NORMAL_MIN <= min(head, scale) and max(head, scale) < math.inf):
        e = math.frexp(float(a.max()))[1]
        k = e + math.frexp(math.fsum(np.ldexp(a, -e)))[1]
        head, scale = _cesaro_head(np.ldexp(a, -k), lens, int(idx[0]), p)
    # Tail: sum_{i>n_max} (sum|a| / i)^p, tightened until relative width <= tol.
    width_target = tol * max(head, scale * 1e-6)
    for _ in range(60):
        tail = power_tail_bracket(p, n_max, width_target / max(scale, 1e-300))
        bracket = Bracket(
            (head + scale * tail.lo) ** (1.0 / p), (head + scale * tail.hi) ** (1.0 / p)
        )
        if bracket.width <= tol * bracket.mid:
            break
        width_target *= 0.25
    return Bracket(math.ldexp(bracket.lo, k), math.ldexp(bracket.hi, k))


def _block_lengths(lengths: str, support_max: int):
    """Yield (start, length) per named-family block until the blocks cover support_max."""
    if lengths not in _BLOCK_LENGTHS:
        raise DomainError(f"unknown block length family {lengths!r}")
    lens = _BLOCK_LENGTHS[lengths]()  # endless
    start = 1
    while start <= support_max:
        ln = next(lens)
        yield start, ln
        start += ln


def blocksum_norm(v: CoeffVec, lengths: str, inner: float, outer: float) -> float:
    """Outer l_p norm of the per-block inner l_q norms.

    ``lengths`` is "dyadic" (1, 2, 4, ...) or "triangular" (1, 2, 3, ...).
    An outer exponent of inf is the supremum; for finitely supported vectors
    the c_0-style direct sum has the same norm.
    """
    _ANY_P.check(inner, "blocksum_norm inner exponent")
    _ANY_P.check(outer, "blocksum_norm outer exponent")
    if v.is_zero():
        return 0.0
    starts = np.array([start for start, _ in _block_lengths(lengths, v.support_max)])
    # The blocks cover 1..support_max, so every index has a block; cut |a|
    # where the block changes, one part per nonempty block.
    block = np.searchsorted(starts, v.indices, side="right")
    cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), block.size]
    a = np.abs(v.values)
    block_norms = [_lp(a[lo:hi], inner) for lo, hi in zip(cuts, cuts[1:])]
    if math.isinf(outer):
        return max(block_norms)
    if outer == 1.0:
        return math.fsum(block_norms)
    return math.fsum(b**outer for b in block_norms) ** (1.0 / outer)


def _check_epw_args(n: int, w_scalar: float, what: str) -> None:
    if n < 1:
        raise DomainError(f"{what} needs a positive dimension n")
    if not (0.0 < w_scalar <= 1.0):
        raise DomainError(f"{what} scalar weight must be in (0, 1], got {w_scalar}")


def epw_norm(v: CoeffVec, n: int, p: float, w_scalar: float) -> float:
    """max of the l_p norm and w times the l_2 norm on coordinates 1..n."""
    _FINITE_P.check(p, "epw_norm exponent")
    _check_epw_args(n, w_scalar, "epw_norm")
    if v.support_max > n:
        raise DomainError(f"epw_norm: support reaches {v.support_max}, beyond n = {n}")
    return max(lp_norm(v, p), w_scalar * lp_norm(v, 2.0))


def norm(v: CoeffVec, space: SpaceSpec | str, tol: float = 1e-9) -> Bracket:
    """Evaluate the norm of ``v`` in ``space``; exact families give [x, x]."""
    s = parse_space(space)
    return _FAMILIES[s.family].evaluate(v, s, tol)


# ---------------------------------------------------------------------------
# batch variants: one norm per row of a dense nonnegative (B, n) array
# ---------------------------------------------------------------------------
#
# Each returns, for every row, the float its scalar kernel returns on
# CoeffVec.from_dense(row), to the bit.  They reach the same floating-point
# operations: zero entries only add exact zeros to a sum or a maximum, sums
# are per-row fsums, and roots are Python ``**``.  A power goes through the
# numpy loop its scalar kernel uses: a contiguous 1-d array (lp, garling,
# blocksum) or a reversed 1-d view (lorentz, tandori).  On CPUs with vector
# math the two loops differ in the last bit, and a 2-d array may reach
# either.


def _pow(X: np.ndarray, p: float) -> np.ndarray:
    """X**p by the loop for a contiguous 1-d array."""
    return (X.ravel() ** p).reshape(X.shape)


def _pow_reversed(X: np.ndarray, p: float) -> np.ndarray:
    """X**p by the loop for a reversed 1-d view."""
    return (X.ravel()[::-1] ** p)[::-1].reshape(X.shape)


def _row_fsums(X: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every row."""
    return np.array(list(map(math.fsum, X.tolist())), dtype=np.float64)


def _roots(sums: np.ndarray, p: float) -> np.ndarray:
    e = 1.0 / p
    return np.array([t**e for t in sums.tolist()], dtype=np.float64)


def _lp_rows(A: np.ndarray, p: float) -> np.ndarray:
    if math.isinf(p):
        return A.max(axis=1)
    if p == 1.0:
        return _row_fsums(A)
    return _roots(_row_fsums(_pow(A, p)), p)


def _lorentz_rows(A: np.ndarray, s: SpaceSpec) -> np.ndarray:
    m = int(np.count_nonzero(A, axis=1).max())
    if m == 0:
        return np.zeros(A.shape[0])
    desc = np.ascontiguousarray(np.sort(A, axis=1)[:, : -m - 1 : -1])  # nonzeros first
    return _roots(_row_fsums(_pow_reversed(desc, s.p) * s.weight.values(1, m + 1)), s.p)


def _garling_rows(A: np.ndarray, s: SpaceSpec) -> np.ndarray:
    """The numpy form of the Garling DP, run on all rows at once, column by column.

    It also admits selections that leave a weight slot unused (a zero entry,
    or a slot before the first entry).  Such a selection pairs the same
    entries with weights no larger (weights are nonincreasing), and rounding
    is monotone, so its float sum never exceeds that of the selection without
    the gap: the maximum is the list DP's, as for the scalar kernel's own
    numpy branch.  ``_packed_norms`` feeds it packed rows, zero-padded on the right.
    """
    m = int(np.count_nonzero(A, axis=1).max())
    if m == 0:
        return np.zeros(A.shape[0])
    wv = s.weight.values(1, m + 1)
    vp = _pow(A, s.p)
    best = np.zeros((A.shape[0], m + 1))
    for j in range(int(np.flatnonzero(A.any(axis=0))[-1]) + 1):
        np.maximum(best[:, 1:], best[:, :-1] + vp[:, j : j + 1] * wv, out=best[:, 1:])
    return _roots(best[:, 1:].max(axis=1), s.p)


def _tandori_rows(A: np.ndarray, s: SpaceSpec) -> np.ndarray:
    suffix_sup = np.maximum.accumulate(A[:, ::-1], axis=1)  # row order reversed
    return _roots(_row_fsums(_pow_reversed(suffix_sup, s.p)), s.p)


def _blocksum_rows(A: np.ndarray, s: SpaceSpec) -> np.ndarray:
    n = A.shape[1]
    cuts = [start - 1 for start, _ in _block_lengths(s.lengths, n)] + [n]
    blocks = np.column_stack(
        [_lp_rows(np.ascontiguousarray(A[:, lo:hi]), s.inner) for lo, hi in zip(cuts, cuts[1:])]
    )
    if math.isinf(s.p) or s.p == 1.0:
        return _lp_rows(blocks, s.p)
    powered = np.array([[b**s.p for b in row] for row in blocks.tolist()], dtype=np.float64)
    return _roots(_row_fsums(powered), s.p)


def _epw_rows(A: np.ndarray, s: SpaceSpec) -> np.ndarray:
    if A.shape[1] > s.n and A[:, s.n :].any():
        reach = int(np.flatnonzero(A.any(axis=0))[-1]) + 1
        raise DomainError(f"epw_norm: support reaches {reach}, beyond n = {s.n}")
    return np.maximum(_lp_rows(A, s.p), s.w_scalar * _lp_rows(A, 2.0))


def _row_vec(row: np.ndarray) -> CoeffVec:
    """The vector of one dense row of finite values, zeros dropped."""
    nz = np.flatnonzero(row)
    return CoeffVec._trusted(nz + 1, row[nz])


def _norm_rows(A: np.ndarray, s: SpaceSpec) -> np.ndarray:
    """The norm in ``s`` of every row of a dense nonnegative finite (B, n) array.

    A family without a batch variant (Cesaro, whose norm is a bracket)
    evaluates row by row; the midpoint stands for the norm, as in ``norm``.
    Callers: the equivalence search (dense rows) and ``_packed_norms``.
    """
    entry = _FAMILIES[s.family]
    if entry.batch is not None:
        return entry.batch(A, s)
    return np.array([entry.evaluate(_row_vec(row), s, 1e-9).mid for row in A], dtype=np.float64)


def _packed_norms(mags: list[np.ndarray], s: SpaceSpec) -> np.ndarray:
    """``_norm_rows`` of vectors of any support size, each given by its |values| in index order.

    Only for norms that see the order of the support values, not where it
    lies (lp, Lorentz, Garling): each vector packs left-aligned into a
    zero-padded row.  Rows go ``_PACK_ROWS`` at a time in order of length,
    so that a batch is about as wide as its rows.
    """
    order = sorted(range(len(mags)), key=lambda i: mags[i].size)
    out = np.empty(len(mags))
    for lo in range(0, len(mags), _PACK_ROWS):
        rows = order[lo : lo + _PACK_ROWS]
        A = np.zeros((len(rows), mags[rows[-1]].size))
        for r, i in enumerate(rows):
            A[r, : mags[i].size] = mags[i]
        out[rows] = _norm_rows(A, s)
    return out


# ---------------------------------------------------------------------------
# run-length encoded variants
# ---------------------------------------------------------------------------


def lorentz_norm_runs(rv: RunVec, w: Weight, p: float) -> float:
    """Lorentz norm of a run vector without densifying.

    Runs sorted by decreasing value receive consecutive weight stretches, so
    each run contributes value^p * (S(T_r) - S(T_{r-1})) with T_r the
    cumulative length of the top r runs.
    """
    return float(lorentz_norm_runs_batch([rv], w, p)[0])


def lorentz_norm_runs_batch(rvs: list[RunVec], w: Weight, p: float) -> np.ndarray:
    """``lorentz_norm_runs`` of each vector, bit for bit, with one (elementwise) prefix-sum call."""
    _FINITE_P.check(p, "lorentz_norm_runs exponent")
    if not rvs:
        return np.zeros(0)
    counts = [rv.starts.size for rv in rvs]
    vec = np.repeat(np.arange(len(rvs)), counts)
    a = np.abs(np.concatenate([rv.values for rv in rvs]))
    order = np.lexsort((np.concatenate([rv.starts for rv in rvs]), -a, vec))  # |value| desc
    a, lens = a[order], np.concatenate([rv.lengths for rv in rvs])[order]
    tot = np.concatenate(([0], lens.cumsum()))
    T = tot[1:] - tot[np.cumsum(counts) - counts][vec]  # runs stay grouped: vec[order] == vec
    S = w.prefix_sums(T)
    prev = np.where(T == lens, 0.0, np.concatenate(([0.0], S[:-1])))  # S(0) before a top run
    terms = (a**p * (S - prev)).tolist()
    ends = itertools.accumulate(counts)
    return np.array([math.fsum(terms[j - n : j]) ** (1.0 / p) for j, n in zip(ends, counts)])


def garling_norm_runs(rv: RunVec, w: Weight, p: float) -> float:
    """Garling norm of a run vector.

    A single run is exact directly: taking the whole run is optimal since
    prefix sums increase.  Multiple runs are densified up to a support of
    ``_GARLING_RUNS_CAP``; beyond it the combinatorial optimum is not implemented.
    """
    _FINITE_P.check(p, "garling_norm_runs exponent")
    if rv.is_zero():
        return 0.0
    if rv.starts.size == 1:
        m = int(rv.lengths[0])
        return abs(float(rv.values[0])) * w.prefix_sum(m) ** (1.0 / p)
    if rv.support_size > _GARLING_RUNS_CAP:
        raise DomainError(
            f"garling norm of a {rv.support_size}-entry run vector is not supported "
            f"(densification cap {_GARLING_RUNS_CAP})"
        )
    return garling_norm(rv.to_coeffvec(), w, p)


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Field:
    """A spec field ``name=<token>``, stored in the SpaceSpec attribute ``attr``."""

    name: str
    attr: str
    parse: Callable[[str], object]
    format: Callable[[object], str] = str


_P = _Field("p", "p", parse_exponent, format_exponent)
_W = _Field("w", "weight", make_weight, lambda w: w.spec)


def _validate_blocksum(s: SpaceSpec) -> None:
    _ANY_P.check(s.inner, f"{s.family} inner exponent")
    if s.lengths not in _BLOCK_LENGTHS:
        raise DomainError(f"{s.family} lengths must be dyadic or triangular, got {s.lengths!r}")


@dataclass(frozen=True)
class _Family:
    """One family of the space grammar: a row of ``_FAMILIES``.

    ``fields`` lists the spec fields in canonical order; ``domain`` holds
    ``SpaceSpec.p`` and ``validate`` checks the other parameters;
    ``evaluate(v, space, tol)`` is the norm as a Bracket.  The evaluators name
    their kernels at call time, so rebinding a module-level kernel reaches
    ``norm``.  ``batch(rows, space)``, when present, is the norm of every row
    of a dense nonnegative array, equal to the scalar kernel's to the bit.
    """

    fields: tuple[_Field, ...]
    domain: _Exponents
    rearrangement_invariant: bool
    evaluate: Callable[[CoeffVec, SpaceSpec, float], Bracket]
    validate: Callable[[SpaceSpec], None] = lambda s: None
    split: Callable[[str, tuple[str, ...], str], dict[str, str]] = _parse_fields
    batch: Callable[[np.ndarray, SpaceSpec], np.ndarray] | None = None


_FAMILIES: dict[str, _Family] = {
    "lp": _Family(
        (_P,),
        _ANY_P,
        True,
        lambda v, s, tol: Bracket.exact(lp_norm(v, s.p)),
        batch=lambda A, s: _lp_rows(A, s.p),
    ),
    "lorentz": _Family(
        (_W, _P),
        _FINITE_P,
        True,
        lambda v, s, tol: Bracket.exact(lorentz_norm(v, s.weight, s.p)),
        split=_parse_weighted_fields,
        batch=_lorentz_rows,
    ),
    "garling": _Family(
        (_W, _P),
        _FINITE_P,
        False,
        lambda v, s, tol: Bracket.exact(garling_norm(v, s.weight, s.p)),
        split=_parse_weighted_fields,
        batch=_garling_rows,
    ),
    "cesaro": _Family((_P,), _ABOVE_ONE, False, lambda v, s, tol: cesaro_norm(v, s.p, tol)),
    "tandori": _Family(
        (_P,),
        _FINITE_P,
        False,
        lambda v, s, tol: Bracket.exact(tandori_norm(v, s.p)),
        batch=_tandori_rows,
    ),
    "blocksum": _Family(
        (
            _Field("lengths", "lengths", str),
            _Field("inner", "inner", parse_exponent, format_exponent),
            _Field("outer", "p", lambda t: math.inf if t == "c0" else parse_exponent(t),
                   format_exponent),
        ),
        _ANY_P,
        False,
        lambda v, s, tol: Bracket.exact(blocksum_norm(v, s.lengths, s.inner, s.p)),
        validate=_validate_blocksum,
        batch=_blocksum_rows,
    ),
    # Invariant under permutations of 1..n only: no support may leave the section.
    "epw": _Family(
        (_Field("n", "n", int), _P, _Field("w", "w_scalar", float, repr)),
        _FINITE_P,
        False,
        lambda v, s, tol: Bracket.exact(epw_norm(v, s.n, s.p, s.w_scalar)),
        validate=lambda s: _check_epw_args(s.n, s.w_scalar, s.family),
        batch=_epw_rows,
    ),
}
