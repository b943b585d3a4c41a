"""Norms of finitely supported vectors in the supported sequence spaces.

Families and their admissible exponents:

* ``lp:p=<p>``                      p in [1, inf]
* ``lorentz:w=<wspec>,p=<p>``       p in [1, inf); sup over rearrangements
* ``garling:w=<wspec>,p=<p>``       p in [1, inf); sup over increasing subsequences
* ``cesaro:p=<p>``                  p in (1, inf]; norm of the prefix averages
* ``tandori:p=<p>``                 p in [1, inf); norm of the suffix suprema
* ``blocksum:lengths=<..>,inner=<q>,outer=<p>``  lengths dyadic | triangular
* ``epw:n=<n>,p=<p>,w=<w>``         max of the l_p norm and w times the l_2 norm

The Cesaro norm of a finitely supported vector is an infinite series, so it
is returned as a certified Bracket; every other family is exact in floating
point and is reported as a degenerate bracket by the dispatcher.

p = inf is written as the literal token ``inf`` in spec strings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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

_GARLING_NUMPY_CUTOFF = 48
_BRUTEFORCE_CAP = 20
_BRUTEFORCE_BATCH = 1 << 16  # masks per batch: a few MB of temporaries


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
        f = self.family
        p = self.p
        if f == "lp":
            if not (1.0 <= p):
                raise DomainError(f"lp exponent must be in [1, inf], got {p}")
        elif f in ("lorentz", "garling"):
            if not (1.0 <= p < math.inf):
                raise DomainError(f"{f} exponent must be in [1, inf), got {p}")
            if self.weight is None:
                raise DomainError(f"{f} space needs a weight")
        elif f == "cesaro":
            if not (1.0 < p):
                raise DomainError(f"cesaro exponent must be in (1, inf], got {p}")
        elif f == "tandori":
            if not (1.0 <= p < math.inf):
                raise DomainError(f"tandori exponent must be in [1, inf), got {p}")
        elif f == "blocksum":
            if not (1.0 <= p):
                raise DomainError(f"blocksum outer exponent must be in [1, inf], got {p}")
            if self.inner is None or not (1.0 <= self.inner):
                raise DomainError(f"blocksum inner exponent must be in [1, inf], got {self.inner}")
            if self.lengths not in ("dyadic", "triangular"):
                raise DomainError(f"blocksum lengths must be dyadic or triangular, got {self.lengths!r}")
        elif f == "epw":
            if not (1.0 <= p < math.inf):
                raise DomainError(f"epw exponent must be in [1, inf), got {p}")
            if self.n is None or self.n < 1:
                raise DomainError("epw needs a positive dimension n")
            if self.w_scalar is None or not (0.0 < self.w_scalar <= 1.0):
                raise DomainError(f"epw scalar weight must be in (0, 1], got {self.w_scalar}")
        else:
            raise DomainError(f"unknown space family {self.family!r}")

    @property
    def spec(self) -> str:
        f = self.family
        if f == "lp":
            return f"lp:p={format_exponent(self.p)}"
        if f in ("lorentz", "garling"):
            return f"{f}:w={self.weight.spec},p={format_exponent(self.p)}"
        if f == "cesaro":
            return f"cesaro:p={format_exponent(self.p)}"
        if f == "tandori":
            return f"tandori:p={format_exponent(self.p)}"
        if f == "blocksum":
            return (
                f"blocksum:lengths={self.lengths},inner={format_exponent(self.inner)},"
                f"outer={format_exponent(self.p)}"
            )
        return f"epw:n={self.n},p={format_exponent(self.p)},w={self.w_scalar!r}"

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


def parse_space(spec: str) -> SpaceSpec:
    """Parse a space spec string (see the module docstring for the grammar)."""
    if not isinstance(spec, str):
        raise ParseError("space spec must be a string")
    s = spec.strip()
    if ":" not in s:
        raise ParseError(f"space spec needs a family prefix, got {spec!r}")
    family, body = s.split(":", 1)
    family = family.strip()
    try:
        if family == "lp":
            f = _parse_fields(body, ("p",), "lp spec")
            return SpaceSpec("lp", parse_exponent(f["p"]))
        if family in ("lorentz", "garling"):
            # w= consumes everything up to the final ,p= field; split carefully.
            f = _parse_weighted_body(body, family)
            return SpaceSpec(family, f[1], weight=f[0])
        if family == "cesaro":
            f = _parse_fields(body, ("p",), "cesaro spec")
            return SpaceSpec("cesaro", parse_exponent(f["p"]))
        if family == "tandori":
            f = _parse_fields(body, ("p",), "tandori spec")
            return SpaceSpec("tandori", parse_exponent(f["p"]))
        if family == "blocksum":
            f = _parse_fields(body, ("lengths", "inner", "outer"), "blocksum spec")
            outer = f["outer"]
            p = math.inf if outer == "c0" else parse_exponent(outer)
            return SpaceSpec(
                "blocksum", p, inner=parse_exponent(f["inner"]), lengths=f["lengths"]
            )
        if family == "epw":
            f = _parse_fields(body, ("n", "p", "w"), "epw spec")
            try:
                n = int(f["n"])
            except ValueError:
                raise ParseError(f"bad epw dimension {f['n']!r}") from None
            try:
                ws = float(f["w"])
            except ValueError:
                raise ParseError(f"bad epw scalar weight {f['w']!r}") from None
            return SpaceSpec("epw", parse_exponent(f["p"]), n=n, w_scalar=ws)
    except DomainError:
        raise
    raise ParseError(f"unknown space family {family!r}")


def _parse_weighted_body(body: str, family: str) -> tuple[Weight, float]:
    parts = _split_fields(body)
    w_parts = []
    p_val = None
    for part in parts:
        stripped = part.strip()
        if stripped.startswith("p=") and p_val is None and w_parts:
            p_val = parse_exponent(stripped[2:])
        elif stripped.startswith("w=") and not w_parts:
            w_parts.append(stripped[2:])
        elif w_parts and p_val is None:
            w_parts.append(part)  # comma inside an explicit weight array
        else:
            raise ParseError(f"bad field {part!r} in {family} spec")
    if not w_parts or p_val is None:
        raise ParseError(f"{family} spec needs w=<weight> and p=<exponent>")
    return make_weight(",".join(w_parts)), p_val


# ---------------------------------------------------------------------------
# norm implementations
# ---------------------------------------------------------------------------


def _check_p(p: float, lo: float, hi: float, closed_hi: bool, what: str) -> None:
    if math.isnan(p):
        raise DomainError(f"{what}: exponent must not be NaN")
    ok = (p >= lo) and (p <= hi if closed_hi else p < hi)
    if not ok:
        rng = f"[{lo}, {'inf]' if closed_hi else 'inf)'}"
        raise DomainError(f"{what}: exponent {p} outside {rng}")


def lp_norm(v: CoeffVec, p: float) -> float:
    """The l_p norm, p in [1, inf]."""
    _check_p(p, 1.0, math.inf, True, "lp_norm")
    if v.is_zero():
        return 0.0
    a = np.abs(v.values)
    if math.isinf(p):
        return float(a.max())
    if p == 1.0:
        return math.fsum(a)
    return math.fsum(a**p) ** (1.0 / p)


def lorentz_norm(v: CoeffVec, w: Weight, p: float) -> float:
    """Largest rearrangement of sum |a|^p w: pair sorted values with w_1, w_2, ...

    The sup over permutations is attained by sorting |a| in nonincreasing
    order, because the weights are nonincreasing.
    """
    _check_p(p, 1.0, math.inf, False, "lorentz_norm")
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
    """
    _check_p(p, 1.0, math.inf, False, "garling_norm")
    if v.is_zero():
        return 0.0
    m = len(v)
    wv = w.values(1, m + 1)
    vp = np.abs(v.values) ** p
    if m <= _GARLING_NUMPY_CUTOFF:
        best = [0.0] * (m + 1)
        for i in range(m):
            t = vp[i]
            for k in range(min(i + 1, m), 0, -1):
                cand = best[k - 1] + t * wv[k - 1]
                if cand > best[k]:
                    best[k] = cand
        return max(best[1:]) ** (1.0 / p)
    best = np.zeros(m + 1, dtype=np.float64)
    for i in range(m):
        np.maximum(best[1:], best[:-1] + vp[i] * wv, out=best[1:])
    return float(best[1:].max()) ** (1.0 / p)


def garling_norm_bruteforce(v: CoeffVec, w: Weight, p: float) -> float:
    """Independent oracle: enumerate every nonempty subsequence directly.

    Each subset of the support is a bit mask; the i-th support entry joins
    the sum with the weight of its rank among the selected entries.  Masks
    are enumerated in batches of _BRUTEFORCE_BATCH.  Exponential in the
    support size; refuses supports above 20.
    """
    _check_p(p, 1.0, math.inf, False, "garling_norm_bruteforce")
    if v.is_zero():
        return 0.0
    m = len(v)
    if m > _BRUTEFORCE_CAP:
        raise DomainError(f"brute force supports at most {_BRUTEFORCE_CAP} entries, got {m}")
    vp = np.abs(v.values) ** p
    wv = np.asarray(w.values(1, m + 1), dtype=np.float64)
    best = 0.0
    for first in range(1, 1 << m, _BRUTEFORCE_BATCH):
        masks = np.arange(first, min(first + _BRUTEFORCE_BATCH, 1 << m), dtype=np.int64)
        acc = np.zeros(masks.size)
        rank = np.zeros(masks.size, dtype=np.int64)
        for i in range(m):
            bit = (masks >> i) & 1
            acc += vp[i] * wv[rank] * bit  # an unselected entry adds an exact zero
            rank += bit
        best = max(best, float(acc.max()))
    return best ** (1.0 / p)


def _suffix_segments(v: CoeffVec) -> tuple[np.ndarray, np.ndarray]:
    """Segment lengths and suffix maxima of |v| between consecutive support points.

    Positions i in (idx_{j-1}, idx_j] share the suffix supremum
    max(|a_{idx_j}|, ..., |a_{idx_m}|); beyond idx_m the supremum is 0.
    """
    idx = v.indices
    a = np.abs(v.values)
    suff = np.maximum.accumulate(a[::-1])[::-1]
    lens = np.diff(np.concatenate(([0], idx)))
    return lens, suff


def tandori_norm(v: CoeffVec, p: float) -> float:
    """l_p norm of i -> sup_{j >= i} |a_j|, p in [1, inf)."""
    _check_p(p, 1.0, math.inf, False, "tandori_norm")
    if v.is_zero():
        return 0.0
    lens, suff = _suffix_segments(v)
    terms = suff**p
    if v.support_max <= DENSIFY_CAP:
        # Exactly rounded accumulation over the per-index terms.
        total = math.fsum(np.repeat(terms, lens))
    else:
        total = math.fsum(terms * lens)
    return total ** (1.0 / p)


def cesaro_norm(v: CoeffVec, p: float, tol: float = 1e-9) -> Bracket:
    """l_p norm of the prefix averages i -> (1/i) sum_{j<=i} |a_j|, p in (1, inf].

    For finite p this is an infinite series: the averages decay like
    sum|a| / i past the support.  The head through the support and beyond is
    summed exactly; the remaining tail is bracketed via power_tail_bracket
    and tightened until the bracket width is at most tol relative to the
    norm value.
    """
    if not (1.0 < p):
        raise DomainError(f"cesaro_norm: exponent {p} outside (1, inf]")
    if not (0 < tol < math.inf):
        raise DomainError(f"cesaro_norm: tolerance must be positive and finite, got {tol}")
    if v.is_zero():
        return Bracket.exact(0.0)
    idx = v.indices
    prefixes = np.cumsum(np.abs(v.values))
    if math.isinf(p):
        # Averages only change at support points and decay in between.
        sup = float(np.max(prefixes / idx))
        return Bracket.exact(sup)
    n_max = v.support_max
    if n_max > DENSIFY_CAP:
        raise DomainError(f"cesaro_norm: support extends past {DENSIFY_CAP}")
    # The prefix sum is constant on [idx_j, idx_{j+1}) and zero before idx_1.
    lens = np.diff(np.concatenate((idx, [n_max + 1])))
    running = np.repeat(prefixes, lens)  # prefix sums of |a| at idx_1 .. n_max
    head = math.fsum((running / np.arange(int(idx[0]), n_max + 1)) ** p)
    total_abs = float(prefixes[-1])
    # Tail: sum_{i>n_max} (total_abs / i)^p, tightened until relative width <= tol.
    scale = total_abs**p
    width_target = tol * max(head, scale * 1e-6)
    for _ in range(60):
        tail = power_tail_bracket(p, n_max, width_target / max(scale, 1e-300))
        bracket = Bracket(
            (head + scale * tail.lo) ** (1.0 / p), (head + scale * tail.hi) ** (1.0 / p)
        )
        if bracket.width <= tol * bracket.mid:
            return bracket
        width_target *= 0.25
    return bracket


def _block_lengths(lengths, support_max: int):
    """Yield (block_index, start, length) until the blocks cover support_max."""
    if isinstance(lengths, str):
        if lengths == "dyadic":
            lens = (1 << (n - 1) for n in itertools.count(1))
        elif lengths == "triangular":
            lens = itertools.count(1)
        else:
            raise DomainError(f"unknown block length family {lengths!r}")
        finite = False
    else:
        lens = iter([int(x) for x in lengths])
        finite = True
    start = 1
    n = 0
    while start <= support_max:
        try:
            ln = next(lens)
        except StopIteration:
            if finite:
                raise DomainError(
                    f"support reaches index {support_max} but the blocks end at {start - 1}"
                ) from None
            raise
        if ln < 1:
            raise DomainError("block lengths must be positive")
        n += 1
        yield n, start, ln
        start += ln


def blocksum_norm(v: CoeffVec, lengths, inner: float, outer: float) -> float:
    """Outer l_p norm of the per-block inner l_q norms.

    ``lengths`` is "dyadic" (1, 2, 4, ...), "triangular" (1, 2, 3, ...) or an
    explicit list of block lengths that must cover the support.  An outer
    exponent of inf is the supremum; for finitely supported vectors the
    c_0-style direct sum has the same norm.
    """
    _check_p(inner, 1.0, math.inf, True, "blocksum_norm inner")
    _check_p(outer, 1.0, math.inf, True, "blocksum_norm outer")
    if v.is_zero():
        return 0.0
    idx = v.indices
    a = np.abs(v.values)
    block_norms: list[float] = []
    for _, start, ln in _block_lengths(lengths, v.support_max):
        lo = np.searchsorted(idx, start, side="left")
        hi = np.searchsorted(idx, start + ln, side="left")
        if lo == hi:
            continue
        chunk = a[lo:hi]
        if math.isinf(inner):
            block_norms.append(float(chunk.max()))
        elif inner == 1.0:
            block_norms.append(math.fsum(chunk))
        else:
            block_norms.append(math.fsum(chunk**inner) ** (1.0 / inner))
    if not block_norms:
        return 0.0
    if math.isinf(outer):
        return max(block_norms)
    if outer == 1.0:
        return math.fsum(block_norms)
    return math.fsum(b**outer for b in block_norms) ** (1.0 / outer)


def epw_norm(v: CoeffVec, n: int, p: float, w_scalar: float) -> float:
    """max of the l_p norm and w times the l_2 norm on coordinates 1..n."""
    _check_p(p, 1.0, math.inf, False, "epw_norm")
    if n < 1:
        raise DomainError("epw_norm: dimension must be >= 1")
    if not (0.0 < w_scalar <= 1.0):
        raise DomainError(f"epw_norm: scalar weight {w_scalar} outside (0, 1]")
    if v.support_max > n:
        raise DomainError(f"epw_norm: support reaches {v.support_max}, beyond n = {n}")
    return max(lp_norm(v, p), w_scalar * lp_norm(v, 2.0))


def norm(v: CoeffVec, space: SpaceSpec | str, tol: float = 1e-9) -> Bracket:
    """Evaluate the norm of ``v`` in ``space``; exact families give [x, x]."""
    s = parse_space(space) if isinstance(space, str) else space
    f = s.family
    if f == "lp":
        return Bracket.exact(lp_norm(v, s.p))
    if f == "lorentz":
        return Bracket.exact(lorentz_norm(v, s.weight, s.p))
    if f == "garling":
        return Bracket.exact(garling_norm(v, s.weight, s.p))
    if f == "cesaro":
        return cesaro_norm(v, s.p, tol)
    if f == "tandori":
        return Bracket.exact(tandori_norm(v, s.p))
    if f == "blocksum":
        return Bracket.exact(blocksum_norm(v, s.lengths, s.inner, s.p))
    if f == "epw":
        return Bracket.exact(epw_norm(v, s.n, s.p, s.w_scalar))
    raise DomainError(f"unknown space family {f!r}")


# ---------------------------------------------------------------------------
# run-length encoded variants
# ---------------------------------------------------------------------------


def lorentz_norm_runs(rv: RunVec, w: Weight, p: float) -> float:
    """Lorentz norm of a run vector without densifying.

    Runs sorted by decreasing value receive consecutive weight stretches, so
    each run contributes value^p * (S(T_r) - S(T_{r-1})) with T_r the
    cumulative length of the top r runs.
    """
    _check_p(p, 1.0, math.inf, False, "lorentz_norm_runs")
    if rv.is_zero():
        return 0.0
    a = np.abs(rv.values)
    order = np.lexsort((rv.starts, -a))  # value desc, tie on start for determinism
    S = w.prefix_sums(np.concatenate(([0], np.cumsum(rv.lengths[order]))))
    return math.fsum(a[order] ** p * np.diff(S)) ** (1.0 / p)


def garling_norm_runs(rv: RunVec, w: Weight, p: float, dense_cap: int = 1 << 15) -> float:
    """Garling norm of a run vector.

    A single run is exact directly: taking the whole run is optimal since
    prefix sums increase.  Multiple runs are densified below ``dense_cap``
    support; beyond it the combinatorial optimum is not implemented.
    """
    _check_p(p, 1.0, math.inf, False, "garling_norm_runs")
    if rv.is_zero():
        return 0.0
    if rv.starts.size == 1:
        m = int(rv.lengths[0])
        return abs(float(rv.values[0])) * w.prefix_sum(m) ** (1.0 / p)
    if rv.support_size > dense_cap:
        raise DomainError(
            f"garling norm of a {rv.support_size}-entry run vector is not supported "
            f"(densification cap {dense_cap})"
        )
    return garling_norm(rv.to_coeffvec(), w, p)
