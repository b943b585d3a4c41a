"""Equivalence and domination constants between finite basis sections.

Certified constants come from closed-form bounds (a Hölder bound for the
weighted rearranged sum against a plain l_q sum, the 2CMK^2 sup-norm
equivalence of seminormalized unconditional sections, and the 2^{1/p}/72^{1/p}
band between the suffix-sup norm and the dyadic block sup norm).  Empirical
constants come from extremal searches over the unit ball; they are reported
as lower estimates, never as the true constant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bases import f_scales
from .errors import DomainError
from .jsonio import JsonRecord, json_key
from .norms import (
    _FAMILIES,
    SpaceSpec,
    _norm_rows,
    _row_vec,
    lorentz_norm,
    lp_norm,
    norm,
    parse_space,
)
from .sampling import random_coeffvec, rng_for
from .series import Bracket, zeta_bracket
from .vectors import CoeffVec, add_coeffvecs
from .weights import Weight

__all__ = [
    "HolderReport",
    "holder_domination",
    "unconditional_constant",
    "LinfEquivReport",
    "linf_equiv_bound",
    "EquivReport",
    "estimate_equivalence",
]


# ---------------------------------------------------------------------------
# Hölder domination of the weighted rearranged sum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolderReport(JsonRecord):
    p: float
    q: float
    exponent: float  # the weight is summed to this power: q/(q-p)
    series: Bracket  # sum_i w_i^exponent (truncated for explicit weights)
    C: Bracket  # series^{1/(exponent*p)}
    truncated: bool
    samples: int
    seed: int
    failures: int
    max_ratio: float  # largest observed lorentz/(C_hi * lq)
    passed: bool


def holder_domination(
    w: Weight,
    p: float,
    q: float,
    samples: int = 1000,
    seed: int = 0,
) -> HolderReport:
    """Certified C with lorentz_norm(v, w, p) <= C * lp_norm(v, q) for all v.

    Hölder with exponents (q/p, q/(q-p)) on the rearranged sum gives
    C = (sum_i w_i^r)^{1/(r p)} with r = q/(q-p); the series is bracketed for
    parametric weights and truncated (a lower estimate, flagged) for explicit
    ones.  The returned report includes a seeded sampled verification of the
    inequality with 1e-10 relative slack.
    """
    if not (1.0 <= p < q < math.inf):
        raise DomainError(f"need 1 <= p < q < inf, got p = {p}, q = {q}")
    if samples < 0:
        raise DomainError("sample count must be nonnegative")
    r = q / (q - p)
    if w.kind != "explicit" and w.a * r <= 1.0:
        raise DomainError(
            f"w^{r} is not summable (a*r = {w.a * r} <= 1); "
            "no Hölder constant exists"
        )
    truncated = False
    if w.kind == "explicit":
        series = Bracket.exact(math.fsum(np.asarray(w.data, dtype=np.float64) ** r))
        truncated = True
    else:
        series = zeta_bracket(w.a * r, 1e-10)
    C = series.powed(1.0 / (r * p))

    m_cap = 48 if w.limit is None else min(48, w.limit)
    i_cap = 512 if w.limit is None else min(512, w.limit)
    failures = 0
    worst = 0.0
    for j in range(samples):
        v = random_coeffvec(rng_for(seed, j), max_support=m_cap, max_index=i_cap)
        lhs = lorentz_norm(v, w, p)
        rhs = C.hi * lp_norm(v, q)
        ratio = lhs / rhs if rhs > 0 else math.inf
        worst = max(worst, ratio)
        if lhs > rhs * (1.0 + 1e-10):
            failures += 1
    return HolderReport(
        p=p,
        q=q,
        exponent=r,
        series=series,
        C=C,
        truncated=truncated,
        samples=samples,
        seed=seed,
        failures=failures,
        max_ratio=worst,
        passed=failures == 0,
    )


# ---------------------------------------------------------------------------
# unconditional constant and the sup-norm equivalence of a section
# ---------------------------------------------------------------------------

_MAX_SECTION = 16
_SWEEPS = 30  # the cap on coordinate-ascent sweeps


def _ascend(score, a, best, moves, move):
    """Coordinate ascent from ``a``, which scores ``best``; returns (best, a).

    A sweep keeps each trial ``move(a, i, m)`` from the current point (None
    skips) that beats the best: at most _SWEEPS sweeps, ending after an idle one.
    """
    for _ in range(_SWEEPS):
        improved = False
        for i in range(len(a)):
            for m in moves:
                trial = move(a, i, m)
                if trial is not None and (r := score(trial)) > best:
                    best, a, improved = r, trial, True
        if not improved:
            break
    return best, a


def _shifted(a, i, step):
    return [*a[:i], a[i] + step, *a[i + 1 :]]


def _check_section(vectors, *counts) -> None:
    if not vectors:
        raise DomainError("need at least one vector")
    if len(vectors) > _MAX_SECTION:
        raise DomainError(f"at most {_MAX_SECTION} vectors supported, got {len(vectors)}")
    if min(counts) < 0:
        raise DomainError("sample count must be nonnegative")


def _combo_norm(vectors, a, spec) -> float:
    return norm(add_coeffvecs([(float(ai), x) for ai, x in zip(a, vectors)]), spec).mid


def _sign_ratio(vectors, a, spec) -> float:
    """max over sign patterns of the norm, relative to the unflipped norm.

    Every norm here takes |a| and ``add_coeffvecs`` sums with fsum, which
    commutes with negation, so a pattern and its negative give the same
    float: only the patterns whose first sign is +1 are tried.  The all-plus
    one is the base itself, with ratio exactly 1.
    """
    base = _combo_norm(vectors, a, spec)
    if base == 0.0:
        return 1.0
    best = 1.0
    patterns = itertools.product((1.0, -1.0), repeat=len(vectors) - 1)
    for signs in itertools.islice(patterns, 1, None):
        flipped = _combo_norm(vectors, [a[0], *(s * ai for s, ai in zip(signs, a[1:]))], spec)
        if flipped / base > best:
            best = flipped / base
    return best


def unconditional_constant(
    vectors: list[CoeffVec],
    space: SpaceSpec | str,
    grid_points: int = 201,
    samples: int = 200,
    seed: int = 0,
) -> float:
    """Worst norm inflation under sign flips of the coefficients.

    K = max over coefficient tuples a and sign patterns of
    ||sum_n s_n a_n x_n|| / ||sum_n a_n x_n||.  Two vectors get an exhaustive
    grid over [-1, 1]^2 (grid_points per axis); larger sections use special
    tuples plus seeded samples.  Up to 8 vectors, coordinate ascent (steps
    0.1, 0.01, 0.001; at most 30 sweeps each) tightens the best tuple: at most
    (T + 3*30*2n) * 2^(n-1) norm evaluations for T = n + 4 + samples starting
    tuples (+ grid_points^2 at n = 2), however small the entries.  The result
    is a lower estimate of K in general; for sections of canonical basis
    vectors every norm here is absolute, so the search confirms exactly 1.
    """
    _check_section(vectors, grid_points, samples)
    n = len(vectors)
    if any(v.is_zero() for v in vectors):
        raise DomainError("section contains a zero vector")
    spec = parse_space(space)

    tuples: list[list[float]] = [[1.0] * n, *np.eye(n).tolist()]
    tuples.append([(-1.0) ** i for i in range(n)])
    tuples.append([1.0 / (i + 1.0) for i in range(n)])
    tuples.append([2.0 ** (-i) for i in range(n)])
    if n == 2 and grid_points >= 2:
        axis = np.linspace(-1.0, 1.0, grid_points)
        tuples.extend([float(x), float(y)] for x in axis for y in axis)
    for j in range(samples):
        rng = rng_for(seed, j)
        tuples.append([float(x) for x in rng.uniform(-1.0, 1.0, size=n)])

    best = 1.0
    best_a = tuples[0]
    for a in tuples:  # a zero tuple scores 1.0 in _sign_ratio, so it never wins
        r = _sign_ratio(vectors, a, spec)
        if r > best:
            best, best_a = r, a

    if n <= 8:
        for step in (0.1, 0.01, 0.001):
            best, best_a = _ascend(lambda t: _sign_ratio(vectors, t, spec), best_a, best,
                                   (step, -step), _shifted)
    return best


@dataclass(frozen=True)
class LinfEquivReport(JsonRecord):
    C: float  # seminormalization constant
    K: float  # unconditional constant
    M: float  # norm of the sum of the section
    bound: float  # 2 C M K^2 (complex scalars)
    bound_real: float  # C M K^2 (real scalars)
    samples: int
    seed: int
    failures: int
    passed: bool


def linf_equiv_bound(
    vectors: list[CoeffVec],
    space: SpaceSpec | str,
    samples: int = 500,
    seed: int = 0,
    k_samples: int = 64,
) -> LinfEquivReport:
    """Sup-norm equivalence constants of a seminormalized unconditional section.

    C = max(max_n ||x_n||, 1/min_n ||x_n||), M = ||sum_n x_n||, K the
    unconditional constant; the section is then (2CMK^2)-equivalent to the
    sup norm on the coefficients (CMK^2 for real scalars).  Verified on
    seeded samples: ||a||_inf <= C K ||sum a_n x_n|| and
    ||sum a_n x_n|| <= C M K^2 ||a||_inf, both with 1e-10 relative slack.
    """
    _check_section(vectors, samples, k_samples)
    n = len(vectors)
    spec = parse_space(space)
    norms = [norm(x, spec).mid for x in vectors]
    if min(norms) == 0.0:
        raise DomainError("section contains a zero vector")
    C = max(max(norms), 1.0 / min(norms))
    M = _combo_norm(vectors, [1.0] * n, spec)
    K = unconditional_constant(vectors, spec, grid_points=41, samples=k_samples, seed=seed)
    bound_real = C * M * K * K
    bound = 2.0 * bound_real
    failures = 0
    for j in range(samples):
        rng = rng_for(seed, j)
        a = rng.uniform(-1.0, 1.0, size=n)
        a_inf = float(np.max(np.abs(a)))
        if a_inf == 0.0:
            continue
        s = _combo_norm(vectors, a.tolist(), spec)
        if a_inf > C * K * s * (1.0 + 1e-10):
            failures += 1
        if s > bound_real * a_inf * (1.0 + 1e-10):
            failures += 1
    return LinfEquivReport(
        C=C,
        K=K,
        M=M,
        bound=bound,
        bound_real=bound_real,
        samples=samples,
        seed=seed,
        failures=failures,
        passed=failures == 0,
    )


# ---------------------------------------------------------------------------
# generic two-norm extremal search
# ---------------------------------------------------------------------------

_MAX_EQUIV_DIM = 2048  # the family strategy evaluates about 2n candidates of length n
_CHUNK_ENTRIES = 1 << 18  # candidate entries evaluated per batch


@dataclass(frozen=True)
class EquivReport(JsonRecord):
    from_spec: str = json_key("from")
    to_spec: str = json_key("to")
    dim: int
    certified_upper: float | None
    provenance: str | None
    empirical_lower: float
    witness: CoeffVec
    method: str
    samples: int
    seed: int


def _vp_pair(tandori: SpaceSpec, blocks: SpaceSpec) -> bool:
    """Whether the pair is a suffix-sup space and the dyadic sup-block space of its p."""
    return (
        tandori.family == "tandori"
        and blocks.family == "blocksum"
        and blocks.lengths == "dyadic"
        and blocks.inner is not None
        and math.isinf(blocks.inner)
        and blocks.p == tandori.p
    )


def _certified_upper(src: SpaceSpec, dst: SpaceSpec):
    """A closed-form upper bound on sup ||v||_src / ||v||_dst, when one applies."""
    if src.spec == dst.spec:
        return 1.0, "identical spaces"
    if src.family == "lorentz" and dst.family == "lp":
        if dst.p == src.p:
            return 1.0, "termwise weight bound: w_i <= w_1 = 1 after rearrangement"
        if dst.p > src.p and not math.isinf(dst.p):
            try:
                rep = holder_domination(src.weight, src.p, dst.p, samples=0)
            except DomainError:
                return None, None
            return rep.C.hi, (
                f"Hölder bound (sum w^{rep.exponent:g})^(1/({rep.exponent:g}*{src.p:g}))"
            )
    if src.family == "garling" and dst.family == "lorentz":
        if src.p == dst.p and src.weight.spec == dst.weight.spec:
            return 1.0, "increasing-subsequence sums never beat the sorted pairing"
    if _vp_pair(src, dst):
        return 2.0 ** (1.0 / src.p), (
            "suffix-sup norm of the expanded coefficients vs dyadic sup blocks: 2^{1/p}"
        )
    if _vp_pair(dst, src):
        return 72.0 ** (1.0 / dst.p), (
            "dyadic sup blocks vs suffix-sup norm of the expanded coefficients: 72^{1/p}"
        )
    return None, None


def _family_rows(n: int, rows: int):
    """The canonical profiles on 1..n, at most ``rows`` at a time.

    Unit vectors, constant heads of length 2..n, the decays 1/i and 2^(1-i),
    the ramp i/n and, for n >= 2, ones then halves.
    """
    cols = np.arange(n)
    for lo in range(0, n, rows):
        yield (cols == np.arange(lo, min(lo + rows, n))[:, None]).astype(np.float64)
    for lo in range(2, n + 1, rows):
        yield (cols < np.arange(lo, min(lo + rows, n + 1))[:, None]).astype(np.float64)
    i = np.arange(n, dtype=np.float64)
    profiles = [1.0 / (i + 1.0), np.ldexp(1.0, -cols), (i + 1.0) / n]
    if n >= 2:
        profiles.append(np.where(cols < n // 2, 1.0, 0.5))
    yield np.array(profiles)


def _grid_rows(n: int, rows: int, nonincreasing: bool):
    """The grid of 51 points per axis on [0, 1]^n, in chunks of at most ``rows`` rows.

    With ``nonincreasing`` only the nonincreasing rows are kept: one
    representative of each multiset.  Each first coordinate is joined to
    the grid on the other n - 1 axes (n <= 4: at most 51^3 rows), cut to the
    rows that do not exceed it when ``nonincreasing``.
    """
    axis = np.linspace(0.0, 1.0, 51)
    if n == 1:
        yield axis[:, None]
        return
    tails = np.indices((axis.size,) * (n - 1)).reshape(n - 1, -1).T  # ascending first column
    if nonincreasing:
        tails = tails[(tails[:, :-1] >= tails[:, 1:]).all(axis=1)]
    for head in range(axis.size):
        fit = tails[: np.searchsorted(tails[:, 0], head, side="right")] if nonincreasing else tails
        for lo in range(0, len(fit), rows):
            part = fit[lo : lo + rows]
            yield axis[np.column_stack((np.full(len(part), head), part))]


def _normalize(t: tuple[float, ...]) -> tuple[float, ...] | None:
    """Scale to unit sup; ratios are scale-invariant, so one representative."""
    m = max(abs(x) for x in t)
    if m == 0.0:
        return None
    return tuple(abs(x) / m for x in t)


def estimate_equivalence(
    from_space: SpaceSpec | str,
    to_space: SpaceSpec | str,
    n: int,
    strategy: str = "family",
    samples: int = 200,
    seed: int = 0,
) -> EquivReport:
    """Search sup ||v||_from / ||v||_to over nonzero v supported on 1..n, n <= 2048.

    All norms here are absolute, so candidates are reduced to nonnegative
    vectors normalized to unit sup scale; when both norms are rearrangement
    invariant the search further restricts to nonincreasing vectors.

    Strategies: ``family`` tries canonical profiles (unit vectors, constant
    heads, decay profiles); ``grid`` (n <= 4) sweeps 51 points per axis;
    ``coordinate-ascent`` runs seeded random restarts with per-coordinate
    multiplicative line search.  The reported value is a lower estimate with
    its witness; a certified upper bound is attached when a closed-form
    applies.

    Every pair goes through one ratio rule: a row a scores
    ||a * s_from||_from / ||a * s_to||_to, where each side's column scale s
    is 1.0 (exact) unless that side is a coefficient space.  The suffix-sup
    side of the suffix-sup vs dyadic-block pair is one: its scale is
    f_scales(1..n), so it expands the candidates over the normalized basis,
    matching how that band is defined (``tandori_vp_check``).

    The candidates (the profiles, then the grid or each restart's final
    point) are generated and evaluated as a stream of dense chunks of at
    most 2^18 entries, through each family's batch norm (the scalar kernels'
    floats, to the bit); nothing holds the whole candidate set, so memory
    stays at a few chunks for any n and strategy.  The witness is the
    lexicographically smallest normalized candidate among those reaching the
    largest ratio.  The restarts' line searches evaluate one vector at a
    time.
    """
    src = parse_space(from_space)
    dst = parse_space(to_space)
    if n < 1:
        raise DomainError("dimension must be >= 1")
    if n > _MAX_EQUIV_DIM:
        raise DomainError(f"dimension {n} is above the supported maximum {_MAX_EQUIV_DIM}")
    if strategy not in ("family", "grid", "coordinate-ascent"):
        raise DomainError(f"unknown strategy {strategy!r}")
    if strategy == "grid" and n > 4:
        raise DomainError("grid strategy supports n <= 4")
    if samples < 0:
        raise DomainError("sample count must be nonnegative")

    src_scale, dst_scale = (
        f_scales(np.arange(1, n + 1), s.p) if _vp_pair(s, other) else 1.0
        for s, other in ((src, dst), (dst, src))
    )

    def ratio_rows(A: np.ndarray) -> np.ndarray:
        return _norm_rows(A * src_scale, src) / _norm_rows(A * dst_scale, dst)

    def ratio(t: tuple[float, ...]) -> float:
        if not any(t):
            return -math.inf
        a = np.array(t, dtype=np.float64)
        plain = _row_vec(a)  # a scale of 1.0 leaves a as it is; at most one side has an array
        x = _row_vec(a * src_scale) if isinstance(src_scale, np.ndarray) else plain
        y = _row_vec(a * dst_scale) if isinstance(dst_scale, np.ndarray) else plain
        return norm(x, src).mid / norm(y, dst).mid

    def scaled(a, i, f):  # a holds finite nonnegative entries, so f = 0 gives 0.0
        return _normalize((*a[:i], a[i] * f, *a[i + 1 :]))

    def ascent_rows():
        for rs in range(max(1, samples // 10)):
            a = list(rng_for(seed, rs).uniform(0.0, 1.0, size=n))
            start = ratio(_normalize(tuple(a)) or tuple(a))
            _, a = _ascend(ratio, a, start, (0.0, 0.25, 0.5, 0.8, 1.25, 2.0, 4.0), scaled)
            yield np.array([a], dtype=np.float64)

    both_ri = all(_FAMILIES[s.family].rearrangement_invariant for s in (src, dst))
    rows = max(1, _CHUNK_ENTRIES // n)
    chunks = _family_rows(n, rows)
    if strategy == "grid":
        chunks = itertools.chain(chunks, _grid_rows(n, rows, both_ri))
    elif strategy == "coordinate-ascent":
        chunks = itertools.chain(chunks, ascent_rows())

    best_r = -math.inf
    best_t: tuple[float, ...] | None = None
    for A in chunks:
        top = A.max(axis=1)
        nonzero = top > 0.0
        A = A[nonzero] / top[nonzero, None]
        if both_ri:
            A = np.sort(A, axis=1)[:, ::-1]
        if not A.shape[0]:
            continue
        r = ratio_rows(np.ascontiguousarray(A))
        r[np.isnan(r)] = -math.inf
        hi = r.max()
        if hi < best_r:
            continue
        t = min(map(tuple, A[r == hi].tolist()))
        if hi > best_r or (best_t is not None and t < best_t):
            best_r, best_t = float(hi), t

    witness = CoeffVec.from_dense(best_t)
    upper, provenance = _certified_upper(src, dst)
    if upper is not None and best_r > upper * (1.0 + 1e-12):
        raise RuntimeError(
            f"empirical ratio {best_r} exceeds certified bound {upper} "
            f"({src.spec} vs {dst.spec}); this is a bug"
        )
    recheck = ratio(best_t)
    if abs(recheck - best_r) > 1e-10 * max(abs(best_r), 1.0):
        raise RuntimeError("witness does not reproduce its ratio; this is a bug")
    return EquivReport(
        from_spec=src.spec,
        to_spec=dst.spec,
        dim=n,
        certified_upper=upper,
        provenance=provenance,
        empirical_lower=best_r,
        witness=witness,
        method=strategy,
        samples=samples,
        seed=seed,
    )
