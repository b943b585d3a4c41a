"""Named verification suites with machine-readable reports.

Each suite runs a property set from one module against oracles, frozen
constants, or closed-form bounds.  A suite is a function
``fn(cases, samples, seed, **params) -> (stats, tolerances)``: it counts its
cases and records its failures in ``cases``, a ``_Cases`` ledger that also
holds the tolerance and the worst relative difference seen.  ``run_suite``
times the suite, sorts the failures and builds the SuiteReport, so a report is
assembled in one place only, and every failure record is
``{"input", "expected", "observed"}``.  Reports are deterministic for a given
seed and flags (wall time aside): every random case builds its own generator
from (seed, case index), so evaluation order cannot leak into the output, and
failures are sorted by their canonical JSON encoding.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bases import (
    duality_pair,
    embed_tandori_lpc0,
    f_coeffs_to_raw,
    g_norm_in_cesaro,
    g_vector,
    tandori_vp_check,
)
from .blocks import (
    BlockSystem,
    averaging_projection,
    expand,
    fdd_block_check,
    find_block_sizes,
    wp_equivalence_ratios,
)
from .constants import holder_domination
from .errors import DomainError
from .jsonio import JsonRecord, dumps, encode
from .norms import (
    garling_norm,
    garling_norm_bruteforce,
    lorentz_norm,
    lorentz_norm_runs,
    norm,
    parse_space,
    tandori_norm,
)
from .sampling import random_coeffvec, rng_for
from .vectors import CoeffVec, add_coeffvecs
from .weights import Weight, check_2sb, check_nuc, make_weight

__all__ = ["SuiteReport", "SUITE_NAMES", "run_suite"]

# Independently computed series constants used as anchors.
_ZETA2 = 1.6449340668482264
_SQRT_ZETA2 = 1.2825498301618641
_ZETA3 = 1.2020569031595942
_G4_CES2 = 1.0655007381266617  # 2 * (zeta(2) - 1 - 1/4 - 1/9)^(1/2)


@dataclass
class SuiteReport(JsonRecord):
    suite: str
    passed: bool
    cases: int
    failures: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    seed: int = 0
    samples: int = 0
    tolerances: dict = field(default_factory=dict)
    wall_time_s: float = 0.0


class _Cases:
    """The case count, failure records and worst relative difference of one suite run."""

    def __init__(self, tol: float):
        self.tol = tol
        self.n = 0
        self.failures: list = []
        self.worst = 0.0

    def fail(self, inp, expected: str, observed) -> None:
        """Record a failure without counting a case: what was checked, on what, and the result."""
        record = {"input": encode(inp), "expected": expected, "observed": encode(observed)}
        self.failures.append(record)

    def check(self, ok: bool, inp, expected: str, observed) -> None:
        """Count one case, and record it as a failure unless ``ok``."""
        self.n += 1
        if not ok:
            self.fail(inp, expected, observed)

    def agree(self, got: float, want: float, inp, expected: str, **observed) -> None:
        """Count one case that fails when got and want differ by more than tol, relatively."""
        d = abs(got - want) / max(abs(got), abs(want), 1e-300)
        self.worst = max(self.worst, d)
        # Written "not d > tol", not "d <= tol": a NaN difference passes.
        self.check(not d > self.tol, inp, expected, {**observed, "rel_diff": d})


# ---------------------------------------------------------------------------
# oracle suites
# ---------------------------------------------------------------------------


def _suite_garling_oracle(cases: _Cases, samples: int, seed: int, **_):
    combos = [
        (Weight.harmonic(), 1.0),
        (Weight.harmonic(), 2.0),
        (Weight.power(0.5), 1.0),
        (Weight.power(0.5), 2.0),
    ]
    for j in range(samples):
        v = random_coeffvec(rng_for(seed, j), max_support=14, max_index=40)
        for w, p in combos:
            dp = garling_norm(v, w, p)
            bf = garling_norm_bruteforce(v, w, p)
            cases.agree(dp, bf, {"vector": v, "weight": w.spec, "p": p},
                        "dynamic program equals subset enumeration", dp=dp, bruteforce=bf)
    return {"max_rel_diff": cases.worst}, {"rel": cases.tol}


def _permutation_lorentz(v: CoeffVec, w: Weight, p: float) -> float:
    """Independent oracle: maximize over every pairing of values to weights."""
    m = len(v)
    vp = (np.abs(v.values) ** p).tolist()
    wv = w.values(1, m + 1).tolist()
    best = 0.0
    for perm in itertools.permutations(vp):
        s = math.fsum(x * y for x, y in zip(perm, wv))
        if s > best:
            best = s
    return best ** (1.0 / p)


def _suite_lorentz_oracle(cases: _Cases, samples: int, seed: int, **_):
    combos = [(Weight.harmonic(), 1.0), (Weight.harmonic(), 2.0), (Weight.power(0.5), 1.5)]
    for j in range(samples):
        w, p = combos[j % len(combos)]
        v = random_coeffvec(rng_for(seed, j), max_support=7, max_index=24)
        fast = lorentz_norm(v, w, p)
        slow = _permutation_lorentz(v, w, p)
        cases.agree(fast, slow, {"vector": v, "weight": w.spec, "p": p},
                    "sorted pairing equals permutation maximum", sorted=fast, permutations=slow)
    return {"max_rel_diff": cases.worst}, {"rel": cases.tol}


# ---------------------------------------------------------------------------
# suffix-sup basis suites
# ---------------------------------------------------------------------------

_VP_EXPONENTS = (1.0, 1.5, 2.0, 3.0)


def _suite_tandori_vp(cases: _Cases, samples: int, seed: int, **_):
    lo, hi = math.inf, -math.inf
    for p in _VP_EXPONENTS:
        for j in range(samples):
            a = random_coeffvec(rng_for(seed, j), max_support=24, max_index=64)
            rep = tandori_vp_check(a, p, cases.tol)
            lo = min(lo, rep.ratio)
            hi = max(hi, rep.ratio)
            cases.check(rep.passed, {"coefficients": a, "p": p},
                        "t^p <= 2 u^p and u^p <= 72 t^p", rep)
    if not cases.n:  # no vector ran: the bounds are unknown, not +-inf
        lo = hi = None
    return {"min_ratio": lo, "max_ratio": hi}, {"rel": cases.tol}


def _suite_embed_isometry(cases: _Cases, samples: int, seed: int, **_):
    for j in range(samples):
        p = _VP_EXPONENTS[j % len(_VP_EXPONENTS)]
        a = random_coeffvec(rng_for(seed, j), max_support=24, max_index=96)
        t = tandori_norm(f_coeffs_to_raw(a, p), p)
        lv = embed_tandori_lpc0(a, p)
        # Row by row, independently of tandori_norm: row n is raw from index n
        # on, so its sup is a row maximum of |raw| under the upper-triangular mask.
        mag = np.abs(lv.raw.dense())
        sups = np.where(np.tri(mag.size, k=-1, dtype=bool), 0.0, mag).max(axis=1)
        ln = math.fsum(s**p for s in sups.tolist()) ** (1.0 / p)
        cases.agree(t, ln, {"coefficients": a, "p": p},
                    "layered norm equals suffix-sup norm", layered=ln, suffix_sup=t)
        if j % 8 == 0 and a.support_max <= 256:
            # Sup of each materialized row: an independent evaluation path.
            sups = [float(np.max(np.abs(row.values))) for _, row in lv.rows_list()]
            rt = math.fsum(s**p for s in sups) ** (1.0 / p)
            cases.agree(t, rt, {"coefficients": a, "p": p},
                        "explicit-rows norm equals suffix-sup norm", roundtrip=rt, suffix_sup=t)
    return {"max_rel_diff": cases.worst}, {"rel": cases.tol}


def _suite_duality(cases: _Cases, samples: int, seed: int, **_):
    kmax = 100
    tol = cases.tol
    for p in _VP_EXPONENTS:
        fs = [f_coeffs_to_raw(CoeffVec.basis(k, 1.0), p) for k in range(1, kmax + 1)]
        gs = [g_vector(k, p) for k in range(1, kmax + 1)]
        # Count the kmax^2 pairings up front; a record is built only on a mismatch.
        cases.n += kmax * kmax
        for j in range(kmax):
            for k in range(kmax):
                got = duality_pair(gs[j], fs[k])
                want = 1.0 if j == k else 0.0
                if not abs(got - want) <= tol:
                    cases.fail({"j": j + 1, "k": k + 1, "p": p}, f"|pairing - {want}| <= {tol}",
                               {"pairing": got})
    for k, anchor in ((1, _SQRT_ZETA2), (4, _G4_CES2)):
        br = g_norm_in_cesaro(k, 2.0, tol=1e-9)
        cases.check(br.contains(anchor) and br.width <= 1e-9 * br.mid, {"k": k, "p_prime": 2.0},
                    f"bracket contains {anchor} with relative width <= 1e-9", br)
    return {"kmax": float(kmax)}, {"pairing": tol, "bracket_rel_width": 1e-9}


# ---------------------------------------------------------------------------
# domination suite
# ---------------------------------------------------------------------------


def _suite_holder(cases: _Cases, samples: int, seed: int, **_):
    w = Weight.harmonic()
    anchors = {(1.0, 2.0): (_ZETA2, _SQRT_ZETA2), (1.0, 1.5): (_ZETA3, _ZETA3 ** (1.0 / 3.0))}
    worst = 0.0
    for (p, q), (series_anchor, c_anchor) in anchors.items():
        rep = holder_domination(w, p, q, samples=samples, seed=seed)
        worst = max(worst, rep.max_ratio)
        cases.n += rep.samples  # the sampled inequalities; the check below adds the anchors
        ok = (
            rep.max_ratio <= 1.0 + cases.tol
            and rep.series.contains(series_anchor)
            and rep.C.contains(c_anchor)
            and rep.C.width < 1e-9
            and not rep.truncated
        )
        cases.check(ok, {"weight": w.spec, "p": p, "q": q},
                    "series bracket around the zeta anchor, C certified, no sampled violations",
                    rep)
    tolerances = {"bracket_width": 1e-9, "inequality_rel_slack": cases.tol}
    return {"max_lhs_over_bound": worst}, tolerances


# ---------------------------------------------------------------------------
# block system suites
# ---------------------------------------------------------------------------


def _block_system(
    weight: str = "harmonic", p: float = 1.0, K: float = 1.5, levels: int = 5, scan_cap=None, **_
) -> BlockSystem:
    """The block system the block suites run on; params they do not name are ignored."""
    kwargs = {} if scan_cap is None else {"scan_cap": int(scan_cap)}
    return find_block_sizes(make_weight(weight), p, K, levels, **kwargs)


def _suite_blocks_linf(cases: _Cases, samples: int, seed: int, **params):
    bs = _block_system(**params)
    w = bs.weight
    tol = cases.tol
    max_cert = 0.0
    for lvl in bs.levels:
        k, M = lvl.k, lvl.M
        level = {"level": k, "M": M}
        cert = bs.certificate(k)
        max_cert = max(max_cert, cert)
        cases.check(cert <= bs.K * (1.0 + tol), level, f"certificate <= K = {bs.K}",
                    {"certificate": cert})
        if M > 1:
            prev = (w.prefix_sum(k * (M - 1)) / w.prefix_sum(M - 1)) ** (1.0 / bs.p)
            cases.check(prev > bs.K, level, "ratio at M-1 exceeds K (minimality)",
                        {"ratio_at_M_minus_1": prev})
        # The certificate must equal the Lorentz norm of the all-ones level.
        ones = [[0.0]] * (k - 1) + [[1.0] * k]
        ln = lorentz_norm_runs(expand(bs, ones), w, bs.p)
        cases.agree(ln, cert, level, "all-ones Lorentz norm equals the certificate",
                    lorentz=ln, certificate=cert)
        # Normalizer cross-check under the order-sensitive norm (dense path).
        if M <= 4096:
            block = CoeffVec(np.arange(lvl.start, lvl.start + M), np.ones(M))
            gn = garling_norm(block, w, bs.p)
            cases.agree(gn, lvl.c, level, "constant block has the same Garling and Lorentz norm",
                        garling=gn, c=lvl.c)
        # 1-domination of the sup of coefficients within the level.
        for j in range(min(samples, 50)):
            rng = rng_for(seed, 1000 * k + j)
            a = rng.uniform(-1.0, 1.0, size=k)
            if not np.any(a):
                a[0] = 1.0
            ln = lorentz_norm_runs(expand(bs, [[0.0]] * (k - 1) + [a.tolist()]), w, bs.p)
            max_abs = float(np.max(np.abs(a)))
            cases.check(not ln < max_abs * (1.0 - tol), {"level": k, "coefficients": a.tolist()},
                        "norm of the combination dominates max |a_i|",
                        {"norm": ln, "max_abs": max_abs})
    stats = {"max_certificate": max_cert, "block_sizes": [float(lvl.M) for lvl in bs.levels]}
    return stats, {"rel": tol}


def _suite_blocks_wp(cases: _Cases, samples: int, seed: int, **params):
    bs = _block_system(**params)
    rep = wp_equivalence_ratios(bs, params.get("space") or "lorentz", samples=samples, seed=seed)
    cases.n += rep.cases
    if not (rep.cases and rep.max_ratio <= bs.K * (1.0 + cases.tol) and rep.min_ratio > 0.0):
        cases.fail({"system": bs, "space": rep.space}, f"max ratio <= K = {bs.K}",
                   {"min_ratio": rep.min_ratio, "max_ratio": rep.max_ratio,
                    "max_witness": rep.max_witness})
    stats = {"min_ratio": rep.min_ratio, "max_ratio": rep.max_ratio}
    return stats, {"rel": cases.tol}


def _suite_projection(cases: _Cases, samples: int, seed: int, **params):
    bs = _block_system(**params)
    w = bs.weight
    hi_d, hi_g = 0.0, 0.0
    span = bs.span

    # Range identity: projecting an expanded vector returns it unchanged.
    for j in range(min(samples, 20)):
        rng = rng_for(seed, 900000 + j)
        rows = [[float(x) for x in rng.uniform(-1.0, 1.0, size=k)] for k in range(1, bs.k_max + 1)]
        x = expand(bs, rows)
        if x.is_zero():
            continue
        px = averaging_projection(bs, x)
        same = (
            px.starts.tolist() == x.starts.tolist()
            and px.lengths.tolist() == x.lengths.tolist()
            and px.values.tolist() == x.values.tolist()
        )
        cases.check(same, {"coefficients": rows}, "projection is the identity on its range",
                    {"differs": True})

    for j in range(samples):
        x = random_coeffvec(rng_for(seed, j), max_support=40, max_index=span + 20)
        px = averaging_projection(bs, x)
        cases.n += 1  # one case, up to three failure records
        if j < max(1, min(samples, 1000)):
            ppx = averaging_projection(bs, px)
            dd = 0.0
            if px.starts.size != ppx.starts.size:
                dd = math.inf
            elif px.starts.size:
                scale = float(np.max(np.abs(px.values)))
                dd = float(np.max(np.abs(px.values - ppx.values))) / max(scale, 1e-300)
            if dd > cases.tol:
                cases.fail({"vector": x}, "P(Px) == Px", {"rel_diff": dd})
        xd = lorentz_norm(x, w, bs.p)
        pd = lorentz_norm_runs(px, w, bs.p)
        rd = pd / xd
        hi_d = max(hi_d, rd)
        if rd > 1.0 + 1e-9:
            cases.fail({"vector": x}, "projection does not expand the rearranged weighted norm",
                       {"ratio": rd})
        xg = garling_norm(x, w, bs.p)
        pg = garling_norm(px.to_coeffvec(), w, bs.p) if not px.is_zero() else 0.0
        rg = pg / xg
        hi_g = max(hi_g, rg)
        if rg > 2.0 + 1e-9:
            cases.fail({"vector": x}, "projection expands the subsequence norm by at most 2",
                       {"ratio": rg})
    stats = {"max_ratio_lorentz": hi_d, "max_ratio_garling": hi_g}
    tolerances = {"idempotence_rel": cases.tol, "lorentz_ratio": 1.0 + 1e-9,
                  "garling_ratio": 2.0 + 1e-9}
    return stats, tolerances


# ---------------------------------------------------------------------------
# direct-sum suite
# ---------------------------------------------------------------------------

_FDD_POOL = (
    "lp:p=1",
    "lp:p=2",
    "lp:p=inf",
    "lorentz:w=harmonic,p=1",
    "garling:w=harmonic,p=2",
    "tandori:p=1",
)


def _suite_fdd(cases: _Cases, samples: int, seed: int, **_):
    # Two blocks of component norms 1 and 2, p = 2: both sides sqrt(5).
    z1 = CoeffVec(np.array([1]), np.array([1.0]))
    z2 = CoeffVec(np.array([3, 4]), np.array([1.0, 1.0]))
    label = {"case": "norms 1 and 2, p=2"}
    sums = [([z1, z2], [("lp:p=1", 2), ("lp:p=1", 3)], 2.0, [1.0, 1.0], label)]
    for j in range(samples):
        rng = rng_for(seed, j)
        n_comp = int(rng.integers(2, 6))
        comps = []
        for _i in range(n_comp):
            dim = int(rng.integers(1, 7))
            spec = _FDD_POOL[int(rng.integers(0, len(_FDD_POOL)))]
            comps.append((spec, dim))
        offsets = np.concatenate(([0], np.cumsum([d for _, d in comps])))
        # Partition the components into consecutive groups, one block each.
        n_blocks = int(rng.integers(1, n_comp + 1))
        cut = np.sort(rng.choice(np.arange(1, n_comp), size=n_blocks - 1, replace=False))
        bounds = [0, *cut.tolist(), n_comp]
        blocks, cs = [], []
        for b in range(n_blocks):
            glo = int(offsets[bounds[b]]) + 1
            ghi = int(offsets[bounds[b + 1]])
            width = ghi - glo + 1
            m = int(rng.integers(1, width + 1))
            idx = np.sort(rng.choice(np.arange(glo, ghi + 1), size=m, replace=False))
            vals = rng.uniform(-1.0, 1.0, size=m)
            if not np.any(vals):
                vals[0] = 1.0
            blocks.append(CoeffVec(idx, vals))
            cs.append(float(rng.uniform(-2.0, 2.0)) or 1.0)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        sums.append((blocks, comps, p, cs, {"case": j, "components": comps, "p": p}))
    for blocks, comps, p, cs, label in sums:
        lhs, rhs = fdd_block_check(blocks, comps, p, cs)
        cases.agree(lhs, rhs, label, "direct-sum identity holds", lhs=lhs, rhs=rhs)
    return {"max_rel_diff": cases.worst}, {"rel": cases.tol}


# ---------------------------------------------------------------------------
# axioms and weight profile suites
# ---------------------------------------------------------------------------

_AXIOM_POOL = (
    "lp:p=1",
    "lp:p=2.5",
    "lp:p=inf",
    "lorentz:w=harmonic,p=1",
    "lorentz:w=power:a=0.5,p=2",
    "garling:w=harmonic,p=1",
    "tandori:p=1.5",
    "cesaro:p=2",
    "blocksum:lengths=dyadic,inner=inf,outer=2",
    "epw:n=512,p=1,w=0.5",
)


def _suite_norm_axioms(cases: _Cases, samples: int, seed: int, **_):
    tol = cases.tol
    for j in range(samples):
        spec = parse_space(_AXIOM_POOL[j % len(_AXIOM_POOL)])
        rng = rng_for(seed, j)
        u = random_coeffvec(rng, max_support=12, max_index=300)
        v = random_coeffvec(rng, max_support=12, max_index=300)
        c = float(rng.uniform(0.1, 8.0))
        nu = norm(u, spec)
        nv = norm(v, spec)
        # Homogeneity.
        nc = norm(u.scale(c), spec)
        slack = tol * max(nu.mid * c, 1.0) + c * nu.width + nc.width
        cases.check(not abs(nc.mid - c * nu.mid) > slack, {"space": spec.spec, "vector": u, "c": c},
                    "norm(c v) == c norm(v)", {"lhs": nc.mid, "rhs": c * nu.mid})
        # Triangle inequality.
        ns = norm(add_coeffvecs([(1.0, u), (1.0, v)]), spec)
        bound = nu.hi + nv.hi
        cases.check(not ns.lo > bound * (1.0 + tol), {"space": spec.spec, "u": u, "v": v},
                    "norm(u + v) <= norm(u) + norm(v)", {"lhs": ns.lo, "rhs": bound})
        # Absoluteness: sign flips leave the norm bit-identical.
        flips = rng.choice([-1.0, 1.0], size=len(u))
        uf = CoeffVec(u.indices, u.values * flips)
        nf = norm(uf, spec)
        cases.check(nf.lo == nu.lo and nf.hi == nu.hi, {"space": spec.spec, "vector": u},
                    "sign flips leave the norm unchanged exactly", {"flipped": nf, "plain": nu})
    return {}, {"rel": tol, "absoluteness": 0.0}


def _suite_weight_profiles(cases: _Cases, samples: int, seed: int, **_):
    horizon = 1 << 16

    nuc_h = check_nuc(Weight.harmonic(), horizon)
    ratios = np.asarray(nuc_h.profile_values)
    falling = bool(np.all(np.diff(ratios) < 0.0))
    cases.check(nuc_h.verdict == "consistent" and float(ratios.min()) < 1.07 and falling,
                {"weight": "harmonic", "condition": "nuc", "N": horizon},
                "ratios strictly decreasing with min < 1.07",
                {"min_ratio": float(ratios.min()), "verdict": nuc_h.verdict})

    nuc_p = check_nuc(Weight.power(0.5), horizon)
    target = 2.0**0.5
    cases.check(abs(nuc_p.extremum - target) < 0.01 and nuc_p.verdict != "consistent",
                {"weight": "power:a=0.5", "condition": "nuc", "N": horizon},
                "min ratio within 0.01 of sqrt(2); flat limit never reached",
                {"min_ratio": nuc_p.extremum, "verdict": nuc_p.verdict})

    tsb = check_2sb(Weight.harmonic(), 100)
    cases.check(abs(tsb.extremum - 1.0) <= cases.tol and tuple(tsb.arg_extremum) == (1, 1),
                {"weight": "harmonic", "condition": "2sb", "N": 100},
                "sup of S(nk)/(S(n)S(k)) equals 1 exactly, at (1,1)",
                {"sup": tsb.extremum, "arg": list(tsb.arg_extremum)})
    stats = {
        "harmonic_nuc_min": float(ratios.min()),
        "power_nuc_min": nuc_p.extremum,
        "harmonic_2sb_sup": tsb.extremum,
    }
    return stats, {"nuc_power_abs": 0.01, "2sb": cases.tol}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_SUITES = {
    "garling-oracle": (_suite_garling_oracle, 200, 1e-12),
    "lorentz-oracle": (_suite_lorentz_oracle, 200, 1e-12),
    "tandori-vp": (_suite_tandori_vp, 250, 1e-12),
    "embed-isometry": (_suite_embed_isometry, 400, 1e-12),
    "holder": (_suite_holder, 500, 1e-10),
    "blocks-linf": (_suite_blocks_linf, 50, 1e-12),
    "blocks-wp": (_suite_blocks_wp, 400, 1e-12),
    "projection": (_suite_projection, 500, 1e-12),
    "fdd": (_suite_fdd, 300, 1e-12),
    "duality": (_suite_duality, 0, 0.0),
    "norm-axioms": (_suite_norm_axioms, 300, 1e-10),
    "weight-profiles": (_suite_weight_profiles, 0, 0.0),
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(name: str, samples: int | None = None, seed: int = 0, tol: float | None = None, **params) -> SuiteReport:
    """Run a named suite and build its report; None samples/tol pick the suite's defaults.

    Extra keyword params (weight, p, K, levels, scan_cap, space) configure
    the block-system suites and are ignored elsewhere.
    """
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    fn, d_samples, d_tol = _SUITES[name]
    samples = d_samples if samples is None else int(samples)
    tol = d_tol if tol is None else float(tol)
    if samples < 0:
        raise DomainError("sample count must be nonnegative")
    if not math.isfinite(tol):
        raise DomainError(f"suite tolerance must be finite, got {tol}")
    seed = int(seed)
    t0 = time.perf_counter()
    cases = _Cases(tol)
    stats, tolerances = fn(cases, samples, seed, **params)
    cases.failures.sort(key=dumps)
    return SuiteReport(
        suite=name,
        passed=not cases.failures,
        cases=cases.n,
        failures=cases.failures,
        stats=stats,
        seed=seed,
        samples=samples,
        tolerances=tolerances,
        wall_time_s=round(time.perf_counter() - t0, 6),
    )
