"""Norm evaluation: frozen examples, independent oracles, grammar."""

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqspaces import (
    CoeffVec,
    DomainError,
    ParseError,
    RunVec,
    Weight,
    blocksum_norm,
    cesaro_norm,
    epw_norm,
    format_exponent,
    garling_norm,
    garling_norm_bruteforce,
    garling_norm_runs,
    lorentz_norm,
    lorentz_norm_runs,
    lp_norm,
    make_weight,
    norm,
    parse_exponent,
    parse_space,
)
from seqspaces.norms import _FAMILIES, _GARLING_NUMPY_CUTOFF, _norm_rows, _packed_norms
from seqspaces.sampling import random_coeffvec, random_nonincreasing, rng_for
from seqspaces.suites import _permutation_lorentz

mpmath.mp.dps = 40

H = Weight.harmonic()


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def test_parse_exponent():
    assert parse_exponent("2") == 2.0
    assert parse_exponent("1.5") == 1.5
    assert parse_exponent("inf") == math.inf
    assert format_exponent(math.inf) == "inf"
    assert format_exponent(2.0) == "2"
    assert format_exponent(1.5) == "1.5"
    for bad in ("", "two", "nan", "-inf"):
        with pytest.raises(ParseError):
            parse_exponent(bad)


def test_parse_space_roundtrip():
    specs = [
        "lp:p=2",
        "lp:p=inf",
        "lorentz:w=harmonic,p=1",
        "lorentz:w=power:a=0.5,p=2",
        "lorentz:w=explicit:[1, 0.5, 0.25],p=1.5",
        "garling:w=harmonic,p=2",
        "cesaro:p=1.5",
        "cesaro:p=inf",
        "tandori:p=1",
        "blocksum:lengths=dyadic,inner=inf,outer=2",
        "blocksum:lengths=triangular,inner=1,outer=inf",
        "epw:n=16,p=2,w=0.5",
    ]
    for s in specs:
        spec = parse_space(s)
        again = parse_space(spec.spec)
        assert again.spec == spec.spec
        assert parse_space(spec) is spec  # a parsed spec passes through


def test_parse_space_errors():
    bads = [
        "nope:p=2",
        "lp",
        "lp:q=2",
        "lp:p=2,p=3",
        "lorentz:p=1",  # missing weight
        "lorentz:w=harmonic",  # missing exponent
        "blocksum:lengths=dyadic,inner=2",  # missing outer
        "epw:n=x,p=1,w=0.5",
        "epw:n=4,p=1,w=zero",
        "lorentz:w=explicit:[1,0.5,p=1",  # unbalanced bracket
    ]
    for s in bads + [None, 2.0, b"lp:p=2"]:
        with pytest.raises(ParseError):
            parse_space(s)


def test_exponent_domains():
    with pytest.raises(DomainError):
        parse_space("cesaro:p=1")  # prefix-average family needs p > 1
    with pytest.raises(DomainError):
        parse_space("tandori:p=inf")
    with pytest.raises(DomainError):
        parse_space("lorentz:w=harmonic,p=inf")
    with pytest.raises(DomainError):
        parse_space("garling:w=harmonic,p=0.5")
    with pytest.raises(DomainError):
        parse_space("lp:p=0.99")
    with pytest.raises(DomainError):
        parse_space("epw:n=0,p=1,w=0.5")
    with pytest.raises(DomainError):
        parse_space("epw:n=4,p=1,w=1.5")
    parse_space("cesaro:p=1.0000001")  # open endpoint, anything above is fine


# ---------------------------------------------------------------------------
# lp
# ---------------------------------------------------------------------------


def test_lp_frozen():
    v = CoeffVec.from_dense([3.0, -4.0])
    assert lp_norm(v, 2.0) == 5.0
    assert lp_norm(v, 1.0) == 7.0
    assert lp_norm(v, math.inf) == 4.0
    assert lp_norm(CoeffVec.from_dense([]), 2.0) == 0.0


# ---------------------------------------------------------------------------
# rearranged weighted norm
# ---------------------------------------------------------------------------


def test_lorentz_frozen():
    v = CoeffVec.from_dense([3.0, 1.0, 2.0])
    # sorted magnitudes (3, 2, 1) against (1, 1/2, 1/3)
    assert abs(lorentz_norm(v, H, 1.0) - (3.0 + 1.0 + 1.0 / 3.0)) <= 1e-15
    w2 = make_weight("explicit:[1, 0.5]")
    assert lorentz_norm(CoeffVec.from_dense([1.0, 2.0]), w2, 1.0) == 2.5


def test_lorentz_position_invariance():
    # Only the multiset of magnitudes matters.
    a = CoeffVec.from_dense([3.0, -1.0, 2.0])
    b = CoeffVec.from_pairs([(7, -2.0), (20, 1.0), (105, 3.0)])
    for p in (1.0, 2.0):
        assert lorentz_norm(a, H, p) == lorentz_norm(b, H, p)


def _permutation_loop(v, w, p):
    """The permutation maximum one pairing at a time, each exactly summed."""
    vp = (np.abs(v.values) ** p).tolist()
    wv = w.values(1, len(v) + 1).tolist()
    best = 0.0
    for perm in itertools.permutations(vp):
        best = max(best, math.fsum(x * y for x, y in zip(perm, wv)))
    return best ** (1.0 / p)


def test_lorentz_vs_permutation_oracle():
    for j in range(60):
        v = random_coeffvec(rng_for(11, j), max_support=6, max_index=30)
        p = (1.0, 1.5, 2.0)[j % 3]
        want = _permutation_loop(v, H, p)
        assert abs(lorentz_norm(v, H, p) - want) <= 1e-12 * max(want, 1.0)


_ORACLE_KINDS = ("uniform", "near", "ties", "wide", "underflow", "zero")


def _oracle_values(rng, m, kind):
    """Support values of one oracle case.

    "near": values an ulp or two apart, so sums in another order round
    differently; "ties": many equal sums; "wide": 10^+-150; "underflow" and
    "zero": 10^-160 and 10^-170, whose powers at p = 2 and 3 are subnormal or
    zero (all of them, for "zero").
    """
    if kind == "near":
        return 1.0 + rng.integers(0, 3, size=m) * 2.0**-52
    if kind == "ties":
        return rng.integers(1, 4, size=m) * rng.choice([1.0, 0.1])
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, size=m)
    exps = {"wide": [-150.0, 0.0, 150.0], "underflow": [-170.0, -160.0, 0.0], "zero": [-170.0]}
    return rng.uniform(0.5, 1.0, size=m) * 10.0 ** rng.choice(exps[kind], size=m)


def _oracle_combos(kind):
    """(weight, p) pairs; p = 3 would overflow 10^150, so "wide" takes 1.5."""
    return ((H, 1.0), (Weight.power(0.5), 2.0), (H, 1.5 if kind == "wide" else 3.0))


def test_permutation_oracle_equals_a_pairing_loop_bit_for_bit():
    for m in range(8):  # m = 0: the zero vector
        rng = np.random.default_rng([43, m])
        for kind in _ORACLE_KINDS:
            for j in range(20 if kind == "near" else 3):
                v = CoeffVec.from_dense(_oracle_values(rng, m, kind))
                for w, p in _oracle_combos(kind):
                    want = _permutation_loop(v, w, p)
                    assert _permutation_lorentz(v, w, p).hex() == want.hex(), (m, kind, j, p)


def test_permutation_oracle_refuses_more_than_eight_entries():
    _permutation_lorentz(CoeffVec.from_dense([1.0] * 8), H, 1.0)
    with pytest.raises(DomainError, match="at most 8 entries"):
        _permutation_lorentz(CoeffVec.from_dense([1.0] * 9), H, 1.0)


# ---------------------------------------------------------------------------
# subsequence weighted norm
# ---------------------------------------------------------------------------


def test_garling_frozen():
    w2 = make_weight("explicit:[1, 0.5]")
    v = CoeffVec.from_dense([1.0, 2.0])
    # Candidate subsequences: (1) -> 1, (2) -> 2, (1,2) -> 1 + 2/2 = 2.
    assert garling_norm(v, w2, 1.0) == 2.0
    # Nonincreasing values: the identity subsequence is optimal.
    v2 = CoeffVec.from_dense([2.0, 1.0])
    assert garling_norm(v2, w2, 1.0) == 2.5


def _garling_reference(v, w, p):
    # Plain quadratic DP, written independently of the library version.
    a = np.abs(v.values) ** p
    m = len(a)
    wv = w.values(1, m + 1)
    best = np.full(m + 1, -np.inf)
    best[0] = 0.0
    for x in a:
        for k in range(m, 0, -1):
            if best[k - 1] >= 0.0:
                best[k] = max(best[k], best[k - 1] + x * wv[k - 1])
    return max(0.0, best[1:].max()) ** (1.0 / p)


def test_garling_both_paths_vs_reference():
    # Supports up to the vectorized cutoff (36) take the list loop and larger
    # ones the numpy loop; both must agree with a plain reference DP.
    c = _GARLING_NUMPY_CUTOFF
    for j in range(40):
        m = (3, 8, c - 1, c, c + 1, 47, 64, 65, 100)[j % 9]
        rng = rng_for(12, j)
        idx = np.sort(rng.choice(np.arange(1, 200), size=m, replace=False))
        v = CoeffVec(idx, rng.uniform(-2.0, 2.0, size=m))
        for p in (1.0, 2.0):
            got = garling_norm(v, H, p)
            ref = _garling_reference(v, H, p)
            assert abs(got - ref) <= 1e-12 * max(ref, 1.0)


def test_garling_numpy_dp_equals_list_dp(monkeypatch):
    # The list DP and the chunked numpy DP must give the same float on any
    # vector; patching the cutoff sends one vector through each.  The sizes
    # straddle the cutoff and the numpy DP's chunks of 64 positions.
    from seqspaces import norms

    cutoff = norms._GARLING_NUMPY_CUTOFF
    weights = [make_weight(s) for s in ("harmonic", "power:a=0.5", "power:a=0.9")]
    for j, m in enumerate((1, cutoff, cutoff + 1, 63, 64, 65, 128, 129, 300)):
        rng = rng_for(21, j)
        idx = np.sort(rng.choice(np.arange(1, 3 * m + 1), size=m, replace=False))
        v = CoeffVec(idx, rng.uniform(-2.0, 2.0, size=m))
        for w in weights:
            for p in (1.0, 1.5, 2.0, 3.0):
                monkeypatch.setattr(norms, "_GARLING_NUMPY_CUTOFF", 0)
                chunked = garling_norm(v, w, p)
                monkeypatch.setattr(norms, "_GARLING_NUMPY_CUTOFF", 10**6)
                assert garling_norm(v, w, p) == chunked, (m, p)


def _subset_max_loop(v, w, p):
    """The enumeration one subset at a time, in plain Python."""
    vp = (np.abs(v.values) ** p).tolist()
    wk = w.values(1, len(v) + 1).tolist()
    best = 0.0
    for mask in range(1, 1 << len(v)):
        picked = [x for i, x in enumerate(vp) if mask >> i & 1]
        acc = 0.0
        for rank, x in enumerate(picked):
            acc += x * wk[rank]
        best = max(best, acc)
    return best ** (1.0 / p)


def test_garling_vs_bruteforce():
    for j in range(40):
        v = random_coeffvec(rng_for(13, j), max_support=10, max_index=25)
        for p in (1.0, 1.5):
            dp = garling_norm(v, H, p)
            bf = garling_norm_bruteforce(v, H, p)
            assert abs(dp - bf) <= 1e-12 * max(bf, 1.0)
            if j < 8:  # the doubling adds each subset in the same order
                assert bf == _subset_max_loop(v, H, p)
    with pytest.raises(DomainError):
        garling_norm_bruteforce(
            CoeffVec.from_dense([1.0] * 21), H, 1.0
        )


def _mask_batch_bruteforce(v, w, p):
    """The enumeration in batches of 2^16 masks, m numpy passes per batch."""
    vp = np.abs(v.values) ** p
    wv = np.asarray(w.values(1, len(v) + 1), dtype=np.float64)
    best = 0.0
    for first in range(1, 1 << len(v), 1 << 16):
        masks = np.arange(first, min(first + (1 << 16), 1 << len(v)), dtype=np.int64)
        acc = np.zeros(masks.size)
        rank = np.zeros(masks.size, dtype=np.int64)
        for i in range(len(v)):
            bit = (masks >> i) & 1
            acc += vp[i] * wv[rank] * bit  # an unselected entry adds an exact zero
            rank += bit
        best = max(best, float(acc.max()))
    return best ** (1.0 / p)


def test_garling_bruteforce_equals_mask_batch_loop_bit_for_bit():
    # Subset doubling does each subset's additions in the order the batch loop
    # did, minus its exact zeros, so every sum is the same float.
    for m in range(21):  # m = 0: the zero vector
        rng = np.random.default_rng([41, m])
        kinds = _ORACLE_KINDS if m <= 16 else _ORACLE_KINDS[m % 6 : m % 6 + 1]
        for kind in kinds:
            v = CoeffVec.from_dense(_oracle_values(rng, m, kind))
            for w, p in _oracle_combos(kind):
                got = garling_norm_bruteforce(v, w, p)
                assert got.hex() == _mask_batch_bruteforce(v, w, p).hex(), (m, kind, p)


def test_garling_bruteforce_memory_at_its_cap():
    # 2^20 sums (8 MB), their popcounts (1 MB) and one index copy of half of
    # them (4 MB): 13 MB, and no other temporary of that size.
    v = CoeffVec.from_dense(np.linspace(1.0, 0.1, 20))
    tracemalloc.start()
    try:
        garling_norm_bruteforce(v, H, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20, peak


def test_garling_below_lorentz():
    for j in range(300):
        v = random_coeffvec(rng_for(14, j), max_support=12, max_index=64)
        p = (1.0, 2.0)[j % 2]
        g = garling_norm(v, H, p)
        d = lorentz_norm(v, H, p)
        assert g <= d * (1.0 + 1e-12)


def test_garling_equals_lorentz_when_nonincreasing():
    for j in range(100):
        rng = rng_for(15, j)
        v = random_nonincreasing(rng, int(rng.integers(1, 30)))
        p = (1.0, 1.5, 2.0)[j % 3]
        g = garling_norm(v, H, p)
        d = lorentz_norm(v, H, p)
        assert abs(g - d) <= 1e-12 * d


# ---------------------------------------------------------------------------
# suffix-sup norm
# ---------------------------------------------------------------------------


def test_tandori_frozen():
    from seqspaces import tandori_norm

    assert tandori_norm(CoeffVec.basis(5), 1.0) == 5.0
    for p in (1.0, 2.0, 3.0):
        for k in (1, 2, 7):
            assert abs(tandori_norm(CoeffVec.basis(k), p) - k ** (1.0 / p)) <= 1e-15 * k


def test_tandori_vs_dense_reference():
    from seqspaces import tandori_norm

    for j in range(60):
        v = random_coeffvec(rng_for(16, j), max_support=12, max_index=120)
        p = (1.0, 1.5, 2.0)[j % 3]
        dense = v.dense()
        sups = [float(np.max(np.abs(dense[i:]))) for i in range(dense.size)]
        ref = math.fsum(s**p for s in sups) ** (1.0 / p)
        assert abs(tandori_norm(v, p) - ref) <= 1e-12 * max(ref, 1.0)


# ---------------------------------------------------------------------------
# prefix-average norm
# ---------------------------------------------------------------------------


def test_cesaro_frozen():
    b = cesaro_norm(CoeffVec.basis(1), 2.0)
    assert b.contains(1.2825498301618641)  # sqrt(zeta(2)), computed separately
    assert b.width <= 1e-9 * b.mid
    s = cesaro_norm(CoeffVec.from_dense([2.0, 0.0, 0.0, 1.0]), math.inf)
    assert s.lo == s.hi == 2.0  # prefix averages peak at n = 1


def test_cesaro_vs_high_precision():
    for j in range(25):
        v = random_coeffvec(rng_for(17, j), max_support=8, max_index=40)
        p = (1.5, 2.0, 3.0)[j % 3]
        b = cesaro_norm(v, p, tol=1e-10)
        dense = v.dense()
        pref = np.cumsum(np.abs(dense))
        head = mpmath.fsum(
            (mpmath.mpf(float(x)) / n) ** p for n, x in enumerate(pref, start=1)
        )
        tail = mpmath.mpf(float(pref[-1])) ** p * mpmath.zeta(p, dense.size + 1)
        ref = float((head + tail) ** (1.0 / mpmath.mpf(p)))
        assert b.lo <= ref * (1 + 1e-13) and ref * (1 - 1e-13) <= b.hi
        assert b.width <= 1e-10 * b.mid


def test_cesaro_tolerance_and_domain():
    v = CoeffVec.from_dense([1.0, 1.0])
    tight = cesaro_norm(v, 1.5, tol=1e-13)
    assert tight.width <= 1e-13 * tight.mid
    with pytest.raises(DomainError):
        cesaro_norm(v, 1.0)
    with pytest.raises(DomainError):
        cesaro_norm(v, 2.0, tol=0.0)


# ---------------------------------------------------------------------------
# blocked and mixed norms
# ---------------------------------------------------------------------------


def test_blocksum_frozen():
    v = CoeffVec.from_dense([3.0, 4.0])
    # dyadic blocks {1}, {2,3}: sups 3 and 4, summed
    assert blocksum_norm(v, "dyadic", math.inf, 1.0) == 7.0
    ones = CoeffVec.from_dense([1.0] * 6)
    # triangular blocks {1}, {2,3}, {4,5,6}: inner sums 1, 2, 3
    assert blocksum_norm(ones, "triangular", 1.0, math.inf) == 3.0
    assert blocksum_norm(v, "dyadic", 2.0, 2.0) == 5.0


def _blocksum_by_block(v, lengths, inner, outer):
    """Reference: look every block up in the support on its own."""
    lens = {"dyadic": [1 << k for k in range(12)], "triangular": list(range(1, 80))}[lengths]
    a = np.abs(v.values)
    norms_ = []
    start = 1
    for ln in lens:
        lo, hi = np.searchsorted(v.indices, [start, start + ln])
        if lo < hi:
            b = a[lo:hi]
            norms_.append(
                float(b.max()) if math.isinf(inner)
                else math.fsum(b) if inner == 1.0
                else math.fsum(b**inner) ** (1.0 / inner)
            )
        start += ln
    if math.isinf(outer):
        return max(norms_)
    if outer == 1.0:
        return math.fsum(norms_)
    return math.fsum(x**outer for x in norms_) ** (1.0 / outer)


def test_blocksum_matches_blockwise_lookup_bit_for_bit():
    rng = rng_for(17, 0)
    cases = [("dyadic", 2.0, 1.0), ("triangular", 1.0, 3.0), ("dyadic", math.inf, 2.0),
             ("triangular", 2.5, math.inf)]
    for _ in range(300):
        v = random_coeffvec(rng, int(rng.integers(1, 65)), 256)
        for lengths, inner, outer in cases:
            assert blocksum_norm(v, lengths, inner, outer) == _blocksum_by_block(
                v, lengths, inner, outer
            )


def test_epw_frozen():
    ones4 = CoeffVec.from_dense([1.0] * 4)
    assert epw_norm(ones4, 4, 1.0, 0.5) == 4.0
    assert epw_norm(ones4, 4, 4.0, 1.0) == 2.0  # euclidean part wins
    with pytest.raises(DomainError):
        epw_norm(CoeffVec.basis(5), 4, 1.0, 0.5)
    with pytest.raises(DomainError):
        epw_norm(ones4, 4, math.inf, 0.5)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def test_norm_dispatcher():
    v = CoeffVec.from_dense([3.0, 1.0, 2.0])
    b = norm(v, "lorentz:w=harmonic,p=1")
    assert b.width == 0.0 and abs(b.mid - 13.0 / 3.0) <= 1e-15
    c = norm(v, "cesaro:p=2", tol=1e-11)
    assert c.width <= 1e-11 * c.mid
    assert norm(CoeffVec.from_dense([]), "lp:p=2").mid == 0.0
    for s in ("lp:p=2", "tandori:p=1", "epw:n=8,p=1,w=0.5", "blocksum:lengths=dyadic,inner=inf,outer=1"):
        assert norm(v, s).width == 0.0


# ---------------------------------------------------------------------------
# run-encoded variants
# ---------------------------------------------------------------------------


def test_lorentz_runs_matches_dense():
    for j in range(80):
        rng = rng_for(18, j)
        n_runs = int(rng.integers(1, 6))
        starts, lens, vals = [], [], []
        pos = 1
        for _ in range(n_runs):
            pos += int(rng.integers(0, 10))
            ln = int(rng.integers(1, 12))
            starts.append(pos)
            lens.append(ln)
            vals.append(float(rng.uniform(-2.0, 2.0)) or 1.0)
            pos += ln
        rv = RunVec(np.array(starts), np.array(lens), np.array(vals))
        p = (1.0, 1.5, 2.0)[j % 3]
        got = lorentz_norm_runs(rv, H, p)
        ref = lorentz_norm(rv.to_coeffvec(), H, p)
        assert abs(got - ref) <= 1e-12 * max(ref, 1.0)


def test_garling_runs_single_run_exact():
    for start, ln in ((1, 5), (4, 1), (10, 1000)):
        rv = RunVec(np.array([start]), np.array([ln]), np.array([-1.5]))
        got = garling_norm_runs(rv, H, 1.0)
        # A constant run is nonincreasing, so the subsequence norm matches
        # the rearranged one: |v| * S(len).
        assert got == 1.5 * H.prefix_sum(ln)


def test_garling_runs_multi_matches_dense():
    rv = RunVec(np.array([1, 8]), np.array([3, 4]), np.array([2.0, -1.0]))
    got = garling_norm_runs(rv, H, 1.0)
    ref = garling_norm(rv.to_coeffvec(), H, 1.0)
    assert abs(got - ref) <= 1e-12 * ref


def test_garling_runs_densify_guard():
    # Two runs totalling more entries than the cap; a single run that size
    # is still fine (closed form, no densification).
    big = RunVec(np.array([1, 50001]), np.array([40000, 40000]), np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        garling_norm_runs(big, H, 1.0)
    one = RunVec(np.array([1]), np.array([80000]), np.array([2.0]))
    assert garling_norm_runs(one, H, 1.0) == 2.0 * H.prefix_sum(80000)
    # Wide gaps are harmless: only the value order matters for this norm.
    gap = RunVec(np.array([1, 1 << 20]), np.array([1, 1]), np.array([1.0, 1.0]))
    ref = garling_norm(CoeffVec.from_dense([1.0, 1.0]), H, 1.0)
    assert garling_norm_runs(gap, H, 1.0) == ref


def test_zero_vector_everywhere():
    z = CoeffVec.from_dense([])
    assert lorentz_norm(z, H, 1.0) == 0.0
    assert garling_norm(z, H, 2.0) == 0.0
    assert blocksum_norm(z, "dyadic", 1.0, 1.0) == 0.0
    assert epw_norm(z, 4, 1.0, 0.5) == 0.0
    assert cesaro_norm(z, 2.0).mid == 0.0
    # Through the dispatcher too: combinations that cancel are evaluated as is.
    for spec in ("lp:p=inf", "tandori:p=1.5", "cesaro:p=inf", "garling:w=harmonic,p=1",
                 "blocksum:lengths=triangular,inner=2,outer=inf", "epw:n=4,p=2,w=0.5"):
        assert norm(z, spec).mid == 0.0, spec


# -- batch variants ----------------------------------------------------------

_EXPONENT = st.one_of(st.sampled_from([1.0, 1.7, 2.0, 2.5, 3.0]), st.floats(1.0, 6.0))
_WEIGHT = st.sampled_from(["harmonic", "power:a=0.5", "power:a=0.25", "power:a=0.9"])
_INNER = st.one_of(st.sampled_from([1.0, 2.0, 2.5, math.inf]), st.floats(1.0, 6.0))
_BATCH_SPECS = {
    "lp": st.builds(lambda p: f"lp:p={format_exponent(p)}",
                    st.one_of(_EXPONENT, st.just(math.inf))),
    "lorentz": st.builds(lambda w, p: f"lorentz:w={w},p={p!r}", _WEIGHT, _EXPONENT),
    "garling": st.builds(lambda w, p: f"garling:w={w},p={p!r}", _WEIGHT, _EXPONENT),
    "tandori": st.builds(lambda p: f"tandori:p={p!r}", _EXPONENT),
    "blocksum": st.builds(
        lambda lengths, q, p: (
            f"blocksum:lengths={lengths},inner={format_exponent(q)},outer={format_exponent(p)}"
        ),
        st.sampled_from(["dyadic", "triangular"]), _INNER, _INNER,
    ),
    "epw": st.builds(lambda p, w: f"epw:n=40,p={p!r},w={w!r}", _EXPONENT, st.floats(0.01, 1.0)),
}


def _dense_rows(seed: int, rows: int, n: int, zeros: float, spread: float) -> np.ndarray:
    """Nonnegative rows with ties, zeros inside the rows and a range of magnitudes."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, size=(rows, n)) ** spread
    A[rng.uniform(size=A.shape) < zeros] = 0.0
    if n >= 3:
        A[::2, n // 2] = 0.0  # an interior zero in every other row
    A[1::3] = np.round(A[1::3] * 4.0) / 4.0  # repeated values
    return A


@pytest.mark.parametrize("family", sorted(_BATCH_SPECS))
@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 64),
    n=st.integers(1, 40),
    zeros=st.floats(0.0, 0.7),
    spread=st.floats(0.2, 8.0),
)
def test_batch_norms_equal_scalar_kernels_bit_for_bit(family, data, seed, rows, n, zeros, spread):
    s = parse_space(data.draw(_BATCH_SPECS[family]))
    A = _dense_rows(seed, rows, n, zeros, spread)
    got = _FAMILIES[family].batch(A, s)
    want = [norm(CoeffVec.from_dense(row), s).mid for row in A]
    assert got.tolist() == want


def test_packed_rows_equal_scalar_kernels_bit_for_bit():
    # The batch kernels on |values| packed left-aligned into zero-padded
    # rows of mixed widths, against the scalar kernels on the vectors.
    vecs = [CoeffVec()]
    for j in range(60):
        rng = rng_for(40, j)
        m = (1, 2, 12, 35, 36, 37, 63, 64, 65, 100, 129, 130)[j % 12]
        idx = np.sort(rng.choice(np.arange(1, 4 * m + 1), size=m, replace=False))
        vals = (rng.uniform(-1.0, 1.0, size=m), rng.integers(-3, 4, size=m).astype(float),
                rng.choice([-1e100, 1e-100, 2e-100, 3e100], size=m))[j // 12 % 3]  # ties, 10^+-100
        vecs.append(CoeffVec(idx, vals))
    mags = [np.abs(v.values) for v in vecs]
    for w in ("harmonic", "power:a=0.5"):
        for p in (1.0, 1.5, 2.0, 3.0):
            for family, kernel in (("garling", garling_norm), ("lorentz", lorentz_norm)):
                s = parse_space(f"{family}:w={w},p={p!r}")
                want = [kernel(v, s.weight, p) for v in vecs]
                assert _packed_norms(mags, s).tolist() == want, (family, w, p)


def test_every_family_but_cesaro_has_a_batch():
    assert sorted(f for f, e in _FAMILIES.items() if e.batch is not None) == sorted(_BATCH_SPECS)
    A = _dense_rows(3, 5, 4, 0.3, 1.0)
    s = parse_space("cesaro:p=2")
    assert _norm_rows(A, s).tolist() == [norm(CoeffVec.from_dense(r), s).mid for r in A]


def test_batch_epw_rejects_support_beyond_n():
    s = parse_space("epw:n=3,p=1,w=0.5")
    with pytest.raises(DomainError, match="beyond n = 3"):
        _norm_rows(np.array([[1.0, 0.0, 0.0, 0.5]]), s)


def test_parse_space_memo():
    s = "lorentz:w=power:a=0.5,p=2"
    assert parse_space(s) is parse_space(s)
    assert parse_space(" " + s) == parse_space(s)
    for _ in range(2):  # a failure is never remembered
        with pytest.raises(ParseError):
            parse_space("lorentz:w=power:a=0.5,p=x")
