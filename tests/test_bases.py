"""Dual basis scalings, the layered embedding, and the block-sup comparison."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqspaces import (
    CoeffVec,
    DomainError,
    LayeredVec,
    conjugate,
    duality_pair,
    embed_tandori_lpc0,
    f_coeffs_to_raw,
    f_scale,
    f_scales,
    g_norm_in_cesaro,
    g_scale,
    g_vector,
    tandori_norm,
    tandori_vp_check,
)
from seqspaces.bases import _ROWS_CAP, _dual_scales
from seqspaces.sampling import random_coeffvec, rng_for

_SCALE_PS = (1.0, 1.1, 1.5, 2.0, 3.0)


def test_conjugate():
    assert conjugate(1.0) == math.inf
    assert conjugate(math.inf) == 1.0
    assert conjugate(2.0) == 2.0
    assert abs(conjugate(1.5) - 3.0) <= 1e-15
    with pytest.raises(DomainError):
        conjugate(0.5)


def test_biorthogonality_exact():
    # The pair of scales is adjusted so the product rounds to 1.0 exactly.
    for p in (1.0, 1.5, 2.0, 3.0):
        for k in range(1, 41):
            assert f_scale(k, p) * g_scale(k, p) == 1.0
        for j in range(1, 41):
            g = g_vector(j, p)
            for k in range(1, 41):
                f = f_coeffs_to_raw(CoeffVec.basis(k), p)
                assert duality_pair(g, f) == (1.0 if j == k else 0.0)


def test_scales_track_power_law():
    for p in (1.0, 2.0, 3.0):
        for k in (1, 5, 100, 1000):
            assert abs(f_scale(k, p) - k ** (-1.0 / p)) <= 4 * np.spacing(k ** (-1.0 / p))
            assert abs(g_scale(k, p) - k ** (1.0 / p)) <= 4 * np.spacing(k ** (1.0 / p))


def test_f_vectors_are_normalized():
    # ||f_k|| = k^{-1/p} * (k ones summed)^{1/p}; the scale adjustment keeps
    # the product within a few ulps of 1.
    for p in (1.0, 1.5, 2.0, 3.0):
        for k in (1, 2, 3, 10, 100, 937):
            t = tandori_norm(f_coeffs_to_raw(CoeffVec.basis(k), p), p)
            assert abs(t - 1.0) <= 4e-15


def _first_candidate_misses(ks, p):
    """Indices where fl(1/g) with g = fl(k^{1/p}) does not give an exact pair."""
    out = []
    for k in ks:
        g = float(k) ** (1.0 / p)
        if (1.0 / g) * g != 1.0:
            out.append(k)
    return out


def _assert_scales_match(ks, p):
    got = f_scales(np.array(ks, dtype=np.int64), p)
    want = np.array([_dual_scales(k, p)[0] for k in ks], dtype=np.float64)
    assert got.tobytes() == want.tobytes()
    for k, f in zip(ks, got.tolist()):
        assert f * g_scale(k, p) == 1.0


@pytest.mark.parametrize("p", _SCALE_PS)
def test_f_scales_match_scalar_search_on_the_first_indices(p):
    ks = list(range(1, 2001))
    assert _first_candidate_misses(ks, p)  # the scalar search must be exercised
    _assert_scales_match(ks, p)


@settings(max_examples=120, deadline=None)
@given(
    p=st.one_of(st.sampled_from(_SCALE_PS), st.floats(1.0, 8.0)),
    ks=st.sets(st.integers(1, 2**40), max_size=300),
)
def test_f_scales_match_scalar_search(p, ks):
    # Sizes straddle the batch cutoff; a few first-candidate misses from the
    # head are mixed in so every draw takes the scalar search too.
    ks |= set(_first_candidate_misses(range(1, 2001), p)[:3])
    ks = sorted(ks)
    assert _first_candidate_misses(ks, p)
    _assert_scales_match(ks, p)


def test_f_scales_do_not_thrash_the_memo():
    # Only first-candidate misses reach the scalar search, so a large support
    # fills the memo with a small fraction of its indices.
    m = 100_000
    rng = np.random.default_rng(9)
    idx = np.sort(rng.choice(4 * m, size=m, replace=False)) + 1
    a = CoeffVec(idx.astype(np.int64), rng.standard_normal(m))
    for p in (1.5, 2.0):
        _dual_scales.cache_clear()
        f_coeffs_to_raw(a, p)
        info = _dual_scales.cache_info()
        assert info.hits + info.misses <= 0.2 * m


def _pair_oracle(x, y):
    """The pairing through np.intersect1d, independent of the merge."""
    if x.is_zero() or y.is_zero():
        return 0.0
    common, ix, iy = np.intersect1d(x.indices, y.indices, return_indices=True)
    if common.size == 0:
        return 0.0
    return math.fsum(x.values[ix] * y.values[iy])


_VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    xs=st.lists(st.integers(1, 400), max_size=80, unique=True),
    kind=st.sampled_from(["independent", "disjoint", "nested", "superset", "equal", "empty", "single"]),
)
def test_duality_pair_matches_intersect_oracle(data, xs, kind):
    xs = sorted(xs)
    if kind == "single":  # one entry against a support of any size, often holding it
        xs = [data.draw(st.integers(1, 400))]
        size = data.draw(st.sampled_from([1, 3, 200]))
        ys = data.draw(st.lists(st.integers(1, 400), max_size=size, unique=True))
        if data.draw(st.booleans()):
            ys = list(set(ys) | set(xs))
    elif kind == "independent":  # sizes drawn apart, so often mismatched
        ys = data.draw(st.lists(st.integers(1, 400), max_size=200, unique=True))
    elif kind == "disjoint":
        ys = data.draw(st.lists(st.integers(1, 400).filter(lambda k: k not in xs), max_size=80, unique=True))
    elif kind == "nested":
        ys = [k for k in xs if data.draw(st.booleans())]
    elif kind == "superset":
        ys = xs + data.draw(st.lists(st.integers(401, 900), max_size=120, unique=True))
    elif kind == "equal":
        ys = list(xs)
    else:
        ys = []
    ys = sorted(ys)
    x = CoeffVec(np.array(xs, dtype=np.int64), np.array(data.draw(st.lists(_VALUES, min_size=len(xs), max_size=len(xs)))))
    y = CoeffVec(np.array(ys, dtype=np.int64), np.array(data.draw(st.lists(_VALUES, min_size=len(ys), max_size=len(ys)))))
    want = np.float64(_pair_oracle(x, y)).tobytes()
    assert np.float64(duality_pair(x, y)).tobytes() == want
    assert np.float64(duality_pair(y, x)).tobytes() == want


def test_duality_pair_one_entry_underflow():
    # A product that underflows to -0.0 comes back as +0.0, as through fsum.
    tiny = CoeffVec.basis(4, 1e-200)
    for y in (CoeffVec.basis(4, -1e-200), CoeffVec.from_pairs([(2, 1.0), (4, -1e-200), (9, 1.0)])):
        assert np.float64(duality_pair(tiny, y)).tobytes() == np.float64(0.0).tobytes()
        assert np.float64(duality_pair(y, tiny)).tobytes() == np.float64(0.0).tobytes()


def test_duality_pair_bilinear():
    x = CoeffVec.from_pairs([(1, 2.0), (5, -1.0)])
    y = CoeffVec.from_pairs([(5, 3.0), (9, 4.0)])
    assert duality_pair(x, y) == -3.0
    assert duality_pair(x.scale(2.0), y) == -6.0
    assert duality_pair(x, CoeffVec.from_dense([])) == 0.0


def test_f_coeffs_to_raw_layout():
    a = CoeffVec.from_pairs([(2, 1.0), (3, -2.0)])
    raw = f_coeffs_to_raw(a, 1.0)
    assert raw.indices.tolist() == [2, 3]
    assert raw.values[0] == f_scale(2, 1.0) * 1.0
    assert raw.values[1] == f_scale(3, 1.0) * -2.0


def test_embed_isometry_exact():
    for j in range(60):
        p = (1.0, 1.5, 2.0, 3.0)[j % 4]
        a = random_coeffvec(rng_for(21, j), max_support=16, max_index=80)
        raw = f_coeffs_to_raw(a, p)
        lv = embed_tandori_lpc0(a, p)
        assert lv.norm(p) == tandori_norm(raw, p)
    # A holding far out: the suffix layout must not densify 10^9 rows.
    far = CoeffVec.basis(10**9)
    for p in (1.0, 2.0):
        t = embed_tandori_lpc0(far, p).norm(p)
        assert t == tandori_norm(f_coeffs_to_raw(far, p), p)
        assert abs(t - 1.0) <= 1e-12


def test_layered_rows():
    a = CoeffVec.from_pairs([(2, 1.0), (4, -3.0)])
    lv = embed_tandori_lpc0(a, 1.0)
    rows = lv.rows_list()
    assert [n for n, _ in rows] == [1, 2, 3, 4]
    # Row 3 sees only the holdings from index 3 on.
    assert rows[2][1].indices.tolist() == [4]
    # The l_p sum of the row sups is the layered norm.
    for p in (1.0, 2.0):
        sups = [float(np.max(np.abs(row.values))) for _, row in rows]
        assert math.fsum(s**p for s in sups) ** (1.0 / p) == lv.norm(p)


def test_layered_validation():
    with pytest.raises(DomainError):
        embed_tandori_lpc0(CoeffVec.basis(1), math.inf)
    assert LayeredVec(CoeffVec()).rows_list() == []
    with pytest.raises(DomainError, match="refusing to materialize"):
        embed_tandori_lpc0(CoeffVec.basis(_ROWS_CAP + 1), 1.0).rows_list()


def test_vp_check_frozen():
    # a = e_1 + e_2, p = 1: raw = (1, 1/2), suffix sups (1, 1/2) sum to 3/2;
    # dyadic block sups of the coefficients are (1, 1) summing to 2.
    a = CoeffVec.from_dense([1.0, 1.0])
    rep = tandori_vp_check(a, 1.0)
    assert rep.t == 1.5 and rep.u == 2.0
    assert rep.passed
    d = rep.to_json_dict()
    assert d["ratio"] == 0.75
    with pytest.raises(DomainError):
        tandori_vp_check(CoeffVec.from_dense([]), 1.0)


def test_vp_check_random():
    for j in range(200):
        p = (1.0, 1.5, 2.0, 3.0)[j % 4]
        a = random_coeffvec(rng_for(22, j), max_support=20, max_index=128)
        rep = tandori_vp_check(a, p)
        assert rep.passed
        assert rep.t**p <= 2.0 * rep.u**p * (1 + 1e-12)
        assert rep.u**p <= 72.0 * rep.t**p * (1 + 1e-12)


def test_g_norm_in_cesaro_band():
    # Values stay in a fixed band over k: the dual functionals are
    # seminormalized in the prefix-average space.
    for pp in (1.5, 2.0, 4.0):
        prev = math.inf
        for k in (1, 2, 4, 10, 100, 1000):
            b = g_norm_in_cesaro(k, pp)
            assert b.width <= 1e-9 * b.mid
            assert 0.5 <= b.mid <= 2.0
            assert b.mid <= prev + 1e-9  # nonincreasing in k
            prev = b.mid
    with pytest.raises(DomainError):
        g_norm_in_cesaro(1, 1.0)


def test_g_norm_in_cesaro_frozen():
    # Independently computed: sqrt(zeta(2)) and 2 sqrt(zeta(2) - 49/36).
    assert g_norm_in_cesaro(1, 2.0).contains(1.2825498301618641)
    assert g_norm_in_cesaro(4, 2.0).contains(1.0655007381266617)
