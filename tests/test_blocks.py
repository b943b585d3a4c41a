"""Block systems: minimal sizes, expansion, projection, direct sums."""

import json
import math

import numpy as np
import pytest

from seqspaces import (
    BlockSystem,
    CoeffVec,
    DomainError,
    ParseError,
    RunVec,
    ScanCapExceeded,
    Weight,
    averaging_projection,
    expand,
    fdd_block_check,
    find_block_sizes,
    garling_norm,
    lorentz_norm,
    lorentz_norm_runs,
    make_weight,
    wp_equivalence_ratios,
    wp_norm,
)
from seqspaces.sampling import random_coeffvec, rng_for

H = Weight.harmonic()


def small_system():
    return find_block_sizes(Weight.harmonic(), 1.0, 1.5, 5)


def test_block_sizes_frozen():
    bs = small_system()
    assert [l.M for l in bs.levels] == [1, 1, 4, 8, 13]
    assert [l.start for l in bs.levels] == [1, 2, 4, 16, 48]
    assert bs.span == 112
    # Tighter target: the second level needs 572 ones per block.
    bs2 = find_block_sizes(Weight.harmonic(), 1.0, 1.1, 2)
    assert bs2.levels[1].M == 572


def test_certificates_and_minimality():
    bs = small_system()
    w = bs.weight
    for lvl in bs.levels:
        cert = bs.certificate(lvl.k)
        assert cert <= bs.K
        if lvl.M > 1:
            prev = w.prefix_sum(lvl.k * (lvl.M - 1)) / w.prefix_sum(lvl.M - 1)
            assert prev > bs.K  # p = 1, so the ratio compares directly


def test_normalizers():
    bs = small_system()
    w = bs.weight
    for lvl in bs.levels:
        assert lvl.c == w.prefix_sum(lvl.M) ** (1.0 / bs.p)
        # The unnormalized all-ones block has the same norm under both the
        # rearranged and the subsequence weighted norms (it is constant).
        block = CoeffVec(np.arange(lvl.start, lvl.start + lvl.M), np.ones(lvl.M))
        assert abs(garling_norm(block, w, bs.p) - lvl.c) <= 1e-12 * lvl.c
        assert abs(lorentz_norm(block, w, bs.p) - lvl.c) <= 1e-12 * lvl.c


def test_certificate_equals_expanded_norm():
    bs = small_system()
    for lvl in bs.levels:
        rows = [[0.0]] * (lvl.k - 1) + [[1.0] * lvl.k]
        ln = lorentz_norm_runs(expand(bs, rows), bs.weight, bs.p)
        cert = bs.certificate(lvl.k)
        assert abs(ln - cert) <= 1e-12 * cert


def test_expand_layout():
    bs = small_system()
    rv = expand(bs, [[1.0], [0.0, 2.0]])
    # Level 1: one size-1 block at 1, c = 1.  Level 2: second size-1 block
    # at index 3, c = S(1) = 1.
    assert rv.starts.tolist() == [1, 3]
    assert rv.lengths.tolist() == [1, 1]
    assert rv.values.tolist() == [1.0, 2.0]
    rv3 = expand(bs, [[], [], [0.0, 1.0]])
    lvl = bs.levels[2]
    assert rv3.starts.tolist() == [lvl.start + lvl.M]
    assert rv3.lengths.tolist() == [lvl.M]
    assert rv3.values.tolist() == [1.0 / lvl.c]


def test_expand_validation():
    bs = small_system()
    with pytest.raises(DomainError):
        expand(bs, [[1.0]] * 6)  # more rows than levels
    with pytest.raises(DomainError):
        expand(bs, [[1.0, 1.0]])  # level 1 takes one coefficient
    with pytest.raises(DomainError):
        expand(bs, [[math.nan]])


def test_wp_norm():
    assert wp_norm([[1.0], [0.0, 2.0]], 1.0) == 3.0
    assert wp_norm([[3.0], [4.0]], 2.0) == 5.0
    assert wp_norm([[], [0.0]], 1.0) == 0.0
    with pytest.raises(DomainError):
        wp_norm([[1.0]], math.inf)


def test_wp_equivalence_small_system():
    bs = small_system()
    rep = wp_equivalence_ratios(bs, "lorentz", samples=300, seed=0)
    assert rep.passed
    assert rep.max_ratio <= bs.K * (1 + 1e-12)
    assert 0.0 < rep.min_ratio <= rep.max_ratio
    # All-ones at the worst level achieves the certificate.
    assert abs(rep.max_ratio - max(bs.certificate(k) for k in range(1, 6))) <= 1e-12
    rep_g = wp_equivalence_ratios(bs, "garling", samples=60, seed=0)
    assert rep_g.passed
    again = wp_equivalence_ratios(bs, "lorentz", samples=300, seed=0)
    assert again.to_json_dict() == rep.to_json_dict()
    with pytest.raises(DomainError):
        wp_equivalence_ratios(bs, "cesaro")


def test_scan_cap_structured():
    # This weight never flattens to within 5 percent, so level 2 exhausts
    # any cap; the error reports the level, the cap, and the best ratio.
    with pytest.raises(ScanCapExceeded) as ei:
        find_block_sizes(Weight.power(0.5), 1.0, 1.05, 3, scan_cap=100000)
    e = ei.value
    assert e.level == 2
    assert e.cap == 100000
    assert e.best_ratio > 1.05
    assert "level 2" in str(e)


def test_system_json_roundtrip():
    bs = small_system()
    rt = BlockSystem.from_json(bs.to_json())
    assert rt.to_json() == bs.to_json()
    assert rt.weight.spec == "harmonic"
    obj = bs.to_json_dict()
    obj["levels"][2]["start"] = 99  # break the consecutive layout
    with pytest.raises(ParseError):
        BlockSystem.from_json_dict(obj)
    with pytest.raises(ParseError):
        BlockSystem.from_json("{not json")
    with pytest.raises(ParseError):
        BlockSystem.from_json(json.dumps({"weight": "harmonic"}))


def test_system_json_integers_are_not_truncated():
    bs = small_system()
    cases = [(0, "k", 1.5), (0, "k", True), (3, "M", 8.5), (1, "start", True), (2, "M", "4"),
             (None, "scan_cap", 10**7 + 0.5), (None, "scan_cap", True)]
    for where, key, bad in cases:
        obj = bs.to_json_dict()
        (obj if where is None else obj["levels"][where])[key] = bad
        with pytest.raises(ParseError, match="must be an integer"):
            BlockSystem.from_json_dict(obj)


def test_system_json_reals_are_finite_numbers():
    bs = small_system()
    cases = [(None, "p", True), (None, "K", "1.5"), (0, "c", True), (2, "c", "0.5"),
             (None, "K", None), (None, "p", float("nan")), (1, "c", float("inf"))]
    for where, key, bad in cases:
        obj = bs.to_json_dict()
        (obj if where is None else obj["levels"][where])[key] = bad
        with pytest.raises(ParseError, match="must be a finite number"):
            BlockSystem.from_json_dict(obj)
    for cap in (0, -5):
        obj = bs.to_json_dict()
        obj["scan_cap"] = cap
        with pytest.raises(ParseError, match="'scan_cap' must be at least 1"):
            BlockSystem.from_json_dict(obj)
    obj = bs.to_json_dict()
    obj["K"] = 2  # an integer is a number
    assert BlockSystem.from_json_dict(obj).K == 2.0


def test_projection_identity_on_range():
    bs = small_system()
    rng = rng_for(31, 0)
    rows = [[float(x) for x in rng.uniform(-1.0, 1.0, size=k)] for k in (1, 2, 3, 4, 5)]
    x = expand(bs, rows)
    px = averaging_projection(bs, x)
    assert px.starts.tolist() == x.starts.tolist()
    assert px.lengths.tolist() == x.lengths.tolist()
    assert px.values.tolist() == x.values.tolist()  # exact pass-through


def test_projection_idempotent_and_annihilating():
    bs = small_system()
    for j in range(80):
        x = random_coeffvec(rng_for(32, j), max_support=30, max_index=130)
        px = averaging_projection(bs, x)
        ppx = averaging_projection(bs, px)
        assert px.starts.tolist() == ppx.starts.tolist()
        assert px.values.tolist() == ppx.values.tolist()
    off = CoeffVec.basis(bs.span + 5)
    assert averaging_projection(bs, off).is_zero()


def test_projection_block_average():
    bs = small_system()
    lvl = bs.levels[2]  # four-wide blocks
    lo, hi = lvl.block_range(1)
    x = CoeffVec(np.array([lo, lo + 1]), np.array([1.0, 3.0]))
    px = averaging_projection(bs, x)
    assert px.starts.tolist() == [lo]
    assert px.lengths.tolist() == [lvl.M]
    assert px.values.tolist() == [1.0]  # (1 + 3 + 0 + 0) / 4


def test_projection_contracts_lorentz():
    bs = small_system()
    for j in range(300):
        x = random_coeffvec(rng_for(33, j), max_support=40, max_index=130)
        px = averaging_projection(bs, x)
        nx = lorentz_norm(x, H, 1.0)
        npx = lorentz_norm_runs(px, H, 1.0)
        assert npx <= nx * (1.0 + 1e-9)
        if not px.is_zero():
            g = garling_norm(px.to_coeffvec(), H, 1.0)
            assert g <= 2.0 * garling_norm(x, H, 1.0) * (1.0 + 1e-9)


def test_fdd_frozen_sqrt5():
    comps = [("lp:p=1", 2), ("lp:p=1", 3)]
    z1 = CoeffVec(np.array([1]), np.array([1.0]))
    z2 = CoeffVec(np.array([3, 4]), np.array([1.0, 1.0]))
    lhs, rhs = fdd_block_check([z1, z2], comps, 2.0, [1.0, 1.0])
    assert abs(lhs - math.sqrt(5.0)) <= 1e-15
    assert abs(rhs - math.sqrt(5.0)) <= 1e-15


def test_fdd_random_agreement():
    comps = [("lorentz:w=harmonic,p=1", 3), ("lp:p=2", 2), ("tandori:p=1", 4)]
    for j in range(60):
        rng = rng_for(34, j)
        z1 = CoeffVec(np.array([1, 3]), rng.uniform(-1, 1, 2))
        z2 = CoeffVec(np.array([4, 5]), rng.uniform(-1, 1, 2))
        z3 = CoeffVec(np.array([6, 9]), rng.uniform(-1, 1, 2))
        c = [float(x) for x in rng.uniform(-2, 2, 3)]
        p = (1.0, 2.0, 3.0)[j % 3]
        lhs, rhs = fdd_block_check([z1, z2, z3], comps, p, c)
        assert abs(lhs - rhs) <= 1e-12 * max(lhs, rhs, 1e-300)


def test_fdd_overlap_rejected():
    comps = [("lp:p=1", 2), ("lp:p=1", 2)]
    z1 = CoeffVec(np.array([1, 3]), np.array([1.0, 1.0]))  # touches both
    z2 = CoeffVec(np.array([4]), np.array([1.0]))
    with pytest.raises(DomainError):
        fdd_block_check([z1, z2], comps, 2.0, [1.0, 1.0])
    with pytest.raises(DomainError):
        fdd_block_check([CoeffVec.basis(5)], comps, 2.0, [1.0])  # past the sum
    with pytest.raises(DomainError):
        fdd_block_check([z2], comps, math.inf, [1.0])


def test_find_block_sizes_validation():
    with pytest.raises(DomainError):
        find_block_sizes(H, 1.0, 1.0, 2)  # K must exceed 1
    with pytest.raises(DomainError):
        find_block_sizes(H, math.inf, 1.5, 2)
    with pytest.raises(DomainError):
        find_block_sizes(H, 1.0, 1.5, 0)
