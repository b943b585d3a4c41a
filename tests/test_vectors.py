"""Sparse vector containers and their JSON forms."""

import json
import sys

import numpy as np
import pytest

from seqspaces import (
    CoeffVec,
    DomainError,
    ParseError,
    BlockSystem,
    RunVec,
    Weight,
    add_coeffvecs,
    averaging_projection,
    embed_tandori_lpc0,
    estimate_equivalence,
    expand,
    f_coeffs_to_raw,
    fdd_block_check,
    find_block_sizes,
    parse_vector_json,
)
from seqspaces.blocks import Level
from seqspaces.sampling import random_coeffvec, random_nonincreasing, rng_for
from seqspaces.vectors import json_real


def test_coeffvec_basics():
    v = CoeffVec(np.array([2, 5, 9]), np.array([1.0, -2.0, 0.5]))
    assert len(v) == 3
    assert v.support_max == 9
    assert not v.is_zero()
    assert list(v) == [(2, 1.0), (5, -2.0), (9, 0.5)]
    assert v.scale(2.0).values.tolist() == [2.0, -4.0, 1.0]
    assert v.dense().tolist() == [0.0, 1.0, 0.0, 0.0, -2.0, 0.0, 0.0, 0.0, 0.5]


def test_coeffvec_drops_zeros():
    v = CoeffVec.from_dense([0.0, 3.0, 0.0, 1.0])
    assert v.indices.tolist() == [2, 4]
    z = CoeffVec.from_dense([0.0, 0.0])
    assert z.is_zero() and len(z) == 0 and z.support_max == 0


def test_coeffvec_validation():
    with pytest.raises(DomainError):
        CoeffVec(np.array([3, 2]), np.array([1.0, 1.0]))  # not increasing
    with pytest.raises(DomainError):
        CoeffVec(np.array([0]), np.array([1.0]))  # indices start at 1
    with pytest.raises(DomainError):
        CoeffVec(np.array([1, 1]), np.array([1.0, 1.0]))  # duplicate
    with pytest.raises(DomainError):
        CoeffVec(np.array([1]), np.array([np.nan]))
    with pytest.raises(DomainError):
        CoeffVec(np.array([1, 2]), np.array([1.0]))  # length mismatch


def test_from_pairs():
    v = CoeffVec.from_pairs([(5, 1.0), (2, 3.0)])
    assert v.indices.tolist() == [2, 5]
    with pytest.raises(DomainError):
        CoeffVec.from_pairs([(2, 1.0), (2, 3.0)])


def test_from_pairs_rejects_booleans_and_out_of_range_indices():
    assert CoeffVec.from_pairs([(3.0, 1.0)]).indices.tolist() == [3]
    assert CoeffVec.from_pairs([(2**63 - 1, 1.0)]).support_max == 2**63 - 1
    for i in (True, np.bool_(True), 1e23, 2**63, -(2**63) - 1, float("inf"), float("nan")):
        with pytest.raises(DomainError):
            CoeffVec.from_pairs([(i, 1.0)])
    with pytest.raises(ParseError):
        parse_vector_json('{"indices": [true], "values": [2]}')
    with pytest.raises(ParseError):
        parse_vector_json('{"indices": [1e23], "values": [2]}')


def test_basis():
    e3 = CoeffVec.basis(3)
    assert e3.indices.tolist() == [3] and e3.values.tolist() == [1.0]
    assert CoeffVec.basis(2, -0.5).values.tolist() == [-0.5]
    with pytest.raises(DomainError):
        CoeffVec.basis(0)


def test_json_roundtrip():
    small = CoeffVec.from_dense([1.0, 0.0, -2.5])
    obj = small.to_json_obj()
    assert obj == [1.0, 0.0, -2.5]  # dense form for small support
    assert parse_vector_json(json.dumps(obj)).values.tolist() == [1.0, -2.5]
    big = CoeffVec(np.array([1, 1000]), np.array([1.0, 2.0]))
    obj = big.to_json_obj()
    assert set(obj) == {"indices", "values"}
    rt = parse_vector_json(json.dumps(obj))
    assert rt.indices.tolist() == [1, 1000] and rt.values.tolist() == [1.0, 2.0]


def test_parse_vector_errors():
    for bad in ("{", "[1, \"x\"]", '{"indices": [1]}', '{"indices": [1, 0], "values": [1, 2]}',
                '{"indices": [1], "values": [1, 2]}', "3.5", '{"values": [1]}',
                "[" * 100_000):  # nesting too deep for the decoder
        with pytest.raises(ParseError):
            parse_vector_json(bad)


def test_add_coeffvecs():
    u = CoeffVec.from_dense([1.0, 2.0])
    v = CoeffVec.from_pairs([(2, -2.0), (4, 1.0)])
    s = add_coeffvecs([(1.0, u), (1.0, v)])
    assert s.indices.tolist() == [1, 4]  # index 2 cancels
    assert s.values.tolist() == [1.0, 1.0]
    s2 = add_coeffvecs([(2.0, u), (0.0, v)])
    assert s2.values.tolist() == [2.0, 4.0]
    assert add_coeffvecs([]).is_zero()


def test_runvec_roundtrip():
    v = CoeffVec(np.array([1, 2, 3, 10, 11, 50]), np.array([2.0, 2.0, 2.0, -1.0, -1.0, 3.0]))
    rv = RunVec(np.array([1, 10, 50]), np.array([3, 2, 1]), np.array([2.0, -1.0, 3.0]))
    assert rv.support_size == 6 and rv.support_max == 50
    back = rv.to_coeffvec()
    assert back.indices.tolist() == v.indices.tolist()
    assert back.values.tolist() == v.values.tolist()


def test_runvec_to_coeffvec_matches_per_run_expansion():
    rng = np.random.default_rng(5)
    for case in range(300):
        r = case % 25  # case 0 is the zero vector
        lengths = rng.integers(1, 40, size=r)
        starts = 1 + np.cumsum(rng.integers(0, 30, size=r)) + np.cumsum(lengths) - lengths
        values = rng.choice([-1.0, 1.0], size=r) * rng.uniform(0.5, 2.0, size=r)
        idx, val = [], []
        for s, ln, x in zip(starts.tolist(), lengths.tolist(), values.tolist()):
            idx += range(s, s + ln)
            val += [x] * ln
        got = RunVec(starts, lengths, values).to_coeffvec()
        assert got.indices.dtype == np.int64 and got.values.dtype == np.float64
        assert got.indices.tolist() == idx and got.values.tolist() == val


def test_runvec_validation():
    with pytest.raises(DomainError):
        RunVec(np.array([1, 2]), np.array([3, 1]), np.array([1.0, 1.0]))  # overlap
    with pytest.raises(DomainError):
        RunVec(np.array([5, 1]), np.array([1, 1]), np.array([1.0, 1.0]))  # unsorted
    with pytest.raises(DomainError):
        RunVec(np.array([1]), np.array([0]), np.array([1.0]))  # empty run


def test_runvec_densify_cap():
    rv = RunVec(np.array([1]), np.array([1 << 30]), np.array([1.0]))
    with pytest.raises(DomainError):
        rv.to_coeffvec()
    assert rv.support_size == 1 << 30  # metadata still fine


def test_coeffvec_validation_messages():
    cases = [
        (np.array([3, 2]), np.array([1.0, 1.0]), "strictly increasing"),
        (np.array([0, 2]), np.array([1.0, 1.0]), ">= 1"),
        (np.array([1, 2]), np.array([1.0, np.inf]), "finite"),
        (np.array([[1]]), np.array([[1.0]]), "1-d arrays"),
    ]
    for idx, val, text in cases:
        with pytest.raises(DomainError, match=text):
            CoeffVec(idx, val)
    v = CoeffVec(np.array([1, 4, 9]), np.array([0.0, -2.0, 0.0]))
    assert v.indices.tolist() == [4] and v.values.tolist() == [-2.0]
    assert v.indices.dtype == np.int64 and v.values.dtype == np.float64


def test_trusted_sites_match_validated_construction(monkeypatch):
    # Every place that builds a vector without validation must hand over
    # arrays the validating constructor would keep exactly as they are.
    trusted = CoeffVec._trusted.__func__
    sites = set()

    def checked(cls, indices, values):
        v = trusted(cls, indices, values)
        ref = CoeffVec(indices, values)
        assert v.indices.dtype == np.int64 and v.values.dtype == np.float64
        assert v.indices.tolist() == ref.indices.tolist()
        assert v.values.tolist() == ref.values.tolist()
        sites.add(sys._getframe(1).f_code.co_name)
        return v

    monkeypatch.setattr(CoeffVec, "_trusted", classmethod(checked))
    for case in range(40):
        rng = rng_for(17, case)
        a = random_coeffvec(rng, max_support=12, max_index=40)
        b = random_coeffvec(rng, max_support=12, max_index=40)
        random_nonincreasing(rng, 1 + case % 7)
        add_coeffvecs([(1.0, a), (-1.0, a), (0.5, b), (0.0, b)])  # cancels a exactly
        tiny = CoeffVec(a.indices, np.ldexp(np.sign(a.values), -1074))
        f_coeffs_to_raw(tiny, 1.5)  # scales below 1/2 (index 3 on) underflow to zero
        embed_tandori_lpc0(a, 2.0).rows_list()
        RunVec(4 * b.indices, 1 + b.indices % 4, b.values).to_coeffvec()
        fdd_block_check([a, CoeffVec(b.indices + 40, b.values)], [("lp:p=2", 40), ("lp:p=1", 40)],
                        2.0, [1.0, -2.0])
    estimate_equivalence("lp:p=1", "lorentz:w=harmonic,p=1", 3, strategy="coordinate-ascent",
                         samples=20)
    assert sites == {
        "random_coeffvec", "random_nonincreasing", "add_coeffvecs", "f_coeffs_to_raw",
        "rows_list", "to_coeffvec", "sum_norm_p", "_row_vec",
    }


def test_runvec_trusted_sites_match_validated_construction(monkeypatch):
    # The same audit for run vectors: every run vector the package lays out
    # without validation must be the one the validating constructor keeps.
    trusted = RunVec._trusted.__func__
    sites = set()

    def checked(cls, starts, lengths, values):
        v = trusted(cls, starts, lengths, values)
        ref = RunVec(starts, lengths, values)
        assert v.starts.dtype == v.lengths.dtype == np.int64 and v.values.dtype == np.float64
        for got, want in ((v.starts, ref.starts), (v.lengths, ref.lengths), (v.values, ref.values)):
            assert got.tolist() == want.tolist()
        sites.add(sys._getframe(1).f_code.co_name)
        return v

    monkeypatch.setattr(RunVec, "_trusted", classmethod(checked))
    bs = find_block_sizes(Weight.harmonic(), 1.0, 1.5, 4)
    # Normalizers of 1e300: a coefficient below about 1e-24 underflows to a zero run value.
    huge_c = BlockSystem(bs.weight, bs.p, bs.K,
                         tuple(Level(l.k, l.M, l.start, 1e300) for l in bs.levels))
    for case in range(40):
        rng = rng_for(19, case)
        rows = [rng.uniform(-1.0, 1.0, size=k) * (rng.random(k) < 0.7) for k in range(1, 5)]
        x = expand(bs, rows)
        averaging_projection(bs, x)
        expand(huge_c, [r * 10.0 ** rng.integers(-40, 0, size=r.size) for r in rows])
        a = random_coeffvec(rng, max_support=12, max_index=bs.span + 10)
        averaging_projection(bs, averaging_projection(bs, a))
    assert sites == {"expand", "averaging_projection"}


def test_add_coeffvecs_drops_cancellation_and_checks_overflow():
    a = CoeffVec.from_pairs([(1, 1.0), (2, 3.0)])
    b = CoeffVec.from_pairs([(2, -3.0), (5, 1.0)])
    v = add_coeffvecs([(1.0, a), (1.0, b)])
    assert v.indices.tolist() == [1, 5] and v.values.tolist() == [1.0, 1.0]
    assert add_coeffvecs([(1.0, a), (-1.0, a)]).is_zero()
    with pytest.raises(DomainError, match="finite"), np.errstate(over="ignore"):
        add_coeffvecs([(1e308, CoeffVec.basis(1, 10.0))])


def test_json_real():
    assert json_real(1, "x") == 1.0 and json_real(-2.5, "x") == -2.5
    assert json_real(np.float64(0.25), "x") == 0.25
    for bad in (True, False, "1.5", None, [1.0], float("inf"), float("nan"), 10**400):
        with pytest.raises(ParseError, match="x must be a finite number"):
            json_real(bad, "x")
