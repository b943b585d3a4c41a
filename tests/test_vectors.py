"""Sparse vector containers and their JSON forms."""

import json

import numpy as np
import pytest

from seqspaces import CoeffVec, DomainError, ParseError, RunVec, add_coeffvecs, parse_vector_json


def test_coeffvec_basics():
    v = CoeffVec(np.array([2, 5, 9]), np.array([1.0, -2.0, 0.5]))
    assert len(v) == 3
    assert v.support_max == 9
    assert not v.is_zero()
    assert list(v) == [(2, 1.0), (5, -2.0), (9, 0.5)]
    assert v.abs().values.tolist() == [1.0, 2.0, 0.5]
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
    rv = RunVec.from_coeffvec(v)
    assert rv.starts.tolist() == [1, 10, 50]
    assert rv.lengths.tolist() == [3, 2, 1]
    assert rv.values.tolist() == [2.0, -1.0, 3.0]
    assert rv.support_size == 6 and rv.support_max == 50
    back = rv.to_coeffvec()
    assert back.indices.tolist() == v.indices.tolist()
    assert back.values.tolist() == v.values.tolist()


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
