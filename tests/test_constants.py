"""Equivalence constants: domination bounds, unconditionality, estimates."""

import math

import numpy as np
import pytest

from seqspaces import (
    CoeffVec,
    DomainError,
    Weight,
    blocksum_norm,
    estimate_equivalence,
    f_coeffs_to_raw,
    holder_domination,
    linf_equiv_bound,
    lorentz_norm,
    lp_norm,
    make_weight,
    norm,
    tandori_norm,
    unconditional_constant,
)

ZETA2 = 1.6449340668482264
ZETA3 = 1.2020569031595942


def test_holder_harmonic_12():
    rep = holder_domination(Weight.harmonic(), 1.0, 2.0, samples=500, seed=0)
    assert rep.passed and rep.failures == 0
    assert rep.exponent == 2.0  # q/(q-p)
    assert rep.series.contains(ZETA2)
    assert rep.C.contains(ZETA2**0.5)
    assert rep.C.width < 1e-9
    assert not rep.truncated
    d = rep.to_json_dict()
    assert d["p"] == 1.0 and d["q"] == 2.0 and d["samples"] == 500


def test_holder_harmonic_1_15():
    rep = holder_domination(Weight.harmonic(), 1.0, 1.5, samples=500, seed=0)
    assert rep.passed
    assert rep.exponent == 3.0
    assert rep.series.contains(ZETA3)
    assert rep.C.contains(ZETA3 ** (1.0 / 3.0))


def test_holder_inequality_by_hand():
    # Spot check the certified inequality on a fixed vector.
    rep = holder_domination(Weight.harmonic(), 1.0, 2.0, samples=0)
    v = CoeffVec.from_dense([1.0, -2.0, 0.5, 3.0])
    lhs = lorentz_norm(v, Weight.harmonic(), 1.0)
    assert lhs <= rep.C.hi * lp_norm(v, 2.0) * (1 + 1e-12)


def test_holder_explicit_weight_truncates():
    w = make_weight("explicit:[1, 0.5, 0.25]")
    rep = holder_domination(w, 1.0, 2.0, samples=200, seed=0)
    assert rep.truncated
    assert rep.series.lo == rep.series.hi == 1.3125  # 1 + 1/4 + 1/16
    assert rep.passed


def test_holder_divergent_weight_rejected():
    with pytest.raises(DomainError):
        holder_domination(Weight.power(0.5), 1.0, 2.0)  # w^r is not summable
    with pytest.raises(DomainError):
        holder_domination(Weight.harmonic(), 2.0, 2.0)  # needs p < q
    with pytest.raises(DomainError):
        holder_domination(Weight.harmonic(), 1.0, math.inf)


def test_unconditional_canonical_is_one():
    vecs = [CoeffVec.basis(k) for k in (1, 2, 3)]
    for space in ("lorentz:w=harmonic,p=1", "lp:p=2", "tandori:p=1"):
        assert unconditional_constant(vecs, space) == 1.0


def test_unconditional_sup_pair_is_three():
    # x1 = (1, 0), x2 = (1, 1) in the sup norm: flipping the second sign at
    # a = (-2, 1) triples the norm; the grid search finds the ratio 3.
    x1 = CoeffVec.from_dense([1.0, 0.0])
    x2 = CoeffVec.from_dense([1.0, 1.0])
    K = unconditional_constant([x1, x2], "lp:p=inf", grid_points=201, samples=200, seed=0)
    assert abs(K - 3.0) <= 1e-12
    base = lp_norm(CoeffVec.from_dense([-2.0 + 1.0, 1.0]), math.inf)
    flipped = lp_norm(CoeffVec.from_dense([-2.0 - 1.0, -1.0]), math.inf)
    assert flipped / base == 3.0  # the witness ratio, by hand


def test_unconditional_at_least_one():
    rng = np.random.default_rng(5)
    vecs = [
        CoeffVec(np.arange(1, 4), rng.uniform(-1, 1, 3)),
        CoeffVec(np.arange(1, 4), rng.uniform(-1, 1, 3)),
    ]
    K = unconditional_constant(vecs, "lorentz:w=harmonic,p=1", grid_points=41, samples=50)
    assert K >= 1.0
    with pytest.raises(DomainError):
        unconditional_constant([], "lp:p=2")
    with pytest.raises(DomainError):
        unconditional_constant([CoeffVec.from_dense([])], "lp:p=2")


def test_linf_equiv_frozen_pair():
    f2 = f_coeffs_to_raw(CoeffVec.basis(2), 1.0)
    f3 = f_coeffs_to_raw(CoeffVec.basis(3), 1.0)
    rep = linf_equiv_bound([f2, f3], "tandori:p=1", samples=200, seed=0, grid_points=41)
    assert rep.passed and rep.failures == 0
    assert rep.C == 1.0  # both vectors normalized
    assert rep.K == 1.0  # the norm is absolute
    assert rep.M == 4.0 / 3.0  # ||f_2 + f_3||
    assert rep.bound_real == 4.0 / 3.0
    assert rep.bound == 8.0 / 3.0
    d = rep.to_json_dict()
    assert d["bound"] == 8.0 / 3.0 and d["passed"] is True


def test_linf_equiv_rejects_degenerate():
    with pytest.raises(DomainError):
        linf_equiv_bound([], "lp:p=2")
    with pytest.raises(DomainError):
        linf_equiv_bound([CoeffVec.from_dense([])], "lp:p=2")


def test_estimate_frozen_18_11():
    # sup ||v||_1 / d(v) over support 1..3 is at the all-ones vector:
    # 3 / (1 + 1/2 + 1/3) = 18/11.
    for strategy in ("family", "grid"):
        rep = estimate_equivalence("lp:p=1", "lorentz:w=harmonic,p=1", 3, strategy=strategy)
        assert abs(rep.empirical_lower - 18.0 / 11.0) <= 1e-12
        assert rep.to_json_dict()["witness"] == [1.0, 1.0, 1.0]


def test_estimate_identity_and_termwise():
    rep = estimate_equivalence("lorentz:w=harmonic,p=1", "lp:p=1", 4)
    assert rep.certified_upper == 1.0
    assert rep.empirical_lower == 1.0
    assert rep.to_json_dict()["witness"] == [1.0]  # lexicographically smallest
    same = estimate_equivalence("lp:p=2", "lp:p=2", 5)
    assert same.certified_upper == 1.0 and same.empirical_lower == 1.0


def test_estimate_holder_certified():
    rep = estimate_equivalence("lorentz:w=harmonic,p=1", "lp:p=2", 4, strategy="grid")
    assert rep.certified_upper is not None
    assert rep.certified_upper >= rep.empirical_lower
    assert abs(rep.certified_upper - ZETA2**0.5) <= 1e-9
    # By Cauchy-Schwarz the optimum on 1..4 is the weight head itself, with
    # value ||(1, 1/2, 1/3, 1/4)||_2; the head is among the candidates.
    head = [1.0, 0.5, 1.0 / 3.0, 0.25]
    opt = math.sqrt(sum(x * x for x in head))
    assert abs(rep.empirical_lower - opt) <= 1e-12
    assert rep.to_json_dict()["witness"] == head


def test_estimate_garling_below_lorentz_certified():
    rep = estimate_equivalence(
        "garling:w=harmonic,p=1", "lorentz:w=harmonic,p=1", 5, strategy="family"
    )
    assert rep.certified_upper == 1.0
    assert abs(rep.empirical_lower - 1.0) <= 1e-12  # nonincreasing candidates reach it


def test_estimate_suffix_sup_band():
    fwd = estimate_equivalence(
        "tandori:p=1", "blocksum:lengths=dyadic,inner=inf,outer=1", 16, samples=50
    )
    assert fwd.certified_upper == 2.0
    assert 0.0 < fwd.empirical_lower <= 2.0 * (1 + 1e-12)
    rev = estimate_equivalence(
        "blocksum:lengths=dyadic,inner=inf,outer=1", "tandori:p=1", 16, samples=50
    )
    assert rev.certified_upper == 72.0
    assert rev.empirical_lower >= 1.0  # e_1 already achieves ratio 1
    # Witness ratio reproduces the reported value under the same pairing.
    wit = rev.witness
    u = blocksum_norm(wit, "dyadic", math.inf, 1.0)
    t = tandori_norm(f_coeffs_to_raw(wit, 1.0), 1.0)
    assert abs(u / t - rev.empirical_lower) <= 1e-10 * rev.empirical_lower


def test_estimate_witness_reproduces_value():
    # The prefix-average target is not rearrangement invariant, so the grid
    # is full rather than sorted; keep the dimension small.
    rep = estimate_equivalence("lp:p=1", "cesaro:p=2", 2, strategy="grid")
    wit = rep.witness
    ratio = norm(wit, "lp:p=1").mid / norm(wit, "cesaro:p=2").mid
    assert abs(ratio - rep.empirical_lower) <= 1e-9 * rep.empirical_lower


def test_estimate_deterministic():
    a = estimate_equivalence("lp:p=1", "lorentz:w=harmonic,p=1", 4,
                             strategy="coordinate-ascent", samples=40, seed=7)
    b = estimate_equivalence("lp:p=1", "lorentz:w=harmonic,p=1", 4,
                             strategy="coordinate-ascent", samples=40, seed=7)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.empirical_lower >= 18.0 / 11.0 - 1e-9  # ascent finds the optimum here


def test_estimate_validation():
    with pytest.raises(DomainError):
        estimate_equivalence("lp:p=1", "lp:p=2", 9, strategy="grid")  # grid needs n <= 4
    with pytest.raises(DomainError):
        estimate_equivalence("lp:p=1", "lp:p=2", 0)
    with pytest.raises(DomainError):
        estimate_equivalence("lp:p=1", "lp:p=2", 2049)  # candidate lists grow as n^2
    with pytest.raises(DomainError):
        estimate_equivalence("lp:p=1", "lp:p=2", 3, strategy="annealing")
