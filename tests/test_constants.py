"""Equivalence constants: domination bounds, unconditionality, estimates."""

import hashlib
import json
import math
import os
import subprocess
import sys

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
    tandori_vp_check,
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
    assert K == 3.0000000000000004  # frozen before the sign sweep was halved
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
    rep = linf_equiv_bound([f2, f3], "tandori:p=1", samples=200, seed=0)
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


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_estimate_vp_witness_matches_tandori_vp_check(p):
    # The suffix-sup vs dyadic-block pair is searched on coefficient vectors;
    # on every witness the reported ratio is tandori_vp_check's t/u (or u/t)
    # to the bit, whichever strategy found it.
    tand = f"tandori:p={p:g}"
    blk = f"blocksum:lengths=dyadic,inner=inf,outer={p:g}"
    settings = [(2, "grid", 200, 0), (3, "grid", 200, 0), (6, "coordinate-ascent", 30, 1),
                (64, "family", 200, 0)]
    for n, strategy, samples, seed in settings:
        for src, dst in ((tand, blk), (blk, tand)):
            rep = estimate_equivalence(src, dst, n, strategy=strategy, samples=samples, seed=seed)
            vp = tandori_vp_check(rep.witness, p)
            want = vp.t / vp.u if src == tand else vp.u / vp.t
            assert rep.empirical_lower == want, (src, dst, n, strategy)


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
    with pytest.raises(DomainError, match="nonnegative"):
        estimate_equivalence("lp:p=1", "lp:p=2", 3, samples=-1)


# Reports of estimate_equivalence frozen before the search was batched: the
# candidates were then a sorted list evaluated one vector at a time.  Each
# row is (from, to, n, strategy, samples, seed), empirical_lower,
# certified_upper, provenance, and the witness as JSON (or, beyond 64
# entries, the first 16 hex digits of the SHA-256 of that JSON).
_PROVENANCE = {
    "holder": "Hölder bound (sum w^2)^(1/(2*1))",
    "band72": "dyadic sup blocks vs suffix-sup norm of the expanded coefficients: 72^{1/p}",
    "garling": "increasing-subsequence sums never beat the sorted pairing",
    "band2": "suffix-sup norm of the expanded coefficients vs dyadic sup blocks: 2^{1/p}",
}
_DYAD1 = "blocksum:lengths=dyadic,inner=inf,outer=1"
_DYAD2 = "blocksum:lengths=dyadic,inner=inf,outer=2"
_FROZEN_EQUIV = [
    (("lp:p=1", "lorentz:w=harmonic,p=1", 3, "family", 200, 0),
     1.6363636363636365, None, None, [1.0, 1.0, 1.0]),
    (("lp:p=1", "lorentz:w=harmonic,p=1", 3, "grid", 200, 0),
     1.6363636363636365, None, None, [1.0, 1.0, 1.0]),
    (("lp:p=1", "lorentz:w=harmonic,p=1", 3, "coordinate-ascent", 200, 0),
     1.6363636363636365, None, None, [1.0, 1.0, 1.0]),
    (("lorentz:w=harmonic,p=1", "lp:p=2", 3, "grid", 200, 0),
     1.1666666666666667, 1.2825498301656433, "holder", [1.0, 0.5, 0.3333333333333333]),
    (("lorentz:w=harmonic,p=1", "lp:p=2", 4, "grid", 200, 0),
     1.1931517552730293, 1.2825498301656433, "holder", [1.0, 0.5, 0.3333333333333333, 0.25]),
    (("tandori:p=1", _DYAD1, 2, "grid", 200, 0), 1.0, 2.0, "band2", [0.0, 1.0]),
    ((_DYAD1, "tandori:p=1", 2, "grid", 200, 0), 1.5, 72.0, "band72", [0.5, 1.0]),
    (("tandori:p=2", _DYAD2, 3, "coordinate-ascent", 50, 1),
     1.1474789164699823, 1.4142135623730951, "band2", [0.0, 1.0, 0.9747428333819]),
    ((_DYAD2, "tandori:p=2", 16, "family", 50, 0),
     1.4523687548277813, 8.48528137423857, "band72", [(i + 1) / 16 for i in range(16)]),
    (("lorentz:w=harmonic,p=1", "garling:w=harmonic,p=1", 6, "coordinate-ascent", 60, 301),
     1.5172659440852039, None, None,
     [0.3645797334879843, 0.4100535170895572, 0.3755746293008397, 0.44871477501022944, 0.0, 1.0]),
    (("lp:p=1", "cesaro:p=2", 2, "grid", 200, 0), 1.2452092582467078, None, None, [0.0, 1.0]),
    (("cesaro:p=2", "lp:p=2", 3, "coordinate-ascent", 30, 2),
     1.4571220032398542, None, None, [1.0, 0.5, 0.3333333333333333]),
    (("garling:w=harmonic,p=2", "lorentz:w=harmonic,p=2", 3, "grid", 200, 0),
     1.0000000000000002, 1.0, "garling", [1.0, 0.06, 0.06]),
    (("garling:w=power:a=0.5,p=1.5", "lp:p=1.5", 40, "coordinate-ascent", 20, 3),
     1.0, None, None, [0.0] * 39 + [1.0]),
    (("blocksum:lengths=triangular,inner=2,outer=1", "lp:p=inf", 3, "grid", 200, 0),
     2.414213562373095, None, None, [1.0, 1.0, 1.0]),
    (("epw:n=8,p=1,w=0.5", "lp:p=2", 3, "grid", 200, 0),
     1.7320508075688774, None, None, [1.0, 1.0, 1.0]),
    (("lp:p=inf", "tandori:p=3", 7, "coordinate-ascent", 40, 5), 1.0, None, None, [1.0]),
    (("lp:p=1", "lorentz:w=harmonic,p=1", 2048, "family", 200, 0),
     249.6927982497453, None, None, "cb66bbc4af99b6da"),
    (("tandori:p=1.5", "lp:p=1.5", 2048, "family", 200, 0),
     161.2698943865437, None, None, "0415db58b1c387df"),
    (("tandori:p=2", _DYAD2, 2048, "family", 200, 0),
     1.0000000000000002, 1.4142135623730951, "band2", "582fbfbfd56e5b16"),
]


@pytest.mark.parametrize("case", _FROZEN_EQUIV, ids=lambda c: "-".join(map(str, c[0][:4])))
def test_estimate_reports_frozen(case):
    (src, dst, n, strategy, samples, seed), lower, upper, prov, witness = case
    rep = estimate_equivalence(src, dst, n, strategy=strategy, samples=samples, seed=seed)
    got = rep.to_json_dict()
    if isinstance(witness, str):
        got["witness"] = hashlib.sha256(json.dumps(got["witness"]).encode()).hexdigest()[:16]
    assert got == {
        "from": src, "to": dst, "dim": n, "certified_upper": upper,
        "provenance": _PROVENANCE.get(prov), "empirical_lower": lower, "witness": witness,
        "method": strategy, "samples": samples, "seed": seed,
    }


def test_estimate_non_ri_grid_in_bounded_memory():
    # The full 51^4 grid of a pair that is not rearrangement invariant.  The
    # report was frozen from the one-vector-at-a-time evaluation, streamed;
    # holding its 6.8M candidates in a list and a set took 1.7 GB.  The child
    # runs under a 1 GB address-space limit (set in the child only) and
    # reports its peak resident size.
    import resource

    limit = 1 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    code = (
        "import json, resource\n"
        "from seqspaces import estimate_equivalence\n"
        "rep = estimate_equivalence('epw:n=8,p=1,w=0.5', 'lp:p=2', 4, strategy='grid')\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(json.dumps({'report': rep.to_json_dict(), 'peak_kb': peak}))\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300, preexec_fn=cap_address_space, env=env)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["report"] == {
        "from": "epw:n=8,p=1,w=0.5", "to": "lp:p=2", "dim": 4, "certified_upper": None,
        "provenance": None, "empirical_lower": 2.0, "witness": [1.0, 1.0, 1.0, 1.0],
        "method": "grid", "samples": 200, "seed": 0,
    }
    assert out["peak_kb"] < 200 * 1024


# unconditional_constant values frozen before the sign sweep was halved.
def _mixed3():
    return [
        CoeffVec.from_pairs([(1, 1.0), (3, 0.5)]),
        CoeffVec.from_pairs([(2, 1.0), (3, -0.5)]),
        CoeffVec.from_pairs([(1, 0.25), (4, 1.0)]),
    ]


def test_unconditional_constants_frozen():
    rng = np.random.default_rng(5)
    pair = [CoeffVec(np.arange(1, 4), rng.uniform(-1, 1, 3)) for _ in range(2)]
    assert unconditional_constant(pair, "lorentz:w=harmonic,p=1", grid_points=41,
                                  samples=50) == 5.335015921375063
    assert unconditional_constant(_mixed3(), "lorentz:w=harmonic,p=1", grid_points=41,
                                  samples=50) == 1.4188679452367094
    assert unconditional_constant(_mixed3(), "garling:w=harmonic,p=2", grid_points=41,
                                  samples=30, seed=4) == 1.3989180201133442
    tandori_pair = [CoeffVec.from_dense([1.0, 0.5, 0.0, 0.2]), CoeffVec.from_dense([0.0, 1.0, -0.7])]
    assert unconditional_constant(tandori_pair, "tandori:p=1.5", grid_points=31, samples=20,
                                  seed=1) == 1.632822224852305
    basis = [CoeffVec.basis(k) for k in (1, 3, 4)]
    assert unconditional_constant(basis, "cesaro:p=2", grid_points=11, samples=5, seed=2) == 1.0
    rep = linf_equiv_bound(_mixed3(), "lorentz:w=harmonic,p=1", samples=50, seed=3, k_samples=16)
    assert rep.K == 1.4188795766878972
