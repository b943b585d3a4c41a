"""Weight families: values, closed-form prefix sums, condition profiles."""

import math
import threading

import mpmath
import numpy as np
import pytest

from seqspaces import (
    DomainError,
    ParseError,
    Weight,
    check_2sb,
    check_nuc,
    check_summable,
    make_weight,
)
from seqspaces.weights import _BATCH, _N0

mpmath.mp.dps = 40


def _compensated(terms):
    """Running sums by the compensated (Kahan) recurrence, term by term."""
    out, s, c = [], 0.0, 0.0
    for x in terms:
        y = x - c
        t = s + y
        c = (t - s) - y
        s = t
        out.append(s)
    return out


def _power_sum(s, n):
    """sum_{i <= n} i**(-s) at 40 digits, s taken exactly as the float given."""
    if s == 1.0:
        return mpmath.harmonic(n)
    return mpmath.zeta(s) - mpmath.zeta(s, n + 1)


def _ulps(got, ref):
    return float(abs(mpmath.mpf(float(got)) - ref)) / math.ulp(float(ref))


def test_values_basic():
    w = Weight.harmonic()
    assert np.allclose(w.values(1, 5), [1.0, 0.5, 1.0 / 3.0, 0.25], rtol=0, atol=0)
    wp = Weight.power(0.5)
    assert wp.values(4, 5)[0] == 0.5
    we = make_weight("explicit:[1, 0.5, 0.5]")
    assert we.values(1, 4).tolist() == [1.0, 0.5, 0.5]
    with pytest.raises(DomainError):
        we.values(1, 5)  # past the explicit end


def test_prefix_sum_small_exact():
    w = Weight.harmonic()
    assert abs(w.prefix_sum(4) - 25.0 / 12.0) <= 1e-15
    assert w.prefix_sum(1) == 1.0
    assert w.prefix_sum(0) == 0.0


def test_prefix_sum_vs_high_precision():
    w = Weight.harmonic()
    for n in (1, 10, 1000, 65536):
        ref = float(mpmath.harmonic(n))
        assert abs(w.prefix_sum(n) - ref) <= 1e-14 * ref
    wp = Weight.power(0.5)
    ref = float(mpmath.nsum(lambda i: mpmath.mpf(i) ** mpmath.mpf("-0.5"), [1, 2000]))
    assert abs(wp.prefix_sum(2000) - ref) <= 1e-13 * ref
    # Closed form: within 8 ulp across the end of the tabled head and up to 1e9.
    ns = [_N0 - 1, _N0, _N0 + 1, 1000, 123457, 10**6 + 1, 2**24 + 3, 10**8, 987654321, 10**9]
    for w in (Weight.harmonic(), *(Weight.power(a) for a in (0.25, 0.5, 0.9, 0.95, 1.0))):
        s = 1.0 if w.kind == "harmonic" else w.a
        for n, got in zip(ns, w.prefix_sums(ns)):
            assert _ulps(got, _power_sum(s, n)) <= 8.0, (w, n)


def test_head_and_explicit_sums_are_the_compensated_recurrence():
    w = Weight.harmonic()
    assert w.prefix_sum(1) == 1.0 and w.prefix_sum(2) == 1.5
    for w in (Weight.harmonic(), Weight.power(0.5), Weight.power(0.95)):
        want = _compensated(w.values(1, _N0 + 1).tolist())
        assert w.prefix_sums(np.arange(1, _N0 + 1)).tolist() == want
    we = Weight.explicit(1.0 / np.sqrt(np.arange(1, 5001)))
    assert we.prefix_sums(np.arange(1, 5001)).tolist() == _compensated(we.values(1, 5001).tolist())
    rep = check_summable(we, 3.0, 5000)
    assert rep.profile_values.tolist() == _compensated((we.values(1, 5001) ** 3.0).tolist())
    with pytest.raises(DomainError):
        we.prefix_sums([4, 5001])
    with pytest.raises(DomainError):
        w.prefix_sums([-1])


def test_prefix_sums_range_matches_pointwise():
    w = Weight.power(0.75)
    arr = w.prefix_sums(np.arange(100, 161))
    fresh = Weight.power(0.75)
    for i, n in enumerate(range(100, 161)):
        assert arr[i] == fresh.prefix_sum(n)


def test_prefix_sums_tail_only_batches_match_the_table_path():
    # A batch with no index <= _N0 skips the table gather and scatter; one
    # that holds such an index keeps it.  Both must give each index the float
    # it gets on its own, whichever batch it falls in.
    rng = np.random.default_rng(5)
    tail = rng.integers(_N0 + 1, 1 << 27, size=2 * _BATCH + 7)
    mixed = tail.copy()
    mixed[[_BATCH - 1, _BATCH + 3, 2 * _BATCH + 1]] = [_N0, 1, 0]  # small indices in batches 1 and 2
    for w in (Weight.harmonic(), Weight.power(0.5), Weight.power(0.95)):
        plain = w.prefix_sums(tail)  # every batch on the tail-only path
        both = w.prefix_sums(mixed)  # batch 0 tail-only, batches 1 and 2 through the table
        big = mixed > _N0
        assert both[big].tolist() == plain[big].tolist()
        assert both[~big].tolist() == [w.prefix_sum(_N0), 1.0, 0.0]
        for j in (0, _BATCH - 2, _BATCH, _BATCH + 4, 2 * _BATCH, 2 * _BATCH + 6):
            assert plain[j] == w.prefix_sum(int(tail[j])), (w, j)


def test_cache_order_independence():
    # Whatever order sums are requested in, results match a fresh instance
    # computed in one pass: a single canonical summation chain.
    w1 = Weight.harmonic()
    pts = [70000, 123, 4096, 99999, 5, 70001]
    got = {n: w1.prefix_sum(n) for n in pts}
    w2 = Weight.harmonic()
    for n in sorted(pts):
        assert w2.prefix_sum(n) == got[n]
    w3 = Weight.harmonic()
    arr = w3.prefix_sums(np.arange(1, 100001))
    for n in pts:
        assert arr[n - 1] == got[n]


def test_cache_thread_safety():
    w = Weight.harmonic()
    ref = Weight.harmonic().prefix_sums(np.arange(1, 50001))
    errs = []

    def worker(lo):
        try:
            for n in range(lo, 50001, 9973):
                if w.prefix_sum(n) != ref[n - 1]:
                    errs.append(n)
        except Exception as e:  # noqa: BLE001
            errs.append(repr(e))

    threads = [threading.Thread(target=worker, args=(lo,)) for lo in (1, 17, 4001, 30011)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errs


def test_weight_spec_roundtrip():
    for spec in ("harmonic", "power:a=0.5", "explicit:[1, 0.5, 0.25]"):
        w = make_weight(spec)
        w2 = make_weight(w.spec)
        assert w2.spec == w.spec
        assert np.array_equal(w.values(1, 4), w2.values(1, 4))


def test_make_weight_parse_errors():
    for bad in ("", "harm", "power", "power:a=", "power:b=1", "explicit:", "explicit:[]",
                "explicit:[0]", "explicit:[1,-1]", "explicit:[1,2]", "power:a=0",
                "power:a=-1", "explicit:[1,oops]"):
        with pytest.raises(ParseError):
            make_weight(bad)


def test_nuc_profiles():
    rep = check_nuc(Weight.harmonic(), 4096)
    assert rep.verdict == "consistent"
    ratios = np.asarray(rep.profile_values)
    assert ratios[0] == 1.5  # S(2)/S(1)
    assert np.all(np.diff(ratios) < 0)
    rep2 = check_nuc(Weight.power(0.5), 4096)
    assert rep2.verdict == "inconclusive"
    assert abs(rep2.extremum - 2.0**0.5) < 0.02
    with pytest.raises(DomainError):
        check_nuc(Weight.harmonic(), 0)
    for slack in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="slack"):
            check_nuc(Weight.harmonic(), 4, slack=slack)


def test_2sb_profile():
    rep = check_2sb(Weight.harmonic(), 100)
    assert rep.extremum == 1.0
    assert tuple(rep.arg_extremum) == (1, 1)
    # Strictly submultiplicative away from n = 1 for this weight.
    w = Weight.harmonic()
    assert w.prefix_sum(4) < w.prefix_sum(2) ** 2


def test_summable_verdicts():
    assert check_summable(Weight.harmonic(), 2.0, 1000).verdict == "consistent"
    assert check_summable(Weight.harmonic(), 1.0, 1000).verdict == "violated"
    assert check_summable(Weight.power(0.5), 2.0, 1000).verdict == "violated"  # a r = 1
    assert check_summable(Weight.power(0.5), 3.0, 1000).verdict == "consistent"
    rep = check_summable(make_weight("explicit:[1, 0.5]"), 2.0, 2)
    assert rep.verdict == "inconclusive"
    assert rep.extremum == 1.25
    with pytest.raises(DomainError):
        check_summable(make_weight("explicit:[1, 0.5]"), 2.0, 3)
    for r in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            check_summable(Weight.harmonic(), r, 10)


def test_summable_partial_sums_vs_high_precision():
    for w, r in ((Weight.harmonic(), 2.0), (Weight.power(0.5), 3.0),
                 (Weight.power(0.9), 1.5), (Weight.power(0.25), 8.0)):
        s = (1.0 if w.kind == "harmonic" else w.a) * r
        rep = check_summable(w, r, 100_000)
        assert rep.verdict == "consistent"
        for n in (1, _N0 - 1, _N0, _N0 + 1, 1000, 100_000):
            assert _ulps(rep.profile_values[n - 1], _power_sum(s, n)) <= 8.0, (w, r, n)


def test_condition_report_json():
    rep = check_nuc(Weight.harmonic(), 256)
    d = rep.to_json_dict()
    assert d["condition"] == "nuc" and d["horizon"] == 256
    assert isinstance(d["profile"], list) and len(d["profile"]) <= 257
