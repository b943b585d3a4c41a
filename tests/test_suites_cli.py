"""Verification suites and the command line surface."""

import hashlib
import json
import math
import subprocess
import sys
import tracemalloc

import pytest

from seqspaces import DomainError, run_suite
from seqspaces.cli import main
from seqspaces.jsonio import dumps
from seqspaces.suites import SUITE_NAMES


def test_run_suite_unknown():
    with pytest.raises(DomainError):
        run_suite("no-such-suite")
    with pytest.raises(DomainError):
        run_suite("holder", samples=-1)


def test_run_suite_rejects_a_non_finite_tolerance():
    # A NaN tolerance would pass every "d > tol" check but fail every
    # "not passed" one; -1 stays allowed, since it forces failures.
    for name in SUITE_NAMES:
        for tol in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite"):
                run_suite(name, samples=1, tol=tol)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_reads_its_tolerance(suite):
    # A negative tolerance fails every comparison, so every suite must fail,
    # and report the tolerance it ran with.
    rep = run_suite(suite, samples=3, tol=-1.0, levels=3)
    assert not rep.passed and rep.failures
    assert -1.0 in rep.tolerances.values()


# suite -> (the norm it checks, samples)
PERTURBED = {
    "embed-isometry": ("tandori_norm", 400),
    "garling-oracle": ("garling_norm", 50),
    "lorentz-oracle": ("lorentz_norm", 50),
}


@pytest.mark.parametrize("suite", sorted(PERTURBED))
def test_suite_detects_a_perturbed_norm(monkeypatch, suite):
    # The oracle side must not call the norm under test: with it off by 1e-9
    # relative in every module that imports it, most cases must fail.
    from seqspaces import norms

    name, samples = PERTURBED[suite]
    exact = getattr(norms, name)

    def perturbed(*args):
        return exact(*args) * (1.0 + 1e-9)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("seqspaces") and getattr(mod, name, None) is exact:
            monkeypatch.setattr(mod, name, perturbed)
    rep = run_suite(suite, samples=samples)
    assert len(rep.failures) > rep.cases / 2


def test_duality_detects_a_positional_pairing(monkeypatch):
    # A pairing that matches entries by position instead of by index must
    # fail most of the duality cases.
    from seqspaces import bases, suites

    def positional(x, y):
        n = min(x.values.size, y.values.size)
        return math.fsum(x.values[:n] * y.values[:n])

    for mod in (bases, suites):
        monkeypatch.setattr(mod, "duality_pair", positional)
    rep = run_suite("duality")
    assert len(rep.failures) > rep.cases / 2


def test_duality_failure_names_the_tolerance(monkeypatch):
    # A failed pairing is reported against the tolerance it was compared
    # within, not as an exact equality.
    from seqspaces import bases, suites

    monkeypatch.setattr(suites, "duality_pair", lambda x, y: 1.5 * bases.duality_pair(x, y))
    rep = run_suite("duality", tol=0.25)
    assert len(rep.failures) == 100 * len(suites._VP_EXPONENTS)  # the diagonal pairings
    assert {f["expected"] for f in rep.failures} == {"|pairing - 1.0| <= 0.25"}


def test_suite_report_shape():
    rep = run_suite("lorentz-oracle", samples=12, seed=3)
    assert rep.passed and rep.cases == 12 and rep.seed == 3
    d = rep.to_json_dict()
    assert set(d) == {
        "suite", "passed", "cases", "failures", "stats", "seed", "samples",
        "tolerances", "wall_time_s",
    }
    assert d["failures"] == []
    json.dumps(d)  # serializable as-is


def test_suite_determinism_modulo_wall_time():
    for name in ("garling-oracle", "tandori-vp", "fdd", "norm-axioms"):
        a = run_suite(name, samples=15, seed=1).to_json_dict()
        b = run_suite(name, samples=15, seed=1).to_json_dict()
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b, name


def test_projection_memory_does_not_grow_with_samples():
    # Samples are drawn and evaluated in chunks of a fixed size, so the
    # peak is the same at ten times the samples.  One level keeps the run short.
    peaks = []
    for samples in (2_000, 20_000):
        tracemalloc.start()
        try:
            assert run_suite("projection", samples=samples, levels=1).passed
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


# sha256 of each default report at seeds 0 and 1, wall_time_s removed.
REPORT_SHA256 = {
    ("blocks-linf", 0): "2a4878246b622a67725069d7a7c0837f51f4f8902163d5ffbc87c60115a4304c",
    ("blocks-linf", 1): "abe274abb9af54e937af6bc18aab6bcbb4e8afb8b2a6fa0372291ac4691ea6be",
    ("blocks-wp", 0): "7c86011bee5a16fb567af513968d8c34bc0c44e78e5544baff018a3714c32e5d",
    ("blocks-wp", 1): "21bf97eab6633742eda6105b96157a0019f1d66c6e4ee60713e869b8c67eebec",
    ("duality", 0): "12cfb8522c8fe11ed566ce23f48d5fcd168c8fea179bd1f6cea0c1b4a736964c",
    ("duality", 1): "0379812c847a80ac65a11486d2205ae44a53b9375b5bf26d22a77af3c1afaf24",
    ("embed-isometry", 0): "96ff5b19803c5f23c1816a1e0557ea10777008c10bc04b078f9e2603e25546a3",
    ("embed-isometry", 1): "ee61bdfdb9c6860199125bd719471e6f917c1294c646b384be3c9271799558b3",
    ("fdd", 0): "51c563f08b8a1a52633d6140e94a9556884507dd510545f081c7d1040a3e12fb",
    ("fdd", 1): "39cbebffa6ea71d4ae784178b961dd22b92539b40e11106a4aa9cbcae6521de4",
    ("garling-oracle", 0): "ff744ece1a8bfd8bd12ca6cfae8455bd62dc01400e0ba81a598c3b7d9d2ba294",
    ("garling-oracle", 1): "fda8bb54d257c009b41d8ae537cb25fbc60fb12d0617b9cf0b57234355b16eff",
    ("holder", 0): "6fa38bbaf0581a5900d7364584b16413807245c34cf3a0b3e967d3278aa0d2f5",
    ("holder", 1): "028b5537d59741ee0185f952949371ad3455aa53295836b76a2e9d7372bb82df",
    ("lorentz-oracle", 0): "db2e417d2540cd078fe9d0f03bf9c55e8d17c7bf734d2bcf95957094470ce072",
    ("lorentz-oracle", 1): "bac9fa2d69651770091a3e10e2952848b4ff0c716e38a7c614f3174c34513a91",
    ("norm-axioms", 0): "95ab29c9864f0d4e6459717c4686b1297db936e1324a37812b34a4c5b69c788b",
    ("norm-axioms", 1): "2d6f75bd0b8323f92e2dfdabb4e5b3d02ccb3d1de360cd498d25ff376e4caed2",
    ("projection", 0): "1e6e3d6b15e5abbfe0262a14ded90ad7fcd0d2229fa8e77452cbceb1fbc0c550",
    ("projection", 1): "045911652fdb22a907358f6ae7cd203bb4d129164523b5f41a5ac77f019238a6",
    ("tandori-vp", 0): "7ac6fbfb6bf6116a07e0fca92698ba3471df361f577a59b2ab172550c4534da2",
    ("tandori-vp", 1): "7748c34d4e31574c6970afa22c8fae8bbf81aeee8e1d56f4c70922922ee5bbb6",
    ("weight-profiles", 0): "c7e85fab51e203f830f09b5bb795097c3b598daa277b2d30cfcaf75680cee99f",
    ("weight-profiles", 1): "a13e8355da9300fd411e596338d43ee6d1f6cb5f41aa93d6539033ce4bafd304",
}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_reports_are_pinned(suite):
    for seed in (0, 1):
        d = run_suite(suite, seed=seed).to_json_dict()
        d.pop("wall_time_s")
        assert hashlib.sha256(dumps(d).encode()).hexdigest() == REPORT_SHA256[suite, seed], seed


def test_suite_failure_reporting():
    # An impossible tolerance forces failures; the report must collect them
    # (sorted, JSON-clean) and flip passed.
    rep = run_suite("garling-oracle", samples=3, tol=-1.0)
    assert not rep.passed
    assert rep.failures
    enc = [json.dumps(f, sort_keys=True, default=str) for f in rep.failures]
    assert enc == sorted(enc)
    json.dumps(rep.to_json_dict())
    assert (rep.seed, rep.samples) == (0, 3)
    other = run_suite("tandori-vp", samples=2, seed=7, tol=-1.0)
    assert not other.passed and (other.seed, other.samples) == (7, 2)
    for f in rep.failures + other.failures:
        assert set(f) == {"input", "expected", "observed"}


def test_cli_norm(capsys):
    assert main(["norm", "--space", "lorentz:w=harmonic,p=1", "--vector", "[3, 1, 2]"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lo"] == out["hi"] == pytest.approx(13.0 / 3.0, abs=1e-15)


def test_cli_exit_codes(capsys):
    assert main(["norm", "--space", "bogus:p=1", "--vector", "[1]"]) == 2
    assert main(["norm", "--space", "lp:p=2", "--vector", "not json"]) == 2
    assert main(["norm", "--space", "cesaro:p=1", "--vector", "[1]"]) == 3
    assert main(["verify", "no-such-suite"]) == 2  # argparse choices
    assert main(["norm", "--space", "lp:p=2"]) == 2  # missing --vector
    assert main(["weight", "check", "--weight", "harmonic",
                 "--condition", "summable", "--N", "100"]) == 2  # needs --r
    assert main(["weight", "check", "--weight", "harmonic",
                 "--condition", "nuc", "--N", "0"]) == 3
    for slack in ("nan", "inf", "-inf", "0"):  # NaN and Infinity would print as non-JSON
        assert main(["weight", "check", "--weight", "harmonic",
                     "--condition", "nuc", "--N", "4", f"--slack={slack}"]) == 3
    assert main(["equiv", "--from", "lp:p=1", "--to", "lp:p=2", "--dim", "3",
                 "--samples", "-5"]) == 3
    capsys.readouterr()


def test_cli_unexpected_errors_exit_3(capsys):
    # Overflow inside a kernel is not a ParseError or DomainError; the CLI
    # boundary still reports it on one stderr line with exit 3.
    for space, vec in (("lp:p=1", "[1.7e308, 1.7e308]"), ("cesaro:p=2", "[1.7e308]")):
        assert main(["norm", "--space", space, "--vector", vec]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err


def test_cli_non_finite_tolerance_is_a_domain_error(capsys):
    for tol in ("nan", "inf"):
        code = main(["norm", "--space", "cesaro:p=2", "--vector", "[1]", "--tol", tol])
        assert code == 3
    assert "finite" in capsys.readouterr().err
    for suite in ("garling-oracle", "tandori-vp"):
        assert main(["verify", suite, "--samples", "5", "--tol", "nan"]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "finite" in err


def _strict_json(text):
    """``json.loads`` that refuses NaN and +-Infinity, which are not standard JSON."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


_SAMPLED_ONLY = {"embed-isometry", "garling-oracle", "lorentz-oracle", "norm-axioms", "projection",
                 "tandori-vp"}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_cli_verify_no_samples_prints_standard_json(capsys, suite):
    # With no case run, a bound that no vector reached is null, not +-Infinity;
    # a suite whose cases all come from samples checked nothing, so it fails.
    assert main(["verify", suite, "--samples", "0"]) == (1 if suite in _SAMPLED_ONLY else 0)
    rep = _strict_json(capsys.readouterr().out)
    assert rep["samples"] == 0
    if suite == "tandori-vp":
        assert rep["stats"] == {"min_ratio": None, "max_ratio": None}


def test_cli_verify_that_checked_nothing_fails(capsys):
    assert main(["verify", "projection", "--samples", "0"]) == 1
    out, err = capsys.readouterr()
    rep = _strict_json(out)
    assert (rep["passed"], rep["cases"], rep["failures"]) == (False, 0, [])
    assert err == "suite projection checked no case\n"


def test_cli_cesaro_extreme_magnitudes(capsys):
    # The prefix-average norm of c e_1 is c sqrt(zeta(2)), at any scale c.
    for c in (1e-200, 1e-160, 1e200):
        assert main(["norm", "--space", "cesaro:p=2", "--vector", f"[{c!r}]"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mid"] == pytest.approx(c * math.pi / math.sqrt(6.0), rel=1e-9, abs=0.0)


def test_cli_bad_sparse_indices_are_parse_errors(capsys):
    for idx in ("[true]", "[1e23]", "[9223372036854775808]"):
        vec = '{"indices": %s, "values": [2]}' % idx
        assert main(["norm", "--space", "lp:p=2", "--vector", vec]) == 2
    huge = "1" + "0" * 400  # a JSON integer too large for a float
    assert main(["norm", "--space", "lp:p=2", "--vector", f"[{huge}]"]) == 2
    vec = '{"indices": [1], "values": [%s]}' % huge
    assert main(["norm", "--space", "lp:p=2", "--vector", vec]) == 2
    capsys.readouterr()


def test_cli_weight_check(capsys):
    assert main(["weight", "check", "--weight", "power:a=0.5",
                 "--condition", "summable", "--N", "64", "--r", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "consistent"
    assert out["condition"] == "summable"


def test_cli_equiv(capsys):
    assert main(["equiv", "--from", "lp:p=1", "--to", "lorentz:w=harmonic,p=1",
                 "--dim", "3", "--strategy", "family"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["empirical_lower"] - 18.0 / 11.0) <= 1e-12
    assert out["witness"] == [1.0, 1.0, 1.0]


def test_cli_verify_failure_exit(capsys):
    assert main(["verify", "garling-oracle", "--samples", "3", "--tol", "-1"]) == 1
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["passed"] is False
    assert "failed" in captured.err


def test_cli_verify_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "duality", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""  # report went to the file
    rep = json.loads(out.read_text())
    assert rep["suite"] == "duality" and rep["passed"]


def test_cli_verify_deterministic_bytes(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["verify", "lorentz-oracle", "--samples", "10", "--out", str(path)]) == 0
        lines = [l for l in path.read_text().splitlines() if "wall_time_s" not in l]
        outs.append("\n".join(lines))
    assert outs[0] == outs[1]


def test_cli_blocks_pipeline(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    assert main(["blocks", "build", "--weight", "harmonic", "--p", "1", "--K", "1.5",
                 "--levels", "4", "--out", str(sys_path)]) == 0
    capsys.readouterr()
    obj = json.loads(sys_path.read_text())
    assert [l["M"] for l in obj["levels"]] == [1, 1, 4, 8]

    assert main(["blocks", "verify", "--system", str(sys_path), "--samples", "40"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] and rep["certificates_ok"]
    assert max(rep["certificates"]) <= 1.5 * (1 + 1e-12)

    assert main(["blocks", "project", "--system", str(sys_path),
                 "--vector", "[1, 1, 1]"]) == 0
    proj = json.loads(capsys.readouterr().out)
    assert proj == [1.0, 1.0, 1.0]  # three singleton blocks up front


def test_cli_blocks_scan_cap(capsys):
    code = main(["blocks", "build", "--weight", "power:a=0.5", "--p", "1",
                 "--K", "1.05", "--levels", "3", "--scan-cap", "20000"])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "scan cap exceeded"
    assert err["level"] == 2 and err["cap"] == 20000
    assert err["best_ratio"] > 1.05


def test_cli_bad_system_file(capsys):
    assert main(["blocks", "verify", "--system", "/no/such/file.json"]) == 2
    capsys.readouterr()


def test_cli_system_with_fractional_block_size_exits_2(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    assert main(["blocks", "build", "--weight", "harmonic", "--p", "1", "--K", "1.5",
                 "--levels", "4", "--out", str(sys_path)]) == 0
    obj = json.loads(sys_path.read_text())
    obj["levels"][3]["M"] = 8.5  # was read as 8: a different system than written
    sys_path.write_text(json.dumps(obj))
    capsys.readouterr()
    for cmd in (["verify", "--samples", "5"], ["project", "--vector", "[1, 1, 1]"]):
        assert main(["blocks", cmd[0], "--system", str(sys_path), *cmd[1:]]) == 2
        err = capsys.readouterr().err
        assert "must be an integer" in err and len(err.strip().splitlines()) == 1


def test_cli_system_with_bad_real_fields_exits_2(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    assert main(["blocks", "build", "--weight", "harmonic", "--p", "1", "--K", "1.5",
                 "--levels", "3", "--out", str(sys_path)]) == 0
    written = json.loads(sys_path.read_text())
    for key, bad, text in [("p", True, "must be a finite number"),
                           ("K", "1.5", "must be a finite number"),
                           ("scan_cap", -5, "must be at least 1")]:
        obj = dict(written, **{key: bad})
        sys_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["blocks", "verify", "--system", str(sys_path), "--samples", "5"]) == 2
        err = capsys.readouterr().err
        assert text in err and len(err.strip().splitlines()) == 1


def test_cli_tiny_tolerance_is_bounded():
    # A tolerance far below what float64 can certify must end in an answer or
    # a domain error, in bounded memory and time, never in a traceback.
    import resource

    limit = 1536 << 20

    def cap_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    res = subprocess.run(
        [sys.executable, "-m", "seqspaces", "norm", "--space", "cesaro:p=2",
         "--vector", "[1]", "--tol", "1e-300"],
        capture_output=True, text=True, timeout=120, preexec_fn=cap_address_space,
    )
    assert res.returncode in (0, 3), res.stderr
    assert "Traceback" not in res.stderr


def test_module_entry_point():
    res = subprocess.run(
        [sys.executable, "-m", "seqspaces", "norm", "--space", "lp:p=2",
         "--vector", "[3, 4]"],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["mid"] == 5.0
