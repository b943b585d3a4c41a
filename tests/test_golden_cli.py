"""Byte-for-byte CLI stdout, frozen in tests/golden/.

Each golden file is the stdout of one command, with the value of
``wall_time_s`` replaced by 0.  Together they pin the report format (key
names, key order, float text) of every subcommand; regenerate a file only
for an intended change of output.
"""

import re
from pathlib import Path

import pytest

from seqspaces.cli import main

GOLDEN = Path(__file__).parent / "golden"
SYSTEM = str(GOLDEN / "blocks_build.json")  # the blocks_build output, read back

# name -> (exit code, argv)
CASES = {
    "norm_lorentz": (0, ["norm", "--space", "lorentz:w=harmonic,p=1", "--vector", "[3, 1, 2]"]),
    "norm_cesaro": (0, ["norm", "--space", "cesaro:p=2", "--vector",
                        '{"indices": [1, 5], "values": [1.0, -0.5]}', "--tol", "1e-12"]),
    "weight_nuc": (0, ["weight", "check", "--weight", "harmonic", "--condition", "nuc",
                       "--N", "4096"]),
    "weight_2sb": (0, ["weight", "check", "--weight", "power:a=0.5", "--condition", "2sb",
                       "--N", "64"]),
    "weight_summable": (0, ["weight", "check", "--weight", "power:a=0.5", "--condition",
                            "summable", "--N", "1000", "--r", "3"]),
    "equiv_family": (0, ["equiv", "--from", "lp:p=1", "--to", "lorentz:w=harmonic,p=1",
                         "--dim", "3", "--strategy", "family"]),
    "equiv_certified": (0, ["equiv", "--from", "tandori:p=2", "--to",
                            "blocksum:lengths=dyadic,inner=inf,outer=2", "--dim", "8"]),
    "equiv_band72_ascent": (0, ["equiv", "--from", "blocksum:lengths=dyadic,inner=inf,outer=2",
                                "--to", "tandori:p=2", "--dim", "6", "--strategy",
                                "coordinate-ascent", "--samples", "30", "--seed", "1"]),
    "blocks_build": (0, ["blocks", "build", "--weight", "harmonic", "--p", "1", "--K", "1.5",
                         "--levels", "4"]),
    "blocks_verify": (0, ["blocks", "verify", "--system", SYSTEM, "--samples", "40"]),
    "blocks_project": (0, ["blocks", "project", "--system", SYSTEM, "--vector", "[1, 1, 1]"]),
    "verify_garling_oracle": (1, ["verify", "garling-oracle", "--samples", "3", "--tol", "-1"]),
    "verify_tandori_vp": (1, ["verify", "tandori-vp", "--samples", "3", "--tol", "-1"]),
    "verify_duality": (0, ["verify", "duality"]),
    "verify_embed_isometry": (0, ["verify", "embed-isometry", "--samples", "40"]),
    "verify_embed_isometry_failing": (1, ["verify", "embed-isometry", "--samples", "9",
                                          "--tol", "-1"]),
    "verify_lorentz_oracle": (1, ["verify", "lorentz-oracle", "--samples", "3", "--tol", "-1"]),
    "verify_holder": (0, ["verify", "holder", "--samples", "20"]),
    "verify_blocks_linf": (1, ["verify", "blocks-linf", "--samples", "2", "--tol", "-1",
                               "--levels", "3"]),
    "verify_blocks_wp": (0, ["verify", "blocks-wp", "--samples", "20", "--levels", "3"]),
    "verify_projection": (1, ["verify", "projection", "--samples", "3", "--tol", "-1",
                              "--levels", "3"]),
    "verify_fdd": (1, ["verify", "fdd", "--samples", "3", "--tol", "-1"]),
    "verify_norm_axioms": (1, ["verify", "norm-axioms", "--samples", "3", "--tol", "-1"]),
    "verify_weight_profiles": (0, ["verify", "weight-profiles"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, capsys):
    code, argv = CASES[name]
    assert main(argv) == code
    out = re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": 0', capsys.readouterr().out)
    assert out == (GOLDEN / f"{name}.json").read_text()
