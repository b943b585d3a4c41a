"""Regenerate anchors.json: mpmath values (50 digits) that the checks compare against.

Run from the repository root:  python3 benchmarks/make_anchors.py
"""

import json
from pathlib import Path

import mpmath

mpmath.mp.dps = 50

# Cesaro norm of e_1 is zeta(p)^(1/p); these p are the e_1 slice of small-vectors.
CESARO_E1_P = (1.2, 1.5, 2.0, 2.5, 3.0, 4.0)
# Arguments of the zeta_bracket jobs of large-support.
ZETA_S = (1.01, 1.1, 1.5, 2.0, 3.0, 4.0)


def main() -> None:
    out = {
        "cesaro_e1": {repr(p): mpmath.nstr(mpmath.zeta(p) ** (1 / mpmath.mpf(p)), 40) for p in CESARO_E1_P},
        "zeta": {repr(s): mpmath.nstr(mpmath.zeta(s), 40) for s in ZETA_S},
    }
    path = Path(__file__).resolve().parent / "anchors.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
