"""Command line interface.

Subcommands
-----------

norm            evaluate a norm bracket for one vector in one space
weight check    profile a weight condition (nuc, 2sb, summable)
equiv           estimate an equivalence constant between two spaces
blocks build    construct a block system for (weight, p, K, levels)
blocks verify   re-check a block system and sample equivalence ratios
blocks project  apply the block averaging projection to a vector
verify          run a named verification suite

All reports are JSON on stdout (sorted keys, two-space indent); diagnostics
go to stderr.  Exit codes: 0 success, 1 a verification failed, 2 bad usage
or unparsable input, 3 a domain error, a scan cap overrun or any other error.
"""

from __future__ import annotations

import argparse
import sys

from .blocks import BlockSystem, averaging_projection, find_block_sizes, wp_equivalence_ratios
from .constants import estimate_equivalence
from .errors import DomainError, ParseError, ScanCapExceeded
from .jsonio import dumps
from .norms import norm, parse_space
from .suites import SUITE_NAMES, run_suite
from .vectors import parse_vector_json
from .weights import check_2sb, check_nuc, check_summable, make_weight

__all__ = ["main"]


def _emit(obj, out: str | None = None) -> None:
    text = dumps(obj, indent=2)
    if out is None:
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {out}", file=sys.stderr)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path!r}: {e}") from None


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="seqspaces", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("norm", help="evaluate a norm bracket")
    q.add_argument("--space", required=True, help='e.g. "lorentz:w=harmonic,p=1"')
    q.add_argument("--vector", required=True, help="vector JSON (dense list or {indices, values})")
    q.add_argument("--tol", type=float, default=1e-9, help="relative width for bracketed norms")
    q.set_defaults(run=_cmd_norm)

    wgt = sub.add_parser("weight", help="weight utilities")
    wsub = wgt.add_subparsers(dest="wcmd", required=True)
    wc = wsub.add_parser("check", help="profile a weight condition over a horizon")
    wc.add_argument("--weight", required=True, help='e.g. "harmonic", "power:a=0.5", "explicit:[1,0.5]"')
    wc.add_argument("--condition", required=True, choices=("nuc", "2sb", "summable"))
    wc.add_argument("--N", type=int, required=True, help="profile horizon")
    wc.add_argument("--r", type=float, default=None, help="exponent for --condition summable")
    wc.add_argument("--slack", type=float, default=0.1, help="consistency slack for --condition nuc")
    wc.set_defaults(run=_cmd_weight_check)

    e = sub.add_parser("equiv", help="estimate an equivalence constant")
    e.add_argument("--from", dest="from_space", required=True, metavar="SPACE")
    e.add_argument("--to", dest="to_space", required=True, metavar="SPACE")
    e.add_argument("--dim", type=int, required=True, help="support is restricted to 1..dim")
    e.add_argument("--strategy", default="family", choices=("family", "grid", "coordinate-ascent"))
    e.add_argument("--samples", type=int, default=200)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(run=_cmd_equiv)

    b = sub.add_parser("blocks", help="block system commands")
    bsub = b.add_subparsers(dest="bcmd", required=True)
    bb = bsub.add_parser("build", help="construct a block system")
    bb.add_argument("--weight", default="harmonic")
    bb.add_argument("--p", type=float, default=1.0)
    bb.add_argument("--K", type=float, default=1.5)
    bb.add_argument("--levels", type=int, default=5)
    bb.add_argument("--scan-cap", dest="scan_cap", type=int, default=None)
    bb.add_argument("--out", default=None, help="write the system JSON here instead of stdout")
    bb.set_defaults(run=_cmd_blocks_build)
    bv = bsub.add_parser("verify", help="re-check certificates and sample ratios")
    bv.add_argument("--system", required=True, help="system JSON path, or - for stdin")
    bv.add_argument("--space", default="lorentz", choices=("lorentz", "garling"))
    bv.add_argument("--samples", type=int, default=200)
    bv.add_argument("--seed", type=int, default=0)
    bv.set_defaults(run=_cmd_blocks_verify)
    bp = bsub.add_parser("project", help="project a vector onto the block system")
    bp.add_argument("--system", required=True, help="system JSON path, or - for stdin")
    bp.add_argument("--vector", required=True, help="vector JSON")
    bp.set_defaults(run=_cmd_blocks_project)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITE_NAMES)
    v.add_argument("--samples", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=None,
                   help="failure tolerance, read by every suite (default: the suite's own)")
    v.add_argument("--weight", default="harmonic", help="block suites: weight spec")
    v.add_argument("--p", type=float, default=1.0, help="block suites: exponent")
    v.add_argument("--K", type=float, default=1.5, help="block suites: target ratio")
    v.add_argument("--levels", type=int, default=5, help="block suites: level count")
    v.add_argument("--scan-cap", dest="scan_cap", type=int, default=None)
    v.add_argument("--space", default=None, help="blocks-wp: lorentz or garling")
    v.add_argument("--out", default=None, help="write the report here instead of stdout")
    v.set_defaults(run=_cmd_verify)
    return top


def _cmd_norm(args) -> int:
    spec = parse_space(args.space)
    vec = parse_vector_json(args.vector)
    _emit(norm(vec, spec, tol=args.tol))
    return 0


def _cmd_weight_check(args) -> int:
    w = make_weight(args.weight)
    if args.condition == "nuc":
        rep = check_nuc(w, args.N, slack=args.slack)
    elif args.condition == "2sb":
        rep = check_2sb(w, args.N)
    else:
        if args.r is None:
            print("error: --condition summable requires --r", file=sys.stderr)
            return 2
        rep = check_summable(w, args.r, args.N)
    _emit(rep)
    return 0


def _cmd_equiv(args) -> int:
    rep = estimate_equivalence(
        args.from_space,
        args.to_space,
        args.dim,
        strategy=args.strategy,
        samples=args.samples,
        seed=args.seed,
    )
    _emit(rep)
    return 0


def _cmd_blocks_build(args) -> int:
    w = make_weight(args.weight)
    kwargs = {} if args.scan_cap is None else {"scan_cap": args.scan_cap}
    bs = find_block_sizes(w, args.p, args.K, args.levels, **kwargs)
    _emit(bs, out=args.out)
    return 0


def _cmd_blocks_verify(args) -> int:
    bs = BlockSystem.from_json(_read_source(args.system))
    certs = [bs.certificate(lvl.k) for lvl in bs.levels]
    certs_ok = all(c <= bs.K * (1.0 + 1e-12) for c in certs)
    rep = wp_equivalence_ratios(bs, args.space, samples=args.samples, seed=args.seed)
    passed = certs_ok and rep.passed
    _emit({"certificates": certs, "certificates_ok": certs_ok, "wp": rep, "passed": passed})
    return 0 if passed else 1


def _cmd_blocks_project(args) -> int:
    bs = BlockSystem.from_json(_read_source(args.system))
    vec = parse_vector_json(args.vector)
    _emit(averaging_projection(bs, vec))
    return 0


def _cmd_verify(args) -> int:
    rep = run_suite(
        args.suite,
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
        weight=args.weight,
        p=args.p,
        K=args.K,
        levels=args.levels,
        scan_cap=args.scan_cap,
        space=args.space,
    )
    _emit(rep, out=args.out)
    if not rep.passed:
        why = f"failed on {len(rep.failures)} case(s)" if rep.failures else "checked no case"
        print(f"suite {rep.suite} {why}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.run(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ScanCapExceeded as e:
        print(
            dumps(
                {
                    "error": "scan cap exceeded",
                    "level": e.level,
                    "cap": e.cap,
                    "best_ratio": e.best_ratio,
                }
            ),
            file=sys.stderr,
        )
        return 3
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        # Anything else (MemoryError, OverflowError, ...): one stderr line, exit 3.
        print(f"error: {type(e).__name__}: {e}".splitlines()[0], file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
