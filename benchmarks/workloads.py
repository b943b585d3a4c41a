"""The three workloads: seeded inputs, the fixed job list, and the checks.

Each workload builds its inputs from the seed in its constructor (that is
the set-up the benchmark times), then hands out the same job list for every
round.  A job is a timed call sequence into the public API of seqspaces; its
check runs afterwards, untimed, and compares every output with a reference
from ``reference.py``, a frozen value from ``frozen.json`` or an mpmath
anchor from ``anchors.json``.

The program is always reached through module attributes (``S.norm``,
``S.cli.main``), never through names bound at import time, so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import statistics
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns
from typing import Callable

import numpy as np

import reference as ref

# Known defect (ROADMAP Open item 3): brackets are computed round-to-nearest,
# so one can miss the exact value by the rounding it does not count.  Such a
# miss is a failed op but does not make the run incorrect when it is no larger
# than the requested width or than one rounding per summed term.
ULP = 2.0**-52


class Failed:
    """An op that raised; stands in for its output."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Failed({self.message})"


def attempt(fn: Callable, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a failing op is counted, not fatal
        return Failed(exc)


@dataclass(frozen=True)
class Check:
    op: str
    ok: bool
    known: bool = False
    detail: str = ""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def ok_value(x) -> bool:
    return not isinstance(x, Failed)


def run_round(jobs, tracer=None) -> tuple[dict, dict]:
    """Run every job once; returns job times (s) and outputs (a job that raises yields Failed).

    The garbage of one job is collected before the next one starts, untimed.
    """
    times, outputs = {}, {}
    for job in jobs:
        gc.collect()
        with tracer.span(f"job:{job.name}") if tracer else contextlib.nullcontext():
            t0 = perf_counter()
            outputs[job.name] = attempt(job.run)
            times[job.name] = perf_counter() - t0
    return times, outputs


def check_round(jobs, outputs) -> list:
    checks = []
    for job in jobs:
        out = outputs[job.name]
        checks.extend(job.check(out) if ok_value(out) else [Check(job.name, False, False, out.message)])
    return checks


def check_close(op: str, got, want: float, rel: float = 1e-12) -> Check:
    if not ok_value(got):
        return Check(op, False, False, got.message)
    got = float(got)
    return Check(op, ref.close(got, want, rel), False, f"got {got!r} want {want!r}")


def check_bracket(op: str, got, exact, width: float, terms: int = 0, relative: bool = True) -> Check:
    """The bracket contains the exact value and is at most ``width`` wide.

    ``terms`` is how many rounded terms the program sums for it; a miss within
    the known-defect allowance is flagged ``known``.
    """
    if not ok_value(got):
        return Check(op, False, False, got.message)
    scale = abs(float(exact))
    narrow = got.width <= width * (abs(got.mid) if relative else 1.0)
    lo, hi = ref.mpmath.mpf(got.lo), ref.mpmath.mpf(got.hi)
    miss = float(max(lo - exact, exact - hi, 0))
    allowance = max(width * (scale if relative else 1.0), (terms + 4) * ULP * scale)
    detail = f"[{got.lo!r}, {got.hi!r}] vs {ref.mpmath.nstr(exact, 20)}, miss {miss:.3g}"
    return Check(op, narrow and miss == 0.0, narrow and 0.0 < miss <= allowance, detail)


def check_equal(op: str, got, want) -> Check:
    if not ok_value(got):
        return Check(op, False, False, got.message)
    return Check(op, got == want, False, f"got {got!r} want {want!r}")


def canon(x):
    """JSON-ready canonical form of an output, for the output digest."""
    if isinstance(x, Failed):
        return {"failed": x.message}
    if isinstance(x, np.ndarray):
        return {"sha256": hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()}
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if hasattr(x, "to_json_dict"):
        d = x.to_json_dict()
        d.pop("wall_time_s", None)
        return canon(d)
    if hasattr(x, "lo") and hasattr(x, "hi"):
        return ["bracket", x.lo, x.hi]
    if hasattr(x, "indices") and hasattr(x, "values"):
        return {"indices": canon(x.indices), "values": canon(x.values)}
    if hasattr(x, "starts") and hasattr(x, "lengths"):
        return {"starts": canon(x.starts), "lengths": canon(x.lengths), "values": canon(x.values)}
    return x


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(canon(obj), sort_keys=True).encode()).hexdigest()


def random_vector(rng: np.random.Generator, m: int, max_index: int):
    """Sorted distinct indices in 1..max_index and mixed-profile nonzero values."""
    idx = np.sort(rng.choice(max_index, size=m, replace=False)) + 1
    style = int(rng.integers(0, 4))
    if style == 0:
        vals = rng.uniform(-1.0, 1.0, size=m)
    elif style == 1:
        vals = rng.standard_normal(m) * float(np.exp(rng.uniform(-2.0, 3.0)))
    elif style == 2:
        vals = rng.integers(1, 4, size=m) * rng.choice([-1.0, 1.0], size=m)
    else:
        vals = (rng.uniform(0.01, 1.0, size=m) ** 4) * rng.choice([-1.0, 1.0], size=m)
    return idx.astype(np.int64), np.asarray(vals, dtype=np.float64)


def run_suite_job(S, name: str) -> Job:
    """A suite at its default size and seed 0, checked against the frozen report."""
    frozen = ref.FROZEN["suites"][name]

    def run():
        return S.run_suite(name)

    def check(rep):
        out = [
            Check(f"suite:{name}:passed", rep.passed is True, False, str(rep.failures[:1])),
            check_equal(f"suite:{name}:cases", rep.cases, frozen["cases"]),
        ]
        for key, want in frozen["stats"].items():
            got = rep.stats.get(key)
            if isinstance(want, list):
                out.append(check_equal(f"suite:{name}:{key}", [float(x) for x in got], want))
            elif key in frozen.get("at_most", ()):
                # Rounding-noise statistics: only the suite's tolerance is frozen.
                out.append(Check(f"suite:{name}:{key}", float(got) <= want, False, f"{got!r} > {want!r}"))
            else:
                out.append(check_close(f"suite:{name}:{key}", got, want, 1e-9))
        return out

    return Job(f"suite:{name}", run, check)


class Workload:
    name = ""

    def __init__(self, S, seed: int):
        self.S = S
        self.seed = int(seed)
        self.rng = np.random.default_rng([self.seed, sum(map(ord, self.name))])
        self._refs: dict = {}  # reference values, computed once per input

    def _ref(self, key, fn):
        if key not in self._refs:
            self._refs[key] = fn()
        return self._refs[key]

    def inputs(self):
        """Everything generated from the seed, for the input digest."""
        raise NotImplementedError

    def jobs(self) -> list[Job]:
        raise NotImplementedError

    def phase_metrics(self, times: dict[str, float]) -> dict:
        """Workload-specific numbers from one round's job times (seconds)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# small-vectors
# ---------------------------------------------------------------------------

STREAM_SPECS = (
    "lp:p=1",
    "lp:p=2",
    "lp:p=inf",
    "lorentz:w=harmonic,p=1",
    "lorentz:w=power:a=0.5,p=2",
    "garling:w=harmonic,p=1",
    "garling:w=power:a=0.5,p=2",
    "cesaro:p=2",
    "tandori:p=1.5",
    "blocksum:lengths=dyadic,inner=inf,outer=2",
    "blocksum:lengths=triangular,inner=2,outer=1",
    "epw:n=256,p=1,w=0.5",
)
# The tight Cesaro slice: a fixed set of vectors, the same for every seed.  At
# tol 1e-15 a call costs 40 ms at the median and up to 0.5 s, so seeded inputs
# made the round time swing by a quarter from seed to seed.
TIGHT_TOLS = (1e-12, 1e-15)
TIGHT_VECTORS = 16
E1_P = (1.2, 1.5, 2.0, 2.5, 3.0, 4.0)
E1_TOLS = (1e-9, 1e-12, 1e-15)
SMALL_SUITES = ("garling-oracle", "lorentz-oracle", "tandori-vp", "embed-isometry",
                "norm-axioms", "fdd", "holder")


class SmallVectors(Workload):
    """Many tiny vectors: per-call overhead dominates."""

    name = "small-vectors"
    n_stream = 2000
    max_index = 256

    def __init__(self, S, seed: int):
        super().__init__(S, seed)
        rng = self.rng
        self.vectors = [self._draw(rng) for _ in range(self.n_stream)]
        fixed = np.random.default_rng([0, TIGHT_VECTORS])
        self.tight = [self._draw(fixed) for _ in range(TIGHT_VECTORS)]
        self.specs = [S.parse_space(s) for s in STREAM_SPECS]
        self.tight_spec = S.parse_space("cesaro:p=2")
        self.basis_idx = [int(k) for k in np.sort(rng.choice(64, size=3, replace=False)) + 1]
        self.mixed = [random_vector(rng, int(rng.integers(1, 4)), 12) for _ in range(3)]
        dense = rng.uniform(-1.0, 1.0, size=8)
        self.cli_vector = [float(x) for x in dense]
        self.latencies: list[int] = []

    def _draw(self, rng):
        """Support 1-16 four times in five, else 17-64 (straddling the DP switch at 48)."""
        m = int(rng.integers(1, 17)) if rng.random() < 0.8 else int(rng.integers(17, 65))
        return random_vector(rng, m, self.max_index)

    def inputs(self):
        return {
            "vectors": self.vectors,
            "tight": self.tight,
            "specs": [s.spec for s in self.specs],
            "basis_idx": self.basis_idx,
            "mixed": self.mixed,
            "cli_vector": self.cli_vector,
        }

    # -- the stream -------------------------------------------------------

    def _stream(self):
        S = self.S
        CoeffVec = S.CoeffVec
        specs = self.specs
        clock = perf_counter_ns
        lat = []
        out = []
        for i, (idx, vals) in enumerate(self.vectors):
            try:
                v = CoeffVec(idx, vals)
            except Exception as exc:
                out.append(Failed(exc))
                continue
            row = []
            for spec in specs:
                t0 = clock()
                try:
                    b = S.norm(v, spec)
                except Exception as exc:
                    b = Failed(exc)
                lat.append(clock() - t0)
                row.append(b)
            out.append(row)
        self.latencies = lat
        return out

    def _vector_refs(self, i: int):
        idx, vals = self.vectors[i]
        return self._ref(("stream", i), lambda: (
            [None if s.startswith("cesaro") else ref.space_ref(s, idx, vals) for s in STREAM_SPECS],
            ref.cesaro(idx, vals, 2.0),
        ))

    def _check_stream(self, out):
        checks = []
        for i, row in enumerate(out):
            if not ok_value(row):
                checks.append(Check(f"stream:{i}:vector", False, False, row.message))
                continue
            exact, ces = self._vector_refs(i)
            for spec, want, got in zip(STREAM_SPECS, exact, row):
                op = f"stream:{i}:{spec}"
                if want is None:
                    checks.append(check_bracket(op, got, ces, 1e-9, int(self.vectors[i][0][-1])))
                elif not ok_value(got):
                    checks.append(Check(op, False, False, got.message))
                else:
                    checks.append(check_close(op, got.lo, want) if got.lo == got.hi
                                  else Check(op, False, False, "exact family gave a wide bracket"))
        return checks

    def _tight(self):
        S = self.S
        out = []
        for idx, vals in self.tight:
            v = attempt(S.CoeffVec, idx, vals)
            out.append([attempt(S.norm, v, self.tight_spec, tol) if ok_value(v) else v for tol in TIGHT_TOLS])
        return out

    def _check_tight(self, out):
        checks = []
        for i, ((idx, vals), row) in enumerate(zip(self.tight, out)):
            exact = self._ref(("tight", i), lambda: ref.cesaro(idx, vals, 2.0))
            for tol, got in zip(TIGHT_TOLS, row):
                checks.append(check_bracket(f"cesaro-tight:{i}:tol={tol}", got, exact, tol, int(idx[-1])))
        return checks

    def _e1_slice(self):
        S = self.S
        e1 = S.CoeffVec.basis(1)
        return [attempt(S.norm, e1, f"cesaro:p={p!r}", tol) for p in E1_P for tol in E1_TOLS]

    def _check_e1(self, out):
        cases = [(p, tol) for p in E1_P for tol in E1_TOLS]
        return [check_bracket(f"cesaro-e1:p={p}:tol={tol}", got, ref.anchor("cesaro_e1", p), tol, 1)
                for (p, tol), got in zip(cases, out)]

    # -- estimators ---------------------------------------------------------

    def _ratio_ref(self, src: str, dst: str, witness) -> float:
        vals = np.asarray(witness.values, dtype=np.float64)
        idx = np.asarray(witness.indices, dtype=np.int64)
        return ref.space_ref(src, idx, vals) / ref.space_ref(dst, idx, vals)

    def _equiv_job(self, name, src, dst, dim, strategy, samples=200):
        S = self.S
        frozen = ref.FROZEN["equiv"].get(name)

        def run():
            return S.estimate_equivalence(src, dst, dim, strategy=strategy, samples=samples, seed=self.seed)

        def check(rep):
            if src.startswith("tandori"):
                p = float(src.split("=", 1)[1])
                idx = np.asarray(rep.witness.indices)
                vals = np.asarray(rep.witness.values)
                want = ref.tandori(idx, vals * idx ** (-1.0 / p), p) / ref.blocksum(idx, vals, "dyadic", math.inf, p)
            else:
                want = self._ratio_ref(src, dst, rep.witness)
            out = [check_close(f"{name}:witness", rep.empirical_lower, want)]
            if rep.certified_upper is not None:
                out.append(Check(f"{name}:upper", rep.empirical_lower <= rep.certified_upper * (1 + 1e-12)))
            if frozen is not None:
                out.append(check_close(f"{name}:frozen", rep.empirical_lower, frozen))
            else:
                out.append(Check(f"{name}:at-least-1", rep.empirical_lower >= 1.0 - 1e-12))
            return out

        return Job(name, run, check)

    def _uncond_jobs(self):
        S = self.S
        basis = lambda: [S.CoeffVec.basis(k) for k in self.basis_idx]
        mixed = lambda: [S.CoeffVec(i, v) for i, v in self.mixed]

        def run_basis():
            return S.unconditional_constant(basis(), "garling:w=harmonic,p=2", samples=16, seed=self.seed)

        def run_mixed():
            return S.unconditional_constant(mixed(), "lorentz:w=harmonic,p=1", samples=16, seed=self.seed)

        def run_linf():
            return S.linf_equiv_bound(basis(), "lorentz:w=harmonic,p=1", samples=100, seed=self.seed,
                                      k_samples=16)

        def check_linf(rep):
            ones = np.ones(3)
            return [
                Check("linf:passed", rep.passed and rep.failures == 0),
                check_equal("linf:K", rep.K, 1.0),
                check_equal("linf:C", rep.C, 1.0),
                check_close("linf:M", rep.M, ref.lorentz(ones, "harmonic", 1.0)),
            ]

        return [
            Job("uncond-basis", run_basis, lambda k: [check_equal("uncond-basis", k, 1.0)]),
            Job("uncond-mixed", run_mixed,
                lambda k: [Check("uncond-mixed", math.isfinite(k) and k >= 1.0, False, repr(k))]),
            Job("linf", run_linf, check_linf),
        ]

    # -- command line ---------------------------------------------------------

    def _cli(self):
        S = self.S
        argvs = [
            ["norm", "--space", "lorentz:w=harmonic,p=1", "--vector", json.dumps(self.cli_vector)],
            ["equiv", "--from", "lp:p=1", "--to", "lorentz:w=harmonic,p=1", "--dim", "8",
             "--strategy", "family"],
            ["weight", "check", "--weight", "harmonic", "--condition", "summable", "--r", "2",
             "--N", "64"],
        ]
        out = []
        for argv in argvs:
            buf = io.StringIO()
            err = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = attempt(S.cli.main, argv)
            out.append((code, buf.getvalue()))
        return out

    def _check_cli(self, out):
        vals = np.asarray(self.cli_vector)
        checks = []
        wants = [
            lambda d: ref.close(d["lo"], ref.lorentz(vals, "harmonic", 1.0)) and d["lo"] == d["hi"],
            lambda d: ref.close(d["empirical_lower"], ref.FROZEN["equiv"]["cli-equiv-lp1-lorentz1-dim8"]),
            lambda d: ref.close(d["extremum"], math.fsum(1.0 / np.arange(1, 65) ** 2)) and d["verdict"] == "consistent",
        ]
        for n, ((code, text), want) in enumerate(zip(out, wants)):
            try:
                ok = code == 0 and want(json.loads(text))
            except (ValueError, KeyError, TypeError):
                ok = False
            checks.append(Check(f"cli:{n}", ok, False, f"exit {code}: {text[:200]}"))
        return checks

    # -- job list ---------------------------------------------------------------

    def jobs(self) -> list[Job]:
        return [
            Job("stream", self._stream, self._check_stream),
            Job("cesaro-tight", self._tight, self._check_tight),
            Job("cesaro-e1", self._e1_slice, self._check_e1),
            self._equiv_job("equiv-grid-ri", "lorentz:w=harmonic,p=1", "lp:p=2", 3, "grid"),
            self._equiv_job("equiv-grid-tandori", "tandori:p=1",
                            "blocksum:lengths=dyadic,inner=inf,outer=1", 2, "grid"),
            self._equiv_job("equiv-ascent", "lorentz:w=harmonic,p=1", "garling:w=harmonic,p=1", 6,
                            "coordinate-ascent", samples=60),
            *self._uncond_jobs(),
            Job("cli", self._cli, self._check_cli),
            *[run_suite_job(self.S, name) for name in SMALL_SUITES],
        ]

    def phase_metrics(self, times):
        lat = self.latencies
        stream = times["stream"]
        equiv = sum(t for k, t in times.items() if k.startswith(("equiv", "uncond", "linf")))
        return {
            "stream_s": stream,
            "norms_per_s": len(lat) / stream,
            "norm_p50_us": statistics.median(lat) / 1e3,
            "norm_p99_us": statistics.quantiles(lat, n=100)[98] / 1e3,
            "norm_calls": len(lat),
            "equiv_s": equiv,
        }


# ---------------------------------------------------------------------------
# block-scan
# ---------------------------------------------------------------------------

# (name, weight, p, K, levels, role)
BLOCK_CONFIGS = (
    ("deep-h-p1-K1.1", "harmonic", 1.0, 1.1, 4, "deep"),
    ("deep-h-p2-K1.05", "harmonic", 2.0, 1.05, 4, "deep"),
    *[(f"h-p{p:g}-K{K:g}", "harmonic", p, K, 3, "shallow")
      for p in (1.0, 1.5, 2.0) for K in (1.1, 1.2, 1.5)],
    ("pow0.9-p1-K1.5", "power:a=0.9", 1.0, 1.5, 3, "shallow"),
    ("pow0.95-p1-K1.5", "power:a=0.95", 1.0, 1.5, 3, "shallow"),
)
WP_SAMPLES = 50
PROJ_ROWS = 4
BLOCK_SUITES = ("blocks-linf", "blocks-wp", "projection")


class BlockScan(Workload):
    """Block systems from fresh weights: the prefix-sum scan dominates."""

    name = "block-scan"

    def __init__(self, S, seed: int):
        super().__init__(S, seed)
        rng = self.rng
        self.rows = {
            cfg[0]: [[[float(x) for x in rng.uniform(-1.0, 1.0, size=k)] for k in range(1, cfg[4] + 1)]
                     for _ in range(PROJ_ROWS)]
            for cfg in BLOCK_CONFIGS
        }
        self.wp_seed = int(rng.integers(0, 2**31))
        self._warm_weight = None

    def inputs(self):
        return {"configs": BLOCK_CONFIGS, "rows": self.rows, "wp_seed": self.wp_seed}

    def _build(self, w, p, K, levels):
        bs = self.S.find_block_sizes(w, p, K, levels)
        out = {"sizes": [lvl.M for lvl in bs.levels], "c": [lvl.c for lvl in bs.levels]}
        out["certificates"] = [bs.certificate(lvl.k) for lvl in bs.levels]
        out["ratio_at_M_minus_1"] = [
            (w.prefix_sum(lvl.k * (lvl.M - 1)) / w.prefix_sum(lvl.M - 1)) ** (1.0 / p) if lvl.M > 1 else None
            for lvl in bs.levels
        ]
        return bs, out

    def _block_job(self, cfg):
        name, wspec, p, K, levels, _ = cfg
        S = self.S

        def run():
            w = S.make_weight(wspec)
            if cfg is BLOCK_CONFIGS[0]:
                self._warm_weight = w  # rebuilt, cache and all, by the warm job
            bs, out = self._build(w, p, K, levels)
            out["wp"] = S.wp_equivalence_ratios(bs, "lorentz", samples=WP_SAMPLES, seed=self.wp_seed)
            out["projection"] = []
            for rows in self.rows[name]:
                x = S.expand(bs, rows)
                out["projection"].append((x, S.averaging_projection(bs, x)))
            text = bs.to_json()
            out["json"] = (text, S.BlockSystem.from_json(text).to_json())
            return out

        return Job(f"block:{name}", run, lambda out: self._check_block(cfg, out))

    def _check_block(self, cfg, out, full: bool = True):
        name, wspec, p, K, levels, _ = cfg
        sizes = ref.FROZEN["block_sizes"][name]
        checks = [check_equal(f"block:{name}:sizes", out["sizes"], sizes)]
        for k, (M, c, cert, prev) in enumerate(
            zip(sizes, out["c"], out["certificates"], out["ratio_at_M_minus_1"]), start=1
        ):
            s_m = ref.prefix_sum(wspec, M)
            checks.append(check_close(f"block:{name}:c{k}", c, s_m ** (1.0 / p)))
            want = (ref.prefix_sum(wspec, k * M) / s_m) ** (1.0 / p)
            checks.append(Check(f"block:{name}:cert{k}", cert <= K * (1 + 1e-12) and ref.close(cert, want),
                                False, f"{cert!r} vs {want!r}"))
            if M > 1:
                want = (ref.prefix_sum(wspec, k * (M - 1)) / ref.prefix_sum(wspec, M - 1)) ** (1.0 / p)
                checks.append(Check(f"block:{name}:minimal{k}", prev > K and ref.close(prev, want),
                                    False, f"{prev!r} vs {want!r}"))
        if not full:
            return checks
        wp = out["wp"]
        checks.append(Check(f"block:{name}:wp", wp.passed and wp.max_ratio <= K * (1 + 1e-12)
                            and wp.max_ratio >= max(out["certificates"]) * (1 - 1e-12)
                            and wp.cases >= 2 * levels + 1, False, str(wp.to_json_dict())[:200]))
        for j, (x, px) in enumerate(out["projection"]):
            rows = self.rows[name][j]
            want_vals = [a / c for c, row in zip(out["c"], rows) for a in row if a != 0.0]
            same = (px.starts.tolist() == x.starts.tolist() and px.lengths.tolist() == x.lengths.tolist()
                    and px.values.tolist() == x.values.tolist())
            expanded = np.allclose(x.values, want_vals, rtol=1e-15, atol=0.0) and \
                set(x.lengths.tolist()) <= set(sizes)
            checks.append(Check(f"block:{name}:projection{j}", same and expanded))
        text, back = out["json"]
        checks.append(Check(f"block:{name}:json", text == back))
        return checks

    def _warm_job(self):
        cfg = BLOCK_CONFIGS[0]
        _, _, p, K, levels, _ = cfg

        def run():
            if self._warm_weight is None:
                raise RuntimeError("the deep job that fills the cache did not run")
            return self._build(self._warm_weight, p, K, levels)[1]

        return Job("block:warm-rebuild", run, lambda out: self._check_block(cfg, out, full=False))

    def jobs(self) -> list[Job]:
        return [
            *[self._block_job(cfg) for cfg in BLOCK_CONFIGS],
            self._warm_job(),
            *[run_suite_job(self.S, name) for name in BLOCK_SUITES],
        ]

    def phase_metrics(self, times):
        deep = [times[f"block:{c[0]}"] for c in BLOCK_CONFIGS if c[5] == "deep"]
        shallow = [times[f"block:{c[0]}"] for c in BLOCK_CONFIGS if c[5] == "shallow"]
        return {
            "block_deep_s": sum(deep),
            "block_shallow_s": statistics.median(shallow),
        }


# ---------------------------------------------------------------------------
# large-support
# ---------------------------------------------------------------------------

LARGE_SIZES = (1_000, 10_000, 100_000)
LARGE_SPECS = (
    ("lp:p=2", 1e-9),
    ("lorentz:w=harmonic,p=1", 1e-9),
    ("tandori:p=1", 1e-9),
    ("blocksum:lengths=dyadic,inner=inf,outer=2", 1e-9),
    ("blocksum:lengths=triangular,inner=2,outer=1", 1e-9),
    ("cesaro:p=2", 1e-9),
    ("cesaro:p=2", 1e-12),
    ("garling:w=harmonic,p=1", 1e-9),  # O(m^2): run at 1e3 and 1e4 only
)
GARLING_MAX = 10_000
BASES_P = 2.0
G_CESARO_K = 50
ZETA_CASES = ((1.01, 1e-12), (1.01, 1e-13), (1.1, 1e-12), (1.1, 1e-14), (1.5, 1e-14),
              (2.0, 1e-14), (2.0, 1e-15), (3.0, 1e-15), (4.0, 1e-15))
LARGE_SUITES = ("duality", "weight-profiles")


class LargeSupport(Workload):
    """A few large inputs: per-element work in norms, bases and weights."""

    name = "large-support"

    def __init__(self, S, seed: int):
        super().__init__(S, seed)
        rng = self.rng
        self.vectors = {}
        for m in LARGE_SIZES:
            idx = np.sort(rng.choice(4 * m, size=m, replace=False)) + 1
            vals = rng.standard_normal(m) * float(np.exp(rng.uniform(-1.0, 1.0)))
            self.vectors[m] = (idx.astype(np.int64), vals)

    def inputs(self):
        return {"vectors": self.vectors}

    def _specs_for(self, m):
        return [(s, tol) for s, tol in LARGE_SPECS if not (s.startswith("garling") and m > GARLING_MAX)]

    def _large_norms(self):
        S = self.S
        out = {}
        for m, (idx, vals) in self.vectors.items():
            v = attempt(S.CoeffVec, idx, vals)
            out[m] = [attempt(S.norm, v, spec, tol) if ok_value(v) else v for spec, tol in self._specs_for(m)]
        return out

    def _check_large_norms(self, out):
        checks = []
        for m, row in out.items():
            idx, vals = self.vectors[m]
            for (spec, tol), got in zip(self._specs_for(m), row):
                op = f"large:{m}:{spec}:tol={tol}"
                if spec.startswith("cesaro"):
                    exact = self._ref(("cesaro", m), lambda: ref.cesaro(idx, vals, 2.0))
                    checks.append(check_bracket(op, got, exact, tol, int(idx[-1])))
                elif not ok_value(got):
                    checks.append(Check(op, False, False, got.message))
                else:
                    want = self._ref((spec, m), lambda: ref.space_ref(spec, idx, vals))
                    checks.append(check_close(op, got.lo, want))
        return checks

    def _bases(self):
        S = self.S
        out = {}
        for m, (idx, vals) in self.vectors.items():
            a = S.CoeffVec(idx, vals)
            raw = attempt(S.f_coeffs_to_raw, a, BASES_P)
            layered = attempt(lambda: S.embed_tandori_lpc0(a, BASES_P).norm(BASES_P))
            vp = attempt(S.tandori_vp_check, a, BASES_P)
            out[m] = (raw, layered, vp)
        out["g"] = [attempt(S.g_norm_in_cesaro, k, 2.0) for k in range(1, G_CESARO_K + 1)]
        return out

    def _check_bases(self, out):
        checks = []
        p = BASES_P
        for m in LARGE_SIZES:
            idx, vals = self.vectors[m]
            raw, layered, vp = out[m]
            want_raw = vals * idx.astype(np.float64) ** (-1.0 / p)
            ok = ok_value(raw) and np.array_equal(raw.indices, idx) and \
                np.allclose(raw.values, want_raw, rtol=1e-14, atol=0.0)
            checks.append(Check(f"bases:{m}:f_coeffs_to_raw", ok))
            t = self._ref(("tandori-raw", m), lambda: ref.tandori(idx, want_raw, p))
            u = self._ref(("dyadic-sup", m), lambda: ref.blocksum(idx, vals, "dyadic", math.inf, p))
            checks.append(check_close(f"bases:{m}:layered", layered, t))
            if ok_value(vp):
                checks.append(Check(f"bases:{m}:vp", vp.passed and ref.close(vp.t, t) and ref.close(vp.u, u)))
            else:
                checks.append(Check(f"bases:{m}:vp", False, False, vp.message))
        for k, got in enumerate(out["g"], start=1):
            exact = self._ref(("g", k), lambda: ref.mpmath.sqrt(k) * ref.mpmath.sqrt(ref.mpmath.zeta(2, k)))
            checks.append(check_bracket(f"bases:g_norm_in_cesaro:{k}", got, exact, 1e-9, k))
        return checks

    def _weight_jobs(self):
        S = self.S
        n = 1 << 20

        def nuc_check(spec, verdict):
            def check(rep):
                want = ref.prefix_sum(spec, 2 * n) / ref.prefix_sum(spec, n)
                return [check_close(f"nuc:{spec}:min", rep.extremum, want),
                        check_equal(f"nuc:{spec}:arg", rep.arg_extremum, n),
                        check_equal(f"nuc:{spec}:verdict", rep.verdict, verdict)]
            return check

        def check_2sb(rep):
            return [check_equal("2sb:sup", rep.extremum, 1.0),
                    check_equal("2sb:arg", tuple(rep.arg_extremum), (1, 1))]

        def check_summable(rep):
            want = float(ref.mpmath.zeta(2) - ref.mpmath.zeta(2, n + 1))
            return [check_close("summable:partial", rep.extremum, want),
                    check_equal("summable:verdict", rep.verdict, "consistent")]

        return [
            Job("check-nuc-harmonic", lambda: S.check_nuc(S.make_weight("harmonic"), n),
                nuc_check("harmonic", "consistent")),
            Job("check-nuc-power", lambda: S.check_nuc(S.make_weight("power:a=0.5"), n),
                nuc_check("power:a=0.5", "inconclusive")),
            Job("check-2sb", lambda: S.check_2sb(S.make_weight("harmonic"), 1000), check_2sb),
            Job("check-summable", lambda: S.check_summable(S.make_weight("harmonic"), 2.0, n),
                check_summable),
        ]

    def _zeta(self):
        S = self.S
        return [attempt(S.zeta_bracket, s, width) for s, width in ZETA_CASES]

    def _check_zeta(self, out):
        checks = []
        for (s, width), got in zip(ZETA_CASES, out):
            checks.append(check_bracket(f"zeta:{s}:width={width}", got, ref.anchor("zeta", s), width,
                                        relative=False))
        return checks

    def jobs(self) -> list[Job]:
        return [
            Job("large-norms", self._large_norms, self._check_large_norms),
            Job("bases", self._bases, self._check_bases),
            *self._weight_jobs(),
            Job("zeta", self._zeta, self._check_zeta),
            *[run_suite_job(self.S, name) for name in LARGE_SUITES],
        ]

    def phase_metrics(self, times):
        main = times["large-norms"] + times["bases"]
        weights = sum(t for k, t in times.items() if k.startswith("check-"))
        return {"large_norm_s": main, "weight_check_s": weights}


WORKLOADS = {w.name: w for w in (SmallVectors, BlockScan, LargeSupport)}
