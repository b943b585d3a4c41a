"""Span tracing of seqspaces from outside the package.

``Tracer.install()`` replaces every traced function at each module binding
where it appears (``seqspaces.norm``, ``seqspaces.norms.norm``,
``seqspaces.constants.norm``, ...) and every traced method on its class by a
wrapper that records one span per call: function, parent span, start and end
in nanoseconds, and an optional label taken from the arguments.
``uninstall()`` puts the originals back.  Spans stay in memory until
``write()`` dumps them; ``layer_metrics()`` turns them into per-layer numbers.

A traced name that the program no longer defines is listed in ``absent``
instead of raising, so the benchmark keeps running across refactors.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import weakref
from time import perf_counter_ns

# Module file name -> layer name used in metric names.
LAYERS = {
    "vectors": "vectors",
    "sampling": "sampling",
    "norms": "norms",
    "series": "series",
    "weights": "weights",
    "_kernels": "kernels",
    "blocks": "blocks",
    "constants": "constants",
    "bases": "bases",
    "suites": "suites",
    "cli": "cli",
}

# (module, qualified name) of every traced callable.  Per-element helpers
# such as f_scale are left out: a span per element would dwarf the work.
TARGETS = (
    ("vectors", "CoeffVec.__post_init__"),
    ("vectors", "CoeffVec.from_dense"),
    ("vectors", "CoeffVec.from_pairs"),
    ("vectors", "RunVec.__post_init__"),
    ("vectors", "RunVec.to_coeffvec"),
    ("vectors", "RunVec.from_coeffvec"),
    ("vectors", "add_coeffvecs"),
    ("vectors", "parse_vector_json"),
    ("sampling", "rng_for"),
    ("sampling", "random_coeffvec"),
    ("sampling", "random_nonincreasing"),
    ("norms", "parse_space"),
    ("norms", "norm"),
    ("norms", "lp_norm"),
    ("norms", "lorentz_norm"),
    ("norms", "garling_norm"),
    ("norms", "garling_norm_bruteforce"),
    ("norms", "tandori_norm"),
    ("norms", "cesaro_norm"),
    ("norms", "blocksum_norm"),
    ("norms", "epw_norm"),
    ("norms", "lorentz_norm_runs"),
    ("norms", "garling_norm_runs"),
    ("series", "power_tail_bracket"),
    ("series", "zeta_bracket"),
    ("weights", "make_weight"),
    ("weights", "Weight.prefix_sum"),
    ("weights", "Weight.prefix_sums_range"),
    ("weights", "check_nuc"),
    ("weights", "check_2sb"),
    ("weights", "check_summable"),
    ("_kernels", "kahan_scan"),
    ("_kernels", "kahan_state"),
    ("_kernels", "garling_subset_max"),
    ("blocks", "find_block_sizes"),
    ("blocks", "BlockSystem.certificate"),
    ("blocks", "BlockSystem.to_json"),
    ("blocks", "BlockSystem.from_json"),
    ("blocks", "expand"),
    ("blocks", "wp_norm"),
    ("blocks", "warm_prefix_sums"),
    ("blocks", "wp_equivalence_ratios"),
    ("blocks", "averaging_projection"),
    ("blocks", "fdd_block_check"),
    ("constants", "holder_domination"),
    ("constants", "unconditional_constant"),
    ("constants", "linf_equiv_bound"),
    ("constants", "estimate_equivalence"),
    ("bases", "f_coeffs_to_raw"),
    ("bases", "g_vector"),
    ("bases", "duality_pair"),
    ("bases", "g_norm_in_cesaro"),
    ("bases", "embed_tandori_lpc0"),
    ("bases", "LayeredVec.norm"),
    ("bases", "tandori_vp_check"),
    ("suites", "run_suite"),
    ("cli", "main"),
)


def _family(space) -> str:
    return space.family if hasattr(space, "family") else str(space).split(":", 1)[0].strip()


def _size(v) -> int:
    return len(getattr(v, "indices", ()))


class _IndexTracker:
    """Sum over Weight objects of the largest prefix-sum index each was asked for."""

    def __init__(self):
        self.live: dict[int, int] = {}
        self.closed = 0

    def note(self, w, n) -> None:
        key = id(w)
        cur = self.live.get(key)
        if cur is None:
            self.live[key] = int(n)
            weakref.finalize(w, self._close, key)
        elif n > cur:
            self.live[key] = int(n)

    def _close(self, key: int) -> None:
        self.closed += self.live.pop(key, 0)

    def total(self) -> int:
        return self.closed + sum(self.live.values())


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []  # function id -> "layer:qualname"
        self.spans: list = []  # (fid, parent, t0_ns, t1_ns, label)
        self.stack: list[int] = []
        self.index = _IndexTracker()
        self.absent: list[str] = []
        self._restore: list = []

    # -- spans ----------------------------------------------------------

    def _fid(self, layer: str, qualname: str) -> int:
        self.names.append(f"{layer}:{qualname}")
        return len(self.names) - 1

    def _labeller(self, qualname: str):
        index = self.index
        if qualname == "norm":
            return lambda a, k: (_family(a[1] if len(a) > 1 else k["space"]), _size(a[0]))
        if qualname == "run_suite":
            return lambda a, k: a[0] if a else k["name"]
        if qualname == "Weight.prefix_sum":
            def label(a, k):
                n = a[1] if len(a) > 1 else k["n"]
                index.note(a[0], n)
                return None
            return label
        if qualname == "Weight.prefix_sums_range":
            def label(a, k):
                lo, hi = (a[1], a[2]) if len(a) > 2 else (k["lo"], k["hi"])
                index.note(a[0], hi)
                return int(hi) - int(lo) + 1
            return label
        if qualname in ("kahan_scan", "kahan_state", "garling_subset_max"):
            return lambda a, k: int(len(a[0]))
        return None

    def _wrap(self, fid: int, fn, labeller):
        spans, stack, clock = self.spans, self.stack, perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            label = labeller(args, kwargs) if labeller is not None else None
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (fid, parent, t0, t1, label)

        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a benchmark-side span (layer ``bench``) around the block."""
        fid = self._fid("bench", name)
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self.stack.pop()
            self.spans[sid] = (fid, parent, t0, t1, None)

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        pkg = self.package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        for modname, qualname in TARGETS:
            mod = sys.modules.get(f"{pkg}.{modname}")
            layer = LAYERS[modname]
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                cls = getattr(mod, cls_name, None) if mod else None
                raw = cls.__dict__.get(attr) if cls is not None else None
                if raw is None:
                    self.absent.append(f"{modname}.{qualname}")
                    continue
                fid = self._fid(layer, qualname)
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(fid, raw.__func__, self._labeller(qualname)))
                else:
                    new = self._wrap(fid, raw, self._labeller(qualname))
                setattr(cls, attr, new)
                self._restore.append((cls, attr, raw))
                continue
            orig = getattr(mod, qualname, None) if mod else None
            if orig is None or not callable(orig):
                self.absent.append(f"{modname}.{qualname}")
                continue
            fid = self._fid(layer, qualname)
            wrapper = self._wrap(fid, orig, self._labeller(qualname))
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- output ---------------------------------------------------------

    def write(self, path) -> None:
        """One JSON line per span: id, parent, name, start_ns, end_ns, label."""
        with open(path, "w") as fh:
            for sid, (fid, parent, t0, t1, label) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, self.names[fid], t0, t1, label]) + "\n")

    def layer_metrics(self) -> dict:
        return _aggregate(self)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

NORM_FAMILIES = ("lp", "lorentz", "garling", "cesaro", "tandori", "blocksum", "epw")
LARGE_SIZES = {10_000: "1e4", 100_000: "1e5"}
SUITES = (
    "garling-oracle", "lorentz-oracle", "tandori-vp", "embed-isometry", "norm-axioms",
    "fdd", "holder", "blocks-linf", "blocks-wp", "projection", "duality", "weight-profiles",
)


# The per-layer metrics the result line carries (BENCHMARK.json "per_layer"):
# every count, and the times that are measured on all three workloads.  The
# report line carries the whole table, zeros for layers a workload skips.
RESULT_METRICS = {
    **{f"{layer}.calls": "count" for layer in sorted(set(LAYERS.values()))},
    "vectors.self_s": "s",
    "norms.self_s": "s",
    "weights.self_s": "s",
    "kernels.self_s": "s",
    "suites.self_s": "s",
    "weights.point_calls": "count",
    "weights.range_calls": "count",
    "weights.range_terms": "count",
    "weights.max_index": "count",
    "kernels.kahan_terms": "count",
    "kernels.kahan_s": "s",
    "kernels.kahan_ns_per_term": "ns",
    "kernels.scan_waste": "ratio",
    "kernels.subset_calls": "count",
    "kernels.subset_masks": "count",
    "constants.norm_calls": "count",
    "cli.import_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _p50(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _aggregate(tr: Tracer) -> dict:
    names = tr.names
    layer_of = [n.split(":", 1)[0] for n in names]
    qual_of = [n.split(":", 1)[1] for n in names]
    spans = tr.spans
    child = [0] * len(spans)
    for fid, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0

    layers = sorted(set(LAYERS.values()))
    calls = dict.fromkeys(layers, 0)
    self_ns = dict.fromkeys(layers, 0)
    incl_ns: dict[str, int] = {}
    under_constants = [False] * len(spans)
    suite_ns = dict.fromkeys(SUITES, 0)
    fam_small: dict[str, list] = {f: [] for f in NORM_FAMILIES}
    fam_large: dict[tuple, int] = {}
    cli_main: list[int] = []
    kahan_terms = kahan_ns = kahan_weight_terms = 0
    subset_calls = subset_masks = subset_ns = 0
    point_calls = range_calls = range_terms = 0
    constants_norms = 0

    for sid, (fid, parent, t0, t1, label) in enumerate(spans):
        dur = t1 - t0
        layer, q = layer_of[fid], qual_of[fid]
        pq = qual_of[spans[parent][0]] if parent >= 0 else ""
        if parent >= 0:
            under_constants[sid] = under_constants[parent] or layer_of[spans[parent][0]] == "constants"
        if layer == "bench":
            continue
        calls[layer] += 1
        self_ns[layer] += dur - child[sid]
        incl_ns[q] = incl_ns.get(q, 0) + dur
        if q == "norm":
            family, size = label
            if under_constants[sid]:
                constants_norms += 1
            if pq == "job:stream" and family in fam_small:
                fam_small[family].append(dur)
            if pq == "job:large-norms" and size in LARGE_SIZES:
                key = (family, LARGE_SIZES[size])
                fam_large[key] = fam_large.get(key, 0) + dur
        elif q == "run_suite" and label in suite_ns:
            suite_ns[label] += dur
        elif q == "main" and layer == "cli":
            cli_main.append(dur)
        elif q in ("kahan_scan", "kahan_state"):
            kahan_terms += label
            kahan_ns += dur
            if pq.startswith("Weight."):
                kahan_weight_terms += label
        elif q == "garling_subset_max":
            subset_calls += 1
            subset_masks += (1 << label) - 1
            subset_ns += dur
        elif q == "Weight.prefix_sum":
            point_calls += 1
        elif q == "Weight.prefix_sums_range":
            range_calls += 1
            range_terms += label

    def s(*quals) -> float:
        return sum(incl_ns.get(q, 0) for q in quals) / 1e9

    max_index = tr.index.total()
    out: dict[str, float] = {}
    for layer in layers:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_ns[layer] / 1e9
    for f in NORM_FAMILIES:
        out[f"norms.{f}.p50_us"] = _p50(fam_small[f]) / 1e3
    for f in NORM_FAMILIES:
        for tag in LARGE_SIZES.values():
            out[f"norms.{f}.large_ms.{tag}"] = fam_large.get((f, tag), 0) / 1e6
    out["norms.runs_s"] = s("lorentz_norm_runs", "garling_norm_runs")
    out["norms.bruteforce_s"] = s("garling_norm_bruteforce")
    out["weights.point_calls"] = point_calls
    out["weights.range_calls"] = range_calls
    out["weights.range_terms"] = range_terms
    out["weights.max_index"] = max_index
    out["kernels.kahan_terms"] = kahan_terms
    out["kernels.kahan_s"] = kahan_ns / 1e9
    out["kernels.kahan_ns_per_term"] = kahan_ns / kahan_terms if kahan_terms else 0.0
    out["kernels.scan_waste"] = kahan_weight_terms / max_index if max_index else 0.0
    out["kernels.subset_calls"] = subset_calls
    out["kernels.subset_masks"] = subset_masks
    out["kernels.subset_s"] = subset_ns / 1e9
    out["blocks.find_s"] = s("find_block_sizes")
    out["blocks.wp_ratios_s"] = s("wp_equivalence_ratios")
    out["blocks.projection_s"] = s("averaging_projection")
    out["constants.equiv_s"] = s("estimate_equivalence")
    out["constants.uncond_s"] = s("unconditional_constant")
    out["constants.holder_s"] = s("holder_domination")
    out["constants.norm_calls"] = constants_norms
    out["bases.embed_s"] = s("embed_tandori_lpc0", "LayeredVec.norm")
    out["bases.vp_check_s"] = s("tandori_vp_check")
    out["bases.g_cesaro_s"] = s("g_norm_in_cesaro")
    for name in SUITES:
        out[f"suites.{name}_s"] = suite_ns[name] / 1e9
    out["cli.main_us"] = _p50(cli_main) / 1e3
    out["trace.spans"] = len(spans)
    return out
