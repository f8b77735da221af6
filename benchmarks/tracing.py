"""Per-layer spans and counts, installed from outside the polyident package.

Every public function of each layer module is wrapped once, and the
wrapper replaces the original at every binding site: the defining module,
every other polyident module that imported the name directly
(``from .racah import racah_eval`` and the like), and module-level dicts
that hold it (dispatch tables).  A few methods are wrapped on their
class.  Spans are aggregated in memory per name as (calls, total
seconds, self seconds), where self time is a span minus the
spans it directly encloses; the functions called on a node-cache miss are
also counted per calling span.  The root span is the timed verify region,
so the self times of all spans plus the root's own self time
(``unattributed_s``) add up to the traced ``verify_s``.

A name the metrics refer to that no longer exists is listed as missing
and its metrics read 0; the trace never fails because code moved.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

PACKAGE = "polyident"

#: layer modules, in the order the pipeline reaches them
LAYERS = (
    "exact",
    "classical",
    "racah",
    "dual_addition",
    "addition",
    "hermite_limit",
    "continuous",
    "quadrature",
    "suites",
    "report",
)

#: span name -> (module, class, method) for methods wrapped on their class
METHODS = {
    "exact.UniPoly_mul": ("exact", "UniPoly", "__mul__"),
    "exact.SurdPoly_mul": ("exact", "SurdPoly", "__mul__"),
    "continuous.WilsonContext_weight": ("continuous", "WilsonContext", "weight"),
    "continuous.WilsonContext_poly": ("continuous", "WilsonContext", "poly"),
    "continuous.WilsonContext_phi_node": ("continuous", "WilsonContext", "phi_node"),
}

#: span name -> reported fields, from "calls" and "self_s"
SPAN_METRICS = {
    "exact.pochhammer": ("calls", "self_s"),
    "exact.UniPoly_mul": ("calls", "self_s"),
    "exact.SurdPoly_mul": ("calls", "self_s"),
    "exact.poch_quotient": ("calls", "self_s"),
    "exact.terminating_hyp": ("calls", "self_s"),
    "classical.even_moment": ("calls", "self_s"),
    "classical.inner_product": ("calls", "self_s"),
    "racah.racah_eval": ("calls", "self_s"),
    "dual_addition.s_direct": ("calls", "self_s"),
    "dual_addition.whipple_proportionality": ("self_s",),
    "dual_addition.dual_addition_term": ("calls", "self_s"),
    "dual_addition.linearization_coeff": ("self_s",),
    "addition.addition_residual": ("self_s",),
    "addition.product_formula_residual": ("self_s",),
    "hermite_limit.hermite_dual_addition_residual": ("self_s",),
    "hermite_limit.hermite_dual_inverse_residual": ("self_s",),
    "hermite_limit.biorthogonality_value": ("self_s",),
    "hermite_limit.limit_rate_check": ("self_s",),
    "continuous.gauss_2f1": ("calls", "self_s"),
    "continuous.log_gamma": ("calls", "self_s"),
    "continuous.wilson_weight": ("calls",),
    "continuous.wilson_poly": ("calls", "self_s"),
    "continuous.phi": ("calls",),
    "suites.run_task": ("self_s",),
}

#: metric name -> lru-cached function whose cache_info() gives the ratio
CACHE_METRICS = {
    "classical.gegenbauer_r.hit_ratio": "classical.gegenbauer_r",
    "racah.racah_eval.hit_ratio": "racah.racah_eval",
    "racah.racah_weight.hit_ratio": "racah.racah_weight",
}

#: metric name -> (cached span, span called on a miss): 1 - misses / lookups
NODE_CACHE_METRICS = {
    "continuous.weight_cache.hit_ratio": (
        "continuous.WilsonContext_weight", "continuous.wilson_weight"),
    "continuous.phi_node_cache.hit_ratio": (
        "continuous.WilsonContext_phi_node", "continuous.phi"),
}

#: spans whose calls are also counted per calling span
_BY_CALLER = {miss for _, miss in NODE_CACHE_METRICS.values()}

#: identities whose summed task time is reported
IDENTITIES = (
    "eq7", "eq6", "eq8", "eq16", "eq13", "eq58", "whipple", "eq45", "eq40",
    "eq46", "eq47", "eq48-corrected", "eq40-to-eq46", "eq42", "eq21",
)

INTEGRAL = "quadrature.self_refining_integral"
INTEGRAND = "quadrature.integrand"
RUN_TASK = "suites.run_task"
EMIT = "report.emit_json_lines"
ROOT = "(root)"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.callers: dict[str, dict[str, int]] = {}  # name -> caller -> calls, for _BY_CALLER
        self.task_spans: list[tuple[str, float]] = []  # (identity id, seconds)
        self.cutoff_max = 0.0
        self.caches: dict[str, object] = {}  # name -> lru-cached original
        self.missing: list[str] = []
        self.root_s = 0.0
        self.unattributed_s = 0.0
        self._stack = [[ROOT, 0.0]]  # frames: [name, seconds in child spans]

    def span(self, name: str, fn, on_exit=None):
        """Wrap ``fn`` so each call is a span called ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        callers = self.callers.setdefault(name, {}) if name in _BY_CALLER else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if callers is not None:
                callers[parent[0]] = callers.get(parent[0], 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if on_exit is not None:
                    on_exit(args, elapsed)

        return traced

    def run_root(self, fn):
        """Run ``fn`` as the root span; its self time is ``unattributed_s``."""
        root = self._stack[0]
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.root_s = time.perf_counter() - start
            self.unattributed_s = self.root_s - root[1]

    # -- special spans

    def _record_task(self, args, elapsed):
        identity = args[0] if args and isinstance(args[0], str) else "?"
        self.task_spans.append((identity, elapsed))

    def _record_node(self, args, elapsed):
        if args:
            self.cutoff_max = max(self.cutoff_max, abs(float(args[0])))

    def _counting_integral(self, fn):
        """Wrap the quadrature entry so each integrand evaluation is a span."""

        @functools.wraps(fn)
        def integral(f, *args, **kwargs):
            return fn(self.span(INTEGRAND, f, self._record_node), *args, **kwargs)

        return integral

    # -- installation

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                self.missing.append(f"{PACKAGE}.{layer}")
                continue
            for attr, obj in list(vars(module).items()):
                if not _is_public_function(attr, obj, module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if hasattr(obj, "cache_info"):
                    self.caches[name] = obj
                fn = self._counting_integral(obj) if name == INTEGRAL else obj
                on_exit = self._record_task if name == RUN_TASK else None
                wrapper = self.span(name, fn, on_exit)
                for other in modules:
                    for other_attr, value in list(vars(other).items()):
                        if value is obj:
                            setattr(other, other_attr, wrapper)
                        elif isinstance(value, dict):  # dispatch tables
                            for key, entry in list(value.items()):
                                if entry is obj:
                                    value[key] = wrapper
        for name, (layer, cls_name, method) in METHODS.items():
            cls = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), cls_name, None)
            fn = inspect.getattr_static(cls, method, None) if cls is not None else None
            if not inspect.isfunction(fn):
                self.missing.append(name)
                continue
            setattr(cls, method, self.span(name, fn))
        wanted = set(SPAN_METRICS) | set(CACHE_METRICS.values()) | {INTEGRAL, RUN_TASK, EMIT}
        for pair in NODE_CACHE_METRICS.values():
            wanted.update(pair)
        self.missing.extend(sorted(n for n in wanted if n not in self.stats
                                   and n not in self.missing))

    # -- results

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics that one traced process can measure."""

        def stat(name):  # (calls, total_s, self_s)
            return self.stats.get(name, (0, 0.0, 0.0))

        out: dict[str, tuple[float, str]] = {}
        for name, fields in SPAN_METRICS.items():
            n, _, self_s = stat(name)
            if "calls" in fields:
                out[f"{name}.calls"] = (n, "count")
            if "self_s" in fields:
                out[f"{name}.self_s"] = (self_s, "s")
        for metric, name in CACHE_METRICS.items():
            info = self.caches[name].cache_info() if name in self.caches else None
            lookups = info.hits + info.misses if info else 0
            out[metric] = (info.hits / lookups if lookups else 0.0, "ratio")
        for metric, (cached, miss) in NODE_CACHE_METRICS.items():
            lookups = stat(cached)[0]
            misses = self.callers.get(miss, {}).get(cached, 0)
            out[metric] = (1 - misses / lookups if lookups else 0.0, "ratio")

        integrals, nodes = stat(INTEGRAL)[0], stat(INTEGRAND)[0]
        out["quadrature.integrals"] = (integrals, "count")
        out["quadrature.self_s"] = (stat(INTEGRAL)[2], "s")
        out["quadrature.nodes"] = (nodes, "count")
        out["quadrature.nodes_per_integral"] = (nodes / integrals if integrals else 0.0, "count")
        out["quadrature.cutoff_max"] = (self.cutoff_max, "nu")

        task_ms = sorted(s * 1000 for _, s in self.task_spans)
        out["suites.task_ms.p50"] = (_quantile(task_ms, 0.50), "ms")
        out["suites.task_ms.p99"] = (_quantile(task_ms, 0.99), "ms")
        out["suites.task_ms.max"] = (task_ms[-1] if task_ms else 0.0, "ms")
        by_identity: dict[str, float] = {}
        for identity, seconds in self.task_spans:
            by_identity[identity] = by_identity.get(identity, 0.0) + seconds * 1000
        for identity in IDENTITIES:
            out[f"suites.identity_ms.{identity}"] = (by_identity.get(identity, 0.0), "ms")
        out["report.emit_s"] = (stat(EMIT)[1], "s")

        for layer in LAYERS:
            prefix = layer + "."
            out[f"layer_self_s.{layer}"] = (
                sum(s[2] for n, s in self.stats.items() if n.startswith(prefix)), "s")
        spans = sum(s[0] for s in self.stats.values())
        out["trace.spans"] = (spans, "count")
        out["trace.overhead_est_s"] = (spans * _span_cost_s(), "s")
        out["trace.verify_s"] = (self.root_s, "s")
        out["trace.unattributed_s"] = (self.unattributed_s, "s")
        out["trace.missing_names"] = (len(self.missing), "count")
        return out

    def top_spans(self, count: int = 12) -> list[tuple[str, int, float]]:
        ranked = sorted(self.stats.items(), key=lambda item: -item[1][2])
        return [(name, s[0], s[2]) for name, s in ranked[:count] if s[0]]


def _span_cost_s(calls: int = 100_000) -> float:
    """Seconds a span adds to one call, measured on a no-op function."""

    def noop():
        return None

    traced = Tracer().span("noop", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(calls):
        traced()
    return (clock() - start - bare) / calls


def _is_public_function(attr: str, obj, module_name: str) -> bool:
    if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
        return False
    if getattr(obj, "__module__", None) != module_name:
        return False  # imported from elsewhere: wrapped where it is defined
    return not inspect.isgeneratorfunction(inspect.unwrap(obj))


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]
