"""Per-layer tracing for the benchmark's traced run, applied from outside.

``Tracer(pkg)`` wraps, in the running process:

* every public function of the package's modules, at every module
  attribute that refers to it, so calls through a module (``genus0.b0_prime``
  from ``genus1_boundary``) and names imported into another module
  (``stable_set_partitions`` in ``genus1_fiber``) are both caught;
* the series-level ``SymSeries`` methods, at class level.

Each wrapped call records a span (name, start, end, parent) in memory.
The hot ``MotiveClass`` methods are called hundreds of thousands of times,
so they only count calls.  ``report()`` turns spans into call counts,
inclusive seconds (``.s``) and self seconds (``.self_s``: a span's time
less the time its child spans cover) per wrapped name and per module,
reads ``cache_info()`` of every cached function for its misses, and
measures the largest a0 and b0' series built.  ``write_spans()`` saves the raw spans when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time

MODULES = (
    "motive",
    "combinatorics",
    "symfunc",
    "genus0",
    "genus1_boundary",
    "genus1_fiber",
    "pipeline",
    "verification",
    "cli",
)

# SymSeries methods that build or export a series; the cheap accessors
# (coefficient, items, is_zero, ...) stay unwrapped.
SERIES_METHODS = {
    "plethysm": "plethysm",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "add",
    "__sub__": "sub",
    "__neg__": "neg",
    "__eq__": "eq",
    "scaled": "scaled",
    "p_derivative": "p_derivative",
    "alt": "alt",
    "truncate": "truncate",
    "zero_extended": "zero_extended",
    "degree_terms": "degree_terms",
    "inner": "inner",
    "tate_layer": "tate_layer",
    "sign_twist": "sign_twist",
    "dimension": "dimension",
    "to_schur": "to_schur",
    "to_json": "to_json",
}

MOTIVE_METHODS = {
    "__init__": "init",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "adams": "adams",
}

# Series whose size the report measures at the largest degree built.
SIZED = ("genus0.a0_series", "genus0.b0_prime")

# The per-layer metrics NOTES.md's prediction table names.  A traced run
# prints all of them; BENCHMARK.json lists those never 0 by construction
# plus the counts (NOTES.md says why).
NAMED_LAYERS = (
    "symfunc.plethysm.s", "symfunc.plethysm.calls", "symfunc.mul.s", "symfunc.mul.calls",
    "motive.mul.calls", "motive.add.calls", "motive.init.calls", "motive.adams.calls",
    "genus0.b0_prime.self_s", "genus0.b0_prime.solves",
    "genus1_boundary.boundary_alt.self_s", "genus1_boundary.boundary_alt.solves",
    "genus1_boundary.necklace_series.self_s", "genus1_boundary.correction_series.self_s",
    "genus0.a0_series.self_s", "genus0.twisted_count_poly.misses", "genus0.derivatives.self_s",
    "genus1_fiber.graded_traces.self_s", "genus1_fiber.graded_traces.misses",
    "genus1_fiber.alternating_component.self_s", "genus1_fiber.ec_open_stratum.self_s",
    "combinatorics.stable_set_partitions.s",
    "symfunc.to_json.s", "cli.main.self_s", "cli.out_bytes",
    "verification.check_secondary_oracles.s", "pipeline.main_theorem.self_s",
    "series.terms", "series.max_L_degree", "series.max_den_bits",
)


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or inspect.isclass(obj):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


class Tracer:
    def __init__(self, pkg):
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.counters: dict[str, itertools.count] = {}
        self.cached: dict[str, object] = {}
        self.largest: dict[str, object] = {}
        self._install(pkg)

    # -- wrapping ------------------------------------------------------

    def _spanned(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, stack[-1])

        return wrapper

    def _counted(self, name: str, fn):
        tick = self.counters.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def _keep_largest(self, name: str, fn):
        largest = self.largest

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            best = largest.get(name)
            if best is None or result.max_degree > best.max_degree:
                largest[name] = result
            return result

        return wrapper

    def _install(self, pkg):
        mods = [getattr(pkg, m) for m in MODULES]
        loaded = [m for k, m in sys.modules.items()
                  if k == pkg.__name__ or k.startswith(pkg.__name__ + ".")]
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            for fname, fn in list(_public_functions(mod)):
                name = f"{short}.{fname}"
                if hasattr(fn, "cache_info"):
                    self.cached[name] = fn
                wrapped = self._spanned(name, fn)
                if name in SIZED:
                    wrapped = self._keep_largest(name, wrapped)
                for other in loaded:
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, attr, wrapped)
        series = pkg.symfunc.SymSeries
        for meth, short in SERIES_METHODS.items():
            setattr(series, meth, self._spanned(f"symfunc.{short}", vars(series)[meth]))
        motive = pkg.motive.MotiveClass
        for meth, short in MOTIVE_METHODS.items():
            setattr(motive, meth, self._counted(f"motive.{short}.calls", vars(motive)[meth]))

    # -- reporting -----------------------------------------------------

    def report(self, out_bytes: int, wall_s: float) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(self.names, 0)
        total = dict.fromkeys(self.names, 0.0)
        own = dict.fromkeys(self.names, 0.0)
        for i, (nid, start, end, parent) in enumerate(spans):
            name = self.names[nid]
            calls[name] += 1
            own[name] += end - start - child[i]
            # inclusive time counts only the outermost span of each name
            p = parent
            while p >= 0 and spans[p][0] != nid:
                p = spans[p][3]
            if p < 0:
                total[name] += end - start
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(v for k, v in own.items() if k.startswith(mod + "."))
        for name, fn in self.cached.items():
            out[f"{name}.misses"] = fn.cache_info().misses
        for name, counter in self.counters.items():
            out[name] = next(counter)
        out["genus0.b0_prime.solves"] = out["genus0.b0_prime.misses"]
        out["genus1_boundary.boundary_alt.solves"] = out["genus1_boundary.boundary_alt.misses"]
        out["genus0.derivatives.self_s"] = sum(
            own[f"genus0.{d}"]
            for d in ("a0_first_derivative", "a0_second_derivative", "a0_p2_derivative")
        )
        out.update(self._series_size())
        out["cli.out_bytes"] = out_bytes
        out["trace.wall_s"] = wall_s
        out["trace.spans"] = len(spans)
        return out

    def _series_size(self) -> dict:
        terms, max_j, max_bits = 0, 0, 0
        for name in SIZED:
            series = self.largest.get(name)
            if series is None:
                continue
            for _, coeff in series.items():
                terms += 1
                for j, c in coeff.tate_items():
                    max_j = max(max_j, j)
                    max_bits = max(max_bits, c.denominator.bit_length())
        return {"series.terms": terms, "series.max_L_degree": max_j,
                "series.max_den_bits": max_bits}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
