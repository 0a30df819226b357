"""Per-layer tracing from outside the program.

`install()` wraps the public functions of each skewplanes module in spans.
Each wrapper replaces the original under every name a caller looks it up
by: the defining module, every skewplanes module that imported it by name,
and module-level dicts (registries) that hold it.  Nothing inside `src/`
changes.

Spans are aggregated as they close, so memory stays flat however many
calls a round makes: per (parent span, span) edge the number of calls,
total time and self time (duration minus the time of child spans); per
metric group the time of outermost calls only, so nesting inside the same
group is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# metric group -> (module, attribute) pairs to wrap; "Class.method" wraps a
# method on its class, "build_*" every function of the module so named
SPANS = {
    "families.build": [("families", "build_*")],
    "mpoly.substitute": [("mpoly", "MPoly.substitute")],
    "mpoly.compose": [("mpoly", "compose")],
    "mpoly.try_div": [("mpoly", "MPoly.try_div")],
    "mpoly.exact_rank": [("mpoly", "exact_rank")],
    "mpoly.map_domain": [("mpoly", "MPoly.map_domain")],
    "mpoly.evaluate": [("mpoly", "MPoly.evaluate")],
    "domains.field_create": [("domains", "field_create")],
    "count.count_zeros": [("count", "count_zeros")],
    "kernels.count_chart": [("kernels", "count_system_chart")],
    "kernels.field_tables": [("kernels", "field_tables")],
    "kernels.height_chart": [("kernels", "height_scan_chart")],
    "heights.report": [("heights", "height_report")],
    "heights.direct": [("heights", "direct_height_count")],
    "heights.param": [("heights", "parametrized_height_count")],
    "verify.line_factorization": [("verify", "verify_line_factorization")],
    "verify.membership": [("verify", "verify_membership")],
    "verify.composition": [("verify", "verify_composition")],
    "verify.composition_numeric": [("verify", "verify_composition_numeric")],
    "verify.linear_system_dim": [("verify", "verify_linear_system_dim")],
    "verify.singular_locus": [("verify", "verify_singular_locus")],
    "verify.galois_symmetry": [("verify", "verify_galois_symmetry")],
    "verify.cox_grading": [("verify", "verify_cox_grading")],
    "reporting.serialize": [("reporting", "to_json"), ("reporting", "to_csv")],
    "cli.main": [("cli", "main")],
}

# generators whose items are counted; their time interleaves with the
# consumer's, so they get no span
YIELD_COUNTERS = {
    "count.enumerate_points": ("count", "enumerate_projective"),
    "heights.param_inputs": ("heights", "_projective_int_points"),
}

PER_LAYER = (
    ("families.build_s", "s"), ("families.build_calls", "count"),
    ("mpoly.substitute_s", "s"), ("mpoly.substitute_calls", "count"),
    ("mpoly.compose_s", "s"), ("mpoly.try_div_s", "s"), ("mpoly.exact_rank_s", "s"),
    ("mpoly.map_domain_s", "s"), ("mpoly.evaluate_s", "s"), ("mpoly.evaluate_calls", "count"),
    ("domains.field_create_s", "s"),
    ("count.count_zeros_s", "s"), ("count.prepare_s", "s"), ("count.enumerate_points", "count"),
    ("kernels.count_chart_s", "s"), ("kernels.points_scanned", "count"),
    ("kernels.field_tables_s", "s"), ("kernels.field_tables_builds", "count"),
    ("kernels.height_chart_s", "s"), ("kernels.tuples_scanned", "count"),
    ("heights.rows", "count"), ("heights.direct_s", "s"), ("heights.param_s", "s"),
    ("heights.param_inputs", "count"), ("heights.param_skips", "count"),
    ("verify.line_factorization_s", "s"), ("verify.membership_s", "s"),
    ("verify.composition_s", "s"), ("verify.composition_numeric_s", "s"),
    ("verify.linear_system_dim_s", "s"), ("verify.singular_locus_s", "s"),
    ("verify.galois_symmetry_s", "s"), ("verify.cox_grading_s", "s"),
    ("reporting.serialize_s", "s"), ("reporting.bytes", "count"), ("cli.self_s", "s"),
)


class Tracer:
    def __init__(self):
        self.stack = []        # open spans: [name, t0, child time]
        self.edges = {}        # (parent name, name) -> [calls, total s, self s]
        self.groups = {}       # group -> [open spans, calls, outermost time s]
        self.counters = Counter()

    def span(self, name, group, fn, after=None):
        """`fn` wrapped so that each call records a span; `after(args,
        kwargs, result)` runs after each call that returns."""
        state = self.groups.setdefault(group, [0, 0, 0.0])
        stack, edges, clock = self.stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state[0] += 1
            state[1] += 1
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                parent = None
                if stack:
                    stack[-1][2] += dur
                    parent = stack[-1][0]
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += dur - frame[2]
                state[0] -= 1
                if not state[0]:
                    state[2] += dur
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def yield_counter(self, key, fn):
        """Generator function `fn` wrapped to count the items it yields."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counters[key] += n
        return wrapper

    def metrics(self):
        def group(name):
            return self.groups.get(name, (0, 0, 0.0))

        kernel_time_in_count = sum(v[1] for (p, n), v in self.edges.items()
                                   if p == "count.count_zeros" and n.startswith("kernels."))
        out = {
            "families.build_calls": group("families.build")[1],
            "mpoly.substitute_calls": group("mpoly.substitute")[1],
            "mpoly.evaluate_calls": group("mpoly.evaluate")[1],
            # count_zeros time outside the kernels: reduction, flattening, checks
            "count.prepare_s": group("count.count_zeros")[2] - kernel_time_in_count,
            "heights.rows": group("heights.report")[1],
            "cli.self_s": sum(v[2] for (_, n), v in self.edges.items() if n == "cli.main"),
        }
        for name in SPANS:
            out.setdefault(name + "_s", group(name)[2])
        out.update(self.counters)
        return {name: out.get(name, 0) for name, _ in PER_LAYER}

    def edge_table(self):
        return [{"parent": p, "span": n, "calls": v[0], "total_s": v[1], "self_s": v[2]}
                for (p, n), v in sorted(self.edges.items(), key=lambda kv: -kv[1][1])]


def _replace_everywhere(orig, new):
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("skewplanes"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = new


def _after_hook(tracer, group, fn):
    """What a group counts besides time, if anything."""
    counters = tracer.counters
    if group in ("kernels.count_chart", "kernels.height_chart"):
        key = "kernels.points_scanned" if group == "kernels.count_chart" \
            else "kernels.tuples_scanned"
        sig = inspect.signature(fn)

        def scanned(args, kwargs, result):
            bound = sig.bind(*args, **kwargs).arguments
            counters[key] += bound["stop"] - bound["start"]
        return scanned
    if group == "heights.param":
        def skips(args, kwargs, result):
            counters["heights.param_skips"] += result[1]
        return skips
    if group == "reporting.serialize":
        def size(args, kwargs, result):
            counters["reporting.bytes"] += len(result.encode())
        return size
    return None


def _count_table_builds(tracer, kernels, fn):
    """Count field_tables calls that grew the kernels' table cache (builds,
    as against cache hits); every call counts when there is no cache."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cache = getattr(kernels, "_TABLE_CACHE", None)
        before = len(cache) if cache is not None else -1
        result = fn(*args, **kwargs)
        if cache is None or len(cache) > before:
            tracer.counters["kernels.field_tables_builds"] += 1
        return result
    return wrapper


def install():
    """Wrap the layers of the already imported skewplanes package and
    return the Tracer that records them."""
    mods = {name: importlib.import_module(f"skewplanes.{name}")
            for name in ("families", "mpoly", "domains", "count", "kernels", "heights",
                         "verify", "reporting", "cli")}
    kernels = mods["kernels"]
    tracer = Tracer()
    for group, targets in SPANS.items():
        for modname, attr in targets:
            mod = mods[modname]
            if attr.endswith("*"):
                names = [n for n, v in vars(mod).items() if n.startswith(attr[:-1])
                         and inspect.isfunction(v) and v.__module__ == mod.__name__]
            else:
                names = [attr]
            for name in names:
                span = f"{modname}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = getattr(cls, meth)
                    setattr(cls, meth, tracer.span(span, group, orig,
                                                   _after_hook(tracer, group, orig)))
                    continue
                orig = getattr(mod, name)
                new = tracer.span(span, group, orig, _after_hook(tracer, group, orig))
                if group == "kernels.field_tables":
                    new = _count_table_builds(tracer, kernels, new)
                _replace_everywhere(orig, new)
    for key, (modname, attr) in YIELD_COUNTERS.items():
        orig = getattr(mods[modname], attr)
        _replace_everywhere(orig, tracer.yield_counter(key, orig))
    return tracer
