"""Spans around haarcay's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces each traced function in every haarcay module
namespace that bound it and in the benchmark's calling module, and
``PermGroup.__init__`` on the class, with a wrapper that records a span:
name, start, end, parent span and the input id being answered, on the
worker's work clock.  Spans stay in memory until ``write``.  A span's self
time is its duration minus the durations of its direct children, scaled to
the reference speed like every other time.  Counters are read from return
values after the span closes, so they cost the caller, not the layer.

Metric names are ``<module>.<function>.<measure>``; ``METRICS`` lists every
one a traced run reports, with unit and the direction that is better.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Callable

import haarcay
from haarcay import groups, perms
from haarcay.perms import BudgetExceeded

# traced function -> counters read from (args, kwargs, result) after each call
_COUNTERS: dict[str, Callable] = {
    "automorphisms.automorphism_group":
        lambda a, k, r: {"nodes": r.nodes, "generators": len(r.generators)},
    "automorphisms.is_vertex_transitive": None,
    "automorphisms.are_isomorphic": None,
    "automorphisms.regular_subgroup_search":
        lambda a, k, r: {"nodes": r.nodes, "exhausted": int(r.exhausted),
                         "found": int(r.group is not None)},
    "automorphisms.cayley_status": None,
    "perms.PermGroup": lambda a, k, r: {"generators_in": len(a[0].generators),
                                        "base_len": len(a[0].base)},
    "bicayley.part_swap_maps": lambda a, k, r: {
        "maps": len(r),
        "candidates": _aut_count(a[0], a[2] if len(a) > 2 else k.get("auts")) * a[0].order ** 2},
    "bicayley.part_fix_maps": None,
    "bicayley.normalizer_structure": None,
    "bicayley.cayley_certificate_from_swaps": lambda a, k, r: {"hits": int(r is not None)},
    "groups.group_automorphisms": lambda a, k, r: {"count": len(r)},
    "groups.group_from_spec": None,
    "groups.quotient": None,
    "graphs.haar_graph": None,
    "graphs.lex_product": None,
    "cases.run_case": None,
    "cases.anchored_class_representatives": lambda a, k, r: {"classes": len(r)},
    "cases.check_quotient_obstruction": None,
}

_ORIGINAL_GROUP_AUTOMORPHISMS = groups.group_automorphisms


def _aut_count(H, auts) -> int:
    # the table caches its automorphisms, so this repeats no search
    return len(auts) if auts is not None else len(_ORIGINAL_GROUP_AUTOMORPHISMS(H))


LAYERS = ("automorphisms", "perms", "bicayley", "groups", "graphs", "cases")

# (name, unit, better) for every metric of a traced run
METRICS: list[tuple[str, str, str]] = [
    (f"{fn}.{measure}", unit, "lower")
    for fn in _COUNTERS for measure, unit in (("calls", "count"), ("self_s", "s"))]
METRICS += [
    ("automorphisms.automorphism_group.nodes", "count", "lower"),
    ("automorphisms.automorphism_group.generators", "count", "lower"),
    ("automorphisms.automorphism_group.budget_exhausted", "count", "lower"),
    ("automorphisms.is_vertex_transitive.seed_settled", "count", "higher"),
    ("automorphisms.regular_subgroup_search.nodes", "count", "lower"),
    ("automorphisms.regular_subgroup_search.exhausted", "count", "higher"),
    ("automorphisms.regular_subgroup_search.found", "count", "higher"),
    ("perms.PermGroup.generators_in", "count", "lower"),
    ("perms.PermGroup.base_len", "count", "lower"),
    ("bicayley.part_swap_maps.maps", "count", "higher"),
    ("bicayley.part_swap_maps.candidates", "count", "lower"),
    ("bicayley.part_swap_maps.accept_ratio", "ratio", "higher"),
    ("bicayley.cayley_certificate_from_swaps.hits", "count", "higher"),
    ("bicayley.cayley_certificate_from_swaps.hit_ratio", "ratio", "higher"),
    ("groups.group_automorphisms.count", "count", "lower"),
    ("cases.anchored_class_representatives.classes", "count", "higher"),
]
METRICS += [(f"share.{layer}", "share", "lower") for layer in LAYERS]
METRICS += [("share.untraced", "share", "lower"),
            ("trace.pass_s", "s", "lower"),
            ("trace.untraced_pass_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.spans", "count", "lower")]


class Tracer:
    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.spans: list[list] = []       # [name, start, end, parent index, input id]
        self.counters: dict[str, float] = defaultdict(float)
        self.input_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = _COUNTERS[name]
        clock = self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.input_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BudgetExceeded:
                counters[f"{name}.budget_exhausted"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, callers: tuple = ()) -> None:
        """Wrap the traced functions in haarcay and in the given modules
        that call into it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "haarcay" or key.startswith("haarcay.")] + list(callers)
        for name in _COUNTERS:
            module_name, attr = name.split(".")
            if attr == "PermGroup":
                original = perms.PermGroup.__init__
                self._patch(perms.PermGroup, "__init__", self._wrap(name, original), original)
                continue
            original = getattr(getattr(haarcay, module_name), attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper, original)

    def _patch(self, owner, attr, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def metrics(self, traced: list[list[float]], untraced: list[list[float]],
                scale: Callable[[float, float], float]) -> dict[str, float]:
        """Per-pass averages of every metric in ``METRICS``.  ``traced`` and
        ``untraced`` hold each pass's [start, end] on the work clock, and
        ``scale(start, end)`` turns work time into time at the reference
        speed."""
        passes = len(traced)
        factor = scale(traced[0][0], traced[-1][1])
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_names: list[set] = [set() for _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                parent_span = self.spans[parent]
                self_s[parent_span[0]] -= end - start
                child_names[parent].add(name)
        seed_settled = sum(1 for i, span in enumerate(self.spans)
                           if span[0] == "automorphisms.is_vertex_transitive"
                           and "automorphisms.automorphism_group" not in child_names[i])
        values: dict[str, float] = defaultdict(float)
        for name in _COUNTERS:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s[name] * factor
        values.update(self.counters)
        values["automorphisms.is_vertex_transitive.seed_settled"] = seed_settled
        out = {metric: values[metric] / passes for metric, _, _ in METRICS}
        swaps = "bicayley.part_swap_maps"
        out[f"{swaps}.accept_ratio"] = _ratio(values[f"{swaps}.maps"], values[f"{swaps}.candidates"])
        certs = "bicayley.cayley_certificate_from_swaps"
        out[f"{certs}.hit_ratio"] = _ratio(values[f"{certs}.hits"], values[f"{certs}.calls"])
        work = sum(end - start for start, end in traced)
        for layer in LAYERS:
            out[f"share.{layer}"] = sum(v for k, v in self_s.items()
                                        if k.startswith(layer + ".")) / work
        out["share.untraced"] = 1.0 - sum(out[f"share.{layer}"] for layer in LAYERS)
        out["trace.pass_s"] = statistics.median((e - s) * scale(s, e) for s, e in traced)
        out["trace.untraced_pass_s"] = statistics.median((e - s) * scale(s, e) for s, e in untraced)
        out["trace.overhead_s"] = out["trace.pass_s"] - out["trace.untraced_pass_s"]
        out["trace.spans"] = len(self.spans) / passes
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, input_id in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, input_id]))
                fh.write("\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
