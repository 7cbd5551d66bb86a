"""Span tracer for the traced benchmark run, installed from outside the library.

The tracer wraps every public module-level function of the nine layer modules,
plus ``FiniteGroup.__init__`` and ``SkewBrace.__init__``, and rebinds each
wrapped name in every ``skewbrace`` module that holds it (``from .braces import
X`` copies the name, so patching the defining module alone would miss callers).
The rational arithmetic primitives are counted but get no span, because they
run tens of times per sample and a span each would swamp the layer they serve.

Spans live in flat arrays (name, start, end, parent span, op id) and are
written out once, when the run ends.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("groups", "braces", "series", "families", "enumeration", "ybe",
          "rational", "storage", "cli")

# Called on every sample of the rational checks: counted, never spanned.
COUNTED_ONLY = {"rational": ("circ", "add", "circ_inverse", "add_inverse", "lambda_apply")}

FAMILY_BUILDERS = ("two_power_brace", "odd_p_cyclic_brace", "odd_p_nonabelian_brace",
                   "trivial_brace", "almost_trivial_brace")

# Per-layer metric -> (unit, better, how it is computed).  "self" sums the
# self time of the listed spans, "calls" counts them; the rest are computed in
# Tracer.metrics from post-call hooks and the span tree.
PER_LAYER = {
    "groups.validate_s": ("s", "lower", ("self", "groups.FiniteGroup.__init__",
                                         "groups.normalize_table", "groups.build_group")),
    "groups.validate_calls": ("count", "lower", ("calls", "groups.FiniteGroup.__init__")),
    "groups.closure_s": ("s", "lower", ("self", "groups.subgroup_closure")),
    "groups.closure_calls": ("count", "lower", ("calls", "groups.subgroup_closure")),
    "groups.automorphisms_s": ("s", "lower", ("self", "groups.automorphisms")),
    "groups.automorphisms_calls": ("count", "lower", ("calls", "groups.automorphisms")),
    "groups.aut_yield": ("ratio", "higher", ("ratio", "aut_found", "aut_candidates")),
    "groups.isomorphism_s": ("s", "lower", ("self", "groups.group_isomorphism")),
    "groups.isomorphism_calls": ("count", "lower", ("calls", "groups.group_isomorphism")),
    "groups.self_s": ("s", "lower", ("layer", "groups")),
    "braces.validate_s": ("s", "lower", ("self", "braces.SkewBrace.__init__", "braces.build_brace")),
    "braces.validate_calls": ("count", "lower", ("calls", "braces.SkewBrace.__init__")),
    "braces.validate_bytes": ("B_computed", "lower", ("extra", "validate_bytes")),
    "braces.bi_skew_s": ("s", "lower", ("self", "braces.is_bi_skew")),
    "braces.closure_s": ("s", "lower", ("self", "braces.brace_closure")),
    "braces.closure_calls": ("count", "lower", ("calls", "braces.brace_closure")),
    "braces.lattice_s": ("s", "lower", ("self", "braces.sub_skew_braces")),
    "braces.lattice_yield": ("ratio", "higher", ("ratio", "lattice_members", "lattice_closures")),
    "braces.classify_s": ("s", "lower", ("self", "braces.classify_substructure")),
    "braces.classify_calls": ("count", "lower", ("calls", "braces.classify_substructure")),
    "braces.ideal_generated_s": ("s", "lower", ("self", "braces.ideal_generated")),
    "braces.quotient_s": ("s", "lower", ("self", "braces.quotient_brace")),
    "braces.quotient_calls": ("count", "lower", ("calls", "braces.quotient_brace")),
    "braces.self_s": ("s", "lower", ("layer", "braces")),
    "series.analyze_s": ("s", "lower", ("self", "series.analyze")),
    "series.upper_series_s": ("s", "lower", ("self", "series.upper_central_series",
                                             "series.upper_socle_series")),
    "series.star_series_s": ("s", "lower", ("self", "series.star_series")),
    "series.derived_s": ("s", "lower", ("self", "series.derived_series")),
    "series.supersoluble_s": ("s", "lower", ("self", "series.is_supersoluble")),
    "series.self_s": ("s", "lower", ("layer", "series")),
    "families.build_s": ("s", "lower", ("self",) + tuple(f"families.{f}" for f in FAMILY_BUILDERS)),
    "families.build_calls": ("count", "lower", ("calls",) + tuple(f"families.{f}" for f in FAMILY_BUILDERS)),
    "families.self_s": ("s", "lower", ("layer", "families")),
    "enumeration.search_s": ("s", "lower", ("self", "enumeration.enumerate_on_additive")),
    "enumeration.labeled_braces": ("count", "lower", ("extra", "labeled_braces")),
    "enumeration.class_yield": ("ratio", "higher", ("ratio", "classes", "labeled_under_all")),
    "enumeration.dedup_s": ("s", "lower", ("self", "enumeration.enumerate_all")),
    "enumeration.iso_s": ("s", "lower", ("self", "enumeration.are_isomorphic")),
    "enumeration.iso_calls": ("count", "lower", ("calls", "enumeration.are_isomorphic")),
    "enumeration.self_s": ("s", "lower", ("layer", "enumeration")),
    "ybe.braid_check_s": ("s", "lower", ("self", "ybe.build_solution")),
    "ybe.triples_checked": ("count_computed", "lower", ("extra", "triples_checked")),
    "ybe.retract_s": ("s", "lower", ("self", "ybe.retract")),
    "ybe.retract_calls": ("count", "lower", ("calls", "ybe.retract")),
    "ybe.self_s": ("s", "lower", ("layer", "ybe")),
    "rational.sample_check_s": ("s", "lower", ("self", "rational.axiom_sample_check")),
    "rational.samples": ("count", "higher", ("extra", "samples")),
    "rational.arith_calls": ("count", "lower", ("counted", "rational")),
    "rational.witness_s": ("s", "lower", ("self", "rational.dedekind_witness")),
    "rational.self_s": ("s", "lower", ("layer", "rational")),
    "storage.load_s": ("s", "lower", ("self", "storage.load_brace", "storage.load_group",
                                      "storage.load_solution")),
    "storage.save_s": ("s", "lower", ("self", "storage.save_brace", "storage.save_group",
                                      "storage.save_solution")),
    "storage.bytes_written": ("B", "lower", ("extra", "bytes_written")),
    "storage.self_s": ("s", "lower", ("layer", "storage")),
    "cli.self_s": ("s", "lower", ("layer", "cli")),
    "trace.overhead_ratio": ("ratio", "lower", ("given",)),
}

# Each workload's stated dominant layers: (span names or layer prefixes, share).
DOMINANCE = {
    "analyze": (("braces.", "series.", "groups.subgroup_closure"), 0.5),
    "enumerate": (("enumeration.", "groups.automorphisms", "groups.group_isomorphism",
                   "braces.SkewBrace.__init__", "braces.build_brace"), 0.5),
    "ybe-large": (("braces.SkewBrace.__init__", "braces.build_brace", "braces.is_bi_skew",
                   "ybe.build_solution"), 0.5),
    "rational": (("rational.",), 0.9),
}


def _generator_candidates(G) -> int:
    out = 1
    for g in G.generating_set():
        out *= sum(1 for o in G.element_orders if o == G.element_orders[g])
    return out


def _hook_aut(tr, args, result):
    tr.extra["aut_found"] += len(result)
    tr.extra["aut_candidates"] += _generator_candidates(args[0])


def _hook_brace_init(tr, args, result):
    n = args[1].order
    tr.extra["validate_bytes"] += 6 * 8 * n**3   # six n^3 int64 arrays per check


def _hook_lattice(tr, args, result):
    tr.extra["lattice_members"] += len(result)


def _hook_on_additive(tr, args, result):
    tr.extra["labeled_braces"] += len(result)
    caller = tr.parent[tr.stack[-1]]     # the hook runs in a span of its own
    if caller >= 0 and tr.names[tr.name[caller]] == "enumeration.enumerate_all":
        tr.extra["labeled_under_all"] += len(result)


def _hook_enumerate_all(tr, args, result):
    tr.extra["classes"] += len(result.classes)


def _hook_solution(tr, args, result):
    tr.extra["triples_checked"] += len(args[0]) ** 3


def _hook_samples(tr, args, result):
    tr.extra["samples"] += result.samples


def _hook_save(tr, args, result):
    tr.extra["bytes_written"] += os.path.getsize(args[1])


HOOKS = {
    "groups.automorphisms": _hook_aut,
    "braces.SkewBrace.__init__": _hook_brace_init,
    "braces.sub_skew_braces": _hook_lattice,
    "enumeration.enumerate_on_additive": _hook_on_additive,
    "enumeration.enumerate_all": _hook_enumerate_all,
    "ybe.build_solution": _hook_solution,
    "rational.axiom_sample_check": _hook_samples,
    "storage.save_brace": _hook_save,
    "storage.save_group": _hook_save,
    "storage.save_solution": _hook_save,
}


HOOK_SPAN = "trace.hook"


class Tracer:
    """Records spans around the library's public functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.counted: Counter = Counter()
        self.extra: defaultdict = defaultdict(int)
        self.suspended = False
        self._hook_id = self._name_id(HOOK_SPAN)
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _run_hook(self, hook, args, result) -> None:
        # A span of its own, so the hook's time leaves the caller's self time.
        idx = self._open(self._hook_id)
        self.suspended = True
        try:
            hook(self, args, result)
        finally:
            self.suspended = False
            self._close(idx)

    def _spanned(self, fn, name: str):
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                self._run_hook(hook, args, result)
            return result

        return wrapper

    def _counted(self, fn, layer: str):
        counted = self.counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counted[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package) -> None:
        """Wrap the layer functions and rebind them wherever they are named."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            counted = COUNTED_ONLY.get(layer, ())
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if attr in counted:
                    wrappers[id(fn)] = self._counted(fn, layer)
                else:
                    wrappers[id(fn)] = self._spanned(fn, f"{layer}.{attr}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        for cls, layer in ((package.groups.FiniteGroup, "groups"),
                           (package.braces.SkewBrace, "braces")):
            init = cls.__init__
            self._patches.append((cls, "__init__", init))
            cls.__init__ = self._spanned(init, f"{layer}.{cls.__name__}.__init__")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name[i]]
            self_s[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
        return self_s, calls

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        self_s, calls = self.self_times()
        extra = dict(self.extra)
        sub_id = self._name_ids.get("braces.sub_skew_braces")
        closure_id = self._name_ids.get("braces.brace_closure")
        extra["lattice_closures"] = sum(
            1 for i in range(len(self.start))
            if self.name[i] == closure_id and self.parent[i] >= 0
            and self.name[self.parent[i]] == sub_id)
        out: dict[str, float] = {}
        for metric, (_unit, _better, rule) in PER_LAYER.items():
            kind, keys = rule[0], rule[1:]
            if kind == "self":
                out[metric] = sum(self_s.get(k, 0.0) for k in keys)
            elif kind == "calls":
                out[metric] = sum(calls.get(k, 0) for k in keys)
            elif kind == "layer":
                out[metric] = sum(v for k, v in self_s.items() if k.startswith(keys[0] + "."))
            elif kind == "extra":
                out[metric] = extra.get(keys[0], 0)
            elif kind == "counted":
                out[metric] = self.counted.get(keys[0], 0)
            elif kind == "ratio":
                den = extra.get(keys[1], 0)
                out[metric] = extra.get(keys[0], 0) / den if den else 0.0
            else:
                out[metric] = overhead_ratio
        return out

    def dominance(self, workload: str) -> tuple[float, float, str]:
        """Share of traced op time spent in the workload's stated dominant spans."""
        prefixes, claim = DOMINANCE[workload]
        self_s, _ = self.self_times()
        total = sum(self.end[i] - self.start[i]
                    for i in range(len(self.start)) if self.parent[i] < 0)
        total -= self_s.get(HOOK_SPAN, 0.0)
        part = sum(v for k, v in self_s.items() if k.startswith(prefixes))
        return (part / total if total else 0.0), claim, " + ".join(prefixes)

    def write(self, path: str) -> int:
        """Write every span as one JSON line, gzip-compressed; returns the count."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name[i]], self.start[i], self.end[i],
                                     self.parent[i], self.op[i]]) + "\n")
        return len(self.start)
