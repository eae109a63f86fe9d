"""Span tracing from outside the program, for the benchmark's traced run.

`Recorder.install` replaces each traced function or method of coversphere
(and networkx's `GraphMatcher.is_isomorphic`) by a wrapper that records a
span, at every place the original is bound: the defining module or class
and every `coversphere.*` module that imported it by name.  `uninstall`
puts every original back.  Spans are held in memory and dumped as JSON
lines at the end.  A span's self time is its duration minus the
durations of its direct children.
"""

import functools
import gc
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float | None = None
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """A traced callable: `module:qualname`, recorded as span `name`.

    `count(args, result, before)` returns counters for the span; `before`
    is `pre(args)` taken before the call, when `pre` is given.
    """
    name: str
    where: str
    count: Callable | None = None
    pre: Callable | None = None


def _faces(t):
    return len(t.face_start)


def _pack_counts(args, label, _):
    interior = len(args[0].interior)
    return {"sweeps": label.iterations, "interior_vertices": interior,
            "vertex_sweeps": label.iterations * interior}


TARGETS = (
    Target("rules.apply_replacement", "coversphere.rules:apply_replacement",
           lambda a, r, _: {"faces_out": _faces(r)}),
    Target("tiling.Tiling", "coversphere.tiling:Tiling.__init__",
           lambda a, r, _: {"faces": _faces(a[0])}),
    Target("tiling.isomorphic", "coversphere.tiling:isomorphic"),
    Target("tiling.canonical_form",
           "coversphere.tiling:Tiling.canonical_form"),
    Target("tiling.is_sphere", "coversphere.tiling:Tiling.is_sphere"),
    Target("tiling.from_json", "coversphere.tiling:Tiling.from_json"),
    Target("cover.expand", "coversphere.cover:CoverState.expand",
           lambda a, r, before: {"cells": a[0].num_cells - before},
           lambda a: a[0].num_cells),
    Target("cover.boundary_sphere",
           "coversphere.cover:CoverState.boundary_sphere",
           lambda a, r, _: {"faces_out": _faces(r)}),
    Target("growth.growth_report", "coversphere.growth:growth_report"),
    Target("pack.triangulate", "coversphere.pack:triangulate"),
    Target("pack.pack", "coversphere.pack:pack", _pack_counts),
    Target("pack.tangency_error", "coversphere.pack:tangency_error"),
    Target("cayley.ball", "coversphere.cayley:ball",
           lambda a, r, _: {"elements": len(r.elements)}),
    Target("cayley.ac_profile", "coversphere.cayley:ac_profile"),
    Target("cayley.cone_type_count", "coversphere.cayley:cone_type_count"),
    Target("cayley.rooted_iso",
           "networkx.algorithms.isomorphism.isomorphvf2"
           ":GraphMatcher.is_isomorphic",
           lambda a, r, _: {"hits": int(bool(r))}),
    Target("catalog.list_rules", "coversphere.catalog:list_rules"),
    Target("catalog.load_spec", "coversphere.catalog:load_spec"),
    Target("gluing.load_gluing_spec", "coversphere.gluing:load_gluing_spec"),
)

CLI_COMMANDS = ("growth", "cover", "verify", "pack", "cayley")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = [
    ("rules.apply_replacement.s", "s"),
    ("rules.apply_replacement.self_s", "s"),
    ("rules.apply_replacement.calls", "count"),
    ("rules.faces_out", "count"),
    ("rules.self_us_per_face", "us/face"),
    ("tiling.Tiling.s", "s"),
    ("tiling.Tiling.calls", "count"),
    ("tiling.Tiling.faces", "count"),
    ("tiling.Tiling.us_per_face", "us/face"),
    ("tiling.isomorphic.s", "s"),
    ("tiling.isomorphic.calls", "count"),
    ("tiling.canonical_form.s", "s"),
    ("tiling.canonical_form.calls", "count"),
    ("tiling.is_sphere.s", "s"),
    ("tiling.from_json.s", "s"),
    ("cover.expand.s", "s"),
    ("cover.expand.calls", "count"),
    ("cover.cells", "count"),
    ("cover.expand.us_per_cell", "us/cell"),
    ("cover.boundary_sphere.s", "s"),
    ("cover.boundary_sphere.self_s", "s"),
    ("cover.faces_out", "count"),
    ("growth.growth_report.s", "s"),
    ("growth.growth_report.self_s", "s"),
    ("pack.triangulate.s", "s"),
    ("pack.pack.s", "s"),
    ("pack.sweeps", "count"),
    ("pack.interior_vertices", "count"),
    ("pack.us_per_vertex_sweep", "us/vertex-sweep"),
    ("pack.tangency_error.s", "s"),
    ("cayley.ball.s", "s"),
    ("cayley.ball.calls", "count"),
    ("cayley.ball.elements", "count"),
    ("cayley.ac_profile.s", "s"),
    ("cayley.ac_profile.self_s", "s"),
    ("cayley.cone_type_count.s", "s"),
    ("cayley.cone_type_count.self_s", "s"),
    ("cayley.rooted_iso.calls", "count"),
    ("cayley.rooted_iso.s", "s"),
    ("cayley.rooted_iso.hit_ratio", "ratio"),
    ("catalog.list_rules.s", "s"),
    ("catalog.load_spec.s", "s"),
    ("gluing.load_gluing_spec.s", "s"),
] + [(f"cli.{c}.{k}", u) for c in CLI_COMMANDS
     for k, u in (("s", "s"), ("errors", "count"))] + [
    ("py.gc.s", "s"),
    ("py.gc.gen2_collections", "count"),
    ("host.speed", "ratio"),
    ("trace.overhead", "ratio"),
]

# Counter metrics: (span name, counter key) summed over all its spans.
COUNTERS = {
    "rules.faces_out": ("rules.apply_replacement", "faces_out"),
    "tiling.Tiling.faces": ("tiling.Tiling", "faces"),
    "cover.cells": ("cover.expand", "cells"),
    "cover.faces_out": ("cover.boundary_sphere", "faces_out"),
    "pack.sweeps": ("pack.pack", "sweeps"),
    "pack.interior_vertices": ("pack.pack", "interior_vertices"),
    "cayley.ball.elements": ("cayley.ball", "elements"),
}

# Rate metrics: numerator metric, denominator, scale.
RATES = {
    "rules.self_us_per_face": ("rules.apply_replacement.self_s",
                               ("rules.apply_replacement", "faces_out"), 1e6),
    "tiling.Tiling.us_per_face": ("tiling.Tiling.s",
                                  ("tiling.Tiling", "faces"), 1e6),
    "cover.expand.us_per_cell": ("cover.expand.s", ("cover.expand", "cells"),
                                 1e6),
    "pack.us_per_vertex_sweep": ("pack.pack.s",
                                 ("pack.pack", "vertex_sweeps"), 1e6),
    "cayley.rooted_iso.hit_ratio": ("cayley.rooted_iso.hits",
                                    "cayley.rooted_iso.calls", 1.0),
}

_MARK = "__bench_traced__"


def _resolve(where):
    module_name, qualname = where.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _coversphere_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "coversphere"
                                  or name.startswith("coversphere."))]


def _is_traced(obj):
    return getattr(getattr(obj, "__func__", obj), _MARK, False)


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []      # (owner, attribute, original object)
        self.gc_seconds = 0.0
        self.gc_gen2 = 0
        self._gc_start = None

    # -- spans -----------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = target.pre(args) if target.pre else None
            s = self.open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if target.count:
                s.counts = target.count(args, result, before)
            return result
        setattr(traced, _MARK, True)
        return traced

    # -- install / uninstall -------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, targets=TARGETS):
        if self._patches:
            raise RuntimeError("tracing is already installed")
        for target in targets:
            owner, attr = _resolve(target.where)
            raw = vars(owner)[attr]
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(target, raw.__func__))
                else:
                    new = self._wrap(target, raw)
                self._patch(owner, attr, new)
                continue
            new = self._wrap(target, raw)
            for module in _coversphere_modules() + [owner]:
                for key, val in list(vars(module).items()):
                    if val is raw:
                        self._patch(module, key, new)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        now = self.clock()
        if phase == "start":
            self._gc_start = now
        elif self._gc_start is not None:
            self.gc_seconds += now - self._gc_start
            self._gc_start = None
            if info["generation"] == 2:
                self.gc_gen2 += 1

    def dump(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent,
                                     "counts": s.counts}) + "\n")


def leftover_wrappers(targets=TARGETS):
    """Places where a tracing wrapper is still bound; empty when clean."""
    found = []
    for target in targets:
        owner, attr = _resolve(target.where)
        if _is_traced(vars(owner)[attr]):
            found.append(target.where)
    for module in _coversphere_modules():
        for key, val in vars(module).items():
            if _is_traced(val):
                found.append(f"{module.__name__}.{key}")
    if any(isinstance(getattr(cb, "__self__", None), Recorder)
           for cb in gc.callbacks):
        found.append("gc.callbacks")
    return found


# -- analysis ----------------------------------------------------------

def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def nesting_problems(spans, eps=1e-9):
    """Spans that are not nested inside their parent, or whose children's
    self times add up to more than the parent's duration."""
    selfs = self_times(spans)
    child_self = [0.0] * len(spans)
    problems = []
    for i, s in enumerate(spans):
        if s.parent is None:
            continue
        p = spans[s.parent]
        if s.start < p.start or s.end > p.end:
            problems.append(f"span {i} ({s.name}) leaves its parent")
        child_self[s.parent] += selfs[i]
    for i, s in enumerate(spans):
        if child_self[i] > s.end - s.start + eps:
            problems.append(f"children of span {i} ({s.name}) exceed it")
    return problems


def layer_metrics(spans, gc_seconds=0.0, gc_gen2=0):
    """Per-layer totals keyed by metric name (all PER_LAYER names except
    `trace.overhead` and the `cli.*.errors` counts, which come from
    elsewhere).  `.s` sums only outermost spans of a name, so recursion
    is not counted twice."""
    selfs = self_times(spans)
    names = {t.name for t in TARGETS} | {f"cli.{c}" for c in CLI_COMMANDS}
    m = {}
    for n in names:
        m[f"{n}.s"] = m[f"{n}.self_s"] = 0.0
        m[f"{n}.calls"] = 0
    counters = {}
    for i, s in enumerate(spans):
        m[f"{s.name}.calls"] += 1
        m[f"{s.name}.self_s"] += selfs[i]
        outer, p = True, s.parent
        while p is not None and outer:
            outer = spans[p].name != s.name
            p = spans[p].parent
        if outer:
            m[f"{s.name}.s"] += s.end - s.start
        for key, val in s.counts.items():
            counters[(s.name, key)] = counters.get((s.name, key), 0) + val
    for metric, key in COUNTERS.items():
        m[metric] = counters.get(key, 0)
    m["cayley.rooted_iso.hits"] = counters.get(("cayley.rooted_iso", "hits"),
                                               0)
    for metric, (num, den, scale) in RATES.items():
        d = counters.get(den, 0) if isinstance(den, tuple) else m[den]
        m[metric] = scale * m[num] / d if d else 0.0
    m["py.gc.s"] = gc_seconds
    m["py.gc.gen2_collections"] = gc_gen2
    return m
