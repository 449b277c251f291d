"""Spans and work counts around the calls into each finsheaf module.

The tracer wraps public functions at run time, in every ``finsheaf``
module namespace that holds them (``cli``, ``functors`` and ``gluing``
import names such as ``check_sheaf`` and ``is_sheaf`` directly), and puts
every original back on ``restore``.  It never edits the package source.

Each wrapped call records a span: name, start, end, parent and the id of
the operation (invocation, presheaf verdict or rung) it belongs to.  Self
time is the span's duration minus the time its child spans cover.  Spans
are also aggregated per (name, parent) as they close, which is all the
``sweep`` workload keeps.  Work counts are computed from the arguments and
results.  Counts of an operation are committed only when it completes, so
an operation cut off by its budget leaves no partial, run-dependent count.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "serialize", "canon", "topology", "values", "presheaf",
          "stalks", "functors", "gluing", "oracles")

# Functions whose calls are timed (calls, s, self_s).
TIMED = (
    ("cli", "main"), ("cli", "build_parser"),
    ("serialize", "load_json"), ("serialize", "presheaf_from_payload"),
    ("serialize", "map_from_payload"), ("serialize", "gluing_from_payload"),
    ("serialize", "diagram_from_payload"), ("serialize", "presheaf_to_payload"),
    ("serialize", "dump_json"),
    ("canon", "canonical_json"),
    ("topology", "enumerate_antichain_coverings"),
    ("presheaf", "is_sheaf"), ("presheaf", "check_sheaf"),
    ("presheaf", "validate_presheaf"), ("presheaf", "check_F0"),
    ("presheaf", "extend_from_basis"), ("presheaf", "limit_of_sheaves"),
    ("presheaf", "enumerate_presheaf_morphisms"),
    ("values", "limit"), ("values", "filtered_colimit"),
    ("values", "enumerate_morphisms"),
    ("stalks", "stalk"),
    ("functors", "pullback"), ("functors", "pushforward"),
    ("functors", "check_adjunction"), ("functors", "sharp"), ("functors", "flat"),
    ("gluing", "check_cocycle"), ("gluing", "glue"),
)
# Generator functions: the time spent inside next() is their time.
GENERATORS = (("oracles", "enumerate_presheaves"),)
# Called far more than 1e5 times on the ladder: calls are counted, not timed.
COUNTED = (("canon", "pair_label"), ("values", "compose"))

# JSON load and dump, each measured as the outermost span of its group.
GROUPS = {
    "serialize.load": ("load_json", "presheaf_from_payload", "map_from_payload",
                       "gluing_from_payload", "diagram_from_payload"),
    "serialize.dump": ("presheaf_to_payload", "dump_json"),
}

# (metric, unit) of the work counts computed from arguments and results.
WORK = (
    ("serialize.bytes_read", "B"), ("serialize.bytes_written", "B"),
    ("topology.coverings_found", "count"),
    ("topology.covering_subsets_examined", "count"),
    ("presheaf.enumerate_presheaf_morphisms.naive_candidates", "count"),
    ("presheaf.enumerate_presheaf_morphisms.kept", "count"),
    ("values.limit.product_size", "count"), ("values.limit.families", "count"),
    ("values.enumerate_morphisms.candidates", "count"),
    ("values.enumerate_morphisms.kept", "count"),
    ("functors.germ_candidates", "count"), ("functors.germ_families_kept", "count"),
    ("oracles.enumerate_presheaves.yielded", "count"),
)
# kept / candidates, with both counts reported beside them as the base.
RATIOS = (
    ("topology.coverings_kept_ratio", "topology.coverings_found",
     "topology.covering_subsets_examined"),
    ("values.limit.kept_ratio", "values.limit.families", "values.limit.product_size"),
    ("values.enumerate_morphisms.kept_ratio", "values.enumerate_morphisms.kept",
     "values.enumerate_morphisms.candidates"),
    ("presheaf.enumerate_presheaf_morphisms.kept_ratio",
     "presheaf.enumerate_presheaf_morphisms.kept",
     "presheaf.enumerate_presheaf_morphisms.naive_candidates"),
    ("functors.germ_kept_ratio", "functors.germ_families_kept",
     "functors.germ_candidates"),
)
TRACE_META = (
    ("trace.overhead_s", "s", "lower"),
    ("trace.ops_dropped", "count", "lower"),
    ("trace.spans", "count", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for mod, fn in TIMED + GENERATORS:
        base = f"{mod}.{fn}"
        specs += [(f"{base}.calls", "count", "lower"), (f"{base}.s", "s", "lower"),
                  (f"{base}.self_s", "s", "lower")]
    specs += [(f"{mod}.{fn}.calls", "count", "lower") for mod, fn in COUNTED]
    specs += [(f"{g}.s", "s", "lower") for g in GROUPS]
    specs += [(name, unit, "lower") for name, unit in WORK]
    specs += [(name, "ratio", "higher") for name, _, _ in RATIOS]
    specs += list(TRACE_META)
    return specs


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _product(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def _hooks(mods):
    """Work-count hooks: (args, kwargs, result, counts) -> None, by function."""
    minimal_open = mods.topology.minimal_open

    def coverings(a, k, result, c):
        space, u = _arg(a, k, 0, "space"), frozenset(_arg(a, k, 1, "u"))
        inside = sum(1 for v in space.opens if v and v <= u)
        c["topology.coverings_found"] += len(result)
        c["topology.covering_subsets_examined"] += 2 ** inside - 1

    def limit(a, k, result, c):
        d = _arg(a, k, 0, "diagram")
        c["values.limit.product_size"] += _product(
            len(d.objects[i]) for i in d.index.elements)
        c["values.limit.families"] += len(result.families)

    def morphisms(a, k, result, c):
        src, tgt = _arg(a, k, 0, "source"), _arg(a, k, 1, "target")
        c["values.enumerate_morphisms.candidates"] += len(tgt) ** len(src)
        c["values.enumerate_morphisms.kept"] += len(result)

    def homs(a, k, result, c):
        p, q = _arg(a, k, 0, "p"), _arg(a, k, 1, "q")
        c["presheaf.enumerate_presheaf_morphisms.naive_candidates"] += _product(
            len(q.sections[u]) ** len(p.sections[u]) for u in p.space.opens)
        c["presheaf.enumerate_presheaf_morphisms.kept"] += len(result)

    def germs(a, k, result, c):
        psi, g = _arg(a, k, 0, "psi"), _arg(a, k, 1, "g")
        size = {x: len(g.sections[minimal_open(psi.target, psi(x))])
                for x in psi.source.points}
        c["functors.germ_candidates"] += sum(
            _product(size[x] for x in u) for u in psi.source.opens)
        c["functors.germ_families_kept"] += sum(
            len(result.sheaf.sections[u]) for u in psi.source.opens)

    def read(a, k, result, c):
        c["serialize.bytes_read"] += os.path.getsize(_arg(a, k, 0, "path"))

    def written(a, k, result, c):
        c["serialize.bytes_written"] += os.path.getsize(_arg(a, k, 0, "path"))

    return {
        "topology.enumerate_antichain_coverings": coverings,
        "values.limit": limit,
        "values.enumerate_morphisms": morphisms,
        "presheaf.enumerate_presheaf_morphisms": homs,
        "functors.pullback": germs,
        "serialize.load_json": read,
        "serialize.dump_json": written,
    }


class Tracer:
    """Installs wrappers, records spans and counts, and restores on exit."""

    ROOT = "-"

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []  # (op, name, start, end, parent)
        self.agg: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.group_s: Counter = Counter()
        self.counts: Counter = Counter()  # committed with completed operations
        self.pending: Counter = Counter()  # the operation in progress
        self.ops_dropped = 0
        self.op = None
        self._stack: list[list] = []  # frames: [name, child seconds]
        self._group_depth: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- operations ---------------------------------------------------------

    def begin_op(self, op) -> None:
        self.op = op
        self.pending.clear()

    def end_op(self, completed: bool) -> None:
        if completed:
            self.counts.update(self.pending)
        else:
            self.ops_dropped += 1
        self.pending.clear()
        self._stack.clear()
        self._group_depth.clear()
        self.op = None

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str, group: str | None):
        frame = [name, 0.0]
        self._stack.append(frame)
        outer = False
        if group is not None:
            outer = self._group_depth[group] == 0
            self._group_depth[group] += 1
        return frame, outer

    def _exit(self, frame, outer: bool, group: str | None, start: float, end: float):
        stack = self._stack
        stack.pop()
        dur = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dur
        pname = parent[0] if parent is not None else self.ROOT
        entry = self.agg[(frame[0], pname)]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - frame[1]
        if group is not None:
            self._group_depth[group] -= 1
            if outer:
                self.group_s[group] += dur
        self.pending["trace.spans"] += 1
        if self.keep_spans:
            self.spans.append((self.op, frame[0], start, end, pname))

    def _timed(self, name, fn, hook, group):
        tracer = self
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            tracer.pending[calls] += 1
            frame, outer = tracer._enter(name, group)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, outer, group, start, time.perf_counter())
            if hook is not None:
                hook(args, kwargs, result, tracer.pending)
            return result

        return wrapper

    def _generator(self, name, fn):
        tracer = self
        calls, yielded = name + ".calls", name + ".yielded"

        def wrapper(*args, **kwargs):
            tracer.pending[calls] += 1
            it = fn(*args, **kwargs)
            while True:
                frame, outer = tracer._enter(name, None)
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._exit(frame, outer, None, start, time.perf_counter())
                tracer.pending[yielded] += 1
                yield item

        return wrapper

    def _counted(self, name, fn):
        pending, calls = self.pending, name + ".calls"

        def wrapper(*args, **kwargs):
            pending[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self, mods) -> None:
        """Wrap every target in every loaded finsheaf namespace holding it."""
        hooks = _hooks(mods)
        group_of = {f"serialize.{fn}": g for g, fns in GROUPS.items() for fn in fns}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "finsheaf" or n.startswith("finsheaf.")]
        for mod, fn in TIMED + GENERATORS + COUNTED:
            name = f"{mod}.{fn}"
            original = getattr(getattr(mods, mod), fn)
            if (mod, fn) in GENERATORS:
                wrapped = self._generator(name, original)
            elif (mod, fn) in COUNTED:
                wrapped = self._counted(name, original)
            else:
                wrapped = self._timed(name, original, hooks.get(name), group_of.get(name))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, original))
                        setattr(ns, attr, wrapped)

    def restore(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ------------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric of ``metric_specs``, zero where unused."""
        total, self_s = Counter(), Counter()
        for (name, _parent), (_n, dur, own) in self.agg.items():
            total[name] += dur
            self_s[name] += own
        out: dict[str, float] = {}
        for mod, fn in TIMED + GENERATORS:
            base = f"{mod}.{fn}"
            out[f"{base}.calls"] = self.counts[f"{base}.calls"]
            out[f"{base}.s"] = total[base]
            out[f"{base}.self_s"] = self_s[base]
        for mod, fn in COUNTED:
            out[f"{mod}.{fn}.calls"] = self.counts[f"{mod}.{fn}.calls"]
        for g in GROUPS:
            out[f"{g}.s"] = self.group_s[g]
        for name, _unit in WORK:
            out[name] = self.counts[name]
        for name, kept, base in RATIOS:
            out[name] = self.counts[kept] / self.counts[base] if self.counts[base] else 0.0
        out["trace.overhead_s"] = overhead_s
        out["trace.ops_dropped"] = self.ops_dropped
        out["trace.spans"] = self.counts["trace.spans"]
        return out

    def aggregate(self) -> list[dict]:
        """Spans aggregated per (name, parent), slowest first."""
        rows = [{"name": n, "parent": p, "calls": c, "s": round(s, 6),
                 "self_s": round(own, 6)}
                for (n, p), (c, s, own) in self.agg.items()]
        return sorted(rows, key=lambda r: -r["s"])

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
