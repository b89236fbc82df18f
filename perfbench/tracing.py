"""Layer-boundary tracer for the stcores package, installed from benchmark code.

Every public function of a layer module is wrapped under each name the
package binds it to (``abacus.core`` as well as ``orbits.core_from_s_set``),
so calls that cross a module boundary open a span.  Constructions of
``Partition``, ``SSet`` and ``SPoint`` are counted, not timed: their cost
stays with the span that built them.  The library's own files are not
touched; the wrappers exist only inside a ``with tracer:`` block.

A span is (id, parent id, name, start ns, end ns, op id).  Self time is a
span's duration minus the durations of its child spans; spans never overlap
because the package is single-threaded.  Aggregates cover every span, and
the first SPAN_CAP spans are kept in memory for ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter_ns

PACKAGE = "stcores"
LAYERS = ("partitions", "abacus", "alcoves", "affine_actions", "orbits", "diagram", "verify", "cli")
SPAN_CAP = 50_000

# Counts taken from a function's result at its boundary.
RESULT_PROBES = {
    "orbits.containment_chain": ("orbits.containment_chain.steps", len),
    "orbits.descend_to_t_core": ("orbits.descend_to_t_core.steps", lambda r: len(r[1])),
    "abacus.core_from_s_set": ("abacus.core_from_s_set.boxes_out", lambda p: sum(p.parts)),
}


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.edges: Counter[tuple[str, str]] = Counter()
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.spans_dropped = 0
        self.op = 0
        self._stack: list[list] = []  # [name, span id, start ns, child ns]
        self._next_id = 1
        self._patches = self._build_patches()

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        layer_mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in layer_mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        binders = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        patches = [
            (mod, attr, value, wrapped[id(value)])
            for mod in binders
            for attr, value in list(vars(mod).items())
            if id(value) in wrapped
        ]
        partitions, abacus, alcoves = (layer_mods[k] for k in ("partitions", "abacus", "alcoves"))
        for cls, counter in (
            (partitions.Partition, self._count_partition),
            (abacus.SSet, self._counter("abacus.sset_built")),
            (alcoves.SPoint, self._counter("alcoves.spoint_built")),
        ):
            original = cls.__dict__["__post_init__"]
            patches.append((cls, "__post_init__", original, _counting(original, counter)))
        return patches

    def __enter__(self) -> "Tracer":
        for obj, attr, _, new in self._patches:
            setattr(obj, attr, new)
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, old, _ in self._patches:
            setattr(obj, attr, old)

    def _counter(self, name: str):
        counts = self.counts

        def bump(_obj) -> None:
            counts[name] += 1

        return bump

    def _count_partition(self, p) -> None:
        self.counts["partitions.built"] += 1
        self.counts["partitions.parts_built"] += len(p.parts)

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls, self_ns, edges, counts = self.calls, self.self_ns, self.edges, self.counts
        probe = RESULT_PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [name, span_id, perf_counter_ns(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[2]
                calls[name] += 1
                self_ns[name] += duration - frame[3]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += duration
                    edges[parent[0], name] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append(
                        (span_id, parent[1] if parent else 0, name, frame[2], end, self.op)
                    )
                else:
                    self.spans_dropped += 1
            if probe is not None:
                counts[probe[0]] += probe[1](result)
            return result

        return wrapper

    def layer_totals(self) -> dict[str, tuple[int, int]]:
        """(calls, self ns) per layer, summed over that layer's functions."""
        totals = {layer: [0, 0] for layer in LAYERS}
        for name, n in self.calls.items():
            layer = name.split(".", 1)[0]
            totals[layer][0] += n
            totals[layer][1] += self.self_ns[name]
        return {layer: (c, ns) for layer, (c, ns) in totals.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end, "op": op}) + "\n")
            if self.spans_dropped:
                fh.write(json.dumps({"dropped": self.spans_dropped}) + "\n")


def _counting(original, counter):
    def __post_init__(self) -> None:
        counter(self)
        original(self)

    return __post_init__
