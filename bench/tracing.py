"""Span tracer for the traced run.

`install` wraps the public entry points of every deltamatroids module from
the outside: each call records a span (name, start, end, parent) in flat
arrays, and some calls also add to a counter.  Self time of a span is its
duration minus the time its child spans cover.  Nothing is patched unless a
traced run asks for it, so untraced runs time the program as shipped.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from functools import cached_property
from typing import Callable, Optional

clock = time.perf_counter

QUERY = "query"

#: (module, attribute, span name, counter): the counter, given the call's
#: arguments, yields (counter name, amount) after the call returns.
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("cli", "main", "cli", None),
    ("search", "matroid_codes", "search.enumerate", None),
    ("search", "delta_codes", "search.enumerate", None),
    ("search", "verify_property", "search.verify", None),
    ("search", "find_unpairable_pair", "search.unpairable", None),
    ("matroids", "Matroid.certify", "matroids.certify", lambda a: ("matroids.certify_bases", len(a[1]))),
    ("matroids", "Matroid.delete", "matroids.minor", None),
    ("matroids", "Matroid.contract", "matroids.minor", None),
    ("delta", "DeltaMatroid.certify", "delta.certify", lambda a: ("delta.certify_feasibles", len(a[1]))),
    ("delta", "DeltaMatroid.upper", "delta.upper_lower", None),
    ("delta", "DeltaMatroid.lower", "delta.upper_lower", None),
    ("delta", "DeltaMatroid.complement_dual", "delta.complement_dual", None),
    ("delta", "is_pairable", "delta.is_pairable", None),
    ("delta", "construct_sandwich", "delta.sandwich", None),
    ("delta", "fmax_upper_uniform", "delta.fmax", None),
    ("delta", "fmax_lower_uniform", "delta.fmax", None),
    ("rigidity", "is_sparse_23", "rigidity.sparse", None),
    ("rigidity", "rigidity_matroid", "rigidity.rigidity_matroid", None),
    ("rigidity", "cycle_matroid", "rigidity.cycle_matroid", None),
    ("rigidity", "rigidity_feasible_family", "rigidity.feasible_family", None),
    ("rigidity", "verify_cone_quotient", "rigidity.cone_check", None),
    ("serialize", "load_json", "serialize.load", None),
    ("serialize", "family_from_json", "serialize.load", None),
    ("serialize", "matroid_from_json", "serialize.load", None),
    ("serialize", "delta_from_json", "serialize.load", None),
    ("serialize", "graph_from_json", "serialize.load", None),
    ("serialize", "matroid_to_json", "serialize.dump", None),
    ("serialize", "delta_to_json", "serialize.dump", None),
    ("serialize", "graph_to_json", "serialize.dump", None),
    ("serialize", "dumps_canonical", "serialize.dump", None),
    ("core", "SetFamily.__post_init__", "core.setfamily", lambda a: ("core.setfamily_members", len(a[0].masks))),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def name_to_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = clock()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, counter: Optional[Callable]) -> Callable:
        nid = self.name_to_id(name)
        # one span name per property id: verify_property(property_id, n, ...)
        per_property = name == "search.verify"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(self.name_to_id(f"{name}.{args[0]}") if per_property else nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if counter is not None:
                    key, amount = counter(args)
                    self.counts[key] += amount

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name_id[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def dump_tsv(self, path) -> None:
        with open(path, "w") as f:
            f.write("span\tname\tparent\tstart_s\tend_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i] - t0:.7f}\t{self.end[i] - t0:.7f}\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap every target, in its own module and wherever another
    deltamatroids module imported it by name."""
    modules = [m for k, m in sys.modules.items() if k == "deltamatroids" or k.startswith("deltamatroids.")]
    for mod_name, attr, span, counter in TARGETS:
        owner = sys.modules[f"deltamatroids.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(raw.__func__, span, counter))
            elif isinstance(raw, cached_property):
                new = cached_property(tracer.wrap(raw.func, span, counter))
                new.__set_name__(cls, meth)
            else:
                new = tracer.wrap(raw, span, counter)
            setattr(cls, meth, new)
            continue
        orig = getattr(owner, attr)
        traced = tracer.wrap(orig, span, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)


def layer_metrics(tracer: Tracer, memo) -> dict[str, float]:
    """Every per-layer figure the traced run can give, by metric name."""
    rows = tracer.summary()
    out: dict[str, float] = {}
    for name, row in rows.items():
        if name == QUERY:
            continue
        stem = "cli.self" if name == "cli" else name
        out[f"{stem}_s"] = row["self_s"]
        out[f"{stem}_calls"] = row["calls"]
    out["search.verify_s"] = sum(r["self_s"] for k, r in rows.items() if k.startswith("search.verify."))
    out.update(tracer.counts)
    calls = memo.hits + memo.misses
    out["delta.memo_calls"] = calls
    out["delta.memo_hit_ratio"] = memo.hits / calls if calls else 0.0
    # share of the query spans' time spent inside program spans: it drops
    # when a program entry point a query reaches is left unwrapped
    query = rows.get(QUERY)
    out["trace.query_coverage"] = 1 - query["self_s"] / query["total_s"] if query and query["total_s"] else 0.0
    return out
