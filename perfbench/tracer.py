"""Outside-in tracer: wraps pqvol's public functions without editing them.

Every wrapped function is replaced at every binding site, because
``cli``, ``draconian``, ``tripling``, ``lost_sequences`` and ``ehrhart``
bind each other's names through ``from .x import f``; patching only the
defining module would miss their calls.  Methods are patched on the class.

Each call becomes a span (name, start, end, parent, run id) kept in flat
arrays in memory and written out by ``dump`` when the traced job ends.
A generator gets one span per resume, so its span covers only the work
done inside it and not the consumer's loop body.  A span's self time is
its duration minus the durations of its direct children; spans nest
strictly, so self times add up to the root span.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array

# (module, attribute path, kind); kind is "call", "gen" or "classmethod"
TARGETS = (
    ("cli", "main", "call"),
    ("graphs", "parse_graph", "call"),
    ("graphs", "connected_components", "call"),
    ("graphs", "Graph.neighbors", "call"),
    ("graphs", "doubling", "call"),
    ("combinat", "weak_compositions", "gen"),
    ("combinat", "SequenceSet.of", "classmethod"),
    ("combinat", "SequenceSet.union", "call"),
    ("combinat", "SequenceSet.intersection", "call"),
    ("combinat", "SequenceSet.difference", "call"),
    ("combinat", "SequenceSet.symmetric_difference", "call"),
    ("combinat", "SequenceSet.__contains__", "call"),
    ("draconian", "count_draconian", "call"),
    ("draconian", "enumerate_draconian", "call"),
    ("draconian", "is_draconian_flow", "call"),
    ("flows", "transportation_feasible", "call"),
    ("flows", "UnitRouter.add_unit", "call"),
    ("ehrhart", "ehrhart_nvol", "call"),
    ("ehrhart", "count_dilate_points", "call"),
    ("ehrhart", "affine_dimension", "call"),
    ("lost_sequences", "verify_path_identity", "call"),
    ("lost_sequences", "verify_cycle_identity", "call"),
    ("lost_sequences", "path_heavy_exceptions", "call"),
    ("lost_sequences", "path_split_exceptions", "call"),
    ("lost_sequences", "cycle_heavy_exceptions", "call"),
    ("lost_sequences", "cycle_split_exceptions", "call"),
    ("lost_sequences", "cycle_triple_exceptions", "call"),
    ("tripling", "connected_graph_stream", "gen"),
    ("tripling", "_canonical_encoding", "call"),
    ("tripling", "recurrence_hypotheses", "call"),
    ("tripling", "verify_partition", "call"),
)
MODULES = ("cli", "graphs", "combinat", "draconian", "flows", "ehrhart",
           "lost_sequences", "tripling")

# metric groups that sum several wrapped functions
GROUPS = {
    "combinat.SequenceSet": ("combinat.SequenceSet.",),
    "lost_sequences.verify_identity": ("lost_sequences.verify_path_identity",
                                       "lost_sequences.verify_cycle_identity"),
    "lost_sequences.exceptions": tuple(f"lost_sequences.{a}" for m, a, _ in TARGETS
                                       if a.endswith("_exceptions")),
}

# per-layer metrics: name -> (unit, better)
LAYER_METRICS = {
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "graphs.parse_graph.self_s": ("s", "lower"),
    "graphs.connected_components.calls": ("count", "lower"),
    "graphs.connected_components.self_s": ("s", "lower"),
    "graphs.Graph.neighbors.calls": ("count", "lower"),
    "graphs.Graph.neighbors.self_s": ("s", "lower"),
    "graphs.doubling.calls": ("count", "lower"),
    "graphs.doubling.self_s": ("s", "lower"),
    "combinat.weak_compositions.items": ("count", "lower"),
    "combinat.weak_compositions.self_s": ("s", "lower"),
    "combinat.SequenceSet.calls": ("count", "lower"),
    "combinat.SequenceSet.items": ("count", "lower"),
    "combinat.SequenceSet.self_s": ("s", "lower"),
    "draconian.count_draconian.calls": ("count", "lower"),
    "draconian.count_draconian.self_s": ("s", "lower"),
    "draconian.enumerate_draconian.calls": ("count", "lower"),
    "draconian.enumerate_draconian.self_s": ("s", "lower"),
    "draconian.enumerate_draconian.sequences": ("count", "lower"),
    "draconian.enumerate_draconian.candidates": ("count", "lower"),
    "draconian.enumerate_draconian.yield": ("ratio", "higher"),
    "draconian.is_draconian_flow.calls": ("count", "lower"),
    "draconian.is_draconian_flow.self_s": ("s", "lower"),
    "flows.transportation_feasible.calls": ("count", "lower"),
    "flows.transportation_feasible.self_s": ("s", "lower"),
    "flows.transportation_feasible.feasible_ratio": ("ratio", "higher"),
    "flows.UnitRouter.add_unit.calls": ("count", "lower"),
    "flows.UnitRouter.add_unit.self_s": ("s", "lower"),
    "ehrhart.ehrhart_nvol.self_s": ("s", "lower"),
    "ehrhart.count_dilate_points.calls": ("count", "lower"),
    "ehrhart.count_dilate_points.self_s": ("s", "lower"),
    "ehrhart.affine_dimension.self_s": ("s", "lower"),
    "lost_sequences.verify_identity.calls": ("count", "lower"),
    "lost_sequences.verify_identity.self_s": ("s", "lower"),
    "lost_sequences.exceptions.self_s": ("s", "lower"),
    "lost_sequences.lost_ratio": ("ratio", "lower"),
    "tripling.connected_graph_stream.self_s": ("s", "lower"),
    "tripling.connected_graph_stream.graphs": ("count", "lower"),
    "tripling.connected_graph_stream.subsets_tried": ("count", "lower"),
    "tripling.connected_graph_stream.yield": ("ratio", "higher"),
    "tripling._canonical_encoding.calls": ("count", "lower"),
    "tripling._canonical_encoding.self_s": ("s", "lower"),
    "tripling.recurrence_hypotheses.calls": ("count", "lower"),
    "tripling.recurrence_hypotheses.self_s": ("s", "lower"),
    "tripling.verify_partition.calls": ("count", "lower"),
    "tripling.verify_partition.self_s": ("s", "lower"),
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    "trace.overhead_s": ("s", "lower"),
}

FIELDS = ("name", "start", "end", "parent", "run")


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack = [-1]
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._nid(name))
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # ------------------------------------------------------------ wrappers

    def _wrap_call(self, name, fn, after):
        nid = self._nid(name)
        names, parents, runs, starts, ends = self.name, self.parent, self.run, self.start, self.end
        stack, clock, calls = self._stack, time.perf_counter_ns, self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            calls[name] += 1
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def _wrap_gen(self, name, fn):
        self.calls[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    idx = self.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    self.count(name + ".items", 1)
                    yield item
            finally:
                gen.close()

        return traced

    def install(self) -> None:
        """Wrap every target at every pqvol binding site."""
        mods = {k: m for k, m in sys.modules.items() if k == "pqvol" or k.startswith("pqvol.")}
        for mod, path, kind in TARGETS:
            owner = mods[f"pqvol.{mod}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            name = f"{mod}.{path}"
            after = AFTER.get(name)
            if kind == "gen":
                orig = getattr(owner, attr)
                wrapped = self._wrap_gen(name, orig)
            elif kind == "classmethod":
                orig = owner.__dict__[attr]
                wrapped = classmethod(self._wrap_call(name, orig.__func__, after))
            else:
                orig = getattr(owner, attr)
                wrapped = self._wrap_call(name, orig, after)
            if outer:  # a method: the class is its one binding site
                self._patched.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # ------------------------------------------------------------ output

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then each field's raw array."""
        header = {"names": self.names, "fields": FIELDS, "count": len(self.name),
                  "typecodes": [getattr(self, f).typecode for f in FIELDS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in FIELDS:
                getattr(self, f).tofile(fh)


def load(path: str) -> dict:
    """Read a file written by Tracer.dump back into names and arrays."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        spans = {"names": header["names"]}
        for f, code in zip(header["fields"], header["typecodes"]):
            arr = array(code)
            arr.fromfile(fh, header["count"])
            spans[f] = arr
    return spans


def self_times(spans) -> list[int]:
    """Per-span self time in ns: duration minus the durations of direct children."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def _after_enumerate(tr, args, result):
    n = args[0].n
    tr.count("draconian.enumerate_draconian.sequences", len(result))
    tr.count("draconian.enumerate_draconian.candidates", math.comb(2 * n - 2, n - 1))


def _after_feasible(tr, args, result):
    tr.count("flows.transportation_feasible.feasible", bool(result))


def _after_set(tr, args, result):
    tr.count("combinat.SequenceSet.items", len(result))


def _after_identity(tr, args, result):
    actual = result.cardinalities["actual"]
    tr.count("lost_sequences.lost", actual["lost"])
    tr.count("lost_sequences.complete", actual["complete_count"])


AFTER = {
    "draconian.enumerate_draconian": _after_enumerate,
    "flows.transportation_feasible": _after_feasible,
    "combinat.SequenceSet.of": _after_set,
    "lost_sequences.verify_path_identity": _after_identity,
    "lost_sequences.verify_cycle_identity": _after_identity,
}


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric except trace.overhead_s, from one traced job."""
    spans = {f: getattr(tracer, f) for f in FIELDS}
    own = self_times(spans)
    names = tracer.names
    self_ns: dict[str, int] = {}
    for nid, ns in zip(spans["name"], own):
        self_ns[names[nid]] = self_ns.get(names[nid], 0) + ns
    stream = tracer._ids.get("tripling.connected_graph_stream", -2)
    tried = sum(1 for i, nid in enumerate(spans["name"])
                if names[nid] == "graphs.connected_components"
                and spans["parent"][i] >= 0 and spans["name"][spans["parent"][i]] == stream)

    def members(key):
        if key not in GROUPS:
            return [key]
        return [n for n in self_ns.keys() | tracer.calls.keys() if n.startswith(GROUPS[key])]

    def secs(key):
        return sum(self_ns.get(n, 0) for n in members(key)) / 1e9

    def calls(key):
        return sum(tracer.calls.get(n, 0) for n in members(key))

    c = tracer.counters
    out = {}
    for metric in LAYER_METRICS:
        key, _, stat = metric.rpartition(".")
        if key in MODULES:
            out[metric] = sum(v for n, v in self_ns.items() if n.startswith(key + ".")) / 1e9
        elif stat == "self_s":
            out[metric] = secs(key)
        elif stat == "calls":
            out[metric] = calls(key)
    out["combinat.weak_compositions.items"] = c.get("combinat.weak_compositions.items", 0)
    out["combinat.SequenceSet.items"] = c.get("combinat.SequenceSet.items", 0)
    seqs = c.get("draconian.enumerate_draconian.sequences", 0)
    cands = c.get("draconian.enumerate_draconian.candidates", 0)
    out["draconian.enumerate_draconian.sequences"] = seqs
    out["draconian.enumerate_draconian.candidates"] = cands
    out["draconian.enumerate_draconian.yield"] = seqs / cands if cands else 0.0
    feas_calls = tracer.calls.get("flows.transportation_feasible", 0)
    out["flows.transportation_feasible.feasible_ratio"] = (
        c.get("flows.transportation_feasible.feasible", 0) / feas_calls if feas_calls else 0.0)
    complete = c.get("lost_sequences.complete", 0)
    lost = c.get("lost_sequences.lost", 0)
    out["lost_sequences.lost_ratio"] = lost / complete if complete else 0.0
    graphs = c.get("tripling.connected_graph_stream.items", 0)
    out["tripling.connected_graph_stream.graphs"] = graphs
    out["tripling.connected_graph_stream.subsets_tried"] = tried
    out["tripling.connected_graph_stream.yield"] = graphs / tried if tried else 0.0
    return out
