"""Seeded inputs, references and answer checks for the benchmark's workloads.

Inputs are built here from the seed with this file's own graph code, so
the program under test receives only argv lists and graph files.  The
references are computed outside the timed runs, never through the
subset enumerator the timed ops exercise:

* closed forms from ``pqvol.formulas``, with the two known discrepancies
  pinned (the cycle m = 4 branch undercounts by 2(n - 4); the path
  counts follow the "grouped" reading);
* the flow engine (``count_draconian(..., engine="flow")``) on small
  pieces: the count of a graph is the product of the counts of its
  biconnected blocks, so each sparse graph is checked block by block;
* for ``search``, the number of connected graphs per vertex count
  (OEIS A001349) plus flow counts of the base graphs.
"""

from __future__ import annotations

import json
import os
import random

# Each workload's job runs the ops of two groups back to back.  Two
# workloads instead of four let each run measure for longer within the
# benchmark's time budget, which steadies its figures on shared, noisy
# hardware.  The groups are paired by op length: "large" holds the few
# long ops, so a run repeats each four or five times; "small" holds the
# many short ones, whose best-of-N times need more repeats to settle and
# get seven to nine.  Each pairing also has a large-state and a small-state
# use of the draconian enumerator (count-dense against count-sparse).
WORKLOADS = {
    "large": ("count-dense", "search"),
    "small": ("count-sparse", "crosscheck"),
}

# connected graphs on n vertices up to isomorphism, n = 2..6 (OEIS A001349)
CONNECTED_CLASSES = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}

# count-sparse slots: (n, chords, parts); n alternates 9/10, chords cycle
# through 2..8 and every fifth graph has two components.  Fixed slots keep
# the work steady across seeds.
SPARSE_SLOTS = tuple(
    (9 + i % 2, 2 + (i // 2) % 7, 2 if i % 5 == 4 else 1) for i in range(100)
)
# blocks stay this small so the flow reference costs milliseconds per graph
SPARSE_MAX_BLOCK = 7
SEARCH_SAMPLE = 20


# ---------------------------------------------------------------- graphs

def complete(n):
    return n, {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)}


def cycle_deleted(n, m):
    cyc = list(range(n - m + 1, n + 1))
    gone = {tuple(sorted((cyc[k], cyc[(k + 1) % m]))) for k in range(m)}
    return n, complete(n)[1] - gone


def path_deleted(n, m):
    return n, complete(n)[1] - {(i, i + 1) for i in range(n - m, n)}


def matching_triangles(n, m):
    edges = set(complete(n)[1])
    for k in range(1, m + 1):
        apex = n + k
        edges |= {(2 * k - 1, apex), (2 * k, apex)}
    return n + m, edges


SMALL_CONNECTED = (  # the 10 connected graphs with at most 4 vertices
    (1, set()), (2, {(1, 2)}), (3, {(1, 2), (2, 3)}), complete(3),
    (4, {(1, 2), (2, 3), (3, 4)}), (4, {(1, 2), (1, 3), (1, 4)}),
    (4, {(1, 2), (2, 3), (3, 4), (1, 4)}), (4, {(1, 2), (2, 3), (1, 3), (3, 4)}),
    (4, complete(4)[1] - {(3, 4)}), complete(4),
)


def relabel(rng, graph):
    n, edges = graph
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return n, {tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges}


def graph_text(rng, graph):
    n, edges = graph
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in sorted(edges)]
    rng.shuffle(lines)
    return "\n".join([str(n)] + lines) + "\n"


def parse_descriptor(text):
    """'n=3;e=1-2,2-3' -> (3, {(1, 2), (2, 3)})."""
    head, body = text.split(";")
    edges = {tuple(int(x) for x in e.split("-")) for e in body[2:].split(",") if e}
    return int(head[2:]), edges


def blocks(graph):
    """Biconnected blocks (vertex sets with their edges), Hopcroft-Tarjan."""
    n, edges = graph
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    depth, low, stack, out = {}, {}, [], []

    def visit(v, parent, d):
        depth[v] = low[v] = d
        for w in adj[v]:
            if w == parent:
                continue
            if w not in depth:
                stack.append((v, w))
                visit(w, v, d + 1)
                low[v] = min(low[v], low[w])
                if low[w] >= depth[v]:
                    part = set()
                    while True:
                        e = stack.pop()
                        part.add(tuple(sorted(e)))
                        if e == (v, w):
                            break
                    out.append(part)
            elif depth[w] < depth[v]:
                stack.append((v, w))
                low[v] = min(low[v], depth[w])

    for v in range(1, n + 1):
        if v not in depth:
            visit(v, None, 0)
    return out


def _tree_plus_chords(rng, n, chords):
    """A uniform random labelled tree (Pruefer code) plus `chords` extra edges,
    each kept only while every biconnected block stays within SPARSE_MAX_BLOCK."""
    while True:
        code = [rng.randint(1, n) for _ in range(n - 2)]
        degree = [1] * (n + 1)
        for x in code:
            degree[x] += 1
        edges = set()
        for x in code:
            leaf = min(v for v in range(1, n + 1) if degree[v] == 1)
            edges.add(tuple(sorted((leaf, x))))
            degree[leaf] -= 1
            degree[x] -= 1
        u, v = (w for w in range(1, n + 1) if degree[w] == 1)
        edges.add((u, v))
        pool = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                if (a, b) not in edges]
        rng.shuffle(pool)
        added = 0
        for e in pool:
            if added == chords:
                break
            edges.add(e)
            if max(len({x for f in b for x in f}) for b in blocks((n, edges))) > SPARSE_MAX_BLOCK:
                edges.discard(e)
            else:
                added += 1
        if added == chords:
            return edges


def sparse_graph(rng, n, chords, parts):
    if parts == 1:
        return n, _tree_plus_chords(rng, n, chords)
    a = n // 2
    c1 = min(chords // 2, (a - 1) * (a - 2) // 2)
    left = _tree_plus_chords(rng, a, c1)
    right = _tree_plus_chords(rng, n - a, chords - c1)
    return relabel(rng, (n, left | {(u + a, v + a) for u, v in right}))


# ---------------------------------------------------------------- ops

def make_ops(workload, seed, workdir):
    """The op list for one job and the graph files its ops read from workdir.

    Returns (ops, files) where files maps file name -> text.  Every op is a
    dict with the argv for pqvol.cli.main, a check kind and what the check
    needs to know about the input.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {tuple(WORKLOADS)}")
    files, ops = {}, []
    for group in WORKLOADS[workload]:
        group_ops, group_files = make_group(group, seed, workdir)
        ops += group_ops
        files.update(group_files)
    return ops, files


def make_group(group, seed, workdir):
    """The ops and files of one op group; each group draws from its own seeded rng."""
    rng = random.Random(f"{group}:{seed}")
    files, ops = {}, []

    def add_file(name, graph):
        files[name] = graph_text(rng, graph)
        return os.path.join(workdir, name)

    if group == "count-dense":
        for fam, params, graph in (
            ("complete", (11,), complete(11)),
            ("cycle-deleted", (11, 4), cycle_deleted(11, 4)),
            ("cycle-deleted", (10, 5), cycle_deleted(10, 5)),
            ("path-deleted", (10, 3), path_deleted(10, 3)),
            ("matching-triangles", (8, 2), matching_triangles(8, 2)),
        ):
            path = add_file(f"{fam}-{'-'.join(map(str, params))}.txt", relabel(rng, graph))
            ops.append(dict(argv=["count", "--graph", path, "--cap-n", "11"], kind="count-family",
                            family=fam, params=params))
    elif group == "count-sparse":
        for i, (n, chords, parts) in enumerate(SPARSE_SLOTS):
            graph = sparse_graph(rng, n, chords, parts)
            path = add_file(f"sparse-{i:03d}.txt", graph)
            ops.append(dict(argv=["count", "--graph", path], kind="count-graph",
                            graph=[graph[0], sorted(graph[1])]))
    elif group == "crosscheck":
        # n stops at 8 (6 for matching triangles): at n = 9 the K_n enumerations
        # inside verify outweigh flows, ehrhart, lost_sequences and combinat,
        # which this group exists to measure
        for fam, n_range in (("cycle-deleted", "5..8"), ("path-deleted", "5..8"),
                             ("matching-triangles", "4..6")):
            lo, hi = map(int, n_range.split(".."))
            ops.append(dict(argv=["verify", "--family", fam, "--n", n_range], kind="verify",
                            family=fam, n=[lo, hi]))
        for fam, params, graph in (("complete", (8,), complete(8)),
                                   ("cycle-deleted", (8, 4), cycle_deleted(8, 4))):
            path = add_file(f"flow-{fam}.txt", relabel(rng, graph))
            ops.append(dict(argv=["count", "--graph", path, "--engine", "flow"],
                            kind="count-family", family=fam, params=params))
        for i, graph in enumerate(SMALL_CONNECTED):
            graph = relabel(rng, graph)
            path = add_file(f"ehrhart-{i}.txt", graph)
            ops.append(dict(argv=["ehrhart", "--graph", path], kind="ehrhart",
                            graph=[graph[0], sorted(graph[1])]))
    elif group == "search":
        ops.append(dict(argv=["search", "--n-max", "6"], kind="search",
                        sample_seed=rng.randrange(1 << 30)))
    else:
        raise ValueError(f"unknown op group {group!r}")
    return ops, files


# ---------------------------------------------------------------- references

class Reference:
    """Answers computed without the timed subset enumerator.

    Flow counts are cached by edge set, so a block shared by many graphs
    is counted once per run.
    """

    def __init__(self):
        from pqvol import count_draconian, formulas, parse_graph

        self._formulas = formulas
        self._count = count_draconian
        self._parse = parse_graph
        self._flow_cache = {}

    def flow_count(self, graph):
        n, edges = graph
        key = (n, tuple(sorted(edges)))
        if key not in self._flow_cache:
            text = "\n".join([str(n)] + [f"{u} {v}" for u, v in key[1]])
            self._flow_cache[key] = self._count(self._parse(text), engine="flow").count
        return self._flow_cache[key]

    def block_product(self, graph):
        """Count of a graph as the product of the flow counts of its blocks."""
        out = 1
        for part in blocks(graph):
            verts = sorted({x for e in part for x in e})
            pos = {v: i + 1 for i, v in enumerate(verts)}
            out *= self.flow_count((len(verts), {(pos[u], pos[v]) for u, v in part}))
        return out

    def family(self, fam, params):
        f = self._formulas
        if fam == "complete":
            return f.nvol_complete(*params)
        if fam == "matching-triangles":
            return f.nvol_matching_triangles(*params)
        if fam == "path-deleted":
            return f.nvol_path_deleted(*params).grouped
        n, m = params
        return f.nvol_cycle_deleted(n, m) + (2 * (n - 4) if m == 4 else 0)

    def expect(self, op):
        """The reference answer an op's output must carry."""
        kind = op["kind"]
        if kind == "count-family":
            return str(self.family(op["family"], tuple(op["params"])))
        if kind == "count-graph":
            n, edges = op["graph"]
            return str(self.block_product((n, {tuple(e) for e in edges})))
        if kind == "ehrhart":
            n, edges = op["graph"]
            return str(self.flow_count((n, {tuple(e) for e in edges})))
        if kind == "verify":
            fam = op["family"]
            lo, hi = op["n"]
            rows = {}
            for n in range(lo, hi + 1):
                ms = {"cycle-deleted": range(3, n + 1), "path-deleted": range(2, n),
                      "matching-triangles": range(0, n // 2 + 1)}[fam]
                for m in ms:
                    rows[(n, m)] = str(self.family(fam, (n, m)))
            return rows
        if kind == "search":
            return dict(CONNECTED_CLASSES)
        raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------- checks

def _check_search(ref, op, out):
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    by_graph = {}
    for r in records:
        by_graph.setdefault(r["graph_encoding"], []).append(r)
    classes = {}
    for desc, recs in by_graph.items():
        n, edges = parse_descriptor(desc)
        classes[n] = classes.get(n, 0) + 1
        if sorted(tuple(r["edge"]) for r in recs) != sorted(edges):
            return False
        base = {r["counts"]["base"] for r in recs}
        if base != {str(ref.flow_count((n, edges)))}:
            return False
    if classes != ref.expect(op):
        return False
    for r in records:
        base, ext = int(r["counts"]["base"]), int(r["counts"]["extended"])
        if r["triples"] != (ext == 3 * base):
            return False
        if r["category"] == "hypotheses-hold:fails":
            return False
    # extended counts: a seeded sample, each checked by flow on the glued graph
    for r in random.Random(op["sample_seed"]).sample(records, min(SEARCH_SAMPLE, len(records))):
        n, edges = parse_descriptor(r["graph_encoding"])
        u, v = r["edge"]
        ext = (n + 1, edges | {(u, n + 1), (v, n + 1)})
        if r["counts"]["extended"] != str(ref.flow_count(ext)):
            return False
    return True


def _check_verify(ref, op, payload):
    if payload.get("all_must_hold") is not True:
        return False
    want = ref.expect(op)
    got = {}
    for row in payload["rows"]:
        got[(row["n"], row["m"])] = row["enumeration"]
        if not row["must_hold"]:
            return False
        partition = row.get("partition_holds")
        if op["family"] == "matching-triangles" and row["m"] >= 1 and partition is not True:
            return False
    return got == want


def check_op(ref, op, result):
    """True when an op exited 0 and its output matches the reference."""
    if result.get("error") or result.get("rc") != 0:
        return False
    out = result.get("out", "")
    try:
        if op["kind"] == "search":
            return _check_search(ref, op, out)
        payload = json.loads(out)
        if op["kind"] == "verify":
            return _check_verify(ref, op, payload)
        key = "nvol" if op["kind"] == "ehrhart" else "count"
        return payload[key] == ref.expect(op)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError):
        return False


def count_failures(ref, ops, results):
    """Failed ops among one job's results; a missing result is a failure."""
    failed = 0
    for i, op in enumerate(ops):
        if i >= len(results) or not check_op(ref, op, results[i]):
            failed += 1
    return failed
