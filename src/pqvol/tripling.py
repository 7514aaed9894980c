"""The triangle recurrence: gluing a triangle onto an edge triples the count.

Attaching a new apex vertex to both ends of an edge e = {u, v} sends
draconian sequences of the base graph into the extended graph along
three injections, here called lifts.  Writing (c, k) for c with k
appended at the apex slot:

    lift_one(c)              = (c, 1)
    lift_bump(c, u)          = (c + e_u, 0)
    lift_resolve(c, u, v, B) = (c + e_v, 0)   if that misses B,
                               (c - e_u, 2)   otherwise,

where B is the full image of lift_bump.  When the three images are
pairwise disjoint and cover the extended graph's draconian set, the
count triples.  That partition is a theorem under a degree hypothesis
on e, and holds experimentally well beyond it; verify_partition
measures it on one (graph, edge) and search_triple_recurrence sweeps
all small connected graphs looking for the boundary.

Where tripling fails, the lifts say by how much.  These facts are
tested, not proved: on every (G, e) with G connected on at most 6
vertices (1112 records), in both orientations of e,

- lift_one and lift_bump land in the extended set;
- the extended sequences with apex entry 1 are exactly lift_one's image;
- lift_resolve is injective;
- the three images cover the extended set.

The images are pairwise disjoint by construction: apex entry 1 marks
lift_one, and lift_resolve gives entry 0 only off the bump image.  So

    extended count = 3 * base count - #(resolve images outside the extended set),

which held on every record.  This defect lies in 0..48 at n <= 6 and is
positive on 215 records.  Tier-1 tests the facts to n = 5, CI to n = 6.

Tripling is local to the block B of G that holds e.  The apex meets
only u and v, both in B, so G with a triangle on e has G's blocks with
B replaced by B with a triangle on e.  Counts multiply over blocks (the
draconian docstring), so (G, e) and (B, e) have one extended-to-base
ratio, and (G, e) triples exactly when (B, e) does.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from .draconian import count_draconian, enumerate_draconian
from .graphs import Graph, connected_components, doubling, triangle_extend


def lift_one(c: Sequence[int]) -> tuple[int, ...]:
    """Append 1 at the apex slot."""
    return tuple(c) + (1,)


def lift_bump(c: Sequence[int], u: int) -> tuple[int, ...]:
    """Add a unit at u and append 0 at the apex slot."""
    if not 1 <= u <= len(c):
        raise ValueError(f"vertex {u} out of range 1..{len(c)}")
    out = list(c)
    out[u - 1] += 1
    return tuple(out) + (0,)


def lift_resolve(c: Sequence[int], u: int, v: int, bump_image) -> tuple[int, ...]:
    """The third lift: bump v unless that collides with the bump image,
    in which case take a unit from u and give the apex 2.

    A collision c + e_v = c' + e_u forces c_u = c'_u + 1 >= 1, so the
    fallback cannot drive an entry negative on legitimate inputs; a
    negative entry here means the caller passed the wrong image set.
    """
    n = len(c)
    for w in (u, v):
        if not 1 <= w <= n:
            raise ValueError(f"vertex {w} out of range 1..{n}")
    first = list(c)
    first[v - 1] += 1
    candidate = tuple(first) + (0,)
    if candidate not in bump_image:
        return candidate
    if c[u - 1] < 1:
        raise ValueError(
            f"fallback lift would make entry {u} negative; bump image does not belong to this edge"
        )
    second = list(c)
    second[u - 1] -= 1
    return tuple(second) + (2,)


@dataclass
class PartitionReport:
    """Measured partition data for one (graph, edge) extension."""

    graph: str
    edge: tuple[int, int]
    matching_mode: bool
    base_count: int
    extended_count: int
    image_sizes: dict
    injective: dict
    contained: dict
    pairwise_disjoint: bool
    union_equals: bool
    reversed_partition_holds: bool

    @property
    def triples(self) -> bool:
        return self.extended_count == 3 * self.base_count

    @property
    def partition_holds(self) -> bool:
        return self.pairwise_disjoint and self.union_equals

    def to_dict(self) -> dict:
        return {
            "graph": self.graph,
            "edge": list(self.edge),
            "matching_mode": self.matching_mode,
            "counts": {"base": str(self.base_count), "extended": str(self.extended_count)},
            "triples": self.triples,
            "image_sizes": dict(self.image_sizes),
            "injective": dict(self.injective),
            "contained": dict(self.contained),
            "pairwise_disjoint": self.pairwise_disjoint,
            "union_equals": self.union_equals,
            "partition_holds": self.partition_holds,
            "reversed_partition_holds": self.reversed_partition_holds,
        }


def _oriented_images(base: list[tuple[int, ...]], u: int, v: int):
    bump = {lift_bump(c, u) for c in base}
    resolve = {lift_resolve(c, u, v, bump) for c in base}
    return bump, resolve


def verify_partition(g: Graph, e: tuple[int, int], matching_mode: bool = False) -> PartitionReport:
    """Measure the three lift images against the extended graph's sequences.

    matching_mode is a caller annotation recording that e extends a
    triangle matching on a complete graph (the setting in which the
    partition is guaranteed); the measurement itself is identical.
    A non-edge e is refused by triangle_extend before anything is listed.
    """
    u, v = min(e), max(e)
    extended_graph = triangle_extend(g, (u, v))
    base = enumerate_draconian(doubling(g))
    extended = set(enumerate_draconian(doubling(extended_graph)))

    # lift_one ignores the edge, so both orientations share its image
    one = {lift_one(c) for c in base}
    bump, resolve = _oriented_images(base, u, v)
    m = len(base)
    union = one | bump | resolve
    disjoint = len(union) == len(one) + len(bump) + len(resolve)
    equals = union == extended

    r_bump, r_resolve = _oriented_images(base, v, u)
    r_union = one | r_bump | r_resolve
    reversed_holds = (
        len(r_union) == len(one) + len(r_bump) + len(r_resolve) and r_union == extended
    )

    return PartitionReport(
        graph=g.descriptor(),
        edge=(u, v),
        matching_mode=matching_mode,
        base_count=m,
        extended_count=len(extended),
        image_sizes={"one": len(one), "bump": len(bump), "resolve": len(resolve)},
        injective={"one": len(one) == m, "bump": len(bump) == m, "resolve": len(resolve) == m},
        contained={
            "one": one <= extended,
            "bump": bump <= extended,
            "resolve": resolve <= extended,
        },
        pairwise_disjoint=disjoint,
        union_equals=equals,
        reversed_partition_holds=reversed_holds,
    )


def recurrence_hypotheses(g: Graph, e: tuple[int, int]) -> bool:
    """The degree condition under which tripling is a theorem.

    Some orientation (a, b) of e must have deg(a) = 2 and either
    deg(b) = 2 or the two neighbors of a adjacent to each other.
    """
    u, v = min(e), max(e)
    if (u, v) not in g.edges:
        raise ValueError(f"({u}, {v}) is not an edge of the graph")

    def oriented(a: int, b: int) -> bool:
        nbrs = g.neighbors(a)
        if len(nbrs) != 2:
            return False
        if g.degree(b) == 2:
            return True
        w1, w2 = sorted(nbrs)
        return g.has_edge(w1, w2)

    return oriented(u, v) or oriented(v, u)


def _canonical_encoding(g: Graph) -> tuple:
    """Smallest edge-set encoding over relabelings listing vertices by non-increasing degree.

    Those relabelings are exactly the orders that permute the vertices
    within each degree class, classes taken from the highest degree down.
    The least one is found row by row, without trying them all:

    - Every relabeling has g's m edges, and of two sorted edge tuples of
      length m the smaller has the greater upper-triangle bit string,
      pairs (1, 2), (1, 3), ..., (n - 1, n) in order: at the first edge
      where the tuples differ, the smaller one's edge is present in it
      and absent in the other, and both agree on every pair before it.
      Read in rows, row k holding the pairs (k, k + 1..n), the greatest
      bit string has the greatest row 1, then the greatest row 2 among
      those, and so on.
    - A state is an ordered partition of the unlabelled vertices into
      cells; it stands for the relabelings that give each cell the next
      |cell| labels, in cell order.  The first state is the degree
      classes, highest first.  Label k goes to a vertex x of the first
      cell.  Row k is greatest when each later cell lists x's
      neighbours first, and only the relabelings that do so reach it:
      cell by cell, |cell & N(x)| ones and then zeros.  Splitting each
      cell into its part in N(x) and the rest gives the state of
      exactly those relabelings.  So keeping every branch whose row ties
      the best, and only those, keeps exactly the relabelings whose rows
      1..k are greatest; after row n - 1 the last label is forced.
    - Twins x and y in the first cell, N(x) - y = N(y) - x, give the
      same rows: swapping them is an automorphism of g that fixes every
      labelled vertex and, as both lie in the first cell, every cell, so
      it maps x's relabelings onto y's row for row.  Only one of them is
      tried.  Likewise equal states give equal rows, so each
      level keeps its states as a set.
    """
    adj = g.adj
    classes: dict[int, int] = {}
    for v, a in enumerate(adj):
        classes[a.bit_count()] = classes.get(a.bit_count(), 0) | 1 << v
    states = {tuple(classes[d] for d in sorted(classes, reverse=True))}
    edges = []
    for k in range(1, g.n):
        best, ties = -1, []
        for first, *rest in states:
            # one vertex per set of twins: x is a twin of a vertex z tried
            # before when N(x) = N(z) or N[x] = N[z], and one set holds
            # both, since N(x) = N[z] would put z in N(x) but not x in N(z)
            seen = set()
            left = first
            while left:
                bit = left & -left
                left ^= bit
                ax = adj[bit.bit_length() - 1]
                if ax in seen or ax | bit in seen:
                    continue
                seen.update((ax, ax | bit))
                row, cells = 0, []
                for cell in (first ^ bit, *rest):
                    near = cell & ax
                    size, a = cell.bit_count(), near.bit_count()
                    row = row << size | ((1 << a) - 1) << (size - a)
                    if near:
                        cells.append(near)
                    if near != cell:
                        cells.append(cell ^ near)
                if row > best:
                    best, ties = row, []
                if row == best:
                    ties.append(tuple(cells))
        states = set(ties)
        width = g.n - k
        edges += [(k, k + j) for j in range(1, width + 1) if best >> (width - j) & 1]
    return (g.n, tuple(edges))


def connected_graph_stream(n_max: int) -> Iterator[Graph]:
    """All connected graphs with 2..n_max vertices, one per isomorphism class, in canonical order.

    Each class yields its least edge-subset mask, bit k being the k-th
    pair of combinations(1..n, 2).  Vertex 1's pairs are the low n - 1
    bits, so mask >> (n - 1) is the graph on 2..n; were it not a least
    mask, relabeling 2..n would shrink the whole.  So each n tries every
    low row under every (n - 1)-vertex class's least mask, connected or
    not, in increasing order, and keeps the first candidate per class.
    """
    level = [0]
    for n in range(2, n_max + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        found: dict[tuple, tuple[int, Graph]] = {}
        for high in level:
            for mask in range(high << (n - 1), (high + 1) << (n - 1)):
                g = Graph(n, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1))
                found.setdefault(_canonical_encoding(g), (mask, g))
        level = sorted(mask for mask, _ in found.values())
        for key in sorted(found):
            g = found[key][1]
            if len(connected_components(g)) == 1:
                yield g


def _automorphisms(adj: tuple[int, ...], image: list[int], used: int, out: list) -> None:
    """Append to out every automorphism extending the partial map image.

    Vertex v = len(image) (0-based) goes to an unused w of the same
    degree whose adjacency to the images of 0..v-1 agrees with v's, so
    each completed map preserves every adjacency and is a bijection.
    """
    v = len(image)
    if v == len(adj):
        out.append(tuple(image))
        return
    want = sum(1 << w for u, w in enumerate(image) if adj[v] >> u & 1)
    degree = adj[v].bit_count()
    for w in range(len(adj)):
        if not used >> w & 1 and adj[w] & used == want and adj[w].bit_count() == degree:
            image.append(w)
            _automorphisms(adj, image, used | 1 << w, out)
            image.pop()


def _edge_orbits(g: Graph) -> dict[tuple[int, int], tuple[int, int]]:
    """Each edge of g mapped to the smallest edge of its orbit under Aut(g).

    Edges are taken in sorted order; the first not yet placed is the
    smallest of its orbit, which is its set of images under every
    automorphism.
    """
    autos: list[tuple[int, ...]] = []
    _automorphisms(g.adj, [], 0, autos)
    orbit: dict[tuple[int, int], tuple[int, int]] = {}
    for e in g.sorted_edges():
        if e not in orbit:
            for p in autos:
                u, v = p[e[0] - 1] + 1, p[e[1] - 1] + 1
                orbit[(u, v) if u < v else (v, u)] = e
    return orbit


def _search_task(g: Graph) -> list[dict]:
    """Records for every edge of one graph, counting the base graph once
    and one extended graph per edge orbit of Aut(g).

    If an automorphism s of g sends edge e to f, then s extended by
    apex -> apex is an isomorphism from g with a triangle on e to g with
    a triangle on f, and relabelling does not change the draconian
    count; so every edge takes the count of its orbit's smallest edge,
    which sorted order reaches first.
    """
    base = count_draconian(g).count
    orbit = _edge_orbits(g)
    counted: dict[tuple[int, int], int] = {}
    encoding = g.descriptor()
    records = []
    for e in g.sorted_edges():
        if orbit[e] == e:
            counted[e] = count_draconian(triangle_extend(g, e)).count
        extended = counted[orbit[e]]
        hyp = recurrence_hypotheses(g, e)
        triples = extended == 3 * base
        category = ("hypotheses-hold" if hyp else "hypotheses-fail") + \
                   (":triples" if triples else ":fails")
        records.append({
            "graph_encoding": encoding,
            "edge": list(e),
            "hypotheses_hold": hyp,
            "triples": triples,
            "counts": {"base": str(base), "extended": str(extended)},
            "category": category,
        })
    return records


def search_triple_recurrence(n_max: int, jobs: int = 1) -> list[dict]:
    """Sweep (graph, edge) pairs and classify each against the tripling identity.

    Each graph is one task.  The tasks are spread over min(jobs, tasks,
    cores) worker processes, and run in this process when that is at
    most one.  Records come back in task order (graphs as streamed,
    edges sorted), so runs are reproducible regardless of worker count.
    A record in the hypotheses-hold:fails class would contradict the
    theorem; the caller should treat any such record as an alarm.
    """
    graphs = list(connected_graph_stream(n_max))
    workers = min(jobs, len(graphs), os.cpu_count() or 1)
    if workers <= 1:
        results = map(_search_task, graphs)
    else:
        # imported here so that a run without a pool never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_search_task, graphs))
    return [r for records in results for r in records]
