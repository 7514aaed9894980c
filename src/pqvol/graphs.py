"""Simple graphs, construction families, and the bipartite doubling.

Vertices are labeled 1..n.  An edge is an unordered pair of distinct
vertices, stored as a tuple (u, v) with u < v.  Graphs are immutable;
every construction returns a new Graph.  Adjacency is read from one
place, the bitmasks adj: bit w-1 of adj[v-1] is set exactly when vw is
an edge.

Each of the paper's four families has one builder, called with its
parameters: complete_graph, matching_triangles, delete_path, delete_cycle.
Beside each builder is the one check of its family's domain, which the
closed forms in formulas and the exception sets in lost_sequences call
too.  check_connected is the one refusal of a disconnected graph.

The doubling D(G) of a graph G on [n] is the bipartite graph on
[n] + [n-bar] in which i on the left is joined to i-bar and to j-bar
for every edge ij of G.  Left neighborhoods in D(G) drive all the
counting in this package; doubling(g) returns them as a tuple of
bitmasks, adj with the self bit added, so bit j-1 of its entry i-1 is set
exactly when i is joined to j-bar.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

# largest vertex count a graph file may declare: Graph allocates a mask per vertex
MAX_VERTICES = 4096


class GraphFormatError(ValueError):
    """A graph text file is malformed.  The message names the bad line."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _bits(mask: int) -> list[int]:
    """The 1-based positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def _as_edge(u, v) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"loop at vertex {u} is not an edge")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A finite simple graph on vertex set {1, ..., n}."""

    n: int
    edges: frozenset[tuple[int, int]]
    adj: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {self.n!r}")
        adj = [0] * self.n
        for e in self.edges:
            u, v = e
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge {e} is not an ordered pair inside 1..{self.n}")
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        object.__setattr__(self, "adj", tuple(adj))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, normalizing edge orientation (set semantics on duplicates)."""
        return cls(n, frozenset(_as_edge(u, v) for u, v in edges))

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and _as_edge(u, v) in self.edges

    def _mask(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return self.adj[v - 1]

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self._mask(v)))

    def degree(self, v: int) -> int:
        return self._mask(v).bit_count()

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def descriptor(self) -> str:
        """Canonical one-line form, e.g. 'n=3;e=1-2,2-3'."""
        body = ",".join(f"{u}-{v}" for u, v in self.sorted_edges())
        return f"n={self.n};e={body}"


def doubling(g: Graph) -> tuple[int, ...]:
    """The left neighborhoods of g's bipartite double D(G), one bitmask over
    the right labels per left vertex: left vertex i meets i-bar and j-bar
    for every edge ij.  Its length is g.n."""
    return tuple(m | 1 << i for i, m in enumerate(g.adj))


def check_complete(n: int) -> None:
    """Refuse an n outside the complete family's domain, n >= 1."""
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")


def complete_graph(n: int) -> Graph:
    check_complete(n)
    return Graph(n, frozenset(itertools.combinations(range(1, n + 1), 2)))


def triangle_extend(g: Graph, e: tuple[int, int]) -> Graph:
    """Attach a new vertex n+1 joined to both ends of an existing edge e."""
    u, v = _as_edge(*e)
    if (u, v) not in g.edges:
        raise ValueError(f"({u}, {v}) is not an edge, cannot build a triangle on it")
    w = g.n + 1
    return Graph(w, g.edges | {(u, w), (v, w)})


def check_matching_triangles(n: int, m: int) -> None:
    """Refuse (n, m) outside the matching-triangles domain, n >= 2 and 0 <= 2m <= n."""
    if n < 2:
        raise ValueError(f"matching triangles need n >= 2, got {n}")
    if m < 0 or 2 * m > n:
        raise ValueError(f"a matching of size {m} does not fit in {n} vertices")


def matching_triangles(n: int, m: int) -> Graph:
    """K_n with apex n+k glued onto the edge {2k-1, 2k} for k = 1..m.

    The domain is checked before K_n is built.
    """
    check_matching_triangles(n, m)
    g = complete_graph(n)
    for k in range(1, m + 1):
        g = triangle_extend(g, (2 * k - 1, 2 * k))
    return g


def check_path_deletion(n: int, m: int) -> None:
    """Refuse (n, m) outside the path-deletion domain, n >= 4 and 0 <= m < n."""
    if n < 4:
        raise ValueError(f"path deletion needs n >= 4, got {n}")
    if not 0 <= m < n:
        raise ValueError(f"path length m must satisfy 0 <= m < n, got {m}")


def delete_path(n: int, m: int) -> Graph:
    """K_n minus a path with m edges along the tail vertices.

    The removed edges are {i, i+1} for n-m <= i <= n-1, so the path
    covers the last m+1 vertices.  m = 0 returns the complete graph.
    """
    check_path_deletion(n, m)
    removed = {(i, i + 1) for i in range(n - m, n)}
    return Graph(n, complete_graph(n).edges - removed)


def cycle_vertices(n: int, m: int) -> tuple[int, ...]:
    """The vertices carrying the deleted m-cycle: the last m labels, in order."""
    return tuple(range(n - m + 1, n + 1))


def check_cycle_deletion(n: int, m: int) -> None:
    """Refuse (n, m) outside the cycle-deletion domain: n >= 5, and m = 0
    (nothing deleted) or 3 <= m <= n; m in {1, 2} describes no cycle."""
    if n < 5:
        raise ValueError(f"cycle deletion needs n >= 5, got {n}")
    if m != 0 and not 3 <= m <= n:
        raise ValueError(f"cycle length m must be 0 or satisfy 3 <= m <= n, got {m}")


def delete_cycle(n: int, m: int) -> Graph:
    """K_n minus an m-cycle on the last m vertices.

    The removed edges join consecutive entries of cycle_vertices(n, m),
    wrapping around.  m = 0 returns the complete graph.
    """
    check_cycle_deletion(n, m)
    if m == 0:
        return complete_graph(n)
    cyc = cycle_vertices(n, m)
    removed = {_as_edge(cyc[k], cyc[(k + 1) % m]) for k in range(m)}
    return Graph(n, complete_graph(n).edges - removed)


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Apply a permutation of 1..n: vertex i becomes perm[i-1]."""
    p = tuple(perm)
    if sorted(p) != list(range(1, g.n + 1)):
        raise ValueError(f"not a permutation of 1..{g.n}: {p}")
    return Graph(g.n, frozenset(_as_edge(p[u - 1], p[v - 1]) for u, v in g.edges))


def _induced(g: Graph, mask: int) -> Graph:
    """The subgraph of g induced on the vertices of mask, relabeled to 1..k in ascending order."""
    verts = _bits(mask)
    pos = {v: i for i, v in enumerate(verts, 1)}
    edges = frozenset((pos[u], pos[w]) for u in verts for w in _bits(g.adj[u - 1] & mask) if u < w)
    return Graph(len(verts), edges)


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """The vertices of each component, ascending, components ordered by smallest vertex."""
    unseen = (1 << g.n) - 1
    out = []
    while unseen:
        block = frontier = unseen & -unseen
        while frontier:
            low = frontier & -frontier
            grown = g.adj[low.bit_length() - 1] & ~block
            block |= grown
            frontier = (frontier ^ low) | grown
        unseen &= ~block
        out.append(tuple(_bits(block)))
    return out


def check_connected(g: Graph) -> None:
    """Refuse a graph of more than one component.

    The volume of a disconnected graph is the product of its components'
    volumes.  The graph has no draconian sequence (the enumerate_draconian
    docstring proves this), and its polytope has dimension below 2n - 2.
    So whatever reads the volume off one sequence set, or off a polytope
    of dimension 2n - 2, calls this first.
    """
    k = len(connected_components(g))
    if k != 1:
        raise ValueError(f"the graph has {k} components, and this needs a connected graph: "
                         "a disconnected graph's volume is the product of its components' volumes")


def biconnected_blocks(g: Graph) -> list[Graph]:
    """The blocks of g, each relabeled to 1..k in ascending vertex order.

    A block is a maximal connected subgraph without a cut vertex: a
    bridge gives K_2 and an isolated vertex K_1.  Hopcroft-Tarjan, run
    with an explicit stack so that a long path does not reach the
    recursion limit.  A depth of 0 marks an unvisited vertex, and low[v]
    is the least depth reached by an edge from v's subtree.
    """
    depth = [0] * (g.n + 1)
    low = [0] * (g.n + 1)
    out = []
    for root in range(1, g.n + 1):
        if depth[root]:
            continue
        if not g.adj[root - 1]:
            out.append(Graph(1, frozenset()))
            continue
        depth[root] = low[root] = 1
        # visited vertices whose block is not yet found, in discovery order
        pending = [root]
        stack = [(root, iter(_bits(g.adj[root - 1])))]
        while stack:
            v, nbrs = stack[-1]
            for w in nbrs:
                if not depth[w]:
                    depth[w] = low[w] = depth[v] + 1
                    pending.append(w)
                    stack.append((w, iter(_bits(g.adj[w - 1]))))
                    break
                # the tree edge back to v's parent only lowers low[v] to its
                # parent's depth, which the block test below allows
                low[v] = min(low[v], depth[w])
            else:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                if low[v] >= depth[p]:
                    # p separates v's subtree: p and the subtree's pending vertices form a block
                    mask = 1 << (p - 1)
                    while True:
                        w = pending.pop()
                        mask |= 1 << (w - 1)
                        if w == v:
                            break
                    out.append(_induced(g, mask))
    return out


def parse_graph(text: str) -> Graph:
    """Parse the plain text format: first line n, then one 'u v' edge per line.

    Blank lines and lines starting with '#' are ignored.  Duplicate
    edges, loops, out-of-range labels, and malformed lines raise
    GraphFormatError naming the offending line.
    """
    n = None
    edges: dict[tuple[int, int], int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise GraphFormatError(f"expected a vertex count, got {line!r}", line_no)
            if not 1 <= n <= MAX_VERTICES:
                raise GraphFormatError(
                    f"vertex count must be positive and at most {MAX_VERTICES}, got {n}", line_no
                )
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected 'u v', got {line!r}", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"edge endpoints must be integers, got {line!r}", line_no)
        if u == v:
            raise GraphFormatError(f"loop at vertex {u} is not allowed", line_no)
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"edge ({u}, {v}) uses a label outside 1..{n}", line_no)
        e = _as_edge(u, v)
        if e in edges:
            raise GraphFormatError(
                f"duplicate edge ({u}, {v}), first given on line {edges[e]}", line_no
            )
        edges[e] = line_no
    if n is None:
        raise GraphFormatError("empty input: no vertex count line")
    return Graph(n, frozenset(edges))


def load_graph(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())
