"""Geometric oracle: normalized volume by lattice-point counting.

The adjacency polytope of ordered pairs on a graph G with n vertices
is the convex hull in R^{2n} of the 0/1 points (e_i, e_j) over pairs
with i = j or ij an edge.  Its lattice-point counter L(t) over
dilates t = 0, 1, 2, ... is a polynomial of degree d (the affine
dimension), and the d-th finite difference of L(0..d) is d! times
the leading coefficient, which is the normalized volume.

Membership of an integer point z = (a, b) in the t-th dilate is a
transportation problem: z lies in t times the polytope exactly when
nonnegative weights on the allowed pairs have row sums a and column
sums b.  Integer marginals always admit integer routings, so the
whole computation stays in exact integer arithmetic.

This route never touches draconian sequences, which is the point: it
independently checks that the combinatorial count really is the
normalized volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .combinat import weak_compositions
from .draconian import check_cap
from .flows import transportation_feasible
from .graphs import Graph, connected_components, doubling
from .parallel import map_in_order

DEFAULT_DILATE_CAP = 4


def polytope_vertices(g: Graph) -> list[tuple[int, ...]]:
    """The 0/1 vertices (e_i, e_j), ordered pairs lexicographically.

    Each edge contributes two points, one per orientation; each vertex
    contributes its diagonal point.
    """
    out = []
    for i in range(1, g.n + 1):
        for j in range(1, g.n + 1):
            if i == j or g.has_edge(i, j):
                vec = [0] * (2 * g.n)
                vec[i - 1] = 1
                vec[g.n + j - 1] = 1
                out.append(tuple(vec))
    return out


def affine_dimension(vertices: Sequence[Sequence[int]]) -> int:
    """Rank of the difference set {v - v0}, in exact arithmetic."""
    if not vertices:
        raise ValueError("need at least one vertex")
    v0 = vertices[0]
    rows = [[Fraction(x - y) for x, y in zip(v, v0)] for v in vertices[1:]]
    ncols = len(v0)
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def is_in_dilate(g: Graph, t: int, z: Sequence[int]) -> bool:
    """Is the integer point z in the t-th dilate of the polytope?"""
    if t < 0:
        raise ValueError(f"dilate factor must be nonnegative, got {t}")
    if len(z) != 2 * g.n:
        raise ValueError(f"point has length {len(z)}, expected {2 * g.n}")
    a, b = z[: g.n], z[g.n :]
    if any(x < 0 for x in a) or any(x < 0 for x in b):
        return False
    if sum(a) != t or sum(b) != t:
        return False
    return transportation_feasible(doubling(g).masks, a, b)


@dataclass
class EhrhartTable:
    """Lattice-point counts of the dilates and the extracted volume."""

    dimension: int
    counts: tuple[int, ...]
    nvol: int

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "counts": list(self.counts),
            "nvol": str(self.nvol),
        }


def finite_difference(values: Sequence[int], order: int) -> int:
    """The order-th finite difference of values at 0: sum of
    (-1)^k C(order, k) values[order - k]."""
    if len(values) < order + 1:
        raise ValueError(f"need {order + 1} values for an order-{order} difference")
    return sum((-1) ** k * math.comb(order, k) * values[order - k] for k in range(order + 1))


def _count_dilate_slice(args) -> int:
    masks, n, t, a = args
    return sum(1 for b in weak_compositions(t, n) if transportation_feasible(masks, a, b))


def count_dilate_points(g: Graph, t: int, jobs: int = 1) -> int:
    """Number of lattice points in the t-th dilate, by marginal enumeration."""
    masks = doubling(g).masks
    tasks = [(masks, g.n, t, a) for a in weak_compositions(t, g.n)]
    return sum(map_in_order(_count_dilate_slice, tasks, jobs))


def ehrhart_nvol(g: Graph, cap_n: int = DEFAULT_DILATE_CAP, jobs: int = 1,
                 extra_dilates: int = 0) -> EhrhartTable:
    """Normalized volume of the polytope on a connected graph, geometrically.

    Counts lattice points for t = 0..d (plus extra_dilates more if
    asked, e.g. to confirm the counter is a degree-d polynomial) and
    extracts the volume as the d-th finite difference.

    The counting cost per dilate is C(t+n-1, n-1)^2 feasibility checks,
    so inputs beyond cap_n vertices are refused; raise cap_n to force
    larger runs.  Disconnected graphs are refused outright: the product
    rule for counts is a statement about components, and this oracle
    only certifies the connected case.
    """
    if len(connected_components(g)) != 1:
        raise ValueError("the geometric oracle only handles connected graphs")
    check_cap("graph", g.n, cap_n)
    d = affine_dimension(polytope_vertices(g))
    counts = tuple(count_dilate_points(g, t, jobs=jobs) for t in range(d + 1 + extra_dilates))
    return EhrhartTable(dimension=d, counts=counts, nvol=finite_difference(counts, d))
