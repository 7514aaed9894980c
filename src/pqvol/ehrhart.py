"""Geometric oracle: normalized volume by lattice-point counting.

The adjacency polytope of ordered pairs on a graph G with n vertices
is the convex hull in R^{2n} of the 0/1 points (e_i, e_j) over pairs
with i = j or ij an edge.  Its lattice-point counter L(t) over
dilates t = 0, 1, 2, ... is a polynomial of degree d (the affine
dimension), and it is written in the h*-basis as

  L(t) = sum over k of h*_k C(t + d - k, d),

where the normalized volume is h*_0 + h*_1 + ... + h*_d (Beck &
Robins, "Computing the Continuous Discretely", ch. 3-4).

Only the first n dilates are counted.  For connected G on n vertices:

  * P lies in {sum a = 1, sum b = 1} and has dimension d = 2n - 2, so
    no rank is computed.  For an edge ij, (e_i, e_j) - (e_i, e_i) =
    (0, e_j - e_i) and (e_j, e_j) - (e_i, e_j) = (e_j - e_i, 0) are
    differences of vertices.  The e_j - e_i over the edges of a spanning
    tree span the sum-zero space of R^n, so these differences span both
    sum-zero spaces, of dimension n - 1 each, and P's affine hull is the
    whole plane.
  * A lattice point of tP with t < n has some a_i = 0.  The bound
    a_i >= 0 holds on P and is not an implicit equation, because the
    vertex (e_i, e_i) has a_i = 1.  So the point lies on a proper face
    and is not interior: tP has no interior lattice point for t < n.
  * By Ehrhart-Macdonald reciprocity, the number of interior lattice
    points of tP is sum over k of h*_k C(t - 1 + k, d), so the vanishing
    for t = 1..n-1 gives h*_k = 0 for every k > d + 1 - n = n - 1.
  * Then L(t) = sum over k <= t of h*_k C(t + d - k, d) for t <= n - 1.
    That system is triangular with ones on the diagonal, so L(0..n-1)
    fix h*_0..h*_{n-1} in exact integers, and nvol = sum of h*_k.

The counts L(n..d) are evaluated from h*, not counted.  Two facts check
every run for free: h*_k >= 0 (Stanley), and h*_{n-1} = 1, the number
of interior lattice points of nP.  An interior point of nP has every
a_i, b_j >= 1, so the only candidate is a = b = all ones, the sum of the
diagonal vertices (e_i, e_i).  It is interior.  Take a linear functional
u.a + v.b whose maximum M over P is reached at every (e_i, e_i), so
u_i + v_i = M.  For an edge ij, (u_i + v_j) + (u_j + v_i) = 2M with both
terms at most M, so M is reached at (e_i, e_j) and (e_j, e_i) too.  G is
connected, so M is reached at every vertex: the only face that holds
all the diagonal vertices is P itself.

Membership of an integer point z = (a, b) in the t-th dilate is a
transportation problem: z lies in t times the polytope exactly when
nonnegative weights on the allowed pairs have row sums a and column
sums b.  Integer marginals always admit integer routings, so the
whole computation stays in exact integer arithmetic.  is_in_dilate
decides one point with the flow kernel; it is the reference the
counter below is tested against.

The counter does not test points one by one.  By Gale's supply-demand
theorem (Gale, "A theorem on flows in networks", 1957), margins a and
b with equal totals t are feasible exactly when b(T) <= a(N(T)) for
every set T of columns, where N(T) is the set of rows with an allowed
cell in T.  So for each row margin a, count_dilate_points counts the
feasible b with one walk over the columns, placing b_j at column j:

  * The state maps each row cover R = N(T) of a column subset T
    placed so far to the heaviest b(T) among subsets with that cover.
    Keeping the heaviest is exact: two subsets with one cover still
    share a cover after the same columns join both, so the heavier one
    breaks an inequality whenever the lighter one does.  A column with
    b_j = 0 joins nothing: adding it to T keeps b(T) and can only grow
    N(T).  Covers are taken inside the support of a, since a(R) only
    sees rows with a_i > 0, so a walk's tables have 2^k entries for the
    k <= min(n, t) rows of that support.
  * With r units still to place, an entry whose slack a(R) - b(T) is
    at least r is dropped.  Later columns add at most r to its weight,
    and a(R) only grows as R grows, so neither it nor any subset grown
    from it can break; dropping it changes no count.  An entry whose
    slack is r - 1 can still break, when all r units join it.
  * Counts are memoized on (column, r, state), so b's that reach the
    same column with the same weight left and the same live entries
    are counted once.

Each dilate then takes C(t+n-1, n-1) walks, one per row margin a, in
place of C(t+n-1, n-1)^2 flow checks.

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
from .flows import transportation_feasible
from .graphs import Graph, connected_components, doubling


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


def _join_column(state: dict[int, int], v: int, m: int,
                 weight: list[int]) -> dict[int, int] | None:
    """Join a column of margin v and row cover m to every subset in state.

    state maps each row cover to the largest weight b(T) of a column
    subset T with that cover ({0: 0} is the empty set alone).  Returns
    the grown state, or None at the first joined subset whose weight is
    over the row margin a(R) of its cover R.
    """
    out = dict(state)
    for rows, s in state.items():
        s += v
        rows |= m
        if s > weight[rows]:
            return None
        if out.get(rows, -1) < s:
            out[rows] = s
    return out


def _count_column_margins(masks: Sequence[int], a: Sequence[int]) -> int:
    """The number of column margins b that are feasible with the row margin a.

    A walk over the columns under Gale's condition; the state, the
    slack prune and the memo are explained in the module docstring.
    """
    n = len(a)
    # covers live on the k rows with a_i > 0, relabelled 0..k-1; the allowed
    # cells are symmetric, so the rows with a cell in column j are masks[j]
    support = [i for i, x in enumerate(a) if x]
    covers = [sum(1 << p for p, i in enumerate(support) if m >> i & 1) for m in masks]
    # weight[R] = a(R) for every set R of those rows
    weight = [0] * (1 << len(support))
    for rows in range(1, len(weight)):
        low = rows & -rows
        weight[rows] = weight[rows ^ low] + a[support[low.bit_length() - 1]]
    # b_j <= a(N(j)), the singleton bound; tail[j] = caps[j] + ... + caps[n-1]
    caps = [weight[m] for m in covers]
    tail = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        tail[j] = tail[j + 1] + caps[j]
    memo: dict[tuple, int] = {}

    def walk(j: int, r: int, state: dict[int, int]) -> int:
        if r == 0:
            return 1
        if j == n:
            return 0
        state = {rows: s for rows, s in state.items() if weight[rows] - s < r}
        key = (j, r, frozenset(state.items()))
        if key in memo:
            return memo[key]
        count = walk(j + 1, r, state) if r <= tail[j + 1] else 0
        m = covers[j]
        for v in range(max(1, r - tail[j + 1]), min(caps[j], r) + 1):
            # a subset that breaks at weight v breaks at every larger v
            if (grown := _join_column(state, v, m, weight)) is None:
                break
            count += walk(j + 1, r - v, grown)
        memo[key] = count
        return count

    count = walk(0, sum(a), {0: 0})
    # walk's closure refers to itself: break the cycle so memo is freed without a GC pass
    del walk
    return count


def count_dilate_points(g: Graph, t: int) -> int:
    """Number of lattice points in the t-th dilate: for each row margin a,
    the number of feasible column margins, by Gale's condition."""
    masks = doubling(g).masks
    return sum(_count_column_margins(masks, a) for a in weak_compositions(t, g.n))


def _count_from_h_star(h: Sequence[int], d: int, t: int) -> int:
    """L(t) = sum over k of h*_k C(t + d - k, d), for h* = h in dimension d."""
    return sum(hk * math.comb(t + d - k, d) for k, hk in enumerate(h))


def _h_star(counts: Sequence[int], d: int) -> list[int]:
    """h*_0..h*_{s-1} from the first s counts L(0..s-1) of a polytope of
    dimension d, by forward substitution: L(t) only involves h*_0..h*_t,
    and h*_t with coefficient 1."""
    h: list[int] = []
    for t, count in enumerate(counts):
        h.append(count - _count_from_h_star(h, d, t))
    return h


def ehrhart_nvol(g: Graph) -> EhrhartTable:
    """Normalized volume of the polytope on a connected graph, geometrically.

    Counts lattice points for t = 0..n-1 only, solves them for h*, and
    sums h* (the module docstring has the proof).  counts still lists
    L(0..d): the dilates t >= n are evaluated from h*.  A ValueError is
    raised if h* breaks h*_k >= 0 or h*_{n-1} = 1, which only a wrong
    count can do.

    The counting cost per dilate is C(t+n-1, n-1) column walks, one per
    row margin, each growing quickly with n (K_7 takes about 0.5 s, K_8
    about 3 s).  Disconnected graphs are refused: the product rule for
    counts is a statement about components, and this oracle only
    certifies the connected case.
    """
    if len(connected_components(g)) != 1:
        raise ValueError("the geometric oracle only handles connected graphs")
    # the dimension of a connected graph's polytope (module docstring)
    d = 2 * g.n - 2
    h = _h_star([count_dilate_points(g, t) for t in range(g.n)], d)
    if h[-1] != 1 or min(h) < 0:
        raise ValueError(f"dilate counts give h* = {h}: expected h*_k >= 0 and h*_{g.n - 1} = 1")
    counts = tuple(_count_from_h_star(h, d, t) for t in range(d + 1))
    return EhrhartTable(dimension=d, counts=counts, nvol=sum(h))
