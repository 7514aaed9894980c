"""Draconian sequences and the volumes they count.

Fix a graph G on [n] and its bipartite double D(G).  A weak
composition c of n - 1 into n parts is draconian when

    sum(c_i for i in S)  <  |union of the D(G)-neighborhoods of S|

for every nonempty S of [n].  For connected G the number of draconian
sequences equals the normalized volume of the adjacency polytope of
ordered pairs built on G; for disconnected G that volume is the
product of the component counts.

Two independent membership tests are provided.  The subset test walks
the strict-inequality definition directly, restricted to subsets of
the support of c: left vertex i always meets i-bar, so adding a
zero-weight vertex to S raises the right side without changing the
left, and the restricted check is equivalent to the full one.  The
flow test instead asks, for every i, whether c + e_i can be routed
into distinct right vertices of D(G); by Hall's theorem this routes
exactly when every S satisfies sum(c + e_i over S) <= |N(S)|, and
quantifying over i turns the non-strict bound into the strict one.

The subset test keeps only the heaviest subset per neighborhood union.
Two subsets with one union still share a union after the same vertices
join both, so the heavier one breaks an inequality whenever the lighter
one does.  For K_n the state has at most two entries.

Counts are taken without listing.  The counting walk places entries
in the enumerator's order, and the state it hands to position k, with
weight r still to place, holds no entry whose slack |union| - weight
exceeds r.  Later joins add at most r to such an entry's weight and
never shrink its union, so neither it nor any subset grown from it can
break an inequality; dropping it changes no outcome.  An entry whose
slack equals r can still break, when all r units join it.  States that
differ only in dropped entries then share one memo key (k, r, state).

Each child state is grown once.  Position k with mask m joins v to every
entry (u, s), giving (u | m, s + v), and keeps the entries it does not
join.  The joined unions u | m do not depend on v, so the walk reads
them once per node, and with them the join bound J, the least
|u | m| - s: v breaks a joined subset exactly when v >= J, and every v
below J breaks none.  The child of v is filtered for r - v.  A joined
entry has slack |u | m| - s - v, which is at most r - v exactly when
|u | m| - s <= r, whatever v is; a kept entry stays while its slack is
at most r - v.  The child of v = 0 joins nothing, has weight r still to
place, and is the parent's state as it stands.

Both subset walks close their last three positions c, a and b, with
masks M, A and B, in one function, _close, with no join, no child state
and no recursion.  They take v, x and r - v - x.  The inequalities still
open are those of a placed subset joined with a nonempty set of the
three, and the state keeps the heaviest placed subset per union.  Write
uA for the union of u and A.  For each entry (u, s), the empty set
(0, 0) among them, there are seven, one per nonempty set of the three:
    unjoined with c:  s + x < |uA|,  s + r - v - x < |uB|,
                      s + r - v < |uAB|;
    joined with c:    s + v < |uM|,  s + v + x < |uMA|,
                      s + r - x < |uMB|,  s + r < |uMAB|.
A set with a position of weight 0 needs no check: its inequality follows
from the one without that position, which has the same weight and a
union no larger (and every entry has s < |u|).  So at v = 0 only the
three unjoined inequalities apply: no x passes when some entry has
s + r >= |uAB|, and otherwise x runs from max(0, r - top_b) to
min(top_a, r), where top_a is the least |uA| - s - 1 over the entries
(the empty set gives a's cap) and top_b is b's.  For v >= 1 all seven
apply.  s + r - v < |uAB| sets a least v.  s + v < |uM| is v < J.
s + r < |uMAB| weighs all three positions together, whatever the split,
so it does not depend on v: when one entry breaks it, every v >= 1
does.  The other four bound x for each v: x <= |uA| - s - 1 and
x <= |uMA| - s - 1 - v from above, x >= r - v - (|uB| - s - 1) and
x >= r - (|uMB| - s - 1) from below, the last again free of v.  So
_close yields, for each v that breaks nothing, the range lo..hi of the
x that break nothing with it, and every split outside those ranges
breaks an inequality.  The counting walk adds, for each v, its class
weight times the pair's weights over that range, a difference of two
running sums; the listing keeps the (v, lo, hi) triples as a leaf.
With one class every mask holds its own right vertex and so all n of
them: G is complete and the class takes any split of n - 1.  With two,
the masks together hold all n, so s + r < |AB| holds for the empty
state and the pair takes every split that both caps allow.

The walk steps over twin classes, not vertices.  Left vertices with one
mask are true twins of G, with one closed neighborhood; group [n] into
classes T by mask, and let sigma_T be the weight c places on T.
(1) N(S) is the union of the masks of S's members, so it depends only
on which classes S meets.  (2) Let U be the union of the classes S
meets.  Then N(S) = N(U), and c(S) <= c(U) since c >= 0, so S breaks an
inequality only if U does: the S of heaviest weight for a given set of
met classes is the union of whole classes, and checking those suffices.
(3) c(U) is the sum of sigma_T over the classes of U, so c is draconian
exactly when sigma satisfies the same strict inequalities over unions
of classes, sigma(U) < |N(U)|, which are the subset inequalities of
the classes taken as positions with their masks.  (4) The c with given
class sums are one independent choice per class, a weak composition of
sigma_T into |T| parts, so each sigma is reached by
prod_T C(sigma_T + |T| - 1, |T| - 1) sequences c.  The count is
therefore the sum of that product over the draconian sigma, and the
walk weights each class step by its factor.  The state, the slack
prune and the closed last positions argue over sets of positions, so
they hold for classes as they do for vertices; the inequality for U = T
caps sigma_T at |N(T)| - 1.  When every class has one member the walk
counts per vertex.  enumerate_draconian, the flow test and the
Ehrhart oracle stay per vertex, so they check the quotient
independently.

The subset engine lists through the same walk, per vertex, as a
memoized diagram.  The node of (k, r, state) holds, for each v that
position k may take, an edge to the node of (k + 1, r - v, the state
joined with v), grown by the counting walk's step, and the node of the
third-last position is a leaf: _close's triples for its state.  The
slack filter and the closure argue over sets of positions, and a vertex
is a class of one, so both hold per vertex: a dropped entry can never
break an inequality, so two states with one memo key have the same
completions and may share one node; and the leaf's triples hold exactly
the completions that break nothing.  So each path from the root to a
leaf, with a triple (v, lo, hi) of the leaf and an x from lo to hi, is
one draconian sequence ending v, x, r - v - x, and each draconian
sequence is one such path, triple and x.  A graph on one or two
vertices has no three positions to close, and its listing filters the
weak compositions through the subset test.

The flow engine lists by routing each prefix once.  add_unit is
deterministic: the owners after a unit depend only on the owners before
it and on its row.  route(c) adds c_0 units of row 0, then c_1 of row 1,
and so on, so every c with one prefix passes through the same routers
while that prefix is routed, and the walk routes the prefix once and
gives each child a copy.  When the v-th unit of row k fails, route(c)
fails at that unit for every c with that prefix and c_k >= v, and each
such c fails the flow test; the walk stops raising position k there.
The last position takes what is left, and c is kept exactly when
is_draconian_flow(d, c) holds: its units routed and open_rows covers
every row.

Volumes multiply over blocks.  Let G be G1 and G2 glued at a cut
vertex v, so n = n1 + n2 - 1.  The polytope P_G is the convex hull of
P_G1 and P_G2, which meet only in the vertex (e_v, e_v).  Their
difference lattices, the integer vectors with zero left sum and zero
right sum on each side's coordinates, satisfy L = L1 + L2 as a direct
sum, and the dimensions add: 2n - 2 = (2n1 - 2) + (2n2 - 2).  The hull
of polytopes A and B of dimensions a and b, lying in complementary
subspaces through a shared vertex, has volume
vol(A) vol(B) a! b! / (a + b)!, so normalized volumes multiply.
Components multiply as well, so a graph's volume is the product of its
blocks' draconian counts: an isolated vertex (K_1) gives 1, a bridge
(K_2) gives 2, and a tree on n vertices gives 2^(n-1).
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from math import comb
from typing import Sequence

from .combinat import weak_compositions
from .flows import UnitRouter
from .graphs import BipartiteDouble, Graph, biconnected_blocks, connected_components, doubling

ENGINES = ("subset", "flow")


def _check_sequence(d: BipartiteDouble, c: Sequence[int]):
    if len(c) != d.n:
        raise ValueError(f"sequence length {len(c)} does not match n = {d.n}")
    if any(x < 0 for x in c):
        raise ValueError(f"sequence {tuple(c)} has a negative entry")


def _join(state: dict[int, int], m: int, remaining: int, low: int, high: int):
    """Yield (v, child) for each weight v from low to high that a position
    of neighborhood mask m may take, in increasing v.

    state maps each neighborhood union to the largest weight of a subset
    with that union ({0: 0} is the empty set alone; why that is exact is
    in the module docstring), already slack-filtered for remaining, the
    weight still to place from this position on.  child is the state
    after the position takes v, slack-filtered for remaining - v.  The
    joined unions u | m and the join bound J, the least |u | m| - s, are
    read once: v breaks a joined subset exactly when v >= J, so the
    walk stops there.  A joined entry keeps weight s + v and slack
    |u | m| - s - v, which passes the filter for remaining - v exactly
    when |u | m| - s <= remaining, whatever v is; an entry of state
    passes it while its own slack is at most remaining - v.  The v = 0
    child is state itself, joined with nothing and filtered already.
    """
    if low == 0:
        yield 0, state
        low = 1
    bound = high + 1
    grown: dict[int, int] = {}
    for u, s in state.items():
        u |= m
        if (t := u.bit_count() - s) < bound:
            bound = t
        if t <= remaining and grown.get(u, -1) < s:
            grown[u] = s
    if low >= bound:
        return
    kept = [(u, s, u.bit_count() - s) for u, s in state.items()]
    for v in range(low, bound):
        rest = remaining - v
        child = {u: s for u, s, t in kept if t <= rest}
        for u, s in grown.items():
            s += v
            if child.get(u, -1) < s:
                child[u] = s
        yield v, child


def _close(state: dict[int, int], m: int, a: int, b: int, remaining: int):
    """Yield (v, lo, hi) for each weight v that the third-last of the last
    three positions may take, in increasing v: it has mask m and takes v,
    and the last two, of masks a and b, take x and remaining - v - x for
    exactly the x from lo to hi.

    state is the state _join hands that position.  Each entry bounds v
    from below and above, or rules out every v >= 1, and bounds x for each
    v (the seven inequalities and their proof are in the module
    docstring).  Every bound includes the positions' own caps, through the
    empty set's entry, so no weight needs another check.
    """
    ab = a | b
    low, join = 0, remaining + 1
    top_a0 = top_b0 = top_a1 = top_b1 = remaining
    # bounds from every entry, unjoined (a0, b0) and joined with m (a1, b1)
    for u, s in state.items():
        # s + remaining - v < |uAB| sets a least v
        if (t := s + remaining + 1 - (u | ab).bit_count()) > low:
            low = t
        if (t := (u | a).bit_count() - s - 1) < top_a0:
            top_a0 = t
        if (t := (u | b).bit_count() - s - 1) < top_b0:
            top_b0 = t
        u |= m
        # v < J, the least |uM| - s, which is at least 1
        if (t := u.bit_count() - s) < join:
            join = t
        # s + remaining < |uMAB| for any v: if it fails, no v >= 1 passes
        if s + remaining >= (u | ab).bit_count():
            join = 1
        if (t := (u | a).bit_count() - s - 1) < top_a1:
            top_a1 = t
        if (t := (u | b).bit_count() - s - 1) < top_b1:
            top_b1 = t
    if low == 0:
        # v = 0 joins nothing: the last two close on the state as it stands
        if (lo := max(0, remaining - top_b0)) <= top_a0:
            yield 0, lo, top_a0
        low = 1
    # x >= remaining - top_b1 whatever v is, and top_a1 - v <= remaining - v
    floor = max(0, remaining - top_b1)
    for v in range(low, join):
        rest = remaining - v
        lo = rest - top_b0 if rest - top_b0 > floor else floor
        hi = top_a1 - v if top_a1 - v < top_a0 else top_a0
        if lo <= hi:
            yield v, lo, hi


def _entry_bounds(masks: Sequence[int]) -> tuple[list[int], list[int]]:
    """caps[k], the most position k may hold, and tail[k] = caps[k] + ... + caps[-1].

    The inequality for the vertices of position k caps it at |N| - 1,
    where N is its neighborhood mask masks[k].
    """
    caps = [m.bit_count() - 1 for m in masks]
    tail = [0] * (len(masks) + 1)
    for k in range(len(masks) - 1, -1, -1):
        tail[k] = tail[k + 1] + caps[k]
    return caps, tail


def _engine(name: str) -> str:
    """Check an engine name against ENGINES."""
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}, expected one of {ENGINES}")
    return name


def is_draconian_subset(d: BipartiteDouble, c: Sequence[int]) -> bool:
    """Subset-inequality test over the subsets of the support of c, which is
    equivalent to the definition (module docstring)."""
    _check_sequence(d, c)
    state = {0: 0}
    remaining = sum(c)
    for i, v in enumerate(c):
        if v > 0:
            # the one child of weight v, or none when v breaks a joined subset
            if (step := next(_join(state, d.masks[i], remaining, v, v), None)) is None:
                return False
            state = step[1]
            remaining -= v
    return True


def is_draconian_flow(d: BipartiteDouble, c: Sequence[int],
                      routed: UnitRouter | None = None) -> bool:
    """Flow test: for every i, c + e_i must route into distinct right vertices.

    c itself is routed first; then one residual search (UnitRouter.open_rows)
    finds every i for which c + e_i routes.  routed, when given, is a
    router over d.masks that already holds every unit of c, as the flow
    listing builds it one prefix at a time; only the search is left.
    """
    if routed is None:
        _check_sequence(d, c)
        routed = UnitRouter(d.masks, d.n)
        # a unit of c that fails to route means some S already breaks the
        # non-strict Hall bound, so c + e_i fails for any i in S
        if not routed.route(c):
            return False
    return routed.open_rows() == (1 << d.n) - 1


def _check_depth(depth: int):
    """Raise RecursionError now, before its memo fills, when a walk that
    must recurse depth frames deep cannot fit under Python's recursion
    limit from the current frame."""
    spare = sys.getrecursionlimit() - depth
    try:
        # succeeds when more than spare frames are already in use
        sys._getframe(max(spare, 0))
    except ValueError:
        return
    raise RecursionError(f"a walk {depth} frames deep does not fit under the recursion limit")


def _connected(masks: Sequence[int]) -> bool:
    """Is G connected?  masks are D(G)'s left neighborhoods, each holding its own vertex."""
    reach = frontier = masks[0]
    while frontier:
        grown = 0
        while frontier:
            bit = frontier & -frontier
            grown |= masks[bit.bit_length() - 1]
            frontier ^= bit
        frontier = grown & ~reach
        reach |= grown
    return reach == (1 << len(masks)) - 1


def enumerate_draconian(d: BipartiteDouble, engine: str = "subset") -> list[tuple[int, ...]]:
    """All draconian sequences for d, in lexicographic order.

    engine='subset' builds a memoized diagram of the subset walk and
    reads the sequences off it (_subset_listing).  engine='flow' routes
    each prefix's units once and keeps the compositions whose every row
    stays open (_flow_listing); it is slower and exists as an
    independent cross-check.  Both step per vertex, never per twin class.
    """
    if _engine(engine) == "flow":
        return _flow_listing(d)
    return _subset_listing(d)


def _subset_listing(d: BipartiteDouble) -> list[tuple[int, ...]]:
    """The subset engine's listing: build a diagram of the walk, then read it.

    The diagram takes _count_walk's steps per vertex (module docstring):
    each child grown once by _join and slack-filtered, the memo key
    (position, weight still to place, state), and the last three
    positions closed by _close without a memo entry.  A node is its
    edges flattened into one tuple, v0, child0, v1, child1, ... in
    increasing v, or None when no sequence passes through it; the leaf
    at the third-last position is the tuple of _close's (v, lo, hi)
    triples, and each x from lo to hi ends a sequence with v, x and what
    is left.  The key holds each state entry packed into one int rather
    than a tuple, and nodes are flat, so the diagram's peak memory stays
    below the counting walk's.  The memo is dropped before the diagram is
    read, so only the nodes that lead to a sequence stay alive while the
    output is built.  Reading the edges, the triples and each range in
    increasing order gives the sequences in lexicographic order, with no
    sort.  A graph on at most two vertices is filtered through
    is_draconian_subset, since it has no three positions to close.
    """
    n = d.n
    masks = d.masks
    if n <= 2:
        return [c for c in weak_compositions(n - 1, n) if is_draconian_subset(d, c)]
    # a connected G has a sequence, so the walk goes all the way down (n - 2
    # frames of build and one of _close, under n); a disconnected one has
    # none and may stop early
    if _connected(masks):
        _check_depth(n)
    last = n - 1
    caps, tail = _entry_bounds(masks)
    a, b = masks[last - 1], masks[last]
    # a state entry (u, s) has s < n, so u << shift | s packs it into one int
    shift = n.bit_length()
    memo: dict[tuple, tuple | None] = {}

    def build(k: int, remaining: int, state: dict[int, int]):
        if k == last - 2:
            # the last three positions take v, x and remaining - v - x
            return tuple(_close(state, masks[k], a, b, remaining)) or None
        key = (k, remaining, frozenset([u << shift | s for u, s in state.items()]))
        if key in memo:
            return memo[key]
        edges = []
        for v, grown in _join(state, masks[k], remaining,
                              max(0, remaining - tail[k + 1]), min(caps[k], remaining)):
            if (child := build(k + 1, remaining - v, grown)) is not None:
                edges += v, child
        node = memo[key] = tuple(edges) or None
        return node

    root = build(0, n - 1, {0: 0})
    # build's closure refers to itself: break the cycle, and free the memo's keys
    del build
    memo.clear()
    out: list[tuple[int, ...]] = []

    def emit(k: int, node, prefix: tuple[int, ...], remaining: int):
        if k == last - 2:
            for v, lo, hi in node:
                rest = remaining - v
                for x in range(lo, hi + 1):
                    out.append(prefix + (v, x, rest - x))
            return
        edges = iter(node)
        for v, child in zip(edges, edges):
            emit(k + 1, child, prefix + (v,), remaining - v)

    if root is not None:
        emit(0, root, (), n - 1)
    del emit
    return out


def _flow_listing(d: BipartiteDouble) -> list[tuple[int, ...]]:
    """The flow engine's listing: is_draconian_flow over every weak
    composition of n - 1, with each prefix's units routed once.

    The walk places positions in order and v in increasing order, so
    sequences come out in lexicographic order.  A child copies its
    parent's router and adds its own row's units one at a time; the
    first unit that fails to route ends that position's range, since
    route(c) fails at the same unit for every c with that prefix and a
    larger entry.  The last position takes what is left, and the
    sequence goes to is_draconian_flow with its routed router, which
    keeps it when open_rows covers every row (module docstring).  The
    walk calls nothing of the subset engine's, so it checks it.
    """
    n = d.n
    last = n - 1
    out: list[tuple[int, ...]] = []
    c = [0] * n

    def walk(k: int, remaining: int, router: UnitRouter):
        if k == last:
            if remaining:
                router = router.copy()
                for _ in range(remaining):
                    if not router.add_unit(k):
                        return
            c[k] = remaining
            if is_draconian_flow(d, c, router):
                out.append(tuple(c))
            return
        walk(k + 1, remaining, router)
        if remaining:
            # units of row k go onto a copy; the parent's router stays as it was
            child = router.copy()
            for v in range(1, remaining + 1):
                if not child.add_unit(k):
                    break
                c[k] = v
                walk(k + 1, remaining - v, child)
            c[k] = 0

    walk(0, last, UnitRouter(d.masks, n))
    # walk's closure refers to itself: break the cycle so out is freed without a GC pass
    del walk
    return out


def _count_walk(d: BipartiteDouble) -> int:
    """The number of draconian sequences for d, found without listing them.

    The walk places one weight per twin class, the left vertices with
    one mask, in order of first occurrence (module docstring).  Its
    steps are enumerate_draconian's over the class masks, each weighted:
    a class of t vertices that takes weight v stands for the
    C(v + t - 1, t - 1) ways to split v among its members, so it
    multiplies its subtree's count by that.  The count is memoized on
    (position, weight still to place, state).  Each node grows its
    children with _join, which reads the joined unions and the join
    bound once and hands each child its state already filtered of the
    entries whose slack |union| - weight exceeds the weight the child
    still has to place: such an entry can never break (module
    docstring).  The node of the third-last class closes the last three
    through _close, which gives each weight v the class may take and the
    range of splits x of the last two that goes with it; the node sums,
    over v, the class's weight times the last two classes' weights over
    that range, read off a table of running sums.  It keeps its memo
    entry, since twin-heavy graphs reach one (weight, state) there many
    times.  A block of one or two classes is counted from the weights
    alone.
    """
    classes = Counter(d.masks)  # mask -> class size, in order of first occurrence
    masks = list(classes)
    last = len(masks) - 1
    caps, tail = _entry_bounds(masks)
    # weights[k][v]: the ways to split weight v among class k's members
    weights = [[comb(v + t - 1, t - 1) for v in range(cap + 1)]
               for cap, t in zip(caps, classes.values())]
    if last == 0:
        # one class: every mask is full, so every split of n - 1 is draconian
        return weights[0][d.n - 1]
    # pairs[r][x]: the ways the last two classes take some x' <= x and r - x'
    first, second = weights[last - 1], weights[last]
    pairs = []
    for r in range(min(tail[last - 1], d.n - 1) + 1):
        run, row = 0, []
        for x in range(min(caps[last - 1], r) + 1):
            if r - x <= caps[last]:
                run += first[x] * second[r - x]
            row.append(run)
        pairs.append(row)
    if last == 1:
        # two classes: every split that both caps allow (their masks cover [n])
        return pairs[-1][-1] if tail[0] >= d.n - 1 else 0
    _check_depth(len(masks))
    a, b = masks[last - 1], masks[last]
    memo: dict[tuple, int] = {}

    def walk(k: int, remaining: int, state: dict[int, int]) -> int:
        key = (k, remaining, frozenset(state.items()))
        if key in memo:
            return memo[key]
        ways = weights[k]
        count = 0
        if k < last - 2:
            for v, child in _join(state, masks[k], remaining,
                                  max(0, remaining - tail[k + 1]), min(caps[k], remaining)):
                count += ways[v] * walk(k + 1, remaining - v, child)
        else:
            # the last three classes take v, x and remaining - v - x
            for v, lo, hi in _close(state, masks[k], a, b, remaining):
                row = pairs[remaining - v]
                count += ways[v] * (row[hi] - row[lo - 1] if lo else row[hi])
        memo[key] = count
        return count

    count = walk(0, d.n - 1, {0: 0})
    # walk's closure refers to itself: break the cycle so memo is freed without a GC pass
    del walk
    return count


@dataclass
class VolumeReport:
    """Outcome of a volume computation, ready for JSON serialization."""

    graph: str
    count: int
    method: str
    elapsed_ms: float
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "graph": self.graph,
            "count": str(self.count),
            "method": self.method,
            "elapsed_ms": self.elapsed_ms,
            "notes": list(self.notes),
        }


def count_draconian(g: Graph, engine: str = "subset") -> VolumeReport:
    """Normalized volume of the adjacency polytope of ordered pairs on g.

    The volume is the product of the draconian counts of g's blocks
    (the product rule is in the module docstring).  The subset engine
    counts each block with a memoized walk and never lists a sequence;
    the flow engine lists each block's sequences through the flow test,
    as an independent cross-check.  For a disconnected graph the raw
    draconian count is not the volume, and the report notes that the
    volume is a product over components.  An isolated vertex contributes
    a factor 1 (its component polytope is a single point).
    """
    resolved = _engine(engine)
    start = time.perf_counter()
    count = 1
    for block in biconnected_blocks(g):
        d = doubling(block)
        count *= _count_walk(d) if resolved == "subset" else len(enumerate_draconian(d, "flow"))
    comps = connected_components(g)
    notes = []
    if len(comps) > 1:
        notes.append(f"disconnected: product over {len(comps)} components")
        isolated = sum(1 for part in comps if len(part) == 1)
        if isolated:
            notes.append(f"{isolated} isolated vertex component(s) contribute factor 1")
    elapsed = round((time.perf_counter() - start) * 1000.0, 3)
    return VolumeReport(
        graph=g.descriptor(),
        count=count,
        method=f"{resolved}-enumeration",
        elapsed_ms=elapsed,
        notes=notes,
    )
