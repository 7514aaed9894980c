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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from .combinat import weak_compositions
from .flows import UnitRouter
from .graphs import BipartiteDouble, Graph, connected_components, doubling

ENGINES = ("subset", "flow")


class EnumerationCapExceeded(RuntimeError):
    """An instance is larger than the configured enumeration cap allows."""


def check_cap(what: str, size: int, cap: int):
    """Refuse an input whose vertex count is over cap (exit 3 on the command line).

    Every size bound in the package goes through here, so each refusal
    reads the same: the quantity, its size, the cap and the option.
    """
    if size > cap:
        raise EnumerationCapExceeded(
            f"{what} has {size} vertices, over the cap {cap}; raise --cap-n to force this"
        )


def _check_sequence(d: BipartiteDouble, c: Sequence[int]):
    if len(c) != d.n:
        raise ValueError(f"sequence length {len(c)} does not match n = {d.n}")
    if any(x < 0 for x in c):
        raise ValueError(f"sequence {tuple(c)} has a negative entry")


def _join(state: dict[int, int], v: int, m: int) -> dict[int, int] | None:
    """Join an entry of weight v and neighborhood mask m to every subset in state.

    state maps each neighborhood union to the largest weight of a subset
    with that union ({0: 0} is the empty set alone; why that is exact is
    in the module docstring).  Returns the grown state, or None at the
    first joined subset whose weight is not below its union size.
    """
    out = dict(state)
    for u, s in state.items():
        s += v
        u |= m
        if s >= u.bit_count():
            return None
        if out.get(u, -1) < s:
            out[u] = s
    return out


def _engine(name: str) -> str:
    """Check an engine name against ENGINES."""
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}, expected one of {ENGINES}")
    return name


def is_draconian_subset(d: BipartiteDouble, c: Sequence[int], *,
                        all_subsets: bool = False) -> bool:
    """Subset-inequality test.

    By default only the vertices in the support of c are joined, which
    is equivalent to the definition.  all_subsets=True joins every
    vertex, zero entries included, so every nonempty subset takes part
    in the state; it is the literal reference for that equivalence.
    """
    _check_sequence(d, c)
    idx = range(d.n) if all_subsets else [i for i, v in enumerate(c) if v > 0]
    state = {0: 0}
    return all((state := _join(state, c[i], d.masks[i])) is not None for i in idx)


def is_draconian_flow(d: BipartiteDouble, c: Sequence[int]) -> bool:
    """Flow test: for every i, c + e_i must route into distinct right vertices."""
    _check_sequence(d, c)
    ones = (1,) * d.n
    base = UnitRouter(d.masks, ones)
    for i, v in enumerate(c):
        for _ in range(v):
            if not base.add_unit(i):
                # some S already violates the non-strict Hall bound, so
                # c + e_i fails for any i in S
                return False
    for i in range(d.n):
        if not base.clone().add_unit(i):
            return False
    return True


def enumerate_draconian(d: BipartiteDouble, engine: str = "subset") -> list[tuple[int, ...]]:
    """All draconian sequences for d, in lexicographic order.

    engine='subset' grows sequences by backtracking and prunes with the
    subset inequalities as entries are placed.  engine='flow' filters
    every weak composition through the flow test; it is slower and
    exists as an independent cross-check.
    """
    if _engine(engine) == "flow":
        return [c for c in weak_compositions(d.n - 1, d.n) if is_draconian_flow(d, c)]

    n = d.n
    total = n - 1
    # the singleton inequality caps entry i at |N(i)| - 1
    caps = [d.masks[i].bit_count() - 1 for i in range(n)]
    tail = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        tail[k] = tail[k + 1] + caps[k]

    out: list[tuple[int, ...]] = []
    c = [0] * n

    def place(k: int, remaining: int, state: dict[int, int]):
        if k == n:
            if remaining == 0:
                out.append(tuple(c))
            return
        low = max(0, remaining - tail[k + 1])
        high = min(caps[k], remaining)
        if low == 0:
            c[k] = 0
            place(k + 1, remaining, state)
            low = 1
        m = d.masks[k]
        for v in range(low, high + 1):
            # if any subset fails at weight v it fails at every larger v
            if (grown := _join(state, v, m)) is None:
                break
            c[k] = v
            place(k + 1, remaining - v, grown)
        c[k] = 0

    try:
        place(0, total, {0: 0})
    except RecursionError:
        raise EnumerationCapExceeded(f"n = {n}: the enumerator recurses once per vertex") from None
    # place's closure refers to itself: break the cycle so out is freed without a GC pass
    del place
    return out


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

    Connected graphs are counted by direct enumeration.  For a
    disconnected graph the raw draconian count is not the volume; the
    volume multiplies over connected components, and the report notes
    that this product rule was applied.  An isolated vertex contributes
    a factor 1 (its component polytope is a single point).
    """
    resolved = _engine(engine)
    start = time.perf_counter()
    comps = connected_components(g)
    count = 1
    for part in comps:
        count *= len(enumerate_draconian(doubling(part.graph), resolved))
    notes = []
    if len(comps) > 1:
        notes.append(f"disconnected: product over {len(comps)} components")
        isolated = sum(1 for part in comps if part.graph.n == 1)
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
