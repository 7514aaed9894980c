"""Exception sets: the draconian sequences lost when edges are deleted.

Deleting a path or a cycle from a complete graph removes a precisely
describable family of sequences from the draconian set.  This module
builds those families explicitly and verifies, from the two draconian
counts and one membership test per family member, that they account
for every lost sequence.

Conventions follow graphs.delete_path and graphs.delete_cycle: the
deleted path runs along the last m+1 vertices, the deleted m-cycle
sits on cycle_vertices(n, m).  Heavy sets put weight n-2 on a cycle
or path vertex; split sets divide n-1 (or n-2, with a floating unit)
across the two ends of a skipped chord.

All constructions deduplicate.  The traditional cardinality
expressions for these families are kept separate as claims, because
several of them disagree with the deduplicated constructions.  The
split family at cycle length 4 halves, 2(n-4) below its claim.  The
claimed path union is one short at every size: at m = 2 the split
claim is one over and the overlap claim two over, and at m >= 3 the
overlap claim 3m-4 is one over.  Reports show claimed and actual side
by side rather than reconciling them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

from .combinat import SequenceSet
from .draconian import count_draconian, is_draconian_subset
from .graphs import Graph, cycle_vertices, delete_cycle, delete_path, doubling


def _unit(n: int, i: int, amount: int) -> tuple[int, ...]:
    vec = [0] * n
    vec[i - 1] = amount
    return tuple(vec)


def _bump(vec: tuple[int, ...], i: int, amount: int) -> tuple[int, ...]:
    out = list(vec)
    out[i - 1] += amount
    return tuple(out)


def _check_path_params(n: int, m: int):
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if not 2 <= m < n:
        raise ValueError(f"path exception sets need 2 <= m < n, got m = {m}")


def _check_cycle_params(n: int, m: int):
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    if not 3 <= m <= n:
        raise ValueError(f"cycle exception sets need 3 <= m <= n, got m = {m}")


def path_heavy_exceptions(n: int, m: int) -> SequenceSet:
    """Sequences e_i + (n-2)e_j with j an interior tail vertex of the deleted path."""
    _check_path_params(n, m)
    return SequenceSet.of(n, (
        _bump(_unit(n, j, n - 2), i, 1)
        for j in range(n - m + 1, n)
        for i in range(1, n + 1)
    ))


def path_split_exceptions(n: int, m: int) -> SequenceSet:
    """Sequences splitting n-1 across a chord (i, i+2) skipping one path vertex."""
    _check_path_params(n, m)
    return SequenceSet.of(n, (
        _bump(_unit(n, i, r), i + 2, n - 1 - r)
        for i in range(n - m, n - 1)
        for r in range(n)
    ))


def cycle_heavy_exceptions(n: int, m: int) -> SequenceSet:
    """Sequences e_j + (n-2)e_v with v on the deleted cycle."""
    _check_cycle_params(n, m)
    cyc = cycle_vertices(n, m)
    return SequenceSet.of(n, (
        _bump(_unit(n, v, n - 2), j, 1)
        for v in cyc
        for j in range(1, n + 1)
    ))


def cycle_split_exceptions(n: int, m: int) -> SequenceSet:
    """Sequences splitting n-1 across a chord skipping one cycle vertex.

    Both split parts stay in [2, n-3].  At m = 4 the chord from v_i and
    the chord from v_{i+2} coincide, so the construction collides with
    itself and deduplication halves the raw count.
    """
    _check_cycle_params(n, m)
    cyc = cycle_vertices(n, m)
    return SequenceSet.of(n, (
        _bump(_unit(n, cyc[i], r), cyc[(i + 2) % m], n - 1 - r)
        for i in range(m)
        for r in range(2, n - 2)
    ))


def cycle_triple_exceptions(n: int, m: int) -> SequenceSet:
    """Three-point sequences needed only at cycle length 4: r and n-2-r across
    a chord, plus a single unit anywhere off the chord."""
    _check_cycle_params(n, m)
    if m != 4:
        raise ValueError(f"the triple family exists only at cycle length 4, got m = {m}")
    cyc = cycle_vertices(n, m)
    members = []
    for i in range(m):
        a, b = cyc[i], cyc[(i + 2) % m]
        for r in range(1, n - 2):
            base = _bump(_unit(n, a, r), b, n - 2 - r)
            for s in range(1, n + 1):
                if s != a and s != b:
                    members.append(_bump(base, s, 1))
    return SequenceSet.of(n, members)


def claimed_path_sizes(n: int, m: int) -> dict:
    """The traditional cardinality expressions for the path families, as claims."""
    heavy = n * (m - 1)
    split = n * (m - 1) - (m - 3)
    overlap = 2 * (m - 1) + (m - 2)
    return {"heavy": heavy, "split": split, "overlap": overlap,
            "union": heavy + split - overlap}


def claimed_cycle_sizes(n: int, m: int) -> dict:
    """The traditional cardinality expressions for the cycle families, as claims."""
    out = {"heavy": m * n, "split": m * (n - 4)}
    if m == 4:
        out["triple"] = 2 * (n - 3) * (n - 2)
    out["union"] = sum(out.values())
    return out


@dataclass
class IdentityReport:
    """Comparison of an exception-set construction against the lost set."""

    params: dict
    identity_holds: bool
    cardinalities: dict
    symmetric_difference: list = field(default_factory=list)
    pairwise_disjoint: bool | None = None

    def to_dict(self) -> dict:
        out = {
            "params": dict(self.params),
            "identity_holds": self.identity_holds,
            "cardinalities": self.cardinalities,
            "symmetric_difference": [list(s) for s in self.symmetric_difference],
        }
        if self.pairwise_disjoint is not None:
            out["pairwise_disjoint"] = self.pairwise_disjoint
        return out


def _lost_candidates(n: int) -> set[tuple[int, ...]]:
    """Weak compositions of n-1 with two entries summing to n-2 or more:
    n-2 split across a pair, plus a unit anywhere.

    Every sequence lost by deleting a path or cycle H from K_n is one.  It
    breaks c(S) < |N(S)| in K_n - H for some S.  A vertex outside S misses
    N(S) only if it is an H-neighbour of all of S, and H has maximum degree
    2, so S has at most two vertices (else |N(S)| = n > c(S)) and c(S) >= n-2.
    """
    return {_bump(_bump(_unit(n, k, 1), i, r), j, n - 2 - r) for k in range(1, n + 1)
            for i, j in itertools.combinations(range(1, n + 1), 2) for r in range(n - 1)}


def _compare(deleted: Graph, families: dict) -> tuple[dict, list]:
    """Cardinalities for a deleted graph; symmetric difference of lost set and union.

    Nothing is listed while the identity holds.  Every weak composition
    of n-1 is draconian for K_n (each N(S) has all n vertices), so K_n
    has C(2n-2, n-1); every valid deletion leaves a connected graph, so
    count_draconian is its draconian count.  A union member is stray
    when it is no composition of n-1 or is draconian for the deletion;
    the rest are lost, so the union is the lost set exactly when nothing
    is stray and the rest number complete - deleted.  Only otherwise is
    _lost_candidates searched for the lost sequences the union misses.
    """
    n = deleted.n
    d = doubling(deleted)
    complete = math.comb(2 * n - 2, n - 1)
    kept = count_draconian(deleted).count
    union = reduce(SequenceSet.union, families.values())
    stray = [c for c in union if sum(c) != n - 1 or is_draconian_subset(d, c)]
    missing = []
    if len(union) - len(stray) != complete - kept:
        missing = [c for c in _lost_candidates(n)
                   if c not in union and not is_draconian_subset(d, c)]
    actual = {name: len(fam) for name, fam in families.items()}
    actual.update(union=len(union), lost=complete - kept, complete_count=complete,
                  deleted_count=kept)
    return actual, sorted(stray + missing)


def verify_path_identity(n: int, m: int) -> IdentityReport:
    """Does heavy-union-split equal the sequences lost by deleting the path?"""
    heavy = path_heavy_exceptions(n, m)
    split = path_split_exceptions(n, m)
    actual, diff = _compare(delete_path(n, m), {"heavy": heavy, "split": split})
    actual["overlap"] = len(heavy.intersection(split))
    return IdentityReport(
        params={"family": "path-deleted", "n": n, "m": m},
        identity_holds=len(diff) == 0,
        cardinalities={"claimed": claimed_path_sizes(n, m), "actual": actual},
        symmetric_difference=diff,
    )


def verify_cycle_identity(n: int, m: int) -> IdentityReport:
    """Does the union of cycle families equal the sequences lost by deleting the cycle?

    At m = 4 the triple family joins the union.  Pairwise disjointness
    of the deduplicated families is checked alongside the identity.
    """
    families = {"heavy": cycle_heavy_exceptions(n, m), "split": cycle_split_exceptions(n, m)}
    if m == 4:
        families["triple"] = cycle_triple_exceptions(n, m)
    actual, diff = _compare(delete_cycle(n, m), families)
    return IdentityReport(
        params={"family": "cycle-deleted", "n": n, "m": m},
        identity_holds=len(diff) == 0,
        cardinalities={"claimed": claimed_cycle_sizes(n, m), "actual": actual},
        symmetric_difference=diff,
        pairwise_disjoint=actual["union"] == sum(len(f) for f in families.values()),
    )
