"""The acceptance gate: one test per criterion, exact equality throughout.

Every check here is an integer identity, so the stated tolerance is
exact equality; there are no floating-point comparisons anywhere.
Each test prints a single PASS line on success (run with -s to see
them); a failure prints the offending values via the assert message.
"""

import itertools
import random

from pqvol.combinat import weak_compositions
from pqvol.draconian import (
    count_draconian,
    enumerate_draconian,
    is_draconian_flow,
    is_draconian_subset,
)
from pqvol.ehrhart import ehrhart_nvol
from pqvol.formulas import nvol_complete, nvol_cycle_deleted, nvol_matching_triangles, nvol_path_deleted
from pqvol.graphs import (
    Graph,
    complete_graph,
    delete_cycle,
    delete_path,
    doubling,
    matching_triangles,
    relabel,
)
from pqvol.lost_sequences import verify_cycle_identity, verify_path_identity
from pqvol.tripling import connected_graph_stream, search_triple_recurrence, verify_partition


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_complete_graphs():
    expected = {2: 2, 3: 6, 4: 20, 5: 70, 6: 252, 7: 924}
    for n, want in expected.items():
        got = count_draconian(complete_graph(n)).count
        assert got == want == nvol_complete(n), (n, got, want)
    report(1, "complete graph counts equal central binomials for n = 2..7")


def test_criterion_2_matching_triangles():
    for m in (0, 1, 2):
        g = matching_triangles(4, m)
        got = count_draconian(g).count
        want = nvol_matching_triangles(4, m)
        assert got == want == 20 * 3**m, (m, got, want)
    for m in (1, 2):
        base = matching_triangles(4, m - 1)
        step = verify_partition(base, (2 * m - 1, 2 * m), matching_mode=True)
        assert step.partition_holds and step.triples, (m, step.to_dict())
    report(2, "matching-triangle counts are 20/60/180 and the lift partition "
              "holds at both induction steps")


def test_criterion_3_path_identity():
    for n in (5, 6):
        for m in range(2, n):
            rep = verify_path_identity(n, m)
            assert rep.identity_holds, (n, m, rep.to_dict())
            assert rep.symmetric_difference == []
    report(3, "lost sequences equal the union of both path exception families "
              "for n in {5, 6}, m = 2..n-1")


def test_criterion_4_path_formula_ledger():
    rows = []
    for n in (4, 5, 6):
        for m in range(2, n):
            rep = verify_path_identity(n, m)
            actual = rep.cardinalities["actual"]
            enum = actual["deleted_count"]
            assert rep.identity_holds, (n, m)
            assert enum == actual["complete_count"] - actual["union"], (n, m, actual)
            readings = nvol_path_deleted(n, m)
            matching = "grouped" if readings.grouped == enum else (
                "as_printed" if readings.as_printed == enum else "neither")
            rows.append((n, m, matching))
            assert readings.grouped == enum, (n, m, readings, enum)
    assert {row[2] for row in rows} == {"grouped"}
    report(4, "enumeration equals complete-count minus exception-union on every "
              "path row; the grouped reading matches on all rows (as-printed never does)")


def test_criterion_5_cycle_deletion():
    for m, want in ((3, 52), (5, 40)):
        got = count_draconian(delete_cycle(5, m)).count
        assert got == want == nvol_cycle_deleted(5, m), (m, got, want)

    got = count_draconian(delete_cycle(5, 4)).count
    assert got == 36
    assert nvol_cycle_deleted(5, 4) == 34  # documented mismatch, not a failure

    rep = verify_cycle_identity(5, 4)
    assert rep.identity_holds and rep.pairwise_disjoint, rep.to_dict()
    actual = rep.cardinalities["actual"]
    assert (actual["heavy"], actual["split"], actual["triple"]) == (20, 2, 12)
    assert actual["union"] == 34
    assert rep.cardinalities["claimed"]["split"] == 4  # vs deduplicated 2
    report(5, "cycle counts are 52/40 at m = 3/5; at m = 4 enumeration 36 vs "
              "formula 34 and deduplicated split size 2 vs claimed 4 are recorded, "
              "and the three families partition the 34 lost sequences")


def test_criterion_6_geometric_oracle_agreement():
    graphs = [complete_graph(1)] + list(connected_graph_stream(4))
    for g in graphs:
        table = ehrhart_nvol(g)
        want = count_draconian(g).count
        assert table.nvol == want, (g.descriptor(), table.nvol, want)
    k2 = ehrhart_nvol(complete_graph(2))
    assert k2.counts == (1, 4, 9) and k2.nvol == 2
    report(6, f"lattice-point volume equals the sequence count on all "
              f"{len(graphs)} connected graphs with up to 4 vertices")


def test_criterion_7_engine_equivalence():
    rng = random.Random(20260819)
    graphs = 0
    disagreements = 0
    while graphs < 200:
        n = rng.randrange(1, 9)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < 0.5
        ]
        d = doubling(Graph.from_edges(n, edges))
        graphs += 1
        for c in weak_compositions(n - 1, n):
            if is_draconian_subset(d, c) != is_draconian_flow(d, c):
                disagreements += 1
    assert disagreements == 0
    report(7, "subset and flow membership tests agree on every weak composition "
              "for 200 random graphs with up to 8 vertices")


def test_criterion_8_invariance_and_degeneracy():
    rng = random.Random(7)
    for g in (delete_path(5, 2), delete_cycle(6, 4),
              Graph.from_edges(6, [(1, 2), (2, 3), (4, 5), (5, 6)])):
        want = count_draconian(g).count
        for _ in range(50):
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            assert count_draconian(relabel(g, perm)).count == want

    two_k2 = Graph.from_edges(4, [(1, 2), (3, 4)])
    assert count_draconian(two_k2).count == 4
    assert enumerate_draconian(two_k2) == []
    report(8, "counts survive 50 random relabelings per graph; two disjoint "
              "single edges give product 4 while the raw union count is 0")


def test_criterion_9_recurrence_search_soundness():
    records = search_triple_recurrence(5)
    forbidden = [r for r in records if r["hypotheses_hold"] and not r["triples"]]
    assert forbidden == [], forbidden
    assert len(records) > 0
    report(9, f"no (graph, edge) pair among {len(records)} with up to 5 vertices "
              f"satisfies the degree hypotheses yet fails to triple")
