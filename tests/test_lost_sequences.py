import json
import math

import pytest
from oracle import compositions

from pqvol import lost_sequences
from pqvol.cli import main
from pqvol.combinat import SequenceSet
from pqvol.draconian import enumerate_draconian, is_draconian_subset
from pqvol.formulas import nvol_complete, nvol_cycle_deleted, nvol_path_deleted
from pqvol.graphs import complete_graph, delete_cycle, delete_path, doubling
from pqvol.lost_sequences import (
    claimed_cycle_sizes,
    claimed_path_sizes,
    cycle_heavy_exceptions,
    cycle_split_exceptions,
    cycle_triple_exceptions,
    path_heavy_exceptions,
    path_split_exceptions,
    verify_cycle_identity,
    verify_path_identity,
)


def test_path_heavy_members_frozen():
    got = set(path_heavy_exceptions(4, 2))
    assert got == {(1, 0, 2, 0), (0, 1, 2, 0), (0, 0, 3, 0), (0, 0, 2, 1)}
    five = path_heavy_exceptions(5, 2)
    assert len(five) == 5
    assert (0, 0, 0, 4, 0) in five  # the i = j collapse


def test_path_split_members_frozen():
    got = set(path_split_exceptions(4, 2))
    assert got == {(0, 0, 0, 3), (0, 1, 0, 2), (0, 2, 0, 1), (0, 3, 0, 0)}
    assert len(path_split_exceptions(5, 2)) == 5
    assert len(path_split_exceptions(5, 3)) == 10


def test_path_family_sizes():
    for n in range(4, 8):
        for m in range(2, n):
            heavy = path_heavy_exceptions(n, m)
            # the heavy construction never collides, so the claim holds exactly
            assert len(heavy) == n * (m - 1)


def test_path_overlap_frozen_example():
    heavy = path_heavy_exceptions(5, 3)
    split = path_split_exceptions(5, 3)
    overlap = heavy.intersection(split)
    assert set(overlap) == {
        (0, 0, 4, 0, 0),
        (0, 0, 0, 4, 0),
        (0, 1, 0, 3, 0),
        (0, 0, 3, 0, 1),
    }
    # the traditional overlap expression says 5; the construction gives 4
    assert claimed_path_sizes(5, 3)["overlap"] == 5
    assert len(overlap) == 4


def test_builders_reject_degenerate_m():
    for build in (path_heavy_exceptions, path_split_exceptions):
        for m in (0, 1):
            with pytest.raises(ValueError):
                build(5, m)
        with pytest.raises(ValueError):
            build(3, 2)


def test_single_edge_deletion_gap():
    # at m = 1 the displayed families are empty, yet two sequences are
    # lost; this is the documented boundary of the construction
    n = 5
    full = set(enumerate_draconian(complete_graph(n)))
    kept = set(enumerate_draconian(delete_path(n, 1)))
    lost = full - kept
    assert lost == {(0, 0, 0, 4, 0), (0, 0, 0, 0, 4)}


def test_cycle_family_sizes_frozen():
    assert len(cycle_heavy_exceptions(5, 5)) == 25
    assert len(cycle_split_exceptions(5, 5)) == 5
    assert len(cycle_split_exceptions(5, 3)) == 3
    # at m = 4 the split family collides with itself and halves
    assert len(cycle_split_exceptions(5, 4)) == 2
    assert claimed_cycle_sizes(5, 4)["split"] == 4
    assert len(cycle_split_exceptions(6, 4)) == 4
    # the triple family's raw double-count also halves, matching its claim
    assert len(cycle_triple_exceptions(5, 4)) == 12
    assert claimed_cycle_sizes(5, 4)["triple"] == 12


def test_cycle_triple_only_at_four():
    for m in (3, 5):
        with pytest.raises(ValueError):
            cycle_triple_exceptions(6, m)


def test_closed_forms_are_complete_minus_the_claimed_union():
    # each closed form is C(2n-2, n-1) less the claimed family sizes; the
    # claims, not the constructions, are where the closed forms go astray
    for n in range(4, 21):
        for m in range(2, n):
            claimed = claimed_path_sizes(n, m)
            assert nvol_path_deleted(n, m).grouped == nvol_complete(n) - claimed["union"] - 1
            heavy, split = path_heavy_exceptions(n, m), path_split_exceptions(n, m)
            assert len(split) == (n if m == 2 else n * (m - 1) - (m - 3)), (n, m)
            assert len(heavy.intersection(split)) == (0 if m == 2 else 3 * m - 5), (n, m)
    for n in range(5, 21):
        for m in range(3, n + 1):
            claimed = claimed_cycle_sizes(n, m)
            assert nvol_cycle_deleted(n, m) == nvol_complete(n) - claimed["union"]
        undercount = claimed_cycle_sizes(n, 4)["split"] - len(cycle_split_exceptions(n, 4))
        assert undercount == 2 * (n - 4)


def test_members_are_compositions_and_fail_on_deleted_graph():
    cases = [
        (path_heavy_exceptions(5, 3), delete_path(5, 3)),
        (path_split_exceptions(5, 3), delete_path(5, 3)),
        (cycle_heavy_exceptions(6, 4), delete_cycle(6, 4)),
        (cycle_split_exceptions(6, 4), delete_cycle(6, 4)),
        (cycle_triple_exceptions(6, 4), delete_cycle(6, 4)),
        (cycle_split_exceptions(6, 6), delete_cycle(6, 6)),
    ]
    for family, deleted in cases:
        d_deleted = doubling(deleted)
        d_full = doubling(complete_graph(deleted.n))
        assert len(family) > 0
        for c in family:
            assert sum(c) == deleted.n - 1
            assert not is_draconian_subset(d_deleted, c)
            assert is_draconian_subset(d_full, c)


def test_verify_path_identity_examples():
    rep = verify_path_identity(4, 2)
    assert rep.identity_holds
    actual = rep.cardinalities["actual"]
    assert actual["union"] == 8
    assert actual["heavy"] == 4 and actual["split"] == 4 and actual["overlap"] == 0
    assert actual["complete_count"] == 20 and actual["deleted_count"] == 12
    assert rep.symmetric_difference == []

    rep = verify_path_identity(5, 2)
    assert rep.identity_holds
    assert rep.cardinalities["actual"]["union"] == 10
    assert rep.cardinalities["actual"]["overlap"] == 0

    rep = verify_path_identity(5, 3)
    assert rep.identity_holds
    assert rep.cardinalities["actual"]["overlap"] == 4
    assert rep.cardinalities["claimed"]["overlap"] == 5


def test_verify_path_identity_grid():
    for n in (4, 5, 6):
        for m in range(2, n):
            rep = verify_path_identity(n, m)
            assert rep.identity_holds, (n, m)
            actual = rep.cardinalities["actual"]
            assert actual["lost"] == actual["union"]


def test_verify_cycle_identity_examples():
    rep = verify_cycle_identity(5, 5)
    assert rep.identity_holds and rep.pairwise_disjoint
    actual = rep.cardinalities["actual"]
    assert actual["union"] == 30 and actual["heavy"] == 25 and actual["split"] == 5
    assert actual["deleted_count"] == 40

    rep = verify_cycle_identity(5, 3)
    assert rep.identity_holds and rep.pairwise_disjoint
    assert rep.cardinalities["actual"]["union"] == 18
    assert rep.cardinalities["actual"]["deleted_count"] == 52

    rep = verify_cycle_identity(5, 4)
    assert rep.identity_holds and rep.pairwise_disjoint
    actual = rep.cardinalities["actual"]
    assert (actual["heavy"], actual["split"], actual["triple"]) == (20, 2, 12)
    assert actual["union"] == 34 and actual["deleted_count"] == 36
    assert rep.cardinalities["claimed"]["union"] == 36


def test_verify_cycle_identity_grid():
    for n in (5, 6):
        for m in range(3, n + 1):
            rep = verify_cycle_identity(n, m)
            assert rep.identity_holds and rep.pairwise_disjoint, (n, m)


def test_report_shape():
    d = verify_cycle_identity(5, 4).to_dict()
    assert set(d) == {
        "params", "identity_holds", "cardinalities", "symmetric_difference",
        "pairwise_disjoint",
    }
    assert d["params"] == {"family": "cycle-deleted", "n": 5, "m": 4}
    p = verify_path_identity(4, 2).to_dict()
    assert "pairwise_disjoint" not in p


def test_lost_set_agrees_with_complete_graph_enumeration():
    # the reference: lost = draconian for K_n minus draconian for the deletion;
    # every lost sequence has two entries summing to at least n - 2
    cases = [(n, m, verify_path_identity, delete_path) for n in range(4, 9) for m in range(2, n)]
    cases += [(n, m, verify_cycle_identity, delete_cycle)
              for n in range(5, 9) for m in range(3, n + 1)]
    for n, m, verify, delete in cases:
        full = enumerate_draconian(complete_graph(n))
        kept = set(enumerate_draconian(delete(n, m)))
        lost = [c for c in full if c not in kept]
        actual = verify(n, m).cardinalities["actual"]
        assert actual["complete_count"] == len(full), (n, m)
        assert actual["deleted_count"] == len(kept), (n, m)
        assert actual["lost"] == len(lost), (n, m)
        assert all(sum(sorted(c)[-2:]) >= n - 2 for c in lost), (n, m)


def test_lost_candidates_are_the_compositions_with_a_heavy_pair():
    for n in range(2, 9):
        want = {c for c in compositions(n - 1, n) if sum(sorted(c)[-2:]) >= n - 2}
        assert lost_sequences._lost_candidates(n) == want, n


def _patch_split(monkeypatch, edit, n=6, m=5):
    """Make verify_cycle_identity see edit(members) as cycle_split_exceptions(n, m)."""
    members = list(cycle_split_exceptions(n, m))
    monkeypatch.setattr(lost_sequences, "cycle_split_exceptions",
                        lambda n, m: SequenceSet.of(n, edit(list(members))))
    return members


def _failed(capsys, want):
    rep = verify_cycle_identity(6, 5)
    assert not rep.identity_holds
    assert rep.symmetric_difference == sorted(want)
    code = main(["verify", "--family", "cycle-deleted", "--n", "6", "--m", "5", "--table"])
    assert code == 1
    assert "MUST-HOLD FAILED" in capsys.readouterr().out


def test_identity_names_a_member_of_the_wrong_sum(monkeypatch, capsys):
    # not a composition of n - 1, so never draconian: it must not pass for a lost one
    members = _patch_split(monkeypatch, lambda ms: ms[1:] + [(6, 0, 0, 0, 0, 0)])
    _failed(capsys, [members[0], (6, 0, 0, 0, 0, 0)])


def test_identity_names_a_member_the_deletion_keeps(monkeypatch, capsys):
    kept = enumerate_draconian(delete_cycle(6, 5))[0]
    _patch_split(monkeypatch, lambda ms: ms + [kept])
    _failed(capsys, [kept])


def test_identity_names_a_lost_sequence_the_union_misses(monkeypatch, capsys):
    members = _patch_split(monkeypatch, lambda ms: ms[1:])
    _failed(capsys, [members[0]])


def test_a_failed_identity_tests_only_the_candidates(monkeypatch):
    # C(24, 12) = 2704156 compositions of 12 into 13 parts; 8593 candidates
    members = _patch_split(monkeypatch, lambda ms: ms[1:], 13, 13)
    calls = 0

    def counting(d, c):
        nonlocal calls
        calls += 1
        if calls > math.comb(24, 12) // 100:
            raise AssertionError("the identity tested far more sequences than the candidates")
        return is_draconian_subset(d, c)

    monkeypatch.setattr(lost_sequences, "is_draconian_subset", counting)
    rep = verify_cycle_identity(13, 13)
    assert not rep.identity_holds
    assert rep.symmetric_difference == [members[0]]


def test_identity_lists_no_composition_when_it_holds(monkeypatch, capsys):
    def no_listing(*args):
        raise AssertionError("the identity listed the lost-sequence candidates")

    monkeypatch.setattr(lost_sequences, "_lost_candidates", no_listing)
    for family, ns in (("path-deleted", "4..9"), ("cycle-deleted", "5..9")):
        assert main(["verify", "--family", family, "--n", ns]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert all(row["must_hold"] and row["identity"]["identity_holds"] for row in rows)
