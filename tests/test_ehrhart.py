import inspect
import math
import random
import re
import textwrap

import pytest
from oracle import components, random_graph

from pqvol import draconian, ehrhart
from pqvol.combinat import weak_compositions
from pqvol.draconian import count_draconian
from pqvol.ehrhart import (
    affine_dimension,
    count_dilate_points,
    ehrhart_nvol,
    is_in_dilate,
    polytope_vertices,
)
from pqvol.flows import transportation_feasible
from pqvol.graphs import Graph, complete_graph, delete_cycle, delete_path, doubling


def test_polytope_vertices_small():
    assert polytope_vertices(complete_graph(1)) == [(1, 1)]
    k2 = polytope_vertices(complete_graph(2))
    assert set(k2) == {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}
    assert len(polytope_vertices(complete_graph(3))) == 9
    # n diagonal points plus two per edge
    g = delete_path(4, 2)
    assert len(polytope_vertices(g)) == 4 + 2 * len(g.edges)


def test_affine_dimension():
    assert affine_dimension(polytope_vertices(complete_graph(1))) == 0
    assert affine_dimension(polytope_vertices(complete_graph(2))) == 2
    graphs = [complete_graph(3), complete_graph(4), Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])]
    # ehrhart_nvol takes 2n - 2 for every connected graph, from the span proof
    # in the module docstring: the exact rank must agree on seeded ones
    rng = random.Random("dimension")
    while len(graphs) < 60:
        n = rng.randint(1, 7)
        g = Graph.from_edges(n, random_graph(rng, n, rng.choice((0.3, 0.6, 0.9))))
        if len(components(n, g.sorted_edges())) == 1:
            graphs.append(g)
    assert {g.n for g in graphs} == set(range(1, 8))
    for g in graphs:
        assert affine_dimension(polytope_vertices(g)) == 2 * g.n - 2, g.descriptor()
    with pytest.raises(ValueError):
        affine_dimension([])


def test_is_in_dilate_hand_cases():
    k2 = complete_graph(2)
    assert is_in_dilate(k2, 2, (1, 1, 1, 1))
    assert is_in_dilate(k2, 1, (1, 0, 0, 1))
    edgeless = Graph(2, frozenset())
    assert not is_in_dilate(edgeless, 1, (1, 0, 0, 1))
    assert is_in_dilate(edgeless, 1, (1, 0, 1, 0))
    # wrong totals and negative entries are outside every dilate
    assert not is_in_dilate(k2, 1, (1, 1, 1, 1))
    assert not is_in_dilate(k2, 1, (2, -1, 1, 0))
    with pytest.raises(ValueError):
        is_in_dilate(k2, 1, (1, 0, 0))
    with pytest.raises(ValueError):
        is_in_dilate(k2, -1, (1, 0, 0, 1))


def test_vertices_lie_in_first_dilate():
    for g in [complete_graph(3), delete_path(4, 2)]:
        for v in polytope_vertices(g):
            assert is_in_dilate(g, 1, v)


def test_membership_monotone_along_diagonal():
    rng = random.Random(6)
    g = complete_graph(3)
    for t in (1, 2):
        points = [
            a + b
            for a in weak_compositions(t, 3)
            for b in weak_compositions(t, 3)
        ]
        for z in rng.sample(points, min(20, len(points))):
            if is_in_dilate(g, t, z):
                i = rng.randrange(3)
                bumped = list(z)
                bumped[i] += 1
                bumped[3 + i] += 1
                assert is_in_dilate(g, t + 1, tuple(bumped))


def test_ehrhart_k2_table():
    table = ehrhart_nvol(complete_graph(2))
    assert table.dimension == 2
    assert table.counts == (1, 4, 9)
    assert table.nvol == 2


def test_ehrhart_k1():
    table = ehrhart_nvol(complete_graph(1))
    assert table.dimension == 0
    assert table.counts == (1,)
    assert table.nvol == 1


def test_ehrhart_matches_combinatorial_count_tiny():
    for g in [complete_graph(3), Graph.from_edges(3, [(1, 2), (2, 3)])]:
        assert ehrhart_nvol(g).nvol == count_draconian(g).count


def finite_difference(values, order):
    """The order-th finite difference of values at 0: sum of
    (-1)^k C(order, k) values[order - k]."""
    if len(values) < order + 1:
        raise ValueError(f"need {order + 1} values for an order-{order} difference")
    return sum((-1) ** k * math.comb(order, k) * values[order - k] for k in range(order + 1))


def test_counts_are_polynomial_of_degree_d():
    for g in [complete_graph(2), complete_graph(3)]:
        table = ehrhart_nvol(g)
        counts = table.counts + (count_dilate_points(g, table.dimension + 1),)
        assert finite_difference(counts, table.dimension + 1) == 0
        assert list(counts) == sorted(counts)
        assert counts[0] == 1


def test_finite_difference_validates():
    with pytest.raises(ValueError):
        finite_difference((1, 2), 2)


@pytest.mark.parametrize("n", range(1, 8))
def test_complete_graph_h_star_is_squared_binomials(n):
    table = ehrhart_nvol(complete_graph(n))
    # the evaluated counts continue the polynomial, so h* past n - 1 solves to 0
    want = [math.comb(n - 1, k) ** 2 for k in range(n)] + [0] * (n - 1)
    assert ehrhart._h_star(table.counts, table.dimension) == want
    assert table.nvol == math.comb(2 * n - 2, n - 1)


@pytest.mark.parametrize("t, delta, h", [(3, 1, "[1, 9, 9, 2]"), (1, -5, "[1, 4, 44, -104]")])
def test_a_wrong_dilate_count_is_refused(monkeypatch, t, delta, h):
    # K_4 has h* = (1, 9, 9, 1): one point too many at t = n - 1 makes h*_3 = 2,
    # five too few at t = 1 throw every later coefficient off
    count = ehrhart.count_dilate_points
    monkeypatch.setattr(ehrhart, "count_dilate_points",
                        lambda g, s: count(g, s) + (delta if s == t else 0))
    with pytest.raises(ValueError, match=re.escape(f"h* = {h}: expected")):
        ehrhart_nvol(complete_graph(4))


def test_refuses_disconnected_and_oversize():
    # the size cap is the command's (test_cli.py::test_ehrhart_command)
    with pytest.raises(ValueError):
        ehrhart_nvol(Graph.from_edges(4, [(1, 2), (3, 4)]))


def test_table_dict_shape():
    d = ehrhart_nvol(complete_graph(2)).to_dict()
    assert d == {"dimension": 2, "counts": [1, 4, 9], "nvol": "2"}


def flow_count(g, t):
    """Lattice points of the t-th dilate, one flow check per pair of margins."""
    masks = doubling(g).masks
    return sum(transportation_feasible(masks, a, b)
               for a in weak_compositions(t, g.n) for b in weak_compositions(t, g.n))


def test_gale_walk_matches_a_flow_per_pair_of_margins():
    rng = random.Random("gale")
    sizes, connected = set(), set()
    for _ in range(30):
        n = rng.randint(1, 5)
        g = Graph.from_edges(n, random_graph(rng, n, rng.choice((0.3, 0.6, 0.9))))
        sizes.add(n)
        connected.add(len(components(n, g.edges)) == 1)
        for t in range(2 * n - 1 if n <= 4 else 4):
            assert count_dilate_points(g, t) == flow_count(g, t), (g.descriptor(), t)
    assert sizes == {1, 2, 3, 4, 5} and connected == {True, False}


def test_evaluated_counts_match_every_measured_dilate():
    # ehrhart_nvol measures t < n and evaluates the rest: count them all,
    # on three seeded connected graphs of each size
    rng = random.Random("dilates")
    for n in range(1, 6):
        tested = 0
        while tested < 3:
            g = Graph.from_edges(n, random_graph(rng, n, rng.choice((0.4, 0.7))))
            if len(components(n, g.edges)) != 1:
                continue
            tested += 1
            table = ehrhart_nvol(g)
            assert table.dimension == 2 * n - 2
            want = [count_dilate_points(g, t) for t in range(2 * n - 1)]
            assert list(table.counts) == want, g.descriptor()


def test_slack_prune_drops_nothing_that_can_break():
    # an entry whose slack is one less than the weight still to place breaks
    # when all of it joins the entry: a copy of the walk that prunes it miscounts
    source = inspect.getsource(ehrhart._count_column_margins)
    keep = "weight[rows] - s < r"
    assert source.count(keep) == 1
    namespace = dict(vars(ehrhart))
    exec(textwrap.dedent(source.replace(keep, "weight[rows] - s < r - 1")), namespace)
    early = namespace["_count_column_margins"]

    def early_count(g, t):
        masks = doubling(g).masks
        return sum(early(masks, a) for a in weak_compositions(t, g.n))

    assert early_count(delete_path(4, 2), 2) == 71  # 68 points
    rng = random.Random("early")
    wrong = 0
    for _ in range(40):
        n = rng.randint(2, 4)
        g = Graph.from_edges(n, random_graph(rng, n, rng.choice((0.4, 0.7))))
        t = rng.randint(1, 2 * n - 2)
        want = flow_count(g, t)
        assert count_dilate_points(g, t) == want
        wrong += early_count(g, t) != want
    assert wrong >= 8


def test_ehrhart_calls_no_draconian_counter(monkeypatch):
    path = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    graphs = [complete_graph(5), delete_cycle(5, 4), path, delete_path(4, 2)]
    want = [count_draconian(g).count for g in graphs]
    assert want[:3] == [70, 36, 16]

    def fail(*args, **kwargs):
        raise AssertionError("the geometric oracle called a draconian counter")

    for name in ("count_draconian", "enumerate_draconian", "_count_walk", "_join", "_close",
                 "is_draconian_subset", "is_draconian_flow"):
        monkeypatch.setattr(draconian, name, fail)
        assert not hasattr(ehrhart, name)
    assert [ehrhart_nvol(g).nvol for g in graphs] == want
