import copy
import gc
import inspect
import random
import sys
import textwrap
from collections import Counter
from math import comb

import pytest
from oracle import brute_draconian, components, compositions, random_graph

from pqvol import draconian
from pqvol.combinat import weak_compositions
from pqvol.draconian import (
    ENGINES,
    count_draconian,
    enumerate_draconian,
    is_draconian_flow,
    is_draconian_subset,
)
from pqvol.flows import UnitRouter
from pqvol.graphs import (
    Graph,
    complete_graph,
    connected_components,
    delete_cycle,
    delete_path,
    doubling,
    relabel,
)

# central binomials C(2(n-1), n-1); frozen from the brute-force oracle
COMPLETE_COUNTS = {1: 1, 2: 2, 3: 6, 4: 20, 5: 70, 6: 252, 7: 924}


def test_membership_hand_cases():
    d = doubling(delete_path(4, 2))
    # weight 3 on vertex 3 exceeds its 2-element neighborhood
    assert not is_draconian_subset(d, (0, 0, 3, 0))
    assert is_draconian_subset(d, (1, 1, 0, 1))
    # the pair {2, 4} only reaches 3 right vertices
    assert not is_draconian_subset(d, (0, 2, 0, 1))
    for c in [(0, 0, 3, 0), (1, 1, 0, 1), (0, 2, 0, 1)]:
        assert is_draconian_flow(d, c) == is_draconian_subset(d, c)


def test_membership_input_validation():
    d = doubling(complete_graph(3))
    for check in (is_draconian_subset, is_draconian_flow):
        with pytest.raises(ValueError):
            check(d, (1, 1))
        with pytest.raises(ValueError):
            check(d, (1, -1, 2))


def test_support_restriction_equals_full_powerset():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randrange(2, 7)
        edges = random_graph(rng, n)
        d = doubling(Graph.from_edges(n, edges))
        c = [0] * n
        for _ in range(n - 1):
            c[rng.randrange(n)] += 1
        # the definition itself: every nonempty subset of [n], zero entries included
        full = tuple(c) in brute_draconian(n, edges)
        assert is_draconian_subset(d, c) == full
        assert is_draconian_flow(d, c) == full


@pytest.mark.parametrize("n", sorted(COMPLETE_COUNTS))
def test_complete_graph_counts(n):
    got = enumerate_draconian(complete_graph(n))
    assert len(got) == COMPLETE_COUNTS[n]


def test_enumeration_matches_brute_force():
    cases = [
        complete_graph(4),
        delete_path(4, 2),
        delete_path(5, 3),
        delete_cycle(5, 4),
        Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)]),
        Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5)]),
        Graph(3, frozenset()),
        Graph.from_edges(4, [(1, 2), (3, 4)]),
    ]
    for g in cases:
        want = brute_draconian(g.n, g.sorted_edges())
        got = enumerate_draconian(g)
        assert set(got) == want, g.descriptor()
        assert got == sorted(got)
        assert len(set(got)) == len(got)


def test_enumeration_matches_brute_force_random():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(1, 6)
        g = Graph.from_edges(n, random_graph(rng, n))
        want = brute_draconian(g.n, g.sorted_edges())
        assert set(enumerate_draconian(g)) == want, g.descriptor()


def _no_listing(*args, **kwargs):
    raise AssertionError("the subset engine listed sequences to count them")


@pytest.mark.parametrize("p", (0.3, 0.6, 0.9))
def test_every_counting_path_matches_the_oracle(monkeypatch, p):
    # sparse to near-complete: dense graphs are where neighborhood unions merge
    rng = random.Random(f"oracle:{p}")
    for n in (1, 2, 3, 4, 4, 5, 5, 6, 6, 7):
        edges = random_graph(rng, n, p)
        g = Graph.from_edges(n, edges)
        d = doubling(g)
        want = sorted(brute_draconian(n, edges))
        members = set(want)
        volume = 1
        for block in components(n, edges):
            index = {v: k for k, v in enumerate(block, 1)}
            volume *= len(brute_draconian(
                len(block), [(index[u], index[v]) for u, v in edges if u in index]))
        for engine in ENGINES:
            assert enumerate_draconian(g, engine) == want, (g.descriptor(), engine)
            with monkeypatch.context() as patch:
                if engine == "subset":
                    patch.setattr(draconian, "enumerate_draconian", _no_listing)
                assert count_draconian(g, engine).count == volume, (g.descriptor(), engine)
        for c in compositions(n - 1, n):
            assert is_draconian_subset(d, c) == (c in members), (g.descriptor(), c)


def reference_join(state, v, m):
    """The plain subset kernel: join weight v and mask m to every entry of
    state, one v at a time, or None when a joined entry breaks."""
    out = dict(state)
    for u, s in state.items():
        s += v
        u |= m
        if s >= u.bit_count():
            return None
        if out.get(u, -1) < s:
            out[u] = s
    return out


def reference_walk(d):
    """A reference counting walk over twin classes: it joins each v on its
    own, filters each state on entry and closes only the last two classes.
    _count_walk, which grows each child once and closes the last three,
    must count exactly as it does."""
    n = len(d)
    classes = Counter(d)
    masks = list(classes)
    last = len(masks) - 1
    caps = [m.bit_count() - 1 for m in masks]
    tail = [sum(caps[k:]) for k in range(len(masks) + 1)]
    weights = [[comb(v + t - 1, t - 1) for v in range(cap + 1)]
               for cap, t in zip(caps, classes.values())]
    if last == 0:
        return weights[0][n - 1]
    pairs = []
    for r in range(min(tail[last - 1], n - 1) + 1):
        run, row = 0, []
        for v in range(min(caps[last - 1], r) + 1):
            if r - v <= caps[last]:
                run += weights[last - 1][v] * weights[last][r - v]
            row.append(run)
        pairs.append(row)
    memo = {}

    def walk(k, remaining, state):
        if k == last - 1:
            a, b = masks[k], masks[last]
            top_a = top_b = remaining
            for u, s in state.items():
                if s + remaining >= (u | a | b).bit_count():
                    return 0
                top_a = min(top_a, (u | a).bit_count() - s - 1)
                top_b = min(top_b, (u | b).bit_count() - s - 1)
            low = remaining - top_b
            if low > top_a:
                return 0
            row = pairs[remaining]
            return row[top_a] - row[low - 1] if low > 0 else row[top_a]
        state = {u: s for u, s in state.items() if u.bit_count() - s <= remaining}
        key = (k, remaining, frozenset(state.items()))
        if key not in memo:
            count = 0
            for v in range(max(0, remaining - tail[k + 1]), min(caps[k], remaining) + 1):
                if v == 0:
                    count += walk(k + 1, remaining, state)
                elif (grown := reference_join(state, v, masks[k])) is None:
                    break
                else:
                    count += weights[k][v] * walk(k + 1, remaining - v, grown)
            memo[key] = count
        return memo[key]

    count = walk(0, n - 1, {0: 0})
    del walk
    return count


def cycle(n):
    return Graph.from_edges(n, [(v, v % n + 1) for v in range(1, n + 1)])


def path(n):
    return Graph.from_edges(n, [(v, v + 1) for v in range(1, n)])


def seeded_doubles(seed, draws, n_max=7):
    """Doublings of seeded random graphs on 2..n_max vertices, sparse to dense."""
    rng = random.Random(seed)
    for _ in range(draws):
        n = rng.randint(2, n_max)
        yield doubling(Graph.from_edges(n, random_graph(rng, n, rng.choice((0.4, 0.7, 0.9)))))


def mutant(name, **changes):
    """A copy of draconian's function name with pieces of its source, or of
    the sources of _join and _close, the step and the closure it takes,
    changed; changes maps each piece, found once in one of the three, to
    its replacement."""
    sources = {f: inspect.getsource(getattr(draconian, f)) for f in ("_join", "_close", name)}
    for old, new in changes.values():
        holders = [f for f, source in sources.items() if old in source]
        assert len(holders) == 1 and sources[holders[0]].count(old) == 1, old
        sources[holders[0]] = sources[holders[0]].replace(old, new)
    namespace = dict(vars(draconian))
    for source in sources.values():
        exec(textwrap.dedent(source), namespace)
    return namespace[name]


def miscounts(count, seed, draws):
    """How many seeded graphs, n <= 7, count gets wrong; the walk and the
    listing must get each one right."""
    wrong = 0
    for d in seeded_doubles(seed, draws):
        want = reference_walk(d)
        assert draconian._count_walk(d) == want
        assert len(draconian._subset_listing(d)) == want
        wrong += count(d) != want
    return wrong


def test_walk_counts_as_the_reference_walk():
    graphs = list(seeded_doubles("reference", 120, n_max=9))
    graphs += [doubling(g) for g, _ in twin_blow_ups(random.Random("reference twins"), 30)]
    graphs += [doubling(complete_graph(n)) for n in range(1, 13)]
    graphs += [doubling(cycle(n)) for n in range(3, 14)]
    graphs += [doubling(delete(n, m)) for n in range(5, 31) for m in range(3, min(n, 7))
               for delete in (delete_cycle, delete_path)]
    for d in graphs:
        assert draconian._count_walk(d) == reference_walk(d), d


# The prunes and bounds below must each matter: a copy of the walk or of the
# listing with one of them dropped or loosened miscounts seeded graphs.

# a joined entry and an entry of the state each stay while their slack is at
# most the weight left after this position
PRUNE_SLACK_EQUAL = dict(grown=("t <= remaining and", "t < remaining and"),
                         kept=("if t <= rest}", "if t < rest}"))


def test_slack_prune_drops_nothing_that_can_break():
    # an entry whose slack equals the weight still to place breaks when all of
    # it joins the entry: a copy of the walk that prunes it as well miscounts
    early = mutant("_count_walk", **PRUNE_SLACK_EQUAL)
    assert draconian._count_walk(doubling(delete_path(5, 3))) == 54
    assert early(doubling(delete_path(5, 3))) == 56
    assert miscounts(early, "slack", 200) >= 30


def test_last_position_joins_what_is_left():
    # the last position takes all the weight the two before it leave, and
    # that can break an inequality: copies of the walk and of the listing
    # whose closure bounds the last position by its cap alone, with no entry
    # joined to it and no full union checked, miscount
    unjoined = dict(
        low=("if (t := s + remaining + 1 - (u | ab).bit_count()) > low:", "if False:"),
        whole=("if s + remaining >= (u | ab).bit_count():", "if False:"),
        b0=("(t := (u | b).bit_count() - s - 1) < top_b0", "(t := b.bit_count() - 1) < top_b0"),
        b1=("(t := (u | b).bit_count() - s - 1) < top_b1", "(t := b.bit_count() - 1) < top_b1"))
    assert draconian._count_walk(doubling(complete_graph(1))) == 1
    assert draconian._count_walk(doubling(complete_graph(2))) == 2
    assert miscounts(mutant("_count_walk", **unjoined), "last", 100) >= 20
    listing = mutant("_subset_listing", **unjoined)
    assert miscounts(lambda d: len(listing(d)), "last", 100) >= 37


# the rules of _close, the closure of the last three positions: the third-last
# takes v (mask M), the last two x and r - v - x (masks A and B), for each
# entry (u, s)
CLOSED_RULES = {
    # unjoined, s + r - v < |uAB|: a least v
    "least v": ("if (t := s + remaining + 1 - (u | ab).bit_count()) > low:", "if False:"),
    # joined, s + r < |uMAB|, which rules out every v >= 1
    "joined full union": ("if s + remaining >= (u | ab).bit_count():", "if False:"),
    # joined, s + v < |uM|, the join bound J; the copy bounds v by M's cap alone
    "join bound": ("(t := u.bit_count() - s) < join", "(t := m.bit_count()) < join"),
    # joined, s + v + x < |uMA|
    "joined A": ("if (t := (u | a).bit_count() - s - 1) < top_a1:", "if False:"),
    # joined, s + r - x < |uMB|
    "joined B": ("if (t := (u | b).bit_count() - s - 1) < top_b1:", "if False:"),
}


# how many of the same 200 graphs the listing must miscount without each rule
LISTING_LEAST = {"least v": 30, "joined full union": 14, "join bound": 20,
                 "joined A": 20, "joined B": 22}


@pytest.mark.parametrize("rule, least", [("least v", 25), ("joined full union", 12),
                                         ("join bound", 14), ("joined A", 17), ("joined B", 19)])
def test_each_rule_of_the_closed_classes_matters(rule, least):
    # both walks close through _close: dropping a rule miscounts each of them
    dropped = mutant("_count_walk", rule=CLOSED_RULES[rule])
    assert miscounts(dropped, f"closed {rule}", 200) >= least
    listing = mutant("_subset_listing", rule=CLOSED_RULES[rule])
    assert miscounts(lambda d: len(listing(d)), f"closed {rule}", 200) >= LISTING_LEAST[rule]


def test_closed_classes_bite_on_paths_and_cycles():
    # P_n counts 2^(n - 1) and C_n counts n 2^(n - 2)
    unbounded = mutant("_count_walk", rule=CLOSED_RULES["least v"])
    assert [draconian._count_walk(doubling(g)) for g in (path(4), cycle(5))] == [8, 40]
    assert [unbounded(doubling(g)) for g in (path(4), cycle(5))] == [9, 41]
    assert draconian._count_walk(doubling(path(5))) == 16
    assert mutant("_count_walk", rule=CLOSED_RULES["joined full union"])(doubling(path(5))) == 17


def test_the_join_bound_of_the_step_matters():
    # every position above the closed classes stops at v = J, in the walk and
    # in the listing: copies that never stop there miscount
    piece = ("(t := u.bit_count() - s) < bound", "(t := u.bit_count() - s) < 0")
    assert miscounts(mutant("_count_walk", bound=piece), "step bound", 200) >= 15
    unbounded = mutant("_subset_listing", bound=piece)
    assert miscounts(lambda d: len(unbounded(d)), "listing step bound", 100) >= 15


def test_listing_diagram_slack_filter_drops_nothing_that_can_break():
    # the diagram's memo key holds the slack-filtered state: a copy that also
    # drops the entries whose slack equals the weight still to place merges
    # states that differ in an entry that can still break, and miscounts
    early = mutant("_subset_listing", **PRUNE_SLACK_EQUAL)
    assert len(enumerate_draconian(delete_path(5, 3))) == 54
    assert len(early(doubling(delete_path(5, 3)))) == 56
    assert miscounts(lambda d: len(early(d)), "listing slack", 200) >= 30


def test_listing_diagram_closed_pair_joins_what_is_left():
    # with two positions there is nothing to close: the listing keeps the
    # compositions that pass the subset test, and the closure rules above
    # cover every larger graph
    assert enumerate_draconian(complete_graph(2)) == [(0, 1), (1, 0)]


def flow_filter(d):
    """The reference listing: the flow test on every weak composition, in order."""
    n = len(d)
    return [c for c in weak_compositions(n - 1, n) if is_draconian_flow(d, c)]


def test_subset_listing_matches_the_flow_filter_from_one_vertex_to_c12():
    # the three graphs on at most two vertices, which the listing filters
    # through the subset test, then cycles up to the twin-free C_12 and
    # seeded graphs on up to 9 vertices, which close through _close; the
    # filter tests all C(2n - 2, n - 1) weak compositions, so above 8
    # vertices the flow engine's prefix walk, pinned to the filter in the
    # next test, stands in for it
    graphs = [doubling(complete_graph(1)), doubling(complete_graph(2)),
              doubling(Graph(2, frozenset()))]
    graphs += [doubling(cycle(n)) for n in range(3, 13)]
    graphs += list(seeded_doubles("listing closure", 40, n_max=9))
    for d in graphs:
        want = flow_filter(d) if len(d) <= 8 else draconian._flow_listing(d)
        assert draconian._subset_listing(d) == want, d
    assert {len(d) for d in graphs} == set(range(1, 13))


def test_listings_match_the_per_composition_filter():
    rng = random.Random("listings")
    sizes, empty = set(), 0
    for _ in range(60):
        n = rng.randint(1, 7)
        g = Graph.from_edges(n, random_graph(rng, n, rng.choice((0.3, 0.5, 0.8))))
        want = flow_filter(doubling(g))
        for engine in ENGINES:
            assert enumerate_draconian(g, engine) == want, (g.descriptor(), engine)
        sizes.add(n)
        empty += not want
    assert sizes == set(range(1, 8)) and empty >= 5


def test_disconnected_graphs_list_nothing_without_a_walk(monkeypatch):
    # no sequence of a disconnected graph exists (enumerate_draconian's
    # docstring), which the per-composition filter confirms on every seeded
    # one; neither engine then takes a step, not even on 1500 vertices, far
    # deeper than the recursion limit
    rng = random.Random("disconnected")
    graphs = [Graph(2, frozenset()), Graph.from_edges(1500, [(1, 2)])]
    while len(graphs) < 32:
        n = rng.randint(2, 7)
        g = Graph.from_edges(n, random_graph(rng, n, rng.choice((0.2, 0.4, 0.6))))
        if len(connected_components(g)) > 1:
            assert flow_filter(doubling(g)) == [], g.descriptor()
            graphs.append(g)

    def no_step(*args):
        raise AssertionError("a listing walked a disconnected graph")

    monkeypatch.setattr(draconian, "_join", no_step)
    monkeypatch.setattr(UnitRouter, "add_unit", no_step)
    for g in graphs:
        for engine in ENGINES:
            assert enumerate_draconian(g, engine) == [], (g.descriptor(), engine)
    assert {g.n for g in graphs} >= set(range(2, 8))


def test_flow_listing_calls_nothing_of_the_subset_walk():
    # the flow engine checks the subset engine: it must not share its steps
    source = inspect.getsource(draconian._flow_listing)
    for name in ("_join", "_close", "_entry_bounds", "state", "_subset_listing", "_count_walk"):
        assert name not in source, name


def test_memoized_walks_too_deep_for_the_stack_refuse_before_a_step(monkeypatch):
    # C_60 has 60 classes and is connected: under a limit 40 frames above
    # this one, neither memoized walk fits, and neither may take a step
    cycle = Graph.from_edges(60, [(v, v % 60 + 1) for v in range(1, 61)])

    def no_step(*args):
        raise AssertionError("a walk took a step before it checked its depth")

    monkeypatch.setattr(draconian, "_join", no_step)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        with pytest.raises(RecursionError):
            draconian._count_walk(doubling(cycle))
        with pytest.raises(RecursionError):
            enumerate_draconian(cycle)
    finally:
        sys.setrecursionlimit(limit)


def blow_up(base_n, base_edges, sizes):
    """Each base vertex i becomes a class of sizes[i-1] true twins: the
    class is a clique, and two classes are joined when their vertices are
    adjacent in the base graph.  Classes take consecutive labels."""
    first = [1]
    for t in sizes:
        first.append(first[-1] + t)
    members = [range(first[i], first[i + 1]) for i in range(base_n)]
    edges = {(u, v) for vs in members for u in vs for v in vs if u < v}
    edges |= {(u, v) for a, b in base_edges for u in members[a - 1] for v in members[b - 1]}
    return Graph.from_edges(first[-1] - 1, sorted(edges)), members


def twin_blow_ups(rng, draws):
    """Seeded blow-ups of random 3-5 vertex graphs into classes of 1-3 twins, n <= 8."""
    for _ in range(draws):
        base_n = rng.randint(3, 5)
        base_edges = random_graph(rng, base_n, rng.choice((0.3, 0.6, 0.9)))
        sizes = [rng.randint(1, 3) for _ in range(base_n)]
        limit = rng.randint(base_n + 1, 8)
        while sum(sizes) > limit:
            sizes[rng.randrange(base_n)] = 1
        yield blow_up(base_n, base_edges, sizes)


def test_twin_classes_count_like_the_oracle_and_the_flow_engine():
    rng = random.Random("twins")
    merged = 0
    for g, _ in twin_blow_ups(rng, 30):
        d = doubling(g)
        want = len(brute_draconian(g.n, g.sorted_edges()))
        assert draconian._count_walk(d) == want, g.descriptor()
        assert len(enumerate_draconian(g, "flow")) == want, g.descriptor()
        merged += len(set(d)) < g.n
    assert merged >= 25


def test_count_ignores_where_twins_sit_in_the_vertex_order():
    rng = random.Random("scatter")
    for g, members in twin_blow_ups(rng, 40):
        want = draconian._count_walk(doubling(g))
        # deal the classes out like cards: a class's members land far apart
        dealt = sorted((k, i) for i, vs in enumerate(members) for k in range(len(vs)))
        perm = [0] * g.n
        for label, (k, i) in enumerate(dealt, 1):
            perm[members[i][k] - 1] = label
        assert draconian._count_walk(doubling(relabel(g, perm))) == want, (g.descriptor(), perm)
        shuffled = list(range(1, g.n + 1))
        rng.shuffle(shuffled)
        assert draconian._count_walk(doubling(relabel(g, shuffled))) == want, (g.descriptor(), shuffled)


def test_complete_graphs_count_the_central_binomial():
    # K_n is one class of n twins: the walk has a single, closed position
    for n in (*range(1, 13), 200):
        assert count_draconian(complete_graph(n)).count == comb(2 * n - 2, n - 1), n


def test_trees_count_two_to_the_edges():
    rng = random.Random("trees")
    for _ in range(40):
        n = rng.randint(1, 60)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        tree = Graph.from_edges(n, [(perm[rng.randrange(v)], perm[v]) for v in range(1, n)])
        assert count_draconian(tree).count == 2 ** (n - 1), tree.descriptor()
    path = Graph.from_edges(1500, [(v, v + 1) for v in range(1, 1500)])
    assert count_draconian(path).count == 2 ** 1499


def test_cycles_count_n_times_two_to_the_n_minus_two():
    for n in range(3, 12):
        cycle = Graph.from_edges(n, [(v, v % n + 1) for v in range(1, n + 1)])
        engines = ENGINES if n <= 7 else ("subset",)
        for engine in engines:
            assert count_draconian(cycle, engine).count == n * 2 ** (n - 2), (n, engine)


def test_flow_engine_enumerates_identically():
    for g in [complete_graph(5), delete_cycle(5, 3), Graph.from_edges(4, [(1, 2), (2, 3)])]:
        assert enumerate_draconian(g, engine="flow") == enumerate_draconian(g, engine="subset")
    with pytest.raises(ValueError):
        enumerate_draconian(complete_graph(3), engine="magic")
    with pytest.raises(ValueError):
        count_draconian(complete_graph(3), engine="magic")


def probe_every_row(d, c):
    """The flow test with one trial augmentation per row, each on a copy of
    the router that holds c."""
    base = UnitRouter(d, len(d))
    for i, v in enumerate(c):
        for _ in range(v):
            if not base.add_unit(i):
                return False
    return all(copy.deepcopy(base).add_unit(i) for i in range(len(d)))


def test_flow_test_agrees_with_a_probe_per_row():
    rng = random.Random("probe")
    sizes, verdicts = set(), set()
    for _ in range(30):
        n = rng.randint(1, 7)
        g = Graph.from_edges(n, random_graph(rng, n, rng.choice((0.3, 0.5, 0.8))))
        d = doubling(g)
        sizes.add(n)
        for c in weak_compositions(n - 1, n):
            want = probe_every_row(d, c)
            assert is_draconian_flow(d, c) == want, (g.descriptor(), c)
            verdicts.add(want)
    assert sizes == set(range(1, 8)) and verdicts == {True, False}


def test_frozen_family_counts():
    # deletion families, frozen from the brute-force oracle
    assert len(enumerate_draconian(delete_path(4, 2))) == 12
    assert len(enumerate_draconian(delete_path(5, 2))) == 60
    assert len(enumerate_draconian(delete_cycle(5, 3))) == 52
    assert len(enumerate_draconian(delete_cycle(5, 4))) == 36
    assert len(enumerate_draconian(delete_cycle(5, 5))) == 40


def test_draconian_sequences_are_weak_compositions():
    for g in [complete_graph(5), delete_cycle(6, 4)]:
        for c in enumerate_draconian(g):
            assert len(c) == g.n
            assert sum(c) == g.n - 1
            assert all(x >= 0 for x in c)


def test_count_connected():
    rep = count_draconian(complete_graph(6))
    assert rep.count == 252
    assert rep.method == "subset-enumeration"
    assert rep.notes == []
    assert rep.graph.startswith("n=6;")
    assert count_draconian(complete_graph(4), engine="flow").method == "flow-enumeration"


def test_count_disconnected_product_rule():
    g = Graph.from_edges(4, [(1, 2), (3, 4)])
    rep = count_draconian(g)
    assert rep.count == 4
    assert any("disconnected" in note for note in rep.notes)
    # the raw draconian set of the union is empty: supports can absorb
    # at most 1 unit each but the total weight is 3
    assert enumerate_draconian(g) == []


def test_count_isolated_vertices_factor_one():
    g = Graph.from_edges(4, [(2, 3)])
    rep = count_draconian(g)
    assert rep.count == 2
    assert any("isolated" in note for note in rep.notes)
    assert count_draconian(Graph(2, frozenset())).count == 1


def test_count_invariant_under_relabeling():
    rng = random.Random(9)
    for g in [delete_path(5, 2), delete_cycle(5, 4), Graph.from_edges(5, [(1, 2), (2, 3), (4, 5)])]:
        want = count_draconian(g).count
        for _ in range(10):
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            assert count_draconian(relabel(g, perm)).count == want


def test_report_dict_uses_decimal_strings():
    d = count_draconian(complete_graph(3)).to_dict()
    assert d["count"] == "6"
    assert isinstance(d["elapsed_ms"], float)
    assert d["method"] == "subset-enumeration"


def test_engine_equivalence_random_sample():
    # a fast slice of the full acceptance sweep
    rng = random.Random(2)
    from pqvol.combinat import weak_compositions

    for _ in range(30):
        n = rng.randrange(1, 7)
        g = Graph.from_edges(n, random_graph(rng, n))
        d = doubling(g)
        for c in weak_compositions(n - 1, n):
            assert is_draconian_subset(d, c) == is_draconian_flow(d, c), (g.descriptor(), c)


def test_enumeration_result_is_freed_without_a_gc_pass():
    g = delete_cycle(7, 4)
    gc.collect()
    gc.disable()
    try:
        enumerate_draconian(g)
        enumerate_draconian(g, "flow")
        draconian._count_walk(doubling(g))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_weak_compositions_leave_nothing_for_the_gc():
    gc.collect()
    gc.disable()
    try:
        assert len(list(weak_compositions(8, 9))) == 12870
        assert gc.collect() == 0
    finally:
        gc.enable()
