"""The flow kernel against brute-force oracles.

route_units and transportation_feasible sit under both the draconian
flow engine and the geometric membership test, so they get their own
exhaustive comparisons here.
"""

import itertools
import random

from oracle import brute_transportation

from pqvol.flows import UnitRouter, route_units, transportation_feasible


def masks_from_allowed(allowed, rows, cols):
    out = [0] * rows
    for r, c in allowed:
        out[r] |= 1 << c
    return out


def test_simple_routing():
    # two rows both restricted to column 0 cannot both land there
    assert route_units([0b01, 0b01], [1, 0], [1, 1])
    assert not route_units([0b01, 0b01], [1, 1], [1, 1])
    # rerouting: row 0 must vacate column 0 for row 1
    assert route_units([0b11, 0b01], [1, 1], [1, 1])


def test_route_respects_capacities():
    assert route_units([0b1], [3], [3])
    assert not route_units([0b1], [4], [3])


def test_transportation_requires_equal_totals():
    assert not transportation_feasible([0b11, 0b11], [2, 0], [1, 0])
    assert transportation_feasible([0b11, 0b11], [1, 1], [1, 1])


def test_transportation_edgeless_pair():
    # only diagonal cells allowed: margins must agree coordinatewise
    masks = [0b01, 0b10]
    assert transportation_feasible(masks, [1, 0], [1, 0])
    assert not transportation_feasible(masks, [1, 0], [0, 1])


def test_transportation_matches_brute_force_exhaustively():
    # every allowed-cell pattern on a 3x3 grid, several margin pairs
    cells = list(itertools.product(range(3), range(3)))
    margins = [
        ((1, 1, 1), (1, 1, 1)),
        ((2, 0, 1), (1, 1, 1)),
        ((2, 1, 0), (0, 3, 0)),
        ((1, 2, 0), (2, 0, 1)),
    ]
    rng = random.Random(20260819)
    patterns = [frozenset(c for c in cells if rng.random() < 0.5) for _ in range(120)]
    for allowed in patterns:
        masks = masks_from_allowed(allowed, 3, 3)
        for a, b in margins:
            want = brute_transportation(allowed, a, b)
            got = transportation_feasible(masks, list(a), list(b))
            assert got == want, (sorted(allowed), a, b)


def test_transportation_random_margins():
    rng = random.Random(77)
    cells = list(itertools.product(range(4), range(4)))
    for _ in range(120):
        allowed = frozenset(c for c in cells if rng.random() < 0.45)
        total = rng.randrange(0, 5)
        a = [0, 0, 0, 0]
        b = [0, 0, 0, 0]
        for _ in range(total):
            a[rng.randrange(4)] += 1
            b[rng.randrange(4)] += 1
        masks = masks_from_allowed(allowed, 4, 4)
        assert transportation_feasible(masks, a, b) == brute_transportation(allowed, a, b)


def test_open_rows_are_the_rows_one_more_unit_routes_from():
    rng = random.Random("residual")
    routed = opened = closed = 0
    for _ in range(500):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        masks = [rng.randrange(1 << cols) for _ in range(rows)]
        caps = [rng.randint(0, 3) for _ in range(cols)]
        supply = [rng.randint(0, 2) for _ in range(rows)]
        router = UnitRouter(masks, caps)
        if not all(router.add_unit(r) for r in range(rows) for _ in range(supply[r])):
            continue
        routed += 1
        got = router.open_rows()
        for r in range(rows):
            more = supply[:r] + [supply[r] + 1] + supply[r + 1:]
            want = route_units(masks, more, caps)
            assert bool(got >> r & 1) == want, (masks, caps, supply, r)
            opened += want
            closed += not want
        assert got >> rows == 0
    assert routed >= 100 and opened >= 100 and closed >= 100
