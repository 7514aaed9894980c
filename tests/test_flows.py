"""The flow kernel against brute-force oracles.

transportation_feasible is the geometric membership test, and
route_units, the one caller that gives a column more than one unit,
sits under it, so both get their own exhaustive comparisons here.
UnitRouter, which the draconian flow engine drives directly, is pinned
against a copy of the capacitated router it replaced.
"""

import itertools
import random

import pytest
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
        supply = [rng.randint(0, 2) for _ in range(rows)]
        router = UnitRouter(masks, cols)
        if not router.route(supply):
            continue
        routed += 1
        got = router.open_rows()
        for r in range(rows):
            more = supply[:r] + [supply[r] + 1] + supply[r + 1:]
            want = route_units(masks, more, [1] * cols)
            assert bool(got >> r & 1) == want, (masks, supply, r)
            opened += want
            closed += not want
        assert got >> rows == 0
    assert routed >= 100 and opened >= 100 and closed >= 100


class CapacitatedRouter:
    """The router UnitRouter replaced: column j holds up to capacities[j]
    units and lists the row of each, kept here as a reference."""

    def __init__(self, row_masks, capacities):
        self.masks = tuple(row_masks)
        self.caps = tuple(capacities)
        self.units = [[] for _ in self.caps]

    def add_unit(self, row):
        ok, _ = self._augment(row, 0)
        return ok

    def _augment(self, row, seen):
        free = self.masks[row] & ~seen
        while free:
            bit = free & -free
            free ^= bit
            j = bit.bit_length() - 1
            seen |= bit
            col = self.units[j]
            if len(col) < self.caps[j]:
                col.append(row)
                return True, seen
            for other in dict.fromkeys(col):
                ok, seen = self._augment(other, seen)
                if ok:
                    col.remove(other)
                    col.append(row)
                    return True, seen
            free &= ~seen
        return False, seen

    def open_rows(self):
        residents = [sum(1 << r for r in set(col)) for col in self.units]
        reach = grown = sum(1 << j for j, (col, cap) in enumerate(zip(self.units, self.caps))
                            if len(col) < cap)
        rows = 0
        while grown:
            fresh = sum(1 << r for r, m in enumerate(self.masks) if m & grown) & ~rows
            rows |= fresh
            grown = sum(1 << j for j, res in enumerate(residents) if res & fresh) & ~reach
            reach |= grown
        return rows


def capacitated_route(router, supplies):
    """The routing loop route_units ran on the capacitated router."""
    for row, amount in enumerate(supplies):
        if amount < 0:
            raise ValueError(f"negative supply {amount} at row {row}")
        for _ in range(amount):
            if not router.add_unit(row):
                return False
    return True


def test_unit_columns_match_the_capacitated_router():
    rng = random.Random("unit columns")
    verdicts, zero_caps, compared = set(), 0, 0
    for _ in range(1000):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        masks = [rng.randrange(1 << cols) for _ in range(rows)]
        caps = [rng.randint(0, 3) for _ in range(cols)]
        supply = [rng.randint(0, 3) for _ in range(rows)]
        want = capacitated_route(CapacitatedRouter(masks, caps), supply)
        assert route_units(masks, supply, caps) == want, (masks, supply, caps)
        verdicts.add(want)
        zero_caps += 0 in caps
        # open_rows on unit columns, after the same supply is routed on both
        old, new = CapacitatedRouter(masks, [1] * cols), UnitRouter(masks, cols)
        routed = new.route(supply)
        assert routed == capacitated_route(old, supply), (masks, supply)
        if routed:
            assert new.open_rows() == old.open_rows(), (masks, supply)
            compared += 1
    assert verdicts == {True, False} and zero_caps >= 100 and compared >= 100


def test_negative_supply_is_refused_before_any_routing():
    # row 0 already fails to route its second unit into the one column
    with pytest.raises(ValueError, match="negative supply -1 at row 1"):
        route_units([0b1, 0b1], [2, -1], [1])


def test_a_copy_routes_on_as_route_would():
    # the flow listing routes a shared prefix once and extends copies of it
    rng = random.Random("copies")
    extended = failed = 0
    for _ in range(500):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        masks = [rng.randrange(1 << cols) for _ in range(rows)]
        supply = [rng.randint(0, 2) for _ in range(rows)]
        cut = rng.randint(0, rows)
        prefix = UnitRouter(masks, cols)
        if not prefix.route(supply[:cut]):
            continue
        before = list(prefix.owner)
        child = prefix.copy()
        assert child.masks is prefix.masks and child.column_rows is prefix.column_rows
        ok = all(child.add_unit(row) for row, amount in enumerate(supply) if row >= cut
                 for _ in range(amount))
        whole = UnitRouter(masks, cols)
        assert ok == whole.route(supply), (masks, supply, cut)
        assert prefix.owner == before
        if ok:
            assert child.owner == whole.owner and child.open_rows() == whole.open_rows()
            extended += 1
        else:
            failed += 1
    assert extended >= 100 and failed >= 50
