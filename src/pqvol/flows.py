"""Unit routing into unit columns, by augmenting paths.

This is the one flow kernel shared by the package.  Rows supply
integer amounts; each unit must land on a column permitted by the
row's bitmask, and each column holds one unit at most, whose row is
the column's owner.  Augmentation is Ford-Fulkerson one unit at a
time, which is exact and fast at the sizes that occur here (a few
dozen columns).

Two consumers:
  * the Hall-style routability test behind the draconian flow check,
    whose columns are the right vertices of D(G), and
  * transportation feasibility between prescribed row and column sums
    (membership of a lattice point in a dilated polytope).  For it
    alone, route_units lays column j out as capacities[j] unit columns.

Once some supply is routed, open_rows finds every row that could take
one more unit with a single search of the residual graph, in place of
one trial augmentation per row.  A unit from row r can land on column j
of masks[r]; if row o owns j, o's unit must move to another column of
masks[o].  So r can take a unit exactly when the residual graph, with
an arc from each row to the columns of its mask and from each owned
column to its owner, has a path from r to a free column.  The search
runs backwards from the free columns: a row is open when its mask
meets a column known to reach a free one, and a column reaches a free
one when its owner is open.  Each row turns open once, so each pass
meets only new columns, and it stops when a pass adds no row.  The
current routing is maximal for its supply, so this is the max-flow
test for supply + e_r, for every r at once.  It reads each column's
rows from column_rows, built once per router and shared by its copies.

A unit takes a free column of its row's mask when there is one, and
only otherwise moves an owner's unit; either way it commits an
augmenting path, so the routing stays maximal and route's verdict is
unchanged.  add_unit is deterministic: the owners after a unit depend
only on the owners before it and on its row.  So a walk over supplies
that share a prefix can route the prefix once and give each extension
a copy (UnitRouter.copy): the copy holds exactly the owners that
route() would hold after the same units, and the first unit of an
extension that fails is the one at which route() would fail.
"""

from __future__ import annotations

from typing import Sequence


class UnitRouter:
    """Incremental router.  add_unit either commits an augmenting path or leaves state unchanged."""

    def __init__(self, row_masks: Sequence[int], columns: int):
        self.masks = tuple(row_masks)
        # column_rows[j]: the rows whose masks allow column j, read by open_rows
        self.column_rows = tuple(sum(1 << r for r, m in enumerate(self.masks) if m >> j & 1)
                                 for j in range(columns))
        # owner[j]: the row whose unit sits on column j, or -1 while j is free
        self.owner = [-1] * columns
        self.free = (1 << columns) - 1  # the columns with no owner
        self.seen = 0  # the columns the current search has visited

    def copy(self) -> "UnitRouter":
        """A router with the same units routed, sharing the masks and column_rows."""
        twin = UnitRouter.__new__(UnitRouter)
        twin.masks, twin.column_rows = self.masks, self.column_rows
        twin.owner = self.owner.copy()
        twin.free = self.free
        twin.seen = 0
        return twin

    def add_unit(self, row: int) -> bool:
        self.seen = 0
        return self._augment(row)

    def route(self, supplies: Sequence[int]) -> bool:
        """Add supplies[r] units from each row r in turn; False at the first that fails."""
        for row, amount in enumerate(supplies):
            for _ in range(amount):
                if not self.add_unit(row):
                    return False
        return True

    def _augment(self, row: int) -> bool:
        reach = self.masks[row] & ~self.seen
        # take a free column when the row has one, before moving any owner's unit
        if free := reach & self.free:
            bit = free & -free
            self.free ^= bit
            self.owner[bit.bit_length() - 1] = row
            return True
        while reach:
            bit = reach & -reach
            self.seen |= bit
            j = bit.bit_length() - 1
            # every column in reach is owned: move its owner's unit elsewhere
            if self._augment(self.owner[j]):
                self.owner[j] = row
                return True
            reach &= ~self.seen
        return False

    def open_rows(self) -> int:
        """Bitmask of the rows that could take one more unit (module docstring)."""
        # held[r]: the columns row r owns
        held = [0] * len(self.masks)
        for j, o in enumerate(self.owner):
            if o >= 0:
                held[o] |= 1 << j
        rows = 0
        # grown: the columns most recently found to reach a free column
        grown = self.free
        while grown:
            fresh = 0
            while grown:
                bit = grown & -grown
                fresh |= self.column_rows[bit.bit_length() - 1]
                grown ^= bit
            fresh &= ~rows
            rows |= fresh
            while fresh:
                bit = fresh & -fresh
                grown |= held[bit.bit_length() - 1]
                fresh ^= bit
        return rows


def route_units(row_masks: Sequence[int], supplies: Sequence[int],
                capacities: Sequence[int]) -> bool:
    """Can every supply unit be routed within the column capacities?"""
    for row, amount in enumerate(supplies):
        if amount < 0:
            raise ValueError(f"negative supply {amount} at row {row}")
    # spread[j]: the capacities[j] unit columns that stand for column j, each
    # allowed to every row whose mask allows j
    spread, columns = [], 0
    for cap in capacities:
        spread.append(((1 << cap) - 1) << columns)
        columns += cap
    masks = [sum(s for j, s in enumerate(spread) if m >> j & 1) for m in row_masks]
    return UnitRouter(masks, columns).route(supplies)


def transportation_feasible(row_masks: Sequence[int], row_sums: Sequence[int],
                            col_sums: Sequence[int]) -> bool:
    """Is there a nonnegative integer matrix with the given margins,
    supported on the cells allowed by row_masks?

    Equivalent to routing all row supply into columns capped at
    col_sums: when the totals agree, saturating the supply forces
    every column to land exactly on its prescribed sum.
    """
    if any(x < 0 for x in row_sums) or any(x < 0 for x in col_sums):
        return False
    if sum(row_sums) != sum(col_sums):
        return False
    return route_units(row_masks, row_sums, col_sums)
