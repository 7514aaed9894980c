"""Unit routing into capacitated columns, by augmenting paths.

This is the one flow kernel shared by the package.  Rows supply
integer amounts; each unit must land on a column permitted by the
row's bitmask, and column j accepts at most capacities[j] units.
Augmentation is Ford-Fulkerson one unit at a time, which is exact
and fast at the sizes that occur here (a few dozen columns).

Two consumers:
  * the Hall-style routability test behind the draconian flow check
    (all capacities 1), and
  * transportation feasibility between prescribed row and column sums
    (membership of a lattice point in a dilated polytope).

Once some supply is routed, open_rows finds every row that could take
one more unit with a single search of the residual graph, in place of
one trial augmentation per row.  A unit from row r can land on column j
of masks[r]; if j is full, a unit parked there by row o must move to
another column of masks[o].  So r can take a unit exactly when the residual graph,
with an arc from each row to the columns of its mask and from each
full column to the rows with a unit parked on it, has a path from r to
a column with spare capacity.  The search runs backwards from the spare
columns: a row is open when its mask meets a column known to reach
spare capacity, and a column reaches spare capacity when it holds a
unit of an open row.  It stops when a pass adds no row, after at most
one pass per row.  The current routing is maximal for its supply, so
this is the max-flow test for supply + e_r, for every r at once.
"""

from __future__ import annotations

from typing import Sequence


class UnitRouter:
    """Incremental router.  add_unit either commits an augmenting path or leaves state unchanged."""

    def __init__(self, row_masks: Sequence[int], capacities: Sequence[int]):
        self.masks = tuple(row_masks)
        self.caps = tuple(capacities)
        # units[j] lists the row of every unit currently parked on column j
        self.units: list[list[int]] = [[] for _ in self.caps]

    def add_unit(self, row: int) -> bool:
        ok, _ = self._augment(row, 0)
        return ok

    def _augment(self, row: int, seen: int) -> tuple[bool, int]:
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
            # column full: try to reroute one resident unit of each distinct row
            for other in dict.fromkeys(col):
                ok, seen = self._augment(other, seen)
                if ok:
                    col.remove(other)
                    col.append(row)
                    return True, seen
            free &= ~seen
        return False, seen

    def open_rows(self) -> int:
        """Bitmask of the rows that could take one more unit (module docstring)."""
        # residents[j]: the rows with a unit parked on column j, each bit once
        residents = [sum(1 << r for r in set(col)) for col in self.units]
        # reach: the columns with a residual path to spare capacity; grown: the latest found
        reach = grown = sum(1 << j for j, (col, cap) in enumerate(zip(self.units, self.caps))
                            if len(col) < cap)
        rows = 0
        while grown:
            fresh = sum(1 << r for r, m in enumerate(self.masks) if m & grown) & ~rows
            rows |= fresh
            grown = sum(1 << j for j, res in enumerate(residents) if res & fresh) & ~reach
            reach |= grown
        return rows


def route_units(row_masks: Sequence[int], supplies: Sequence[int],
                capacities: Sequence[int]) -> bool:
    """Can every supply unit be routed within the column capacities?"""
    router = UnitRouter(row_masks, capacities)
    for row, amount in enumerate(supplies):
        if amount < 0:
            raise ValueError(f"negative supply {amount} at row {row}")
        for _ in range(amount):
            if not router.add_unit(row):
                return False
    return True


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
