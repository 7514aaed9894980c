"""Closed forms for the normalized volumes of the built-in families.

All formulas are evaluated in exact integer arithmetic.  They are
claims to be verified against enumeration, not definitions: the
`verify` layer compares each one with the draconian count and reports
where they disagree.  Each closed form is defined on its family's
domain, and refuses the rest through the family's check in graphs, the
one its builder calls, so a closed form and its builder refuse the same
specs with the same message.

Two of the expressions need a caveat.

The path-deletion expression is stated as

    C(2(n-1), n-1) - (2n-4)(m-1) + 4

which reads literally as subtracting (2n-4)(m-1) and then adding 4,
but enumeration shows the intended quantity is obtained by grouping
the tail as a single subtrahend, C - ((2n-4)(m-1) + 4).  Both
readings are computed side by side so the comparison layer can report
which one matches.

The cycle-deletion expression subtracts 2m(n-2) except at m = 4,
where it subtracts 2(n+1)(n-2).  The m = 4 branch disagrees with
enumeration (it subtracts 2(n-4) too much); the verify layer flags
this rather than silently correcting it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .graphs import (check_complete, check_cycle_deletion, check_matching_triangles,
                     check_path_deletion)


def nvol_complete(n: int) -> int:
    """Central binomial count C(2(n-1), n-1) for the complete graph on n vertices."""
    check_complete(n)
    return math.comb(2 * (n - 1), n - 1)


def nvol_matching_triangles(n: int, m: int) -> int:
    """3^m * C(2(n-1), n-1): complete graph with triangles on a size-m matching."""
    check_matching_triangles(n, m)
    return 3**m * nvol_complete(n)


class PathDeletionReadings(NamedTuple):
    """Both parenthesizations of the path-deletion closed form."""

    as_printed: int
    grouped: int


def nvol_path_deleted(n: int, m: int) -> PathDeletionReadings:
    """Closed form for K_n minus an m-edge path, in both readings.

    Neither reading is meaningful at m in {0, 1}: the expression's
    correction term does not degenerate to 0 there.  Values are still
    returned so the comparison layer can document the failure.
    """
    check_path_deletion(n, m)
    c = nvol_complete(n)
    tail = (2 * n - 4) * (m - 1)
    return PathDeletionReadings(as_printed=c - tail + 4, grouped=c - (tail + 4))


def nvol_cycle_deleted(n: int, m: int) -> int:
    """Closed form for K_n minus an m-cycle, exactly as stated.

    m = 0 deletes nothing.  The m = 4 branch is reproduced verbatim
    even though it disagrees with enumeration.
    """
    check_cycle_deletion(n, m)
    c = nvol_complete(n)
    if m == 4:
        return c - 2 * (n + 1) * (n - 2)
    return c - 2 * m * (n - 2)
