"""Weak compositions and finite sets of integer sequences.

A weak composition of t into n parts is an n-tuple of nonnegative
integers summing to t.  Everything here is exact integer arithmetic;
tuples are ordered lexicographically throughout the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All weak compositions of total into parts parts, in lexicographic order."""
    if parts < 1:
        raise ValueError(f"need at least one part, got {parts}")
    if total < 0:
        raise ValueError(f"total must be nonnegative, got {total}")
    # stars and bars: parts - 1 bars among total + parts - 1 slots, each part
    # the gap between neighbouring bars; bars in lex order give parts in lex order
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        c = []
        prev = -1
        for b in bars:
            c.append(b - prev - 1)
            prev = b
        c.append(slots - prev - 1)
        yield tuple(c)


@dataclass(frozen=True)
class SequenceSet:
    """A deduplicated set of length-n integer tuples, iterated in lexicographic order."""

    n: int
    members: frozenset[tuple[int, ...]]

    @classmethod
    def of(cls, n: int, seqs: Iterable[tuple[int, ...]]) -> "SequenceSet":
        pool = set()
        for s in seqs:
            t = tuple(s)
            if len(t) != n:
                raise ValueError(f"sequence {t} does not have length {n}")
            if any(x < 0 for x in t):
                raise ValueError(f"sequence {t} has a negative entry")
            pool.add(t)
        return cls(n, frozenset(pool))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(sorted(self.members))

    def __contains__(self, seq) -> bool:
        return tuple(seq) in self.members

    def _peer(self, other: "SequenceSet") -> frozenset[tuple[int, ...]]:
        """other's members, once its length is checked against ours."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return other.members

    def union(self, other: "SequenceSet") -> "SequenceSet":
        return SequenceSet(self.n, self.members | self._peer(other))

    def intersection(self, other: "SequenceSet") -> "SequenceSet":
        return SequenceSet(self.n, self.members & self._peer(other))

    def difference(self, other: "SequenceSet") -> "SequenceSet":
        return SequenceSet(self.n, self.members - self._peer(other))

    def symmetric_difference(self, other: "SequenceSet") -> "SequenceSet":
        return SequenceSet(self.n, self.members ^ self._peer(other))
