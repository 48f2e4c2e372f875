"""Free-capacity index: O(log n) best-fit lookups over the node pool.

The base :class:`~repro.cluster.scheduler.Scheduler` scans every node
per placement — fine for the paper's six-VM cluster, quadratic pain for
a thousand-pod fleet. This index keeps ``(free_millicores, node_name)``
pairs in a sorted array maintained with :mod:`bisect`, so the best-fit
query ("the fullest node that still fits") is a binary search plus a
short forward walk over genuinely-fitting candidates.

Honest complexity note: lookups are O(log n); updates are O(log n) to
*find* the slot plus an O(n) ``list`` memmove to shift entries (the
container lacks a balanced-tree package and new dependencies are off
the table). The memmove constant is tiny — contiguous pointer copies —
so this comfortably carries thousands of nodes.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from ..errors import CapacityError

__all__ = ["FreeCapacityIndex"]


class FreeCapacityIndex:
    """Sorted index of node free-CPU, keyed for best-fit placement.

    Entries are ``(free_millicores, node_name)`` tuples; the name
    tiebreak makes iteration order — and therefore placement under
    equal free capacity — deterministic.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[int, str]] = []
        self._free_by_name: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._free_by_name

    def add(self, name: str, free_millicores: int) -> None:
        """Register a node; duplicate names are a hard error."""
        if name in self._free_by_name:
            raise CapacityError(f"node {name!r} already indexed")
        self._free_by_name[name] = free_millicores
        insort(self._entries, (free_millicores, name))

    def remove(self, name: str) -> None:
        """Drop a node from the index."""
        free = self._free_by_name.pop(name, None)
        if free is None:
            raise CapacityError(f"node {name!r} not indexed")
        position = bisect_left(self._entries, (free, name))
        del self._entries[position]

    def update(self, name: str, free_millicores: int) -> None:
        """Move a node to its new free-capacity slot."""
        self.remove(name)
        self._free_by_name[name] = free_millicores
        insort(self._entries, (free_millicores, name))

    def free_of(self, name: str) -> int:
        """Indexed free CPU of one node."""
        try:
            return self._free_by_name[name]
        except KeyError:
            raise CapacityError(f"node {name!r} not indexed") from None

    def free_by_name(self) -> dict[str, int]:
        """Indexed free CPU of every node, keyed by name (a copy)."""
        return dict(self._free_by_name)

    def best_fit_candidates(self, required_millicores: int) -> list[str]:
        """Node names with ``free >= required``, fullest (least free) first.

        The first candidate is the classic best-fit answer; callers that
        also check memory or cordons walk forward until one passes.
        """
        start = bisect_left(self._entries, (required_millicores, ""))
        return [name for _, name in self._entries[start:]]

    def total_free_millicores(self) -> int:
        """Aggregate indexed free CPU."""
        return sum(free for free, _ in self._entries)

    def emptiest(self) -> str | None:
        """Name of the node with the most free CPU (scale-in candidate)."""
        if not self._entries:
            return None
        return self._entries[-1][1]

    def snapshot(self) -> list[tuple[str, int]]:
        """``(name, free_millicores)`` pairs in index order, for tests."""
        return [(name, free) for free, name in self._entries]
