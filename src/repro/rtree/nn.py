"""Best-first nearest-neighbor search over the R-tree.

Chain's ancestor (Wong et al.'s spatial matching) is built on
incremental NN queries; the paper replaces them with ranked top-1
search. This module provides the classic best-first (Hjaltason &
Samet) k-NN for completeness and for spatial uses of the same tree:
a min-heap ordered by MINDIST of each entry's box to the query point
yields neighbors in exact non-decreasing distance order.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator, Optional, Sequence, Set, Tuple

from ..errors import DimensionalityError
from ..geometry import MBR
from ..storage.stats import SearchStats
from .tree import RTree

#: One NN result: (object id, point, distance).
Neighbor = Tuple[int, Tuple[float, ...], float]


def mindist(box: MBR, query: Sequence[float]) -> float:
    """Euclidean MINDIST from ``query`` to ``box`` (0 if inside)."""
    if len(query) != box.dims:
        raise DimensionalityError(box.dims, len(query), "query point")
    # hypot scales before squaring: summing d * d underflows tiny gaps
    # (4.9e-225 squares to 0.0), so distinct distances would tie.
    return math.hypot(*(
        lo - q if q < lo else q - hi if q > hi else 0.0
        for q, lo, hi in zip(query, box.low, box.high)
    ))


class NearestNeighborSearch:
    """Incremental exact NN iterator (non-decreasing distance order).

    Ties pop branches before points and equal-distance points in
    increasing object id, mirroring the ranked-search discipline.
    """

    def __init__(self, tree: RTree, query: Sequence[float],
                 excluded: Optional[Set[int]] = None,
                 stats: Optional[SearchStats] = None) -> None:
        if len(query) != tree.dims:
            raise DimensionalityError(tree.dims, len(query), "query point")
        self.tree = tree
        self.query = tuple(float(v) for v in query)
        self.excluded = excluded if excluded is not None else set()
        self.stats = stats
        self._heap: list = []
        root = tree.read_root()
        for entry in root.entries:
            self._push(entry, root.level)

    def _push(self, entry, node_level: int) -> None:
        distance = mindist(entry.mbr, self.query)
        if node_level == 0:
            item = (distance, 1, entry.child, 0, entry.mbr.low)
        else:
            item = (distance, 0, entry.child, node_level, None)
        heapq.heappush(self._heap, item)
        if self.stats is not None:
            self.stats.heap_pushes += 1

    def next(self) -> Optional[Neighbor]:
        while self._heap:
            distance, is_point, child, _level, point = heapq.heappop(self._heap)
            if self.stats is not None:
                self.stats.heap_pops += 1
            if is_point:
                if child in self.excluded:
                    continue
                return child, point, distance
            node = self.tree.read_node(child)
            for entry in node.entries:
                self._push(entry, node.level)
        return None

    def __iter__(self) -> Iterator[Neighbor]:
        while True:
            neighbor = self.next()
            if neighbor is None:
                return
            yield neighbor


def nearest(tree: RTree, query: Sequence[float],
            excluded: Optional[Set[int]] = None,
            stats: Optional[SearchStats] = None) -> Optional[Neighbor]:
    """The single nearest object to ``query`` (or ``None`` if empty)."""
    return NearestNeighborSearch(tree, query, excluded=excluded,
                                 stats=stats).next()


def k_nearest(tree: RTree, query: Sequence[float], k: int,
              excluded: Optional[Set[int]] = None,
              stats: Optional[SearchStats] = None) -> list:
    """The ``k`` nearest objects in non-decreasing distance order."""
    search = NearestNeighborSearch(tree, query, excluded=excluded, stats=stats)
    results = []
    for neighbor in search:
        results.append(neighbor)
        if len(results) == k:
            break
    return results
