"""Skyline state: members, pruned lists, and a vectorized dominance index.

:class:`SkylineState` is the mutable structure shared by BBS computation,
incremental maintenance, and the SB matcher:

* the current skyline members (id -> point),
* one **pruned list** (``plist``) per member holding every R-tree entry or
  object that was pruned *because of* that member (each pruned entry is
  owned by exactly one member, per Section IV-B of the paper),
* a numpy-backed dominance index so "is this point/box dominated, and by
  whom" is one vectorized comparison instead of a Python loop over a
  possibly large (anti-correlated) skyline — and, through
  :meth:`SkylineState.first_dominators`, one pass for a whole batch of
  probes.

The index stores one contiguous row per dimension and builds dominance
masks dimension by dimension (``mask &= column >= value``): on the short
dimension axis this beats a numpy ``.all(axis=...)`` reduction, which
profiling showed to be the dominant cost of a probe.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DimensionalityError, ReproError
from ..prefs.functions import BLOCK_BYTES
from ..rtree.entry import Entry

#: A pruned R-tree entry together with the level of the node it came from
#: (0 means the entry is an object; >0 means ``entry.child`` is a node id
#: at ``level - 1``).
PrunedItem = Tuple[Entry, int]


class SkylineState:
    """Current skyline of the remaining objects, with pruned lists."""

    def __init__(self, dims: int) -> None:
        if dims < 1:
            raise DimensionalityError(1, dims, "dims")
        self.dims = dims
        self._points: Dict[int, Tuple[float, ...]] = {}
        self._plists: Dict[int, List[PrunedItem]] = {}
        # Vectorized index: one column per member in insertion order
        # (one contiguous row per dimension), with tombstones.
        self._columns = np.empty((dims, 64), dtype=np.float64)
        self._row_ids = np.empty(64, dtype=np.int64)
        self._active = np.zeros(64, dtype=bool)
        self._size = 0  # rows used (including tombstones)
        self._row_of: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._points

    def point(self, object_id: int) -> Tuple[float, ...]:
        return self._points[object_id]

    def ids(self) -> List[int]:
        """Member ids in insertion order."""
        return list(self._points)

    def items(self) -> Iterator[Tuple[int, Tuple[float, ...]]]:
        """(id, point) pairs in insertion order."""
        return iter(self._points.items())

    def plist(self, object_id: int) -> List[PrunedItem]:
        """The pruned list owned by a member (read-only use)."""
        return self._plists[object_id]

    def plist_sizes(self) -> Dict[int, int]:
        return {object_id: len(plist) for object_id, plist in self._plists.items()}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, object_id: int, point: Sequence[float]) -> None:
        """Admit a new skyline member with an empty pruned list."""
        if object_id in self._points:
            raise ReproError(f"object {object_id} is already in the skyline")
        if len(point) != self.dims:
            raise DimensionalityError(self.dims, len(point), "point")
        point = tuple(float(v) for v in point)
        self._points[object_id] = point
        self._plists[object_id] = []
        self._index_add(object_id, point)

    def park(self, owner_id: int, item: PrunedItem) -> None:
        """Attach a pruned entry to the member that dominates it."""
        self._plists[owner_id].append(item)

    def remove(self, object_id: int) -> List[PrunedItem]:
        """Remove a member; returns its pruned list (now orphaned)."""
        try:
            self._points.pop(object_id)
        except KeyError:
            raise ReproError(
                f"object {object_id} is not in the skyline"
            ) from None
        plist = self._plists.pop(object_id)
        self._index_remove(object_id)
        return plist

    # ------------------------------------------------------------------
    # Dominance queries (vectorized)
    # ------------------------------------------------------------------
    def _mask(self, point: Sequence[float], dominating: bool) -> np.ndarray:
        """Active rows weakly dominating (or dominated by) ``point``."""
        if len(point) != self.dims:
            raise DimensionalityError(self.dims, len(point), "point")
        size = self._size
        mask = self._active[:size].copy()
        for column, value in zip(self._columns[:, :size], point):
            if dominating:
                mask &= column >= value
            else:
                mask &= column <= value
        return mask

    def first_dominator(self, point: Sequence[float]) -> Optional[int]:
        """The earliest-admitted member weakly dominating ``point``.

        For a point argument this decides skyline membership; for the
        *high corner of a box* it decides whether the whole box can be
        pruned (a point dominating the best corner dominates everything
        inside).
        """
        if self._size == 0:
            return None
        mask = self._mask(point, dominating=True)
        index = int(mask.argmax())
        if not mask[index]:
            return None
        return int(self._row_ids[index])

    def first_dominators(self, points: Sequence[Sequence[float]]) -> np.ndarray:
        """``first_dominator`` of every probe at once (``-1``: none).

        Returns an int64 array of member ids aligned with ``points``.
        Probes are processed in blocks of about
        :data:`~repro.prefs.functions.BLOCK_BYTES` of mask, so a batch
        against a large skyline stays flat in memory. Parking entries
        never changes membership, so callers may probe a whole batch
        first and then park or push each entry with the same outcome as
        probing one entry at a time.
        """
        probes = np.asarray(points, dtype=np.float64)
        owners = np.full(len(probes), -1, dtype=np.int64)
        live = np.flatnonzero(self._active[: self._size])
        if not len(probes) or not len(live):
            return owners
        if probes.ndim != 2 or probes.shape[1] != self.dims:
            raise DimensionalityError(self.dims, probes.shape[-1], "point")
        columns = self._columns[:, live]
        ids = self._row_ids[live]
        step = max(1, BLOCK_BYTES // len(live))
        for start in range(0, len(probes), step):
            block = probes[start:start + step].T
            mask = columns[0] >= block[0, :, None]
            for column, values in zip(columns[1:], block[1:]):
                mask &= column >= values[:, None]
            first = mask.argmax(axis=1)
            found = mask[np.arange(len(first)), first]
            owners[start:start + step][found] = ids[first[found]]
        return owners

    def dominated_members(self, point: Sequence[float]) -> List[int]:
        """Members weakly dominated by ``point`` (insertion order).

        Used by BBS as a float-safety net: a strict dominator's L1 heap
        key can round to the same value as its victim's, letting the
        victim pop (and be admitted) first. The dominator, once admitted,
        demotes such members into its own pruned list.
        """
        if self._size == 0:
            return []
        mask = self._mask(point, dominating=False)
        return self._row_ids[: self._size][mask].tolist()

    def dominators(self, point: Sequence[float]) -> List[int]:
        """All members weakly dominating ``point`` (insertion order)."""
        if self._size == 0:
            return []
        mask = self._mask(point, dominating=True)
        return self._row_ids[: self._size][mask].tolist()

    def matrix(self) -> np.ndarray:
        """Dense ``(len(self), dims)`` array of member points (insertion order)."""
        columns = self._columns[:, : self._size][:, self._active[: self._size]]
        return columns.T.copy()

    # ------------------------------------------------------------------
    # Index internals
    # ------------------------------------------------------------------
    def _index_add(self, object_id: int, point: Tuple[float, ...]) -> None:
        if self._size == self._columns.shape[1]:
            self._compact_or_grow()
        row = self._size
        self._columns[:, row] = point
        self._row_ids[row] = object_id
        self._active[row] = True
        self._row_of[object_id] = row
        self._size += 1

    def _index_remove(self, object_id: int) -> None:
        row = self._row_of.pop(object_id)
        self._active[row] = False

    def _compact_or_grow(self) -> None:
        active_rows = int(self._active[: self._size].sum())
        if active_rows <= self._size // 2:
            # Over half the rows are tombstones: compact in place.
            keep = self._active[: self._size]
            kept_columns = self._columns[:, : self._size][:, keep]
            kept_ids = self._row_ids[: self._size][keep]
            self._columns[:, : len(kept_ids)] = kept_columns
            self._row_ids[: len(kept_ids)] = kept_ids
            self._active[: len(kept_ids)] = True
            self._active[len(kept_ids):] = False
            self._size = len(kept_ids)
            self._row_of = {
                int(object_id): row for row, object_id in enumerate(kept_ids)
            }
            return
        capacity = self._columns.shape[1] * 2
        columns = np.empty((self.dims, capacity), dtype=np.float64)
        row_ids = np.empty(capacity, dtype=np.int64)
        active = np.zeros(capacity, dtype=bool)
        columns[:, : self._size] = self._columns[:, : self._size]
        row_ids[: self._size] = self._row_ids[: self._size]
        active[: self._size] = self._active[: self._size]
        self._columns = columns
        self._row_ids = row_ids
        self._active = active

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parked = sum(len(plist) for plist in self._plists.values())
        return f"SkylineState(members={len(self)}, parked={parked})"
