"""Function index for reverse top-1 queries: exact batches and TA.

Section IV-A of the paper: to find, for a skyline object ``o``, the best
*function* (a "reverse top-1" query, roles of objects and functions
swapped), the function set ``F`` is organized as ``D`` lists — list ``i``
holds ``(alpha_i, f)`` for every function, sorted descending by the i-th
coefficient. Fagin's threshold algorithm (TA) walks the lists round-robin,
fully scoring each newly seen function, until the best score found beats a
threshold bounding every unseen function.

The paper's twist is the **tight threshold**: the naive TA threshold
``T = sum_i l_i * o_i`` (``l_i`` = last coefficient seen in list ``i``)
ignores that weights must sum to 1, and ``sum_i l_i`` is usually > 1. The
tight threshold distributes a unit budget over the dimensions in
decreasing order of ``o``'s values, capping each share at ``l_i``:
``T_tight = sum_i beta_i * o_i`` with ``beta_i <= l_i`` and
``sum beta_i = 1``. Both variants are implemented; the ablation benchmark
measures the gap.

The third threshold, ``"none"``, is TA with no stopping test: every alive
function is scored. That is what SB runs by default, because it can be
done for a whole round of queries at once —
:meth:`FunctionIndex.reverse_top1_batch` scores every stale skyline object
against every alive function in one bitwise-canonical numpy pass
(:func:`~repro.prefs.functions.canonical_argmax`), which is an order of
magnitude faster than one Python-level TA scan per object, and returns
the same hits. The tight and naive TA scans remain as the paper-faithful
ablation (``SB-tight-threshold`` and ``SB-naive-threshold`` in the bench).

Functions are removed as the matcher assigns them; removal uses tombstones
(an alive mask over the weight rows) with periodic compaction, so one
removal per matching round stays cheap.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DimensionalityError, PreferenceError
from ..storage.stats import SearchStats
from .functions import (
    WEIGHT_SUM_TOLERANCE,
    LinearPreference,
    canonical_argmax,
    canonical_score,
)

#: Result of a reverse top-1 query: (function id, score).
ReverseHit = Tuple[int, float]

#: Compact the sorted lists and weight rows when dead entries exceed
#: this fraction.
_COMPACT_FRACTION = 0.5

#: Accepted ``threshold`` modes.
THRESHOLDS = ("none", "tight", "naive")

#: Safety margin added to the TA stop test. The threshold is admissible in
#: exact arithmetic, but a computed score can exceed the computed bound by
#: a few ulps (e.g. two 0.9-coordinates summing to 0.9000000000000001
#: against a bound that rounds to 0.8999999999999999). Requiring
#: ``best > bound + margin`` keeps the scan going through such ties, so
#: the returned winner — and its lowest-id tie-break — is exact.
TA_STOP_MARGIN = 1e-12


class FunctionIndex:
    """The reverse top-1 index over a set of preference functions.

    Parameters
    ----------
    functions:
        The initial function set (all must share one dimensionality; ids
        must be unique).
    threshold:
        ``"tight"`` (the paper's bound, default), ``"naive"``, or
        ``"none"`` (no stopping test: score every alive function; no
        sorted lists are built).
    """

    def __init__(self, functions: Sequence[LinearPreference],
                 threshold: str = "tight") -> None:
        if threshold not in THRESHOLDS:
            raise PreferenceError(
                f"threshold must be one of {THRESHOLDS}, got {threshold!r}"
            )
        self.threshold = threshold
        self._functions: Dict[int, LinearPreference] = {}
        for function in functions:
            if function.fid in self._functions:
                raise PreferenceError(f"duplicate function id {function.fid}")
            self._functions[function.fid] = function
        if self._functions:
            dims = next(iter(self._functions.values())).dims
            for function in self._functions.values():
                if function.dims != dims:
                    raise DimensionalityError(dims, function.dims, "weights")
            self.dims = dims
        else:
            self.dims = 0
        self._alive: Dict[int, LinearPreference] = dict(self._functions)
        self._dead = 0
        # Weight rows in ascending fid order, for the batched scan.
        ordered = sorted(self._functions)
        self._fids = np.array(ordered, dtype=np.int64)
        self._weights = np.array(
            [self._functions[fid].weights for fid in ordered],
            dtype=np.float64,
        ).reshape(len(ordered), self.dims)
        self._alive_rows = np.ones(len(ordered), dtype=bool)
        self._lists: List[List[Tuple[float, int]]] = [] if (
            threshold == "none"
        ) else [
            sorted(
                ((f.weights[d], f.fid) for f in self._functions.values()),
                key=lambda pair: (-pair[0], pair[1]),
            )
            for d in range(self.dims)
        ]

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._alive)

    def __contains__(self, fid: int) -> bool:
        return fid in self._alive

    def function(self, fid: int) -> LinearPreference:
        """Look up an alive function by id."""
        try:
            return self._alive[fid]
        except KeyError:
            raise PreferenceError(f"function {fid} is not in the index") from None

    def alive_functions(self) -> Iterator[LinearPreference]:
        """Iterate the remaining (unassigned) functions."""
        return iter(self._alive.values())

    def alive_ids(self) -> List[int]:
        return list(self._alive)

    def remove(self, fid: int) -> None:
        """Remove an assigned function (tombstone + lazy compaction)."""
        if fid not in self._alive:
            raise PreferenceError(f"function {fid} is not in the index")
        del self._alive[fid]
        self._alive_rows[np.searchsorted(self._fids, fid)] = False
        self._dead += 1
        if (
            self._dead >= 32
            and self._dead > _COMPACT_FRACTION * len(self._functions)
        ):
            self._compact()

    def _compact(self) -> None:
        self._functions = dict(self._alive)
        self._dead = 0
        self._fids = self._fids[self._alive_rows]
        self._weights = self._weights[self._alive_rows]
        self._alive_rows = np.ones(len(self._fids), dtype=bool)
        self._lists = [
            [pair for pair in lst if pair[1] in self._alive]
            for lst in self._lists
        ]

    # ------------------------------------------------------------------
    # Reverse top-1
    # ------------------------------------------------------------------
    def reverse_top1_batch(self, points: Sequence[Sequence[float]],
                           stats: Optional[SearchStats] = None,
                           ) -> List[Optional[ReverseHit]]:
        """``[reverse_top1(p) for p in points]``, in one exact numpy pass.

        Every point is scored against every alive function (columns in
        ascending fid order, so the first maximum is the lowest-id tie
        winner) with the canonical arithmetic, whatever the index's
        ``threshold``; hits and scores are bit-identical to the TA scan.
        Counts one score evaluation per (alive function, point).
        """
        matrix = np.asarray(points, dtype=np.float64)
        if not self._alive or not len(matrix):
            return [None] * len(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != self.dims:
            raise DimensionalityError(self.dims, matrix.shape[-1], "point")
        fids = self._fids[self._alive_rows]
        best, top = canonical_argmax(matrix, self._weights[self._alive_rows])
        if stats is not None:
            stats.score_evaluations += len(fids) * len(matrix)
        return list(zip(fids[best].tolist(), top.tolist()))

    def reverse_top1(self, point: Sequence[float],
                     stats: Optional[SearchStats] = None) -> Optional[ReverseHit]:
        """The best alive function for ``point`` (ties: lowest id).

        Returns ``None`` when the index is empty. The TA scan stops as
        soon as the best complete score strictly exceeds the threshold
        (strictness preserves the lowest-id tie-break), when every alive
        function has been seen, or when the lists are exhausted. With
        ``threshold="none"`` there is no stopping test, and every alive
        function is scored by :meth:`reverse_top1_batch`.
        """
        alive = self._alive
        if not alive:
            return None
        if len(point) != self.dims:
            raise DimensionalityError(self.dims, len(point), "point")
        if self.threshold == "none":
            return self.reverse_top1_batch([point], stats)[0]

        lists = self._lists
        dims = self.dims
        positions = [0] * dims
        last_seen: List[Optional[float]] = [None] * dims
        seen = set()
        best_fid = -1
        best_score = float("-inf")
        # Dimensions in decreasing point-value order, for the tight bound.
        order = sorted(range(dims), key=lambda d: -point[d])

        while True:
            progressed = False
            for d in range(dims):
                lst = lists[d]
                pos = positions[d]
                while pos < len(lst) and lst[pos][1] not in alive:
                    pos += 1
                if pos >= len(lst):
                    positions[d] = pos
                    continue
                coefficient, fid = lst[pos]
                positions[d] = pos + 1
                last_seen[d] = coefficient
                progressed = True
                if fid not in seen:
                    seen.add(fid)
                    score = canonical_score(alive[fid].weights, point)
                    if stats is not None:
                        stats.score_evaluations += 1
                    if score > best_score or (
                        score == best_score and fid < best_fid
                    ):
                        best_score = score
                        best_fid = fid
            if not progressed:
                break
            if len(seen) >= len(alive):
                break
            if None not in last_seen:
                bound = self._bound(point, last_seen, order)
                if stats is not None:
                    stats.comparisons += 1
                if best_score > bound + TA_STOP_MARGIN:
                    break
        if best_fid < 0:
            return None
        return best_fid, best_score

    def _bound(self, point: Sequence[float], last_seen: List[float],
               order: List[int]) -> float:
        if self.threshold == "naive":
            total = 0.0
            for l, x in zip(last_seen, point):
                total += l * x
            return total
        return tight_threshold(point, last_seen, order)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FunctionIndex(alive={len(self._alive)}, dims={self.dims}, "
            f"threshold={self.threshold!r})"
        )


def tight_threshold(point: Sequence[float], last_seen: Sequence[float],
                    order: Optional[Sequence[int]] = None) -> float:
    """The paper's ``T_tight``: best score of any *unseen normalized*
    function given per-list coefficient caps ``last_seen``.

    A unit budget is spent greedily on the dimensions in decreasing order
    of ``point``'s values, each share capped by ``l_i``. If the caps sum
    to less than 1 (no exactly-normalized unseen function can exist), the
    leftover budget is bounded by placing it on the most valuable
    dimension — a slight overestimate that keeps the bound admissible for
    functions normalized within :data:`WEIGHT_SUM_TOLERANCE`.
    """
    if order is None:
        order = sorted(range(len(point)), key=lambda d: -point[d])
    budget = 1.0
    bound = 0.0
    for d in order:
        share = last_seen[d] if last_seen[d] < budget else budget
        bound += share * point[d]
        budget -= share
        if budget <= 0.0:
            return bound
    # Caps sum below 1: infeasible for exactly normalized functions. Pad
    # with the leftover budget on the best dimension so the bound stays
    # valid even for weights normalized within WEIGHT_SUM_TOLERANCE.
    return bound + budget * point[order[0]]
