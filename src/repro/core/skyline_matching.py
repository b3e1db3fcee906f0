"""SB: Skyline-Based stable assignment — the paper's algorithm.

The core observation: with monotone preference functions, the top-1 object
of *every* function lies in the skyline of the remaining objects. SB
therefore (Algorithm 1 of the paper):

1. computes the skyline of ``O`` once with BBS, recording every pruned
   R-tree entry in the pruned list of exactly one skyline member;
2. finds the best function for each skyline object (a reverse top-1
   query, Section IV-A) — by default for every stale object of the round
   at once, in one exact numpy pass over the alive functions; the
   paper's threshold algorithm over per-coefficient sorted lists (tight
   or naive threshold) remains as an ablation;
3. emits *all* mutual-best pairs at once (Section IV-C): each object's
   best function whose own best skyline object points back at it — at
   least one pair (the global maximum) is always emitted;
4. removes the assigned objects from the skyline and refreshes it by
   re-examining only their pruned lists (Section IV-B) — the R-tree is
   never re-traversed from the root;
5. repeats until functions (or objects) run out.

Implementation notes:

* ``o.fbest`` results are cached across rounds and recomputed only when
  the cached function was assigned (removals can never promote a
  different function to the top); ``cache_best=False`` disables this for
  the ablation benchmark.
* ``f.obest`` is computed for every candidate function of the round in
  one canonical score matrix over (candidates x skyline), columns in
  object-id order; the canonical arithmetic keeps SB's comparisons
  bitwise-consistent with the other matchers, and the first maximum is
  the lowest-id tie winner.
* Every vectorized pass is blocked to about
  :data:`~repro.prefs.functions.BLOCK_BYTES`, so one matching's
  transient memory stays flat however large the skyline grows.
* ``maintenance="retraversal"`` swaps step 4 for the re-traversal
  baseline (ablation of the plist design).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..errors import MatchingError
from ..prefs import FunctionIndex, ReverseHit
from ..prefs.functions import canonical_argmax
from ..skyline import (
    SkylineState,
    compute_skyline,
    recompute_with_pruning,
    update_after_removal,
)
from ..storage.stats import SearchStats
from .base import Matcher
from .problem import MatchingProblem
from .result import MatchPair

class SkylineMatcher(Matcher):
    """The paper's SB algorithm.

    Parameters
    ----------
    problem:
        The matching problem to solve (SB never mutates its R-tree).
    multi_pair:
        Emit every mutual-best pair per round (Section IV-C, default) or
        only the single global best pair (ablation).
    maintenance:
        ``"plist"`` (Section IV-B, default) or ``"retraversal"``.
    threshold:
        ``"none"`` (default): answer each round's reverse top-1 queries
        in one exact pass over every alive function; ``"tight"``
        (Section IV-A) or ``"naive"``: one threshold-algorithm scan per
        query (ablations).
    cache_best:
        Reuse ``o.fbest`` across rounds while it stays valid (default) or
        recompute it every round (ablation).
    """

    name = "skyline"
    supports_repair = True

    def __init__(self, problem: MatchingProblem,
                 multi_pair: bool = True,
                 maintenance: str = "plist",
                 threshold: str = "none",
                 cache_best: bool = True,
                 search_stats: Optional[SearchStats] = None,
                 on_round=None) -> None:
        super().__init__(problem, search_stats)
        #: Optional callback invoked with a RoundTrace after every loop.
        self.on_round = on_round
        if maintenance not in ("plist", "retraversal"):
            raise MatchingError(
                f"maintenance must be 'plist' or 'retraversal', "
                f"got {maintenance!r}"
            )
        self.multi_pair = multi_pair
        self.maintenance = maintenance
        self.threshold = threshold
        self.cache_best = cache_best
        #: Rounds executed (== skyline maintenance calls + 1).
        self.rounds = 0
        #: Reverse top-1 queries issued.
        self.reverse_top1_queries = 0

    def pairs(self) -> Iterator[MatchPair]:
        tree = self.problem.tree
        index = FunctionIndex(self.problem.functions, threshold=self.threshold)
        state: Optional[SkylineState] = None
        excluded: Set[int] = set()
        pending_orphans: List = []
        # o.fbest cache: object id -> (function id, score).
        fbest: Dict[int, ReverseHit] = {}
        rank = 0

        while len(index) > 0:
            if state is None:
                state = compute_skyline(tree, stats=self.search_stats)
            elif self.maintenance == "plist":
                update_after_removal(
                    tree, state, pending_orphans, stats=self.search_stats
                )
                pending_orphans = []
            else:
                recompute_with_pruning(
                    tree, state, excluded, stats=self.search_stats
                )
            if len(state) == 0:
                break  # objects exhausted; remaining functions unmatched

            if not self.cache_best:
                fbest.clear()
            stale = [
                (object_id, point) for object_id, point in state.items()
                if object_id not in fbest or fbest[object_id][0] not in index
            ]
            points = [point for _object_id, point in stale]
            if self.threshold == "none":
                hits = index.reverse_top1_batch(points, self.search_stats)
            else:
                hits = [index.reverse_top1(point, self.search_stats)
                        for point in points]
            self.reverse_top1_queries += len(stale)
            for (object_id, _point), hit in zip(stale, hits):
                fbest[object_id] = hit

            skyline_size = len(state)
            emitted = self._mutual_pairs(index, state, fbest)
            if not self.multi_pair:
                emitted = emitted[:1]
            if not emitted:
                raise MatchingError(
                    "SB round produced no stable pair; Property 1 violated"
                )
            for score, fid, object_id in emitted:
                yield MatchPair(
                    fid, object_id, score, round=self.rounds, rank=rank
                )
                rank += 1
                index.remove(fid)
                pending_orphans.extend(state.remove(object_id))
                excluded.add(object_id)
                fbest.pop(object_id, None)
            if self.on_round is not None:
                from .trace import RoundTrace

                self.on_round(RoundTrace(
                    round=self.rounds,
                    skyline_size=skyline_size,
                    pairs=tuple(
                        (fid, object_id, score)
                        for score, fid, object_id in emitted
                    ),
                    functions_remaining=len(index),
                    reverse_top1_queries=self.reverse_top1_queries,
                ))
            self.rounds += 1

    # ------------------------------------------------------------------
    # One round's mutual-best pairs
    # ------------------------------------------------------------------
    def _mutual_pairs(self, index: FunctionIndex, state: SkylineState,
                      fbest: Dict[int, ReverseHit],
                      ) -> List[Tuple[float, int, int]]:
        """All (score, fid, oid) with o.fbest = f and f.obest = o, sorted
        by the canonical (score desc, fid asc, oid asc) order.

        ``f.obest`` (ties: lowest object id) comes from one canonical
        score matrix over (candidate functions x skyline, id order).
        """
        sky_ids = np.array(state.ids(), dtype=np.int64)
        order = np.argsort(sky_ids, kind="stable")
        sky_ids = sky_ids[order]
        candidate_fids = sorted({fbest[object_id][0]
                                 for object_id in sky_ids.tolist()})
        weights = np.array([index.function(fid).weights
                            for fid in candidate_fids])
        best, top = canonical_argmax(weights, state.matrix()[order])
        if self.search_stats is not None:
            self.search_stats.score_evaluations += len(weights) * len(sky_ids)
        emitted = [
            (score, fid, obest)
            for fid, obest, score in zip(
                candidate_fids, sky_ids[best].tolist(), top.tolist()
            )
            if fbest[obest][0] == fid
        ]
        emitted.sort(key=lambda item: (-item[0], item[1], item[2]))
        return emitted
