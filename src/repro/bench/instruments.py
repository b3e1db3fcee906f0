"""Measurement instruments for benchmark runs.

A :class:`RunMeasurement` captures everything the paper reports for one
algorithm execution: I/O accesses (buffer-missed page reads + writes),
CPU time, plus auxiliary counters (pairs, rounds, top-1 / reverse-top-1
query counts, TA score evaluations) that explain *why* the costs differ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..core import Matcher, Matching


@dataclass
class RunMeasurement:
    """One (algorithm, workload) execution's costs and outputs."""

    algorithm: str
    io_accesses: int
    page_reads: int
    page_writes: int
    buffer_hits: int
    cpu_seconds: float
    pairs: int
    rounds: int
    top1_searches: int = 0
    reverse_top1_queries: int = 0
    score_evaluations: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        result = {
            "algorithm": self.algorithm,
            "io_accesses": self.io_accesses,
            "page_reads": self.page_reads,
            "page_writes": self.page_writes,
            "buffer_hits": self.buffer_hits,
            "cpu_seconds": self.cpu_seconds,
            "pairs": self.pairs,
            "rounds": self.rounds,
            "top1_searches": self.top1_searches,
            "reverse_top1_queries": self.reverse_top1_queries,
            "score_evaluations": self.score_evaluations,
        }
        result.update(self.extra)
        return result


def measure_run(matcher: Matcher) -> Tuple[RunMeasurement, Matching]:
    """Run ``matcher`` to completion on a cold cache, measuring costs.

    The problem's I/O counters are reset (and the buffer emptied) before
    the run, so the measurement covers exactly one matching execution —
    the same protocol as the paper, whose numbers exclude index building.
    Returns the measurement plus the produced matching, which the matrix
    asserts pair-identical to the canonical matcher. Score evaluations
    are counted only when the matcher was built with ``search_stats``.
    """
    problem = matcher.problem
    problem.reset_io()
    start = time.perf_counter()
    matching = matcher.run()
    cpu_seconds = time.perf_counter() - start
    stats = problem.io_stats
    search = getattr(matcher, "search_stats", None)
    measurement = RunMeasurement(
        algorithm=matcher.name,
        io_accesses=stats.io_accesses,
        page_reads=stats.page_reads,
        page_writes=stats.page_writes,
        buffer_hits=stats.buffer_hits,
        cpu_seconds=cpu_seconds,
        pairs=len(matching),
        rounds=matching.num_rounds,
        top1_searches=getattr(matcher, "top1_searches", 0),
        reverse_top1_queries=getattr(matcher, "reverse_top1_queries", 0),
        score_evaluations=0 if search is None else search.score_evaluations,
    )
    return measurement, matching
