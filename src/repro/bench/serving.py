"""Serving-path benchmark: cold vs warm latency across the matrix.

The acceptance measurement of the compile → prepare → serve pipeline
(:mod:`repro.engine.plan`): for each algorithm × backend, the same
preference workloads answered three ways —

``cold``
    A fresh ``MatchingEngine.match()`` per request: config validation,
    staging (R-tree bulk load), and the matching, all paid every time.
    This is what a naive deployment of the one-shot API costs.
``warm miss``
    ``prepared.run()`` against a :class:`~repro.engine.plan.PreparedMatching`
    with a *new* workload each request: the matcher runs, but staging is
    amortized away (and, sharded, the worker pool and shard trees are
    reused).
``warm hit``
    ``prepared.run()`` with a repeated workload: answered from the keyed
    LRU result cache.

Every point re-verifies that warm answers equal the cold answers, so
the speedup table can never report a wrong matching as a win. Matchers
run tree-preserving (``deletion_mode="filter"``) — the serving
configuration; a delete-mode matcher would consume the warm tree and
re-pay staging every run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..engine import MatchingConfig, MatchingEngine, MatchingPlan
from ..errors import MatchingError


@dataclass
class ServingPoint:
    """One algorithm × backend cell of the serving matrix."""

    algorithm: str
    backend: str
    n_objects: int
    n_functions: int
    cold_seconds: float
    warm_miss_seconds: float
    warm_hit_seconds: float

    @property
    def miss_speedup(self) -> float:
        """Cold / warm-miss: what amortizing staging alone buys."""
        return self.cold_seconds / max(1e-9, self.warm_miss_seconds)

    @property
    def hit_speedup(self) -> float:
        """Cold / warm-hit: what the result cache buys on repeats."""
        return self.cold_seconds / max(1e-9, self.warm_hit_seconds)


def _serving_config(base_config: MatchingConfig,
                    backend: str) -> MatchingConfig:
    """The serving variant of a bench panel config."""
    return base_config.replace(backend=backend, deletion_mode="filter")


def run_serving_point(objects, workloads: Sequence,
                      base_config: MatchingConfig,
                      backend: str = "memory",
                      label: Optional[str] = None,
                      ) -> Tuple[ServingPoint, List]:
    """Measure one algorithm × backend cell.

    ``workloads`` is a sequence of preference-function lists; each is
    served cold (fresh engine), warm-miss (first prepared run), and
    warm-hit (repeated prepared run), keeping the fastest cold and the
    per-request mean of the warm timings. Returns the point plus the
    warm results (already verified equal to the cold ones).
    """
    if not workloads:
        raise MatchingError("run_serving_point needs at least one workload")
    config = _serving_config(base_config, backend)

    cold_best = float("inf")
    cold_results = []
    for functions in workloads:
        engine = MatchingEngine(config)  # fresh: staging is paid
        start = time.perf_counter()
        cold_results.append(engine.match(objects, functions))
        cold_best = min(cold_best, time.perf_counter() - start)

    plan = MatchingPlan(config)
    prepared = plan.prepare(objects)
    try:
        warm_results = []
        miss_seconds = 0.0
        for functions in workloads:
            start = time.perf_counter()
            warm_results.append(prepared.run(functions))
            miss_seconds += time.perf_counter() - start
        hit_seconds = 0.0
        for functions in workloads:
            start = time.perf_counter()
            prepared.run(functions)
            hit_seconds += time.perf_counter() - start
        for cold, warm in zip(cold_results, warm_results):
            if cold.as_set() != warm.as_set():
                raise MatchingError(
                    f"warm serving diverged from cold match() for "
                    f"{label or base_config.algorithm!r} on {backend!r}"
                )
    finally:
        prepared.close()

    point = ServingPoint(
        algorithm=label or base_config.algorithm,
        backend=backend,
        n_objects=len(objects),
        n_functions=len(workloads[0]),
        cold_seconds=cold_best,
        warm_miss_seconds=miss_seconds / len(workloads),
        warm_hit_seconds=hit_seconds / len(workloads),
    )
    return point, warm_results
