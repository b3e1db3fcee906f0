"""Batched-serving throughput benchmark: ``submit_many`` vs looped ``submit``.

The acceptance measurement of the batched request path
(:meth:`~repro.engine.service.MatchingService.submit_many`): for each
batch size × algorithm × backend cell, a stream of *distinct* preference
workloads (all cache misses — the regime where batching must earn its
keep) is answered two ways —

``looped``
    One ``service.submit()`` call per workload: the per-request tree
    path, staging amortized but every workload paying its own matcher
    run. This is what a deployment without batching achieves.
``batched``
    The same workloads in ``submit_many`` batches of the given size:
    linear misses are stacked and scored in one vectorized numpy pass
    per chunk (:mod:`repro.engine.batch`).

Every cell re-verifies that the batched answers are pair-identical to
the looped answers before any rate is reported, so the speedup table
can never report a wrong matching as a win. Matchers run
tree-preserving (``deletion_mode="filter"``), the serving configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..engine import MatchingConfig, MatchingService
from ..errors import MatchingError


@dataclass
class ThroughputPoint:
    """One batch size × algorithm × backend cell."""

    algorithm: str
    backend: str
    batch_size: int
    n_objects: int
    n_functions: int
    n_requests: int
    looped_rps: float
    batched_rps: float
    vectorized_requests: int

    @property
    def speedup(self) -> float:
        """Batched / looped requests-per-second."""
        return self.batched_rps / max(1e-9, self.looped_rps)


def _service(objects, base_config: MatchingConfig,
             backend: str) -> MatchingService:
    return MatchingService(
        objects,
        base_config.replace(backend=backend, deletion_mode="filter"),
    )


def run_throughput_point(objects, workloads: Sequence,
                         base_config: MatchingConfig,
                         batch_size: int,
                         backend: str = "memory",
                         label: Optional[str] = None) -> ThroughputPoint:
    """Measure one cell: looped submit vs submit_many at ``batch_size``.

    Both modes run against a *fresh* service (so neither inherits the
    other's cache warmth) over the same distinct workloads; the batched
    results are verified pair-identical to the looped ones.
    """
    if not workloads:
        raise MatchingError("run_throughput_point needs workloads")
    if batch_size < 1:
        raise MatchingError(f"batch_size must be >= 1, got {batch_size}")

    with _service(objects, base_config, backend) as service:
        start = time.perf_counter()
        looped = [service.submit(functions) for functions in workloads]
        looped_seconds = time.perf_counter() - start

    with _service(objects, base_config, backend) as service:
        start = time.perf_counter()
        batched = []
        for offset in range(0, len(workloads), batch_size):
            batched.extend(
                service.submit_many(workloads[offset:offset + batch_size])
            )
        batched_seconds = time.perf_counter() - start
        vectorized = int(service.snapshot().vectorized_requests)

    for one, other in zip(looped, batched):
        if one.as_set() != other.as_set():
            raise MatchingError(
                f"batched serving diverged from looped submit for "
                f"{label or base_config.algorithm!r} on {backend!r} "
                f"at batch size {batch_size}"
            )

    return ThroughputPoint(
        algorithm=label or base_config.algorithm,
        backend=backend,
        batch_size=batch_size,
        n_objects=len(objects),
        n_functions=len(workloads[0]),
        n_requests=len(workloads),
        looped_rps=len(workloads) / max(1e-9, looped_seconds),
        batched_rps=len(workloads) / max(1e-9, batched_seconds),
        vectorized_requests=vectorized,
    )
