"""Replay benchmark: the scenario harness as a serving-stack gate.

One matrix cell per scenario (``diurnal``, ``flash-crowd``,
``adversarial``): the trace is generated at the grid's trace scale,
replayed against the full serving stack with per-burst ground-truth
verification on, and then rewound to the midpoint boundary to time and
verify exact state restoration. Three numbers carry the acceptance bar
(the ``replay`` matrix config and ``benchmarks/bench_replay.py``):

* ``stale_hits == 0`` — no scenario ever served a cached result that a
  cold recompute at the same clock would contradict;
* ``freshness_mismatches == 0`` — every served result matched the
  structural oracle;
* ``rewind_verified`` — rewinding to the midpoint restored matching
  pairs and cache keys bit-identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..replay import ReplayDriver, scenario_trace


@dataclass
class ReplayPoint:
    """One scenario's replay outcome plus the rewind check."""

    scenario: str
    transport: str
    backend: str
    requests: int
    churn_events: int
    freshness_checks: int
    freshness_mismatches: int
    stale_hits: int
    replay_seconds: float
    rewind_seconds: float
    rewind_verified: bool

    @property
    def ok(self) -> bool:
        return (self.stale_hits == 0 and self.freshness_mismatches == 0
                and self.rewind_verified)


def _driver_state(driver: ReplayDriver):
    pairs = tuple(
        (pair.function_id, pair.object_id, pair.score)
        for pair in driver.matching().pairs
    )
    return pairs, driver.cache_keys()


def run_replay_point(scenario: str, scale: float, seed: int = 42,
                     backend: str = "memory",
                     transport: str = "local",
                     ):
    """Replay one scenario with verification on, then rewind-check it.

    Returns ``(ReplayPoint, ScenarioReport)`` — the summary row and the
    full per-phase report behind it.

    The rewind check targets the first phase boundary: after the full
    replay, ``rewind`` must restore the matching pairs and cache keys
    captured when the clock first passed that boundary. The check runs
    only on the ``local`` transport — micro-batch timing on the async
    and socket paths makes cache contents run-dependent there.
    """
    trace = scenario_trace(scenario, seed=seed, scale=scale)
    spans = trace.phase_spans()
    first_end = next(iter(spans.values()))[1]
    with ReplayDriver(trace, backend=backend, transport=transport,
                      verify=True) as driver:
        start = time.perf_counter()
        driver.advance(first_end)
        midpoint = _driver_state(driver) if transport == "local" else None
        report = driver.run()
        replay_seconds = time.perf_counter() - start

        rewind_verified = True
        rewind_seconds = 0.0
        if midpoint is not None:
            start = time.perf_counter()
            driver.rewind(first_end)
            rewind_seconds = time.perf_counter() - start
            rewind_verified = _driver_state(driver) == midpoint
    point = ReplayPoint(
        scenario=scenario,
        transport=transport,
        backend=backend,
        requests=report.requests,
        churn_events=report.churn_events,
        freshness_checks=report.freshness_checks,
        freshness_mismatches=report.freshness_mismatches,
        stale_hits=report.stale_hits,
        replay_seconds=replay_seconds,
        rewind_seconds=rewind_seconds,
        rewind_verified=rewind_verified,
    )
    return point, report
