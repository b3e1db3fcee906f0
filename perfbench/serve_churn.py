"""Workload ``serve-churn``: object writes beside reads, in process.

A ``MatchingService`` serves an independent catalog of 5,000 objects in
4 dimensions, with a dynamic session opened through
``service.open_session`` on 64 functions. Each cycle makes one object
write (an insert or a delete from ``generate_events`` with
``OBJECT_CHURN``) and then one ``submit_many`` of a fixed hot set of
4 workloads of 16 functions. Every write invalidates the result cache,
so every read restages and rescores: this is the one workload where
staging and the session's repair run on the hot path. No network code
runs.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

import repro
from repro.dynamic.workload import OBJECT_CHURN

from common import (Outcome, canonical_pairs, covered_seconds,
                    engine_metrics, median, peak_rss_mb, percentile)
from spans import DYNAMIC_POINTS, ENGINE_POINTS, Tracer

OBJECTS = 5000
DIMS = 4
SESSION_FUNCTIONS = 64
HOT_WORKLOADS = 4
WORKLOAD_FUNCTIONS = 16
#: Service set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Cycles between answer checks against ``repro.match``.
CHECK_EVERY = 16
MIN_CYCLES = 20


class Inputs:
    """The run's catalog, session functions, hot reads and event stream."""

    def __init__(self, seed: int) -> None:
        seeds = np.random.SeedSequence([seed]).generate_state(4)
        self.objects = repro.generate_independent(OBJECTS, DIMS,
                                                  seed=int(seeds[0]))
        self.functions = repro.generate_preferences(
            SESSION_FUNCTIONS, DIMS, seed=int(seeds[1]))
        self.hot = [
            repro.generate_preferences(WORKLOAD_FUNCTIONS, DIMS,
                                       seed=int(seeds[2]) + i)
            for i in range(HOT_WORKLOADS)
        ]
        self._event_seed = int(seeds[3])
        self.events: List = []

    def event(self, index: int):
        """Event ``index`` of the stream (a longer stream of the same
        seed starts with the same events)."""
        if index >= len(self.events):
            self.events = repro.generate_events(
                self.objects, self.functions, max(256, 2 * (index + 1)),
                mix=OBJECT_CHURN, seed=self._event_seed,
            )
        return self.events[index]


def open_service(inputs: Inputs):
    service = repro.MatchingService(inputs.objects, algorithm="sb",
                                    backend="memory")
    session = service.open_session(inputs.functions)
    return service, session


def run_pass(inputs: Inputs, seconds: float, count: Optional[int] = None,
             tracer: Optional[Tracer] = None) -> dict:
    """Cycles until ``seconds`` of cycle time (and ``MIN_CYCLES``) or
    exactly ``count`` cycles, on a freshly opened service."""
    setups = []
    for left in reversed(range(SETUPS if count is None else 1)):
        start = time.perf_counter()
        service, session = open_service(inputs)
        setups.append(time.perf_counter() - start)
        if left:
            service.close()
    service.submit_many(inputs.hot)     # fill the cache before timing
    if tracer is not None:
        tracer.reset()
    stats_before = service.snapshot().to_dict()
    session_before = session.stats
    writes, reads, windows, samples = [], [], [], []
    busy = 0.0
    while (len(reads) < count) if count is not None else (
        busy < seconds or len(reads) < MIN_CYCLES
    ):
        event = inputs.event(len(reads))
        start = time.monotonic()
        session.submit(event)
        written = time.monotonic()
        results = service.submit_many(inputs.hot)
        end = time.monotonic()
        writes.append(written - start)
        reads.append(end - written)
        windows.append((start, end))
        busy += end - start
        if len(reads) % CHECK_EVERY == 1:
            samples.append((len(reads), results))
    rss = peak_rss_mb()
    stats = service.snapshot().to_dict()
    session_stats = session.stats
    final = session.matching()
    service.close()
    return {
        "setups": setups, "writes": writes, "reads": reads,
        "windows": windows, "samples": samples, "rss": rss,
        "final": final,
        "stats": (stats_before, stats),
        "session": {key: session_stats[key] - session_before.get(key, 0)
                    for key in session_stats},
    }


def check(inputs: Inputs, measured: dict) -> int:
    """Wrong answers among the sampled reads and the session's final
    matching, each against ``repro.match`` on the surviving objects."""
    wrong = 0
    for events, results in measured["samples"]:
        surviving, _ = repro.apply_events(inputs.objects, inputs.functions,
                                          inputs.events[:events])
        for workload, result in zip(inputs.hot, results):
            reference = repro.match(surviving, workload, backend="memory")
            wrong += canonical_pairs(result) != canonical_pairs(reference)
    surviving, functions = repro.apply_events(
        inputs.objects, inputs.functions, inputs.events[:len(measured["reads"])])
    reference = repro.match(surviving, functions, backend="memory")
    if canonical_pairs(measured["final"]) != canonical_pairs(reference):
        wrong += 1
    return wrong


def attempted(measured: dict) -> int:
    """Writes, reads (one per workload) and checked session matchings."""
    return len(measured["writes"]) * (1 + HOT_WORKLOADS) + 1


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    inputs = Inputs(seed)
    measured = run_pass(inputs, seconds)
    reads, writes = measured["reads"], measured["writes"]
    cycles = [end - start for start, end in measured["windows"]]
    notes = {
        "cycles": str(len(reads)),
        "write_p50_ms": f"{median(writes) * 1e3:.6g} ms",
        "write_p90_ms": f"{percentile(writes, 90) * 1e3:.6g} ms",
    }
    wrong = check(inputs, measured)
    total = attempted(measured)
    if not traced:
        metrics = {
            "setup_s": (median(measured["setups"]), "s"),
            "latency_p50_ms": (median(reads) * 1e3, "ms"),
            "latency_p90_ms": (percentile(reads, 90) * 1e3, "ms"),
            "throughput_ops": (len(cycles) / sum(cycles), "1/s"),
            "peak_rss_mb": (measured["rss"], "MB"),
        }
        return Outcome(total, wrong, wrong, metrics, notes)

    tracer = Tracer()
    tracer.install_matcher()
    tracer.install(ENGINE_POINTS)
    tracer.install(DYNAMIC_POINTS)
    try:
        traced = run_pass(inputs, seconds, count=len(reads), tracer=tracer)
    finally:
        tracer.uninstall()
    export = tracer.export()
    traced_cycles = [end - start for start, end in traced["windows"]]
    ops = len(traced_cycles)
    extra = {
        **engine_metrics(*traced["stats"]),
        "dynamic.chains": traced["session"]["chains"] / ops,
        "dynamic.chain_steps": traced["session"]["chain_steps"] / ops,
        "dynamic.full_rematches": traced["session"]["full_rematches"] / ops,
        "trace.overhead_frac": sum(traced_cycles) / sum(cycles) - 1.0,
        "trace.coverage_frac": covered_seconds(
            export["outer"], traced["windows"]) / sum(traced_cycles),
    }
    wrong += check(inputs, traced)
    return Outcome(total + attempted(traced), wrong, wrong, extra, notes,
                   (export, ops))
