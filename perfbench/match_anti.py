"""Workload ``match-anti``: one-shot SB matchings on the simulated disk.

Each operation is a full ``repro.match`` (staging included) of a fresh
anti-correlated problem, 5,000 objects x 300 functions in 4 dimensions,
on the paper's default backend. Anti-correlated data gives large
skylines, so the time goes to the matcher layers (reverse top-1, skyline
maintenance, SB's own loop, storage); no cache, batch scorer, network or
session code runs.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.engine.batch import linear_batch_results

from common import (Outcome, canonical_pairs, covered_seconds, median,
                    peak_rss_mb, percentile)
from spans import ENGINE_POINTS, Tracer

OBJECTS = 5000
FUNCTIONS = 300
DIMS = 4
#: At least this many matchings per run, however short ``--seconds`` is.
MIN_MATCHES = 5


def problem(seed: int, index: int):
    """Problem ``index`` of the run seeded ``seed`` (same inputs every time)."""
    data_seed, pref_seed = np.random.SeedSequence([seed, index]).generate_state(2)
    objects = repro.generate_anticorrelated(OBJECTS, DIMS, seed=int(data_seed))
    prefs = repro.generate_preferences(FUNCTIONS, DIMS, seed=int(pref_seed))
    return objects, prefs


def run_pass(seed: int, seconds: float, count: Optional[int] = None):
    """Match problems 0, 1, 2, ... until ``seconds`` of matching time
    (and ``MIN_MATCHES``) or exactly ``count`` matchings.

    The set-up of the first pass (``count`` unset) stages each problem
    once on its own, untimed by the matching, to measure staging.
    """
    records: List[dict] = []
    busy = 0.0
    while (len(records) < count) if count is not None else (
        busy < seconds or len(records) < MIN_MATCHES
    ):
        objects, prefs = problem(seed, len(records))
        setup = None
        if count is None:
            start = time.perf_counter()
            repro.plan(algorithm="sb", backend="disk").prepare(objects).close()
            setup = time.perf_counter() - start
        start = time.monotonic()
        result = repro.match(objects, prefs, algorithm="sb", backend="disk")
        end = time.monotonic()
        busy += end - start
        records.append({"objects": objects, "prefs": prefs, "result": result,
                        "setup": setup, "window": (start, end)})
    return records


def check(records: List[dict]) -> int:
    """Wrong answers: pairs against the canonical greedy matching, and
    stability of the matching itself."""
    wrong = 0
    for record in records:
        objects, prefs, result = record["objects"], record["prefs"], record["result"]
        reference = linear_batch_results(objects, [prefs])[0]
        if canonical_pairs(result) != canonical_pairs(reference) or not (
            repro.verify_stable_matching(result.to_matching(), objects, prefs)
        ):
            wrong += 1
    return wrong


def durations(records: List[dict]) -> List[float]:
    return [end - start for start, end in (r["window"] for r in records)]


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    records = run_pass(seed, seconds)
    rss = peak_rss_mb()
    times = durations(records)
    metrics: Dict[str, Tuple[float, str]] = {}
    notes = {"matchings": str(len(records))}
    if not traced:
        metrics = {
            "setup_s": (median([r["setup"] for r in records]), "s"),
            "latency_p50_ms": (median(times) * 1e3, "ms"),
            "latency_p90_ms": (percentile(times, 90) * 1e3, "ms"),
            "throughput_ops": (len(times) / sum(times), "1/s"),
            "peak_rss_mb": (rss, "MB"),
        }
        wrong = check(records)
        return Outcome(len(records), wrong, wrong, metrics, notes)

    tracer = Tracer()
    tracer.install_matcher()
    tracer.install(ENGINE_POINTS)
    try:
        traced_records = run_pass(seed, seconds, count=len(records))
    finally:
        tracer.uninstall()
    traced_times = durations(traced_records)
    export = tracer.export()
    ops = len(traced_records)
    io = [r["result"].io for r in traced_records]
    extra = {
        "storage.page_reads": sum(s.page_reads for s in io) / ops,
        "storage.buffer_hits": sum(s.buffer_hits for s in io) / ops,
        "trace.overhead_frac": sum(traced_times) / sum(times) - 1.0,
        "trace.coverage_frac": covered_seconds(
            export["outer"], [r["window"] for r in traced_records]
        ) / sum(traced_times),
    }
    notes["match_s_traced_mean"] = f"{sum(traced_times) / ops:.6g} s"
    wrong = check(records) + check(traced_records)
    return Outcome(len(records) + ops, wrong, wrong, extra, notes,
                   (export, ops))
