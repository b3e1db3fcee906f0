"""Shared helpers: locating the program, percentiles, the result line."""

from __future__ import annotations

import json
import math
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: The checkout root (this file lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class BenchSetupError(RuntimeError):
    """The benchmark cannot run here (e.g. the program's sources are absent)."""


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``failed`` counts every failed operation (errors, error frames,
    timeouts and wrong answers); ``wrong`` the wrong answers among them.
    ``metrics`` maps name -> (value, unit). A traced run sets ``trace``
    to ``(span export, timed operations)``.
    """

    attempted: int
    failed: int
    wrong: int
    metrics: Dict[str, Tuple[float, str]]
    notes: Dict[str, str] = field(default_factory=dict)
    trace: Optional[Tuple[Dict[str, Any], int]] = None


def use_program_sources() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` (no install step).

    Fails loudly when the checkout holds no ``src/repro``: the benchmark
    must never measure some other copy of the package.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchSetupError(f"no program sources at {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical_pairs(result) -> Tuple[Tuple[int, int, float], ...]:
    """A matching as sorted ``(function, object, score)`` triples.

    Pair order (rounds, ranks) differs between execution paths; the
    stable matching and its scores do not, so this is what is compared.
    """
    return tuple(sorted(
        (pair.function_id, pair.object_id, pair.score) for pair in result.pairs
    ))


def engine_metrics(before: Dict[str, Any], after: Dict[str, Any]
                   ) -> Dict[str, float]:
    """The ``engine.*`` shares over a window, from two ``ServiceStats``
    dicts (``snapshot().to_dict()`` or the ``stats`` RPC)."""
    delta = {key: after[key] - before[key] for key in (
        "requests", "batches", "cache_hits", "duplicate_hits", "misses",
        "vectorized_requests", "rejected")}
    return {
        "engine.cache_hit_frac": delta["cache_hits"] / delta["requests"],
        "engine.duplicate_frac": delta["duplicate_hits"] / delta["requests"],
        "engine.vectorized_frac": delta["vectorized_requests"]
        / max(1, delta["misses"]),
        "engine.batch_size_mean": delta["requests"] / delta["batches"],
        "engine.rejected": delta["rejected"],
    }


def merge_intervals(intervals: Iterable[Tuple[float, float]]
                    ) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def covered_seconds(spans: Iterable[Tuple[float, float]],
                    windows: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``spans`` that falls inside the union of
    ``windows``."""
    spans = merge_intervals(spans)
    total = 0.0
    i = 0
    for w_start, w_end in merge_intervals(windows):
        while i < len(spans) and spans[i][1] <= w_start:
            i += 1
        j = i
        while j < len(spans) and spans[j][0] < w_end:
            total += min(spans[j][1], w_end) - max(spans[j][0], w_start)
            j += 1
    return total


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Tuple[float, str]],
         notes: Dict[str, str]) -> None:
    """Print the human-readable lines, then the one-line JSON result.

    ``metrics`` maps name -> (value, unit); ``notes`` are extra
    ``name = text`` lines (sample counts, failure share) that are not
    metrics of the benchmark.
    """
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, text in notes.items():
        print(f"{name} = {text}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)
