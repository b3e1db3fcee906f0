"""The repository benchmark: ``python3 perfbench/run.py --workload <name>``.

Runs one workload against the program in this checkout's ``src/``,
checks every answer, and prints each metric as ``name = value unit``
followed, on the last line, by one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload twice, untraced and then with spans
around the program's layers, and prints the per-layer metrics. The exit
code is 0 when every answer was right; failed operations are counted in
the result line.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Tuple

from common import BenchSetupError, emit, use_program_sources

WORKLOADS = ("match-anti", "serve-wire", "serve-churn")

#: Per-layer metrics of a traced run: name -> (unit, source). A source
#: ``(kind, span)`` reads the tracer's inclusive seconds (``s``), self
#: seconds (``self``), calls (``calls``) or counter (``count``) and
#: divides by the workload's timed operations; ``None`` marks values the
#: workload measures itself.
PER_LAYER = {
    "prefs.reverse_top1_s": ("s", ("s", "prefs.reverse_top1")),
    "prefs.reverse_top1_calls": ("count", ("calls", "prefs.reverse_top1")),
    "prefs.score_evals_per_query": ("count", None),
    "skyline.bbs_s": ("s", ("s", "skyline.bbs")),
    "skyline.maintain_s": ("s", ("s", "skyline.maintain")),
    "skyline.maintain_calls": ("count", ("calls", "skyline.maintain")),
    "core.sb_self_s": ("s", ("self", "core.sb")),
    "core.rounds": ("count", ("count", "core.rounds")),
    "storage.page_reads": ("count", None),
    "storage.buffer_hits": ("count", None),
    "engine.stage_s": ("s", ("s", "engine.stage")),
    "engine.stage_calls": ("count", ("calls", "engine.stage")),
    "engine.vectorized_s": ("s", ("s", "engine.vectorized")),
    "engine.run_miss_s": ("s", ("s", "engine.run_miss")),
    "engine.cache_hit_frac": ("ratio", None),
    "engine.duplicate_frac": ("ratio", None),
    "engine.vectorized_frac": ("ratio", None),
    "engine.batch_size_mean": ("count", None),
    "engine.rejected": ("count", None),
    "engine.submit_many_s": ("s", ("s", "engine.submit_many")),
    "net.codec_s": ("s", ("s", "net.codec")),
    "net.frame_bytes_per_req": ("B", None),
    "dynamic.event_s": ("s", ("s", "dynamic.event")),
    "dynamic.chains": ("count", None),
    "dynamic.chain_steps": ("count", None),
    "dynamic.full_rematches": ("count", None),
    "bench.generator_lag_ms_p99": ("ms", None),
    "trace.overhead_frac": ("ratio", None),
    "trace.coverage_frac": ("ratio", None),
}
_EXPORT_KEYS = {"s": "seconds", "self": "self_seconds", "calls": "calls",
                "count": "counts"}


def layer_metrics(export: dict, ops: int,
                  extra: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, per timed operation of the workload.

    Layers a workload never enters read 0 (that is the prediction for
    them); workload-measured values come from ``extra``.
    """
    metrics: Dict[str, Tuple[float, str]] = {}
    for name, (unit, source) in PER_LAYER.items():
        if source is None:
            value = float(extra.get(name, 0.0))
        else:
            kind, span = source
            value = export[_EXPORT_KEYS[kind]].get(span, 0) / ops
        metrics[name] = (value, unit)
    queries = export["calls"].get("prefs.reverse_top1", 0)
    if queries:
        metrics["prefs.score_evals_per_query"] = (
            export["counts"]["prefs.score_evals"] / queries, "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_program_sources()
    except BenchSetupError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.workload == "match-anti":
        import match_anti as workload
    elif args.workload == "serve-wire":
        import serve_wire as workload
    else:
        import serve_churn as workload
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    metrics = outcome.metrics
    if outcome.trace is not None:
        export, ops = outcome.trace
        metrics = layer_metrics(export, ops, metrics)
    notes = dict(outcome.notes)
    notes["failed_frac"] = f"{outcome.failed / outcome.attempted:.6g}"
    notes["wrong_answers"] = str(outcome.wrong)
    emit(outcome.wrong == 0, outcome.attempted, outcome.failed, metrics, notes)
    return 0 if outcome.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
