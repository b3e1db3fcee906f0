# lint: replay-root
"""Executing one matrix cell and asserting its pair-identity.

Each grid kind maps to one runner here. All runners reuse the bench
instruments (:mod:`repro.bench.instruments` and the per-kind point
functions in :mod:`repro.bench`), so every benchmark in the repo is
measured through one declarative sweep.

Every cell's matching is compared against the *canonical* matcher (the
config's ``reference`` algorithm on the in-memory backend, cached per
workload by :class:`MatrixContext`); ``identity_ok`` lands in the cell's
metrics as 0/1 so the identity bar is part of the recorded trajectory,
not just a transient assertion.

No wall clock is read here except ``time.perf_counter`` interval
timing — the artifacts must stay byte-stable for a fixed machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple

from ...data import (
    Dataset,
    generate_anticorrelated,
    generate_correlated,
    generate_independent,
    generate_zillow,
)
from ...dynamic import (
    MIXED_CHURN,
    RecomputeSession,
    events_for_ratio,
    generate_events,
)
from ...engine import MatchingConfig, MatchingEngine
from ...errors import MatchingError
from ...prefs import LinearPreference, generate_preferences
from ...storage import SearchStats
from ..instruments import measure_run
from ..net import run_net_point
from ..replay import run_replay_point
from ..runner import BENCH_CONFIGS
from ..serving import run_serving_point
from ..throughput import run_throughput_point
from .config import CellSpec, GridSpec

PairSet = FrozenSet[Tuple[int, int]]


def _generate_dataset(generator: str, n: int, dims: int,
                      seed: int) -> Dataset:
    if generator == "independent":
        return generate_independent(n, dims, seed=seed)
    if generator == "anticorrelated":
        return generate_anticorrelated(n, dims, seed=seed)
    if generator == "correlated":
        return generate_correlated(n, dims, seed=seed)
    if generator == "zillow":
        return generate_zillow(n, seed=seed)
    raise MatchingError(f"unknown workload generator {generator!r}")


def scaled_size(target: int, scale: float, floor: int) -> int:
    """An axis/workload size at the runner's global scale factor."""
    return max(floor, int(target * scale))


@dataclass
class CellResult:
    """One executed cell: its spec, flat metrics, and identity verdict."""

    spec: CellSpec
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def identity_ok(self) -> bool:
        return bool(self.metrics.get("identity_ok", 0.0))


class MatrixContext:
    """Shared state of one matrix run: workloads and canonical answers.

    Datasets and preference workloads are cached per (generator, size,
    dims, seed) so every cell of a grid sees the identical inputs, and
    the canonical reference matching is computed once per workload and
    reused by every cell that must equal it.
    """

    def __init__(self, reference: str = "sb", scale: float = 1.0) -> None:
        self.reference = reference
        self.scale = scale
        self._datasets: Dict[Tuple[str, int, int, int], Dataset] = {}
        self._functions: Dict[Tuple[int, int, int],
                              List[LinearPreference]] = {}
        self._references: Dict[Tuple[int, int], PairSet] = {}

    # -- workloads ---------------------------------------------------
    def dataset(self, generator: str, n: int, dims: int,
                seed: int) -> Dataset:
        key = (generator, n, dims, seed)
        if key not in self._datasets:
            self._datasets[key] = _generate_dataset(generator, n, dims,
                                                    seed)
        return self._datasets[key]

    def functions(self, n: int, dims: int,
                  seed: int) -> List[LinearPreference]:
        key = (n, dims, seed)
        if key not in self._functions:
            self._functions[key] = list(
                generate_preferences(n, dims, seed=seed)
            )
        return self._functions[key]

    def grid_objects(self, grid: GridSpec, n_unscaled: int,
                     dims: int) -> Dataset:
        workload = grid.workload
        n = scaled_size(n_unscaled, self.scale, workload.min_objects)
        return self.dataset(workload.generator, n, dims, workload.seed)

    def grid_functions(self, grid: GridSpec, dims: int,
                       offset: int = 1) -> List[LinearPreference]:
        workload = grid.workload
        n = scaled_size(workload.num_functions, self.scale,
                        workload.min_functions)
        return self.functions(n, dims, workload.seed + offset)

    # -- canonical answers -------------------------------------------
    def reference_pairs(self, objects: Dataset,
                        functions: Sequence[LinearPreference]) -> PairSet:
        """The canonical matching of one workload, as a pair set."""
        key = (id(objects), id(functions))
        if key not in self._references:
            engine = MatchingEngine(MatchingConfig(
                algorithm=self.reference, backend="memory",
            ))
            result = engine.match(objects, list(functions))
            self._references[key] = frozenset(result.as_set())
        return self._references[key]


# ----------------------------------------------------------------------
# Per-kind runners
# ----------------------------------------------------------------------

def _run_match_cell(spec: CellSpec, ctx: MatrixContext) -> CellResult:
    axes = spec.axes
    dims = int(axes["dims"])
    objects = ctx.grid_objects(spec.grid, int(axes["objects"]), dims)
    functions = ctx.grid_functions(spec.grid, dims)
    config = BENCH_CONFIGS[str(axes["algorithm"])].replace(
        backend=str(axes["backend"]),
        shards=int(axes["shards"]),
        executor=str(axes["executor"]),
    )
    reference = ctx.reference_pairs(objects, functions)
    metrics: Dict[str, float]
    if config.shards > 1:
        # Sharded execution only exists on the plan/engine path; measure
        # the end-to-end match() wall and its merged I/O.
        best: Dict[str, float] = {}
        pair_set: PairSet = frozenset()
        for _ in range(max(1, spec.grid.workload.repeats)):
            engine = MatchingEngine(config)
            start = time.perf_counter()
            result = engine.match(objects, functions)
            elapsed = time.perf_counter() - start
            if not best or elapsed < best["cpu_seconds"]:
                best = {
                    "cpu_seconds": elapsed,
                    "io_accesses": float(result.io_accesses),
                    "pairs": float(len(result.pairs)),
                    "shards_used": float(
                        result.stats.get("shards_used", config.shards)
                    ),
                }
                pair_set = frozenset(result.as_set())
        metrics = best
    else:
        measurement = None
        pair_set = frozenset()
        for _ in range(max(1, spec.grid.workload.repeats)):
            engine = MatchingEngine(config)
            problem = engine.build_problem(objects, functions)
            candidate, matching = measure_run(
                engine.create_matcher(problem, search_stats=SearchStats())
            )
            if measurement is None or \
                    candidate.cpu_seconds < measurement.cpu_seconds:
                measurement = candidate
                pair_set = frozenset(matching.as_set())
        assert measurement is not None
        metrics = {
            "io_accesses": float(measurement.io_accesses),
            "page_reads": float(measurement.page_reads),
            "page_writes": float(measurement.page_writes),
            "buffer_hits": float(measurement.buffer_hits),
            "cpu_seconds": measurement.cpu_seconds,
            "pairs": float(measurement.pairs),
            "rounds": float(measurement.rounds),
            "top1_searches": float(measurement.top1_searches),
            "reverse_top1_queries": float(
                measurement.reverse_top1_queries
            ),
            "score_evaluations": float(measurement.score_evaluations),
        }
    metrics["n_objects"] = float(len(objects))
    metrics["n_functions"] = float(len(functions))
    metrics["identity_ok"] = float(pair_set == reference)
    return CellResult(spec=spec, metrics=metrics)


def _serving_base(spec: CellSpec) -> MatchingConfig:
    axes = spec.axes
    config = BENCH_CONFIGS[str(axes["algorithm"])]
    if not bool(axes.get("cache", True)):
        config = config.replace(cache_size=0)
    return config


def _run_serving_cell(spec: CellSpec, ctx: MatrixContext) -> CellResult:
    workload = spec.grid.workload
    dims = workload.dims
    objects = ctx.grid_objects(spec.grid, workload.num_objects, dims)
    workloads = [
        ctx.grid_functions(spec.grid, dims, offset=1 + query)
        for query in range(workload.num_queries)
    ]
    point, warm_results = run_serving_point(
        objects, workloads, _serving_base(spec),
        backend=str(spec.axes["backend"]),
        label=str(spec.axes["algorithm"]),
    )
    identity = all(
        frozenset(result.as_set()) == ctx.reference_pairs(objects,
                                                          functions)
        for result, functions in zip(warm_results, workloads)
    )
    metrics = {
        "cold_seconds": point.cold_seconds,
        "warm_miss_seconds": point.warm_miss_seconds,
        "warm_hit_seconds": point.warm_hit_seconds,
        "miss_speedup": point.miss_speedup,
        "hit_speedup": point.hit_speedup,
        "n_objects": float(point.n_objects),
        "n_functions": float(point.n_functions),
        "n_queries": float(len(workloads)),
        "identity_ok": float(identity),
    }
    return CellResult(spec=spec, metrics=metrics)


def grid_requests(grid: GridSpec) -> int:
    """Distinct requests a throughput/net grid serves (same for all cells)."""
    explicit = grid.workload.num_requests
    if explicit:
        return explicit
    return 2 * max(int(value) for value in grid.axes["batch"])


def _request_workloads(grid: GridSpec,
                       ctx: MatrixContext) -> List[List[LinearPreference]]:
    """The distinct per-request workloads of a throughput/net grid."""
    workload = grid.workload
    return [
        ctx.functions(workload.functions_per_request, workload.dims,
                      workload.seed + 1 + request)
        for request in range(grid_requests(grid))
    ]


def _run_throughput_cell(spec: CellSpec,
                         ctx: MatrixContext) -> CellResult:
    workload = spec.grid.workload
    objects = ctx.grid_objects(spec.grid, workload.num_objects,
                               workload.dims)
    workloads = _request_workloads(spec.grid, ctx)
    base = BENCH_CONFIGS[str(spec.axes["algorithm"])]
    point = run_throughput_point(
        objects, workloads, base, int(spec.axes["batch"]),
        backend=str(spec.axes["backend"]),
        label=str(spec.axes["algorithm"]),
    )
    # run_throughput_point already verified batched == looped; check a
    # sample of the looped answers against the canonical matcher.
    serving = MatchingEngine(base.replace(
        backend=str(spec.axes["backend"]), deletion_mode="filter",
    ))
    identity = all(
        frozenset(serving.match(objects, functions).as_set())
        == ctx.reference_pairs(objects, functions)
        for functions in workloads[:workload.identity_sample]
    )
    metrics = {
        "looped_rps": point.looped_rps,
        "batched_rps": point.batched_rps,
        "speedup": point.speedup,
        "vectorized_requests": float(point.vectorized_requests),
        "vectorized_fraction": point.vectorized_requests
        / max(1, point.n_requests),
        "n_requests": float(point.n_requests),
        "n_objects": float(point.n_objects),
        "n_functions": float(point.n_functions),
        "identity_ok": float(identity),
    }
    return CellResult(spec=spec, metrics=metrics)


def _run_dynamic_cell(spec: CellSpec, ctx: MatrixContext) -> CellResult:
    workload = spec.grid.workload
    dims = workload.dims
    objects = ctx.grid_objects(spec.grid, workload.num_objects, dims)
    functions = ctx.grid_functions(spec.grid, dims)
    insert_pool = ctx.dataset(
        workload.generator, max(64, len(objects) // 4), dims,
        workload.seed + 2,
    )
    churn = float(spec.axes["churn"])
    n_events = events_for_ratio(objects, churn)
    events = generate_events(
        objects, functions, n_events, mix=MIXED_CHURN,
        seed=workload.seed + 3, insert_pool=insert_pool,
    )
    config = BENCH_CONFIGS[str(spec.axes["algorithm"])].replace(
        backend=str(spec.axes["backend"]),
    )

    # Incremental path, recompute fallback disabled: the repair
    # machinery must absorb every event itself.
    engine = MatchingEngine(config.replace(repair_threshold=1e9))
    session = engine.open_session(objects, functions)
    io_before = session.io_snapshot().io_accesses
    start = time.perf_counter()
    for event in events:
        session.submit(event)
    session.flush()
    incremental_seconds = time.perf_counter() - start
    incremental_io = session.io_snapshot().io_accesses - io_before
    incremental_pairs = frozenset(session.matching().as_set())
    session.close()

    baseline = RecomputeSession(objects, functions, config)
    io_before = baseline.io_accesses
    start = time.perf_counter()
    for event in events:
        baseline.submit(event)
    baseline.flush()
    recompute_seconds = time.perf_counter() - start
    recompute_io = baseline.io_accesses - io_before
    recompute_pairs = frozenset(baseline.matching().as_set())

    metrics = {
        "n_events": float(len(events)),
        "n_objects": float(len(objects)),
        "n_functions": float(len(functions)),
        "incremental_io": float(incremental_io),
        "recompute_io": float(recompute_io),
        "incremental_seconds": incremental_seconds,
        "recompute_seconds": recompute_seconds,
        "time_speedup": recompute_seconds
        / max(1e-9, incremental_seconds),
        "identity_ok": float(incremental_pairs == recompute_pairs),
    }
    if incremental_io or recompute_io:
        # Undefined (and uninteresting) on the in-memory backend: leave
        # the metric out rather than record a fake infinity.
        metrics["io_speedup"] = recompute_io / max(1, incremental_io)
    return CellResult(spec=spec, metrics=metrics)


def _run_replay_cell(spec: CellSpec, ctx: MatrixContext) -> CellResult:
    workload = spec.grid.workload
    point, _report = run_replay_point(
        str(spec.axes["scenario"]),
        scale=workload.trace_scale,
        seed=workload.seed,
        backend=str(spec.axes["backend"]),
        transport="local",
    )
    metrics = {
        "requests": float(point.requests),
        "churn_events": float(point.churn_events),
        "freshness_checks": float(point.freshness_checks),
        "freshness_mismatches": float(point.freshness_mismatches),
        "stale_hits": float(point.stale_hits),
        "replay_seconds": point.replay_seconds,
        "rewind_seconds": point.rewind_seconds,
        "rewind_verified": float(point.rewind_verified),
        "identity_ok": float(point.ok),
    }
    return CellResult(spec=spec, metrics=metrics)


def _run_net_cell(spec: CellSpec, ctx: MatrixContext) -> CellResult:
    workload = spec.grid.workload
    objects = ctx.grid_objects(spec.grid, workload.num_objects,
                               workload.dims)
    workloads = _request_workloads(spec.grid, ctx)
    point, served = run_net_point(objects, workloads,
                                  int(spec.axes["batch"]), workload.seed)
    # run_net_point already verified served == in-process; check a
    # sample of the served answers against the canonical matcher.
    identity = all(
        frozenset(result.as_set()) == ctx.reference_pairs(objects,
                                                          functions)
        for result, functions in zip(served[:workload.identity_sample],
                                     workloads)
    )
    metrics = {
        "inproc_rps": point.inproc_rps,
        "net_rps": point.net_rps,
        "ratio": point.ratio,
        "n_requests": float(point.n_requests),
        "n_objects": float(point.n_objects),
        "n_functions": float(point.n_functions),
        "identity_ok": float(identity),
    }
    return CellResult(spec=spec, metrics=metrics)


_RUNNERS: Dict[str, Callable[[CellSpec, MatrixContext], CellResult]] = {
    "match": _run_match_cell,
    "serving": _run_serving_cell,
    "throughput": _run_throughput_cell,
    "dynamic": _run_dynamic_cell,
    "replay": _run_replay_cell,
    "net": _run_net_cell,
}


def run_cell(spec: CellSpec, ctx: MatrixContext) -> CellResult:
    """Execute one cell, returning its metrics (identity included)."""
    return _RUNNERS[spec.kind](spec, ctx)
