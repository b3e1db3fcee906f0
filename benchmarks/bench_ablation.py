"""Ablations of the paper's design choices (Sections IV-A, IV-B, IV-C).

The engine-level ablations are a thin wrapper over the ``ablations``
matrix config: one cell per panel variant (SB, SB-single,
SB-retraversal, SB-tight-threshold, SB-naive-threshold, SB-nocache,
Chain, Chain-stack, BruteForce) on the same anti-correlated workload.
Plain SB answers each round's reverse top-1 queries in one exact
batched pass over every alive function; the paper's threshold
algorithm (Section IV-A) is the ablation pair SB-tight-threshold /
SB-naive-threshold. The gates encode the reproduced claims —
multi-pair emission cuts rounds by at least 3x, plist maintenance
strictly beats root re-traversal on I/O, the fbest cache strictly
saves reverse top-1 queries, the tight TA threshold strictly saves
score evaluations over the naive one, the batched pass takes at most
half the CPU time of the tight TA scan (a same-run ratio, 0.13-0.22
over five runs at the default 0.05 scale on a 2-core x86-64 box; it
does not hold at tiny scales such as 0.004), and Wong et al.'s
retained stack never performs more top-1 searches than the paper's
restarting Chain — and every variant must still produce the identical
stable matching.

The substrate-level ablations (TA threshold tightness, LRU buffer
size/policy, bulk-load packing, forced reinsertion) stay hand-written
below: they reach into matcher/tree internals the matrix's engine-level
cells don't expose.

Run the matrix half directly via
``python -m repro.bench.matrix run --config ablations``.
"""

import pytest

from repro.core import MatchingProblem, SkylineMatcher
from repro.data import generate_anticorrelated, generate_zillow
from repro.prefs import generate_preferences
from repro.storage import SearchStats

from conftest import (
    assert_cells_identical,
    assert_gates_pass,
    run_named_matrix,
    scaled_functions,
    scaled_objects,
)

SEED = 99


@pytest.fixture(scope="module")
def result():
    return run_named_matrix("ablations")


def test_ablation_variants_pair_identical(result):
    assert_cells_identical(result)


def test_ablation_gates(result):
    assert_gates_pass(result)


# ---------------------------------------------------------------------------
# Substrate-level ablations (not expressible as matrix cells)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workload():
    objects = generate_anticorrelated(scaled_objects(), 4, seed=SEED)
    functions = generate_preferences(scaled_functions(), 4, seed=SEED + 1)
    return objects, functions


def run_sb(workload, **kwargs):
    objects, functions = workload
    problem = MatchingProblem.build(objects, functions)
    problem.reset_io()
    stats = SearchStats()
    matcher = SkylineMatcher(problem, search_stats=stats, **kwargs)
    matching = matcher.run()
    return {
        "matching": matching.as_set(),
        "score_evals": stats.score_evaluations,
    }


def test_ablation_threshold(benchmark, workload):
    """Section IV-A: the tight TA threshold terminates the reverse top-1
    scans earlier than the naive sum-of-caps threshold (score
    evaluations are a ``SearchStats`` counter the matrix's engine-level
    cells don't surface)."""
    tight = benchmark.pedantic(
        run_sb, args=(workload,), kwargs={"threshold": "tight"},
        rounds=1, iterations=1,
    )
    naive = run_sb(workload, threshold="naive")
    assert tight["matching"] == naive["matching"]
    assert tight["score_evals"] < naive["score_evals"]
    benchmark.extra_info["evals_tight"] = tight["score_evals"]
    benchmark.extra_info["evals_naive"] = naive["score_evals"]


def test_ablation_buffer(benchmark):
    """The experimental-setup knob: a larger LRU buffer absorbs more of
    the baselines' repeated top-1 descents."""
    objects = generate_zillow(scaled_objects(), seed=SEED + 2)
    functions = generate_preferences(
        max(20, scaled_functions() // 5), objects.dims, seed=SEED + 3
    )

    def run(fraction):
        problem = MatchingProblem.build(
            objects, functions, buffer_fraction=fraction
        )
        problem.reset_io()
        from repro.core import BruteForceMatcher

        BruteForceMatcher(problem).run()
        return problem.io_stats.io_accesses

    ios = benchmark.pedantic(
        lambda: {f: run(f) for f in (0.005, 0.02, 0.08, 0.32)},
        rounds=1, iterations=1,
    )
    values = list(ios.values())
    assert values == sorted(values, reverse=True), ios
    for fraction, io in ios.items():
        benchmark.extra_info[f"buffer={fraction:g}"] = io


def test_ablation_packing(benchmark):
    """Bulk-loading strategy: STR tiles vs Hilbert-curve ordering.

    Both produce valid packed trees; the bench records the I/O each tree
    costs a BBS skyline pass plus a batch of top-1 queries.
    """
    from repro.rtree import DiskNodeStore, RTree, hilbert_bulk_load, top1
    from repro.skyline import compute_skyline

    objects = generate_zillow(scaled_objects(), seed=SEED + 4)
    functions = generate_preferences(50, objects.dims, seed=SEED + 5)

    def run(loader):
        store = DiskNodeStore(objects.dims)
        tree = loader(store, objects.dims, objects.items())
        store.buffer.resize(max(4, store.disk.num_pages // 50))
        store.buffer.clear()
        store.disk.stats.reset()
        compute_skyline(tree)
        for function in functions:
            top1(tree, function.weights)
        return store.disk.stats.io_accesses, store.disk.num_pages

    str_io, str_pages = benchmark.pedantic(
        run, args=(RTree.bulk_load,), rounds=1, iterations=1
    )
    hilbert_io, hilbert_pages = run(hilbert_bulk_load)
    benchmark.extra_info["io_str"] = str_io
    benchmark.extra_info["io_hilbert"] = hilbert_io
    # Same data, comparable tree sizes; neither degenerates.
    assert 0.7 <= hilbert_pages / str_pages <= 1.4
    assert hilbert_io < 20 * str_io and str_io < 20 * hilbert_io


def test_ablation_buffer_policy(benchmark, workload):
    """LRU (the paper's policy) vs Clock second-chance replacement."""
    from repro.core import BruteForceMatcher
    from repro.rtree import DiskNodeStore, RTree
    from repro.storage import DiskManager, make_buffer

    objects, functions = workload

    def run(policy):
        disk = DiskManager()
        staging = make_buffer(disk, max(64, len(objects) // 8), policy)
        store = DiskNodeStore(objects.dims, disk=disk, buffer=staging)
        tree = RTree.bulk_load(store, objects.dims, objects.items())
        staging.flush()
        store.buffer = make_buffer(
            disk, max(4, int(disk.num_pages * 0.02)), policy
        )
        disk.stats.reset()
        problem = MatchingProblem(objects, functions, tree, disk, store.buffer)
        BruteForceMatcher(problem).run()
        return disk.stats.io_accesses

    lru_io = benchmark.pedantic(run, args=("lru",), rounds=1, iterations=1)
    clock_io = run("clock")
    benchmark.extra_info["io_lru"] = lru_io
    benchmark.extra_info["io_clock"] = clock_io
    # Clock approximates LRU: same order of magnitude either way.
    assert clock_io < 3 * lru_io and lru_io < 3 * clock_io


def test_ablation_forced_reinsert(benchmark, workload):
    """R* forced reinsertion vs split-only insertion: tree quality and
    the I/O a matcher pays on each tree."""
    from repro.core import SkylineMatcher as SB
    from repro.rtree import DiskNodeStore, RTree
    from repro.storage import BufferPool, DiskManager

    objects, functions = workload
    if len(objects) > 2000:
        # One-at-a-time insertion is the point of this ablation but is
        # slow in Python; 2K objects suffice for the comparison.
        objects = objects.sample(2000, seed=SEED)

    def run(forced):
        disk = DiskManager()
        staging = BufferPool(disk, capacity=max(64, len(objects) // 8))
        store = DiskNodeStore(objects.dims, disk=disk, buffer=staging)
        tree = RTree(store, objects.dims, forced_reinsert=forced)
        for object_id, point in objects.items():
            tree.insert(object_id, point)
        staging.flush()
        store.buffer = BufferPool(
            disk, capacity=max(4, int(disk.num_pages * 0.02))
        )
        disk.stats.reset()
        problem = MatchingProblem(objects, functions, tree, disk, store.buffer)
        matching = SB(problem).run()
        return matching.as_set(), disk.stats.io_accesses, disk.num_pages

    forced = benchmark.pedantic(run, args=(True,), rounds=1, iterations=1)
    plain = run(False)
    assert forced[0] == plain[0]  # identical matching either way
    benchmark.extra_info["io_forced"] = forced[1]
    benchmark.extra_info["io_plain"] = plain[1]
    benchmark.extra_info["pages_forced"] = forced[2]
    benchmark.extra_info["pages_plain"] = plain[2]
    # Reinsertion must not blow the tree up.
    assert forced[2] <= plain[2] * 1.15
