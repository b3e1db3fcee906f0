"""Measurement instruments details."""

from repro.bench import measure_run
from repro.core import BruteForceMatcher, ChainMatcher, MatchingProblem, SkylineMatcher
from repro.data import generate_independent
from repro.prefs import generate_preferences
from repro.storage import SearchStats


def measure(matcher):
    measurement, _ = measure_run(matcher)
    return measurement


def make_problem(seed=350):
    objects = generate_independent(400, 3, seed=seed)
    functions = generate_preferences(15, 3, seed=seed + 1)
    return MatchingProblem.build(objects, functions)


def test_brute_force_measurement_records_top1_searches():
    measurement = measure(BruteForceMatcher(make_problem()))
    assert measurement.algorithm == "brute-force"
    assert measurement.top1_searches >= 15
    assert measurement.reverse_top1_queries == 0


def test_chain_measurement_records_top1_searches():
    measurement = measure(ChainMatcher(make_problem()))
    assert measurement.algorithm == "chain"
    assert measurement.top1_searches > 0


def test_sb_measurement_records_reverse_queries_and_rounds():
    measurement = measure(SkylineMatcher(make_problem()))
    assert measurement.algorithm == "skyline"
    assert measurement.reverse_top1_queries > 0
    assert 1 <= measurement.rounds <= measurement.pairs


def test_measurement_starts_cold():
    problem = make_problem()
    # Warm the buffer with a full skyline pass...
    from repro.skyline import compute_skyline

    compute_skyline(problem.tree)
    warm_reads = problem.io_stats.page_reads
    assert warm_reads > 0
    # ...measure_run must reset before measuring: the measured run
    # re-reads the tree from a cold buffer instead of reusing frames.
    measurement = measure(SkylineMatcher(problem))
    assert measurement.page_reads >= warm_reads


def test_as_dict_merges_extra():
    measurement = measure(SkylineMatcher(make_problem()))
    measurement.extra["custom"] = 1.5
    payload = measurement.as_dict()
    assert payload["custom"] == 1.5
    assert payload["io_accesses"] == measurement.io_accesses


def test_score_evaluations_counted_only_with_search_stats():
    assert measure(SkylineMatcher(make_problem())).score_evaluations == 0
    stats = SearchStats()
    measurement = measure(SkylineMatcher(make_problem(), search_stats=stats))
    assert measurement.score_evaluations == stats.score_evaluations > 0
