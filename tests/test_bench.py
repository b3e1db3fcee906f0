"""Benchmark harness: measurement protocol, panel registry, scale knob."""

import pytest

from repro.bench import BENCH_CONFIGS, bench_scale, measure_run
from repro.core import MatchingProblem, SkylineMatcher
from repro.data import generate_independent
from repro.errors import ReproError
from repro.prefs import generate_preferences


def tiny_workload():
    objects = generate_independent(250, 3, seed=180)
    functions = generate_preferences(12, 3, seed=181)
    return objects, functions


def test_measure_run_protocol():
    objects, functions = tiny_workload()
    problem = MatchingProblem.build(objects, functions)
    measurement, matching = measure_run(SkylineMatcher(problem))
    assert measurement.algorithm == "skyline"
    assert measurement.pairs == 12 == len(matching)
    assert measurement.rounds == matching.num_rounds >= 1
    assert measurement.cpu_seconds > 0
    assert measurement.io_accesses == measurement.page_reads + measurement.page_writes
    as_dict = measurement.as_dict()
    assert as_dict["pairs"] == 12


def test_ablation_algorithms_registered():
    assert {"SB-single", "SB-retraversal", "SB-naive-threshold",
            "SB-nocache", "Chain-stack", "BruteForce-filter"} <= set(BENCH_CONFIGS)


def test_bench_scale_env(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    assert bench_scale(default=0.07) == 0.07
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
    assert bench_scale() == 0.5
    monkeypatch.setenv("REPRO_BENCH_SCALE", "-1")
    with pytest.raises(ReproError):
        bench_scale()
