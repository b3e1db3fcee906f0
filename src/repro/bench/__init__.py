"""Benchmark harness reproducing the paper's evaluation section.

The one front end is the matrix (``python -m repro.bench.matrix``):
declarative configs under ``matrix/configs/`` sweep the paper's figures,
ablations and the serving stack. The modules here are the measurement
points those cells run.
"""

from .instruments import RunMeasurement, measure_run
from .runner import (
    BENCH_CONFIGS,
    PAPER_NUM_FUNCTIONS,
    PAPER_NUM_OBJECTS,
    bench_scale,
)

__all__ = [
    "BENCH_CONFIGS",
    "PAPER_NUM_FUNCTIONS",
    "PAPER_NUM_OBJECTS",
    "RunMeasurement",
    "bench_scale",
    "measure_run",
]
