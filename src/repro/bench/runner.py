"""Bench panel names, paper cardinalities and the global scale factor.

Each bench panel name maps to a :class:`~repro.engine.MatchingConfig`
in :data:`BENCH_CONFIGS`; the matrix's ``algorithm`` axis takes these
names, so a grid can sweep the paper's matchers and every design-choice
ablation variant side by side.
"""

from __future__ import annotations

import os
from typing import Dict

from ..engine import MatchingConfig
from ..errors import ReproError

#: The paper's synthetic cardinalities (Section V, before scaling).
PAPER_NUM_OBJECTS = 100_000
PAPER_NUM_FUNCTIONS = 5_000

#: Bench panel name -> full engine configuration.
BENCH_CONFIGS: Dict[str, MatchingConfig] = {
    "SB": MatchingConfig(algorithm="sb"),
    "BruteForce": MatchingConfig(algorithm="bf"),
    "Chain": MatchingConfig(algorithm="chain"),
    # Reference algorithms (not part of the paper's figures).
    "GaleShapley": MatchingConfig(algorithm="gs"),
    "GenericSB": MatchingConfig(algorithm="generic-sb"),
    # Ablation variants (not part of the paper's figures).
    "SB-single": MatchingConfig(algorithm="sb", multi_pair=False),
    "SB-retraversal": MatchingConfig(algorithm="sb",
                                     maintenance="retraversal"),
    "SB-tight-threshold": MatchingConfig(algorithm="sb", threshold="tight"),
    "SB-naive-threshold": MatchingConfig(algorithm="sb", threshold="naive"),
    "SB-nocache": MatchingConfig(algorithm="sb", cache_best=False),
    "Chain-stack": MatchingConfig(algorithm="chain", restart=False),
    "BruteForce-filter": MatchingConfig(algorithm="bf",
                                        deletion_mode="filter"),
}


def bench_scale(default: float = 0.05) -> float:
    """Global workload scale factor, from ``REPRO_BENCH_SCALE``.

    The paper runs |O| up to 400K objects in C++; the default scale of
    0.05 keeps the pure-Python suite to minutes while preserving every
    qualitative relationship. Set ``REPRO_BENCH_SCALE=1.0`` to run the
    paper's exact cardinalities.
    """
    raw = os.environ.get("REPRO_BENCH_SCALE")
    if raw is None:
        return default
    value = float(raw)
    if value <= 0:
        raise ReproError(f"REPRO_BENCH_SCALE must be > 0, got {raw!r}")
    return value
