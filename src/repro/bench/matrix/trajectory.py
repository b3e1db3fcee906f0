# lint: replay-root
"""The committed performance trajectory and its regression check.

A trajectory record (``BENCH_<pr>.json`` at the repo root) freezes one
matrix run: the config identity (name + digest), the scale it ran at,
an environment fingerprint, the per-metric check policies, and every
cell's metrics with repr-exact floats. ``--check`` re-runs the config
and compares fresh metrics cell-by-cell under those policies:

``exact``
    The values must be equal. Counters (I/O accesses, pairs, rounds,
    top-1 searches) are deterministic functions of the workload, so any
    drift is a real behaviour change that must be re-baselined
    deliberately.
``ratio``
    fresh ≤ ``max_regression`` × committed. For timings on hardware you
    control.
``info``
    Recorded, never gated — the default for wall-clock metrics, which
    do not transfer across machines.

Serialization is canonical (sorted keys, compact separators, trailing
newline) and floats round-trip through ``repr`` exactly, so
write → load → write is byte-stable and a trajectory diff is always a
real value change.
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ...errors import TrajectoryError
from .config import CheckPolicy, MatrixConfig, config_digest
from .validate import TRAJECTORY_SCHEMA, TRAJECTORY_SCHEMA_TAG, validate

PathLike = Union[str, Path]

#: Metrics whose committed values must match a fresh run exactly: all
#: of them are deterministic counters (or 0/1 verdicts) of a seeded
#: workload, independent of machine speed.
EXACT_METRICS: Tuple[str, ...] = (
    "io_accesses", "page_reads", "page_writes", "buffer_hits",
    "pairs", "rounds", "top1_searches", "reverse_top1_queries",
    "score_evaluations",
    "identity_ok", "n_objects", "n_functions", "n_events", "n_queries",
    "n_requests", "vectorized_requests", "incremental_io",
    "recompute_io", "requests", "churn_events", "freshness_checks",
    "freshness_mismatches", "stale_hits", "rewind_verified",
    "shards_used",
)


def default_checks(config: MatrixConfig) -> Dict[str, CheckPolicy]:
    """The effective policy map: exact counters + config overrides."""
    checks = {metric: CheckPolicy(policy="exact")
              for metric in EXACT_METRICS}
    checks.update(config.checks)
    return checks


def environment_fingerprint() -> Dict[str, str]:
    """Where a trajectory was recorded (informational, never gated)."""
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "numpy": numpy.__version__,
    }


def canonical_dumps(payload: Any) -> str:
    """The canonical JSON form: sorted, compact, newline-terminated.

    ``json.dumps`` renders floats with ``repr``, which round-trips
    every IEEE double bit-exactly — so equal payloads always serialize
    to identical bytes.
    """
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")) + "\n"


@dataclass(frozen=True)
class Trajectory:
    """One committed matrix run."""

    pr: str
    config: str
    config_digest: str
    scale: float
    fingerprint: Mapping[str, str]
    checks: Mapping[str, CheckPolicy]
    cells: Tuple[Dict[str, Any], ...]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": TRAJECTORY_SCHEMA_TAG,
            "pr": self.pr,
            "config": self.config,
            "config_digest": self.config_digest,
            "scale": self.scale,
            "fingerprint": dict(self.fingerprint),
            "checks": {
                metric: {"policy": policy.policy,
                         "max_regression": policy.max_regression}
                for metric, policy in sorted(self.checks.items())
            },
            "cells": [dict(cell) for cell in self.cells],
        }

    def cell_index(self) -> Dict[str, Dict[str, Any]]:
        return {cell["cell_id"]: cell for cell in self.cells}


def build_trajectory(config: MatrixConfig, scale: float, pr: str,
                     cells: List[Dict[str, Any]]) -> Trajectory:
    """Assemble a trajectory from executed-cell payloads."""
    return Trajectory(
        pr=pr,
        config=config.name,
        config_digest=config_digest(config),
        scale=scale,
        fingerprint=environment_fingerprint(),
        checks=default_checks(config),
        cells=tuple(
            {
                "cell_id": cell["cell_id"],
                "kind": cell["kind"],
                "axes": dict(cell["axes"]),
                "metrics": dict(cell["metrics"]),
            }
            for cell in cells
        ),
    )


def write_trajectory(trajectory: Trajectory, path: PathLike) -> None:
    """Validate, then write the canonical bytes."""
    payload = trajectory.as_dict()
    validate(payload, TRAJECTORY_SCHEMA, str(path))
    Path(path).write_text(canonical_dumps(payload))


def load_trajectory(path: PathLike) -> Trajectory:
    """Load and schema-check a committed trajectory file."""
    path = Path(path)
    if not path.is_file():
        raise TrajectoryError(f"no trajectory file at {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise TrajectoryError(f"{path}: not valid JSON: {error}")
    try:
        validate(payload, TRAJECTORY_SCHEMA, str(path))
    except Exception as error:
        raise TrajectoryError(str(error)) from None
    checks = {}
    for metric, spec in payload["checks"].items():
        if spec["policy"] not in ("exact", "ratio", "info"):
            raise TrajectoryError(
                f"{path}: check for {metric!r} has unknown policy "
                f"{spec['policy']!r}"
            )
        checks[metric] = CheckPolicy(
            policy=spec["policy"],
            max_regression=float(spec["max_regression"]),
        )
    return Trajectory(
        pr=payload["pr"],
        config=payload["config"],
        config_digest=payload["config_digest"],
        scale=float(payload["scale"]),
        fingerprint=dict(payload["fingerprint"]),
        checks=checks,
        cells=tuple(payload["cells"]),
    )


@dataclass(frozen=True)
class CheckFinding:
    """One compared metric (only mismatches and warnings are kept)."""

    cell_id: str
    metric: str
    policy: str
    committed: Optional[float]
    fresh: Optional[float]
    ok: bool
    detail: str


@dataclass
class CheckReport:
    """The full verdict of ``--check``."""

    trajectory_path: str
    compared: int = 0
    findings: List[CheckFinding] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(not finding.ok for finding in self.findings)

    def format(self) -> str:
        lines = [
            f"trajectory check against {self.trajectory_path}: "
            f"{self.compared} metric(s) compared",
        ]
        for warning in self.warnings:
            lines.append(f"  warning: {warning}")
        failures = [f for f in self.findings if not f.ok]
        for finding in failures:
            lines.append(
                f"  REGRESSION {finding.cell_id} :: {finding.metric} "
                f"[{finding.policy}] {finding.detail}"
            )
        lines.append("OK" if self.ok
                     else f"FAILED ({len(failures)} regression(s))")
        return "\n".join(lines)


def check_trajectory(trajectory: Trajectory, config: MatrixConfig,
                     scale: float, cells: List[Dict[str, Any]],
                     path: PathLike = "<trajectory>") -> CheckReport:
    """Compare a fresh run's cells against the committed trajectory.

    The config digest and scale must match exactly — comparing runs of
    different matrices is meaningless. Fingerprint drift (a different
    Python or numpy) is reported as a warning, not a failure.
    """
    report = CheckReport(trajectory_path=str(path))
    digest = config_digest(config)
    if trajectory.config != config.name:
        raise TrajectoryError(
            f"trajectory records config {trajectory.config!r}, "
            f"but this run used {config.name!r}"
        )
    if trajectory.config_digest != digest:
        raise TrajectoryError(
            f"config {config.name!r} changed since the trajectory was "
            f"recorded (digest {trajectory.config_digest[:12]} != "
            f"{digest[:12]}); re-baseline with --write-trajectory"
        )
    if trajectory.scale != scale:
        raise TrajectoryError(
            f"trajectory was recorded at scale {trajectory.scale:g}, "
            f"this run used {scale:g}"
        )
    fresh_env = environment_fingerprint()
    for key in sorted(fresh_env):
        committed_value = trajectory.fingerprint.get(key)
        if committed_value != fresh_env[key]:
            report.warnings.append(
                f"fingerprint {key}: committed {committed_value!r}, "
                f"fresh {fresh_env[key]!r}"
            )

    committed_cells = trajectory.cell_index()
    fresh_cells = {cell["cell_id"]: cell for cell in cells}
    for cell_id in sorted(committed_cells):
        if cell_id not in fresh_cells:
            report.findings.append(CheckFinding(
                cell_id=cell_id, metric="-", policy="exact",
                committed=None, fresh=None, ok=False,
                detail="cell missing from the fresh run",
            ))
    for cell_id in sorted(fresh_cells):
        committed = committed_cells.get(cell_id)
        if committed is None:
            report.warnings.append(
                f"cell {cell_id} is new (not in the trajectory)"
            )
            continue
        _check_cell(report, trajectory, cell_id,
                    committed["metrics"], fresh_cells[cell_id]["metrics"])
    return report


def _check_cell(report: CheckReport, trajectory: Trajectory,
                cell_id: str, committed: Mapping[str, float],
                fresh: Mapping[str, float]) -> None:
    for metric in sorted(set(committed) | set(fresh)):
        policy = trajectory.checks.get(metric, CheckPolicy())
        if policy.policy == "info":
            continue
        report.compared += 1
        committed_value = committed.get(metric)
        fresh_value = fresh.get(metric)
        if committed_value is None or fresh_value is None:
            missing = "fresh run" if fresh_value is None else "trajectory"
            report.findings.append(CheckFinding(
                cell_id=cell_id, metric=metric, policy=policy.policy,
                committed=committed_value, fresh=fresh_value, ok=False,
                detail=f"metric missing from the {missing}",
            ))
            continue
        if policy.policy == "exact":
            ok = committed_value == fresh_value
            detail = (f"committed {committed_value!r}, "
                      f"fresh {fresh_value!r}")
        else:
            bound = policy.max_regression * committed_value
            ok = fresh_value <= bound
            detail = (f"fresh {fresh_value!r} vs committed "
                      f"{committed_value!r} (allowed <= {bound!r})")
        if not ok:
            report.findings.append(CheckFinding(
                cell_id=cell_id, metric=metric, policy=policy.policy,
                committed=committed_value, fresh=fresh_value, ok=False,
                detail=detail,
            ))
