"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` replaces a public callable at the module or class
attribute its callers resolve (``repro.core.skyline_matching.compute_skyline``,
``repro.prefs.index.FunctionIndex.reverse_top1``, ...) with a wrapper that
times each call. Nothing under ``src/`` changes; :meth:`Tracer.uninstall`
puts every original back.

For each span name the tracer keeps the inclusive seconds, the self
seconds (inclusive minus the wrapped calls made inside it, on the same
thread), the call count, and the intervals of the outermost spans of
every thread, which give the share of wall time the wrappers cover.
Timestamps come from ``time.monotonic`` (``CLOCK_MONOTONIC`` on Linux,
one clock for every process of the machine), so spans recorded in the
server process can be compared with windows measured by the client.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.monotonic

#: The matcher layers (SB on any backend): skyline, reverse top-1, core.
MATCHER_POINTS = (
    ("repro.core.skyline_matching", "compute_skyline", "skyline.bbs"),
    ("repro.core.skyline_matching", "update_after_removal", "skyline.maintain"),
    ("repro.prefs.index", "FunctionIndex.reverse_top1", "prefs.reverse_top1"),
    ("repro.core.skyline_matching", "SkylineMatcher.pairs", "core.sb"),
)

#: The serving engine: staging, the two miss paths, the batch entry.
ENGINE_POINTS = (
    ("repro.engine.backends", "DiskBackend.build_problem", "engine.stage"),
    ("repro.engine.backends", "MemoryBackend.build_problem", "engine.stage"),
    ("repro.engine.plan", "PreparedMatching.run_vectorized_batch",
     "engine.vectorized"),
    ("repro.engine.plan", "PreparedMatching.run_miss", "engine.run_miss"),
    ("repro.engine.service", "MatchingService.submit_many",
     "engine.submit_many"),
)

#: The wire codec as the server calls it.
SERVER_CODEC_POINTS = (
    ("repro.net.server", "decode_request", "net.codec"),
    ("repro.net.server", "encode_result", "net.codec"),
)

#: The wire codec as clients call it (the benchmark's own open-loop
#: client calls ``repro.net.codec``; ``AsyncMatchingClient`` calls the
#: names imported into ``repro.net.client``).
CLIENT_CODEC_POINTS = (
    ("repro.net.codec", "encode_request", "net.codec"),
    ("repro.net.codec", "decode_result", "net.codec"),
    ("repro.net.client", "encode_request", "net.codec"),
    ("repro.net.client", "decode_result", "net.codec"),
)

#: Session events (object writes) of the dynamic layer.
DYNAMIC_POINTS = (
    ("repro.dynamic.session", "DynamicMatcher.insert_object", "dynamic.event"),
    ("repro.dynamic.session", "DynamicMatcher.delete_object", "dynamic.event"),
)


def _resolve(module: str, attr: str) -> Tuple[Any, str, Any]:
    """``(owner, name, original)`` for ``module.attr``, where ``attr`` may
    be ``Class.method``; the original is read from the owner's own
    namespace, so an inherited attribute is an error, not a silent miss."""
    owner: Any = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, vars(owner)[leaf]


class Tracer:
    """Aggregated spans around wrapped callables (thread-safe)."""

    def __init__(self) -> None:
        # Re-entrant: the server's signal handlers export and reset on
        # the main thread, which may be between span updates.
        self._lock = threading.RLock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (wrappers stay installed)."""
        with self._lock:
            self.seconds: Dict[str, float] = defaultdict(float)
            self.self_seconds: Dict[str, float] = defaultdict(float)
            self.calls: Dict[str, int] = defaultdict(int)
            self.counts: Dict[str, int] = defaultdict(int)
            self.outer: List[Tuple[float, float]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> None:
        self._stack().append([_clock(), 0.0])

    def _exit(self, name: str, call: bool) -> None:
        end = _clock()
        stack = self._stack()
        start, children = stack.pop()
        duration = end - start
        if stack:
            stack[-1][1] += duration
        with self._lock:
            self.seconds[name] += duration
            self.self_seconds[name] += duration - children
            if call:
                self.calls[name] += 1
            if not stack:
                self.outer.append((start, end))

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] += amount

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def wrap(self, module: str, attr: str, name: str,
             around: Optional[Callable] = None) -> None:
        """Time every call of ``module.attr`` (``attr`` may be
        ``Class.method``) as span ``name``.

        ``around(original, *args, **kwargs)``, when given, makes the
        call itself, so a wrapper can pass extra counters in.
        """
        owner, leaf, original = _resolve(module, attr)
        call = original if around is None else (
            lambda *args, **kwargs: around(original, *args, **kwargs)
        )

        def wrapper(*args, **kwargs):
            self._enter()
            try:
                return call(*args, **kwargs)
            finally:
                self._exit(name, True)

        setattr(owner, leaf, wrapper)
        self._patches.append((owner, leaf, original))

    def wrap_generator(self, module: str, attr: str, name: str,
                       done: Optional[Callable] = None) -> None:
        """Time every resumption of the generator ``module.attr`` returns.

        One call is counted per generator; ``done(*args)`` runs once the
        generator is exhausted (to read counters off the instance).
        """
        owner, leaf, original = _resolve(module, attr)

        def wrapper(*args, **kwargs):
            generator = original(*args, **kwargs)
            with self._lock:
                self.calls[name] += 1
            try:
                while True:
                    self._enter()
                    try:
                        item = next(generator)
                    except StopIteration:
                        break
                    finally:
                        self._exit(name, False)
                    yield item
            finally:
                generator.close()
            if done is not None:
                done(*args)

        setattr(owner, leaf, wrapper)
        self._patches.append((owner, leaf, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    def install(self, points) -> None:
        for module, attr, name in points:
            self.wrap(module, attr, name)

    def install_matcher(self) -> None:
        """Wrap the SB matcher's layers, counting TA score evaluations.

        ``repro.match`` passes no ``SearchStats`` to the matcher, so the
        reverse top-1 wrapper hands the index one of its own and reads
        the count back.
        """
        from repro.storage import SearchStats

        def reverse_top1(original, index, point, stats=None):
            counter = SearchStats() if stats is None else stats
            before = counter.score_evaluations
            try:
                return original(index, point, counter)
            finally:
                self.count("prefs.score_evals",
                           counter.score_evaluations - before)

        def rounds(matcher) -> None:
            self.count("core.rounds", matcher.rounds)

        for module, attr, name in MATCHER_POINTS:
            if name == "prefs.reverse_top1":
                self.wrap(module, attr, name, around=reverse_top1)
            elif name == "core.sb":
                self.wrap_generator(module, attr, name, done=rounds)
            else:
                self.wrap(module, attr, name)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self) -> Dict[str, Any]:
        """Everything recorded, as plain JSON-able data."""
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "self_seconds": dict(self.self_seconds),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "outer": list(self.outer),
            }


def combine(*exports: Dict[str, Any]) -> Dict[str, Any]:
    """Sum several exports (e.g. the client's and the server's)."""
    total: Dict[str, Any] = {
        "seconds": defaultdict(float), "self_seconds": defaultdict(float),
        "calls": defaultdict(int), "counts": defaultdict(int), "outer": [],
    }
    for export in exports:
        for key in ("seconds", "self_seconds", "calls", "counts"):
            for name, value in export[key].items():
                total[key][name] += value
        total["outer"].extend(tuple(span) for span in export["outer"])
    return total
