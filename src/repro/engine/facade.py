"""The unified MatchingEngine facade and the one-shot :func:`match`.

One configurable entry point for the whole library, in the spirit of a
``pipeline()`` facade: pick an algorithm by name, a storage backend by
name, optionally per-object capacities — everything else has the paper's
defaults::

    import repro

    result = repro.match(objects, prefs)                     # SB on disk
    result = repro.match(objects, prefs, backend="memory")   # serving path
    result = repro.match(objects, prefs, algorithm="chain",
                         capacities={0: 3, 1: 2})

The engine object itself is reusable and exposes the intermediate steps
(`build_problem`, `create_matcher`) for callers that need streaming
pairs or custom instrumentation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.capacity import expand_capacities
from ..core.problem import MatchingProblem
from ..data import Dataset
from ..errors import MatchingError
from ..storage.stats import SearchStats
from .backends import StorageBackend, get_backend
from .config import MatchingConfig
from .plan import MatchingPlan, PreparedMatching
from .result import MatchResult


class MatchingEngine:
    """A configured matching pipeline: backend + algorithm + options.

    Construct with a :class:`MatchingConfig`, keyword overrides, or
    both (keywords win). The configuration is *compiled* at
    construction (see :class:`~repro.engine.plan.MatchingPlan`), so an
    unknown algorithm or backend fails here, not mid-request. The
    engine is reusable: repeated :meth:`match` calls on the same inputs
    serve from the same prepared state — staged problem, warm shard
    trees, persistent worker pool, result cache — via the
    compile → prepare → serve pipeline of :mod:`repro.engine.plan`.

    Examples
    --------
    >>> import repro
    >>> engine = repro.MatchingEngine(algorithm="sb", backend="memory")
    >>> objects = repro.generate_independent(n=60, dims=2, seed=5)
    >>> prefs = repro.generate_preferences(n=4, dims=2, seed=6)
    >>> result = engine.match(objects, prefs)
    >>> (len(result), result.backend, result.io_accesses)
    (4, 'memory', 0)

    The pipeline steps are exposed for streaming and instrumentation:

    >>> problem = engine.build_problem(objects, prefs)
    >>> matcher = engine.create_matcher(problem)
    >>> len(list(matcher.pairs())) == len(result)
    True
    """

    def __init__(self, config: Optional[MatchingConfig] = None,
                 **overrides) -> None:
        if config is None:
            config = MatchingConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        #: The compiled plan the engine serves through.
        self.plan = MatchingPlan(config)
        # Prepared-state cache: identity key of the last (objects,
        # functions) pair, the PreparedMatching serving it, and strong
        # refs keeping the identity key valid while cached.
        self._prepared: Optional[PreparedMatching] = None
        self._prepared_key = None
        self._refs = None

    @property
    def backend(self) -> StorageBackend:
        """The storage backend instance named by the config."""
        return get_backend(self.config.backend)

    def _stage(self, objects: Dataset, functions: Sequence,
               ) -> Tuple[MatchingProblem, Optional[List[int]]]:
        """Capacity-expand (if configured) and build on the backend.

        Returns the staged problem plus the virtual-owner list (``None``
        for a plain 1-1 run). Always builds fresh — every caller gets an
        independent problem (matchers with ``deletion_mode="delete"``
        mutate the tree; see the one-problem-per-algorithm note on
        :class:`~repro.core.problem.MatchingProblem`).
        """
        virtual_owner = None
        expanded = objects
        if self.config.capacities is not None:
            expanded, virtual_owner = expand_capacities(
                objects, self.config.capacities
            )
        problem = self.backend.build_problem(expanded, functions, self.config)
        return problem, virtual_owner

    def _prepare_cached(self, objects: Dataset) -> PreparedMatching:
        """The prepared state serving ``match()``, memoized by identity.

        Prepared state depends only on the object set (functions are a
        per-run input; workload changes are already distinguished by
        the prepared result cache's content-based preference digest),
        so repeated calls with the *same* objects — by identity — reuse
        the warm staging, pool, and cache across any stream of
        workloads. Only :meth:`match` uses this cache: the staged
        problem never escapes to callers, so the reuse cannot alias
        user-visible state.
        """
        key = (id(objects), len(objects))
        if self._prepared is None or self._prepared_key != key:
            if self._prepared is not None:
                self._prepared.close()
            self._prepared = self.plan.prepare(objects)
            self._prepared_key = key
            self._refs = objects
        return self._prepared

    # ------------------------------------------------------------------
    # Pipeline steps (exposed for streaming / instrumentation callers)
    # ------------------------------------------------------------------
    def build_problem(self, objects: Dataset,
                      functions: Sequence) -> MatchingProblem:
        """Stage a workload on the configured storage backend.

        ``config.capacities`` is honoured: objects are expanded into
        capacity-many virtual copies before indexing (the returned
        problem then matches against *virtual* ids; :meth:`match` folds
        them back automatically).
        """
        problem, _ = self._stage(objects, functions)
        return problem

    def create_matcher(self, problem: MatchingProblem,
                       search_stats: Optional[SearchStats] = None,
                       **overrides):
        """Instantiate the configured algorithm for a staged problem.

        When ``config.shards > 1`` the configured algorithm is wrapped
        in a :class:`~repro.parallel.ShardedMatcher` (unless it is
        already a sharded algorithm), so the pipeline-steps API and
        :meth:`match` route through the identical execution layer.
        """
        config = self.config
        if config.shards > 1:
            from ..parallel import ShardedMatcher, is_sharded_algorithm

            if not is_sharded_algorithm(config.algorithm):
                unknown = set(overrides) - {
                    "base_algorithm", "shards", "executor",
                }
                if unknown:
                    raise MatchingError(
                        f"matcher overrides {sorted(unknown)} are not "
                        f"supported with sharded execution "
                        f"(shards={config.shards}); run with shards=1 "
                        f"for per-matcher instrumentation"
                    )
                return ShardedMatcher(
                    problem, config, base_algorithm=config.algorithm,
                    search_stats=search_stats, **overrides,
                )
        from .registry import create_matcher

        return create_matcher(
            config.algorithm, problem, config,
            search_stats=search_stats, **overrides,
        )

    # ------------------------------------------------------------------
    # One-shot execution
    # ------------------------------------------------------------------
    def match(self, objects: Dataset, functions: Sequence) -> MatchResult:
        """Stage, run, and package one complete matching run.

        A thin wrapper over the compile → prepare → serve pipeline:
        repeated calls with the same inputs serve from the same
        :class:`~repro.engine.plan.PreparedMatching` (staged problem,
        warm shard trees, persistent worker pool, result cache), so
        serving many matchings of one dataset does not re-index it —
        or even re-match it — every time.
        """
        prepared = self._prepare_cached(objects)
        return prepared.run(functions)

    # ------------------------------------------------------------------
    # Dynamic sessions
    # ------------------------------------------------------------------
    def open_session(self, objects: Dataset, functions: Sequence):
        """Open a long-lived :class:`~repro.dynamic.DynamicMatcher`.

        The session stages the workload once on the configured backend,
        computes the initial matching with the configured algorithm, and
        then maintains it under ``insert_object`` / ``delete_object`` /
        ``add_function`` / ``remove_function`` events by localized
        repair. The algorithm must support repair
        (:func:`~repro.engine.registry.algorithm_supports_repair`) and
        the run must be 1-1 (no ``capacities``). Delegates to
        :meth:`~repro.engine.plan.MatchingPlan.open_session`.
        """
        return self.plan.open_session(objects, functions)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release warm serving state (worker pool, caches).

        A sharded engine owns a persistent worker pool through its
        prepared state; call this (or use the engine as a context
        manager) when done serving rather than relying on garbage
        collection to reap worker processes. The engine remains usable:
        the next :meth:`match` simply prepares fresh state.
        """
        if self._prepared is not None:
            self._prepared.close()
            self._prepared = None
            self._prepared_key = None
            self._refs = None

    def __enter__(self) -> "MatchingEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MatchingEngine(algorithm={self.config.algorithm!r}, "
            f"backend={self.config.backend!r})"
        )


#: Sentinel distinguishing "argument not passed" from an explicit value,
#: so keyword defaults never clobber the fields of a passed ``config=``.
_UNSET = object()


def match(objects: Dataset, functions: Sequence, *,
          algorithm: str = _UNSET, backend: str = _UNSET,
          capacities=_UNSET, config: Optional[MatchingConfig] = None,
          **options) -> MatchResult:
    """One-shot stable matching — the library's front door.

    Parameters
    ----------
    objects:
        The object set ``O`` (a :class:`~repro.data.Dataset`).
    functions:
        The preference functions ``F`` (linear, or any monotone
        functions when ``algorithm="generic-sb"``).
    algorithm:
        Registered algorithm name (``"sb"``, ``"bf"``, ``"chain"``,
        ``"gs"``, ``"generic-sb"``, or anything you registered).
        Default ``"sb"``.
    backend:
        Registered storage backend (``"disk"`` for the paper's simulated
        cost model, ``"memory"`` for the serving fast path).
        Default ``"disk"``.
    capacities:
        Optional ``{object_id: units}`` for many-to-one matching.
    config:
        A full :class:`MatchingConfig` to start from; only keyword
        arguments that are *explicitly passed* override its fields.
    options:
        Any further :class:`MatchingConfig` field (``page_size``,
        ``buffer_policy``, ``deletion_mode``, ``seed``, ...).

    Returns
    -------
    MatchResult
        The stable pairs with provenance and costs.

    Examples
    --------
    >>> import repro
    >>> objects = repro.generate_independent(n=120, dims=2, seed=1)
    >>> prefs = repro.generate_preferences(n=5, dims=2, seed=2)
    >>> result = repro.match(objects, prefs, backend="memory")
    >>> (len(result), result.algorithm)
    (5, 'skyline')

    Every registered algorithm returns the identical stable pairs —
    here the index-free Gale-Shapley reference, sharded four ways:

    >>> again = repro.match(objects, prefs, algorithm="gs",
    ...                     backend="memory", shards=4,
    ...                     executor="serial")
    >>> again.as_set() == result.as_set()
    True

    Capacitated (many-to-one) runs return the same unified result type:

    >>> booked = repro.match(objects, prefs, backend="memory",
    ...                      capacities={3: 2})
    >>> booked.is_capacitated
    True
    """
    base = config if config is not None else MatchingConfig()
    overrides = dict(options)
    if algorithm is not _UNSET:
        overrides["algorithm"] = algorithm
    if backend is not _UNSET:
        overrides["backend"] = backend
    if capacities is not _UNSET:
        overrides["capacities"] = capacities
    engine = MatchingEngine(base.replace(**overrides))
    return engine.match(objects, functions)


def open_session(objects: Dataset, functions: Sequence, *,
                 algorithm: str = _UNSET, backend: str = _UNSET,
                 config: Optional[MatchingConfig] = None, **options):
    """Open a dynamic matching session — ``match``'s streaming sibling.

    Stages the workload once, computes the initial matching, and returns
    a :class:`~repro.dynamic.DynamicMatcher` that keeps the matching
    valid under object/function arrivals and departures::

        session = repro.open_session(objects, prefs, backend="memory",
                                     batch_size=8)
        session.delete_object(42)
        session.matching()   # == repro.match() on the surviving data

    Accepts the same configuration surface as :func:`match` (minus
    ``capacities`` — sessions are 1-1 — and ``shards`` — sessions are
    single-process), including the dynamic knobs ``batch_size``
    (default 1: every event applies immediately), ``repair_threshold``
    and ``compact_fraction``.

    Examples
    --------
    >>> import repro
    >>> objects = repro.generate_independent(n=80, dims=2, seed=3)
    >>> prefs = repro.generate_preferences(n=6, dims=2, seed=4)
    >>> session = repro.open_session(objects, prefs, backend="memory")
    >>> best = session.pairs[0]
    >>> session.delete_object(best.object_id)       # best object sold
    >>> session.partner_of(best.function_id) != best.object_id
    True
    >>> snapshot = session.matching()               # == a fresh match()
    >>> (len(snapshot), snapshot.algorithm)
    (6, 'dynamic-sb')
    """
    base = config if config is not None else MatchingConfig()
    overrides = dict(options)
    if algorithm is not _UNSET:
        overrides["algorithm"] = algorithm
    if backend is not _UNSET:
        overrides["backend"] = backend
    engine = MatchingEngine(base.replace(**overrides))
    return engine.open_session(objects, functions)
