"""Result caching for the serving path: keys, digests, and the LRU.

A served matching is fully determined by three things: the *plan* (the
validated configuration — algorithm, backend, capacities, every switch),
the *object state* (which objects exist right now), and the *preference
workload* (which functions are being matched). The serving layer
(:class:`~repro.engine.plan.PreparedMatching`,
:class:`~repro.engine.service.MatchingService`) keeps one cache per
prepared matching — so per plan — and caches results under the key::

    (objects version, preference digest)

* :func:`config_fingerprint` — a stable hash of every
  :class:`~repro.engine.config.MatchingConfig` field, naming the plan a
  cache belongs to (:attr:`MatchingPlan.fingerprint
  <repro.engine.plan.MatchingPlan.fingerprint>`); *any* config change (a
  capacity edit, a different algorithm) is a new plan, with its own
  prepared state and cache;
* the **objects version** is a counter owned by the prepared matching,
  bumped exactly when an object-set-changing event (insert/delete from a
  bound dynamic session, a restage) occurs — function-only churn leaves
  it untouched, because served results do not depend on the session's
  own function set;
* :func:`prefs_digest` — an exact, hashable rendering of the preference
  workload (``(fid, weights)`` per linear function), so equal workloads
  hit regardless of object identity.

:class:`ResultCache` is a plain LRU over those keys with hit/miss/
eviction counters. Stale keys (old object versions) are never served —
their version component can no longer be constructed — and age out of
the LRU naturally.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..errors import MatchingError
from typing import Any, Dict, Hashable, Optional, Sequence, Tuple

#: Default number of results a prepared matching keeps warm.
DEFAULT_CACHE_SIZE = 128


def config_fingerprint(config) -> str:
    """A stable hexadecimal fingerprint of a full matching configuration.

    Two configs with equal field values produce the same fingerprint;
    any differing field (including an entry inside the ``capacities``
    mapping) produces a different one. The fingerprint is what keeps one
    plan's cached results invisible to every other plan.

    Examples
    --------
    >>> from repro import MatchingConfig
    >>> from repro.engine.cache import config_fingerprint
    >>> a = config_fingerprint(MatchingConfig(backend="memory"))
    >>> a == config_fingerprint(MatchingConfig(backend="memory"))
    True
    >>> a == config_fingerprint(MatchingConfig(backend="memory",
    ...                                        capacities={3: 2}))
    False
    """
    parts = []
    for name in sorted(config.__dataclass_fields__):
        value = getattr(config, name)
        if isinstance(value, dict):
            value = tuple(sorted(value.items()))
        elif name == "capacities" and value is not None:
            value = tuple(sorted(value.items()))
        parts.append(f"{name}={value!r}")
    blob = ";".join(parts).encode("utf-8")
    import hashlib  # deferred: a plain ``import repro`` never digests

    return hashlib.blake2b(blob, digest_size=8).hexdigest()


class _IdentityKey:
    """Hashes and compares a wrapped object strictly by identity.

    Used for cache-key components whose own ``__eq__``/``__hash__``
    cannot be trusted to capture their full behaviour (a
    ``LinearPreference`` subclass compares equal on fid/weights even if
    extra state changes its scoring). The wrapper holds a strong
    reference, so while a cache entry lives the wrapped identity can
    never be recycled onto a different object.
    """

    __slots__ = ("obj",)

    def __init__(self, obj) -> None:
        self.obj = obj

    def __eq__(self, other) -> bool:
        return isinstance(other, _IdentityKey) and self.obj is other.obj

    def __hash__(self) -> int:
        return id(self.obj)


def prefs_digest(functions: Sequence) -> Hashable:
    """An exact, hashable key for one preference workload.

    Linear preferences digest to their ``(fid, weights)`` content, so
    two *equal* workloads hit the same cache entry even when the caller
    rebuilt the function objects. Every other function type — generic
    monotone functions, and even ``LinearPreference`` *subclasses*
    (which may score with state beyond the weight vector) — has no
    content this module can trust to be complete, so it digests by
    strict object identity (an :class:`_IdentityKey` holding a live
    reference, immune to content-based ``__eq__`` and to id reuse):
    repeated submissions of the *same* function objects hit, fresh
    objects conservatively miss.
    """
    from ..prefs import LinearPreference

    parts = []
    for function in functions:
        if type(function) is LinearPreference:
            parts.append((int(function.fid), tuple(function.weights)))
        else:
            parts.append((getattr(function, "fid", -1),
                          _IdentityKey(function)))
    return tuple(parts)


class ResultCache:
    """A keyed, thread-safe LRU with hit/miss/eviction counters.

    ``maxsize=0`` disables caching entirely (every :meth:`get` misses,
    :meth:`put` is a no-op) — the serving path stays correct, just cold.

    Every public method holds one internal :class:`threading.RLock`
    around the LRU mutation *and* the counters, because the serving path
    consults one cache from many threads at once (concurrent
    ``MatchingService.submit``/``submit_many`` calls, the asyncio
    front-end's executor): an unlocked ``OrderedDict.move_to_end``
    racing a ``popitem`` corrupts the recency list.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize < 0:
            raise MatchingError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.RLock()
        self.hits = 0        # guarded-by: _lock
        self.misses = 0      # guarded-by: _lock
        self.evictions = 0   # guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, refreshed as most-recently-used; else None.

        Unhashable keys (a workload of unhashable functions) always
        miss — the serving path stays correct, that workload is just
        never cached.
        """
        with self._lock:
            if self.maxsize == 0:
                self.misses += 1
                return None
            try:
                value = self._entries[key]
            except (KeyError, TypeError):
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the least recently used."""
        with self._lock:
            if self.maxsize == 0:
                return
            try:
                if key in self._entries:
                    self._entries.move_to_end(key)
                self._entries[key] = value
            except TypeError:
                return  # unhashable key: uncacheable workload
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def keys(self) -> Tuple[Hashable, ...]:
        """The live keys, least recently used first."""
        with self._lock:
            return tuple(self._entries)

    def snapshot(self) -> Tuple[Tuple[Tuple[Hashable, Any], ...], int, int, int]:
        """An immutable snapshot of entries (in LRU order) and counters.

        Cached values are shared by reference — served results are
        immutable by contract, so a snapshot needs no deep copy. Feed
        the snapshot back to :meth:`restore` to return the cache to
        exactly this state (the :mod:`repro.replay` rewind path).
        """
        with self._lock:
            return (
                tuple(self._entries.items()),
                self.hits, self.misses, self.evictions,
            )

    def restore(self, snapshot) -> None:
        """Restore entries, recency order, and counters from a snapshot.

        ``maxsize`` is a construction-time property and is not part of
        the snapshot; restoring a snapshot taken from a larger cache
        re-evicts down to this cache's bound.
        """
        entries, hits, misses, evictions = snapshot
        with self._lock:
            self._entries = OrderedDict(entries)
            self.hits = hits
            self.misses = misses
            self.evictions = evictions
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def info(self) -> Dict[str, int]:
        """Counters snapshot: hits, misses, evictions, size, maxsize."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"ResultCache(size={len(self._entries)}/{self.maxsize}, "
                f"hits={self.hits}, misses={self.misses})"
            )
