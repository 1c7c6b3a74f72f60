"""Spectral plan cache — shared warm state for the FFT load backend.

The FFT backend's per-call cost splits into two parts: work that depends
only on the *configuration* ``(torus shape, routing)`` — displacement
path templates and forward usage spectra — and work that depends on the
*placement* — one indicator transform, one product, one inverse
transform.

This module keeps the first part in a process-wide bounded LRU.  Its key
is a plain tuple of the configuration's structure: torus shape, routing
class, routing name and dimension order.  Two routing *instances* with
the same structure share one plan, since ``id()`` never appears in a
key.  Traffic is not part of the key: path templates do not depend on
it, so weighted calls and the displacement backend share the
complete-exchange plan's template cache.  Plans are never persisted and
never sent between processes: a pool worker builds its own plan on
first use.

The ambient-policy convention mirrors ``using_engine`` /
``using_exec_policy`` / ``using_tracer``: instrumented code asks
:func:`current_plan_cache` for the cache the caller installed with
:func:`using_plan_cache`.

Observability: every lookup bumps ``plancache.hits`` / ``plancache.misses``
(and ``plancache.evictions`` when the LRU rolls), and the current entry
count lands on the ``plancache.size`` gauge — all through
:mod:`repro.obs`, so disabled tracing costs one no-op call.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterator

from repro.errors import EngineError
from repro.load.engine.displacement import DisplacementPathCache
from repro.obs.tracer import current_tracer
from repro.routing.base import RoutingAlgorithm
from repro.torus.topology import Torus

__all__ = [
    "DEFAULT_PLAN_CAPACITY",
    "SpectralPlan",
    "PlanCache",
    "PlanCacheStats",
    "get_default_plan_cache",
    "set_plan_cache",
    "current_plan_cache",
    "using_plan_cache",
]

#: plans kept by the default LRU before the least-recently-used rolls off.
DEFAULT_PLAN_CAPACITY = 32

#: per-plan bound on memoized spectra entries (cleared wholesale when
#: full).
MAX_PLAN_ENTRIES = 64


def _config_key(torus: Torus, routing: RoutingAlgorithm) -> tuple:
    """The LRU key of one configuration: ``(shape, routing class, routing
    name, dimension order)``.

    The dimension order covers the dimension-order family; together with
    the class and report name it determines the path set of every
    displacement class for the routings the engine accepts.
    """
    order = getattr(routing, "order", None)
    return (
        tuple(int(side) for side in torus.shape),
        type(routing).__name__,
        routing.name,
        None if order is None else tuple(int(i) for i in order),
    )


# ----------------------------------------------------------------- plans


class SpectralPlan:
    """The reusable spectral state of one ``(torus, routing)``.

    Holds the displacement path-template cache plus two memo layers the
    FFT backend fills lazily (values are opaque to this module):
    ``spectra`` holds the forward usage-tensor spectra of coset
    placements per difference-set key (the sorted class-code bytes), and
    ``placement_spectra`` aliases them per placement id-bytes so warm
    repeat calls skip the pair pass.
    """

    def __init__(
        self, torus: Torus, routing: RoutingAlgorithm, key: tuple
    ) -> None:
        self.torus = torus
        self.routing = routing
        self.key = key
        self.path_cache = DisplacementPathCache(torus, routing)
        self.spectra: Dict[bytes, Any] = {}
        self.placement_spectra: Dict[bytes, Any] = {}

    def __repr__(self) -> str:
        return (
            f"SpectralPlan(shape={self.torus.shape}, "
            f"routing={self.routing.name!r}, spectra={len(self.spectra)})"
        )


@dataclass(frozen=True)
class PlanCacheStats:
    """Lookup tallies of one :class:`PlanCache` (monotonic)."""

    hits: int
    misses: int
    evictions: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        total = self.lookups
        return self.hits / total if total else 0.0


class PlanCache:
    """A bounded LRU of :class:`SpectralPlan` entries, keyed by structure.

    Parameters
    ----------
    capacity:
        Maximum resident plans; inserting past it evicts the least
        recently used entry (and bumps ``plancache.evictions``).
    """

    def __init__(self, capacity: int = DEFAULT_PLAN_CAPACITY) -> None:
        if capacity < 1:
            raise EngineError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._plans: "OrderedDict[tuple, SpectralPlan]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------- lookup

    def get(self, torus: Torus, routing: RoutingAlgorithm) -> SpectralPlan:
        """The plan for this configuration, built on first request."""
        key = _config_key(torus, routing)
        metrics = current_tracer().metrics
        plan = self._plans.get(key)
        if plan is not None:
            self._hits += 1
            self._plans.move_to_end(key)
            metrics.counter("plancache.hits").add(1)
            return plan
        self._misses += 1
        metrics.counter("plancache.misses").add(1)
        plan = SpectralPlan(torus, routing, key)
        self._plans[key] = plan
        if len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self._evictions += 1
            metrics.counter("plancache.evictions").add(1)
        metrics.gauge("plancache.size").set(len(self._plans))
        return plan

    # ------------------------------------------------------------ queries

    @property
    def stats(self) -> PlanCacheStats:
        return PlanCacheStats(self._hits, self._misses, self._evictions)

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: tuple) -> bool:
        return key in self._plans

    def keys(self) -> list[tuple]:
        """Resident plan keys, least recently used first."""
        return list(self._plans)

    def clear(self) -> None:
        """Drop every resident plan (tallies are kept — they are history)."""
        self._plans.clear()

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"PlanCache(capacity={self.capacity}, plans={len(self)}, "
            f"hits={stats.hits}, misses={stats.misses}, "
            f"evictions={stats.evictions})"
        )


# ------------------------------------------------------------ ambient cache

_default_plan_cache: PlanCache | None = None


def get_default_plan_cache() -> PlanCache:
    """The process-wide plan cache used when none was installed."""
    global _default_plan_cache
    if _default_plan_cache is None:
        _default_plan_cache = PlanCache()
    return _default_plan_cache


def set_plan_cache(cache: PlanCache | None) -> PlanCache:
    """Replace the process-wide plan cache.

    ``None`` resets to a fresh default-capacity cache.  Returns the cache
    now in effect.
    """
    global _default_plan_cache
    _default_plan_cache = cache
    return get_default_plan_cache()


def current_plan_cache() -> PlanCache:
    """The ambient plan cache instrumented code should consult."""
    return get_default_plan_cache()


@contextlib.contextmanager
def using_plan_cache(cache: PlanCache | None) -> Iterator[PlanCache]:
    """Temporarily install ``cache`` as the process-wide plan cache.

    ``None`` is a no-op (the current cache stays in effect), matching the
    :func:`repro.load.engine.using_engine` convention so callers can
    thread an optional cache argument straight through.
    """
    global _default_plan_cache
    if cache is None:
        yield get_default_plan_cache()
        return
    previous = _default_plan_cache
    _default_plan_cache = cache
    try:
        yield cache
    finally:
        _default_plan_cache = previous
