"""Tests for repro.load.plancache — the structurally keyed spectral LRU.

The cache's contract has three independent pieces, each pinned here:
structural keys (shape and routing, never ``id()``), bounded
LRU residency (recency order, eviction at capacity), and the ambient
install/restore convention shared with ``using_engine``/``using_tracer``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EngineError
from repro.load.engine import DisplacementBackend, FFTBackend
from repro.load.plancache import (
    DEFAULT_PLAN_CAPACITY,
    PlanCache,
    SpectralPlan,
    current_plan_cache,
    set_plan_cache,
    using_plan_cache,
)
from repro.obs import Tracer, using_tracer
from repro.placements.random_placement import random_placement
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus


def _key(torus, routing):
    return PlanCache().get(torus, routing).key


class TestFingerprints:
    """The LRU key is the configuration's structure, never ``id()``."""

    def test_fingerprint_is_structural_not_identity(self):
        cache = PlanCache()
        first = cache.get(Torus(4, 2), OrderedDimensionalRouting(2))
        second = cache.get(Torus(4, 2), OrderedDimensionalRouting(2))
        assert first is second
        assert first.key == _key(Torus(4, 2), OrderedDimensionalRouting(2))

    def test_fingerprint_separates_configurations(self):
        torus = Torus(4, 2)
        odr = _key(torus, OrderedDimensionalRouting(2))
        udr = _key(torus, UnorderedDimensionalRouting())
        other_shape = _key(Torus(5, 2), OrderedDimensionalRouting(2))
        assert len({odr, udr, other_shape}) == 3

    def test_weighted_calls_share_the_complete_exchange_plan(self):
        # path templates do not depend on traffic: a weighted call reuses
        # the plan (and its templates) a complete-exchange call built.
        cache = PlanCache()
        torus, routing = Torus(4, 2), OrderedDimensionalRouting(2)
        placement = random_placement(torus, 5, seed=3)
        weights = np.ones((5, 5)) - np.eye(5)
        with using_plan_cache(cache):
            FFTBackend().compute(placement, routing)
            templates = len(cache.get(torus, routing).path_cache)
            FFTBackend().compute(placement, routing, pair_weights=weights)
        assert len(cache) == 1
        assert len(cache.get(torus, routing).path_cache) == templates
        assert cache.stats.misses == 1

    def test_displacement_backend_uses_the_ambient_plan(self):
        # one template store: the displacement backend reads and fills
        # the same plan's template cache the FFT backend uses.
        cache = PlanCache()
        torus, routing = Torus(4, 2), OrderedDimensionalRouting(2)
        placement = random_placement(torus, 5, seed=3)
        with using_plan_cache(cache):
            DisplacementBackend().compute(placement, routing)
            templates = len(cache.get(torus, routing).path_cache)
            FFTBackend().compute(placement, routing)
        assert templates > 0
        assert len(cache) == 1
        assert len(cache.get(torus, routing).path_cache) == templates
        assert cache.stats.misses == 1

    def test_routing_order_lands_in_the_fingerprint(self):
        from repro.routing.dimension_order import DimensionOrderRouting

        torus = Torus(3, 3)
        forward = _key(torus, DimensionOrderRouting((0, 1, 2)))
        reversed_ = _key(torus, DimensionOrderRouting((2, 1, 0)))
        assert forward != reversed_


class TestLRU:
    def test_get_builds_once_then_hits(self):
        cache = PlanCache()
        torus, routing = Torus(4, 2), OrderedDimensionalRouting(2)
        first = cache.get(torus, routing)
        second = cache.get(torus, routing)
        assert first is second
        assert isinstance(first, SpectralPlan)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 0)
        assert stats.hit_rate == 0.5

    def test_eviction_drops_least_recently_used(self):
        cache = PlanCache(capacity=2)
        odr = OrderedDimensionalRouting(2)
        a, b, c = Torus(3, 2), Torus(4, 2), Torus(5, 2)
        plan_a = cache.get(a, odr)
        plan_b = cache.get(b, odr)
        cache.get(a, odr)  # refresh a -> b is now the LRU entry
        cache.get(c, odr)  # evicts b
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert plan_a.key in cache
        assert plan_b.key not in cache
        # b must be rebuilt (a fresh miss), a is still resident
        assert cache.get(a, odr) is plan_a
        misses_before = cache.stats.misses
        cache.get(b, odr)
        assert cache.stats.misses == misses_before + 1

    def test_keys_in_recency_order(self):
        cache = PlanCache(capacity=4)
        odr = OrderedDimensionalRouting(2)
        plan_a = cache.get(Torus(3, 2), odr)
        plan_b = cache.get(Torus(4, 2), odr)
        cache.get(Torus(3, 2), odr)
        assert cache.keys() == [plan_b.key, plan_a.key]

    def test_clear_keeps_the_tallies(self):
        cache = PlanCache()
        cache.get(Torus(3, 2), OrderedDimensionalRouting(2))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(EngineError, match="capacity"):
            PlanCache(capacity=0)

    def test_default_capacity(self):
        assert PlanCache().capacity == DEFAULT_PLAN_CAPACITY

    def test_metrics_flow_through_the_ambient_tracer(self):
        tracer = Tracer(label="plancache-test")
        cache = PlanCache(capacity=1)
        odr = OrderedDimensionalRouting(2)
        with using_tracer(tracer):
            cache.get(Torus(3, 2), odr)
            cache.get(Torus(3, 2), odr)
            cache.get(Torus(4, 2), odr)  # evicts the first plan
        snapshot = tracer.metrics.snapshot()
        assert snapshot["counters"]["plancache.hits"] == 1
        assert snapshot["counters"]["plancache.misses"] == 2
        assert snapshot["counters"]["plancache.evictions"] == 1
        assert snapshot["gauges"]["plancache.size"] == 1


class TestAmbientCache:
    def test_using_plan_cache_installs_and_restores(self):
        outer = current_plan_cache()
        mine = PlanCache()
        with using_plan_cache(mine) as installed:
            assert installed is mine
            assert current_plan_cache() is mine
        assert current_plan_cache() is outer

    def test_using_none_is_a_no_op(self):
        outer = current_plan_cache()
        with using_plan_cache(None) as installed:
            assert installed is outer
            assert current_plan_cache() is outer

    def test_restores_on_exception(self):
        outer = current_plan_cache()
        with pytest.raises(RuntimeError):
            with using_plan_cache(PlanCache()):
                raise RuntimeError("boom")
        assert current_plan_cache() is outer

    def test_set_plan_cache_none_resets_to_a_fresh_default(self):
        previous = current_plan_cache()
        try:
            fresh = set_plan_cache(None)
            assert fresh is current_plan_cache()
            assert fresh is not previous
        finally:
            set_plan_cache(previous)
