"""Unit tests for the symmetry-reduced exact search engine."""

import dataclasses
import math

import pytest

from repro.errors import InvalidParameterError, SearchError
from repro.load.odr_loads import odr_edge_loads
from repro.placements.catalog import global_minimum_emax
from repro.placements.exact_search import exact_global_minimum
from repro.placements.linear import linear_placement
from repro.placements.symmetry import automorphism_group
from repro.torus.topology import Torus


@pytest.fixture(scope="module")
def catalog_4_2():
    return global_minimum_emax(Torus(4, 2), 4)


@pytest.fixture(scope="module")
def full_4_2():
    return exact_global_minimum(Torus(4, 2), 4, mode="full")


class TestFullModeVsBruteForce:
    def test_minimum_identical(self, catalog_4_2, full_4_2):
        assert full_4_2.minimum_emax == catalog_4_2.minimum_emax

    def test_num_optimal_identical(self, catalog_4_2, full_4_2):
        assert full_4_2.num_optimal == catalog_4_2.num_optimal

    def test_histogram_bit_identical(self, catalog_4_2, full_4_2):
        # restricted-ODR loads are exact integers in float64, so the
        # orbit-weighted histogram keys match the brute force exactly
        assert full_4_2.emax_histogram == catalog_4_2.emax_histogram

    def test_t3_matches_too(self):
        torus = Torus(3, 2)
        catalog = global_minimum_emax(torus, 3)
        result = exact_global_minimum(torus, 3, mode="full")
        assert result.minimum_emax == catalog.minimum_emax
        assert result.num_optimal == catalog.num_optimal
        assert result.emax_histogram == catalog.emax_histogram


class TestOrbitAccounting:
    def test_histogram_covers_all_placements(self, full_4_2):
        # Burnside cross-check: orbit sizes from stabilizer counting must
        # sum to C(k^d, n) exactly
        assert sum(full_4_2.emax_histogram.values()) == math.comb(16, 4)
        assert full_4_2.num_placements == math.comb(16, 4)

    def test_orbit_sizes_sum_via_group(self):
        # independent Burnside check straight from the group: every
        # size-3 subset of T_3^2, binned by canonicity
        torus = Torus(3, 2)
        group = automorphism_group(torus)
        import itertools

        total = 0
        for ids in itertools.combinations(range(torus.num_nodes), 3):
            canonical, stab = group.canonicity(ids)
            if canonical:
                total += group.order // stab
        assert total == math.comb(9, 3)

    def test_num_orbits_reported_in_full_mode(self, full_4_2):
        assert full_4_2.num_orbits == 33  # known orbit count of C(16,4)


class TestBoundMode:
    def test_matches_full_mode(self, full_4_2):
        result = exact_global_minimum(Torus(4, 2), 4, mode="bound")
        assert result.minimum_emax == full_4_2.minimum_emax
        assert result.num_optimal == full_4_2.num_optimal

    def test_no_histogram_in_bound_mode(self):
        result = exact_global_minimum(Torus(3, 2), 3, mode="bound")
        assert result.emax_histogram is None
        assert result.num_orbits is None

    def test_seeded_incumbent_still_exact(self, full_4_2):
        torus = Torus(4, 2)
        ub = float(odr_edge_loads(linear_placement(torus)).max())
        result = exact_global_minimum(
            torus, 4, mode="bound", initial_upper_bound=ub
        )
        assert result.minimum_emax == full_4_2.minimum_emax
        assert result.num_optimal == full_4_2.num_optimal

    def test_t5_certified(self):
        torus = Torus(5, 2)
        ub = float(odr_edge_loads(linear_placement(torus)).max())
        result = exact_global_minimum(
            torus, 5, mode="bound", initial_upper_bound=ub
        )
        assert result.minimum_emax == 2.0
        assert result.num_optimal == 1545
        assert result.num_placements == math.comb(25, 5)

    def test_unachievable_upper_bound_raises(self):
        with pytest.raises(SearchError):
            exact_global_minimum(
                Torus(3, 2), 3, mode="bound", initial_upper_bound=0.25
            )


class TestWitness:
    def test_witness_reevaluates_to_minimum(self, full_4_2):
        # independent full evaluation certifies the reported witness
        emax = float(odr_edge_loads(full_4_2.example_optimal).max())
        assert emax == full_4_2.minimum_emax

    def test_witness_size(self, full_4_2):
        assert len(full_4_2.example_optimal) == 4


class TestCounters:
    def test_zero_full_evaluations(self, full_4_2):
        # the whole point: every load vector is grown incrementally
        assert full_4_2.counters.full_evaluations == 0

    def test_far_fewer_leaf_variants_than_placements(self, full_4_2):
        assert (
            full_4_2.counters.variant_evaluations
            < full_4_2.num_placements / 5
        )

    def test_bound_mode_prunes(self):
        torus = Torus(4, 2)
        ub = float(odr_edge_loads(linear_placement(torus)).max())
        result = exact_global_minimum(
            torus, 4, mode="bound", initial_upper_bound=ub
        )
        counters = result.counters
        assert counters.subtrees_pruned_emax + counters.variants_dropped > 0
        assert counters.leaf_orbits < 33  # full mode visits all 33 orbits

    def test_t5_bound_counters_pinned(self):
        # pinned work counts: growing all point-group variants of a node
        # in one kernel call must leave pruning order and pair accounting
        # exactly as when the variants were grown one at a time
        result = exact_global_minimum(Torus(5, 2), 5)
        assert dataclasses.asdict(result.counters) == {
            "canonicity_checks": 641,
            "canonical_nodes": 158,
            "leaf_orbits": 15,
            "variant_evaluations": 30,
            "pair_updates": 1960,
            "full_evaluations": 0,
            "subtrees_pruned_emax": 84,
            "subtrees_pruned_separator": 0,
            "variants_dropped": 168,
        }
        assert result.minimum_emax == 2.0
        assert result.num_optimal == 1545
        assert result.example_optimal.node_ids.tolist() == [0, 1, 5, 6, 18]


class TestParallel:
    def test_parallel_matches_serial_full(self, full_4_2):
        result = exact_global_minimum(Torus(4, 2), 4, mode="full", processes=2)
        assert result.minimum_emax == full_4_2.minimum_emax
        assert result.num_optimal == full_4_2.num_optimal
        assert result.emax_histogram == full_4_2.emax_histogram

    def test_parallel_matches_serial_bound(self):
        torus = Torus(5, 2)
        serial = exact_global_minimum(torus, 5, mode="bound")
        parallel = exact_global_minimum(torus, 5, mode="bound", processes=2)
        assert parallel.minimum_emax == serial.minimum_emax
        assert parallel.num_optimal == serial.num_optimal


class TestValidation:
    def test_bad_mode(self):
        with pytest.raises(InvalidParameterError):
            exact_global_minimum(Torus(3, 2), 3, mode="fast")

    def test_bad_size(self):
        with pytest.raises(InvalidParameterError):
            exact_global_minimum(Torus(3, 2), 0)
        with pytest.raises(InvalidParameterError):
            exact_global_minimum(Torus(3, 2), 10)

    def test_space_too_large(self):
        with pytest.raises(InvalidParameterError):
            exact_global_minimum(Torus(8, 2), 20)

    def test_tiny_size_works(self):
        # size 1: every node is one orbit of the transitive group
        result = exact_global_minimum(Torus(3, 2), 1, mode="full")
        assert result.minimum_emax == 0.0
        assert result.num_optimal == 9
