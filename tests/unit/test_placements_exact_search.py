"""Unit tests for the symmetry-reduced exact search engine."""

import dataclasses
import math
import multiprocessing

import pytest

from repro.bisection import separator
from repro.errors import InvalidParameterError, SearchError
from repro.load.odr_loads import odr_edge_loads
from repro.obs import Tracer, using_tracer
from repro.obs.tracer import NullTracer
from repro.placements import exact_search
from repro.placements.catalog import global_minimum_emax
from repro.placements.exact_search import exact_global_minimum
from repro.placements.linear import linear_placement
from repro.placements.symmetry import AutomorphismGroup, automorphism_group
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

    def test_t6_bound_counters_pinned(self):
        # the even-k search (all 8 point-group variants per orbit): every
        # count, the minimum and the witness are pinned so that changes to
        # the symmetry layer cannot silently move the search
        result = exact_global_minimum(Torus(6, 2), 6)
        assert dataclasses.asdict(result.counters) == {
            "canonicity_checks": 9570,
            "canonical_nodes": 3743,
            "leaf_orbits": 93,
            "variant_evaluations": 306,
            "pair_updates": 179260,
            "full_evaluations": 0,
            "subtrees_pruned_emax": 2880,
            "subtrees_pruned_separator": 0,
            "variants_dropped": 16070,
        }
        assert result.minimum_emax == 2.0
        assert result.num_optimal == 24
        assert result.example_optimal.node_ids.tolist() == [
            0, 2, 12, 16, 26, 28,
        ]


def _subtree_roots(torus, size):
    """The canonical subtree roots a sharded bound-mode search fans out."""
    upper, _ = exact_search.screen_initial_upper_bound(torus, size)
    context = exact_search._SearchContext(torus, size, "bound", upper)
    depth = min(exact_search._SPLIT_DEPTH, size - 1)
    frontier, _ = context.collect_frontier(depth)
    return frontier


class TestOneCanonicityTestPerNode:
    """Each tree node is tested once; no separator is ever counted."""

    @pytest.fixture
    def calls(self, monkeypatch, tmp_path):
        """Wrap ``canonicity`` and ``separator_size`` with call logs.

        Calls append to per-name files, so forked pool workers (which
        inherit the patch) are counted too.
        """
        original_canonicity = AutomorphismGroup.canonicity
        original_separator = separator.separator_size

        def log(name):
            with open(tmp_path / name, "a") as handle:
                handle.write(".")

        def canonicity(self, node_ids):
            log("canonicity")
            return original_canonicity(self, node_ids)

        def separator_size(*args, **kwargs):
            log("separator")
            return original_separator(*args, **kwargs)

        monkeypatch.setattr(AutomorphismGroup, "canonicity", canonicity)
        monkeypatch.setattr(separator, "separator_size", separator_size)
        monkeypatch.setattr(
            exact_search, "separator_size", separator_size, raising=False
        )

        def count(name):
            path = tmp_path / name
            return len(path.read_text()) if path.exists() else 0

        return count

    def test_serial_search_checks_each_candidate_once(self, calls):
        result = exact_global_minimum(Torus(5, 2), 5)
        assert calls("canonicity") == result.counters.canonicity_checks
        assert calls("separator") == 0

    @pytest.mark.parametrize(
        "sharding",
        [
            "checkpoint",
            pytest.param(
                "processes",
                marks=pytest.mark.skipif(
                    multiprocessing.get_all_start_methods()[0] != "fork",
                    reason="workers inherit the call-log patch only when "
                    "forked",
                ),
            ),
        ],
    )
    def test_sharded_search_adds_one_check_per_root(
        self, calls, tmp_path, sharding
    ):
        torus = Torus(5, 2)
        roots = _subtree_roots(torus, 5)
        kwargs = (
            {"checkpoint": str(tmp_path / "run.jsonl")}
            if sharding == "checkpoint"
            else {"processes": 2}
        )
        before = calls("canonicity")
        result = exact_global_minimum(torus, 5, **kwargs)
        assert roots
        assert (
            calls("canonicity") - before
            == result.counters.canonicity_checks + len(roots)
        )
        assert calls("separator") == 0

    def test_non_canonical_root_raises(self):
        context = exact_search._SearchContext(Torus(5, 2), 5, "bound", 2.0)
        with pytest.raises(SearchError, match="not canonical"):
            context.run_root((1, 2))


class TestSubtreeSpans:
    """A traced search opens one ``search.subtree`` span per subtree root."""

    @staticmethod
    def _traced(torus, size, **kwargs):
        tracer = Tracer()
        with using_tracer(tracer):
            result = exact_global_minimum(torus, size, **kwargs)
        return result, tracer.finished

    @staticmethod
    def _ancestor_names(span, spans):
        by_id = {s.span_id: s for s in spans}
        names = []
        parent = by_id.get(span.parent_id)
        while parent is not None:
            names.append(parent.name)
            parent = by_id.get(parent.parent_id)
        return names

    def test_serial_subtree_spans_nest_under_certify(self):
        torus = Torus(5, 2)
        untraced = exact_global_minimum(torus, 5)
        result, spans = self._traced(torus, 5)
        subtrees = [s for s in spans if s.name == "search.subtree"]
        assert len(subtrees) >= 2
        for span in subtrees:
            assert "search.certify" in self._ancestor_names(span, spans)
            # one span per prefix at the split depth, never nested
            assert "search.subtree" not in self._ancestor_names(span, spans)
            assert span.attributes["root"].count(".") == 2
        assert result.counters == untraced.counters
        assert (
            sum(s.attributes["leaf_orbits"] for s in subtrees)
            == result.counters.leaf_orbits
        )

    def test_sharded_run_opens_one_span_per_root(self, tmp_path):
        torus = Torus(5, 2)
        roots = _subtree_roots(torus, 5)
        serial = exact_global_minimum(torus, 5)
        result, spans = self._traced(
            torus, 5, checkpoint=str(tmp_path / "run.jsonl")
        )
        subtrees = [s for s in spans if s.name == "search.subtree"]
        assert sorted(s.attributes["root"] for s in subtrees) == sorted(
            exact_search._root_task_id(root) for root in roots
        )
        for span in subtrees:
            assert "search.certify" in self._ancestor_names(span, spans)
        assert result.minimum_emax == serial.minimum_emax
        assert result.num_optimal == serial.num_optimal
        assert (
            sum(s.attributes["leaf_orbits"] for s in subtrees)
            == result.counters.leaf_orbits
        )

    def test_untraced_search_opens_no_span(self, monkeypatch):
        opened = []
        original = NullTracer.span

        def span(self, name, **attributes):
            opened.append(name)
            return original(self, name, **attributes)

        monkeypatch.setattr(NullTracer, "span", span)
        exact_global_minimum(Torus(5, 2), 5)
        assert "search.subtree" not in opened


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

    def test_cap_applies_to_orbit_estimate(self):
        # C(64, 8) ≈ 4.4e9 raw placements exceed the cap, but only about
        # 4.4e9 / 512 ≈ 8.6e6 orbits do not: the search is admitted.  An
        # incumbent of 0 drops every variant at depth 2, so the search
        # ends at once with the "not achievable" error.
        torus = Torus(8, 2)
        assert math.comb(64, 8) > exact_search.MAX_EXACT_SEARCH
        with pytest.raises(SearchError, match="no placement achieved"):
            exact_global_minimum(torus, 8, initial_upper_bound=0)

    def test_torus_beyond_mask_table_limit_is_refused(self):
        # 8.4e6 placements form only 43 orbits, but the canonicity test
        # would need an 8.6 GB table on T_16^3
        with pytest.raises(InvalidParameterError, match="translation table"):
            exact_global_minimum(Torus(16, 3), 2)

    def test_orbit_estimate_above_cap_names_both_counts(self):
        space = math.comb(64, 12)
        orbits = -(-space // 512)
        assert orbits > exact_search.MAX_EXACT_SEARCH
        with pytest.raises(InvalidParameterError) as info:
            exact_global_minimum(Torus(8, 2), 12)
        assert str(space) in str(info.value)
        assert str(orbits) in str(info.value)

    def test_tiny_size_works(self):
        # size 1: every node is one orbit of the transitive group
        result = exact_global_minimum(Torus(3, 2), 1, mode="full")
        assert result.minimum_emax == 0.0
        assert result.num_optimal == 9
