"""Unit tests for repro.sim.workloads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer, using_tracer
from repro.placements.base import Placement
from repro.routing.dimension_order import DimensionOrderRouting
from repro.routing.faults import FaultMaskedRouting
from repro.routing.minimal import AllMinimalPaths
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.odr_unrestricted import UnrestrictedODR
from repro.routing.udr import UnorderedDimensionalRouting
from repro.sim.workloads import (
    build_packets,
    build_packets_per_pair,
    complete_exchange_packets,
)
from repro.torus.topology import Torus
from repro.util.itertools_ext import ordered_pair_index_arrays


class TestCompleteExchange:
    def test_packet_count(self, linear_4_2):
        pkts = complete_exchange_packets(
            linear_4_2, OrderedDimensionalRouting(2), seed=0
        )
        assert len(pkts) == 4 * 3

    def test_rounds_multiply(self, linear_4_2):
        pkts = complete_exchange_packets(
            linear_4_2, OrderedDimensionalRouting(2), seed=0, rounds=3
        )
        assert len(pkts) == 36
        assert len({p.packet_id for p in pkts}) == 36

    def test_stagger_sets_release(self, linear_4_2):
        pkts = complete_exchange_packets(
            linear_4_2, OrderedDimensionalRouting(2), seed=0, rounds=2, stagger=10
        )
        releases = {p.release_cycle for p in pkts}
        assert releases == {0, 10}

    def test_paths_minimal(self, linear_5_2):
        torus = linear_5_2.torus
        pkts = complete_exchange_packets(
            linear_5_2, UnorderedDimensionalRouting(), seed=1
        )
        for p in pkts:
            assert p.path_length == torus.lee_distance_ids(p.src, p.dst)

    def test_deterministic_given_seed(self, linear_4_2):
        a = complete_exchange_packets(linear_4_2, UnorderedDimensionalRouting(), seed=5)
        b = complete_exchange_packets(linear_4_2, UnorderedDimensionalRouting(), seed=5)
        assert [p.edge_ids for p in a] == [p.edge_ids for p in b]

    def test_invalid_rounds(self, linear_4_2):
        with pytest.raises(ValueError):
            complete_exchange_packets(
                linear_4_2, OrderedDimensionalRouting(2), rounds=0
            )


class TestBuildPackets:
    def test_explicit_pairs(self, linear_4_2):
        pkts = build_packets(
            linear_4_2, OrderedDimensionalRouting(2), [(0, 1), (2, 3)], seed=0
        )
        assert len(pkts) == 2
        ids = linear_4_2.node_ids
        assert pkts[0].src == ids[0] and pkts[0].dst == ids[1]

    def test_start_id_offset(self, linear_4_2):
        pkts = build_packets(
            linear_4_2, OrderedDimensionalRouting(2), [(0, 1)], start_id=100
        )
        assert pkts[0].packet_id == 100

    def test_pair_array_matches_pair_list(self, linear_4_2):
        pairs = [(0, 1), (3, 3), (2, 0), (0, 1)]
        udr = UnorderedDimensionalRouting()
        assert build_packets(linear_4_2, udr, pairs, seed=4) == build_packets(
            linear_4_2, udr, np.array(pairs), seed=4
        )

    def test_empty_pairs(self, linear_4_2):
        assert build_packets(linear_4_2, UnorderedDimensionalRouting(), []) == []

    def test_malformed_pairs_rejected(self, linear_4_2):
        with pytest.raises(ValueError):
            build_packets(
                linear_4_2, OrderedDimensionalRouting(2), np.zeros((2, 3), int)
            )

    def test_fault_masked_routing_uses_per_pair_loop(self, linear_4_2):
        masked = FaultMaskedRouting(OrderedDimensionalRouting(2), [1, 6])
        pairs = [(0, 1), (1, 2), (3, 0)]
        tracer = Tracer()
        with using_tracer(tracer):
            pkts = build_packets(linear_4_2, masked, pairs, seed=2)
        assert pkts == build_packets_per_pair(linear_4_2, masked, pairs, seed=2)
        assert all(not {1, 6} & set(p.edge_ids) for p in pkts)
        (span,) = [s for s in tracer.finished if s.name == "sim.build_packets"]
        assert span.attributes == {"path": "per_pair", "pairs": 3}

    def test_class_path_span(self, linear_4_3):
        tracer = Tracer()
        with using_tracer(tracer):
            complete_exchange_packets(linear_4_3, UnorderedDimensionalRouting())
        spans = [s for s in tracer.finished if s.name == "sim.build_packets"]
        assert [s.attributes for s in spans] == [
            {"path": "class", "pairs": 16 * 15, "classes": 15}
        ]


_ROUTINGS = ("odr", "dor", "udr", "uodr", "allmin")


@st.composite
def _packet_case(draw):
    k = draw(st.integers(min_value=2, max_value=7))
    d = draw(st.integers(min_value=1, max_value=3))
    torus = Torus(k, d)
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=torus.num_nodes - 1),
            min_size=1,
            max_size=min(8, torus.num_nodes),
            unique=True,
        )
    )
    placement = Placement(torus, ids)
    name = draw(st.sampled_from(_ROUTINGS))
    if name == "odr":
        routing = OrderedDimensionalRouting(d)
    elif name == "dor":
        routing = DimensionOrderRouting(draw(st.permutations(range(d))))
    elif name == "udr":
        routing = UnorderedDimensionalRouting()
    elif name == "uodr":
        routing = UnrestrictedODR()
    else:
        routing = AllMinimalPaths()
    index = st.integers(min_value=0, max_value=len(ids) - 1)
    # arbitrary pairs: i == j and duplicates included
    pairs = draw(st.lists(st.tuples(index, index), max_size=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return placement, routing, pairs, seed


class TestPerClassBuilderMatchesOracle:
    """The per-displacement-class builder against the per-pair loop."""

    @settings(max_examples=120, deadline=None)
    @given(_packet_case())
    def test_packets_equal_oracle(self, case):
        placement, routing, pairs, seed = case
        fast_rng = np.random.default_rng(seed)
        slow_rng = np.random.default_rng(seed)
        fast = build_packets(
            placement, routing, pairs, seed=fast_rng, release_cycle=3, start_id=7
        )
        slow = build_packets_per_pair(
            placement, routing, pairs, seed=slow_rng, release_cycle=3, start_id=7
        )
        assert fast == slow
        # same edge ids in the same order, and the generator left in the
        # same state, so later draws stay aligned too
        assert [p.edge_ids for p in fast] == [p.edge_ids for p in slow]
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(_packet_case())
    def test_complete_exchange_equals_oracle(self, case):
        placement, routing, _, seed = case
        fast = complete_exchange_packets(
            placement, routing, seed=seed, rounds=3, stagger=2
        )
        rng = np.random.default_rng(seed)
        pi, qi = ordered_pair_index_arrays(len(placement))
        pairs = list(zip(pi.tolist(), qi.tolist()))
        slow = []
        for r in range(3):
            slow += build_packets_per_pair(
                placement, routing, pairs, seed=rng,
                release_cycle=2 * r, start_id=len(slow),
            )
        assert fast == slow
        assert [p.packet_id for p in fast] == list(range(len(fast)))
