"""Unit tests for repro.sim.engine — the cycle-accurate core."""

import hashlib

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.placements.fully import fully_populated_placement
from repro.placements.linear import linear_placement
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.sim.engine import CycleEngine
from repro.sim.network import SimNetwork
from repro.sim.packet import Packet
from repro.sim.workloads import complete_exchange_packets
from repro.torus.topology import Torus


def _path_edges(torus, coords_seq):
    """Edge ids along consecutive coordinates."""
    ei = torus.edges
    ids = [torus.node_id(c) for c in coords_seq]
    return tuple(
        ei.edge_between(ids[i], ids[i + 1]) for i in range(len(ids) - 1)
    )


class TestBasicDelivery:
    def test_single_packet_latency_equals_hops(self, torus_4_2):
        edges = _path_edges(torus_4_2, [(0, 0), (0, 1), (0, 2)])
        pkt = Packet(0, torus_4_2.node_id((0, 0)), torus_4_2.node_id((0, 2)), edges)
        result = CycleEngine(SimNetwork(torus_4_2)).run([pkt])
        assert result.delivered == 1
        assert pkt.latency == 2
        assert result.cycles == 2
        assert result.max_link_count == 1

    def test_zero_hop_packet(self, torus_4_2):
        pkt = Packet(0, 3, 3, ())
        result = CycleEngine(SimNetwork(torus_4_2)).run([pkt])
        assert result.delivered == 1
        assert pkt.latency == 0
        assert result.cycles == 0

    def test_empty_workload(self, torus_4_2):
        result = CycleEngine(SimNetwork(torus_4_2)).run([])
        assert result.delivered == 0
        assert result.cycles == 0


class TestContention:
    def test_shared_link_serializes(self, torus_4_2):
        # two packets over the same single link: second waits one cycle
        edges = _path_edges(torus_4_2, [(0, 0), (0, 1)])
        pkts = [
            Packet(0, 0, 1, edges),
            Packet(1, 0, 1, edges),
        ]
        result = CycleEngine(SimNetwork(torus_4_2)).run(pkts)
        assert sorted(p.latency for p in pkts) == [1, 2]
        assert result.link_counts[edges[0]] == 2
        assert result.max_queue_length == 2

    def test_disjoint_links_parallel(self, torus_4_2):
        a = _path_edges(torus_4_2, [(0, 0), (0, 1)])
        b = _path_edges(torus_4_2, [(1, 0), (1, 1)])
        pkts = [Packet(0, 0, 1, a), Packet(1, 4, 5, b)]
        result = CycleEngine(SimNetwork(torus_4_2)).run(pkts)
        assert all(p.latency == 1 for p in pkts)
        assert result.cycles == 1

    def test_release_cycle_staggering(self, torus_4_2):
        edges = _path_edges(torus_4_2, [(0, 0), (0, 1)])
        pkts = [
            Packet(0, 0, 1, edges, release_cycle=0),
            Packet(1, 0, 1, edges, release_cycle=5),
        ]
        result = CycleEngine(SimNetwork(torus_4_2)).run(pkts)
        assert pkts[0].latency == 1
        assert pkts[1].latency == 1
        assert result.cycles == 6


class TestFailures:
    def test_path_over_failed_link_rejected(self, torus_4_2):
        edges = _path_edges(torus_4_2, [(0, 0), (0, 1)])
        net = SimNetwork(torus_4_2, failed_edge_ids=[edges[0]])
        with pytest.raises(SimulationError):
            CycleEngine(net).run([Packet(0, 0, 1, edges)])

    def test_max_cycles_guard(self, torus_4_2):
        edges = _path_edges(torus_4_2, [(0, 0), (0, 1)])
        pkt = Packet(0, 0, 1, edges, release_cycle=100)
        with pytest.raises(SimulationError):
            CycleEngine(SimNetwork(torus_4_2), max_cycles=10).run([pkt])


class TestResultMetrics:
    def test_throughput(self, torus_4_2):
        a = _path_edges(torus_4_2, [(0, 0), (0, 1)])
        result = CycleEngine(SimNetwork(torus_4_2)).run([Packet(0, 0, 1, a)])
        assert result.throughput == 1.0

    def test_latencies_array(self, torus_4_2):
        a = _path_edges(torus_4_2, [(0, 0), (0, 1), (0, 2)])
        result = CycleEngine(SimNetwork(torus_4_2)).run([Packet(0, 0, 2, a)])
        assert np.array_equal(result.latencies, [2])
        assert result.mean_latency == 2.0


def _digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


class TestFrozenRuns:
    """Whole runs pinned to values recorded before the engine kept packet
    progress in local lists and counted traversals with one bincount."""

    def test_t5x2_linear_odr(self):
        placement = linear_placement(Torus(5, 2))
        packets = complete_exchange_packets(
            placement, OrderedDimensionalRouting(2), seed=0
        )
        result = CycleEngine(SimNetwork(placement.torus)).run(packets)
        assert result.cycles == 5
        assert result.max_queue_length == 2
        assert result.latencies.tolist() == [
            2, 5, 4, 3, 2, 2, 5, 5, 4, 3, 2, 5, 4, 4, 3, 3, 2, 5, 4, 3,
        ]
        assert result.link_counts.tolist() == [
            2, 2, 0, 0, 1, 0, 0, 2, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 2, 0,
            1, 0, 0, 2, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 2, 0, 2, 2, 0, 0,
            0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 2, 0, 2, 2, 0, 0, 1, 0, 0, 2,
            0, 0, 1, 0, 0, 1, 2, 0, 2, 2, 0, 0, 1, 0, 0, 2, 0, 0, 0, 1,
            0, 1, 2, 0, 2, 2, 0, 0, 1, 0, 0, 2, 0, 0, 0, 1, 0, 0, 1, 0,
        ]
        assert [p.hop for p in packets[:5]] == [2, 4, 4, 2, 2]
        assert [p.delivered_cycle for p in packets[:5]] == [2, 5, 4, 3, 2]

    def test_t4x2_fully_populated_udr_three_rounds(self):
        placement = fully_populated_placement(Torus(4, 2))
        packets = complete_exchange_packets(
            placement, UnorderedDimensionalRouting(), seed=5, rounds=3, stagger=2
        )
        result = CycleEngine(SimNetwork(placement.torus)).run(packets)
        assert result.cycles == 41
        assert result.max_queue_length == 21
        assert result.delivered == 720
        assert np.bincount(result.latencies).tolist() == [
            0, 34, 31, 33, 35, 24, 28, 27, 17, 21, 23, 16, 15, 15, 10, 9, 14,
            10, 9, 16, 19, 18, 24, 23, 22, 26, 23, 26, 24, 14, 21, 16, 26, 16,
            9, 14, 4, 3, 3, 1, 1,
        ]
        assert _digest(result.latencies.tolist()) == (
            "da072c6d1a37612e5dd2ad7478e6a3cc29c25b9e6faf688fb712d3d7cb2d4fa4"
        )
        assert result.link_counts.tolist() == [
            34, 9, 38, 13, 38, 12, 36, 10, 32, 13, 39, 11, 40, 14, 39, 10,
            33, 12, 39, 15, 41, 11, 38, 13, 32, 12, 34, 14, 38, 13, 35, 13,
            35, 17, 32, 10, 40, 12, 35, 13, 35, 9, 34, 11, 34, 10, 37, 11,
            33, 11, 35, 10, 36, 16, 35, 12, 37, 11, 37, 12, 38, 10, 33, 14,
        ]
        assert [p.hop for p in packets[:5]] == [1, 2, 1, 1, 2]
        assert [p.delivered_cycle for p in packets[:5]] == [1, 9, 1, 1, 13]

    def test_failed_link_names_first_offending_packet(self):
        torus = Torus(5, 2)
        packets = complete_exchange_packets(
            linear_placement(torus), OrderedDimensionalRouting(2), seed=0
        )
        # edge 36 is on the paths of packets 5 and 6; 5 comes first
        assert [p.packet_id for p in packets if 36 in p.edge_ids] == [5, 6]
        net = SimNetwork(torus, failed_edge_ids=[36])
        with pytest.raises(SimulationError, match=r"^packet 5 routed over a failed link"):
            CycleEngine(net).run(packets)
        assert not net.link_counts.any()

    def test_max_cycles_abort_keeps_partial_progress(self, torus_4_2):
        edges = _path_edges(torus_4_2, [(0, 0), (0, 1), (0, 2)])
        early = Packet(0, 0, 2, edges)
        late = Packet(1, 0, 2, edges, release_cycle=100)
        net = SimNetwork(torus_4_2)
        with pytest.raises(SimulationError):
            CycleEngine(net, max_cycles=10).run([early, late])
        assert (early.hop, early.delivered_cycle) == (2, 2)
        assert (late.hop, late.delivered_cycle) == (0, None)
        assert net.link_counts[list(edges)].tolist() == [1, 1]
        assert net.link_counts.sum() == 2

    def test_counts_accumulate_on_a_reused_network(self, torus_4_2):
        edges = _path_edges(torus_4_2, [(0, 0), (0, 1)])
        net = SimNetwork(torus_4_2)
        engine = CycleEngine(net)
        engine.run([Packet(0, 0, 1, edges)])
        result = engine.run([Packet(0, 0, 1, edges)])
        assert result.link_counts[edges[0]] == 2
