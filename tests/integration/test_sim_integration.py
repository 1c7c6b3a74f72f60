"""Integration: simulator vs analysis across placements and routings."""

import numpy as np
import pytest

from repro.core.analysis import compute_loads
from repro.load.engine import LoadEngine
from repro.load.udr_loads import udr_edge_loads
from repro.placements.fully import fully_populated_placement
from repro.placements.linear import linear_placement
from repro.placements.multiple import multiple_linear_placement
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.sim.engine import CycleEngine
from repro.sim.fault_injection import random_link_failures
from repro.sim.network import SimNetwork
from repro.sim.validate import compare_sim_to_analytic
from repro.sim.workloads import complete_exchange_packets
from repro.torus.topology import Torus


class TestSimMatchesAnalysis:
    @pytest.mark.parametrize(
        "placement_factory",
        [
            lambda: linear_placement(Torus(5, 2)),
            lambda: multiple_linear_placement(Torus(4, 2), 2),
            lambda: fully_populated_placement(Torus(3, 2)),
        ],
    )
    def test_odr_exact(self, placement_factory):
        placement = placement_factory()
        routing = OrderedDimensionalRouting(placement.torus.d)
        rep = compare_sim_to_analytic(
            placement, routing, compute_loads(placement, routing), seed=1
        )
        assert rep.exact_match

    @pytest.mark.parametrize("k", [8, 12])
    def test_odr_counts_equal_loads_on_3d_linear(self, k):
        # Definition 4's E(l) reproduced exactly by moving traffic
        placement = linear_placement(Torus(k, 3))
        routing = OrderedDimensionalRouting(3)
        packets = complete_exchange_packets(placement, routing, seed=0)
        result = CycleEngine(SimNetwork(placement.torus)).run(packets)
        assert result.delivered == placement.ordered_pairs_count()
        loads = LoadEngine().edge_loads(placement, routing)
        assert np.array_equal(result.link_counts, loads)

    def test_udr_statistical(self):
        placement = linear_placement(Torus(4, 2))
        rep = compare_sim_to_analytic(
            placement,
            UnorderedDimensionalRouting(),
            udr_edge_loads(placement),
            rounds=200,
            seed=2,
        )
        assert rep.total_sim == pytest.approx(rep.total_analytic)
        assert rep.max_abs_error < 0.2


class TestFaultedSimulation:
    def test_runs_on_faulted_network_with_masked_routing(self):
        from repro.routing.faults import FaultMaskedRouting

        torus = Torus(5, 2)
        placement = linear_placement(torus)
        udr = UnorderedDimensionalRouting()
        failures = random_link_failures(torus, 6, seed=3)
        masked = FaultMaskedRouting(udr, failures)
        coords = placement.coords()
        # only simulate pairs the masked relation still connects
        pairs = [
            (i, j)
            for i in range(len(placement))
            for j in range(len(placement))
            if i != j and masked.is_connected(torus, coords[i], coords[j])
        ]
        from repro.sim.workloads import build_packets

        packets = build_packets(placement, masked, pairs, seed=4)
        net = SimNetwork(torus, failed_edge_ids=failures)
        result = CycleEngine(net).run(packets)
        assert result.delivered == len(packets)
        assert np.all(net.link_counts[failures] == 0)


class TestContention:
    def test_full_torus_slower_than_linear(self):
        # per-processor completion time is worse when fully populated
        torus = Torus(4, 2)
        lin = linear_placement(torus)
        full = fully_populated_placement(torus)
        odr = OrderedDimensionalRouting(2)
        res_lin = CycleEngine(SimNetwork(torus)).run(
            complete_exchange_packets(lin, odr, seed=5)
        )
        res_full = CycleEngine(SimNetwork(torus)).run(
            complete_exchange_packets(full, odr, seed=5)
        )
        assert res_full.cycles > res_lin.cycles
        assert res_full.max_queue_length >= res_lin.max_queue_length
