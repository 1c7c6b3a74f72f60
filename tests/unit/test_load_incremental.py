"""Unit tests for the incremental ODR load updates (swap/add deltas).

ODR loads are integer pair counts, so every comparison here is exact.
The gather kernel is checked bit for bit against re-tracing the changed
pairs with :func:`accumulate_pair_loads`, unbatched and batched.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.load.odr_loads import (
    accumulate_pair_loads,
    odr_edge_loads,
    odr_edge_loads_add_delta,
    odr_edge_loads_swap_delta,
)
from repro.placements.base import Placement
from repro.placements.random_placement import random_placement
from repro.torus.topology import Torus


def _swap(torus, placement, out_pos, router_pick):
    ids = placement.node_ids
    removed = int(ids[out_pos])
    routers = np.setdiff1d(np.arange(torus.num_nodes), ids)
    added = int(routers[router_pick])
    kept = np.delete(ids, out_pos)
    return removed, added, kept


class TestSwapDelta:
    @pytest.mark.parametrize("k,d", [(4, 2), (5, 2), (4, 3)])
    def test_matches_full_recompute(self, k, d):
        torus = Torus(k, d)
        placement = random_placement(torus, min(8, torus.num_nodes - 2), seed=k + d)
        loads = odr_edge_loads(placement)
        removed, added, kept = _swap(torus, placement, 2, 1)
        incremental = odr_edge_loads_swap_delta(
            torus, loads, torus.coords(kept), torus.coord(removed),
            torus.coord(added)
        )
        full = odr_edge_loads(Placement(torus, list(kept) + [added]))
        assert np.array_equal(incremental, full)

    def test_input_not_mutated(self):
        torus = Torus(4, 2)
        placement = random_placement(torus, 5, seed=0)
        loads = odr_edge_loads(placement)
        before = loads.copy()
        removed, added, kept = _swap(torus, placement, 0, 0)
        odr_edge_loads_swap_delta(
            torus, loads, torus.coords(kept), torus.coord(removed),
            torus.coord(added)
        )
        assert np.array_equal(loads, before)

    def test_single_processor_placement(self):
        # kept set empty: swapping the only processor yields zero loads
        torus = Torus(4, 2)
        placement = Placement(torus, [3])
        loads = odr_edge_loads(placement)
        out = odr_edge_loads_swap_delta(
            torus, loads, np.empty((0, 2), dtype=np.int64),
            torus.coord(3), torus.coord(7)
        )
        assert np.array_equal(out, loads)  # both all-zero

    def test_identity_swap(self):
        # removing and re-adding the same node is a no-op
        torus = Torus(5, 2)
        placement = random_placement(torus, 6, seed=1)
        loads = odr_edge_loads(placement)
        ids = placement.node_ids
        kept = np.delete(ids, 3)
        out = odr_edge_loads_swap_delta(
            torus, loads, torus.coords(kept), torus.coord(int(ids[3])),
            torus.coord(int(ids[3]))
        )
        assert np.array_equal(out, loads)


class TestAddDelta:
    @pytest.mark.parametrize("k,d,seed", [(4, 2, 0), (5, 2, 1), (4, 3, 2)])
    def test_random_grow_sequence_matches_fresh_evaluation(self, k, d, seed):
        # grow a random placement one node at a time; after every step the
        # incrementally maintained loads must equal a from-scratch pass
        torus = Torus(k, d)
        rng = np.random.default_rng(seed)
        ids = rng.choice(torus.num_nodes, size=min(8, torus.num_nodes), replace=False)
        loads = np.zeros(torus.num_edges)
        for m in range(1, len(ids)):
            loads = odr_edge_loads_add_delta(
                torus, loads, torus.coords(ids[:m]), torus.coord(int(ids[m]))
            )
            fresh = odr_edge_loads(Placement(torus, list(ids[: m + 1])))
            assert np.array_equal(loads, fresh)

    def test_partial_emax_monotone_under_growth(self):
        # the property the branch-and-bound pruning relies on
        torus = Torus(5, 2)
        rng = np.random.default_rng(3)
        ids = rng.choice(torus.num_nodes, size=7, replace=False)
        loads = np.zeros(torus.num_edges)
        previous = 0.0
        for m in range(1, len(ids)):
            loads = odr_edge_loads_add_delta(
                torus, loads, torus.coords(ids[:m]), torus.coord(int(ids[m]))
            )
            assert loads.max() >= previous
            previous = float(loads.max())

    def test_empty_kept_set_is_identity(self):
        torus = Torus(4, 2)
        loads = np.zeros(torus.num_edges)
        out = odr_edge_loads_add_delta(
            torus, loads, np.empty((0, 2), dtype=np.int64), torus.coord(5)
        )
        assert np.array_equal(out, np.zeros_like(out))

    def test_input_not_mutated(self):
        torus = Torus(4, 2)
        placement = random_placement(torus, 5, seed=4)
        loads = odr_edge_loads(placement)
        before = loads.copy()
        routers = np.setdiff1d(np.arange(torus.num_nodes), placement.node_ids)
        odr_edge_loads_add_delta(
            torus, loads, placement.coords(), torus.coord(int(routers[0]))
        )
        assert np.array_equal(loads, before)

    def test_agrees_with_swap_from_nowhere(self):
        # adding node a == swapping a in while removing nothing: cross-check
        # against building the grown placement and comparing swap/add paths
        torus = Torus(5, 2)
        placement = random_placement(torus, 6, seed=5)
        loads = odr_edge_loads(placement)
        routers = np.setdiff1d(np.arange(torus.num_nodes), placement.node_ids)
        added = int(routers[2])
        grown = odr_edge_loads_add_delta(
            torus, loads, placement.coords(), torus.coord(added)
        )
        full = odr_edge_loads(
            Placement(torus, list(placement.node_ids) + [added])
        )
        assert np.array_equal(grown, full)


class TestAccumulatePairLoads:
    def test_scale_minus_cancels(self):
        torus = Torus(5, 2)
        p = np.array([[0, 0], [1, 2]])
        q = np.array([[2, 3], [4, 4]])
        loads = np.zeros(torus.num_edges)
        accumulate_pair_loads(loads, 5, 2, p, q, scale=+1.0)
        accumulate_pair_loads(loads, 5, 2, p, q, scale=-1.0)
        assert np.array_equal(loads, np.zeros_like(loads))

    def test_matches_engine_on_all_pairs(self):
        torus = Torus(4, 2)
        placement = random_placement(torus, 5, seed=2)
        coords = placement.coords()
        m = len(placement)
        idx = np.arange(m)
        pi, qi = np.meshgrid(idx, idx, indexing="ij")
        keep = pi != qi
        loads = np.zeros(torus.num_edges)
        accumulate_pair_loads(loads, 4, 2, coords[pi[keep]], coords[qi[keep]])
        assert np.array_equal(loads, odr_edge_loads(placement))

    def test_weights(self):
        torus = Torus(4, 2)
        p = np.array([[0, 0]])
        q = np.array([[0, 1]])
        loads = np.zeros(torus.num_edges)
        accumulate_pair_loads(
            loads, 4, 2, p, q, weights=np.array([2.5])
        )
        assert loads.sum() == pytest.approx(2.5)


def _oracle_swap(k, d, loads, kept, removed, added):
    """Re-trace the changed pairs hop by hop (``removed``/``added`` may be None)."""
    out = np.array(loads, dtype=np.float64, copy=True)
    kept = np.asarray(kept, dtype=np.int64).reshape(-1, d)
    n = kept.shape[0]
    for node, scale in ((removed, -1.0), (added, +1.0)):
        if node is None or n == 0:
            continue
        rep = np.repeat(np.asarray(node, dtype=np.int64).reshape(1, d), n, axis=0)
        accumulate_pair_loads(out, k, d, rep, kept, scale=scale)
        accumulate_pair_loads(out, k, d, kept, rep, scale=scale)
    return out


@st.composite
def _delta_case(draw):
    """A torus, base loads and ``B`` (kept, removed, added) rows over it."""
    k = draw(st.integers(min_value=2, max_value=8))
    d = draw(st.integers(min_value=1, max_value=4))
    torus = Torus(k, d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = torus.num_nodes
    m = draw(st.integers(min_value=0, max_value=min(n, 9)))
    batch = draw(st.integers(min_value=0, max_value=4))
    kept = np.stack(
        [torus.coords(rng.choice(n, size=m, replace=False)).reshape(m, d)
         for _ in range(batch)]
    ) if batch else np.empty((0, m, d), dtype=np.int64)
    removed = torus.coords(rng.integers(0, n, size=batch)).reshape(batch, d)
    added = torus.coords(rng.integers(0, n, size=batch)).reshape(batch, d)
    if draw(st.booleans()):
        added = removed.copy()  # identity swaps
    loads = rng.integers(0, 40, size=(batch, torus.num_edges)).astype(np.float64)
    return torus, loads, kept, removed, added


class TestGatherKernelProperties:
    @given(_delta_case())
    @settings(max_examples=80, deadline=None)
    def test_swap_matches_oracle(self, case):
        torus, loads, kept, removed, added = case
        k, d = torus.k, torus.d
        batched = odr_edge_loads_swap_delta(torus, loads, kept, removed, added)
        assert batched.shape == loads.shape
        for row in range(loads.shape[0]):
            expected = _oracle_swap(
                k, d, loads[row], kept[row], removed[row], added[row]
            )
            single = odr_edge_loads_swap_delta(
                torus, loads[row], kept[row], removed[row], added[row]
            )
            assert np.array_equal(single, expected)
            assert np.array_equal(batched[row], expected)

    @given(_delta_case())
    @settings(max_examples=80, deadline=None)
    def test_add_matches_oracle(self, case):
        torus, loads, kept, _removed, added = case
        k, d = torus.k, torus.d
        batched = odr_edge_loads_add_delta(torus, loads, kept, added)
        assert batched.shape == loads.shape
        for row in range(loads.shape[0]):
            expected = _oracle_swap(k, d, loads[row], kept[row], None, added[row])
            single = odr_edge_loads_add_delta(
                torus, loads[row], kept[row], added[row]
            )
            assert np.array_equal(single, expected)
            assert np.array_equal(batched[row], expected)


class TestBatchedEdgeCases:
    def test_zero_alive_rows(self):
        torus = Torus(4, 2)
        loads = np.empty((0, torus.num_edges))
        kept = np.empty((0, 3, 2), dtype=np.int64)
        points = np.empty((0, 2), dtype=np.int64)
        grown = odr_edge_loads_add_delta(torus, loads, kept, points)
        swapped = odr_edge_loads_swap_delta(torus, loads, kept, points, points)
        assert grown.shape == swapped.shape == (0, torus.num_edges)

    def test_empty_kept_batched_is_identity(self):
        torus = Torus(5, 3)
        loads = np.arange(2 * torus.num_edges, dtype=np.float64).reshape(2, -1)
        kept = np.empty((2, 0, 3), dtype=np.int64)
        points = torus.coords([4, 9])
        grown = odr_edge_loads_add_delta(torus, loads, kept, points)
        swapped = odr_edge_loads_swap_delta(torus, loads, kept, points, points[::-1])
        assert np.array_equal(grown, loads)
        assert np.array_equal(swapped, loads)

    def test_identity_swap_batched(self):
        torus = Torus(6, 2)
        placement = random_placement(torus, 7, seed=8)
        loads = odr_edge_loads(placement)
        ids = placement.node_ids
        kept = np.stack([torus.coords(np.delete(ids, i)) for i in range(3)])
        same = torus.coords(ids[:3])
        out = odr_edge_loads_swap_delta(
            torus, np.broadcast_to(loads, (3, loads.size)), kept, same, same
        )
        assert np.array_equal(out, np.broadcast_to(loads, out.shape))

    def test_batched_rows_match_full_recompute(self):
        # every row of one batched swap call is a different neighbour
        torus = Torus(6, 2)
        placement = random_placement(torus, 6, seed=9)
        loads = odr_edge_loads(placement)
        ids = placement.node_ids
        routers = np.setdiff1d(np.arange(torus.num_nodes), ids)
        swaps = [(0, 0), (2, 5), (5, 11), (3, 3)]
        out = odr_edge_loads_swap_delta(
            torus,
            np.broadcast_to(loads, (len(swaps), loads.size)),
            np.stack([torus.coords(np.delete(ids, i)) for i, _ in swaps]),
            torus.coords([ids[i] for i, _ in swaps]),
            torus.coords([routers[j] for _, j in swaps]),
        )
        for row, (i, j) in enumerate(swaps):
            grown = list(np.delete(ids, i)) + [int(routers[j])]
            assert np.array_equal(out[row], odr_edge_loads(Placement(torus, grown)))
