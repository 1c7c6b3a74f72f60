"""Workload builders: placement + routing → packet lists.

The central one is :func:`complete_exchange_packets` — every processor
sends one message to every other processor, each message's path drawn
uniformly at random from the routing relation (Definition 3's selection
rule).  ``rounds > 1`` repeats the exchange, which sharpens the Monte-Carlo
estimate of the fractional UDR loads.

:func:`build_packets` builds packets **per displacement class** when the
routing declares ``translation_invariant``: the path set of ``p → q`` is
the path set of ``0 → (q − p) mod k`` translated by ``p``, so it asks the
routing for one path set per distinct displacement (255 calls for the
65,280 pairs of a T_16³ linear placement), draws every pair's path choice
with one vectorized ``rng.integers`` call, and translates the chosen
paths onto their sources with array arithmetic.  The vectorized draw
yields the same values and leaves the generator in the same state as one
scalar draw per pair, so seeded output is bit-identical to
:func:`build_packets_per_pair` — the per-pair loop that serves routings
without translation invariance (:class:`~repro.routing.faults.
FaultMaskedRouting`) and is the test oracle for the class path.
"""

from __future__ import annotations

import numpy as np

from repro.obs.tracer import current_tracer
from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm
from repro.sim.packet import Packet
from repro.util.itertools_ext import ordered_pair_index_arrays
from repro.util.rng import resolve_rng

__all__ = ["complete_exchange_packets", "build_packets", "build_packets_per_pair"]

#: pairs translated per array step; bounds the ``(chunk, hops, d)``
#: temporaries so peak memory does not grow with the pair count.
PAIR_CHUNK = 4096


def build_packets(
    placement: Placement,
    routing: RoutingAlgorithm,
    pairs,
    seed=None,
    release_cycle: int = 0,
    start_id: int = 0,
) -> list[Packet]:
    """Packets for explicit ``(src_index, dst_index)`` placement-index pairs.

    ``pairs`` is a sequence of index pairs or an ``(n, 2)`` integer array;
    packet ``start_id + r`` carries pair ``r``.  The result is identical
    to :func:`build_packets_per_pair` for the same seed.
    """
    rng = resolve_rng(seed)
    tracer = current_tracer()
    if not getattr(routing, "translation_invariant", False):
        with tracer.span("sim.build_packets", path="per_pair") as span:
            packets = build_packets_per_pair(
                placement, routing, pairs, rng, release_cycle, start_id
            )
            span.annotate(pairs=len(packets))
        return packets
    index = _pair_array(pairs)
    with tracer.span(
        "sim.build_packets", path="class", pairs=len(index)
    ) as span:
        packets, classes = _build_by_class(
            placement, routing, index, rng, release_cycle, start_id
        )
        span.annotate(classes=classes)
    return packets


def build_packets_per_pair(
    placement: Placement,
    routing: RoutingAlgorithm,
    pairs,
    seed=None,
    release_cycle: int = 0,
    start_id: int = 0,
) -> list[Packet]:
    """One ``routing.paths`` call and one scalar path draw per pair.

    Works for every routing; :func:`build_packets` uses it for routings
    that are not translation-invariant, and the tests use it as the
    oracle of the per-class path.
    """
    rng = resolve_rng(seed)
    torus = placement.torus
    coords = placement.coords()
    ids = placement.node_ids
    packets = []
    pid = start_id
    for i, j in pairs:
        paths = routing.paths(torus, coords[i], coords[j])
        path = paths[int(rng.integers(len(paths)))]
        packets.append(
            Packet(
                packet_id=pid,
                src=int(ids[i]),
                dst=int(ids[j]),
                edge_ids=path.edge_ids,
                release_cycle=release_cycle,
            )
        )
        pid += 1
    return packets


def _pair_array(pairs) -> np.ndarray:
    """``pairs`` as an ``(n, 2)`` int64 array of placement indices."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    index = np.asarray(pairs, dtype=np.int64)
    if index.size == 0:
        return index.reshape(0, 2)
    if index.ndim != 2 or index.shape[1] != 2:
        raise ValueError(
            f"pairs must be (src_index, dst_index) pairs, got shape {index.shape}"
        )
    return index


def _build_by_class(
    placement: Placement,
    routing: RoutingAlgorithm,
    index: np.ndarray,
    rng: np.random.Generator,
    release_cycle: int,
    start_id: int,
) -> tuple[list[Packet], int]:
    """The translation-invariant builder; returns the packets and the
    number of displacement classes."""
    n = len(index)
    if n == 0:
        return [], 0
    torus = placement.torus
    k, d = torus.k, torus.d
    two_d = 2 * d
    coords = placement.coords()
    src, dst = index[:, 0], index[:, 1]
    # a displacement's C-order id doubles as its class key
    strides = k ** np.arange(d - 1, -1, -1, dtype=np.int64)
    keys, pair_class = np.unique(
        ((coords[dst] - coords[src]) % k) @ strides, return_inverse=True
    )

    # every path of every class from the origin: tail offsets, hop codes
    origin = (0,) * d
    rows: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    first, count = [], []
    for disp in torus.coords(keys).tolist():
        paths = routing.paths(torus, origin, disp)
        first.append(len(rows))
        count.append(len(paths))
        rows.extend((path.nodes[:-1], path.edge_ids) for path in paths)
    lengths = np.array([len(edge_ids) for _, edge_ids in rows], dtype=np.int64)
    hops = int(lengths.max())
    offsets = np.zeros((len(rows), hops, d), dtype=np.int64)
    codes = np.zeros((len(rows), hops), dtype=np.int64)
    for r, (tail_ids, edge_ids) in enumerate(rows):
        if tail_ids:
            tails = np.asarray(tail_ids, dtype=np.int64)
            offsets[r, : tails.size] = torus.coords(tails)
            codes[r, : tails.size] = np.asarray(edge_ids) - tails * two_d

    # one draw per pair, in pair order, exactly as the per-pair loop
    choice = np.asarray(first, dtype=np.int64)[pair_class] + rng.integers(
        np.asarray(count, dtype=np.int64)[pair_class]
    )

    # one shared int object per edge id keeps the packets' tuples small
    edge_objects = np.arange(torus.num_edges).astype(object)
    src_ids = placement.node_ids[src].tolist()
    dst_ids = placement.node_ids[dst].tolist()
    slot = np.arange(hops)
    packets: list[Packet] = []
    for lo in range(0, n, PAIR_CHUNK):
        chosen = choice[lo : lo + PAIR_CHUNK]
        sources = coords[src[lo : lo + PAIR_CHUNK], None, :]
        tail_coords = (sources + offsets[chosen]) % k
        edge_ids = (tail_coords @ strides) * two_d + codes[chosen]
        chunk_lengths = lengths[chosen]
        flat = edge_objects[edge_ids[slot < chunk_lengths[:, None]]].tolist()
        end = 0
        for r, length in enumerate(chunk_lengths.tolist(), start=lo):
            packets.append(
                Packet(
                    start_id + r,
                    src_ids[r],
                    dst_ids[r],
                    tuple(flat[end : end + length]),
                    release_cycle,
                )
            )
            end += length
    return packets, len(keys)


def complete_exchange_packets(
    placement: Placement,
    routing: RoutingAlgorithm,
    seed=None,
    rounds: int = 1,
    stagger: int = 0,
) -> list[Packet]:
    """All-to-all personalized communication as a packet list.

    Parameters
    ----------
    placement, routing:
        The configuration under test.
    seed:
        RNG seed for the per-message path choice.
    rounds:
        How many full exchanges to run (each re-samples paths).
    stagger:
        Release-cycle gap between successive rounds (0 = all at once).
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    pairs = np.stack(ordered_pair_index_arrays(len(placement)), axis=1)
    rng = resolve_rng(seed)
    packets: list[Packet] = []
    for r in range(rounds):
        packets.extend(
            build_packets(
                placement,
                routing,
                pairs,
                seed=rng,
                release_cycle=r * stagger,
                start_id=len(packets),
            )
        )
    return packets
