"""The synchronous cycle engine.

Model (store-and-forward, unit link bandwidth):

* every directed link transmits **at most one packet per cycle**;
* each link has an unbounded FIFO output queue at its tail node;
* a packet released at cycle ``c`` joins its first link's queue at ``c``;
  when a link serves it at cycle ``c'``, it joins the next link's queue at
  ``c' + 1`` (or is delivered);
* paths are fixed at injection, so there is no routing-induced deadlock.

The per-link traversal counters this produces are the simulator's estimate
of Definition 4's load; for deterministic routing (ODR) they equal the
analytic loads exactly, for UDR they match in expectation (EXP-12 checks
both).

Per-hop numpy work stays out of the cycle loop: link liveness is checked
once over all packets' concatenated edge ids before the first cycle, the
loop moves packet indices through plain-Python FIFOs with each packet's
hop index in a local list, and the traversal counters are added with one
``np.bincount`` when the run ends (or aborts).  Every :class:`Packet`'s
``hop``/``delivered_cycle`` is written back at the same point.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.obs.tracer import current_tracer
from repro.sim.network import SimNetwork
from repro.sim.packet import Packet

__all__ = ["CycleEngine", "SimulationResult"]

#: per-cycle `sim.cycle` spans are emitted only for the first N cycles of
#: a traced run — enough to see the warm-up/drain shape without letting a
#: pathological million-cycle run flood the trace file.
MAX_CYCLE_SPANS = 512


@dataclass(frozen=True)
class SimulationResult:
    """Everything a finished run reports.

    Attributes
    ----------
    cycles:
        Total cycles until the last delivery (the makespan).
    link_counts:
        Per-link traversal totals, length ``num_edges``.
    latencies:
        Per-packet delivery latency, aligned with the packet list.
    max_queue_length:
        Peak backlog observed on any single link queue.
    delivered:
        Number of packets delivered (always all of them — queues are
        unbounded and paths fixed).
    """

    cycles: int
    link_counts: np.ndarray
    latencies: np.ndarray
    max_queue_length: int
    delivered: int

    @property
    def max_link_count(self) -> int:
        """The busiest link's traversal count — compare to :math:`E_{max}`."""
        return int(self.link_counts.max())

    @property
    def mean_latency(self) -> float:
        return float(self.latencies.mean()) if self.latencies.size else 0.0

    @property
    def throughput(self) -> float:
        """Delivered packets per cycle."""
        return self.delivered / self.cycles if self.cycles else 0.0


class CycleEngine:
    """Run a packet list over a :class:`SimNetwork` to completion."""

    def __init__(self, network: SimNetwork, max_cycles: int = 1_000_000):
        self.network = network
        self.max_cycles = int(max_cycles)

    def run(self, packets: list[Packet]) -> SimulationResult:
        """Simulate until every packet is delivered.

        Raises
        ------
        SimulationError
            If a packet's path uses a failed link, or ``max_cycles`` is
            exceeded (which would indicate an engine bug — the model
            cannot deadlock).
        """
        net = self.network
        tracer = current_tracer()
        with tracer.span(
            "sim.run", engine="cycle", packets=len(packets)
        ) as run_span:
            result = self._run(packets, net, tracer)
            run_span.annotate(cycles=result.cycles, delivered=result.delivered)
        if tracer.enabled:
            metrics = tracer.metrics
            metrics.counter("sim.packets_routed").add(result.delivered)
            metrics.counter("sim.cycles").add(result.cycles)
        return result

    def _run(
        self, packets: list[Packet], net: SimNetwork, tracer
    ) -> SimulationResult:
        traced = tracer.enabled
        contention = tracer.metrics.histogram("sim.contention")
        paths = [p.edge_ids for p in packets]
        lengths = [len(path) for path in paths]
        hop_edges = np.fromiter(
            itertools.chain.from_iterable(paths),
            dtype=np.int64,
            count=sum(lengths),
        )
        alive = net.alive[hop_edges]
        if not alive.all():
            first_dead = int(np.argmin(alive))
            culprit = packets[
                int(np.searchsorted(np.cumsum(lengths), first_dead, side="right"))
            ]
            raise SimulationError(
                f"packet {culprit.packet_id} routed over a failed link; "
                "use FaultMaskedRouting when building the workload"
            )

        # queues and the release schedule hold packet indices; each
        # packet's progress lives in `hops`/`done` until the write-back
        total = len(packets)
        hops = [0] * total
        done: list[int | None] = [None] * total
        # release schedule: cycle -> packets entering their first queue
        pending: dict[int, list[int]] = {}
        zero_hop = 0
        for i, p in enumerate(packets):
            if lengths[i] == 0:
                # src == dst message: delivered instantly, no link used
                done[i] = p.release_cycle
                zero_hop += 1
                continue
            pending.setdefault(p.release_cycle, []).append(i)

        queues: dict[int, deque[int]] = {}
        max_queue = 0
        delivered = zero_hop
        cycle = 0
        last_delivery = 0

        while delivered < total:
            if cycle > self.max_cycles:
                # counters and packets keep the hops made before the abort
                made = np.fromiter(
                    itertools.chain.from_iterable(
                        path[:hop] for path, hop in zip(paths, hops)
                    ),
                    dtype=np.int64,
                )
                _write_back(packets, hops, done, net, made)
                raise SimulationError(
                    f"exceeded max_cycles={self.max_cycles} with "
                    f"{total - delivered} packets in flight"
                )
            # deliberate manual handle: the span is conditional (capped
            # at MAX_CYCLE_SPANS) and closed at two exit points below.
            cycle_span = (
                tracer.span("sim.cycle", cycle=cycle)  # repro: noqa(RL015)
                if traced and cycle < MAX_CYCLE_SPANS
                else None
            )
            if cycle_span is not None:
                cycle_span.__enter__()
            # arrivals scheduled for this cycle
            for i in pending.pop(cycle, ()):  # packets join queues
                q = queues.setdefault(paths[i][hops[i]], deque())
                q.append(i)
                if len(q) > max_queue:
                    max_queue = len(q)
                if traced:
                    # queue depth at arrival = instantaneous contention
                    contention.observe(len(q))
            # each live link serves one head-of-line packet
            served = 0
            for edge_id in list(queues):
                q = queues[edge_id]
                i = q.popleft()
                if not q:
                    del queues[edge_id]
                served += 1
                hop = hops[i] + 1
                hops[i] = hop
                if hop == lengths[i]:
                    done[i] = cycle + 1
                    delivered += 1
                    last_delivery = cycle + 1
                else:
                    pending.setdefault(cycle + 1, []).append(i)
            if cycle_span is not None:
                cycle_span.annotate(served=served)
                cycle_span.__exit__(None, None, None)
            cycle += 1

        _write_back(packets, hops, done, net, hop_edges)
        latencies = np.array(
            [p.latency for p in packets], dtype=np.int64
        ) if packets else np.empty(0, dtype=np.int64)
        return SimulationResult(
            cycles=last_delivery,
            link_counts=net.link_counts.copy(),
            latencies=latencies,
            max_queue_length=max_queue,
            delivered=delivered,
        )


def _write_back(packets, hops, done, net, traversed: np.ndarray) -> None:
    """Store each packet's progress on it and count the ``traversed``
    edge ids into ``net.link_counts``."""
    for p, hop, at in zip(packets, hops, done):
        p.hop = hop
        p.delivered_cycle = at
    net.link_counts += np.bincount(traversed, minlength=net.link_counts.size)
