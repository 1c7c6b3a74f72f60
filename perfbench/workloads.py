"""The benchmark's workloads: inputs from a seed, one pass, output checks.

Each workload is a closed loop of sequential calls into ``repro`` from a
single process.  ``imports()`` loads the modules the workload uses (timed
as ``setup.import_s``), ``setup(seed, cfg)`` builds its inputs, and
``run(inputs)`` makes one pass and returns an :class:`Outcome`: the
output checks against an oracle, and the work counts the program reports.

``repro`` is imported only inside functions, so a fresh interpreter can
time its imports, and the calls resolve module attributes at run time so
the traced pass sees the wrappers of :mod:`layers`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


@dataclass
class Outcome:
    """What one pass reports back to the harness."""

    checks: list[tuple[str, bool]] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))


@dataclass(frozen=True)
class Workload:
    name: str
    imports: Callable[[], None]
    setup: Callable[[int, dict], Any]
    run: Callable[[Any], Outcome]
    full: dict
    smoke: dict


# ------------------------------------------------------------ certify-t6x2


def _certify_imports() -> None:
    import repro.load.engine  # noqa: F401
    import repro.placements.exact_search  # noqa: F401


def _certify_setup(seed: int, cfg: dict):
    # the certified space is the whole C(k^d, size): nothing depends on seed
    from repro.torus.topology import Torus

    return Torus(cfg["k"], cfg["d"]), cfg


def _certify_run(inputs) -> Outcome:
    from repro.load.engine import LoadEngine
    from repro.placements import exact_search
    from repro.routing.odr import OrderedDimensionalRouting

    torus, cfg = inputs
    size = cfg["size"]
    upper, _ = exact_search.screen_initial_upper_bound(torus, size)
    result = exact_search.exact_global_minimum(
        torus, size, mode="bound", initial_upper_bound=upper
    )
    witness = result.example_optimal
    # the per-pair path-enumerating oracle, independent of the incremental kernel
    loads = LoadEngine("reference").edge_loads(
        witness, OrderedDimensionalRouting(torus.d)
    )
    out = Outcome()
    out.check("certify.minimum_emax", result.minimum_emax == cfg["min_emax"])
    out.check("certify.num_optimal", result.num_optimal == cfg["num_optimal"])
    out.check("certify.witness_size", len(witness) == size)
    out.check("certify.witness_emax", float(loads.max()) == result.minimum_emax)
    c = result.counters
    out.counts.update(
        {
            "exact_search.leaf_orbits": c.leaf_orbits,
            "exact_search.variant_evaluations": c.variant_evaluations,
            "exact_search.pair_updates": c.pair_updates,
            "exact_search.subtrees_pruned": c.subtrees_pruned_emax
            + c.subtrees_pruned_separator,
            "exact_search.variants_dropped": c.variants_dropped,
            "symmetry.canonical_ratio": c.canonical_nodes / c.canonicity_checks,
        }
    )
    return out


# ------------------------------------------------------ local-search-t16x2


def _local_imports() -> None:
    import repro.load.formulas  # noqa: F401
    import repro.placements.random_placement  # noqa: F401
    import repro.placements.search  # noqa: F401


def _local_setup(seed: int, cfg: dict):
    from repro.placements.random_placement import random_placement
    from repro.torus.topology import Torus

    torus = Torus(cfg["k"], cfg["d"])
    rng = np.random.default_rng(seed)
    starts = [
        random_placement(torus, cfg["size"], seed=rng)
        for _ in range(cfg["trials"])
    ]
    search_seeds = [int(s) for s in rng.integers(2**32, size=cfg["trials"])]
    return torus, starts, search_seeds, cfg


def _local_run(inputs) -> Outcome:
    from repro.load import odr_loads
    from repro.load.formulas import odr_linear_emax_global
    from repro.placements import search

    torus, starts, search_seeds, cfg = inputs
    linear_emax = odr_linear_emax_global(torus.k, torus.d)
    out = Outcome()
    evaluations = accepted = 0
    for trial, (start, seed) in enumerate(zip(starts, search_seeds)):
        result = search.local_search_placement(
            start,
            max_moves=cfg["moves"],
            candidates_per_move=cfg["candidates"],
            seed=seed,
        )
        evaluations += result.evaluations
        accepted += len(result.trajectory) - 1
        rescored = float(odr_loads.odr_edge_loads(result.best).max())
        out.check(f"local.trial{trial}.not_below_linear", result.best_emax >= linear_emax)
        out.check(f"local.trial{trial}.rescored_emax", rescored == result.best_emax)
    out.counts["local_search.evaluations"] = evaluations
    out.counts["local_search.accepted_moves"] = accepted
    return out


# ---------------------------------------------------------- simulate-t16x3


def _simulate_imports() -> None:
    import repro.load.engine  # noqa: F401
    import repro.placements.linear  # noqa: F401
    import repro.sim.engine  # noqa: F401
    import repro.sim.workloads  # noqa: F401


def _simulate_setup(seed: int, cfg: dict):
    # ODR has one path per pair, so the packet list cannot depend on seed
    from repro.placements.linear import linear_placement
    from repro.routing.odr import OrderedDimensionalRouting
    from repro.sim.network import SimNetwork
    from repro.torus.topology import Torus

    torus = Torus(cfg["k"], cfg["d"])
    placement = linear_placement(torus)
    return (
        placement,
        OrderedDimensionalRouting(torus.d),
        SimNetwork(torus),
        seed,
    )


def _simulate_run(inputs) -> Outcome:
    from repro.load.engine import get_default_engine
    from repro.load.formulas import odr_linear_emax_global
    from repro.sim import workloads
    from repro.sim.engine import CycleEngine

    placement, routing, network, seed = inputs
    torus = placement.torus
    packets = workloads.complete_exchange_packets(placement, routing, seed=seed)
    result = CycleEngine(network).run(packets)
    loads = get_default_engine().edge_loads(placement, routing)
    out = Outcome()
    out.check("simulate.packet_count", len(packets) == placement.ordered_pairs_count())
    out.check("simulate.all_delivered", result.delivered == len(packets))
    out.check("simulate.counts_equal_loads", np.array_equal(result.link_counts, loads))
    out.check(
        "simulate.max_link_count",
        result.max_link_count == odr_linear_emax_global(torus.k, torus.d),
    )
    out.counts.update(
        {
            "sim.cycles": result.cycles,
            "sim.packets": len(packets),
            "sim.max_queue": result.max_queue_length,
        }
    )
    return out


# -------------------------------------------------------------- load-sweep

#: ``(d, ks, families under ODR, families under UDR)``.  UDR and 2-linear
#: cost grows as |P|^2, so they stop at smaller k to keep one pass ~3 s.
SWEEP_GRID = (
    (2, tuple(range(4, 33, 2)), ("linear", "2-linear", "random"), ("linear", "2-linear", "random")),
    (3, (8, 10, 12), ("linear", "2-linear", "random"), ("linear", "random")),
    (3, (14,), ("linear", "random"), ("linear",)),
    (3, (16, 18, 20), ("linear", "random"), ()),
    (4, (6,), ("linear", "2-linear", "random"), ("linear", "random")),
    (4, (8,), ("linear", "random"), ()),
)

#: ``(k, d)`` tori whose every all-ones linear coset is screened in one batch.
SWEEP_SCREENS = ((32, 2), (16, 3))

SWEEP_SMOKE_GRID = (
    (2, (4, 6), ("linear", "2-linear", "random"), ("linear", "2-linear", "random")),
    (3, (4,), ("linear", "random"), ("linear",)),
)


def _sweep_imports() -> None:
    import repro.load.engine  # noqa: F401
    import repro.load.plancache  # noqa: F401
    import repro.placements.linear  # noqa: F401
    import repro.placements.multiple  # noqa: F401
    import repro.placements.random_placement  # noqa: F401


@dataclass(frozen=True)
class _Request:
    placement: Any
    routing: Any
    family: str


def _sweep_setup(seed: int, cfg: dict):
    from repro.placements.linear import linear_placement
    from repro.placements.multiple import multiple_linear_placement
    from repro.placements.random_placement import random_placement
    from repro.routing.odr import OrderedDimensionalRouting
    from repro.routing.udr import UnorderedDimensionalRouting
    from repro.torus.topology import Torus

    rng = np.random.default_rng(seed)
    requests: list[_Request] = []
    for d, ks, odr_families, udr_families in cfg["grid"]:
        odr, udr = OrderedDimensionalRouting(d), UnorderedDimensionalRouting()
        for k in ks:
            torus = Torus(k, d)
            built = {
                "linear": linear_placement(torus),
                "2-linear": multiple_linear_placement(torus, 2),
                "random": random_placement(torus, k ** (d - 1), seed=rng),
            }
            requests += [_Request(built[f], odr, f) for f in odr_families]
            requests += [_Request(built[f], udr, f) for f in udr_families]
    screens = []
    for k, d in cfg["screens"]:
        torus = Torus(k, d)
        cosets = [linear_placement(torus, offset=c) for c in range(k)]
        odr = OrderedDimensionalRouting(d)
        # the cosets are also evaluated one by one, as part of the sweep
        first = len(requests)
        requests += [_Request(p, odr, "linear") for p in cosets]
        screens.append((cosets, odr, first))
    return requests, screens


def lee_distance_total(placement) -> int:
    """Sum of Lee distances over ordered pairs: the total load any minimal
    routing puts on the torus under complete exchange."""
    k = placement.torus.k
    cells = np.arange(k)
    gap = np.abs(cells[:, None] - cells[None, :])
    dist = np.minimum(gap, k - gap)
    total = 0
    for column in placement.coords().T:
        counts = np.bincount(column, minlength=k)
        total += int(counts @ dist @ counts)
    return total


def _sweep_run(inputs) -> Outcome:
    from repro.load.engine import LoadEngine, get_default_engine
    from repro.load.formulas import (
        odr_linear_emax_global,
        udr_multiple_upper_bound,
        udr_upper_bound,
    )
    from repro.load.plancache import current_plan_cache
    from repro.load.quantize import routing_load_quantum
    from repro.routing.udr import UnorderedDimensionalRouting

    requests, screens = inputs
    engine = get_default_engine()
    stats_before = current_plan_cache().stats
    out = Outcome()
    rows = []
    for req in requests:
        start = time.perf_counter()
        loads = engine.edge_loads(req.placement, req.routing)
        out.latencies_s.append(time.perf_counter() - start)
        rows.append(loads)
    batched = [
        LoadEngine("fft").edge_loads_many(cosets, routing)
        for cosets, routing, _ in screens
    ]
    stats_after = current_plan_cache().stats

    bad_sum = bad_odr = bad_quantum = bad_udr_bound = 0
    for req, loads in zip(requests, rows):
        torus = req.placement.torus
        k, d = torus.k, torus.d
        bad_sum += not math.isclose(
            float(loads.sum()), lee_distance_total(req.placement), rel_tol=1e-9
        )
        if not isinstance(req.routing, UnorderedDimensionalRouting):
            if req.family == "linear":
                bad_odr += float(loads.max()) != odr_linear_emax_global(k, d)
            continue
        scaled = loads * routing_load_quantum(req.routing, d)
        bad_quantum += not np.allclose(scaled, np.rint(scaled), rtol=0, atol=1e-6)
        if req.family == "linear":
            bad_udr_bound += not float(loads.max()) < udr_upper_bound(k, d)
        elif req.family == "2-linear":
            bad_udr_bound += not float(loads.max()) < udr_multiple_upper_bound(k, d, 2)
    out.check("sweep.load_conservation", bad_sum == 0)
    out.check("sweep.odr_linear_emax", bad_odr == 0)
    out.check("sweep.udr_quantum", bad_quantum == 0)
    out.check("sweep.udr_theorem_bound", bad_udr_bound == 0)
    for (cosets, _, first), block in zip(screens, batched):
        sequential = np.stack(rows[first : first + len(cosets)])
        k, d = cosets[0].torus.k, cosets[0].torus.d
        out.check(f"sweep.batched_rows_T{k}x{d}", np.array_equal(block, sequential))
    hits = stats_after.hits - stats_before.hits
    misses = stats_after.misses - stats_before.misses
    out.counts.update(
        {
            "plancache.hits": hits,
            "plancache.misses": misses,
            "plancache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "sweep.eval_samples": len(out.latencies_s),
        }
    )
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify-t6x2",
            _certify_imports,
            _certify_setup,
            _certify_run,
            full={"k": 6, "d": 2, "size": 6, "min_emax": 2.0, "num_optimal": 24},
            smoke={"k": 4, "d": 2, "size": 4, "min_emax": 2.0, "num_optimal": 292},
        ),
        Workload(
            "local-search-t16x2",
            _local_imports,
            _local_setup,
            _local_run,
            full={"k": 16, "d": 2, "size": 16, "trials": 2, "moves": 40, "candidates": 12},
            smoke={"k": 4, "d": 2, "size": 4, "trials": 2, "moves": 4, "candidates": 4},
        ),
        Workload(
            "simulate-t16x3",
            _simulate_imports,
            _simulate_setup,
            _simulate_run,
            full={"k": 16, "d": 3},
            smoke={"k": 4, "d": 3},
        ),
        Workload(
            "load-sweep",
            _sweep_imports,
            _sweep_setup,
            _sweep_run,
            full={"grid": SWEEP_GRID, "screens": SWEEP_SCREENS},
            smoke={"grid": SWEEP_SMOKE_GRID, "screens": ((6, 2), (4, 3))},
        ),
    )
}
