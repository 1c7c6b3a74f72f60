"""Exhaustive enumeration of placements — global optimality certificates.

EXP-19's local search suggests linear placements sit on the load floor;
this module *proves* it for small tori by brute force: enumerate every
``C(k^d, n)`` placement of ``n`` processors, compute each exact ODR
:math:`E_{max}`, and return the global minimum plus (a sample of) its
achievers.  On :math:`T_4^2` that is 1 820 placements — a second of work —
turning "no counterexample found" into "no counterexample exists".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.errors import ExecutionError, InvalidParameterError, SearchError
from repro.exec import CheckpointJournal, ExecTask, ResilientExecutor
from repro.load.odr_loads import odr_edge_loads
from repro.placements.base import Placement
from repro.torus.topology import Torus
from repro.util.itertools_ext import combinations_from

__all__ = ["CatalogResult", "enumerate_placements", "global_minimum_emax"]

#: refuse exhaustive enumeration beyond this many candidate placements.
MAX_CATALOG = 2_000_000


@dataclass(frozen=True)
class CatalogResult:
    """Outcome of an exhaustive placement sweep.

    Attributes
    ----------
    minimum_emax:
        The global minimum :math:`E_{max}` over all placements of the
        requested size.
    num_placements:
        How many placements were evaluated.
    num_optimal:
        How many achieve the minimum.
    example_optimal:
        One placement achieving it.
    emax_histogram:
        ``{emax_value: count}`` over all evaluated placements.
    """

    minimum_emax: float
    num_placements: int
    num_optimal: int
    example_optimal: Placement
    emax_histogram: dict[float, int]


def enumerate_placements(torus: Torus, size: int):
    """Yield every placement of ``size`` processors on ``torus``."""
    if not 1 <= size <= torus.num_nodes:
        raise InvalidParameterError(
            f"size must satisfy 1 <= size <= {torus.num_nodes}, got {size}"
        )
    for ids in itertools.combinations(range(torus.num_nodes), size):
        yield Placement(torus, list(ids), name="catalog")


def _evaluate_chunk(args) -> tuple[float, tuple[int, ...], int, dict[float, int]]:
    """Reference worker: evaluate a chunk of id-tuples one placement at a
    time; returns (min, argmin ids, count at min, emax histogram).  This
    is the per-placement brute-force oracle the batched path is
    cross-checked against; top-level so it pickles for multiprocessing."""
    k, d, chunk = args
    torus = Torus(k, d)
    best: float | None = None
    best_ids: tuple[int, ...] | None = None
    num_optimal = 0
    histogram: dict[float, int] = {}
    for ids in chunk:
        emax = float(
            odr_edge_loads(  # repro: noqa(RL008,RL016) - this IS the brute-force oracle
                Placement(torus, list(ids))
            ).max()
        )
        histogram[emax] = histogram.get(emax, 0) + 1
        if best is None or emax < best - 1e-12:
            best, best_ids, num_optimal = emax, ids, 1
        elif abs(emax - best) <= 1e-12:
            num_optimal += 1
            if ids < best_ids:  # type: ignore[operator]
                best_ids = ids
    return best, best_ids, num_optimal, histogram


def _evaluate_chunk_batched(
    args,
) -> tuple[float, tuple[int, ...], int, dict[float, int]]:
    """Batched worker: same contract as :func:`_evaluate_chunk`, but the
    id-tuples are evaluated in placement blocks through the ``auto``
    engine's ``emax_many``.  Almost every k-subset is a non-coset, so
    ``auto`` serves them with the vectorized ODR kernel, bit-identical
    to the oracle."""
    k, d, chunk = args
    # deferred: repro.load's package init imports this module via
    # repro.placements before the engine subpackage finishes loading.
    from repro.load.engine import LoadEngine
    from repro.load.engine.facade import BLOCK_SIZE
    from repro.routing.odr import OrderedDimensionalRouting

    torus = Torus(k, d)
    engine = LoadEngine("auto")
    routing = OrderedDimensionalRouting(d)
    best: float | None = None
    best_ids: tuple[int, ...] | None = None
    num_optimal = 0
    histogram: dict[float, int] = {}
    stream = iter(chunk)
    while True:
        ids_block = list(itertools.islice(stream, BLOCK_SIZE))
        if not ids_block:
            break
        placements = [Placement(torus, list(ids)) for ids in ids_block]
        emaxes = engine.emax_many(placements, routing)
        for ids, value in zip(ids_block, emaxes):
            emax = float(value)
            histogram[emax] = histogram.get(emax, 0) + 1
            if best is None or emax < best - 1e-12:
                best, best_ids, num_optimal = emax, ids, 1
            elif abs(emax - best) <= 1e-12:
                num_optimal += 1
                if ids < best_ids:  # type: ignore[operator]
                    best_ids = ids
    return best, best_ids, num_optimal, histogram


# ----------------------------------------------------- restartable sharding
#
# Workers receive (start_combination, count) spans, not the combinations
# themselves: `combinations_from` regenerates the slice in-place, so a
# span is a few bytes over the pipe, idempotent to re-run after a worker
# crash, and small enough to journal for checkpoint/resume.

_SPAN_CONFIG: tuple[int, int] | None = None


def _init_span_worker(k: int, d: int) -> None:
    global _SPAN_CONFIG
    _SPAN_CONFIG = (k, d)


def _evaluate_span(payload) -> tuple:
    start, span_count = payload
    assert _SPAN_CONFIG is not None
    k, d = _SPAN_CONFIG
    combos = itertools.islice(
        combinations_from(k**d, tuple(start)), span_count
    )
    return _evaluate_chunk_batched((k, d, combos))


def _encode_catalog_partial(partial: tuple) -> dict[str, Any]:
    best, best_ids, num_optimal, histogram = partial
    return {
        "best": best,
        "best_ids": None if best_ids is None else [int(x) for x in best_ids],
        "num_optimal": int(num_optimal),
        "histogram": [
            [float(value), int(count)]
            for value, count in sorted(histogram.items())
        ],
    }


def _decode_catalog_partial(data: dict) -> tuple:
    best_ids = data["best_ids"]
    return (
        data["best"],
        None if best_ids is None else tuple(int(x) for x in best_ids),
        int(data["num_optimal"]),
        {float(value): int(count) for value, count in data["histogram"]},
    )


def global_minimum_emax(
    torus: Torus,
    size: int,
    processes: int | None = None,
    checkpoint: str | None = None,
    resume: bool = False,
) -> CatalogResult:
    """Exhaustively find the minimum ODR :math:`E_{max}` over all placements.

    Parameters
    ----------
    torus, size:
        The search space: all ``C(k^d, size)`` placements.
    processes:
        ``None`` (default) evaluates serially; an integer > 1 fans
        contiguous spans of the combination stream out over a process
        pool via :class:`repro.exec.ResilientExecutor` (crashed or hung
        spans are retried, then degraded to in-process evaluation).
    checkpoint:
        Optional :class:`repro.exec.CheckpointJournal` path; completed
        spans are persisted as they finish (forces span decomposition
        even for a serial sweep).
    resume:
        Resume from an existing ``checkpoint``: journaled spans are
        merged from their stored partials without re-evaluating.

    Raises
    ------
    InvalidParameterError
        If the candidate count exceeds :data:`MAX_CATALOG`, or ``resume``
        is requested without a ``checkpoint``.
    SearchError
        If the resilient fan-out itself fails beyond recovery.
    """
    import math

    count = math.comb(torus.num_nodes, size)
    if count > MAX_CATALOG:
        raise InvalidParameterError(
            f"C({torus.num_nodes}, {size}) = {count} placements exceeds the "
            f"exhaustive limit {MAX_CATALOG}"
        )
    if resume and checkpoint is None:
        raise InvalidParameterError("resume=True requires a checkpoint path")
    if not 1 <= size <= torus.num_nodes:
        raise InvalidParameterError(
            f"size must satisfy 1 <= size <= {torus.num_nodes}, got {size}"
        )

    serial = processes is None or processes <= 1
    if serial and checkpoint is None:
        # the combination stream is consumed lazily — never materialized
        all_ids = itertools.combinations(range(torus.num_nodes), size)
        partials = [
            _evaluate_chunk_batched((torus.k, torus.d, all_ids))
        ]
    else:
        workers = 1 if serial else int(processes)  # type: ignore[arg-type]
        chunk_size = max(1, count // max(16, workers * 4))
        spans: list[tuple[tuple[int, ...], int]] = []
        stream = itertools.combinations(range(torus.num_nodes), size)
        while True:
            # only one block is ever resident; spans keep just (start, len)
            block = list(itertools.islice(stream, chunk_size))
            if not block:
                break
            spans.append((block[0], len(block)))
        tasks = [
            ExecTask(f"span-{index:05d}", span)
            for index, span in enumerate(spans)
        ]
        journal = None
        if checkpoint is not None:
            journal = CheckpointJournal(
                checkpoint,
                fingerprint={
                    "workload": "catalog",
                    "k": torus.k,
                    "d": torus.d,
                    "size": size,
                    "chunk_size": chunk_size,
                },
                resume=resume,
                encode=_encode_catalog_partial,
                decode=_decode_catalog_partial,
            )
        executor = ResilientExecutor(
            _evaluate_span,
            jobs=workers,
            initializer=_init_span_worker,
            initargs=(torus.k, torus.d),
            journal=journal,
            label=f"catalog[T_{torus.k}^{torus.d} n={size}]",
        )
        try:
            outcome = executor.run(tasks)
        except ExecutionError as err:
            raise SearchError(
                f"catalog sweep fan-out failed: {err} (backend 'catalog', "
                f"{len(spans)} spans, {workers} workers)"
            ) from err
        finally:
            if journal is not None:
                journal.close()
        partials = outcome.in_task_order(tasks)

    best: float | None = None
    best_ids: tuple[int, ...] | None = None
    num_optimal = 0
    histogram: dict[float, int] = {}
    for p_best, p_ids, p_count, p_hist in partials:
        for value, n in p_hist.items():
            histogram[value] = histogram.get(value, 0) + n
        if p_best is None:
            continue
        if best is None or p_best < best - 1e-12:
            best, best_ids, num_optimal = p_best, p_ids, p_count
        elif abs(p_best - best) <= 1e-12:
            num_optimal += p_count
            # deterministic witness: lex-smallest among equal minima, so
            # the unordered parallel merge matches the serial sweep exactly
            if p_ids < best_ids:  # type: ignore[operator]
                best_ids = p_ids
    return CatalogResult(
        minimum_emax=float(best),
        num_placements=count,
        num_optimal=num_optimal,
        example_optimal=Placement(torus, list(best_ids), name="catalog-optimal"),
        emax_histogram=histogram,
    )
