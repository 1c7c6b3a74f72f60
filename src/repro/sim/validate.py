"""Simulator-vs-analysis cross-validation (EXP-12's engine).

For deterministic routing (ODR) every complete exchange traverses exactly
the analytic path set, so simulated link counters must equal the analytic
loads *exactly*.  For randomized routing (UDR) the counters are a
Monte-Carlo draw whose expectation is the analytic fractional load; over
``rounds`` exchanges the normalized counters converge at the usual
:math:`1/\\sqrt{rounds}` rate.  Both facts are checked here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm
from repro.sim.engine import CycleEngine
from repro.sim.network import SimNetwork
from repro.sim.workloads import complete_exchange_packets

__all__ = ["ValidationReport", "compare_sim_to_analytic"]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one simulator-vs-analytic comparison.

    Attributes
    ----------
    max_abs_error:
        :math:`\\max_l |counts_l/rounds - \\mathcal{E}(l)|`.
    total_sim, total_analytic:
        Total traversals per exchange vs total analytic load (the
        conservation cross-check; equal for minimal routing).
    sim_emax, analytic_emax:
        The two maxima.
    rounds:
        Exchanges simulated.
    exact_match:
        Whether the normalized counters equal the analytic loads exactly
        (guaranteed for single-path routing).
    """

    max_abs_error: float
    total_sim: float
    total_analytic: float
    sim_emax: float
    analytic_emax: float
    rounds: int
    exact_match: bool


def compare_sim_to_analytic(
    placement: Placement,
    routing: RoutingAlgorithm,
    analytic_loads: np.ndarray,
    rounds: int = 1,
    seed: int | None = None,
) -> ValidationReport:
    """Simulate ``rounds`` complete exchanges and compare per-link counters
    (normalized per exchange) against ``analytic_loads``."""
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    torus = placement.torus
    packets = complete_exchange_packets(placement, routing, seed=seed, rounds=rounds)
    engine = CycleEngine(SimNetwork(torus))
    result = engine.run(packets)
    normalized = result.link_counts.astype(np.float64) / rounds
    analytic = np.asarray(analytic_loads, dtype=np.float64)
    err = np.abs(normalized - analytic)
    return ValidationReport(
        max_abs_error=float(err.max(initial=0.0)),
        total_sim=float(normalized.sum()),
        total_analytic=float(analytic.sum()),
        sim_emax=float(normalized.max(initial=0.0)),
        analytic_emax=float(analytic.max(initial=0.0)),
        rounds=rounds,
        exact_match=bool(np.array_equal(normalized, analytic)),
    )
