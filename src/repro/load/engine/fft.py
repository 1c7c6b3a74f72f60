"""FFT circular-correlation load backend — all edges in one spectral pass.

:math:`T_k^d` is the Cayley graph of the group :math:`Z_k^d`, and for a
translation-invariant routing the Definition-4 contribution of an ordered
pair ``(p, q)`` to the edge at tail ``v`` depends only on the displacement
``δ = (q - p) mod k`` and the offset ``u = (v - p) mod k`` — exactly the
:class:`~repro.load.engine.displacement.PathTemplate` decomposition.  The
total load of every edge channel ``(dim, sign)`` is therefore the group
convolution

.. math::

    \\mathcal{E}(v) \\;=\\; \\sum_{δ} \\sum_{p} S_δ(p)\\, T_δ(v - p)
            \\;=\\; \\sum_{δ} (S_δ * T_δ)(v)

of per-displacement *source fields* :math:`S_δ` (which pairs of class
``δ`` start where, and with what traffic weight) with per-displacement
*path-usage templates* :math:`T_δ`, evaluated for **all** :math:`2dk^d`
edges at once by ``numpy.fft.rfftn`` over :math:`Z_k^d` instead of the
:math:`O(|P|^2)` pair translation passes of the displacement backend.

Two regimes:

* **Uniform (coset) placements** — linear, sublattice, multiple-linear
  with aligned offsets, fully populated.  A placement with exactly
  ``|P| - 1`` distinct nonzero pairwise displacements is a coset of a
  subgroup of :math:`Z_k^d` (``|P - P| = |P|`` forces ``P - P`` to be a
  group), so under complete exchange every source field collapses to the
  placement's indicator function ``f`` and the whole sum becomes **one**
  correlation of ``f`` with the aggregated usage tensor
  :math:`U = \\sum_δ T_δ`: :math:`O(d\\,k^d \\log k)` total, independent
  of the pair count.  This is the regime that unlocks ``k`` in the
  hundreds.
* **General placements / weighted traffic** — each displacement class
  keeps its own source field; the fields are transformed in chunked
  batches and accumulated in the frequency domain, so the inverse
  transform is still paid only once per edge channel.

Exactness is restored by the *snap-back* of :mod:`repro.load.quantize`:
all template weights are scaled to integer numerators over a common
denominator ``Q`` (the LCM of the path-set sizes, e.g. ``d!`` for UDR),
the convolution result is rounded to the nearest integer — which is the
exact value whenever the accumulated FFT error is below one half — and
divided back by ``Q``.  A snap that would move any value by
:data:`~repro.load.quantize.LOAD_SNAP_TOLERANCE` or more falls back to
the exact displacement-cache evaluation instead of shipping a wrong
answer.  Non-integral traffic matrices carry no rational grid; they skip
the snap and are covered by the engine's 1e-9 agreement bound.

There is one evaluation path, :meth:`FFTBackend.compute_many`; a single
placement is a batch of one.  Each row is classified once (coset or
general), coset rows sharing a difference set are stacked into one
transform, and the drift check and its fallback run once per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import EngineError
from repro.load.engine.base import LoadBackend, validate_pair_weights
from repro.load.engine.displacement import (
    DisplacementPathCache,
    displacement_edge_loads,
)
from repro.load.quantize import (
    LOAD_SNAP_TOLERANCE,
    QUANTUM_DENOMINATOR_CAP,
)
from repro.load.plancache import (
    MAX_PLAN_ENTRIES,
    SpectralPlan,
    current_plan_cache,
)
from repro.obs.tracer import current_tracer
from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm
from repro.torus.topology import Torus
from repro.util.itertools_ext import ordered_pair_index_arrays

__all__ = ["FFTBackend", "fft_edge_loads"]

#: classes transformed per batch in the general regime — bounds the
#: ``(chunk, 2d, k^d)`` scratch tensors to a few megabytes.
_CLASS_CHUNK = 32


# ------------------------------------------------------------ class table


@dataclass(frozen=True)
class _ClassTable:
    """Displacement classes of one (placement, traffic) configuration.

    ``codes[i]`` is the mixed-radix code of class ``i`` (sorted unique),
    ``numerators[i]``/``channels[i]``/``offsets[i]`` the integer template
    scatter data, and ``denominators[i]`` the class's path count.
    """

    codes: np.ndarray
    offsets: list[np.ndarray]
    channels: list[np.ndarray]
    numerators: list[np.ndarray]
    denominators: np.ndarray


def _build_class_table(
    cache: DisplacementPathCache,
    strides: np.ndarray,
    codes: np.ndarray,
    rep_disp: np.ndarray,
) -> _ClassTable:
    offsets: list[np.ndarray] = []
    channels: list[np.ndarray] = []
    numerators: list[np.ndarray] = []
    denominators = np.empty(codes.size, dtype=np.int64)
    for i in range(codes.size):
        tpl = cache.template(rep_disp[i])
        numerator = np.rint(tpl.weight * tpl.num_paths)
        offsets.append(tpl.offsets @ strides)
        channels.append(tpl.dim_sign)
        numerators.append(numerator)
        denominators[i] = tpl.num_paths
    return _ClassTable(codes, offsets, channels, numerators, denominators)


def _denominator_groups(
    denominators: np.ndarray,
) -> list[tuple[int, np.ndarray]]:
    """Split classes into ``(Q, class_indices)`` integer-exact groups.

    One group under the LCM of all path counts when that stays below
    :data:`~repro.load.quantize.QUANTUM_DENOMINATOR_CAP`; otherwise one
    group per distinct denominator so each group's numerators stay small.
    """
    distinct = np.unique(denominators)
    lcm = 1
    for n in distinct:
        lcm = lcm * int(n) // math.gcd(lcm, int(n))
        if lcm > QUANTUM_DENOMINATOR_CAP:
            break
    if lcm <= QUANTUM_DENOMINATOR_CAP:
        return [(lcm, np.arange(denominators.size, dtype=np.int64))]
    return [
        (int(n), np.flatnonzero(denominators == n)) for n in distinct
    ]


# --------------------------------------------------------------- kernels


def _scatter_usage(
    table: _ClassTable,
    rows,
    quantum: int,
    two_d: int,
    num_nodes: int,
) -> np.ndarray:
    """Aggregate usage tensor ``U[channel, node]`` of the given classes."""
    usage = np.zeros((two_d, num_nodes), dtype=np.float64)
    for i in rows:
        scale = quantum // int(table.denominators[i])
        np.add.at(
            usage,
            (table.channels[i], table.offsets[i]),
            table.numerators[i] * scale,
        )
    return usage


def _spectrum(fields: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Batched ``rfftn`` over the trailing torus axes."""
    d = len(shape)
    grid = fields.reshape(fields.shape[:-1] + shape)
    return np.fft.rfftn(grid, axes=tuple(range(-d, 0)))


def _inverse(acc: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    d = len(shape)
    out = np.fft.irfftn(acc, s=shape, axes=tuple(range(-d, 0)))
    return out.reshape(out.shape[:-d] + (-1,))


def _convolve(
    products: Iterable[tuple[int, np.ndarray]],
    shape: tuple[int, ...],
    batch: int,
    snap: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-transform ``(Q, spectrum)`` products and sum them over ``Q``.

    Every spectrum carries the ``batch`` rows on its leading axis, so a
    block pays **one** inverse transform per denominator group.  With
    ``snap`` each group is rounded to integer numerators before the
    division by ``Q``.
    Returns ``(loads (B, 2d, k^d), per-row snap drift (B,))``.
    """
    loads: np.ndarray | None = None
    drift = np.zeros(batch, dtype=np.float64)
    for quantum, product in products:
        conv = _inverse(product, shape)
        if snap:
            snapped = np.rint(conv)
            np.maximum(
                drift,
                np.abs(conv - snapped).reshape(batch, -1).max(axis=1),
                out=drift,
            )
            conv = snapped
        part = conv / quantum if quantum != 1 else conv
        loads = part if loads is None else loads + part
    assert loads is not None
    return loads, drift


# ---------------------------------------------------------- plan memo layers


def _plan_tables(
    plan: SpectralPlan,
    strides: np.ndarray,
    codes: np.ndarray,
    rep_disp: np.ndarray,
) -> tuple[_ClassTable, list[tuple[int, np.ndarray]]]:
    """Class table + denominator groups, memoized on the plan.

    Both depend only on the displacement-class set (the sorted codes),
    never on which placement produced it or on traffic weights, so every
    placement sharing a difference set shares one entry — repeated
    same-plan calls skip the template scatter entirely.
    """
    key = codes.tobytes()
    entry = plan.class_tables.get(key)
    if entry is None:
        table = _build_class_table(plan.path_cache, strides, codes, rep_disp)
        entry = (table, _denominator_groups(table.denominators))
        if len(plan.class_tables) >= MAX_PLAN_ENTRIES:
            plan.class_tables.clear()
        plan.class_tables[key] = entry
    return entry


def _uniform_spectra(
    plan: SpectralPlan,
    table: _ClassTable,
    groups: list[tuple[int, np.ndarray]],
) -> list[tuple[int, np.ndarray]]:
    """Forward usage spectra of one class set, memoized on the plan."""
    ckey = table.codes.tobytes()
    spectra = plan.spectra.get(ckey)
    if spectra is None:
        torus = plan.torus
        spectra = [
            (
                quantum,
                _spectrum(
                    _scatter_usage(
                        table, rows, quantum, 2 * torus.d, torus.num_nodes
                    ),
                    torus.shape,
                ),
            )
            for quantum, rows in groups
        ]
        if len(plan.spectra) >= MAX_PLAN_ENTRIES:
            plan.spectra.clear()
        plan.spectra[ckey] = spectra
    return spectra


# ------------------------------------------------------------- classifier


@dataclass(frozen=True)
class _PairClasses:
    """The ordered pairs of one placement, grouped by displacement class.

    ``sources[j]`` is the node id of pair ``j``'s source and
    ``pair_codes[j]`` its displacement code; ``codes`` are the sorted
    distinct codes, ``rep_disp[i]`` one displacement of class ``i``, and
    ``weights`` the pair traffic (``None`` under complete exchange).
    """

    sources: np.ndarray
    pair_codes: np.ndarray
    codes: np.ndarray
    rep_disp: np.ndarray
    weights: np.ndarray | None


def _pair_classes(
    placement: Placement,
    strides: np.ndarray,
    pair_weights: np.ndarray | None,
) -> _PairClasses | None:
    """Displacement classes of the placement's weighted pairs, or ``None``
    when no pair carries traffic."""
    coords = placement.coords()
    pi, qi = ordered_pair_index_arrays(coords.shape[0])
    disp = np.mod(coords[qi] - coords[pi], placement.torus.k)
    weights = None if pair_weights is None else pair_weights[pi, qi]
    if weights is not None:
        keep = weights != 0.0
        pi, disp, weights = pi[keep], disp[keep], weights[keep]
    if disp.shape[0] == 0:
        return None
    pair_codes = disp @ strides
    codes, first = np.unique(pair_codes, return_index=True)
    # node ids are the C-order ravel of the coordinates, i.e. ``@ strides``
    return _PairClasses(
        placement.node_ids[pi], pair_codes, codes, disp[first], weights
    )


def _classify(
    plan: SpectralPlan,
    placement: Placement,
    strides: np.ndarray,
) -> tuple[list[tuple[int, np.ndarray]] | None, _PairClasses | None]:
    """Route one complete-exchange placement to a regime.

    Returns ``(spectra, None)`` for a coset, whose loads are one
    correlation of its indicator with the memoized usage spectra, and
    ``(None, classes)`` otherwise.  The ``placement_spectra`` alias is
    checked first, so a warm coset skips the pair pass; ``|P - P| = |P|``
    is the coset test, since it forces ``P - P`` to be a subgroup.
    """
    alias = placement.node_ids.tobytes()
    spectra = plan.placement_spectra.get(alias)
    if spectra is not None:
        return spectra, None
    classes = _pair_classes(placement, strides, None)
    if classes is None or classes.codes.size != len(placement) - 1:
        return None, classes
    table, groups = _plan_tables(plan, strides, classes.codes, classes.rep_disp)
    spectra = _uniform_spectra(plan, table, groups)
    if len(plan.placement_spectra) >= MAX_PLAN_ENTRIES:
        plan.placement_spectra.clear()
    plan.placement_spectra[alias] = spectra
    return spectra, None


# ---------------------------------------------------------- general regime


def _class_correlation(
    torus: Torus,
    table: _ClassTable,
    classes: _PairClasses,
    weights: np.ndarray,
    quantum: int,
    rows: np.ndarray,
) -> np.ndarray:
    """Spectral sum over classes ``rows`` of source field times usage.

    Each class keeps its own source field; fields and usage tensors are
    transformed :data:`_CLASS_CHUNK` classes at a time and accumulated in
    the frequency domain, bounding the scratch tensors to a few MB.
    """
    shape, two_d, num_nodes = torus.shape, 2 * torus.d, torus.num_nodes
    inverse = np.searchsorted(classes.codes, classes.pair_codes)
    acc = np.zeros(
        (two_d,) + shape[:-1] + (torus.k // 2 + 1,), dtype=np.complex128
    )
    for lo in range(0, rows.size, _CLASS_CHUNK):
        chunk = rows[lo : lo + _CLASS_CHUNK]
        local = np.full(classes.codes.size, -1, dtype=np.int64)
        local[chunk] = np.arange(chunk.size)
        sel = np.flatnonzero(local[inverse] >= 0)
        fields = np.zeros((chunk.size, num_nodes), dtype=np.float64)
        np.add.at(
            fields,
            (local[inverse[sel]], classes.sources[sel]),
            weights[sel],
        )
        usage = np.stack(
            [_scatter_usage(table, (i,), quantum, two_d, num_nodes) for i in chunk]
        )
        acc += np.einsum(
            "a...,ab...->b...",
            _spectrum(fields, shape),
            _spectrum(usage, shape),
        )
    return acc


def _general_loads(
    plan: SpectralPlan,
    classes: _PairClasses | None,
    strides: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Loads and snap drift of one non-coset placement or weighted traffic.

    The inverse transform is paid once per denominator group.  Integral
    traffic is snapped back; other traffic has no rational grid and is
    not.
    """
    torus = plan.torus
    if classes is None:
        return np.zeros(torus.num_edges, dtype=np.float64), 0.0
    table, groups = _plan_tables(plan, strides, classes.codes, classes.rep_disp)
    weights = classes.weights
    integral = weights is None or bool(np.all(np.rint(weights) == weights))
    if weights is None:
        weights = np.ones(classes.sources.size)
    products = (
        (q, _class_correlation(torus, table, classes, weights, q, rows)[None])
        for q, rows in groups
    )
    loads, drift = _convolve(products, torus.shape, 1, snap=integral)
    return loads[0].T.ravel(), float(drift[0])


# --------------------------------------------------------------- backend


def fft_edge_loads(
    placement: Placement,
    routing: RoutingAlgorithm,
    pair_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Exact per-edge loads via spectral circular correlation.

    Drop-in equivalent of
    :func:`repro.load.edge_loads.edge_loads_reference` for any
    translation-invariant routing; after the integer snap-back the values
    land on the same rational grid the oracle's sums approximate.
    """
    return FFTBackend().compute(placement, routing, pair_weights=pair_weights)


class FFTBackend(LoadBackend):
    """Spectral backend: every call is one :meth:`compute_many` batch.

    All configuration-dependent state — path templates, displacement
    class tables, forward usage spectra — lives in the ambient
    :class:`~repro.load.plancache.PlanCache` (see
    :func:`~repro.load.plancache.using_plan_cache`), so sweeps and
    search loops that re-evaluate the same configuration pay only one
    forward transform, one product, and one inverse transform per call,
    across backend instances and engine facades.

    Attributes
    ----------
    last_snap_drift:
        Largest absolute correction the integer snap-back applied on the
        most recent :meth:`compute` / :meth:`compute_many` call — the
        quantity the :data:`~repro.load.quantize.LOAD_SNAP_TOLERANCE`
        contract bounds.
    """

    name = "fft"

    def __init__(self) -> None:
        self.last_snap_drift: float = 0.0

    def supports(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> bool:
        return bool(getattr(routing, "translation_invariant", False))

    def compute(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        return self.compute_many([placement], routing, pair_weights)[0]

    def compute_many(
        self,
        placements: list[Placement],
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-edge loads of a placement batch, ``(B, num_edges)``.

        Coset rows sharing a difference set (e.g. every offset of a
        linear placement family) are stacked on a leading batch axis and
        resolved by a single ``rfftn``/inverse pair against the plan's
        cached usage spectrum; other rows take the general regime one at
        a time.  A row whose snap drift reaches
        :data:`~repro.load.quantize.LOAD_SNAP_TOLERANCE` is recomputed by
        the exact displacement evaluation instead.
        """
        if not self.supports(placements[0], routing, pair_weights):
            raise EngineError(
                f"routing {routing.name!r} is not translation-invariant; "
                "the FFT correlation backend would be unsound for it — "
                "use the 'reference' backend (the 'auto' engine does so)"
            )
        torus = placements[0].torus
        traffic = "complete-exchange" if pair_weights is None else "weighted"
        plan = current_plan_cache().get(torus, routing, traffic)
        d = torus.d
        strides = np.array(
            [torus.k ** (d - 1 - i) for i in range(d)], dtype=np.int64
        )
        batch = len(placements)
        loads = np.zeros((batch, torus.num_edges), dtype=np.float64)
        drifts = np.zeros(batch, dtype=np.float64)
        fast = np.zeros(batch, dtype=bool)

        # coset rows grouped by the spectra object serving them (one
        # group per distinct difference set); the rest are done in place.
        cosets: dict[int, tuple[list, list[int]]] = {}
        for b, placement in enumerate(placements):
            if pair_weights is None:
                spectra, classes = _classify(plan, placement, strides)
            else:
                weights = validate_pair_weights(pair_weights, len(placement))
                spectra, classes = None, _pair_classes(
                    placement, strides, weights
                )
            if spectra is None:
                loads[b], drifts[b] = _general_loads(plan, classes, strides)
            else:
                cosets.setdefault(id(spectra), (spectra, []))[1].append(b)

        for spectra, rows in cosets.values():
            indicators = np.zeros((len(rows), torus.num_nodes))
            for i, b in enumerate(rows):
                indicators[i, placements[b].node_ids] = 1.0
            indicator_hat = _spectrum(indicators, torus.shape)
            block, drifts[rows] = _convolve(
                (
                    (quantum, indicator_hat[:, None] * usage_hat[None])
                    for quantum, usage_hat in spectra
                ),
                torus.shape,
                len(rows),
                snap=True,
            )
            loads[rows] = np.swapaxes(block, 1, 2).reshape(len(rows), -1)
            fast[rows] = True

        self.last_snap_drift = float(drifts.max(initial=0.0))
        fallbacks = np.flatnonzero(drifts >= LOAD_SNAP_TOLERANCE)
        for b in fallbacks:
            # the spectral accumulation lost too much precision for the
            # snap-back contract: only this row pays the exact evaluation.
            loads[b] = displacement_edge_loads(
                placements[b],
                routing,
                pair_weights=pair_weights,
                cache=plan.path_cache,
            )
        tracer = current_tracer()
        if tracer.enabled:
            metrics = tracer.metrics
            fast[fallbacks] = False
            n_fast = int(fast.sum())
            n_general = batch - fallbacks.size - n_fast
            if fallbacks.size:
                metrics.counter("engine.fft.snap_fallbacks").add(
                    int(fallbacks.size)
                )
            if n_fast:
                metrics.counter("engine.fft.fast_path").add(n_fast)
            if n_general:
                metrics.counter("engine.fft.general_path").add(n_general)
            metrics.gauge("engine.fft.snap_drift").set(self.last_snap_drift)
        return loads
