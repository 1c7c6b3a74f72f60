"""FFT circular-correlation load backend — coset placements in one spectral pass.

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
``δ`` start where) with per-displacement *path-usage templates*
:math:`T_δ`.

The backend evaluates that sum spectrally only where it collapses: on
**coset** placements — linear, sublattice, multiple-linear with aligned
offsets, fully populated.  A placement with exactly ``|P| - 1`` distinct
nonzero pairwise displacements is a coset of a subgroup of
:math:`Z_k^d` (``|P - P| = |P|`` forces ``P - P`` to be a group), so
under complete exchange every source field is the placement's indicator
function ``f`` and the whole sum becomes **one** correlation of ``f``
with the aggregated usage tensor :math:`U = \\sum_δ T_δ`, evaluated for
all :math:`2dk^d` edges by ``numpy.fft.rfftn`` in
:math:`O(d\\,k^d \\log k)`, independent of the pair count.

Every other row — a non-coset placement, or any weighted traffic — is
evaluated exactly by
:func:`~repro.load.engine.displacement.displacement_edge_loads` against
the plan's shared template cache, which beats a per-class spectral sum
there.

Exactness is restored by the *snap-back* of :mod:`repro.load.quantize`:
all template weights are scaled to integer numerators over a common
denominator ``Q`` (the LCM of the path-set sizes, e.g. ``d!`` for UDR),
the convolution result is rounded to the nearest integer — which is the
exact value whenever the accumulated FFT error is below one half — and
divided back by ``Q``.  A snap that would move any value by
:data:`~repro.load.quantize.LOAD_SNAP_TOLERANCE` or more falls back to
the exact displacement evaluation instead of shipping a wrong answer.

There is one evaluation path, :meth:`FFTBackend.compute_many`; a single
placement is a batch of one.  Coset rows sharing a difference set are
stacked into one transform, and the drift check runs once per row.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import EngineError
from repro.load.engine.base import LoadBackend
from repro.load.engine.displacement import displacement_edge_loads
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
from repro.util.itertools_ext import ordered_pair_index_arrays

__all__ = ["FFTBackend", "fft_edge_loads"]


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


def _spectrum(fields: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Batched ``rfftn`` over the trailing torus axes."""
    d = len(shape)
    grid = fields.reshape(fields.shape[:-1] + shape)
    return np.fft.rfftn(grid, axes=tuple(range(-d, 0)))


def _usage_spectra(
    plan: SpectralPlan,
    strides: np.ndarray,
    rep_disp: np.ndarray,
) -> list[tuple[int, np.ndarray]]:
    """Forward spectra of the aggregated usage tensor ``U[channel, node]``.

    One ``(Q, spectrum)`` entry per denominator group; each class's
    template weights enter as integer numerators over that group's ``Q``.
    """
    torus = plan.torus
    templates = [plan.path_cache.template(disp) for disp in rep_disp]
    denominators = np.array(
        [tpl.num_paths for tpl in templates], dtype=np.int64
    )
    spectra = []
    for quantum, rows in _denominator_groups(denominators):
        usage = np.zeros((2 * torus.d, torus.num_nodes), dtype=np.float64)
        for i in rows:
            tpl = templates[i]
            np.add.at(
                usage,
                (tpl.dim_sign, tpl.offsets @ strides),
                np.rint(tpl.weight * tpl.num_paths)
                * (quantum // int(denominators[i])),
            )
        spectra.append((quantum, _spectrum(usage, torus.shape)))
    return spectra


def _remember(memo: dict, key: bytes, value) -> None:
    if len(memo) >= MAX_PLAN_ENTRIES:
        memo.clear()
    memo[key] = value


def _coset_spectra(
    plan: SpectralPlan,
    placement: Placement,
    strides: np.ndarray,
) -> list[tuple[int, np.ndarray]] | None:
    """The usage spectra serving a coset placement, or ``None`` otherwise.

    The ``placement_spectra`` alias is checked first, so a warm coset
    skips the pair pass; ``|P - P| = |P|`` is the coset test, since it
    forces ``P - P`` to be a subgroup.  Spectra are memoized on the plan
    per difference set, so every coset of one subgroup shares an entry.
    """
    alias = placement.node_ids.tobytes()
    spectra = plan.placement_spectra.get(alias)
    if spectra is not None:
        return spectra
    coords = placement.coords()
    pi, qi = ordered_pair_index_arrays(coords.shape[0])
    disp = np.mod(coords[qi] - coords[pi], placement.torus.k)
    if disp.shape[0] == 0:
        return None
    codes, first = np.unique(disp @ strides, return_index=True)
    if codes.size != len(placement) - 1:
        return None
    key = codes.tobytes()
    spectra = plan.spectra.get(key)
    if spectra is None:
        spectra = _usage_spectra(plan, strides, disp[first])
        _remember(plan.spectra, key, spectra)
    _remember(plan.placement_spectra, alias, spectra)
    return spectra


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

    All configuration-dependent state — path templates and forward usage
    spectra — lives in the ambient
    :class:`~repro.load.plancache.PlanCache` (see
    :func:`~repro.load.plancache.using_plan_cache`), so sweeps and
    search loops that re-evaluate the same coset pay only one forward
    transform, one product, and one inverse transform per call, across
    backend instances and engine facades.

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

        Complete-exchange coset rows sharing a difference set (e.g. every
        offset of a linear placement family) are stacked on a leading
        batch axis and resolved by a single ``rfftn``/inverse pair
        against the plan's cached usage spectrum.  Every other row, and a
        coset row whose snap drift reaches
        :data:`~repro.load.quantize.LOAD_SNAP_TOLERANCE`, is computed by
        the exact displacement evaluation with the plan's templates.
        """
        if not self.supports(placements[0], routing, pair_weights):
            raise EngineError(
                f"routing {routing.name!r} is not translation-invariant; "
                "the FFT correlation backend would be unsound for it — "
                "use the 'reference' backend (the 'auto' engine does so)"
            )
        torus = placements[0].torus
        plan = current_plan_cache().get(torus, routing)
        d = torus.d
        strides = np.array(
            [torus.k ** (d - 1 - i) for i in range(d)], dtype=np.int64
        )
        batch = len(placements)
        loads = np.zeros((batch, torus.num_edges), dtype=np.float64)
        drifts = np.zeros(batch, dtype=np.float64)

        # coset rows grouped by the spectra object serving them (one
        # group per distinct difference set); the rest are delegated.
        cosets: dict[int, tuple[list, list[int]]] = {}
        delegated: list[int] = []
        for b, placement in enumerate(placements):
            spectra = (
                None
                if pair_weights is not None
                else _coset_spectra(plan, placement, strides)
            )
            if spectra is None:
                delegated.append(b)
            else:
                cosets.setdefault(id(spectra), (spectra, []))[1].append(b)

        shape = torus.shape
        axes = tuple(range(-d, 0))
        for spectra, rows in cosets.values():
            indicators = np.zeros((len(rows), torus.num_nodes))
            for i, b in enumerate(rows):
                indicators[i, placements[b].node_ids] = 1.0
            indicator_hat = _spectrum(indicators, shape)
            block = None
            for quantum, usage_hat in spectra:
                conv = np.fft.irfftn(
                    indicator_hat[:, None] * usage_hat[None], s=shape, axes=axes
                ).reshape(len(rows), 2 * d, -1)
                snapped = np.rint(conv)
                drifts[rows] = np.maximum(
                    drifts[rows],
                    np.abs(conv - snapped).reshape(len(rows), -1).max(axis=1),
                )
                part = snapped / quantum if quantum != 1 else snapped
                block = part if block is None else block + part
            loads[rows] = np.swapaxes(block, 1, 2).reshape(len(rows), -1)

        self.last_snap_drift = float(drifts.max(initial=0.0))
        # the spectral accumulation lost too much precision for the
        # snap-back contract: only these rows pay the exact evaluation.
        fallbacks = [
            b
            for _, rows in cosets.values()
            for b in rows
            if drifts[b] >= LOAD_SNAP_TOLERANCE
        ]
        for b in delegated + fallbacks:
            loads[b] = displacement_edge_loads(
                placements[b],
                routing,
                pair_weights=pair_weights,
                cache=plan.path_cache,
            )
        tracer = current_tracer()
        if tracer.enabled:
            metrics = tracer.metrics
            n_fast = batch - len(delegated) - len(fallbacks)
            if fallbacks:
                metrics.counter("engine.fft.snap_fallbacks").add(
                    len(fallbacks)
                )
            if n_fast:
                metrics.counter("engine.fft.fast_path").add(n_fast)
            if delegated:
                metrics.counter("engine.fft.general_path").add(len(delegated))
            metrics.gauge("engine.fft.snap_drift").set(self.last_snap_drift)
        return loads
