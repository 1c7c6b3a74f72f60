"""Property: the FFT backend evaluates cosets spectrally and delegates the rest.

Hypothesis drives batches of coset placements (translates of a subgroup
spanned by one or two generators, linear placements) and random node
sets on tori up to :math:`T_6^3`, under ODR, UDR, unrestricted ODR and
all-minimal routing, with and without integer traffic.  Each batch goes
through one ``FFTBackend().compute_many`` call, and three facts are
checked:

* a non-coset row, and every row under weighted traffic, is byte-equal
  to :func:`~repro.load.engine.displacement.displacement_edge_loads`;
* a complete-exchange coset row equals the reference oracle after the
  snap-back onto the instance's load grid;
* every row is counted once: ``engine.fft.fast_path + general_path +
  snap_fallbacks`` equals the batch size.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.load.edge_loads import edge_loads_reference
from repro.load.engine import (
    DisplacementPathCache,
    FFTBackend,
    displacement_edge_loads,
)
from repro.load.plancache import PlanCache, using_plan_cache
from repro.load.quantize import snap_loads
from repro.obs import Tracer, using_tracer
from repro.placements.base import Placement
from repro.placements.linear import linear_placement
from repro.routing.minimal import AllMinimalPaths
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.odr_unrestricted import UnrestrictedODR
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus

#: largest coset drawn — keeps the reference oracle's pair walk cheap.
MAX_COSET = 16


def _ids(torus, coords):
    strides = np.array([torus.k ** (torus.d - 1 - i) for i in range(torus.d)])
    return sorted({int(c) for c in np.mod(coords, torus.k) @ strides})


def _displacements(placement):
    coords = placement.coords()
    return {
        tuple(int(x) for x in np.mod(q - p, placement.torus.k))
        for p in coords
        for q in coords
    }


def _is_coset(placement):
    # |P - P| = |P| (zero displacement included) iff P is a coset.
    return len(_displacements(placement)) == len(placement)


def _grid_quantum(placement, routing):
    """LCM of the path counts of the placement's displacement classes."""
    cache = DisplacementPathCache(placement.torus, routing)
    quantum = 1
    for disp in _displacements(placement):
        if any(disp):
            quantum = math.lcm(quantum, cache.template(disp).num_paths)
    return quantum


@st.composite
def regime_case(draw):
    k = draw(st.integers(min_value=2, max_value=6))
    d = draw(st.integers(min_value=1, max_value=3))
    torus = Torus(k, d)
    residues = st.integers(min_value=0, max_value=k - 1)
    vector = st.lists(residues, min_size=d, max_size=d)

    def coset():
        if k ** (d - 1) <= MAX_COSET and d > 1 and draw(st.booleans()):
            offset = draw(residues)
            return linear_placement(torus, offset=offset).node_ids.tolist()
        gens = np.array(draw(st.lists(vector, min_size=1, max_size=2)))
        span = np.array(
            [c @ gens for c in itertools.product(range(k), repeat=len(gens))]
        )
        if len(_ids(torus, span)) > MAX_COSET:
            span = np.arange(k)[:, None] * gens[0]
        return _ids(torus, span + np.array(draw(vector)))

    def random_set(size):
        return draw(
            st.lists(
                st.integers(min_value=0, max_value=torus.num_nodes - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )

    weighted = draw(st.booleans())
    first = coset() if draw(st.booleans()) else random_set(
        draw(st.integers(min_value=2, max_value=min(7, torus.num_nodes)))
    )
    batch = [first]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["translate", "coset", "random"]))
        if kind == "translate" or weighted:
            # a translate keeps the size (and the coset-ness) of a row
            # already drawn, so one traffic matrix fits every row.
            base = torus.coords(np.array(draw(st.sampled_from(batch))))
            batch.append(_ids(torus, base + np.array(draw(vector))))
        elif kind == "coset":
            batch.append(coset())
        else:
            batch.append(
                random_set(
                    draw(st.integers(min_value=1, max_value=min(7, torus.num_nodes)))
                )
            )
    placements = [Placement(torus, ids, name="hypothesis") for ids in batch]
    routing = draw(
        st.sampled_from(
            [
                OrderedDimensionalRouting(d),
                UnorderedDimensionalRouting(),
                UnrestrictedODR(),
                AllMinimalPaths(),
            ]
        )
    )
    weights = None
    if weighted:
        m = len(first)
        cells = draw(
            st.lists(
                st.integers(min_value=0, max_value=4),
                min_size=m * m,
                max_size=m * m,
            )
        )
        weights = np.array(cells, dtype=np.float64).reshape(m, m)
        np.fill_diagonal(weights, 0.0)
    return placements, routing, weights


@given(regime_case())
@settings(max_examples=60, deadline=None)
def test_cosets_are_spectral_and_everything_else_is_delegated(case):
    placements, routing, weights = case
    tracer = Tracer(label="fft-regimes")
    with using_tracer(tracer), using_plan_cache(PlanCache()):
        loads = FFTBackend().compute_many(placements, routing, weights)
    assert loads.shape == (len(placements), placements[0].torus.num_edges)
    for row, placement in zip(loads, placements):
        if weights is not None or not _is_coset(placement):
            expected = displacement_edge_loads(placement, routing, weights)
            assert row.tobytes() == expected.tobytes()
        else:
            quantum = _grid_quantum(placement, routing)
            oracle = edge_loads_reference(placement, routing)
            assert np.array_equal(
                snap_loads(row, quantum), snap_loads(oracle, quantum)
            )
    counters = tracer.metrics.snapshot()["counters"]
    counted = sum(
        counters.get(f"engine.fft.{name}", 0)
        for name in ("fast_path", "general_path", "snap_fallbacks")
    )
    assert counted == len(placements)
