"""Backend protocol for the :class:`~repro.load.engine.LoadEngine` facade.

A *backend* is one strategy for evaluating Definition 4's per-edge loads

.. math::

    \\mathcal{E}(l) = \\sum_{p \\ne q \\in P}
        w_{pq}\\,\\frac{|C^A_{p→l→q}|}{|C^A_{p→q}|}

given a placement, a routing algorithm, and an optional traffic matrix.
Every backend must produce *exactly* the same numbers as the reference
oracle (:func:`repro.load.edge_loads.edge_loads_reference`) whenever it
declares itself applicable via :meth:`LoadBackend.supports`; the engine's
cross-check utilities and the unit tests enforce this to ``1e-9``.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import InvalidParameterError
from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm

__all__ = ["LoadBackend", "validate_pair_weights"]


def validate_pair_weights(
    pair_weights: np.ndarray | None, m: int
) -> np.ndarray | None:
    """Coerce a traffic matrix to ``float64`` and check it.

    Returns ``None`` untouched (the complete-exchange default).  Raises
    :class:`~repro.errors.InvalidParameterError` (a ``ValueError``) on a
    shape mismatch or on any non-finite or negative entry: message
    multiplicities are finite and non-negative, and a NaN or negative
    weight would otherwise come back as a plausible-looking wrong load.
    """
    if pair_weights is None:
        return None
    pair_weights = np.asarray(pair_weights, dtype=np.float64)
    if pair_weights.shape != (m, m):
        raise InvalidParameterError(
            f"pair_weights must have shape ({m}, {m}), got {pair_weights.shape}"
        )
    invalid = ~np.isfinite(pair_weights) | (pair_weights < 0)
    if invalid.any():
        i, j = np.argwhere(invalid)[0]
        raise InvalidParameterError(
            "pair_weights must be finite and non-negative; entry "
            f"({i}, {j}) is {pair_weights[i, j]}"
        )
    return pair_weights


class LoadBackend(abc.ABC):
    """One strategy for computing exact per-edge loads.

    Subclasses implement :meth:`compute` and — when they only handle a
    subset of routings or traffic patterns — override :meth:`supports`
    so the ``auto`` engine can skip them cleanly.
    """

    #: registry / CLI name of the backend.
    name: str = "backend"

    def supports(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> bool:
        """Whether :meth:`compute` can handle this configuration exactly."""
        return True

    @abc.abstractmethod
    def compute(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-edge loads; ``float64`` of length ``torus.num_edges``."""

    def compute_many(
        self,
        placements: list[Placement],
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-edge loads of a placement batch; ``(B, num_edges)``.

        The default is the sequential loop — row ``b`` is exactly
        ``compute(placements[b], ...)``.  Backends with a genuinely
        batched evaluation (the FFT backend's stacked indicator
        transform) override this; the override must stay bit-identical
        to the sequential rows after the quantize snap-back.
        """
        return np.stack(
            [
                self.compute(placement, routing, pair_weights=pair_weights)
                for placement in placements
            ]
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"{type(self).__name__}(name={self.name!r})"
