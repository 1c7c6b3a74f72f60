"""Heuristic bisections for comparison with the paper's constructions.

:func:`spectral_bisection` sorts nodes by the Fiedler vector of the
undirected torus Laplacian and thresholds at the processor median — a
classical spectral partitioning heuristic adapted to Definition 8's
"balance the *processors*, not the nodes" constraint.  The experiments use
it to show the paper's explicit cuts are competitive with (and on uniform
placements as good as) generic machinery.

scipy is imported inside the functions that need it, so importing the
package does not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.bisection.separator import separator_edges
from repro.placements.base import Placement
from repro.util.rng import resolve_rng

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["SpectralBisection", "spectral_bisection"]


@dataclass(frozen=True)
class SpectralBisection:
    """Result of the Fiedler-vector bisection heuristic."""

    side_a_node_ids: np.ndarray
    processors_a: int
    processors_b: int
    cut_edge_ids: np.ndarray

    @property
    def cut_size(self) -> int:
        """Directed edges between the two sides."""
        return int(self.cut_edge_ids.size)

    @property
    def is_balanced(self) -> bool:
        return abs(self.processors_a - self.processors_b) <= 1


def _laplacian(placement: Placement) -> "sp.csr_matrix":
    import scipy.sparse as sp

    torus = placement.torus
    n = torus.num_nodes
    ei = torus.edges
    all_nodes = np.arange(n, dtype=np.int64)
    rows, cols = [], []
    for dim in range(torus.d):
        for sign in (+1, -1):
            heads = ei.neighbors_array(all_nodes, dim, sign)
            rows.append(all_nodes)
            cols.append(heads)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    adj = sp.coo_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(n, n)
    ).tocsr()
    deg = sp.diags(np.asarray(adj.sum(axis=1)).ravel())
    return (deg - adj).tocsr()


def spectral_bisection(placement: Placement, seed: int = 0) -> SpectralBisection:
    """Bisect the placement along its torus's Fiedler vector.

    Ties in the Fiedler coordinates (the torus is highly symmetric) are
    broken by node id, keeping the result deterministic.
    """
    import scipy.sparse.linalg as spla

    torus = placement.torus
    n = torus.num_nodes
    lap = _laplacian(placement)
    rng = resolve_rng(seed)
    v0 = rng.standard_normal(n)
    # smallest two eigenpairs; Fiedler vector = second
    _vals, vecs = spla.eigsh(lap.asfptype(), k=2, which="SM", v0=v0)
    fiedler = vecs[:, 1]

    order = np.lexsort((np.arange(n), fiedler))
    in_p = placement.mask()
    m = len(placement)
    half = m // 2
    # walk the sorted order until half the processors are on side A
    count = 0
    split_at = n
    for rank, node in enumerate(order):
        if in_p[node]:
            count += 1
            if count == half:
                split_at = rank + 1
                break
    side_a = np.sort(order[:split_at]).astype(np.int64)
    processors_a = int(np.count_nonzero(in_p[side_a]))
    cut = separator_edges(torus, side_a)
    return SpectralBisection(
        side_a_node_ids=side_a,
        processors_a=processors_a,
        processors_b=m - processors_a,
        cut_edge_ids=cut,
    )
