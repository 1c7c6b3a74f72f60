"""networkx export and classical graph facts about :math:`T_k^d`.

These conversions are deliberately kept out of the hot paths — they exist
for cross-validation (shortest paths vs Lee distance, connectivity under
faults) and for users who want to hand the torus to generic graph tooling.
networkx is imported inside the export functions, so importing the
package does not pay for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.torus.topology import Torus

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "to_networkx",
    "to_networkx_undirected",
    "torus_bisection_width",
    "full_torus_diameter",
]


def to_networkx(torus: Torus, removed_edges=None) -> "nx.DiGraph":
    """Build the directed networkx graph of ``torus``.

    Nodes are dense node ids; each edge carries its dense ``edge_id``,
    ``dim``, and ``sign`` as attributes.  ``removed_edges`` (an iterable of
    dense edge ids) supports building the faulted network.

    Notes
    -----
    For ``k == 2`` the ``+`` and ``−`` links between a node pair map to the
    same ``(u, v)`` digraph edge; the ``−`` link's attributes overwrite the
    ``+`` link's.  Fault experiments on ``k == 2`` should therefore use the
    dense edge-id machinery directly rather than the networkx view.
    """
    import networkx as nx

    removed = set(int(e) for e in removed_edges) if removed_edges is not None else set()
    g = nx.DiGraph(k=torus.k, d=torus.d)
    g.add_nodes_from(range(torus.num_nodes))
    ei = torus.edges
    for edge_id in range(torus.num_edges):
        if edge_id in removed:
            continue
        e = ei.decode(edge_id)
        g.add_edge(e.tail, e.head, edge_id=e.edge_id, dim=e.dim, sign=e.sign)
    return g


def to_networkx_undirected(torus: Torus) -> "nx.Graph":
    """Undirected simple-graph view of the torus (one edge per link pair)."""
    return to_networkx(torus).to_undirected()


def torus_bisection_width(k: int, d: int, directed: bool = True) -> int:
    """Bisection width of the fully populated torus, per Section 1.

    For even ``k`` the optimal bisection cuts the torus across one dimension
    at two antipodal boundaries, removing :math:`2k^{d-1}` undirected links
    (:math:`4k^{d-1}` directed), which is the figure the paper quotes.

    Parameters
    ----------
    directed:
        When True (default, matching the paper), count each unidirectional
        link separately.
    """
    width = 4 * k ** (d - 1)
    return width if directed else width // 2


def full_torus_diameter(k: int, d: int) -> int:
    """Graph diameter of :math:`T_k^d`: :math:`d\\lfloor k/2\\rfloor`."""
    return d * (k // 2)
