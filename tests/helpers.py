"""Test helpers: synthetic decoding graphs with hand-specified topology.

The Promatch algorithm tests need precise control over the decoding
subgraph shape (the paper's Figures 7, 9, 12, 13).  These helpers build a
:class:`~repro.graph.decoding_graph.DecodingGraph` directly from an edge
list, bypassing circuits entirely.

:class:`ShotCountingDecoder` wraps a real decoder to count decoded shots.
It lives here, in a uniquely named module, so worker pools can pickle it
by reference (a class defined in a ``conftest`` cannot be: several
``conftest`` modules share that name).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.decoding_graph import BOUNDARY_SENTINEL, DecodingGraph, GraphEdge
from repro.utils.bits import probability_to_weight, weight_to_probability


def make_graph(
    n_nodes: int,
    edges: Iterable[Tuple[int, int, float]],
    boundary: Iterable[Tuple[int, float]] = (),
    observables: Optional[Dict[Tuple[int, int], int]] = None,
) -> DecodingGraph:
    """Build a synthetic decoding graph.

    Args:
        n_nodes: Number of detector nodes.
        edges: (u, v, weight) internal edges.
        boundary: (u, weight) boundary edges.
        observables: Optional (u, v) -> observable-mask overrides
            (use v = BOUNDARY_SENTINEL for boundary edges); default 0.
    """
    observables = observables or {}
    graph_edges: List[GraphEdge] = []
    for u, v, weight in edges:
        graph_edges.append(
            GraphEdge(
                u=min(u, v),
                v=max(u, v),
                probability=weight_to_probability(weight),
                weight=float(weight),
                observable_mask=observables.get((min(u, v), max(u, v)), 0),
            )
        )
    for u, weight in boundary:
        graph_edges.append(
            GraphEdge(
                u=u,
                v=BOUNDARY_SENTINEL,
                probability=weight_to_probability(weight),
                weight=float(weight),
                observable_mask=observables.get((u, BOUNDARY_SENTINEL), 0),
            )
        )
    return DecodingGraph(n_nodes=n_nodes, edges=graph_edges)


def make_path_graph(n_nodes: int, weight: float = 1.0) -> DecodingGraph:
    """A line 0 - 1 - ... - (n-1) with boundary edges at both ends."""
    edges = [(i, i + 1, weight) for i in range(n_nodes - 1)]
    boundary = [(0, weight), (n_nodes - 1, weight)]
    return make_graph(n_nodes, edges, boundary)


def figure7_graph() -> DecodingGraph:
    """The paper's Figure 7 pattern: a 4-chain 1-2-3-4.

    Nodes 0..3 model flipped bits 1..4; the correct prematching is
    (0, 1) and (2, 3); matching (1, 2) strands 0 and 3 as singletons.
    Edge weights make the middle edge slightly the cheapest, so a purely
    weight-greedy matcher takes the wrong pair.
    """
    return make_graph(
        n_nodes=4,
        edges=[(0, 1, 2.0), (1, 2, 1.5), (2, 3, 2.0)],
        boundary=[(0, 50.0), (1, 50.0), (2, 50.0), (3, 50.0)],
    )


def figure9_graph() -> DecodingGraph:
    """The paper's Figure 9 pattern.

    Node 0 = bit ``a`` with degree-1 neighbors 1, 2, 3 (= b, c, d);
    node 4 = bit ``e`` adjacent to 0 and to 5 (= f).  Matching (a, b)
    strands c and d; e survives thanks to f.
    """
    return make_graph(
        n_nodes=6,
        edges=[
            (0, 1, 1.0),
            (0, 2, 1.2),
            (0, 3, 1.4),
            (0, 4, 1.6),
            (4, 5, 1.1),
        ],
        boundary=[(i, 60.0) for i in range(6)],
    )


class ShotCountingDecoder:
    """Forwards to an inner decoder while counting decoded shots."""

    def __init__(self, inner):
        self.inner = inner
        self.graph = inner.graph
        self.shots_decoded = 0

    def decode(self, events):
        self.shots_decoded += 1
        return self.inner.decode(events)

    def decode_batch(self, batch):
        self.shots_decoded += len(getattr(batch, "events", batch))
        return self.inner.decode_batch(batch)
