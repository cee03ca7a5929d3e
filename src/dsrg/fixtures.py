"""Bundled example structures and the 36-vertex isomorphism fixture.

The fixture pairs two differently constructed (36, 12, 5, 2, 5) graphs:
the forward graph on the vertex-edge structure of K_{3,3} and the
backward graph on two pencils of a 3x3 grid.  The grid is the dual of
K_{3,3} (its points are the 9 edges, its lines the 6 vertices), and the
backward graph is the converse of the forward one, so the duality
(p, B) -> (B, p) maps the first graph onto the second.  The data file
data/k33_pencils_iso36.txt lists the same mapping by hand; a test
checks it against the duality.
"""

from __future__ import annotations

from .digraph import Digraph, build_antiflag_backward, build_antiflag_forward
from .incidence import IncidenceStructure, build_gdd, dual, duality_mapping


def k33_edge_structure() -> IncidenceStructure:
    """Vertices and edges of K_{3,3}: identical to the 2-group transversal design."""
    return build_gdd(2, 3)


def grid_two_pencil_structure() -> IncidenceStructure:
    """9 points with the rows and columns of a 3x3 grid as two parallel
    classes: the dual of k33_edge_structure()."""
    return dual(k33_edge_structure())


def bundled_iso_fixture() -> tuple[Digraph, Digraph, tuple[int, ...]]:
    """The two 36-vertex graphs and the duality mapping between them."""
    left = k33_edge_structure()
    return (build_antiflag_forward(left), build_antiflag_backward(dual(left)),
            duality_mapping(left))
