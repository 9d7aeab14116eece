"""Vertex condition matrices: the one statement of the vertex conditions.

A vertex of degree d with the coupled condition imposes, cyclically in its
endpoint order, (F_{j+1} - F_j) + i(F'_j + F'_{j+1}) = 0, with derivatives
taken into the edges. In matrix form that is A F + i B F' = 0 where A is the
cyclic difference matrix and B the cyclic sum matrix. Degree-1 vertices carry
Neumann (A=0, B=1) or Dirichlet (A=1, B=0) data.

The pairs are built for the vertices of a validated graph, which come in
these kinds only: coupled of degree >= 2, or a Neumann or Dirichlet tip of
degree 1. `MetricGraph.create` rewrites a coupled vertex of degree 1 to a
Neumann tip (the cyclic condition at one endpoint is F' = 0) and refuses
any other kind, so no other (condition, degree) pair reaches this module.

Both secular routes read their rows from `assemble_blocks`, which places
each vertex's pair at its endpoints' global slots (`MetricGraph.slot_index`):
the DtN route's plan (`secular._dtn_plan`) folds B into the stacks it
multiplies the DtN tables by, once per graph, and the edge route's plan
(`kernels.prepare_structure`) takes A's entries as value terms and B's as
derivative terms. The quadratic form's equivalent statement, the skew
pairing H and the form domain, is `quadform`'s.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .graph import BoundaryType, MetricGraph


@lru_cache(maxsize=64)
def build_vertex_pair(bc: BoundaryType, degree: int):
    """(A, B) for one vertex of a validated graph; both are degree x degree
    real arrays, read-only since one pair serves every vertex of its
    condition and degree."""
    if bc is BoundaryType.COUPLED:
        eye = np.eye(degree)
        shift = np.roll(eye, 1, axis=1)  # ones on the superdiagonal and the corner
        # row j of A F reads F_{j+1} - F_j (cyclically), so A is shift minus eye
        pair = shift - eye, eye + shift
    else:  # a tip: (A, B) = (d, 1 - d), d = 1 for Dirichlet
        dirichlet = float(bc is BoundaryType.DIRICHLET)
        pair = np.array([[dirichlet]]), np.array([[1.0 - dirichlet]])
    for x in pair:
        x.flags.writeable = False
    return pair


def assemble_blocks(g: MetricGraph):
    """The block-diagonal pair (A, B) over all vertices, each m x m with
    m = 2E, rows and columns in the graph's global endpoint slot order:
    each vertex's pair sits at the slots of its endpoints, in its order."""
    m = 2 * g.num_edges
    a, b = np.zeros((m, m)), np.zeros((m, m))
    for v in g.vertices:
        slots = np.array([g.slot_index[ref] for ref in v.order])
        at = slots[:, None], slots
        a[at], b[at] = build_vertex_pair(v.bc, v.degree)
    return a, b
