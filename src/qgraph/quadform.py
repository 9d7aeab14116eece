"""Sesquilinear form of the operator: edge Dirichlet integrals plus a purely
imaginary skew pairing of traces at each coupled vertex.

This module is the one statement of the form, the equivalent of the vertex
conditions of `coupling`. For trace vectors F, G at one vertex (in endpoint
order, 1-based),

    vertex term = i * sum_{j>k} (-1)^(j+k) (F_k conj(G_j) - F_j conj(G_k)),

which is real on the diagonal; `vertex_form_matrix` writes it once, as the
Hermitian H with G* H F the sum of the vertex terms. The form domain is
edgewise H^1 plus, at every even-degree coupled vertex, the alternating
trace sum constraint sum_j (-1)^j F_j = 0; Dirichlet tips pin their trace to
zero. `_domain_rows` writes these constraints once, as rows over the global
slots: `form_domain_basis` is their null space and `check_domain` tests
traces against them.

The module evaluates trials and builds none, and it alone knows where a
trial is sampled. A trial is any object with the `on_edges` method and the
`breakpoints` mapping of `TrialFunction`, the only two things this module
reads of it; `solve.Eigenfunction` is one. Its one integration code is `_edge_nodes`,
the graph's quadrature split at the trials' breakpoints, cached per graph
where it is not split: a `_Nodes`, [0, length, nodes...] on each edge,
every edge's points in one array, which `on_edges` reads on all edges at
once. `_sample` gives a trial's traces and norm from one values call,
`_form` reads the derivatives at the same points and keeps the nodes', and
`_gram` is the trials' L2 Gram matrix, which `solve.eigenfunction_at`
orthonormalizes with: the traces, the form, the norm, the Rayleigh quotient
and the Gram matrix all read the same nodes. A TrialFunction reads its own
callables edge by edge, an Eigenfunction every edge in one
`kernels.edge_basis` call. Each edge's integral is its own pairwise sum,
and the edges' sums are added in edge order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import accumulate
from operator import add
from typing import NamedTuple

import numpy as np

from .errors import NotInDomain, QGraphError
from .graph import BoundaryType, MetricGraph

DOMAIN_TOL = 1e-9
QUAD_ORDER = 64  # Gauss points per edge piece of form, norm and Gram integrals


@lru_cache(maxsize=1)
def _leggauss():
    return np.polynomial.legendre.leggauss(QUAD_ORDER)


def edge_quadrature(length: float, breaks=()):
    """Gauss-Legendre nodes/weights on [0, length], QUAD_ORDER per piece,
    split at breakpoints."""
    base_x, base_w = _leggauss()
    cuts = [0.0] + sorted(b for b in breaks if 0.0 < b < length) + [float(length)]
    xs, ws = [], []
    for a, b in zip(cuts, cuts[1:]):
        half = (b - a) / 2.0
        xs.append((base_x + 1.0) * half + a)
        ws.append(base_w * half)
    return np.concatenate(xs), np.concatenate(ws)


class _Nodes(NamedTuple):
    """A graph's quadrature, laid out edge after edge in the graph's edge
    order: each edge's points are [0, length, nodes...], all in one
    read-only array, where a trial's `on_edges` reads its values and its
    derivatives."""

    x: np.ndarray
    length: np.ndarray  # each point's edge length
    edge: np.ndarray  # each point's edge index
    parts: tuple  # (edge id, its points: a view of x), edge by edge
    inner: np.ndarray  # the nodes' places among the points
    traces: np.ndarray  # the place among the points of each global slot
    weights: np.ndarray  # the nodes' weights
    pieces: tuple  # each edge's nodes, as a slice of the nodes


@lru_cache(maxsize=64)  # unsplit layouts only: about 2.6 kB per edge
def _quadrature(g: MetricGraph, breaks: frozenset) -> _Nodes:
    """Each edge's quadrature (`edge_quadrature`), split at its (edge id,
    breakpoint) pairs among breaks, laid out edge after edge."""
    quad = [edge_quadrature(e.length, [b for eid, b in breaks if eid == e.id])
            for e in g.edges]
    sizes = [w.size for _, w in quad]
    bounds = [0, *accumulate(n + 2 for n in sizes)]
    cuts = [0, *accumulate(sizes)]
    x = np.concatenate([np.concatenate(([0.0, e.length], nodes))
                        for e, (nodes, _) in zip(g.edges, quad)])
    edge = np.repeat(np.arange(len(sizes)), np.diff(bounds))
    ends = np.array(bounds[:-1]) + np.array([[0], [1]])  # (2, E): 0, length
    q = _Nodes(x, g.lengths[edge], edge,
               tuple((e.id, x[a:b]) for e, a, b in zip(g.edges, bounds, bounds[1:])),
               np.delete(np.arange(x.size), ends.ravel()),
               ends.ravel()[np.argsort(g.end_slots.ravel())],
               np.concatenate([w for _, w in quad]),
               tuple(map(slice, cuts, cuts[1:])))
    for a in (q.x, q.length, q.edge, q.inner, q.traces, q.weights):
        a.flags.writeable = False
    return q


def _edge_nodes(g: MetricGraph, *trials) -> _Nodes:
    """The graph's quadrature split at the set union of the trials'
    breakpoints, so a breakpoint the trials share cuts once. Only the
    unsplit layout is cached: a split one is built per call, as each
    eigenvalue has breakpoints of its own and its layout grows with k l."""
    breaks = frozenset((eid, b) for f in trials
                       for eid, bs in f.breakpoints.items() for b in bs)
    return (_quadrature.__wrapped__ if breaks else _quadrature)(g, breaks)


def _edge_total(terms, q: _Nodes, start):
    """start plus the sum of the terms at the nodes of q, edge by edge:
    np.sum's pairwise sum over each edge, added in the graph's edge order."""
    return reduce(add, [terms[s].sum().item() for s in q.pieces], start)


def _sample(f, q: _Nodes):
    """f's trace vector over the global slots and its squared L2 norm on
    the quadrature q of `_edge_nodes`, from f's values at q's points."""
    v = f.on_edges(q, False)
    return v[q.traces], _edge_total(q.weights * np.abs(v[q.inner]) ** 2, q, 0.0)


def _gram(g: MetricGraph, trials) -> np.ndarray:
    """The trials' L2 Gram matrix, (v * w) @ v^H for their values v at the
    nodes of `_edge_nodes` and the nodes' weights w."""
    q = _edge_nodes(g, *trials)
    v = np.array([f.on_edges(q, False)[q.inner] for f in trials])
    return (v * q.weights) @ v.conj().T


@dataclass
class TrialFunction:
    """Per-edge callables for a form-domain candidate.

    values/derivatives map edge id to a vectorized callable on [0, length].
    breakpoints lists interior kinks so quadrature can split around them.
    """

    values: dict
    derivatives: dict
    breakpoints: dict = field(default_factory=dict)

    def value(self, edge_id: str, x):
        return np.asarray(self.values[edge_id](x), dtype=complex)

    def derivative(self, edge_id: str, x):
        return np.asarray(self.derivatives[edge_id](x), dtype=complex)

    def on_edges(self, points: _Nodes, deriv: bool):
        """Values, or with deriv derivatives, at every edge's points, from
        one call of each edge's callable."""
        read = self.derivative if deriv else self.value
        return np.concatenate([read(eid, x) for eid, x in points.parts])


def trial_traces(g: MetricGraph, f: TrialFunction) -> np.ndarray:
    """Trace vector over global endpoint slots."""
    return _sample(f, _edge_nodes(g, f))[0]


def check_domain(g: MetricGraph, f: TrialFunction) -> None:
    """Raise NotInDomain when a trace constraint is violated by more than
    DOMAIN_TOL."""
    _check_traces(g, trial_traces(g, f))


def _check_traces(g: MetricGraph, traces: np.ndarray) -> None:
    """`check_domain` on a trace vector from `trial_traces`: the first
    constraint of `_domain_rows` off zero by more than DOMAIN_TOL raises."""
    rows, vertices = _domain_rows(g.shape)
    for v, t in zip(vertices, rows @ traces):
        if not abs(t) <= DOMAIN_TOL:  # NaN fails too
            if v.bc is BoundaryType.DIRICHLET:
                raise NotInDomain(f"dirichlet trace {t:.3e} at vertex {v.id!r}")
            raise NotInDomain(
                f"alternating trace sum {abs(t):.3e} at even vertex {v.id!r}")


@lru_cache(maxsize=256)
def _domain_rows(g: MetricGraph):
    """The form domain's trace constraints, as read-only rows over the
    global slots, and the vertex of each, in the graph's vertex order: a
    Dirichlet tip's unit row, and at an even coupled vertex the alternating
    row, (-1)^j at its j-th endpoint from j = 0."""
    vertices = tuple(v for v in g.vertices if v.bc is BoundaryType.DIRICHLET
                     or (v.bc is BoundaryType.COUPLED and v.degree % 2 == 0))
    rows = np.zeros((len(vertices), 2 * g.num_edges))
    for row, v in zip(rows, vertices):
        row[[g.slot_index[ref] for ref in v.order]] = (-1.0) ** np.arange(v.degree)
    rows.flags.writeable = False
    return rows, vertices


@lru_cache(maxsize=256)
def vertex_form_matrix(g: MetricGraph) -> np.ndarray:
    """Hermitian H over global slots, read-only, with G* H F the sum of the
    vertex terms of the module docstring:
    H[s_j, s_k] = i (-1)^(j+k) sign(j - k) at each coupled vertex, s_j the
    slot of its j-th endpoint."""
    m = 2 * g.num_edges
    h = np.zeros((m, m), dtype=complex)
    for v in g.vertices:
        if v.bc is BoundaryType.COUPLED:
            slots = [g.slot_index[ref] for ref in v.order]
            j = np.arange(v.degree)
            h[np.ix_(slots, slots)] = (1j * (-1.0) ** np.add.outer(j, j)
                                       * np.sign(np.subtract.outer(j, j)))
    h.flags.writeable = False
    return h


def form_domain_basis(g: MetricGraph) -> np.ndarray:
    """Orthonormal basis, as columns, of the trace vectors the form domain
    allows: the null space of the M x N constraint rows of `_domain_rows`
    (the constraints `check_domain` tests).

    By numpy's full SVD, with the rank rule of scipy.linalg.null_space:
    singular values above max(s) * eps * max(M, N) count, and the remaining
    right singular vectors span the basis."""
    c = _domain_rows(g)[0]
    if not c.size:
        return np.eye(c.shape[1])
    _, s, vh = np.linalg.svd(c)
    rank = int((s > s.max() * np.finfo(float).eps * max(c.shape)).sum())
    return vh[rank:].T


def form_value(g: MetricGraph, f: TrialFunction, other: TrialFunction = None):
    """Form value a[f, other]; diagonal a[f] (returned real) when other is None.

    The diagonal value is real by construction; its imaginary quadrature
    residual is asserted below 1e-10 before being dropped.
    """
    diag = other is None
    h = f if diag else other
    q = _edge_nodes(g, f, h)
    # on the diagonal each derivative and the trace vector are read once
    ftr = _sample(f, q)[0]
    htr = ftr if diag else _sample(h, q)[0]
    _check_traces(g, ftr)
    if not diag:
        _check_traces(g, htr)
    return _form(g, f, h, q, ftr, htr, diag)


def _form(g: MetricGraph, f: TrialFunction, h: TrialFunction, q: _Nodes,
          ftr, htr, diag: bool):
    """`form_value` from the quadrature q of `_edge_nodes` and the trace
    vectors, checked: the edge integrals of f' conj(h'), plus
    conj(htr) H ftr. On the diagonal, h is f, and the value is real."""
    df = f.on_edges(q, True)[q.inner]
    dh = df if diag else h.on_edges(q, True)[q.inner]
    total = _edge_total(q.weights * df * np.conj(dh), q, 0.0 + 0.0j)
    total += np.conj(htr) @ vertex_form_matrix(g.shape) @ ftr
    if diag:
        if abs(total.imag) > 1e-10 * max(1.0, abs(total.real)):
            raise QGraphError(f"diagonal form value has imaginary part {total.imag:.3e}")
        return float(total.real)
    return complex(total)


def trial_norm_sq(g: MetricGraph, f: TrialFunction) -> float:
    return _sample(f, _edge_nodes(g, f))[1]


def rayleigh_quotient(g: MetricGraph, f: TrialFunction) -> float:
    """form_value(g, f) / trial_norm_sq(g, f), raising their errors in
    their order: a zero norm, a trace off the form domain, an imaginary
    residual. The form reads the traces and the nodes the norm read."""
    q = _edge_nodes(g, f)
    traces, norm = _sample(f, q)
    if norm < 1e-30:
        raise QGraphError("trial function has (numerically) zero norm")
    _check_traces(g, traces)
    return _form(g, f, f, q, traces, traces, True) / norm
