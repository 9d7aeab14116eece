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

The module evaluates trials and builds none. A trial is any object with
the `value` and `derivative` methods and the `breakpoints` mapping of
`TrialFunction`; `solve.Eigenfunction` is one. Its one integration code is
`_edge_nodes`, each edge's nodes split at the trials' breakpoints, and
`_sample`, a trial's traces and norm from one call per edge: the traces,
the form, the norm and the Rayleigh quotient read both, and the Gram matrix
of `solve.eigenfunction_at` reads the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NotInDomain, QGraphError
from .graph import END, BoundaryType, MetricGraph, START

DOMAIN_TOL = 1e-9
QUAD_ORDER = 64  # Gauss points per edge piece of form, norm and Gram integrals


@lru_cache(maxsize=1)
def _leggauss():
    return np.polynomial.legendre.leggauss(QUAD_ORDER)


@lru_cache(maxsize=256)
def edge_quadrature(length: float, breaks: tuple = ()):
    """Gauss-Legendre nodes/weights on [0, length], QUAD_ORDER per piece,
    split at breakpoints; read-only, as one call serves every trial and
    lambda on the edge."""
    base_x, base_w = _leggauss()
    cuts = [0.0] + sorted(b for b in breaks if 0.0 < b < length) + [float(length)]
    xs, ws = [], []
    for a, b in zip(cuts, cuts[1:]):
        half = (b - a) / 2.0
        xs.append((base_x + 1.0) * half + a)
        ws.append(base_w * half)
    x, w = np.concatenate(xs), np.concatenate(ws)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _edge_nodes(g: MetricGraph, *trials):
    """Each edge's nodes and weights (`edge_quadrature`), in the graph's edge
    order, split at the set union of the trials' breakpoints on it, so a
    breakpoint the trials share cuts once."""
    return [edge_quadrature(e.length, tuple(set().union(
                *(f.breakpoints.get(e.id, ()) for f in trials))))
            for e in g.edges]


def _sample(g: MetricGraph, f, nodes):
    """f's trace vector over the global slots and its squared L2 norm on
    the nodes of `_edge_nodes`, from one f.value call per edge on
    [0, length, nodes...]."""
    traces = np.zeros(2 * g.num_edges, dtype=complex)
    norm = 0.0
    for e, (x, w) in zip(g.edges, nodes):
        v = f.value(e.id, np.concatenate(([0.0, e.length], x)))
        traces[g.slot_index[(e.id, START)]] = v[0]
        traces[g.slot_index[(e.id, END)]] = v[1]
        norm += float(np.sum(w * np.abs(v[2:]) ** 2))
    return traces, norm


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


def trial_traces(g: MetricGraph, f: TrialFunction) -> np.ndarray:
    """Trace vector over global endpoint slots."""
    return _sample(g, f, _edge_nodes(g, f))[0]


def check_domain(g: MetricGraph, f: TrialFunction) -> None:
    """Raise NotInDomain when a trace constraint is violated by more than
    DOMAIN_TOL."""
    _check_traces(g, trial_traces(g, f))


def _check_traces(g: MetricGraph, traces: np.ndarray) -> None:
    """`check_domain` on a trace vector from `trial_traces`: the first
    constraint of `_domain_rows` off zero by more than DOMAIN_TOL raises."""
    rows, vertices = _domain_rows(g)
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
    H[s_j, s_k] = i (-1)^(j+k) sign(j - k) at each coupled vertex of degree
    >= 2, s_j the slot of its j-th endpoint."""
    m = 2 * g.num_edges
    h = np.zeros((m, m), dtype=complex)
    for v in g.vertices:
        if v.bc is BoundaryType.COUPLED and v.degree >= 2:
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
    nodes = _edge_nodes(g, f, h)
    # on the diagonal each derivative and the trace vector are read once
    ftr = _sample(g, f, nodes)[0]
    htr = ftr if diag else _sample(g, h, nodes)[0]
    _check_traces(g, ftr)
    if not diag:
        _check_traces(g, htr)
    return _form(g, f, h, nodes, ftr, htr, diag)


def _form(g: MetricGraph, f: TrialFunction, h: TrialFunction, nodes, ftr,
          htr, diag: bool):
    """`form_value` from the nodes of `_edge_nodes` and the trace vectors,
    checked: the edge integrals of f' conj(h'), plus conj(htr) H ftr. On
    the diagonal, h is f, and the value is real."""
    total = 0.0 + 0.0j
    for e, (x, w) in zip(g.edges, nodes):
        df = f.derivative(e.id, x)
        dh = df if diag else h.derivative(e.id, x)
        total += np.sum(w * df * np.conj(dh))
    total += np.conj(htr) @ vertex_form_matrix(g) @ ftr
    if diag:
        if abs(total.imag) > 1e-10 * max(1.0, abs(total.real)):
            raise QGraphError(f"diagonal form value has imaginary part {total.imag:.3e}")
        return float(total.real)
    return complex(total)


def trial_norm_sq(g: MetricGraph, f: TrialFunction) -> float:
    return _sample(g, f, _edge_nodes(g, f))[1]


def rayleigh_quotient(g: MetricGraph, f: TrialFunction) -> float:
    """form_value(g, f) / trial_norm_sq(g, f), raising their errors in
    their order: a zero norm, a trace off the form domain, an imaginary
    residual. The form reads the traces and the nodes the norm read."""
    nodes = _edge_nodes(g, f)
    traces, norm = _sample(g, f, nodes)
    if norm < 1e-30:
        raise QGraphError("trial function has (numerically) zero norm")
    _check_traces(g, traces)
    return _form(g, f, f, nodes, traces, traces, True) / norm
