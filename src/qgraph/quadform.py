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

The module evaluates trials and builds none: a `TrialFunction` comes from
its caller, as `solve.Eigenfunction.as_trial` gives one.
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


def edge_quadrature(length: float, breaks: tuple = ()):
    """Gauss-Legendre nodes/weights on [0, length], QUAD_ORDER per piece,
    split at breakpoints."""
    base_x, base_w = _leggauss()
    inner = sorted(b for b in breaks if 0.0 < b < length)
    if not inner:  # one piece
        half = float(length) / 2.0
        return (base_x + 1.0) * half, base_w * half
    cuts = [0.0] + inner + [float(length)]
    xs, ws = [], []
    for a, b in zip(cuts, cuts[1:]):
        half = (b - a) / 2.0
        xs.append((base_x + 1.0) * half + a)
        ws.append(base_w * half)
    return np.concatenate(xs), np.concatenate(ws)


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
    out = np.zeros(2 * g.num_edges, dtype=complex)
    for e in g.edges:
        out[g.slot_index[(e.id, START)]] = complex(f.value(e.id, 0.0))
        out[g.slot_index[(e.id, END)]] = complex(f.value(e.id, e.length))
    return out


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
    # on the diagonal each derivative and the trace vector are read once
    ftr = trial_traces(g, f)
    htr = ftr if diag else trial_traces(g, h)
    _check_traces(g, ftr)
    if not diag:
        _check_traces(g, htr)
    return _form(g, f, h, ftr, htr, diag)


def _form(g: MetricGraph, f: TrialFunction, h: TrialFunction, ftr, htr,
          diag: bool):
    """`form_value` from the trace vectors, checked: the edge integrals of
    f' conj(h') by quadrature split at both trials' breakpoints, plus
    conj(htr) H ftr. On the diagonal, h is f, and the value is real."""
    total = 0.0 + 0.0j
    for e in g.edges:
        breaks = tuple(f.breakpoints.get(e.id, ())) + tuple(h.breakpoints.get(e.id, ()))
        x, w = edge_quadrature(e.length, breaks=breaks)
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
    total = 0.0
    for e in g.edges:
        x, w = edge_quadrature(e.length, breaks=tuple(f.breakpoints.get(e.id, ())))
        total += float(np.sum(w * np.abs(f.value(e.id, x)) ** 2))
    return total


def rayleigh_quotient(g: MetricGraph, f: TrialFunction) -> float:
    """form_value(g, f) / trial_norm_sq(g, f), raising their errors in
    their order: a zero norm, a trace off the form domain, an imaginary
    residual. Each edge's traces and norm quadrature values come from one
    f.value call."""
    traces = np.zeros(2 * g.num_edges, dtype=complex)
    norm = 0.0
    for e in g.edges:
        x, w = edge_quadrature(e.length, tuple(f.breakpoints.get(e.id, ())))
        v = f.value(e.id, np.concatenate(([0.0, e.length], x)))
        traces[g.slot_index[(e.id, START)]] = v[0]
        traces[g.slot_index[(e.id, END)]] = v[1]
        norm += float(np.sum(w * np.abs(v[2:]) ** 2))
    if norm < 1e-30:
        raise QGraphError("trial function has (numerically) zero norm")
    _check_traces(g, traces)
    return _form(g, f, f, traces, traces, True) / norm
