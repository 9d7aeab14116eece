"""Sesquilinear form of the operator: edge Dirichlet integrals plus a purely
imaginary skew pairing of traces at each coupled vertex.

For trace vectors F, G at one vertex (in endpoint order, 1-based),

    vertex term = i * sum_{j>k} (-1)^(j+k) (F_k conj(G_j) - F_j conj(G_k)),

which is real on the diagonal. The form domain is edgewise H^1 plus, at every
even-degree coupled vertex, the alternating trace sum constraint
sum_j (-1)^j F_j = 0; Dirichlet tips pin their trace to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import null_space

from .errors import NotInDomain, QGraphError
from .graph import END, BoundaryType, MetricGraph, START
from .surgery import Transplant, apply_surgery

DOMAIN_TOL = 1e-9


@lru_cache(maxsize=512)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def edge_quadrature(length: float, order: int = 64, breaks: tuple = ()):
    """Gauss-Legendre nodes/weights on [0, length], split at breakpoints."""
    base_x, base_w = _leggauss(order)
    cuts = [0.0] + sorted(b for b in breaks if 0.0 < b < length) + [float(length)]
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


def check_domain(g: MetricGraph, f: TrialFunction, tol: float = DOMAIN_TOL) -> None:
    """Raise NotInDomain when a trace constraint is violated."""
    traces = trial_traces(g, f)
    for v in g.vertices:
        if v.bc is BoundaryType.DIRICHLET:
            t = traces[g.slot_index[v.order[0]]]
            if abs(t) > tol:
                raise NotInDomain(f"dirichlet trace {t:.3e} at vertex {v.id!r}")
        elif v.bc is BoundaryType.COUPLED and v.degree % 2 == 0:
            alt = sum((-1) ** (j + 1) * traces[g.slot_index[ref]]
                      for j, ref in enumerate(v.order, start=1))
            if abs(alt) > tol:
                raise NotInDomain(
                    f"alternating trace sum {abs(alt):.3e} at even vertex {v.id!r}")


def _vertex_pair_term(fv: np.ndarray, gv: np.ndarray) -> complex:
    """i * sum_{j>k} (-1)^(j+k) (F_k conj(G_j) - F_j conj(G_k))."""
    total = 0.0 + 0.0j
    d = len(fv)
    for j in range(1, d):
        for k in range(j):
            sign = -1.0 if (j + k) % 2 else 1.0  # (-1)^(j+k), 0-based == 1-based parity
            total += sign * (fv[k] * np.conj(gv[j]) - fv[j] * np.conj(gv[k]))
    return 1j * total


def vertex_form_matrix(g: MetricGraph) -> np.ndarray:
    """Hermitian H over global slots with G* H F the sum of the vertex terms
    of `form_value` (`_vertex_pair_term` on each vertex's traces):
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
    return h


def form_domain_basis(g: MetricGraph) -> np.ndarray:
    """Orthonormal basis, as columns, of the trace vectors the form domain
    allows: zero at Dirichlet tips, zero alternating sum at even coupled
    vertices (the constraints `check_domain` tests)."""
    m = 2 * g.num_edges
    rows = []
    for v in g.vertices:
        slots = [g.slot_index[ref] for ref in v.order]
        if v.bc is BoundaryType.DIRICHLET:
            rows.append(np.eye(m)[slots[0]])
        elif v.bc is BoundaryType.COUPLED and v.degree % 2 == 0:
            row = np.zeros(m)
            row[slots] = [(-1) ** j for j in range(v.degree)]
            rows.append(row)
    if not rows:
        return np.eye(m)
    return null_space(np.array(rows))


def form_value(g: MetricGraph, f: TrialFunction, other: TrialFunction = None, *,
               order: int = 64, domain_tol: float = DOMAIN_TOL,
               skip_domain_check: bool = False):
    """Form value a[f, other]; diagonal a[f] (returned real) when other is None.

    The diagonal value is real by construction; its imaginary quadrature
    residual is asserted below 1e-10 before being dropped.
    """
    diag = other is None
    h = f if diag else other
    if not skip_domain_check:
        check_domain(g, f, domain_tol)
        if not diag:
            check_domain(g, h, domain_tol)
    total = 0.0 + 0.0j
    for e in g.edges:
        breaks = tuple(f.breakpoints.get(e.id, ())) + tuple(h.breakpoints.get(e.id, ()))
        x, w = edge_quadrature(e.length, order, breaks)
        total += np.sum(w * f.derivative(e.id, x) * np.conj(h.derivative(e.id, x)))
    ftr = trial_traces(g, f)
    htr = ftr if diag else trial_traces(g, h)
    for v in g.vertices:
        if v.bc is BoundaryType.COUPLED and v.degree >= 2:
            slots = [g.slot_index[ref] for ref in v.order]
            total += _vertex_pair_term(ftr[slots], htr[slots])
    if diag:
        if abs(total.imag) > 1e-10 * max(1.0, abs(total.real)):
            raise QGraphError(f"diagonal form value has imaginary part {total.imag:.3e}")
        return float(total.real)
    return complex(total)


def trial_norm_sq(g: MetricGraph, f: TrialFunction, order: int = 64) -> float:
    total = 0.0
    for e in g.edges:
        x, w = edge_quadrature(e.length, order, tuple(f.breakpoints.get(e.id, ())))
        total += float(np.sum(w * np.abs(f.value(e.id, x)) ** 2))
    return total


def grad_norm_sq(g: MetricGraph, f: TrialFunction, order: int = 64) -> float:
    total = 0.0
    for e in g.edges:
        x, w = edge_quadrature(e.length, order, tuple(f.breakpoints.get(e.id, ())))
        total += float(np.sum(w * np.abs(f.derivative(e.id, x)) ** 2))
    return total


def rayleigh_quotient(g: MetricGraph, f: TrialFunction, *, order: int = 64) -> float:
    norm = trial_norm_sq(g, f, order)
    if norm < 1e-30:
        raise QGraphError("trial function has (numerically) zero norm")
    return form_value(g, f, order=order) / norm


def build_transplant_trial(g: MetricGraph, psi, from_edge: str, to_edge: str,
                           amount: float, *, seam_tol: float = 1e-13):
    """Transplant trial: cut `amount` off from_edge's far end, glue a scaled
    copy of the removed tail onto to_edge's far end.

    psi is an Eigenfunction of g (expected: the star ground state). Returns
    (new_graph, TrialFunction on it). The construction keeps the trial
    continuous at the seam and leaves every vertex trace of the original
    center untouched, so domain membership carries over.
    """
    le_from = g.edge_map[from_edge].length
    le_to = g.edge_map[to_edge].length
    if le_from > le_to:
        raise QGraphError("transplant trial moves length from the shorter edge")
    n_edges = g.num_edges
    if not (0.0 < amount <= le_from):
        raise QGraphError(f"amount {amount} outside (0, {le_from}]")
    if amount == le_from and n_edges % 2 == 1:
        raise QGraphError("full removal of an edge needs an even edge count")
    new_g = apply_surgery(g, Transplant(from_edge, to_edge, amount))
    stub = le_from - amount
    seam_val = complex(psi.value(from_edge, stub))
    denom = complex(psi.value(to_edge, le_to))
    # scale so the glued tail continues psi on to_edge
    if abs(seam_val) < seam_tol:
        raise QGraphError("eigenfunction vanishes at the cut point; trial undefined")
    scale = denom / seam_val

    values = {}
    derivs = {}
    breaks = {}
    for e in new_g.edges:
        if e.id == to_edge:
            def val(x, _s=scale, _l=le_to, _st=stub, _eid=from_edge, _tid=to_edge):
                x = np.asarray(x, dtype=float)
                inner = psi.value(_tid, np.minimum(x, _l))
                outer = _s * psi.value(_eid, np.clip(x - _l + _st, 0.0, None))
                return np.where(x <= _l, inner, outer)

            def der(x, _s=scale, _l=le_to, _st=stub, _eid=from_edge, _tid=to_edge):
                x = np.asarray(x, dtype=float)
                inner = psi.derivative(_tid, np.minimum(x, _l))
                outer = _s * psi.derivative(_eid, np.clip(x - _l + _st, 0.0, None))
                return np.where(x <= _l, inner, outer)

            values[e.id] = val
            derivs[e.id] = der
            breaks[e.id] = (le_to,)
        else:
            values[e.id] = (lambda x, _eid=e.id: psi.value(_eid, x))
            derivs[e.id] = (lambda x, _eid=e.id: psi.derivative(_eid, x))
    return new_g, TrialFunction(values=values, derivatives=derivs, breakpoints=breaks)
