"""Secular matrices whose rank drops exactly at eigenvalues.

Two routes to the same zero set:

* edge ansatz: unknowns are two solution-basis coefficients per edge, rows are
  the vertex conditions. Entire in lambda, no poles, 2E x 2E. A one-lambda
  matrix is one row of `kernels.build_matrix_grid_numpy`, laid out by the
  graph's edge plan.
* Dirichlet-to-Neumann: unknowns are the endpoint traces, rows impose
  A F + i B M(lambda) F = 0 with M the per-edge DtN map. Undefined at the edge
  Dirichlet eigenvalues (nominal poles), useful as an independent cross-check.
  The DtN entries are written once, in `dtn_tables`: (n_lambda, E) tables of
  the diagonal and off-diagonal entries plus a per-lambda singular mask.
  `build_dtn_grid` lays a batch of them into a stack of secular matrices
  from the route's per-graph plan, `_dtn_plan`; it is the builder that
  `kernels.scan_sigma` runs for this route. `interval_dtn` and the
  one-lambda `build_secular_matrix` are single rows of these.

The same tables give exact eigenvalue counts, `count_below`: N(lambda), the
number of eigenvalues below lambda with multiplicity, is
N_D(lambda) + n_-(Q(lambda)). N_D counts the edge Dirichlet eigenvalues
(n pi / l_e)^2 below lambda and n_- the negative eigenvalues of
Q(lambda) = P* (H - M(lambda)) P, with H the Hermitian vertex term of the
form (`quadform.vertex_form_matrix`) and P an orthonormal basis of the
form-domain traces (`quadform.form_domain_basis`). Off the edge Dirichlet
spectrum the form h - lambda splits orthogonally into its parts on the
edgewise H^1_0 functions and on the lambda-harmonic extensions of the traces,
where integration by parts leaves F* (H - M) F: the Dirichlet-to-Neumann
counting argument of L. Friedlander (Arch. Rational Mech. Anal. 116, 1991),
in the quantum-graph form of Berkolaiko & Kuchment, Introduction to Quantum
Graphs (AMS, 2013). solve uses the counts only to isolate eigenvalues in
cells; sigma_min refines them.

Star graphs additionally admit reduced transcendental forms, which serve
only as regression references; `reduced_negative_kappas` finds their roots
by bisection on numpy alone.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .coupling import assemble_blocks
from .errors import DtNSingular
from .graph import END, MetricGraph, START
from .kernels import build_matrix_grid_numpy, prepare_structure
from .quadform import form_domain_basis, vertex_form_matrix

_POLE_TOL = 1e-13
# A count is trusted when the smallest |eigenvalue| of Q clears eigvalsh's
# backward error: the computed eigenvalues are exact for a Hermitian matrix
# within a small multiple of r * eps * ||Q||_2 of Q (r its order, ||Q||_2 its
# largest |eigenvalue|), so one below that may carry either sign. This is
# the multiple.
_COUNT_TRUST = 10.0
# the largest Dirichlet count a float holds exactly
_EXACT_COUNT = 2.0 ** 53


def dtn_tables(lams, lengths):
    """Per-edge DtN entries, vectorized over lambdas and edges.

    Returns (diag, off, singular): (n, E) tables of the diagonal and
    off-diagonal entries of each interval's DtN map (an interval's map is
    symmetric with equal diagonal entries) and an (n,) mask that is True
    where some edge sits on its Dirichlet spectrum, |sin(k l)| <
    _POLE_TOL * max(1, k l). Rows flagged singular hold no usable entries.
    Below zero, where k cosh(k l) overflows (k l > 710.48 - ln k) or sinh
    does, the diagonal takes its limit -kappa, correctly rounded there since
    coth(k l) rounds to 1; past sinh's overflow the off-diagonal reads 0.
    One pass picks sinh/cosh or sin/cos per row, with the float operations
    of a one-lambda call, so a row has the same bytes in any batch.
    """
    lams = np.asarray(lams, dtype=float).reshape(-1, 1)
    lengths = np.asarray(lengths, dtype=float)
    neg, pos = lams < 0.0, lams > 0.0
    k = np.sqrt(np.abs(lams))
    with np.errstate(over="ignore", invalid="ignore"):
        kl = k * lengths
        sh = np.where(neg, np.sinh(kl), np.sin(kl))
        diag = -k * np.where(neg, np.cosh(kl), np.cos(kl)) / sh
        off = k / sh
    diag = np.where(np.isfinite(diag), diag, -k)
    zero = ~(neg | pos)  # lambda = 0 (and anything neither < 0 nor > 0)
    if zero.any():
        diag = np.where(zero, -1.0 / lengths, diag)
        off = np.where(zero, 1.0 / lengths, off)
    singular = pos[:, 0] & (np.abs(sh) < _POLE_TOL
                            * np.maximum(1.0, kl)).any(axis=1)
    return diag, off, singular


def interval_dtn(length: float, lam: float, edge_id: str = "interval") -> np.ndarray:
    """DtN map of one interval: traces (f(0), f(l)) to inward derivatives.

    Inward means +f'(0) at the start and -f'(l) at the end. Defined for every
    lambda off the interval's Dirichlet spectrum {(n pi / l)^2}; on it,
    raises DtNSingular naming the edge and n.
    """
    diag, off, singular = dtn_tables(lam, [length])
    if singular[0]:
        raise DtNSingular(edge_id,
                          int(round(np.sqrt(lam) * float(length) / np.pi)))
    d, o = diag[0, 0], off[0, 0]
    return np.array([[d, o], [o, d]])


def _edge_slots(g: MetricGraph):
    """The (start, end) slots of every edge, and the edge lengths."""
    start = np.array([g.slot_index[(e.id, START)] for e in g.edges], dtype=np.intp)
    end = np.array([g.slot_index[(e.id, END)] for e in g.edges], dtype=np.intp)
    return start, end, np.array([e.length for e in g.edges], dtype=float)


@lru_cache(maxsize=256)
def _dtn_plan(g: MetricGraph):
    """Per-graph constants of the DtN secular matrices: the vertex blocks A
    and B, then `_edge_slots`."""
    blocks = assemble_blocks(g)
    return (blocks.a, blocks.b) + _edge_slots(g)


def build_dtn_grid(g: MetricGraph, lams):
    """Stack of DtN secular matrices A + i B M(lambda), shape (n, 2E, 2E),
    and the (n,) singular mask of `dtn_tables`; singular rows are not valid
    matrices.

    M is filled from zeros by one add per entry (the two endpoint slots of
    an edge are its own), then the same A + 1j * (B @ M) as a matrix built
    alone, so every row has the bytes of a one-lambda build.
    """
    a, b, start, end, lengths = _dtn_plan(g)
    lams = np.asarray(lams, dtype=float).reshape(-1)
    diag, off, singular = dtn_tables(lams, lengths)
    dtn = np.zeros((lams.size,) + a.shape)
    dtn[:, start, start] += diag
    dtn[:, start, end] += off
    dtn[:, end, start] += off
    dtn[:, end, end] += diag
    return a + 1j * (b @ dtn), singular


@lru_cache(maxsize=256)
def _count_plan(g: MetricGraph):
    """Per-graph constants of `count_below`: P* H P; the stacks
    p_s p_s^T + p_e p_e^T and p_s p_e^T + p_e p_s^T that P* M P takes per
    unit diagonal and off-diagonal DtN entry of each edge, p_s and p_e the
    rows of P at the edge's start and end slots, each flattened to (E, r^2);
    and the edge lengths."""
    start, end, lengths = _edge_slots(g)
    p = form_domain_basis(g)
    ps, pe = p[start][:, :, None], p[end][:, :, None]
    ps_t, pe_t = ps.transpose(0, 2, 1), pe.transpose(0, 2, 1)
    return (p.T @ vertex_form_matrix(g) @ p,
            (ps * ps_t + pe * pe_t).reshape(lengths.size, -1),
            (ps * pe_t + pe * ps_t).reshape(lengths.size, -1), lengths)


def count_below(g: MetricGraph, lams):
    """Exact eigenvalue counts N(lambda) = N_D(lambda) + n_-(Q(lambda)) (see
    the module docstring), with one batched eigvalsh over the lambdas.

    Returns (counts, trusted): an (n,) integer array and an (n,) mask. A
    count is trusted off the singular mask of `dtn_tables`, where N_D is
    exact in a float (at most _EXACT_COUNT), and when no eigenvalue of Q
    lies within _COUNT_TRUST * r * eps * max |mu| of zero, mu the
    eigenvalues of Q and r its order; an untrusted one sits on, or within
    rounding of, an edge Dirichlet eigenvalue or an eigenvalue of the graph,
    or has k l too large for its counts to mean anything.
    """
    hp, dterm, oterm, lengths = _count_plan(g)
    lams = np.asarray(lams, dtype=float).reshape(-1)
    diag, off, singular = dtn_tables(lams, lengths)
    k = np.sqrt(np.maximum(lams, 0.0))[:, None]
    with np.errstate(over="ignore"):
        n_dirichlet = np.maximum(np.ceil(k * lengths / np.pi) - 1.0,
                                 0.0).sum(axis=1)
    # past 2^53 (k l not finite, or so large that the row is singular) the
    # Dirichlet count is no exact integer: the row counts 0, is untrusted as
    # a singular row is, and its DtN entries, nan where k l is not finite,
    # are not used
    if not n_dirichlet.max(initial=0.0) <= _EXACT_COUNT:
        exact = n_dirichlet <= _EXACT_COUNT
        singular = singular | ~exact
        n_dirichlet = np.where(exact, n_dirichlet, 0.0)
        diag = np.where(exact[:, None], diag, 0.0)
        off = np.where(exact[:, None], off, 0.0)
    r = hp.shape[0]
    mu = np.linalg.eigvalsh(
        hp - (diag @ dterm + off @ oterm).reshape(lams.size, r, r))
    abs_mu = np.abs(mu)
    thr = (_COUNT_TRUST * r * np.finfo(float).eps
           * abs_mu.max(axis=1, initial=0.0))
    counts = n_dirichlet.astype(np.intp) + (mu < 0.0).sum(axis=1)
    return counts, ~singular & (abs_mu.min(axis=1, initial=np.inf) > thr)


def build_secular_matrix(g: MetricGraph, lam: float,
                         method: str = "edge") -> np.ndarray:
    """Secular matrix at one lambda; rank deficiency = eigenspace dimension.

    The DtN matrix raises DtNSingular at the first edge with a pole at lam.
    """
    if method == "edge":
        return build_matrix_grid_numpy(np.array([lam]),
                                       prepare_structure(g))[0]
    if method == "dtn":
        mats, singular = build_dtn_grid(g, [lam])
        if singular[0]:
            for e in g.edges:  # raises at the first edge with a pole
                interval_dtn(e.length, lam, e.id)
        return mats[0]
    raise ValueError(f"unknown method {method!r}")


# -- star reduced forms --------------------------------------------------------

def star_secular_reduced(lengths, tips: str, kappa):
    """Real reduced secular function for the star cases that admit one.

    Neumann tips: any 3-star (sum of coth products minus kappa^2), equilateral
    4-star (coth^2 - kappa^2), equilateral 6-star (quartic in coth). Dirichlet
    tips: any 3-star with coth replaced by tanh. A scalar kappa gives a float,
    an array of kappas an array of values.
    """
    lengths = np.asarray(lengths, dtype=float)
    n = lengths.size
    equilateral = np.allclose(lengths, lengths[0], rtol=0, atol=0)
    if tips == "neumann":
        if n == 3:
            c = 1.0 / np.tanh(np.multiply.outer(kappa, lengths))
            return _real(c[..., 0] * c[..., 1] + c[..., 0] * c[..., 2]
                         + c[..., 1] * c[..., 2] - kappa ** 2)
        if n == 4 and equilateral:
            c = 1.0 / np.tanh(kappa * lengths[0])
            return _real(c ** 2 - kappa ** 2)
        if n == 6 and equilateral:
            c2 = (1.0 / np.tanh(kappa * lengths[0])) ** 2
            return _real(3.0 * c2 ** 2 - 10.0 * c2 * kappa ** 2 + 3.0 * kappa ** 4)
    elif tips == "dirichlet":
        if n == 3:
            t = np.tanh(np.multiply.outer(kappa, lengths))
            return _real(t[..., 0] * t[..., 1] + t[..., 0] * t[..., 2]
                         + t[..., 1] * t[..., 2] - kappa ** 2)
    else:
        raise ValueError(f"unknown tip condition {tips!r}")
    raise ValueError(f"no reduced form for N={n}, tips={tips}, "
                     f"equilateral={equilateral}")


def _real(x):
    return float(x) if np.ndim(x) == 0 else x


def reduced_negative_kappas(lengths, tips: str = "neumann",
                            kappa_max: float = None) -> list:
    """All kappa > 0 roots of the reduced secular function, ascending.

    Independent of the general solver: scalar root finding on the
    transcendental reduced forms. Each sign change of the function on a
    20,000-point kappa grid brackets one root, and every bracket is halved
    in lockstep, keeping the half whose ends differ in sign, until its
    midpoint rounds to one of its ends.
    """
    lengths = np.asarray(lengths, dtype=float)
    if kappa_max is None:
        # coth(kappa l) <= coth of the smallest edge bounds the root region
        kappa_max = 3.0 * lengths.size / np.sqrt(np.min(lengths)) + 5.0
    grid = np.linspace(1e-6, kappa_max, 20000)
    vals = star_secular_reduced(lengths, tips, grid)
    sign = np.sign(vals)
    i = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    a, b, sa = grid[i], grid[i + 1], sign[i]
    while True:
        mid = 0.5 * (a + b)
        if not ((a < mid) & (mid < b)).any():
            break
        up = np.sign(star_secular_reduced(lengths, tips, mid)) == sa
        a, b = np.where(up, mid, a), np.where(up, b, mid)
    return (0.5 * (a + b)).tolist()
