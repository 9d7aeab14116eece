"""Secular matrices whose rank drops exactly at eigenvalues.

Two routes to the same zero set:

* edge ansatz: unknowns are two solution-basis coefficients per edge, rows are
  the vertex conditions. Entire in lambda, no poles, 2E x 2E. A one-lambda
  matrix is one row of `kernels.build_matrix_grid_numpy`, laid out by the
  graph's edge plan.
* Dirichlet-to-Neumann: an independent cross-check. Each edge is split at
  the fraction alpha = _SPLIT of its length into two pieces; the unknowns are
  the endpoint traces F and each edge's split-point trace u, 3E x 3E. With
  (d, o) the diagonal and off-diagonal DtN entries of the pieces a = [0,
  alpha l] and b = [alpha l, l], the inward derivative at an edge's start is
  d_a F_s + o_a u and at its end d_b F_e + o_b u; the 2E vertex rows impose
  A F + i B F' = 0 with these, and the E split-point rows the matching of
  the two pieces' derivatives, o_a F_s + (d_a + d_b) u + o_b F_e = 0 (times
  i: the row of a Neumann vertex of degree 2, A = 0 and B = 1). Sharing u
  builds in continuity. An edge's own DtN map has poles at its Dirichlet
  eigenvalues (m pi / l)^2, where eigenvalues often sit; the pieces' poles
  lie off them, and the matrix is singular only on a piece's pole.
  Eliminating u would bring the edge's poles back.
  The DtN entries are written once, in `dtn_tables`: (n_lambda, n_pieces)
  tables of the diagonal and off-diagonal entries plus a per-lambda
  singular mask. `build_dtn_grid` turns a batch of them into the stack
  A' + i (diag @ D + off @ O), A' = diag(A, 0), from the route's per-graph
  plan, `_dtn_plan`, whose stacks D and O are what B' M takes per unit DtN
  entry, B' = diag(B, I); it is the builder that `kernels.scan_sigma` runs
  for this route. `interval_dtn` and the one-lambda `build_secular_matrix`
  are single rows of these.

The same tables, over the unsplit edges, give exact eigenvalue counts,
`count_below`: N(lambda), the number of eigenvalues below lambda with
multiplicity, is N_D(lambda) + n_-(Q(lambda)). N_D counts the edge Dirichlet
eigenvalues (n pi / l_e)^2 below lambda and n_- the negative eigenvalues of
Q(lambda) = P* (H - M(lambda)) P, with H the Hermitian vertex term of the form
(`quadform.vertex_form_matrix`) and P an orthonormal basis of the form-domain
traces (`quadform.form_domain_basis`). Off the edge Dirichlet spectrum the
form h - lambda splits orthogonally into its parts on the edgewise H^1_0
functions and on the lambda-harmonic extensions of the traces, where
integration by parts leaves F* (H - M) F: the Dirichlet-to-Neumann counting
argument of L. Friedlander (Arch. Rational Mech. Anal. 116, 1991), in the
quantum-graph form of Berkolaiko & Kuchment, Introduction to Quantum Graphs
(AMS, 2013). solve uses the counts only to isolate eigenvalues in cells,
reading through `_count_parts` each count's N_D and mu as well, to aim a
cell's bisection at its root; sigma_min refines them.

Both matrices linear in the DtN map, Q and A + i B M, are built one way: a
constant plus diag @ D + off @ O, with the stacks D and O of
`_dtn_stacks` from the left and right factors at each piece's two traces
(P's rows at an edge's two ends for Q; B''s columns and unit rows at a
piece's two traces for the DtN route). Those traces' slots are read from
`MetricGraph.end_slots`, the one statement of the edge ends' slots.

What is cached per shape (`MetricGraph.shape`: the vertices, their
conditions and endpoint orders, and the edges' ids and endpoints) is the
count's plan, `_count_plan`: P* H P and the two stacks P* M P takes per
unit DtN entry, read-only and shared by every graph of that shape. What
stays per graph is its edge lengths (`MetricGraph.lengths`), from which
each call makes its DtN tables and N_D, and the DtN route's plan
`_dtn_plan`, whose pieces are lengths (it calls `assemble_blocks` per
graph, a call the benchmark's `crosscheck` layers record).

Every star has one reduced form, which serves only as a regression
reference: lambda = -kappa^2 is an eigenvalue exactly where Im prod_j (1 +
i kappa tau_j) = 0, tau_j = tanh(kappa l_j) at a Neumann tip and coth(kappa
l_j) at a Dirichlet tip (`star_secular_reduced`).
`reduced_negative_kappas` finds its roots by bisection on numpy alone, on a
kappa grid that ends at a bound read off the product.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .coupling import assemble_blocks
from .errors import DtNSingular
from .graph import MetricGraph
from .kernels import build_matrix_grid_numpy, prepare_structure
from .quadform import form_domain_basis, vertex_form_matrix

_POLE_TOL = 1e-13
# the DtN route splits each edge at this fraction of its length, golden
# section's (3 - sqrt(5)) / 2: irrational, so no pole of either piece lies
# on an edge Dirichlet eigenvalue or on a pole of the other piece
_SPLIT = (3.0 - math.sqrt(5.0)) / 2.0
# A count is trusted when the smallest |eigenvalue| of Q clears eigvalsh's
# backward error: the computed eigenvalues are exact for a Hermitian matrix
# within a small multiple of r * eps * ||Q||_2 of Q (r its order, ||Q||_2 its
# largest |eigenvalue|), so one below that may carry either sign. This is
# the multiple.
_COUNT_TRUST = 10.0
_EPS = np.finfo(float).eps
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
    return _dtn_entries(lams, lengths)[:3]


def _dtn_entries(lams, lengths):
    """`dtn_tables`, and the (n, E) table of k l it was computed from,
    k = sqrt(|lambda|), with 0 in the rows below zero: above zero, the
    table `count_below` reads the edge Dirichlet counts off."""
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
    return diag, off, singular, np.where(neg, 0.0, kl)


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


def _dtn_stacks(ls, le, rs, re):
    """The stacks l_s r_s + l_e r_e and l_s r_e + l_e r_s, each flattened
    to (pieces, rows * columns), that a matrix linear in the DtN map takes
    per unit diagonal and per unit off-diagonal DtN entry of each piece,
    from the left factors (ls, le) and the right factors (rs, re) at each
    piece's two traces s and e, one row per piece."""
    ls, le, rs, re = ls[:, :, None], le[:, :, None], rs[:, None], re[:, None]
    return ((ls * rs + le * re).reshape(ls.shape[0], -1),
            (ls * re + le * rs).reshape(ls.shape[0], -1))


@lru_cache(maxsize=16)  # dense, about 288 E^3 bytes an entry; a solve reads one
def _dtn_plan(g: MetricGraph):
    """Per-graph constants of the DtN secular matrices over the traces
    (F, u), F at the 2E endpoint slots and u at the E split points (column
    2E + e for edge e), read-only: A' = diag(A, 0) of the vertex blocks A
    and B; the stacks of `_dtn_stacks` that B' M takes, B' = diag(B, I),
    whose left factors are B''s columns at a piece's two traces and whose
    right factors are those traces' unit rows; and the pieces' lengths, the
    first pieces [0, alpha l] of all edges before the second pieces. Each
    piece is taken from its edge end's slot to the split point (a piece's
    DtN map is symmetric, so the second piece may run backwards)."""
    m, ne = 2 * g.num_edges, g.num_edges
    a, b = np.zeros((m + ne, m + ne)), np.eye(m + ne)
    a[:m, :m], b[:m, :m] = assemble_blocks(g)
    # piece p's traces: its edge end's slot at[0, p], its split point at[1, p]
    at = np.stack((g.end_slots.ravel(), np.tile(m + np.arange(ne), 2)))
    first = _SPLIT * g.lengths
    plan = (a, *_dtn_stacks(*b.T[at], *np.eye(m + ne)[at]),
            np.concatenate((first, g.lengths - first)))
    for x in plan:
        x.flags.writeable = False
    return plan


def build_dtn_grid(g: MetricGraph, lams):
    """Stack of DtN secular matrices A + i B M(lambda) over the traces
    (F, u) of `_dtn_plan`, shape (n, 3E, 3E), and the (n,) singular mask of
    `dtn_tables` over the pieces; singular rows are not valid matrices.

    The stack is A' + i (diag @ dterm + off @ oterm), as `count_below`'s Q
    is P* H P - (diag @ dterm + off @ oterm), over stacks of `_dtn_stacks`.
    A zero array takes A' as its real part and each product added into its
    imaginary part, so no complex temporary is made. No entry of B' M sums
    more than two nonzero products, each exact (B's entries are 0 and 1),
    and adding to +0.0 turns a -0.0 into +0.0, so every row has the bytes
    of a one-lambda build and, off the singular rows, of A' + 1j * (B' @ M),
    whatever order the products add in.
    """
    a, dterm, oterm, pieces = _dtn_plan(g)
    lams = np.asarray(lams, dtype=float).reshape(-1)
    diag, off, singular = dtn_tables(lams, pieces)
    mats = np.zeros((lams.size,) + a.shape, dtype=complex)
    mats.real = a
    mats.imag += (diag @ dterm).reshape(mats.shape)
    mats.imag += (off @ oterm).reshape(mats.shape)
    return mats, singular


@lru_cache(maxsize=64)
def _count_plan(shape: MetricGraph):
    """The constants of `count_below` for a graph's shape
    (`MetricGraph.shape`), read-only: P* H P, and the stacks of
    `_dtn_stacks` that P* M P takes, both factors P's rows at each edge's
    (start, end) slots. None of them reads a length."""
    p = form_domain_basis(shape)
    ps, pe = p[shape.end_slots]
    plan = (p.T @ vertex_form_matrix(shape) @ p, *_dtn_stacks(ps, pe, ps, pe))
    for a in plan:
        a.flags.writeable = False
    return plan


def count_below(g: MetricGraph, lams):
    """Exact eigenvalue counts N(lambda) = N_D(lambda) + n_-(Q(lambda)) (see
    the module docstring), with one batched eigvalsh over the lambdas.

    Returns (counts, trusted): an (n,) integer array and an (n,) mask. A
    count is trusted off the singular mask of `dtn_tables`, where N_D is
    exact in a float (at most _EXACT_COUNT), and when no eigenvalue of Q
    lies within _COUNT_TRUST * r * eps * max |mu| of zero, mu the
    eigenvalues of Q and r its order; an untrusted one sits on, or within
    rounding of, an edge Dirichlet eigenvalue or an eigenvalue of the graph,
    or has k l too large for its counts to mean anything. Q is formed from
    the graph's lengths and the plan of its shape, `_count_plan`.
    """
    return _count_parts(g, lams)[:2]


def _count_parts(g: MetricGraph, lams):
    """`count_below`'s (counts, trusted), and the parts each count is read
    from: the (n,) integer array of N_D and the (n, r) array of the
    eigenvalues mu of Q, ascending in each row, so that the count is N_D
    plus the number of negative entries of its row. Where a count rises by
    one between two lambdas with equal N_D, the mu that changed sign,
    mu[j] with j = n_- at the lower one, locates the root by regula falsi
    (`solve._isolate`'s jump)."""
    hp, dterm, oterm = _count_plan(g.shape)
    lams = np.asarray(lams, dtype=float).reshape(-1)
    diag, off, singular, kl = _dtn_entries(lams, g.lengths)
    # N_D: each edge's ceil(k l / pi) - 1 Dirichlet eigenvalues below lambda
    n_dirichlet = np.maximum(np.ceil(kl / np.pi) - 1.0, 0.0).sum(axis=1)
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
    thr = _COUNT_TRUST * r * _EPS * abs_mu.max(axis=1, initial=0.0)
    n_dirichlet = n_dirichlet.astype(np.intp)
    return (n_dirichlet + (mu < 0.0).sum(axis=1),
            ~singular & (abs_mu.min(axis=1, initial=np.inf) > thr),
            n_dirichlet, mu)


def build_secular_matrix(g: MetricGraph, lam: float,
                         method: str = "edge") -> np.ndarray:
    """Secular matrix at one lambda; rank deficiency = eigenspace dimension.

    The DtN matrix raises DtNSingular at the first edge with a piece that
    has a pole at lam, naming the edge and the piece's n.
    """
    if method == "edge":
        return build_matrix_grid_numpy(np.array([lam]),
                                       prepare_structure(g))[0]
    if method == "dtn":
        mats, singular = build_dtn_grid(g, [lam])
        if singular[0]:
            pieces = _dtn_plan(g)[3].reshape(2, -1).T
            for e, lengths in zip(g.edges, pieces.tolist()):
                for length in lengths:  # raises at the first piece's pole
                    interval_dtn(length, lam, e.id)
        return mats[0]
    raise ValueError(f"unknown method {method!r}")


# -- star reduced form ---------------------------------------------------------

def star_secular_reduced(lengths, tips: str, kappa):
    """Im prod_j (1 + i kappa tau_j), the reduced secular function of a star
    at lambda = -kappa^2, for any number of edges and any lengths: tau_j =
    tanh(kappa l_j) at a Neumann tip, coth(kappa l_j) at a Dirichlet tip.

    On edge j the solution that meets its tip's condition has f'(0) =
    -kappa tau_j f(0) at the centre, so the cyclic coupling (U - I) F +
    i (U + I) F' = 0 reads U G = D G, with G = (I - i kappa T) F and D the
    unimodular phases (1 + i kappa tau_j) / (1 - i kappa tau_j). Once round
    the cycle, it has a solution, one-dimensional, exactly where their
    product is 1: where prod_j (1 + i kappa tau_j) is real, that is where
    sum_j arctan(kappa tau_j) is a multiple of pi (Exner & Tater, Phys.
    Lett. A 382, 2018). The product form prod_j (cosh + i kappa sinh) +
    (-1)^(N+1) prod_j (-cosh + i kappa sinh) of (kappa l_j) is 2i prod_j
    cosh(kappa l_j) times it (sinh and cosh swapped, and prod sinh, at
    Dirichlet tips). A scalar kappa gives a float, an array of kappas an
    array of values.
    """
    kappa = np.asarray(kappa, dtype=float)[..., None]
    tau = np.tanh(kappa * np.asarray(lengths, dtype=float))
    if tips == "dirichlet":
        tau = 1.0 / tau
    elif tips != "neumann":
        raise ValueError(f"unknown tip condition {tips!r}")
    value = np.prod(1.0 + 1j * kappa * tau, axis=-1).imag
    return float(value) if np.ndim(value) == 0 else value


def reduced_negative_kappas(lengths, tips: str = "neumann") -> list:
    """All kappa > 0 roots of `star_secular_reduced`, ascending; the star's
    negative eigenvalues are their -kappa^2, each simple.

    Independent of the general solver: scalar root finding on numpy alone.
    kappa tau_j rises with kappa, so the phase sum_j arctan(kappa tau_j)
    rises through (0, N pi / 2), and at the largest root it is at most
    (N - 1) pi / 2: some edge has arctan(kappa tau_j) <= pi/2 - pi/(2N),
    kappa tau_j <= C = cot(pi / 2N). As tau_j >= tanh(kappa l_min) >=
    min(1, kappa l_min) tanh 1, every root lies at or below max(C / tanh 1,
    sqrt(C / (l_min tanh 1))), where a 20,000-point kappa grid ends. Each
    sign change of the function on the grid brackets one root, and every
    bracket is halved in lockstep, keeping the half whose ends differ in
    sign, until its midpoint rounds to one of its ends.
    """
    lengths = np.asarray(lengths, dtype=float)
    c = 1.0 / math.tan(math.pi / (2 * lengths.size))
    t1 = math.tanh(1.0)
    kappa_max = max(c / t1, math.sqrt(c / (np.min(lengths) * t1)))
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
