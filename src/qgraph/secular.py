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
  `build_dtn_grid` lays a chunk of them into a stack of secular matrices from
  the route's per-graph plan, `_dtn_plan`; it is the builder the one chunk
  loop, `kernels.scan_svdvals`, runs for this route. `interval_dtn` and the
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

Star graphs additionally admit closed product and reduced transcendental
forms used for regression and fast sweeps.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

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


def dtn_tables(lams, lengths):
    """Per-edge DtN entries, vectorized over lambdas and edges.

    Returns (diag, off, singular): (n, E) tables of the diagonal and
    off-diagonal entries of each interval's DtN map (an interval's map is
    symmetric with equal diagonal entries) and an (n,) mask that is True
    where some edge sits on its Dirichlet spectrum, |sin(k l)| <
    _POLE_TOL * max(1, k l). Rows flagged singular hold no usable entries.
    Past k l ~ 710 below zero, where sinh overflows, the entries take their
    limits: -kappa on the diagonal and 0 off it.
    """
    lams = np.asarray(lams, dtype=float).reshape(-1, 1)
    lengths = np.asarray(lengths, dtype=float)
    shape = (lams.shape[0], lengths.size)
    # lambda = 0 (and anything neither < 0 nor > 0)
    diag = np.broadcast_to(-1.0 / lengths, shape).copy()
    off = np.broadcast_to(1.0 / lengths, shape).copy()
    singular = np.zeros(shape[0], dtype=bool)
    neg = lams[:, 0] < 0.0
    if neg.any():
        kap = np.sqrt(-lams[neg])
        kl = kap * lengths
        with np.errstate(over="ignore", invalid="ignore"):
            sh = np.sinh(kl)
            diag[neg] = np.where(np.isinf(sh), -kap, -kap * np.cosh(kl) / sh)
            off[neg] = kap / sh
    pos = lams[:, 0] > 0.0
    if pos.any():
        k = np.sqrt(lams[pos])
        kl = k * lengths
        s = np.sin(kl)
        diag[pos] = -k * np.cos(kl) / s
        off[pos] = k / s
        singular[pos] = np.any(np.abs(s) < _POLE_TOL * np.maximum(1.0, kl),
                               axis=1)
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


@lru_cache(maxsize=256)
def _dtn_plan(g: MetricGraph):
    """Per-graph constants of the DtN secular matrices: the vertex blocks A
    and B, the (start, end) slots of every edge, and the edge lengths."""
    blocks = assemble_blocks(g)
    start = np.array([g.slot_index[(e.id, START)] for e in g.edges], dtype=np.intp)
    end = np.array([g.slot_index[(e.id, END)] for e in g.edges], dtype=np.intp)
    lengths = np.array([e.length for e in g.edges], dtype=float)
    return blocks.a, blocks.b, start, end, lengths


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
    """Per-graph constants of `count_below`: P* H P; the (E, r, r) stacks
    p_s p_s^T + p_e p_e^T and p_s p_e^T + p_e p_s^T that P* M P takes per
    unit diagonal and off-diagonal DtN entry of each edge, p_s and p_e the
    rows of P at the edge's start and end slots; and the edge lengths."""
    _, _, start, end, lengths = _dtn_plan(g)
    p = form_domain_basis(g)
    ps, pe = p[start][:, :, None], p[end][:, :, None]
    ps_t, pe_t = ps.transpose(0, 2, 1), pe.transpose(0, 2, 1)
    return (p.T @ vertex_form_matrix(g) @ p, ps * ps_t + pe * pe_t,
            ps * pe_t + pe * ps_t, lengths)


def count_below(g: MetricGraph, lams):
    """Exact eigenvalue counts N(lambda) = N_D(lambda) + n_-(Q(lambda)) (see
    the module docstring), with one batched eigvalsh over the lambdas.

    Returns (counts, trusted): an (n,) integer array and an (n,) mask. A
    count is trusted off the singular mask of `dtn_tables` and when no
    eigenvalue of Q lies within _COUNT_TRUST * r * eps * max |mu| of zero,
    mu the eigenvalues of Q and r its order; an untrusted one sits on, or
    within rounding of, an edge Dirichlet eigenvalue or an eigenvalue of the
    graph.
    """
    hp, dterm, oterm, lengths = _count_plan(g)
    lams = np.asarray(lams, dtype=float).reshape(-1)
    diag, off, singular = dtn_tables(lams, lengths)
    r = hp.shape[0]
    m = (diag @ dterm.reshape(lengths.size, -1)
         + off @ oterm.reshape(lengths.size, -1)).reshape(lams.size, r, r)
    mu = np.linalg.eigvalsh(hp - m)
    k = np.sqrt(np.maximum(lams, 0.0))[:, None]
    n_dirichlet = np.maximum(np.ceil(k * lengths / np.pi) - 1.0, 0.0).sum(axis=1)
    thr = (_COUNT_TRUST * r * np.finfo(float).eps
           * np.abs(mu).max(axis=1, initial=0.0))
    counts = n_dirichlet.astype(np.intp) + (mu < 0.0).sum(axis=1)
    return counts, ~singular & (np.abs(mu).min(axis=1, initial=np.inf) > thr)


def build_secular_matrix(g: MetricGraph, lam: float, method: str = "edge", *,
                         entire_basis: bool = False) -> np.ndarray:
    """Secular matrix at one lambda; rank deficiency = eigenspace dimension.

    `entire_basis` pins the cosh/sinh pair on every edge (the convention the
    closed-form determinants use) instead of the numerically safer switched
    basis; it only matters for lambda < 0 with kappa * length >= 1 somewhere.
    The DtN matrix raises DtNSingular at the first edge with a pole at lam.
    """
    if method == "edge":
        return build_matrix_grid_numpy(np.array([lam]), prepare_structure(g),
                                       entire=entire_basis)[0]
    if method == "dtn":
        mats, singular = build_dtn_grid(g, [lam])
        if singular[0]:
            for e in g.edges:  # raises at the first edge with a pole
                interval_dtn(e.length, lam, e.id)
        return mats[0]
    raise ValueError(f"unknown method {method!r}")


def secular_determinant(g: MetricGraph, lam: float, method: str = "edge") -> complex:
    """Raw determinant of the secular matrix, for closed-form regressions.

    Root *detection* goes through singular values (see solve); the determinant
    is exposed because the star and figure-8 factorizations are stated in
    determinant form and make good regression targets.
    """
    return complex(np.linalg.det(
        build_secular_matrix(g, lam, method, entire_basis=True)))


# -- star closed forms ---------------------------------------------------------

def star_secular_closed_form(lengths, tips: str, kappa: float) -> complex:
    """Product form for a star at lambda = -kappa^2; zero iff eigenvalue.

    With per-edge factors A_j, B_j built from cosh/sinh (Neumann tips) or
    sinh/cosh (Dirichlet tips), the value is prod A_j + (-1)^(N+1) prod B_j.
    """
    lengths = np.asarray(lengths, dtype=float)
    n = lengths.size
    kl = kappa * lengths
    if tips == "neumann":
        a = np.cosh(kl) + 1j * kappa * np.sinh(kl)
        b = -np.cosh(kl) + 1j * kappa * np.sinh(kl)
    elif tips == "dirichlet":
        a = np.sinh(kl) + 1j * kappa * np.cosh(kl)
        b = -np.sinh(kl) + 1j * kappa * np.cosh(kl)
    else:
        raise ValueError(f"unknown tip condition {tips!r}")
    return complex(np.prod(a) + (-1) ** (n + 1) * np.prod(b))


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


def star_reduced_positive_dirichlet(k: float, length: float) -> float:
    """Equilateral Dirichlet 3-star, positive part: 3 tan^2(k l) - k^2."""
    return float(3.0 * np.tan(k * length) ** 2 - k ** 2)


def reduced_negative_kappas(lengths, tips: str = "neumann",
                            kappa_max: float = None) -> list:
    """All kappa > 0 roots of the reduced secular function, by bracketed brentq.

    Independent of the general solver: pure scalar root finding on the
    transcendental reduced forms.
    """
    lengths = np.asarray(lengths, dtype=float)
    if kappa_max is None:
        # coth(kappa l) <= coth of the smallest edge bounds the root region
        kappa_max = 3.0 * lengths.size / np.sqrt(np.min(lengths)) + 5.0
    grid = np.linspace(1e-6, kappa_max, 20000)
    fn = lambda k: star_secular_reduced(lengths, tips, k)
    vals = fn(grid)
    roots = []
    sign = np.sign(vals)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        roots.append(float(brentq(fn, grid[i], grid[i + 1],
                                  xtol=1e-13, rtol=8.9e-16)))
    return roots
