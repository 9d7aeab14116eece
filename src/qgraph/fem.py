"""P1 Galerkin oracle for the vertex-coupled form.

Independent cross-check of the secular solver: discretize each edge with
linear elements, add the imaginary skew trace pairing at coupled vertices,
eliminate the linear constraints (alternating trace sums at even-degree
coupled vertices, Dirichlet tips) by nullspace restriction, and solve the
reduced Hermitian pencil (A, M) on a banded Cholesky factor.

Reverse Cuthill-McKee leaves (A, M) a narrow band (a few diagonals), stored
once in LAPACK band form. The factorization certifies the shift: a Cholesky
factor of A - sM exists only when s lies below the whole discrete spectrum,
so sigma is twice the first s of -1, -2, -4, ... that factors. ARPACK then
runs in standard mode on x -> (A - sigma M)^{-1} M x, whose largest
eigenvalues theta = 1 / (lambda - sigma) belong to the smallest lambda.
Shares only the MetricGraph data model with the secular path: no count, no
search floor and no secular matrix enters; independence is the point.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import LinearOperator, eigs

from .errors import MeshTooCoarse
from .graph import END, BoundaryType, MetricGraph, START

# doublings of the trial shift s before giving up; A - sM is positive
# definite once |s| exceeds ||A|| / lambda_min(M), far below this cap for
# finite data
_SHIFT_DOUBLINGS = 64


def _trace_dofs(g: MetricGraph, h: float):
    """Per-edge node offsets and the global dof of each endpoint trace."""
    offsets, nelem, total = {}, {}, 0
    for e in g.edges:
        n = max(1, int(round(e.length / h)))
        offsets[e.id] = total
        nelem[e.id] = n
        total += n + 1
    trace = {}
    for e in g.edges:
        trace[(e.id, START)] = offsets[e.id]
        trace[(e.id, END)] = offsets[e.id] + nelem[e.id]
    return offsets, nelem, total, trace


def discretize(g: MetricGraph, h: float):
    """Assemble the discrete pencil: (H, M, C).

    H is the Hermitian form matrix (edge stiffness plus skew vertex traces),
    M the mass matrix, C the restriction onto the constraint nullspace
    (columns span the admissible subspace: alternating trace sums vanish at
    even-degree coupled vertices, Dirichlet tip traces vanish). The reduced
    pencil is (C* H C, C^T M C).
    """
    if not h > 0:
        raise MeshTooCoarse("mesh size must be positive")
    offsets, nelem, total, trace = _trace_dofs(g, h)

    rows, cols, kvals, mvals = [], [], [], []
    for e in g.edges:
        n = nelem[e.id]
        he = e.length / n
        base = offsets[e.id]
        left = np.arange(n) + base
        right = left + 1
        for (i, j, kv, mv) in ((left, left, 1.0, 2.0), (right, right, 1.0, 2.0),
                               (left, right, -1.0, 1.0), (right, left, -1.0, 1.0)):
            rows.append(i)
            cols.append(j)
            kvals.append(np.full(n, kv / he))
            mvals.append(np.full(n, mv * he / 6.0))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    stiff = sp.coo_matrix((np.concatenate(kvals), (rows, cols)),
                          shape=(total, total)).tocsr()
    mass = sp.coo_matrix((np.concatenate(mvals), (rows, cols)),
                         shape=(total, total)).tocsr()

    hr, hc, hv = [], [], []
    for v in g.vertices:
        if v.bc is not BoundaryType.COUPLED or v.degree < 2:
            continue
        dofs = [trace[ref] for ref in v.order]
        for j in range(len(dofs)):
            for k in range(len(dofs)):
                if j == k:
                    continue
                sign = -1.0 if (j + k) % 2 else 1.0
                eps = 1.0 if j > k else -1.0
                hr.append(dofs[j])
                hc.append(dofs[k])
                hv.append(1j * sign * eps)
    coupling = sp.coo_matrix((hv, (hr, hc)), shape=(total, total)).tocsr() \
        if hv else sp.csr_matrix((total, total), dtype=complex)
    h_mat = (stiff.astype(complex) + coupling).tocsr()

    # constraint elimination by substitution: eliminated dof = combo of kept
    dropped, er, src, ev = [], [], [], []
    for v in g.vertices:
        if v.bc is BoundaryType.DIRICHLET:
            dropped.append(trace[v.order[0]])
        elif v.bc is BoundaryType.COUPLED and v.degree % 2 == 0:
            dofs = [trace[ref] for ref in v.order]
            dropped.append(dofs[-1])
            # sum_j (-1)^j F_j = 0 (1-based)  =>  F_d = -sum_{j<d} (-1)^j F_j
            er += [dofs[-1]] * (v.degree - 1)
            src += dofs[:-1]
            ev += [-((-1.0) ** j) for j in range(1, v.degree)]
    kept = np.ones(total, dtype=bool)
    kept[dropped] = False
    free = np.flatnonzero(kept)
    col_of = np.cumsum(kept) - 1
    rr = np.concatenate((free, np.array(er, dtype=int)))
    rc = np.concatenate((np.arange(free.size), col_of[np.array(src, dtype=int)]))
    rv = np.concatenate((np.ones(free.size), np.array(ev, dtype=float)))
    restrict = sp.coo_matrix((rv, (rr, rc)), shape=(total, free.size)).tocsr()
    return h_mat, mass, restrict


def _upper_band(mat, ku: int) -> np.ndarray:
    """LAPACK upper band form (Fortran order) of a Hermitian matrix whose
    nonzeros lie within ku of the diagonal."""
    up = sp.triu(mat, format="coo")
    band = np.zeros((ku + 1, mat.shape[0]), dtype=complex, order="F")
    band[ku + up.row - up.col, up.col] = up.data
    return band


def _certified_shift(a_band: np.ndarray, m_band: np.ndarray):
    """(sigma, upper Cholesky band factor of A - sigma M), sigma below the
    whole spectrum of the pencil.

    The first s of -1, -2, -4, ... at which A - sM factors is below every
    eigenvalue, and the one before it (if any) is not; sigma = 2s keeps
    lambda_1 - sigma between |s| and 1.5 |s|, away from a near-singular
    factor."""
    s = -1.0
    for _ in range(_SHIFT_DOUBLINGS):
        if lapack.zpbtrf(a_band - s * m_band)[1] == 0:
            chol, info = lapack.zpbtrf(a_band - 2.0 * s * m_band)
            if info == 0:
                return 2.0 * s, chol
        s *= 2.0
    raise np.linalg.LinAlgError(
        f"A - sM did not factor for any s down to {s / 2.0!r}")


def oracle_eigenvalues(g: MetricGraph, count: int, h: float) -> np.ndarray:
    """`count` smallest eigenvalues of the constrained pencil, ascending.

    Raises MeshTooCoarse when the reduced problem is too small to trust
    that many Ritz values.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    h_mat, mass, restrict = discretize(g, h)
    ndof = restrict.shape[1]
    if count > ndof // 4:
        raise MeshTooCoarse(
            f"{count} eigenvalues from {ndof} reduced dofs is unreliable; "
            f"refine the mesh")
    a_red = (restrict.conj().T @ h_mat @ restrict).tocsr()
    m_red = (restrict.T @ mass @ restrict).tocsr()
    pattern = abs(a_red) + m_red
    perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
    a_red, m_red, pattern = (x[perm][:, perm] for x in (a_red, m_red, pattern))
    pattern = pattern.tocoo()
    ku = int((pattern.col - pattern.row).max())
    sigma, chol = _certified_shift(_upper_band(a_red, ku),
                                   _upper_band(m_red, ku))
    op = LinearOperator((ndof, ndof), dtype=complex,
                        matvec=lambda x: lapack.zpbtrs(chol, m_red @ x)[0])
    # a fixed generic start vector makes the result independent of ARPACK's
    # internal random state, hence of the calls made before
    start = np.random.default_rng(0).standard_normal(ndof)
    theta = eigs(op, k=count, which="LM", v0=start, return_eigenvectors=False)
    return np.sort(sigma + 1.0 / theta.real)
