"""P1 Galerkin oracle for the vertex-coupled form.

Independent cross-check of the secular solver: discretize each edge with
linear elements, add the imaginary skew trace pairing at coupled vertices,
eliminate the linear constraints (alternating trace sums at even-degree
coupled vertices, Dirichlet tips) by nullspace restriction, and solve the
reduced Hermitian pencil (A, M) on a banded Cholesky factor.

The reduced pencil goes straight to LAPACK band form. One assembly gives
the triplets of the element, vertex-coupling and constraint terms; the few
that touch an eliminated trace are expanded through the constraint, the
rest keep their values, reverse Cuthill-McKee on their pattern leaves
(A, M) a narrow band (a few diagonals), and each triplet of the upper
triangle is summed into its band slot. No sparse product, permutation or
triangle pass runs; `discretize` turns the same triplets into the sparse
(H, M, C), the reference the reduced pencil is tested against. M also
stays one CSR matrix for the Arnoldi matvec.

The factorization certifies the shift: a Cholesky factor of A - sM exists
only when s lies below the whole discrete spectrum, so sigma is twice the
first s of -1, -2, -4, ... that factors. ARPACK then runs in standard mode
on x -> (A - sigma M)^{-1} M x, whose largest eigenvalues
theta = 1 / (lambda - sigma) belong to the smallest lambda.
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


def _triplets(g: MetricGraph, h: float):
    """The unreduced pencil and its constraints as triplets, the one
    assembly behind `discretize` and the oracle's band pencil.

    Returns (rows, cols, hvals, mvals, kept, c). H holds hvals at (rows,
    cols): the edge elements' stiffness first, where the mass values mvals
    lie too, then the skew vertex coupling. kept masks the dofs that stay,
    and c = (rows, cols, vals) holds the triplets of C: a kept dof is its own
    column, an eliminated even-vertex trace the combination of kept ones
    that its constraint gives, an eliminated Dirichlet trace nothing.
    """
    if not h > 0:
        raise MeshTooCoarse("mesh size must be positive")
    offsets, nelem, total, trace = _trace_dofs(g, h)

    # element e spans the nodes (left, left + 1); he its length
    left = np.concatenate([np.arange(nelem[e.id]) + offsets[e.id]
                           for e in g.edges])
    he = np.concatenate([np.full(nelem[e.id], e.length / nelem[e.id])
                         for e in g.edges])
    right = left + 1
    rows = [left, right, left, right]
    cols = [left, right, right, left]
    kvals = [1.0 / he, 1.0 / he, -1.0 / he, -1.0 / he]
    mvals = [2.0 * he / 6.0, 2.0 * he / 6.0, he / 6.0, he / 6.0]

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
    rows = np.concatenate(rows + [np.array(hr, dtype=int)])
    cols = np.concatenate(cols + [np.array(hc, dtype=int)])
    hvals = np.concatenate(kvals + [np.array(hv, dtype=complex)])

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
    c = (np.concatenate((free, np.array(er, dtype=int))),
         np.concatenate((np.arange(free.size), col_of[np.array(src, dtype=int)])),
         np.concatenate((np.ones(free.size), np.array(ev, dtype=float))))
    return rows, cols, hvals, np.concatenate(mvals), kept, c


def discretize(g: MetricGraph, h: float):
    """Assemble the discrete pencil: (H, M, C).

    H is the Hermitian form matrix (edge stiffness plus skew vertex traces),
    M the mass matrix, C the restriction onto the constraint nullspace
    (columns span the admissible subspace: alternating trace sums vanish at
    even-degree coupled vertices, Dirichlet tip traces vanish). The reduced
    pencil is (C* H C, C^T M C). The oracle builds that pencil straight from
    the same triplets (`_band_pencil`); these sparse matrices are its
    reference.
    """
    rows, cols, hvals, mvals, kept, (c_rows, c_cols, c_vals) = _triplets(g, h)
    ne = mvals.size
    shape = (kept.size, kept.size)
    stiff = sp.coo_matrix((hvals[:ne].real, (rows[:ne], cols[:ne])),
                          shape=shape).tocsr()
    mass = sp.coo_matrix((mvals, (rows[:ne], cols[:ne])), shape=shape).tocsr()
    coupling = sp.coo_matrix((hvals[ne:], (rows[ne:], cols[ne:])),
                             shape=shape).tocsr()
    h_mat = (stiff.astype(complex) + coupling).tocsr()
    restrict = sp.coo_matrix((c_vals, (c_rows, c_cols)),
                             shape=(kept.size, int(kept.sum()))).tocsr()
    return h_mat, mass, restrict


def _band_pencil(rows, cols, hvals, mvals, kept, c):
    """The reduced pencil (C* H C, C^T M C) of `discretize`, in reverse
    Cuthill-McKee order, built from the triplets of `_triplets` without
    forming H, M or C. At least one dof must be kept.

    Returns (a_band, m_band, m_csr, perm): A and M in LAPACK upper band
    form (Fortran order), M also as CSR for the Arnoldi matvec, and perm,
    the reduced dof at each position of the order.
    """
    c_dof, c_col, c_val = c
    col_of = np.cumsum(kept) - 1
    ndof = int(kept.sum())
    # C's rows in CSR form (c_ptr, c_col, c_val), for through_c
    order = np.argsort(c_dof, kind="stable")
    c_col, c_val = c_col[order], c_val[order]
    c_ptr = np.concatenate(([0], np.cumsum(np.bincount(c_dof,
                                                       minlength=kept.size))))

    def through_c(dof):
        """Row dof[t] of C for each t, flat: (t, column, coefficient)."""
        size = c_ptr[dof + 1] - c_ptr[dof]
        t = np.repeat(np.arange(dof.size), size)
        k = (c_ptr[dof][t] + np.arange(t.size)
             - np.repeat(np.cumsum(size) - size, size))
        return t, c_col[k], c_val[k]

    # a triplet between kept dofs keeps its value; only the few that touch
    # an eliminated trace expand, one term per pair of their C entries
    plain = kept[rows] & kept[cols]
    touched = np.flatnonzero(~plain)
    ti, a, ca = through_c(rows[touched])
    tj, b, cb = through_c(cols[touched][ti])
    which = np.concatenate((np.flatnonzero(plain), touched[ti[tj]]))
    coef = np.concatenate((np.ones(which.size - tj.size), ca[tj] * cb))
    ra = np.concatenate((col_of[rows[plain]], a[tj]))
    rb = np.concatenate((col_of[cols[plain]], b))

    pattern = sp.csr_matrix((np.ones(ra.size), (ra, rb)), shape=(ndof, ndof))
    perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
    at = np.empty(ndof, dtype=np.intp)
    at[perm] = np.arange(ndof)
    pa, pb = at[ra], at[rb]
    ku = int((pb - pa).max())
    # entry (i, j), i <= j, sits at band[ku + i - j, j], Fortran order
    upper = pa <= pb
    slot = (ku + pa - pb + (ku + 1) * pb)[upper]
    size = (ku + 1) * ndof
    a_vals = (hvals[which] * coef)[upper]
    a_band = np.empty(size, dtype=complex)
    a_band.real = np.bincount(slot, a_vals.real, size)
    a_band.imag = np.bincount(slot, a_vals.imag, size)
    is_mass = which < mvals.size
    m_vals = mvals[which[is_mass]] * coef[is_mass]
    m_band = np.bincount(slot[is_mass[upper]], m_vals[upper[is_mass]], size)
    m_csr = sp.csr_matrix((m_vals, (pa[is_mass], pb[is_mass])),
                          shape=(ndof, ndof))
    return (a_band.reshape((ku + 1, ndof), order="F"),
            m_band.reshape((ku + 1, ndof), order="F"), m_csr, perm)


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
    rows, cols, hvals, mvals, kept, c = _triplets(g, h)
    ndof = int(kept.sum())
    if count > ndof // 4:
        raise MeshTooCoarse(
            f"{count} eigenvalues from {ndof} reduced dofs is unreliable; "
            f"refine the mesh")
    a_band, m_band, m_red, _ = _band_pencil(rows, cols, hvals, mvals, kept, c)
    sigma, chol = _certified_shift(a_band, m_band)
    op = LinearOperator((ndof, ndof), dtype=complex,
                        matvec=lambda x: lapack.zpbtrs(chol, m_red @ x)[0])
    # a fixed generic start vector makes the result independent of ARPACK's
    # internal random state, hence of the calls made before
    start = np.random.default_rng(0).standard_normal(ndof)
    theta = eigs(op, k=count, which="LM", v0=start, return_eigenvectors=False)
    return np.sort(sigma + 1.0 / theta.real)
