"""Hot kernels: secular matrix assembly and sigma_min scans over lambdas.

`scan_svdvals` is the one loop that turns lambdas into singular values, for
both routes: it asks the route's builder for one stack of matrices per chunk
of the lambdas and runs one batched SVD over the rows off the builder's
singular mask. `scan_sigma` reads (sigma_min, sigma_max) arrays from it, inf
in the masked rows. The lambdas are any batch: find_spectrum scans the ends
of the cells that exact eigenvalue counts (`secular.count_below`) leave
open, then the points its V-step refinement asks for inside those cells,
each padded by half a width, and certifies the candidates from every
singular value of one more batch.

The edge route's builder, `edge_builder`, runs `build_matrix_grid_numpy`:
one edge_basis_traces call gives the (n_lambda, E) trace tables of a chunk,
and the graph's plan from `prepare_structure`, built once from the vertex
orders and cached, lays them into the whole stack by a fixed gather/scatter.
No Python loop runs per lambda or per row.

The per-edge solution basis is {f1, f2} with f1(x) = cos(sqrt(lambda) x) and
f2(x) = sin(sqrt(lambda) x)/sqrt(lambda), continued through lambda <= 0 by
cosh/sinh; both are entire in lambda and nothing degenerates as lambda -> 0.
Below zero that pair turns numerically parallel once kappa * l is large (both
traces ~ e^(kappa l)/2), which floors sigma_min/sigma_max at ~e^(-kappa l)
even at regular points and fakes rank drops deep in the scan window. Any edge
with kappa * l >= 1 therefore switches to the decaying pair
{e^(-kappa x), e^(-kappa (l - x))}, whose traces stay bounded by max(1, kappa);
that pair degenerates only as kappa -> 0, where the entire pair takes over.
`edge_basis_traces` is the one place this switch is made: the matrix stacks
are filled from its tables, and solve.eigenfunction_at converts nullspace
coefficients back through its start traces.
Matrix rows follow the global endpoint slot order; columns are (2e, 2e+1).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .graph import END, BoundaryType, MetricGraph

# lambdas per batched build and SVD. Larger chunks run no faster, and at 2048
# the freed MB-sized arrays raise glibc's dynamic mmap threshold, so later
# allocations land on the heap and the process's peak RSS grows.
SCAN_CHUNK = 512


@lru_cache(maxsize=256)
def prepare_structure(g: MetricGraph):
    """The edge route's plan of a graph: (steps, lengths).

    A matrix is stored as a float row of (real, imag) pairs, entry (r, c) at
    2 (r m + c) + part; the trace tables are stacked as (n, 8, E) and
    flattened to (n, 8 E). Each step is (targets, sources, ufunc), applied as
    buf[:, t] = ufunc(buf[:, t], tabs[:, s]), with no target twice in one
    step. Values go to the real part, inward derivatives (times i) to the
    imaginary part. A coupled row r, whose endpoint is followed by q in its
    vertex's cyclic order, gets its terms in the order a row-by-row complex
    assembly adds them, starting from zeros: value(q) +, value(r) -,
    derivative(r), derivative(q); a loop edge puts two terms into one entry.
    A Neumann row (or a coupled vertex of degree 1) takes derivative(r), a
    Dirichlet row value(r). The +-0.0 that complex arithmetic adds to the
    other part with each term cannot change a sum that started at +0.0 (for
    finite traces), so dropping it keeps every rounding and signed zero the
    same.
    """
    ne = g.num_edges
    m = 2 * ne
    edge, slot = g.edge_index, g.slot_index
    steps = ([], [], [])

    def add(step, r, ref, deriv):
        e = edge[ref[0]]
        table = 4 * (ref[1] == END) + 2 * deriv
        for b in range(2):
            steps[step].append((2 * (r * m + 2 * e + b) + deriv,
                                (table + b) * ne + e))

    for v in g.sorted_vertices:
        for j, ref in enumerate(v.order):
            r = slot[ref]
            if v.bc is BoundaryType.COUPLED and v.degree >= 2:
                q = v.order[(j + 1) % v.degree]
                add(0, r, q, deriv=0)
                add(0, r, ref, deriv=1)
                add(1, r, ref, deriv=0)  # the subtracted term
                add(2, r, q, deriv=1)
            else:
                add(0, r, ref, deriv=int(v.bc is not BoundaryType.DIRICHLET))
    plan = []
    for pairs, op in zip(steps, (np.add, np.subtract, np.add)):
        idx = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        plan.append((idx[:, 0], idx[:, 1], op))
    lengths = np.array([e.length for e in g.edges], dtype=np.float64)
    return tuple(plan), lengths


def edge_basis_traces(lam, lengths, entire: bool = False):
    """Per-edge basis traces, vectorized over lambdas and edges.

    Returns eight arrays (f1_0, f2_0, d1_0, d2_0, f1_l, f2_l, d1_l, d2_l):
    values and inward derivatives (+f'(0), -f'(l)) of the two basis functions
    at both endpoints. A scalar `lam` gives (E,) arrays, an array of n lambdas
    gives (n, E) tables whose rows equal the scalar calls bit for bit.
    `entire` forces the cosh/sinh pair for every edge, at the cost of the
    large-kappa conditioning; determinant identities are stated in that basis.
    """
    lam = np.asarray(lam, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    lams = lam.reshape(-1, 1)
    shape = (lams.shape[0], lengths.size)
    # lambda = 0 (and anything neither < 0 nor > 0): the {1, x} pair
    f10, f20, d10, d20 = (np.ones(shape), np.zeros(shape), np.zeros(shape),
                          np.ones(shape))
    f1l, f2l = np.ones(shape), np.broadcast_to(lengths, shape).copy()
    d1l, d2l = np.zeros(shape), np.full(shape, -1.0)
    neg = lams[:, 0] < 0.0
    if neg.any():
        kap = np.sqrt(-lams[neg])
        kl = kap * lengths
        decay = np.logical_and(kl >= 1.0, not entire)
        es = np.exp(-np.where(decay, kl, 1.0))
        ch = np.cosh(np.where(decay, 0.0, kl))
        sh = np.sinh(np.where(decay, 0.0, kl))
        f20[neg] = np.where(decay, es, 0.0)
        d10[neg] = np.where(decay, -kap, 0.0)
        d20[neg] = np.where(decay, kap * es, 1.0)
        f1l[neg] = np.where(decay, es, ch)
        f2l[neg] = np.where(decay, 1.0, sh / kap)
        d1l[neg] = np.where(decay, kap * es, -kap * sh)
        d2l[neg] = np.where(decay, -kap, -ch)
    pos = lams[:, 0] > 0.0
    if pos.any():
        k = np.sqrt(lams[pos])
        c, s = np.cos(k * lengths), np.sin(k * lengths)
        f1l[pos], f2l[pos], d1l[pos], d2l[pos] = c, s / k, k * s, -c
    out = (f10, f20, d10, d20, f1l, f2l, d1l, d2l)
    if lam.ndim == 0:
        return tuple(t[0] for t in out)
    return out


def build_matrix_grid_numpy(lams, plan, entire: bool = False):
    """Stack of secular matrices, shape (len(lams), 2E, 2E), laid out by the
    graph's plan from `prepare_structure`."""
    steps, lengths = plan
    lams = np.asarray(lams, dtype=float).reshape(-1)
    n, m = lams.size, 2 * lengths.size
    tabs = np.stack(edge_basis_traces(lams, lengths, entire), axis=1).reshape(n, -1)
    buf = np.zeros((n, 2 * m * m))
    for tgt, src, op in steps:
        buf[:, tgt] = op(buf[:, tgt], tabs[:, src])
    return buf.view(np.complex128).reshape(n, m, m)


def edge_builder(plan):
    """The edge route's chunk builder for `scan_sigma`: the stack laid out by
    the graph's plan, with no singular rows."""
    return lambda part: (build_matrix_grid_numpy(part, plan),
                         np.zeros(part.size, dtype=bool))


def equilibrate_columns(mats):
    """Scale every column of a matrix, or of a stack of matrices, to unit
    max-abs; returns (scaled, scales) with scales of shape mats.shape[:-2] +
    (ncols,). Zero columns keep scale 1 and stay zero.

    Right diagonal scaling keeps the nullspace structure (x solves M x = 0 iff
    x / scales solves the scaled system) while removing the e^(kappa * l)
    dynamic range the hyperbolic basis develops at deep lambda, which would
    otherwise push sigma_min / sigma_max below the rank threshold at
    perfectly regular points. Each matrix is scaled on its own, so a matrix
    gets the same bytes alone or inside any stack.
    """
    scales = np.abs(mats).max(axis=-2, keepdims=True)
    scales[scales == 0.0] = 1.0
    return mats / scales, scales[..., 0, :]


def branch_svdvals(mats, lams):
    """Singular values of a stack of secular matrices, one row per lambda.

    Columns are equilibrated to unit max-abs on the lambda < 0 rows only,
    in place: there the hyperbolic entries grow like e^(kappa*l) and the
    sigma ratio under-reads rank at deep lambda. Positive-branch matrices
    stay raw so a full-matrix collapse (eigenvalue of multiplicity 2*E, e.g.
    a one-edge cycle) remains visible as a dip of sigma_max itself.
    """
    neg = np.asarray(lams) < 0.0
    if neg.any():
        mats[neg] = equilibrate_columns(mats[neg])[0]
    return np.linalg.svd(mats, compute_uv=False)


def scan_svdvals(lams, build):
    """Batched SVDs over chunks of SCAN_CHUNK lams: yields (rows, svdvals) per
    chunk, svdvals holding each row's singular values, descending.

    build(part) gives the stack of secular matrices of a chunk and its (n,)
    singular mask; masked rows hold no matrix and are left out of rows.
    Every row is computed on its own, so a lambda gets the same bytes
    whatever else its call holds."""
    lams = np.asarray(lams, dtype=float)
    for lo in range(0, lams.size, SCAN_CHUNK):
        part = lams[lo:lo + SCAN_CHUNK]
        mats, singular = build(part)
        ok = np.flatnonzero(~singular)
        if ok.size < part.size:
            mats, part = mats[ok], part[ok]
        yield lo + ok, branch_svdvals(mats, part)


def scan_sigma(lams, build):
    """(sigma_min, sigma_max) over lams, from `scan_svdvals`; masked rows
    read inf."""
    lams = np.asarray(lams, dtype=float)
    smin = np.full(lams.size, np.inf)
    smax = np.full(lams.size, np.inf)
    for rows, s in scan_svdvals(lams, build):
        smin[rows], smax[rows] = s[:, -1], s[:, 0]
    return smin, smax
