"""Hot kernels: secular matrix assembly and sigma_min scans over lambdas.

`scan_sigma` is the one loop that turns lambdas into singular values, for
both routes: it asks the route's builder for one stack of matrices per chunk
of the lambdas, runs one batched SVD over the rows off the builder's
singular mask and gathers them into one array, each lambda's singular
values in descending order, inf in the masked rows. The lambdas are any
batch: find_spectrum scans the points its V-step refinement asks for inside
the cells that exact eigenvalue counts (`secular.count_below`) leave open,
each padded by half a width, and certifies each candidate from the row its
refinement computed, or from one more scan for a candidate the refinement
returned unevaluated.

The edge route's builder, `edge_builder`, runs `build_matrix_grid_numpy`:
one edge_basis_traces call gives the (8, n_lambda, E) trace tables of a
chunk, and the graph's plan from `prepare_structure`, built once from the
vertex orders and cached, lays them into the whole stack by one product
with a fixed matrix of +-1 weights. No Python loop runs per lambda or per
row.

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
coefficients back through its start traces. It picks each entry of its
eight tables in one pass, so a row has the same bytes in any batch.
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
    """The edge route's plan of a graph: (targets, weights, lengths).

    A matrix is stored as a float row of (real, imag) pairs, entry (r, c) at
    2 (r m + c) + part; the trace tables are stacked as (n, 8, E) and
    flattened to (n, 8 E). `targets` are the T distinct float slots that
    any term reaches, in increasing order, and `weights` the (8 E, T)
    matrix of +-1 that sums each slot's terms, applied as
    buf[:, targets] = tabs @ weights + 0.0. Values go to the real part,
    inward derivatives (times i) to the imaginary part. A coupled row r,
    whose endpoint is followed by q in its vertex's cyclic order, gets
    value(q) - value(r) + i (derivative(r) + derivative(q)); a loop edge
    puts two terms into one slot. A Neumann row (or a coupled vertex of
    degree 1) takes derivative(r), a Dirichlet row value(r).

    No slot gets more than two nonzero terms, so its sum is the one
    rounding of a row-by-row complex assembly whatever order the product
    adds them in: the products by 0 and +-1 are exact, and adding a signed
    zero to a nonzero sum changes nothing. The + 0.0 turns a -0.0 sum into
    the +0.0 an assembly that starts from zeros gives. This holds for finite
    traces, which `edge_basis_traces` gives at every finite lambda: it runs
    the cosh/sinh pair only at kappa l < 1.
    """
    ne = g.num_edges
    m = 2 * ne
    edge, slot = g.edge_index, g.slot_index
    terms = []  # (target, source, sign)

    def add(r, ref, deriv, sign=1.0):
        e = edge[ref[0]]
        table = 4 * (ref[1] == END) + 2 * deriv
        for b in range(2):
            terms.append((2 * (r * m + 2 * e + b) + deriv,
                          (table + b) * ne + e, sign))

    for v in g.sorted_vertices:
        for j, ref in enumerate(v.order):
            r = slot[ref]
            if v.bc is BoundaryType.COUPLED and v.degree >= 2:
                q = v.order[(j + 1) % v.degree]
                add(r, q, deriv=0)
                add(r, ref, deriv=0, sign=-1.0)
                add(r, ref, deriv=1)
                add(r, q, deriv=1)
            else:
                add(r, ref, deriv=int(v.bc is not BoundaryType.DIRICHLET))
    tgt, src, sign = np.array(terms).T
    targets, col = np.unique(tgt.astype(np.intp), return_inverse=True)
    weights = np.zeros((8 * ne, targets.size))
    np.add.at(weights, (src.astype(np.intp), col), sign)
    lengths = np.array([e.length for e in g.edges], dtype=np.float64)
    return targets, weights, lengths


def edge_basis_traces(lam, lengths):
    """Per-edge basis traces, vectorized over lambdas and edges.

    Returns one (8, n, E) array, which unpacks into the eight tables
    (f1_0, f2_0, d1_0, d2_0, f1_l, f2_l, d1_l, d2_l): values and inward
    derivatives (+f'(0), -f'(l)) of the two basis functions at both
    endpoints, one row per lambda. A scalar `lam` gives an (8, E) array, of
    the bytes of that lambda's row in any batch.
    """
    lam = np.asarray(lam, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    lams = lam.reshape(-1, 1)
    neg, zero = lams < 0.0, lams == 0.0
    k = np.sqrt(np.abs(lams))
    kl = k * lengths
    decay = neg & (kl >= 1.0)
    es = np.exp(-np.where(decay, kl, 1.0))
    kes = k * es
    # cosh/sinh on the entire pair's negative rows (fed 0 elsewhere, where
    # they could overflow), cos/sin elsewhere; lambda = 0 puts x = l in f2l
    hyp = np.where(neg & ~decay, kl, 0.0)
    sn = np.where(neg, np.sinh(hyp), np.sin(kl))
    cs = np.where(neg, np.cosh(hyp), np.cos(kl))
    out = np.empty((8,) + kl.shape)
    out[0] = 1.0
    out[1] = np.where(decay, es, 0.0)
    out[2] = np.where(decay, -k, 0.0)
    out[3] = np.where(decay, kes, 1.0)
    out[4] = np.where(decay, es, cs)
    out[5] = np.where(decay, 1.0, np.where(zero, lengths,
                                           sn / np.where(zero, 1.0, k)))
    out[6] = np.where(decay, kes, np.where(neg, -k, k) * sn)
    out[7] = np.where(decay, -k, -cs)
    if lam.ndim == 0:
        return out[:, 0]
    return out


def build_matrix_grid_numpy(lams, plan):
    """Stack of secular matrices, shape (len(lams), 2E, 2E), laid out by the
    graph's plan from `prepare_structure`."""
    targets, weights, lengths = plan
    lams = np.asarray(lams, dtype=float).reshape(-1)
    n, m = lams.size, 2 * lengths.size
    tabs = edge_basis_traces(lams, lengths).swapaxes(0, 1).reshape(n, -1)
    buf = np.zeros((n, 2 * m * m))
    buf[:, targets] = tabs @ weights + 0.0
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


def scan_sigma(lams, build):
    """Batched SVDs over chunks of SCAN_CHUNK lams: every singular value, one
    descending row per lambda, an (n, m) array for m x m matrices.

    build(part) gives the stack of secular matrices of a chunk and its (n,)
    singular mask; masked rows hold no matrix and read inf. Every row is
    computed on its own, so a lambda gets the same bytes whatever else its
    call holds."""
    lams = np.asarray(lams, dtype=float)
    out = np.full((lams.size, 0), np.inf)
    for lo in range(0, lams.size, SCAN_CHUNK):
        part = lams[lo:lo + SCAN_CHUNK]
        mats, singular = build(part)
        if lo == 0:
            out = np.full((lams.size, mats.shape[-1]), np.inf)
        ok = np.flatnonzero(~singular)
        if ok.size < part.size:
            mats, part = mats[ok], part[ok]
        out[lo + ok] = branch_svdvals(mats, part)
    return out
