"""Hot kernels: secular matrix assembly and sigma_min scans over lambdas.

`scan_sigma` is the one place that turns lambdas into singular values, for
both routes: it asks the route's builder for one stack of matrices for all
its lambdas, runs one batched SVD over the rows off the builder's singular
mask and gathers them into one array, each lambda's singular values in
descending order, inf in the masked rows. The lambdas are any batch:
find_spectrum scans the points its V-step refinement asks for inside the
cells that exact eigenvalue counts (`secular.count_below`) leave open, each
padded by half a width, and certifies each candidate from the row its
refinement computed, or from one more scan for a candidate the refinement
returned unevaluated.

The edge route's builder, `edge_builder`, runs `build_matrix_grid_numpy`:
one edge_basis_traces call gives the (8, n_lambda, E) trace tables of a
batch, and `lay_out_matrices`, with the graph's plan from
`prepare_structure`, read once off the vertex blocks A and B of
`coupling.assemble_blocks` and cached, lays them into the whole stack by
one product with a fixed matrix of +-1 weights. The vertex conditions are
stated only in `coupling`; no Python loop runs per lambda or per row.

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
coefficients back through the start traces of the same tables its matrix
was laid out from. It picks each entry of its eight tables in one pass, so
a row has the same bytes in any batch.
Matrix rows follow the global endpoint slot order; columns are (2e, 2e+1).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .coupling import assemble_blocks
from .graph import END, MetricGraph


@lru_cache(maxsize=256)
def prepare_structure(g: MetricGraph):
    """The edge route's plan of a graph: (targets, weights, lengths), read
    off the vertex blocks A and B of `coupling.assemble_blocks`.

    A matrix is stored as a float row of (real, imag) pairs, entry (r, c) at
    2 (r m + c) + part; the trace tables are stacked as (n, 8, E) and
    flattened to (n, 8 E). `targets` are the T distinct float slots that
    any term reaches, in increasing order, and `weights` the (8 E, T)
    matrix of +-1 that sums each slot's terms, applied as
    buf[:, targets] = tabs @ weights + 0.0. Row r of A F + i B F' = 0 puts,
    for every nonzero A[r, s], A[r, s] times the value at endpoint s into
    the real part of its edge's two columns, and for every nonzero B[r, s],
    B[r, s] times the inward derivative at s (times i) into the imaginary
    part; a loop edge puts two terms into one slot.

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
    # per slot: the first matrix column of its edge e, and its first trace
    # column, e in the start tables and 4 E + e in the end tables
    first, trace = np.array(
        [(2 * g.edge_index[e], 4 * ne * (w == END) + g.edge_index[e])
         for e, w in g.slot_index], dtype=np.intp).T
    blocks = assemble_blocks(g)
    ab = np.stack((blocks.a, blocks.b))
    deriv, r, s = np.nonzero(ab)
    # entry (deriv, r, s) of the stack (A, B) reaches both columns of its
    # edge, b = 0, 1: float slot 2 (r m + 2 e + b) + deriv, from trace table
    # 4 end + 2 deriv + b
    tgt = np.add.outer(2 * (r * m + first[s]) + deriv, (0, 2)).ravel()
    src = np.add.outer(trace[s] + 2 * ne * deriv, (0, ne)).ravel()
    # the distinct slots in increasing order, and each term's place among them
    hit = np.zeros(2 * m * m, dtype=np.intp)
    hit[tgt] = 1
    targets, col = np.flatnonzero(hit), np.cumsum(hit)[tgt] - 1
    weights = np.zeros((8 * ne, targets.size))
    weights[src, col] = ab[deriv, r, s].repeat(2)
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


def lay_out_matrices(traces, plan):
    """Stack of secular matrices, shape (n, 2E, 2E), laid out by the graph's
    plan from `prepare_structure` from the (8, n, E) tables of
    `edge_basis_traces`."""
    targets, weights, lengths = plan
    n, m = traces.shape[1], 2 * lengths.size
    tabs = traces.swapaxes(0, 1).reshape(n, 4 * m)
    buf = np.zeros((n, 2 * m * m))
    buf[:, targets] = tabs @ weights + 0.0
    return buf.view(np.complex128).reshape(n, m, m)


def build_matrix_grid_numpy(lams, plan):
    """Stack of secular matrices, shape (len(lams), 2E, 2E), laid out by the
    graph's plan from `prepare_structure`."""
    lams = np.asarray(lams, dtype=float).reshape(-1)
    return lay_out_matrices(edge_basis_traces(lams, plan[2]), plan)


def edge_builder(plan):
    """The edge route's builder for `scan_sigma`: the stack laid out by the
    graph's plan, with no singular rows."""
    return lambda lams: (build_matrix_grid_numpy(lams, plan),
                         np.zeros(lams.size, dtype=bool))


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
    """One build and one batched SVD over lams: every singular value, one
    descending row per lambda, an (n, m) array for m x m matrices.

    build(lams) gives the stack of secular matrices and its (n,) singular
    mask; masked rows hold no matrix and read inf. Every row is computed on
    its own, so a lambda gets the same bytes whatever else its call holds."""
    lams = np.asarray(lams, dtype=float)
    mats, singular = build(lams)
    out = np.full((lams.size, mats.shape[-1]), np.inf)
    ok = np.flatnonzero(~singular)
    if ok.size < lams.size:
        mats, lams = mats[ok], lams[ok]
    out[ok] = branch_svdvals(mats, lams)
    return out
