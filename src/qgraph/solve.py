"""Spectrum search: count-guided sigma_min scan, golden-section refinement,
rank-based multiplicities, eigenfunction recovery.

Conventions: windows are closed intervals in lambda. Negative parts are
scanned on a grid uniform in kappa = sqrt(-lambda) (default step 1e-3),
positive parts on a grid uniform in lambda (default step
min(0.01, (pi/L)^2/50)). lambda = 0 is always tested explicitly from the
{1, x} solution basis. A located minimum counts as an eigenvalue when
sigma_min < rank_tol * sigma_max after refinement to |d lambda| <
refine_tol. Eigenvalues closer to zero than zero_radius + refine_tol are
indistinguishable from 0 and folded into it.

Both branches go through one routine. The exact counts of
`secular.count_below` pick the grid points it evaluates: grid-index cells
are bisected in lockstep from the two grid ends, one count call per round,
and a cell is split while its end counts differ or either end count is
untrusted. A cell with equal trusted counts holds no eigenvalue, so sigma is
evaluated only around the cells left at width one (padded by _PAD points)
and at the two points of each grid end, in one call. The sigma_min minima
of those points whose neighbours were evaluated are bracketed, and a
golden-section search runs in lockstep over all brackets of the branch: one
batched sigma call per round, each bracket keeping the exact point sequence
of its scalar search. A lambda's sigma does not depend on the batch around
it, and a bracket [xs[i-1], xs[i+1]] is the same pair of floats as on the
full grid, so the refined lambdas are the same floats as a full-grid scan
with one search per candidate gives. Certification is one batched call over
the candidates.

Every batch goes through the one chunk loop, `kernels.scan_sigma`, with the
route's builder: the graph's edge plan from `kernels.prepare_structure`, or
`secular.build_dtn_grid`. A lambda on an edge's Dirichlet spectrum has no
DtN matrix and reads inf. A DtN candidate where some edge's off-diagonal
DtN entry exceeds 1e6 max(1, sqrt|lambda|) sits on such a pole; it is
reported as a DtNPole diagnostic, not certified. Last, the window is
checked for completeness against the trusted count N(hi+) - N(lo-), with
the probes nudged just outside the window: it must equal the certified
multiplicities, up to the at most 2E eigenvalues each DtNPole may hide.
Otherwise a CountMismatch diagnostic says so.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NotAnEigenvalue, WindowTooCoarse
from .graph import END, BoundaryType, MetricGraph, START
from .kernels import (branch_svdvals, edge_basis_traces, edge_builder,
                      equilibrate_columns, prepare_structure, scan_sigma)
from .secular import (build_dtn_grid, build_secular_matrix, count_below,
                      dtn_tables)

ZERO_RADIUS = 1e-7
# grid points evaluated on each side of a cell whose counts could not settle
# it. An accepted minimum at grid index i has its root within the refinement
# tolerance of its bracket [xs[i-1], xs[i+1]], so the unsettled cell holding
# the root ends at most one point outside the bracket; two points of padding
# evaluate i and both its neighbours.
_PAD = 2
_KAPPA_FLOOR = 1e-4
_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class EigRecord:
    """One located eigenvalue with its certification data."""

    lam: float
    mult: int
    sigma_min: float
    sigma_max: float


@dataclass
class Spectrum:
    """Eigenvalues found in a window, with multiplicities and diagnostics."""

    records: list
    window: tuple
    method: str
    tolerances: dict
    diagnostics: list = field(default_factory=list)

    def lambdas(self, with_multiplicity: bool = True) -> list:
        if with_multiplicity:
            return [r.lam for r in self.records for _ in range(r.mult)]
        return [r.lam for r in self.records]

    def nth(self, k: int) -> float:
        """k-th eigenvalue, 1-based, counting multiplicity."""
        lams = self.lambdas()
        if not 1 <= k <= len(lams):
            raise IndexError(f"only {len(lams)} eigenvalues in window, asked for {k}")
        return lams[k - 1]

    @property
    def count(self) -> int:
        return sum(r.mult for r in self.records)

    def count_negative(self) -> int:
        return sum(r.mult for r in self.records if r.lam < 0.0)

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [{"lambda": r.lam, "mult": r.mult} for r in self.records],
            "method": self.method,
            "tolerances": self.tolerances,
            "window": list(self.window),
            "diagnostics": list(self.diagnostics),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def default_positive_step(g: MetricGraph) -> float:
    return min(0.01, (math.pi / g.total_length) ** 2 / 50.0)


def default_negative_floor(g: MetricGraph) -> float:
    """Lower end of the negative window, below every eigenvalue: -d^2, with
    d = 2 * max degree doubled until the exact count N(-d^2) is a trusted 0.
    Overridable everywhere it is used.
    """
    d = 2 * max(v.degree for v in g.vertices)
    while True:
        floor = -float(d * d)
        count, trusted = count_below(g, [floor])
        if trusted[0] and count[0] == 0:
            return floor
        d *= 2


def _svdvals(mat, lam):
    """Singular values of one secular matrix, as `branch_svdvals` gives them
    (a negative-branch mat is scaled in place)."""
    return branch_svdvals(mat[None], [lam])[0]


def _sigma_grid(g, struct, lams, method):
    """(sigma_min, sigma_max) arrays over lams; DtN-singular points read inf.
    `struct` is the graph's edge plan; the DtN route builds from its own."""
    if method == "edge":
        return scan_sigma(lams, edge_builder(struct))
    return scan_sigma(lams, lambda part: build_dtn_grid(g, part))


def _golden_min(fn, a, b, tol):
    """Golden-section argmins of a unimodal-enough function, one per bracket.

    a, b and tol are arrays (tol may be a scalar). All brackets run in
    lockstep: each round makes one fn(xs) call, fn mapping an array of points
    to their values, that evaluates every bracket still wider than its own
    tolerance. Each bracket sees exactly the point sequence, comparisons and
    midpoint of a scalar golden-section search, so the results are the same
    floats. No brackets, no calls.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), a.shape)
    n = a.size
    if n == 0:
        return a
    x1 = b - _GOLD * (b - a)
    x2 = a + _GOLD * (b - a)
    f = fn(np.concatenate((x1, x2)))
    f1, f2 = f[:n], f[n:]
    live = np.flatnonzero(b - a > tol)
    while live.size:
        left = f1[live] <= f2[live]
        lt, rt = live[left], live[~left]
        b[lt], x2[lt], f2[lt] = x2[lt], x1[lt], f1[lt]
        x1[lt] = b[lt] - _GOLD * (b[lt] - a[lt])
        a[rt], x1[rt], f1[rt] = x1[rt], x2[rt], f2[rt]
        x2[rt] = a[rt] + _GOLD * (b[rt] - a[rt])
        fx = fn(np.where(left, x1[live], x2[live]))
        f1[lt], f2[rt] = fx[left], fx[~left]
        live = live[b[live] - a[live] > tol[live]]
    return (a + b) / 2.0


def _scan_points(g, lams):
    """Sorted indices of the grid points of lams whose sigma the branch scan
    evaluates.

    Grid-index cells are bisected in lockstep, starting from the one cell
    between the two grid ends, with one `count_below` call per round. A cell
    is split while its end counts differ or either end count is untrusted;
    a cell with equal trusted counts holds no eigenvalue and is dropped.
    Returned are the points within _PAD of every cell that ends at width one,
    and the two points at each grid end."""
    n = lams.size
    counts = np.zeros(n, dtype=np.intp)
    trusted = np.zeros(n, dtype=bool)
    lo, hi = np.array([0]), np.array([n - 1])
    counts[[0, n - 1]], trusted[[0, n - 1]] = count_below(g, lams[[0, n - 1]])
    tight = []
    while True:
        open_ = (counts[lo] != counts[hi]) | ~trusted[lo] | ~trusted[hi]
        lo, hi = lo[open_], hi[open_]
        wide = hi - lo > 1
        tight.append(lo[~wide])
        lo, hi = lo[wide], hi[wide]
        if not lo.size:
            break
        mid = (lo + hi) // 2
        counts[mid], trusted[mid] = count_below(g, lams[mid])
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    pts = np.concatenate(tight)[:, None] + np.arange(-_PAD, _PAD + 2)
    pts = np.concatenate((pts.ravel(), [0, 1, n - 2, n - 1]))
    return np.unique(np.clip(pts, 0, n - 1))


def _bracket_minima(xs, ys):
    """Indices of local minima of ys over the grid xs, including the boundary
    points; ties count (<=), inf and NaN entries never do. A NaN marks a
    point that was not evaluated: it compares false against its neighbours,
    so a point next to one is never a minimum; the grid ends compare
    against inf."""
    ys = np.asarray(ys, dtype=float)[:len(xs)]
    left = np.concatenate(([np.inf], ys[:-1]))
    right = np.concatenate((ys[1:], [np.inf]))
    return np.flatnonzero(np.isfinite(ys) & (ys <= left) & (ys <= right)).tolist()


def find_spectrum(g: MetricGraph, window, method: str = "edge", *,
                  pos_step: Optional[float] = None, kappa_step: float = 1e-3,
                  rank_tol: float = 1e-8, refine_tol: float = 1e-12,
                  mult_guard: float = 10.0) -> Spectrum:
    """All eigenvalues in the closed window [lo, hi], with multiplicities."""
    lo, hi = float(window[0]), float(window[1])
    if not lo <= hi:
        raise ValueError(f"window {window} is empty")
    if method not in ("edge", "dtn"):
        raise ValueError(f"unknown method {method!r}")
    struct = prepare_structure(g)
    step_pos = pos_step if pos_step is not None else default_positive_step(g)

    candidates = []  # (lambda, grid step in lambda near it)
    scale_ref = 0.0  # typical sigma_max over the evaluated grid points

    def scan_branch(a, b, step, lam_of, tol_of, slope):
        """Scan a uniform grid in x over [a, b] at lambda = lam_of(x), at the
        points `_scan_points` picks, refine the sigma_min minima among them
        to the x-tolerances tol_of(x) and add them to the candidates with the
        grid's lambda step there, |d lambda/dx| = slope(x) times the x step.
        A grid without a finite evaluated point (all DtN-singular) leaves its
        middle point to the pole check."""
        nonlocal scale_ref
        n = max(3, int(math.ceil((b - a) / step)) + 1)
        xs = np.linspace(a, b, n)
        lams = lam_of(xs)
        pts = _scan_points(g, lams)
        smin = np.full(n, np.nan)
        smin[pts], smax = _sigma_grid(g, struct, lams[pts], method)
        finite = smax[np.isfinite(smax)]
        if finite.size:
            scale_ref = max(scale_ref, float(np.median(finite)))
            idx = np.array(_bracket_minima(xs, smin), dtype=np.intp)
            x = _golden_min(lambda t: _sigma_grid(g, struct, lam_of(t),
                                                  method)[0],
                            xs[np.maximum(idx - 1, 0)],
                            xs[np.minimum(idx + 1, n - 1)], tol_of(xs[idx]))
        else:
            idx = np.array([n // 2])
            x = xs[idx]
        candidates.extend(zip(lam_of(x), slope(xs[idx]) * (xs[1] - xs[0])))

    if lo < -ZERO_RADIUS:  # negative part, scanned in kappa
        k_lo = math.sqrt(-min(hi, 0.0)) if hi < 0 else _KAPPA_FLOOR
        k_hi = math.sqrt(-lo)
        if k_hi > k_lo:
            scan_branch(
                k_lo, k_hi, kappa_step, lambda k: -k * k,
                lambda k: np.maximum(refine_tol / (2.0 * np.maximum(k, 0.05)),
                                     1e-15),
                lambda k: 2.0 * k)
    if hi > ZERO_RADIUS:  # positive part, scanned in lambda
        scan_branch(max(lo, ZERO_RADIUS), hi, step_pos, lambda x: x,
                    lambda x: refine_tol, np.ones_like)

    # certify candidates; a collapse of sigma_max against the grid-typical
    # scale means the whole matrix vanished (eigenvalue of full multiplicity
    # 2E, e.g. a one-edge cycle), which the relative rank test cannot see.
    # Candidates within refine_tol of the zero radius are left to the
    # explicit zero test: a bracket that holds only the flank of the
    # lambda = 0 dip refines to its inner end, where the DtN rank ratio can
    # read below rank_tol.
    cands = [(lam, grid_step) for lam, grid_step in sorted(candidates)
             if abs(lam) > ZERO_RADIUS + refine_tol
             and lo - refine_tol <= lam <= hi + refine_tol]
    cand_lams = np.array([lam for lam, _ in cands], dtype=float)
    sms, sxs = _sigma_grid(g, struct, cand_lams, method)
    # interval-Dirichlet pole of the DtN map: entries blow up like 1/dist,
    # the rank ratio under-reads, and any eigenvalue hiding here cannot be
    # certified on this route (the edge method can)
    pole = np.zeros(len(cands), dtype=bool)
    if method == "dtn":
        lengths = [e.length for e in g.edges]
        off = np.abs(dtn_tables(cand_lams, lengths)[1]).max(axis=1)
        pole = ~np.isfinite(sxs) | (off > 1e6 * np.maximum(
            1.0, np.sqrt(np.abs(cand_lams))))
    accepted = []
    diagnostics = []
    for (lam, grid_step), sm, sx, at_pole in zip(cands, sms, sxs, pole):
        if at_pole:
            diagnostics.append(f"DtNPole(lambda={lam:.12g})")
            continue
        if sm < rank_tol * sx or sx < rank_tol * scale_ref:
            accepted.append((lam, grid_step))

    def near(lam):  # roots closer than this are one; the count probes' nudge
        return max(1e-9, 1e3 * refine_tol) * max(1.0, abs(lam))

    merged = []
    for lam, grid_step in accepted:
        if merged and abs(lam - merged[-1][0]) <= near(lam):
            continue
        merged.append((lam, grid_step))
    for (l1, s1), (l2, s2) in zip(merged, merged[1:]):
        if abs(l2 - l1) < max(s1, s2):
            raise WindowTooCoarse(
                f"roots {l1:.12g} and {l2:.12g} closer than the scan step; "
                f"rescan with a finer grid")

    records = []

    def full_svd_record(lam):
        s = _svdvals(build_secular_matrix(g, lam, method), lam)
        if s[0] < rank_tol * scale_ref:  # full collapse: every column is null
            return EigRecord(float(lam), len(s), float(s[-1]), float(s[0])), len(s)
        mult = int(np.sum(s < rank_tol * s[0]))
        shaky = np.sum((s >= rank_tol * s[0] / mult_guard)
                       & (s <= rank_tol * s[0] * mult_guard))
        if shaky:
            diagnostics.append(f"MultiplicityUncertain(lambda={lam:.12g})")
        return EigRecord(float(lam), mult, float(s[-1]), float(s[0])), mult

    if lo <= 0.0 <= hi:
        rec, mult = full_svd_record(0.0)
        if mult > 0:
            records.append(rec)

    for lam, _ in merged:
        rec, mult = full_svd_record(lam)
        if mult > 0:
            records.append(rec)

    records.sort(key=lambda r: r.lam)
    # completeness: the window holds count eigenvalues. Each is certified,
    # or hidden at a flagged DtN pole, whose multiplicity is at most 2E.
    counts, trusted = count_below(g, [lo - near(lo), hi + near(hi)])
    count = int(counts[1] - counts[0])
    certified = sum(r.mult for r in records)
    poles = sum(d.startswith("DtNPole") for d in diagnostics)
    if trusted.all() and not (certified <= count
                              <= certified + 2 * g.num_edges * poles):
        diagnostics.append(
            f"CountMismatch(lo={lo:.12g}, hi={hi:.12g}, certified={certified}, "
            f"poles={poles}, count={count})")
    return Spectrum(
        records=records,
        window=(lo, hi),
        method=method,
        tolerances={"rank_tol": rank_tol, "refine_tol": refine_tol,
                    "kappa_step": kappa_step, "pos_step": step_pos,
                    "zero_radius": ZERO_RADIUS},
        diagnostics=diagnostics,
    )


def count_negative(g: MetricGraph, *, floor: Optional[float] = None,
                   method: str = "edge") -> int:
    """Number of negative eigenvalues (with multiplicity).

    The default search floor, `default_negative_floor`, has no eigenvalue
    below it. An explicit `floor` is used as given; a lowest root below
    0.98 * floor suggests more below it, and raises WindowTooCoarse.
    """
    lo = floor if floor is not None else default_negative_floor(g)
    spec = find_spectrum(g, (lo, -1e-8), method=method)
    if spec.records and spec.records[0].lam < 0.98 * lo:
        raise WindowTooCoarse(f"eigenvalue {spec.records[0].lam} hugs the search "
                              f"floor {lo}; widen it")
    return spec.count_negative()


def first_eigenvalues(g: MetricGraph, k: int, method: str = "edge", *,
                      floor: Optional[float] = None):
    """First k eigenvalues (with multiplicity), growing the window as needed."""
    lo = floor if floor is not None else default_negative_floor(g)
    hi = (math.pi * (k + 2) / g.total_length) ** 2
    for _ in range(12):
        spec = find_spectrum(g, (lo, hi), method=method)
        lams = spec.lambdas()
        if len(lams) >= k:
            return lams[:k], spec
        hi *= 2.0
    raise WindowTooCoarse(f"could not locate {k} eigenvalues below {hi}")


# -- eigenfunctions ------------------------------------------------------------

@dataclass
class Eigenfunction:
    """One eigenfunction as per-edge amplitudes over the regime basis.

    lambda < 0: a cosh(kappa x) + b sinh(kappa x);
    lambda > 0: a cos(k x) + b sin(k x); lambda = 0: a + b x.
    """

    graph: MetricGraph
    lam: float
    coeffs: dict  # edge_id -> (a, b)

    @property
    def _rate(self) -> float:
        return math.sqrt(abs(self.lam))

    def value(self, edge_id: str, x):
        a, b = self.coeffs[edge_id]
        x = np.asarray(x, dtype=float)
        w = self._rate
        if self.lam < 0.0:
            return a * np.cosh(w * x) + b * np.sinh(w * x)
        if self.lam > 0.0:
            return a * np.cos(w * x) + b * np.sin(w * x)
        return a + b * x

    def derivative(self, edge_id: str, x):
        a, b = self.coeffs[edge_id]
        x = np.asarray(x, dtype=float)
        w = self._rate
        if self.lam < 0.0:
            return w * (a * np.sinh(w * x) + b * np.cosh(w * x))
        if self.lam > 0.0:
            return w * (-a * np.sin(w * x) + b * np.cos(w * x))
        return b * np.ones_like(x)

    def trace_vectors(self):
        """(F, F') over global slots: traces and inward derivatives."""
        g = self.graph
        m = 2 * g.num_edges
        f = np.zeros(m, dtype=complex)
        fp = np.zeros(m, dtype=complex)
        for e in g.edges:
            i = g.slot_index[(e.id, START)]
            j = g.slot_index[(e.id, END)]
            f[i] = self.value(e.id, 0.0)
            f[j] = self.value(e.id, e.length)
            fp[i] = self.derivative(e.id, 0.0)
            fp[j] = -self.derivative(e.id, e.length)
        return f, fp

    def norm_sq(self, order: int = 64) -> float:
        from .quadform import edge_quadrature

        total = 0.0
        for e in self.graph.edges:
            x, w = edge_quadrature(e.length, order)
            total += float(np.sum(w * np.abs(self.value(e.id, x)) ** 2))
        return total

    def as_trial(self):
        from .quadform import TrialFunction

        return TrialFunction(
            values={e.id: (lambda x, eid=e.id: self.value(eid, x))
                    for e in self.graph.edges},
            derivatives={e.id: (lambda x, eid=e.id: self.derivative(eid, x))
                         for e in self.graph.edges},
        )


def _regime_coeffs(g: MetricGraph, lam: float, vecs):
    """Amplitudes (a, b), each of shape (len(vecs), E), in the regime basis
    Eigenfunction stores, from edge-ansatz coefficient vectors: the start
    value of each edge's solution and its start derivative over the rate
    sqrt|lam| (1 at lam = 0), read off the basis traces of the kernels."""
    f10, f20, d10, d20 = edge_basis_traces(lam, [e.length for e in g.edges])[:4]
    vecs = np.asarray(vecs)
    c1, c2 = vecs[:, 0::2], vecs[:, 1::2]
    w = math.sqrt(abs(lam)) if lam != 0.0 else 1.0
    return c1 * f10 + c2 * f20, (c1 * d10 + c2 * d20) / w


def eigenfunction_at(g: MetricGraph, lam: float, *,
                     rank_tol: float = 1e-8, order: int = 64) -> list:
    """L2-orthonormal basis of the eigenspace at lam.

    Extraction always goes through the edge-ansatz matrix (its nullspace IS
    the coefficient vector; the DtN nullspace only carries traces). Raises
    NotAnEigenvalue when the matrix has full rank there.
    """
    from .quadform import edge_quadrature

    s_mat = build_secular_matrix(g, lam, "edge")
    scales = np.ones(s_mat.shape[1])
    if lam < 0.0:
        s_mat, scales = equilibrate_columns(s_mat)
    _, svals, vh = np.linalg.svd(s_mat)
    # collapse probe: when the whole matrix vanished (multiplicity 2E) the
    # svd of rounding noise is meaningless; compare against a nearby lambda
    probe = np.linalg.norm(build_secular_matrix(g, lam + 1e-3 * (1.0 + abs(lam)),
                                                "edge"))
    if svals[0] < rank_tol * probe:
        null = [np.eye(s_mat.shape[1], dtype=complex)[i]
                for i in range(s_mat.shape[1])]
    else:
        null = [vh[i].conj() / scales
                for i in range(len(svals)) if svals[i] < rank_tol * svals[0]]
    if not null:
        raise NotAnEigenvalue(f"sigma_min/sigma_max = {svals[-1] / svals[0]:.3e} "
                              f"at lambda = {lam}")
    ids = [e.id for e in g.edges]
    funcs = [Eigenfunction(g, float(lam), dict(zip(ids, zip(a, b))))
             for a, b in zip(*_regime_coeffs(g, lam, null))]

    # orthonormalize in L2 via the quadrature Gram matrix
    quad = {e.id: edge_quadrature(e.length, order) for e in g.edges}
    samples = []
    weights = np.concatenate([quad[e.id][1] for e in g.edges])
    for f in funcs:
        samples.append(np.concatenate([f.value(e.id, quad[e.id][0]) for e in g.edges]))
    samples = np.array(samples)
    gram = (samples * weights) @ samples.conj().T
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > 1e-12 * evals[-1]
    trans = np.conj(evecs[:, keep]) / np.sqrt(evals[keep])
    out = []
    for col in range(trans.shape[1]):
        coeffs = {}
        for e in g.edges:
            a = sum(trans[j, col] * funcs[j].coeffs[e.id][0] for j in range(len(funcs)))
            b = sum(trans[j, col] * funcs[j].coeffs[e.id][1] for j in range(len(funcs)))
            coeffs[e.id] = (a, b)
        out.append(Eigenfunction(g, float(lam), coeffs))
    return out
