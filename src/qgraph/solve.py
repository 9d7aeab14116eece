"""Spectrum search: eigenvalues isolated by exact counts and refined on
sigma_min, rank-based multiplicities, eigenfunction recovery.

Conventions: windows are closed intervals in lambda. Negative parts are
searched in kappa = sqrt(-lambda), positive parts in lambda. lambda = 0 is
always tested explicitly from the {1, x} solution basis. A located minimum
counts as an eigenvalue when sigma_min < RANK_TOL * sigma_max after
refinement to |d lambda| < REFINE_TOL. Eigenvalues closer to zero than
ZERO_RADIUS + REFINE_TOL are indistinguishable from 0 and folded into it.

Counts locate, sigma refines. Both branches run in one lockstep, in the
coordinate x = -kappa below zero and x = lambda above, which increases with
lambda. The exact counts of `secular.count_below` isolate the eigenvalues:
the branches' intervals are bisected together, one count call per round,
and a cell is split while it is wider than its branch width (_KAPPA_WIDTH
in kappa, default_positive_step in lambda) and its end counts differ or
either end count is untrusted. A cell with equal trusted counts holds no
eigenvalue and is dropped. Neighbours that share an untrusted end share its
root; a longest chain of them is a run. One sigma call at the ends of the
cells left gives the typical sigma_max, the largest of the per-branch
medians. Each cell is padded by half a width and clipped to its branch, and
one search on sigma_min, `_golden_min`, all brackets in lockstep and one
batched sigma call per round, refines every bracket: it steps to the vertex
of the V that sigma_min makes at a simple root, guarded by golden section.
A padded cell takes four or five calls; a pole cell on the DtN route, where
sigma_min is noise, about 50 golden steps. A candidate outside its run lies
where the counts put no root and is none. A cell with trusted end counts
whose candidate is none, or that holds more eigenvalues than sigma
certified in it, is bisected by counts down to the distance at which roots
are one, and each run of its pieces is padded by half that distance and
searched again. This finds the roots of a near-degenerate cluster, where
sigma_min dips to each in a notch narrower than the first search can see,
and a root whose cell's search slid onto a neighbour's.
Each search's candidates are certified by one batched SVD that keeps every
singular value, and candidates within the count probes' nudge are one root.
Each record reads its multiplicity from its row; only the explicit
lambda = 0 test builds and decomposes a matrix of its own.

Every batch goes through the one chunk loop, `kernels.scan_svdvals`, with the
route's builder: the graph's edge plan from `kernels.prepare_structure`, or
`secular.build_dtn_grid`. A lambda on an edge's Dirichlet spectrum has no
DtN matrix and reads inf. A DtN candidate sits on such a pole when some edge
with k l >= 1 has |sin(k l)| < k / (1e6 max(1, k)), an off-diagonal DtN
entry above 1e6 max(1, k); it is reported as a DtNPole diagnostic, not
certified. Last, the window is checked for completeness against the trusted
count N(hi+) - N(lo-), with the probes nudged just outside the window: it
must equal the certified multiplicities, up to the at most 2E eigenvalues
each DtNPole may hide. Otherwise a CountMismatch diagnostic names the
roots that neither search certified.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotAnEigenvalue, WindowTooCoarse
from .graph import END, MetricGraph, START
from .kernels import (branch_svdvals, edge_basis_traces, edge_builder,
                      equilibrate_columns, prepare_structure, scan_sigma,
                      scan_svdvals)
from .secular import build_dtn_grid, build_secular_matrix, count_below

ZERO_RADIUS = 1e-7
RANK_TOL = 1e-8  # sigma ratio below which a singular value counts as null
REFINE_TOL = 1e-12  # |d lambda| every eigenvalue is refined to
MULT_GUARD = 10.0  # a sigma within this factor of the rank threshold is shaky
QUAD_ORDER = 64  # Gauss points per edge of the eigenfunction quadrature
_KAPPA_WIDTH = 1e-3  # widest cell the negative branch isolates, in kappa
_KAPPA_FLOOR = 1e-4
_GOLD_STEP = (3.0 - math.sqrt(5.0)) / 2.0  # golden section's step, 0.382


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

    def lambdas(self) -> list:
        """Eigenvalues, each repeated by its multiplicity."""
        return [r.lam for r in self.records for _ in range(r.mult)]

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


def _builder(g, struct, method):
    """The route's chunk builder: `struct` is the graph's edge plan; the DtN
    route builds from its own."""
    if method == "edge":
        return edge_builder(struct)
    return lambda part: build_dtn_grid(g, part)


def _sigma_grid(g, struct, lams, method):
    """(sigma_min, sigma_max) arrays over lams; DtN-singular points read
    inf."""
    return scan_sigma(lams, _builder(g, struct, method))


def _golden_min(fn, a, b, tol):
    """Argmins of a unimodal-enough function, one per bracket, by V-steps
    guarded by golden section.

    a, b and tol are arrays (tol may be a scalar); each tolerance is floored
    at 4 float spacings of its bracket's larger end, so that every bracket
    can get narrower than it. A bracket no wider than its tolerance is never
    evaluated and returns its midpoint. The others run in lockstep, one
    fn(xs) call per round, fn mapping an array of points to their values.
    The opening call evaluates each bracket's ends and midpoint. From then on
    a bracket is three evaluated points xl <= xb <= xr, xb the lowest, and
    the minimum lies in [xl, xr]. Each round evaluates, per bracket, one of:
    - a V-step: sigma_min is |c (x - v)| near a simple root, so the vertex of
      the symmetric V through xb and its two neighbours, c the steeper of the
      two secant slopes and v = xb -+ f(xb) / c on the shallower side;
    - a confirmation, once |v - xb| <= tol / 2 or xb is an end: xb -+ tol / 2,
      those of them inside (xl, xr). If neither is lower, the minimum lies
      within tol / 2 of xb, which is returned;
    - a golden step, 0.382 of the larger side away from xb, wherever a value
      is inf, the vertex leaves (xl, xr) or the bracket has not halved in
      the last two rounds; a confirmation right after the opening or a
      V-step is taken all the same.
    A bracket narrowed to its tolerance returns its midpoint. Each bracket's
    points, comparisons and result are those of the same search run on it
    alone, so the results are the same floats.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    tol = np.maximum(np.broadcast_to(np.asarray(tol, dtype=float), a.shape),
                     4.0 * np.spacing(np.maximum(np.abs(a), np.abs(b))))
    out = (a + b) / 2.0
    idx = np.flatnonzero(b - a > tol)
    if not idx.size:
        return out
    # the opening call: the midpoint and both ends of each live bracket
    pts = np.stack((out[idx], a[idx], b[idx]))
    f = fn(pts.ravel()).reshape(3, -1)
    pick = np.argmin(f, axis=0)  # of (mid, a, b), the first on ties
    xb, fb = np.choose(pick, pts), np.choose(pick, f)
    at_a, at_b = pick == 1, pick == 2
    xl, fl = np.where(at_b, pts[0], pts[1]), np.where(at_b, f[0], f[1])
    xr, fr = np.where(at_a, pts[0], pts[2]), np.where(at_a, f[0], f[2])
    tol = tol[idx]
    w1 = w2 = np.full(idx.size, np.inf)  # widths one and two rounds ago
    again = np.zeros(idx.size, dtype=bool)  # the last round confirmed
    while True:
        width = xr - xl
        done = width <= tol
        out[idx[done]] = (xl[done] + xr[done]) / 2.0
        idx, xl, xb, xr, fl, fb, fr, tol, w1, w2, again, width = (
            v[~done] for v in (idx, xl, xb, xr, fl, fb, fr, tol, w1, w2,
                               again, width))
        if not idx.size:
            return out
        h = tol / 2.0
        inner = (xl < xb) & (xb < xr)
        finite = np.isfinite(fl) & np.isfinite(fb) & np.isfinite(fr)
        with np.errstate(divide="ignore", invalid="ignore"):
            sl = (fl - fb) / (xb - xl)
            sr = (fr - fb) / (xr - xb)
            c = np.maximum(sl, sr)
            v = np.where(sl < sr, xb - fb / c, xb + fb / c)
        shaped = finite & inner & (c > 0.0)
        stalled = width > w2 / 2.0
        # a V-step that lands on the vertex rarely halves the bracket, so
        # the confirmation after it skips the halving test; a run of failed
        # confirmations, which crawls by tol / 2 a round, does not
        confirm = (((finite & ~inner) | (shaped & (np.abs(v - xb) <= h)))
                   & ~(stalled & again))
        step = shaped & ~stalled & ~confirm & (xl < v) & (v < xr)
        golden = ~confirm & ~step
        far = np.where(xr - xb >= xb - xl, xr, xl)
        u = np.where(confirm, xb - h,
                     np.where(golden, xb + _GOLD_STEP * (far - xb), v))
        # confirmation points only inside (xl, xr); the others read inf
        ask, ask_right = ~confirm | (xb - h > xl), confirm & (xb + h < xr)
        fu, f_right = np.full(idx.size, np.inf), np.full(idx.size, np.inf)
        pts = np.concatenate((u[ask], (xb + h)[ask_right]))
        if pts.size:
            fx = fn(pts)
            fu[ask], f_right[ask_right] = fx[:ask.sum()], fx[ask.sum():]
        # a confirmation moves to the lower of its points, the left on ties
        right = confirm & (f_right < fu)
        u, fu = np.where(right, xb + h, u), np.where(right, f_right, fu)
        # a lower point becomes xb, and xb the end on its other side; any
        # other point becomes the end on its own side
        lower = fu < fb
        x_end, f_end = np.where(lower, xb, u), np.where(lower, fb, fu)
        left = lower == (u > xb)
        xl, fl = np.where(left, x_end, xl), np.where(left, f_end, fl)
        xr, fr = np.where(left, xr, x_end), np.where(left, fr, f_end)
        xb, fb = np.where(lower, u, xb), np.where(lower, fu, fb)
        # a confirmed bracket closes on [xb, xb] and returns xb
        confirmed = confirm & ~lower
        xl, xr = np.where(confirmed, xb, xl), np.where(confirmed, xb, xr)
        w2, w1, again = w1, width, confirm


def _isolate(g, cells, width, lam_of):
    """The cells [x0, x1] inside the start cells that may hold an eigenvalue
    at lambda = lam_of(x), each no wider than its start cell's entry of
    width: an (n, 2) array in increasing order, with the (n, 2) counts and
    trust flags of `count_below` at their ends.

    Cells are bisected in lockstep with one `count_below` call per round. A
    cell is split while it is wider than its width and its end counts differ
    or either end count is untrusted; a cell with equal trusted end counts
    holds no eigenvalue and is dropped."""
    x = np.array(cells, dtype=float).reshape(-1, 2)
    order = np.argsort(x[:, 0])
    x = x[order]
    width = np.broadcast_to(np.asarray(width, dtype=float), order.shape)[order]
    n, ok = (v.reshape(2, -1).T for v in count_below(g, lam_of(x.T.ravel())))
    while True:
        keep = (n[:, 0] != n[:, 1]) | ~(ok[:, 0] & ok[:, 1])
        x, n, ok, width = x[keep], n[keep], ok[keep], width[keep]
        split = x[:, 1] - x[:, 0] > width
        if not split.any():
            return x, n, ok
        mid = (x[split, 0] + x[split, 1]) / 2.0
        n_mid, ok_mid = count_below(g, lam_of(mid))
        # each split cell becomes its two halves, in place
        i = np.repeat(np.arange(split.size), split + 1)
        upper = np.append(False, i[1:] == i[:-1])
        lower = split[i] & ~upper
        x, n, ok, width = x[i], n[i], ok[i], width[i]
        x[lower, 1] = x[upper, 0] = mid
        n[lower, 1] = n[upper, 0] = n_mid
        ok[lower, 1] = ok[upper, 0] = ok_mid


def _runs(cells, ok):
    """The runs of the cells from `_isolate`: neighbours that share an
    untrusted end share its root, and a run is a longest chain of them.
    Returns the (m, 2) array of run ends and each cell's run index."""
    start = np.ones(len(cells), dtype=bool)
    start[1:] = ok[:-1, 1] | (cells[1:, 0] > cells[:-1, 1])
    last = np.roll(start, -1)  # a run ends before the next one starts
    runs = np.stack((cells[start, 0], cells[last, 1]), axis=1)
    return runs, np.cumsum(start) - 1


def _null(s, scale):
    """The rank rule: which singular values of each row (descending) are
    null. All of a row whose sigma_max < RANK_TOL * scale, where the whole
    matrix vanished (multiplicity 2E, e.g. a one-edge cycle); otherwise
    those below RANK_TOL * sigma_max, so sigma_min is null iff any is."""
    smax = s[..., :1]
    return (s < RANK_TOL * smax) | (smax < RANK_TOL * scale)


def find_spectrum(g: MetricGraph, window, method: str = "edge") -> Spectrum:
    """All eigenvalues in the closed window [lo, hi], with multiplicities."""
    lo, hi = float(window[0]), float(window[1])
    if not lo <= hi:
        raise ValueError(f"window {window} is empty")
    if method not in ("edge", "dtn"):
        raise ValueError(f"unknown method {method!r}")
    struct = prepare_structure(g)
    pos_width = default_positive_step(g)

    # one lockstep over both branches in x, increasing with lambda: x = -kappa
    # on the negative branch, x = lambda on the positive one
    def lam_of(x):
        return np.where(x < 0.0, -x * x, x)

    def width_of(x):
        return np.where(x < 0.0, _KAPPA_WIDTH, pos_width)

    branches = []
    if lo < -ZERO_RADIUS:  # negative part, isolated in kappa
        k_lo = math.sqrt(-min(hi, 0.0)) if hi < 0 else _KAPPA_FLOOR
        k_hi = math.sqrt(-lo)
        if k_hi >= k_lo:  # a point window stays, as on the positive branch
            branches.append((-k_hi, -k_lo))
    if hi > ZERO_RADIUS:  # positive part, isolated in lambda
        branches.append((max(lo, ZERO_RADIUS), hi))
    branches = np.array(branches, dtype=float).reshape(-1, 2)
    cells, n, ok = _isolate(g, branches, width_of(branches[:, 0]), lam_of)

    # one sigma call at the cell ends
    scale_ref = 0.0  # typical sigma_max over the cell ends, per branch
    ends = np.unique(cells)
    smax = _sigma_grid(g, struct, lam_of(ends), method)[1]
    for part in (ends < 0.0, ends > 0.0):
        finite = smax[part & np.isfinite(smax)]
        if finite.size:
            scale_ref = max(scale_ref, float(np.median(finite)))

    def near(lam):  # roots closer than this are one; the count probes' nudge
        return max(1e-9, 1e3 * REFINE_TOL) * np.maximum(1.0, np.abs(lam))

    def search(cells, bounds, width):
        """Each cell's candidate lambda, with its singular values, DtN pole
        flag and certified multiplicity (0 where it is not certified), and
        whether it lies within its bounds, the ends of its run."""
        # each cell padded by half the width it was isolated to, clipped to
        # its branch
        a, b = branches[np.searchsorted(branches[:, 0], cells[:, 0],
                                        side="right") - 1].T
        x0 = np.maximum(cells[:, 0] - width / 2.0, a)
        x1 = np.minimum(cells[:, 1] + width / 2.0, b)
        # kappa tolerance from the bracket's lower kappa, -x1
        tol = np.where(x1 < 0.0, np.maximum(
            REFINE_TOL / (2.0 * np.maximum(-x1, 0.05)), 1e-15), REFINE_TOL)
        x = _golden_min(lambda t: _sigma_grid(g, struct, lam_of(t), method)[0],
                        x0, x1, tol)
        lams = lam_of(x)
        # the counts put every root in a run of cells, so a candidate in
        # the padding is none. Candidates within REFINE_TOL of the zero
        # radius are left to the explicit zero test: a cell that holds only
        # the flank of the lambda = 0 dip refines to its inner end, where the
        # DtN rank ratio can read below RANK_TOL.
        inside = ((bounds[:, 0] - near(bounds[:, 0]) <= x)
                  & (x <= bounds[:, 1] + near(bounds[:, 1])))
        live = (inside & (np.abs(lams) > ZERO_RADIUS + REFINE_TOL)
                & (lo - REFINE_TOL <= lams) & (lams <= hi + REFINE_TOL))
        svals = np.full((lams.size, 2 * g.num_edges), np.inf)
        for rows, s in scan_svdvals(lams[live], _builder(g, struct, method)):
            svals[np.flatnonzero(live)[rows]] = s
        # interval-Dirichlet pole of the DtN map: some edge with k l >= 1
        # has |sin(k l)| so small that its entries, k / sin(k l), exceed
        # 1e6 max(1, k). The rank ratio under-reads there, and any eigenvalue
        # hiding here cannot be certified on this route (the edge method
        # can). A short edge's entries are large (about 1 / l) far from its
        # poles.
        pole = live & ~np.isfinite(svals[:, 0])
        if method == "dtn":
            k = np.sqrt(np.maximum(lams, 0.0))[:, None]
            kl = k * np.array([e.length for e in g.edges])
            pole |= live & ((kl >= 1.0) & (np.abs(np.sin(kl)) < k / (
                1e6 * np.maximum(1.0, k)))).any(axis=1)
        mult = np.where(pole, 0, _null(svals, scale_ref).sum(axis=1))
        return lams, svals, pole, mult, inside

    runs, run = _runs(cells, ok)
    found = search(cells, runs[run], width_of(cells[:, 0]))
    # a cell with trusted end counts whose candidate is none, or that holds
    # more eigenvalues than sigma certified in it, is bisected by counts
    # down to the distance at which roots are one; each run of its pieces
    # is searched again. A DtN pole cell is left as it is.
    _, _, pole, mult, inside = found
    lost = ok.all(axis=1) & ~pole & (~inside | (mult < n[:, 1] - n[:, 0]))
    if lost.any():
        sub, _, sub_ok = _isolate(g, cells[lost], near(cells[lost, 0]), lam_of)
        runs = _runs(sub, sub_ok)[0]
        found = [np.concatenate((v[~lost], w)) for v, w in
                 zip(found, search(runs, runs, near(runs[:, 0])))]
    order = np.argsort(found[0], kind="stable")
    cands, svals, pole, mult = (v[order] for v in found[:4])
    diagnostics = [f"DtNPole(lambda={lam:.12g})" for lam in cands[pole]]

    merged = []  # indices into cands
    for i in np.flatnonzero(mult > 0):
        if not merged or abs(cands[i] - cands[merged[-1]]) > near(cands[i]):
            merged.append(i)

    records = []

    def full_svd_record(lam, s):
        mult = int(_null(s, scale_ref).sum())
        # a full collapse has no sigma ratio to be unsure of
        if mult < len(s) and np.any((s >= RANK_TOL * s[0] / MULT_GUARD)
                                    & (s <= RANK_TOL * s[0] * MULT_GUARD)):
            diagnostics.append(f"MultiplicityUncertain(lambda={lam:.12g})")
        return EigRecord(float(lam), mult, float(s[-1]), float(s[0])), mult

    if lo <= 0.0 <= hi:
        rec, mult = full_svd_record(
            0.0, _svdvals(build_secular_matrix(g, 0.0, method), 0.0))
        if mult > 0:
            records.append(rec)

    for i in merged:
        rec, mult = full_svd_record(cands[i], svals[i])
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
        tolerances={"rank_tol": RANK_TOL, "refine_tol": REFINE_TOL,
                    "kappa_step": _KAPPA_WIDTH, "pos_step": pos_width,
                    "zero_radius": ZERO_RADIUS},
        diagnostics=diagnostics,
    )


def count_negative(g: MetricGraph) -> int:
    """Number of negative eigenvalues (with multiplicity): the exact count
    N(-ZERO_RADIUS) of `secular.count_below`, since eigenvalues closer to
    zero fold into 0. Raises WindowTooCoarse where that count is untrusted.
    """
    counts, trusted = count_below(g, [-ZERO_RADIUS])
    if not trusted[0]:
        raise WindowTooCoarse(f"the eigenvalue count below {-ZERO_RADIUS} is "
                              f"not trusted")
    return int(counts[0])


def first_eigenvalues(g: MetricGraph, k: int):
    """First k eigenvalues (with multiplicity), growing the window as needed."""
    lo = default_negative_floor(g)
    hi = (math.pi * (k + 2) / g.total_length) ** 2
    for attempt in range(12):
        spec = find_spectrum(g, (lo, hi * 2.0 ** attempt))
        lams = spec.lambdas()
        if len(lams) >= k:
            return lams[:k], spec
    raise WindowTooCoarse(f"could not locate {k} eigenvalues in "
                          f"[{spec.window[0]}, {spec.window[1]}]")


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

    def norm_sq(self) -> float:
        from .quadform import edge_quadrature

        total = 0.0
        for e in self.graph.edges:
            x, w = edge_quadrature(e.length, QUAD_ORDER)
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


def eigenfunction_at(g: MetricGraph, lam: float) -> list:
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
    null = _null(svals, probe)
    if not null.any():
        raise NotAnEigenvalue(f"sigma_min/sigma_max = {svals[-1] / svals[0]:.3e} "
                              f"at lambda = {lam}")
    ids = [e.id for e in g.edges]
    a, b = _regime_coeffs(g, lam, np.eye(len(svals), dtype=complex) if null.all()
                          else vh[null].conj() / scales)
    funcs = [Eigenfunction(g, float(lam), dict(zip(ids, zip(*ab))))
             for ab in zip(a, b)]

    # orthonormalize in L2 via the quadrature Gram matrix
    quad = {e.id: edge_quadrature(e.length, QUAD_ORDER) for e in g.edges}
    samples = []
    weights = np.concatenate([quad[e.id][1] for e in g.edges])
    for f in funcs:
        samples.append(np.concatenate([f.value(e.id, quad[e.id][0]) for e in g.edges]))
    samples = np.array(samples)
    gram = (samples * weights) @ samples.conj().T
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > 1e-12 * evals[-1]
    trans = np.conj(evecs[:, keep]) / np.sqrt(evals[keep])
    return [Eigenfunction(g, float(lam), dict(zip(ids, zip(*ab))))
            for ab in zip(trans.T @ a, trans.T @ b)]
