"""Spectrum search: eigenvalues isolated by exact counts and refined on
sigma_min, rank-based multiplicities, eigenfunction recovery.

Conventions: windows are closed intervals in lambda. Negative parts are
searched in kappa = sqrt(-lambda), positive parts in lambda. lambda = 0 is
always tested explicitly from the {1, x} solution basis. A located minimum
counts as an eigenvalue when sigma_min < RANK_TOL * sigma_max after
refinement to |d lambda| < REFINE_TOL, or when the whole matrix vanished,
sigma_max < RANK_TOL (`_null`). Eigenvalues closer to zero than
ZERO_RADIUS + REFINE_TOL are indistinguishable from 0 and folded into it.

Counts locate, sigma refines. Both branches run in one lockstep, in the
coordinate x = -kappa below zero and x = lambda above, which increases with
lambda. The exact counts of `secular.count_below` isolate the eigenvalues:
the branches' intervals are bisected together, two rounds per count call,
with the few live cells held in Python lists. A call counts the midpoints
of its round and, for each cell whose halves will still be too wide, the
halves' midpoints, which the next round reads; the opening call counts the
start cells' ends, the window's completeness probes and the points of the
first two rounds. A cell is split while it is wider than its branch width
(_KAPPA_WIDTH in kappa, default_positive_step in lambda) and than 4 float
spacings of its larger |end|, and its end counts differ or either end
count is untrusted. A cell with equal trusted counts holds no eigenvalue
and is dropped. Neighbours that share an untrusted end share its root; a
longest chain of them is a run. Each cell left is padded by half a
width and clipped to its branch. Each bracket runs its own search on
sigma_min in plain floats, `_v_search`, which steps to the vertex of the V
that sigma_min makes at a simple root, guarded by golden section;
`_golden_min` batches them, one sigma call per round holding every live
search's points. A padded cell takes four or five rounds. On the DtN
route sigma_min is noise in a pole cell, and golden steps close in on the
pole; each search is given the zones about the edge Dirichlet eigenvalues
(m pi / l)^2 in its bracket where every point would be flagged a DtN pole
(`_pole_zones`), and stops on its lowest point once its bracket lies in
one, well before its tolerance. A candidate outside its run lies where the
counts put no root and is none.
A cell with trusted end counts whose candidate is none, or that holds more
eigenvalues than sigma certified in it, is bisected by counts down to the
distance at which roots are one, and each run of its pieces is padded by
half that distance and searched again. This finds the roots of a
near-degenerate cluster, where sigma_min dips to each in a notch narrower
than the first search can see, and a root whose cell's search slid onto a
neighbour's.
The sigma scans keep every singular value, one row per lambda, and each
candidate is certified from the row its search computed; a candidate the
search returned unevaluated (the midpoint of a bracket narrowed to its
tolerance, or of a point window) gets its row from one more scan, into the
same rows. Candidates within the count probes' nudge
are one root. Each record reads its multiplicity from its row; only the
explicit lambda = 0 test builds and decomposes a matrix of its own.

Every scan is one `_sigma_grid` call, which runs `kernels.scan_sigma`, one
build and one batched SVD, with the route's builder: the graph's edge plan
from `kernels.prepare_structure`, or `secular.build_dtn_grid`. A lambda on
an edge's Dirichlet spectrum has no DtN matrix and reads inf. A DtN candidate
sits on such a pole when some edge with k l >= 1 has |sin(k l)| <
k / (1e6 max(1, k)), an off-diagonal DtN entry above 1e6 max(1, k); it is
reported as a DtNPole diagnostic, not certified. Last, the window is
checked for completeness against the trusted count N(hi+) - N(lo-), with
the probes nudged just outside the window (counted in isolation's opening
call): it must equal the certified multiplicities, up to the at most 2E
eigenvalues each DtNPole may hide. Otherwise a CountMismatch diagnostic
names the roots that neither search certified. Where either probe is
untrusted the check cannot be made, and a CountUntrusted diagnostic names
the window.

A caller that keeps only the lowest k eigenvalues (`first_eigenvalues`)
passes first=k. Where the lower probe's count is trusted, isolation stops at
the limit N(lo-) + k: in every round the lowest live cell end whose trusted
count reaches it becomes the cut x*, and the cells at or above x* are
dropped. The window then ends at lambda(x*), completeness compares
N(x*) - N(lo-) with the certified multiplicities, and the lambda = 0 test
runs only where 0 lies in [lo, lambda(x*)]. Every cell below x* is the one
the whole window gives, so every record kept is too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotAnEigenvalue, WindowTooCoarse
from .graph import MetricGraph
from .kernels import (branch_svdvals, edge_basis_traces, edge_builder,
                      equilibrate_columns, lay_out_matrices,
                      prepare_structure, scan_sigma)
from .quadform import TrialFunction, edge_quadrature
from .secular import build_dtn_grid, build_secular_matrix, count_below

ZERO_RADIUS = 1e-7
RANK_TOL = 1e-8  # sigma ratio below which a singular value counts as null
REFINE_TOL = 1e-12  # |d lambda| every eigenvalue is refined to
MULT_GUARD = 10.0  # a sigma within this factor of the rank threshold is shaky
_KAPPA_WIDTH = 1e-3  # widest cell the negative branch isolates, in kappa
_KAPPA_FLOOR = 1e-4
_GOLD_STEP = (3.0 - math.sqrt(5.0)) / 2.0  # golden section's step, 0.382
# the most eigenvalues a window may hold by the bound sqrt(hi) L / pi + 2E
MAX_WINDOW_COUNT = 10_000
# the most times first_eigenvalues moves a window end outward by a relative
# 1e-6 for a trusted count; one move clears an eigenvalue or a pole
_TRUST_NUDGES = 100


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


def _sigma_grid(g, struct, lams, method):
    """Every singular value over lams, one descending row per lambda, from
    `kernels.scan_sigma` with the route's builder: the graph's edge plan
    `struct`, or the DtN route's own; DtN-singular points read inf."""
    build = (edge_builder(struct) if method == "edge"
             else lambda batch: build_dtn_grid(g, batch))
    return scan_sigma(lams, build)


def _v_search(a, b, tol, zones):
    """The search for the argmin of a unimodal-enough function on one
    bracket [a, b], by V-steps guarded by golden section, in plain floats.

    A generator: it yields each round's points, is sent their values as a
    list, and returns the argmin. The tolerance is floored at 4 float
    spacings of the bracket's larger end, so that every bracket can get
    narrower than it. A bracket no wider than its tolerance is never
    evaluated and returns its midpoint. The opening round evaluates the
    midpoint and both ends. From then on the bracket is three evaluated
    points xl <= xb <= xr, xb the lowest, and the minimum lies in [xl, xr].
    Each round evaluates one of:
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
    A bracket narrowed to its tolerance returns its midpoint. A bracket
    [xl, xr] that lies inside one of `zones`, pairs (z0, z1), returns xb:
    the caller knows every point there to be the same answer.
    """
    tol = max(tol, 4.0 * math.ulp(max(abs(a), abs(b))))
    if not b - a > tol:
        return (a + b) / 2.0
    m = (a + b) / 2.0
    fm, fa, fb = yield [m, a, b]
    if fa < fm and fa <= fb:  # the lowest of (m, a, b), the first on ties
        xl, xb, xr, fl, fx, fr = a, a, m, fa, fa, fm
    elif fb < fm and fb < fa:
        xl, xb, xr, fl, fx, fr = m, b, b, fm, fb, fb
    else:
        xl, xb, xr, fl, fx, fr = a, m, b, fa, fm, fb
    h = tol / 2.0
    w1 = w2 = math.inf  # widths one and two rounds ago
    again = False  # the last round confirmed
    while xr - xl > tol:
        if any(z0 <= xl and xr <= z1 for z0, z1 in zones):
            return xb
        width = xr - xl
        inner = xl < xb < xr
        finite = math.isfinite(fl) and math.isfinite(fx) and math.isfinite(fr)
        v = None
        if inner and finite:
            sl, sr = (fl - fx) / (xb - xl), (fr - fx) / (xr - xb)
            c = max(sl, sr)
            if c > 0.0:  # the vertex of the V, on the shallower side
                v = xb - fx / c if sl < sr else xb + fx / c
        stalled = width > w2 / 2.0
        # a V-step that lands on the vertex rarely halves the bracket, so
        # the confirmation after it skips the halving test; a run of failed
        # confirmations, which crawls by tol / 2 a round, does not
        confirm = (finite and (not inner or (v is not None and abs(v - xb) <= h))
                   and not (stalled and again))
        w2, w1, again = w1, width, confirm
        if confirm:
            # the points inside (xl, xr); it moves to the lower, the left on
            # ties, and returns xb where neither is lower
            pts = [x for x in (xb - h, xb + h) if xl < x < xr]
            fu, u = min(zip((yield pts), pts)) if pts else (math.inf, xb)
            if not fu < fx:
                return xb
        else:
            if stalled or v is None or not xl < v < xr:  # a golden step
                far = xr if xr - xb >= xb - xl else xl
                v = xb + _GOLD_STEP * (far - xb)
            u, (fu,) = v, (yield [v])
        # a lower point becomes xb, and xb the end on its other side; any
        # other point becomes the end on its own side
        if fu < fx:
            if u > xb:
                xl, fl = xb, fx
            else:
                xr, fr = xb, fx
            xb, fx = u, fu
        elif u > xb:
            xr, fr = u, fu
        else:
            xl, fl = u, fu
    return (xl + xr) / 2.0


def _golden_min(fn, a, b, tol, zones=None):
    """Argmins of a unimodal-enough function, one per bracket: each bracket
    runs its own `_v_search`, and one fn(xs) call per round, fn mapping an
    array of points to their values, holds every live search's points.

    a, b and tol are arrays (tol may be a scalar); zones, where given, holds
    each bracket's list of stop zones. Each bracket's points, comparisons
    and result are those of its search run alone."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), a.shape)
    zones = [()] * a.size if zones is None else zones
    out = np.empty(a.shape)
    live = [(i, search, None) for i, search in enumerate(
        map(_v_search, a.tolist(), b.tolist(), tol.tolist(), zones))]
    while True:
        asked = []  # each live search's next points, or its argmin in out
        for i, search, ys in live:
            try:
                asked.append((i, search, search.send(ys)))
            except StopIteration as stop:
                out[i] = stop.value
        if not asked:
            return out
        f = iter(fn(np.array([x for *_, xs in asked for x in xs])).tolist())
        live = [(i, search, [next(f) for _ in xs]) for i, search, xs in asked]


def _pole_zones(lengths, x0, x1, lower, upper):
    """Each positive bracket [x0, x1]'s zones about the edge Dirichlet
    eigenvalues (m pi / l)^2 in it, as lists of (z0, z1) in lambda: the k
    within 0.5e-6 min(k_m, 1) / l of k_m = m pi / l, where |sin(k l)| is at
    most half the 1e-6 min(k, 1) below which `find_spectrum` flags a DtN
    pole, each clipped to the bracket's [lower, upper]."""
    zones = []
    for a, b, lo, hi in zip(x0.tolist(), x1.tolist(), lower.tolist(),
                            upper.tolist()):
        zones.append([])
        if b <= 0.0:  # the kappa branch has no poles
            continue
        for length in lengths:
            first = max(1, math.ceil(math.sqrt(max(a, 0.0)) * length / math.pi))
            for m in range(first, math.floor(math.sqrt(b) * length / math.pi) + 1):
                k = m * math.pi / length
                d = 0.5e-6 * min(k, 1.0) / length
                z0, z1 = max((k - d) ** 2, lo), min((k + d) ** 2, hi)
                if z0 <= z1:
                    zones[-1].append((z0, z1))
    return zones


def _isolate(g, cells, width, lam_of, probes=(), first=None):
    """The cells [x0, x1] inside the start cells that may hold an eigenvalue
    at lambda = lam_of(x), each no wider than its start cell's entry of
    width or, as `_v_search` floors its tolerance, 4 float spacings of its
    larger |end|: an (n, 2) array in increasing order, with the (n, 2)
    counts and trust flags of `count_below` at their ends, then the counts
    and trust flags at the probes, lambdas counted in the opening call, and
    last the cut, (x, count) or None.

    Cells are bisected in lockstep, two rounds per `count_below` call: a
    call counts the midpoint of every cell that splits in its round and,
    where that cell's halves are still wider than their width, the halves'
    midpoints, which the next round reads from the dict of counted points.
    The opening call counts the start cells' ends, the probes and the points
    of the first two rounds of every start cell wider than its width. A
    cell is split while it is wider than its width and its end counts
    differ or either end count is untrusted; a cell with equal trusted end
    counts holds no eigenvalue and is dropped. The few live cells are a list
    of (x0, x1, n0, n1, ok0, ok1, width); only the counted points go through
    numpy.

    With `first`, only the lowest `first` eigenvalues above the first probe
    are wanted, and where the probe's count is trusted their limit is that
    count plus `first`. In every round the lowest end of a live cell whose
    trusted count reaches the limit becomes the cut, and the cells at or
    above it are dropped."""
    x = np.array(cells, dtype=float).reshape(-1, 2)
    order = np.argsort(x[:, 0])
    x = x[order]
    width = np.broadcast_to(np.asarray(width, dtype=float), order.shape)[order]

    def wide(x0, x1, w):  # the floor keeps the midpoint off both ends
        return x1 - x0 > w and x1 - x0 > 4.0 * math.ulp(max(-x0, x1))

    def ahead(x0, x1, w):
        """The points of a splitting cell's next two rounds: its midpoint
        and, where its halves split too, theirs."""
        mid = (x0 + x1) / 2.0
        return [mid] + [(a + b) / 2.0 for a, b in ((x0, mid), (mid, x1))
                        if wide(a, b, w)]

    opening = [p for (x0, x1), w in zip(x.tolist(), width.tolist())
               if wide(x0, x1, w) for p in ahead(x0, x1, w)]
    n, ok = count_below(g, np.concatenate((
        lam_of(x.T.ravel()), np.asarray(probes, dtype=float),
        lam_of(np.array(opening, dtype=float)))))
    nprobe = x.size + len(probes)
    probed = n[x.size:nprobe], ok[x.size:nprobe]
    counted = dict(zip(opening, zip(n[nprobe:].tolist(),
                                    ok[nprobe:].tolist())))
    n, ok = (v[:x.size].reshape(2, -1).tolist() for v in (n, ok))
    live = list(zip(*x.T.tolist(), *n, *ok, width.tolist()))
    limit = (int(probed[0][0]) + first
             if first is not None and probed[1][0] else None)
    cut = None
    while True:
        # a cell with equal trusted end counts holds no eigenvalue
        live = [c for c in live if c[2] != c[3] or not (c[4] and c[5])]
        if limit is not None:
            # the cells are in increasing order, so the first end found is
            # the lowest; it lies at or below the last cut
            reached = next(((xe, ne) for c in live for xe, ne, oke in
                            ((c[0], c[2], c[4]), (c[1], c[3], c[5]))
                            if oke and ne >= limit), cut)
            if reached is not None:
                cut = reached
                live = [c for c in live if c[0] < cut[0]]
        splits = [wide(c[0], c[1], c[6]) for c in live]
        if not any(splits):
            break
        ask = [p for (x0, x1, *_, w), s in zip(live, splits)
               if s and (x0 + x1) / 2.0 not in counted
               for p in ahead(x0, x1, w)]
        if ask:
            n_ask, ok_ask = count_below(g, lam_of(np.array(ask)))
            counted.update(zip(ask, zip(n_ask.tolist(), ok_ask.tolist())))
        # each split cell becomes its two halves, in place
        split = []
        for (x0, x1, n0, n1, ok0, ok1, w), s in zip(live, splits):
            if s:
                mid = (x0 + x1) / 2.0
                n_m, ok_m = counted[mid]
                split += [(x0, mid, n0, n_m, ok0, ok_m, w),
                          (mid, x1, n_m, n1, ok_m, ok1, w)]
            else:
                split.append((x0, x1, n0, n1, ok0, ok1, w))
        live = split
    return (np.array([c[0:2] for c in live], dtype=float).reshape(-1, 2),
            np.array([c[2:4] for c in live], dtype=np.intp).reshape(-1, 2),
            np.array([c[4:6] for c in live], dtype=bool).reshape(-1, 2),
            probed, cut)


def _runs(cells, ok):
    """The runs of the cells from `_isolate`: neighbours that share an
    untrusted end share its root, and a run is a longest chain of them.
    Returns the (m, 2) array of run ends and each cell's run index."""
    start = np.ones(len(cells), dtype=bool)
    start[1:] = ok[:-1, 1] | (cells[1:, 0] > cells[:-1, 1])
    last = np.roll(start, -1)  # a run ends before the next one starts
    runs = np.stack((cells[start, 0], cells[last, 1]), axis=1)
    return runs, np.cumsum(start) - 1


def _null(s):
    """The rank rule: which singular values of each row (descending) are
    null. All of a row whose sigma_max < RANK_TOL, where the whole matrix
    vanished (multiplicity 2E, e.g. a one-edge cycle); otherwise those below
    RANK_TOL * sigma_max, so sigma_min is null iff any is.

    The constant threshold needs no reference scale, because sigma_max >= 1
    up to rounding on every matrix that has not vanished. An edge-route
    matrix (column-equilibrated below zero) holds an entry of modulus >= 1
    unless the graph is a single loop: some row has a start value f1(0) = 1
    or a start derivative 1 that no other term of its entry cancels. On the
    DtN route every row of a coupled or Dirichlet vertex has real part +-1
    from A. The one exception is a single loop shorter than RANK_TOL /
    sqrt(2), about 7e-9: its matrix at lambda = 0 has sigma_max sqrt(2) l,
    and reads as vanished."""
    smax = s[..., :1]
    return (s < RANK_TOL * smax) | (smax < RANK_TOL)


def find_spectrum(g: MetricGraph, window, method: str = "edge", *,
                  first=None) -> Spectrum:
    """All eigenvalues in the closed window [lo, hi], with multiplicities.
    A window with an end that is not finite, or with lo > hi, raises
    ValueError, and so does one that may hold more than MAX_WINDOW_COUNT
    eigenvalues by the bound N(hi) <= sqrt(hi) L / pi + 2E (L the total
    length, E the edges): each edge adds at most l sqrt(hi) / pi Dirichlet
    eigenvalues below hi, and the vertex conditions at most 2E more.

    With `first` = k only the lowest k eigenvalues of the window are wanted.
    Where the count below lo is trusted and the window holds k eigenvalues,
    isolation cuts the window at a trusted count point x* with
    N(x*) >= N(lo-) + k (see `_isolate`), and the spectrum covers
    [lo, lambda(x*)]: its records, diagnostics, completeness check and
    window end. Every record it keeps is the one the whole window gives."""
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"window {window} is not finite")
    if not lo <= hi:
        raise ValueError(f"window {window} is empty")
    if method not in ("edge", "dtn"):
        raise ValueError(f"unknown method {method!r}")
    bound = math.sqrt(max(hi, 0.0)) * g.total_length / math.pi + 2 * g.num_edges
    if bound > MAX_WINDOW_COUNT:
        raise ValueError(f"window {window} may hold {bound:.4g} eigenvalues, "
                         f"more than {MAX_WINDOW_COUNT}")
    struct = prepare_structure(g)
    pos_width = default_positive_step(g)
    lengths = [e.length for e in g.edges]

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

    def near(lam):  # roots closer than this are one; the count probes' nudge
        return max(1e-9, 1e3 * REFINE_TOL) * np.maximum(1.0, np.abs(lam))

    # the completeness probes, just outside the window, ride the opening
    # call; a cut ends the window at a count already made
    cells, n, ok, (counts, trusted), cut = _isolate(
        g, branches, width_of(branches[:, 0]), lam_of,
        [lo - near(lo), hi + near(hi)], first)
    if cut is not None:
        hi = float(lam_of(cut[0]))
        counts[1], trusted[1] = cut[1], True
    rows = {}  # each lambda the refinement evaluated -> its singular values

    def sigma_min(t):
        lams = lam_of(t)
        svals = _sigma_grid(g, struct, lams, method)
        rows.update(zip(lams.tolist(), svals))
        return svals[:, -1]

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
        lower = bounds[:, 0] - near(bounds[:, 0])
        upper = bounds[:, 1] + near(bounds[:, 1])
        # on the DtN route a search stops inside a pole zone, where every
        # candidate is flagged a pole below; the zones lie in the window,
        # within the bounds and off the zero radius
        zones = None if method == "edge" else _pole_zones(
            lengths, x0, x1,
            np.maximum(lower, max(lo, np.nextafter(ZERO_RADIUS + REFINE_TOL,
                                                   np.inf))),
            np.minimum(upper, hi))
        x = _golden_min(sigma_min, x0, x1, tol, zones)
        lams = lam_of(x)
        # the counts put every root in a run of cells, so a candidate in
        # the padding is none. Candidates within REFINE_TOL of the zero
        # radius are left to the explicit zero test: a cell that holds only
        # the flank of the lambda = 0 dip refines to its inner end, where the
        # DtN rank ratio can read below RANK_TOL.
        inside = (lower <= x) & (x <= upper)
        live = (inside & (np.abs(lams) > ZERO_RADIUS + REFINE_TOL)
                & (lo - REFINE_TOL <= lams) & (lams <= hi + REFINE_TOL))
        # each candidate's row from its refinement; a candidate the search
        # returned unevaluated gets its row from one more scan
        fresh = [lam for lam in lams[live].tolist() if lam not in rows]
        if fresh:
            rows.update(zip(fresh, _sigma_grid(g, struct, np.array(fresh),
                                               method)))
        svals = np.full((lams.size, 2 * g.num_edges), np.inf)
        for i in np.flatnonzero(live):
            svals[i] = rows[lams[i]]
        # interval-Dirichlet pole of the DtN map: some edge with k l >= 1
        # has |sin(k l)| so small that its entries, k / sin(k l), exceed
        # 1e6 max(1, k). The rank ratio under-reads there, and any eigenvalue
        # hiding here cannot be certified on this route (the edge method
        # can). A short edge's entries are large (about 1 / l) far from its
        # poles.
        pole = live & ~np.isfinite(svals[:, 0])
        if method == "dtn":
            k = np.sqrt(np.maximum(lams, 0.0))[:, None]
            kl = k * np.array(lengths)
            pole |= live & ((kl >= 1.0) & (np.abs(np.sin(kl)) < k / (
                1e6 * np.maximum(1.0, k)))).any(axis=1)
        mult = np.where(pole, 0, _null(svals).sum(axis=1))
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
        sub, _, sub_ok = _isolate(g, cells[lost], near(cells[lost, 0]),
                                  lam_of)[:3]
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

    def record(lam, s, m):
        # a full collapse has no sigma ratio to be unsure of
        if m < len(s) and np.any((s >= RANK_TOL * s[0] / MULT_GUARD)
                                 & (s <= RANK_TOL * s[0] * MULT_GUARD)):
            diagnostics.append(f"MultiplicityUncertain(lambda={lam:.12g})")
        return EigRecord(float(lam), int(m), float(s[-1]), float(s[0]))

    records = []
    if lo <= 0.0 <= hi:
        s = _svdvals(build_secular_matrix(g, 0.0, method), 0.0)
        m = _null(s).sum()
        if m > 0:
            records.append(record(0.0, s, m))
    records += [record(cands[i], svals[i], mult[i]) for i in merged]
    records.sort(key=lambda r: r.lam)
    # completeness: the window holds count eigenvalues. Each is certified,
    # or hidden at a flagged DtN pole, whose multiplicity is at most 2E.
    count = int(counts[1] - counts[0])
    certified = sum(r.mult for r in records)
    poles = int(pole.sum())
    if not trusted.all():
        diagnostics.append(f"CountUntrusted(lo={lo:.12g}, hi={hi:.12g})")
    elif not certified <= count <= certified + 2 * g.num_edges * poles:
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
    """First k eigenvalues (with multiplicity), growing the window as needed,
    and the spectrum they were read from.

    Each window is solved with first=k, so a window that holds k
    eigenvalues ends just above the k-th, at a trusted count point, and its
    spectrum covers only that much. Where a cut window certifies fewer than
    k, the whole window is solved again, as with no cut. Each window end
    tried is moved outward by a relative 1e-6 until its count is trusted,
    so that no end on an eigenvalue or an edge Dirichlet pole leaves the
    window's completeness check undone. An end still untrusted after
    _TRUST_NUDGES moves (an end of 0, or an edge so long that no positive
    count is trusted) raises WindowTooCoarse naming it."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    lo = default_negative_floor(g)
    hi = (math.pi * (k + 2) / g.total_length) ** 2
    for attempt in range(12):
        end = hi * 2.0 ** attempt
        nudges = 0
        while not count_below(g, [end])[1][0]:
            if nudges == _TRUST_NUDGES:
                raise WindowTooCoarse(
                    f"the eigenvalue count at the window end {end!r} is not "
                    f"trusted after {_TRUST_NUDGES} nudges")
            end *= 1.0 + 1e-6
            nudges += 1
        spec = find_spectrum(g, (lo, end), first=k)
        if spec.count < k and spec.window[1] < end:
            spec = find_spectrum(g, (lo, end))
        lams = spec.lambdas()
        if len(lams) >= k:
            return lams[:k], spec
    raise WindowTooCoarse(f"could not locate {k} eigenvalues in "
                          f"[{spec.window[0]}, {spec.window[1]}]")


# -- eigenfunctions ------------------------------------------------------------

def _regime_values(lam: float, a, b, x):
    """a cosh(w x) + b sinh(w x) below zero, a cos(w x) + b sin(w x) above,
    a + b x at zero, w = sqrt|lam|; a, b and x broadcast."""
    w = math.sqrt(abs(lam))
    if lam < 0.0:
        return a * np.cosh(w * x) + b * np.sinh(w * x)
    if lam > 0.0:
        return a * np.cos(w * x) + b * np.sin(w * x)
    return a + b * x


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
        return _regime_values(self.lam, a, b, np.asarray(x, dtype=float))

    def derivative(self, edge_id: str, x):
        a, b = self.coeffs[edge_id]
        x = np.asarray(x, dtype=float)
        w = self._rate
        if self.lam < 0.0:
            return w * (a * np.sinh(w * x) + b * np.cosh(w * x))
        if self.lam > 0.0:
            return w * (-a * np.sin(w * x) + b * np.cos(w * x))
        return b * np.ones_like(x)

    def as_trial(self):
        return TrialFunction(
            values={e.id: (lambda x, eid=e.id: self.value(eid, x))
                    for e in self.graph.edges},
            derivatives={e.id: (lambda x, eid=e.id: self.derivative(eid, x))
                         for e in self.graph.edges},
        )


def _regime_coeffs(traces, lam: float, vecs):
    """Amplitudes (a, b), each of shape (len(vecs), E), in the regime basis
    Eigenfunction stores, from edge-ansatz coefficient vectors: the start
    value of each edge's solution and its start derivative over the rate
    sqrt|lam| (1 at lam = 0), read off lam's (8, E) basis traces from
    `kernels.edge_basis_traces`."""
    f10, f20, d10, d20 = traces[:4]
    vecs = np.asarray(vecs)
    c1, c2 = vecs[:, 0::2], vecs[:, 1::2]
    w = math.sqrt(abs(lam)) if lam != 0.0 else 1.0
    return c1 * f10 + c2 * f20, (c1 * d10 + c2 * d20) / w


def eigenfunction_at(g: MetricGraph, lam: float) -> list:
    """L2-orthonormal basis of the eigenspace at lam.

    Extraction always goes through the edge-ansatz matrix (its nullspace IS
    the coefficient vector; the DtN nullspace only carries traces), laid
    out from the same trace tables that convert its coefficients back.
    Raises NotAnEigenvalue when the matrix has full rank there.
    """
    plan = prepare_structure(g)
    traces = edge_basis_traces(np.array([lam], dtype=float), plan[2])
    s_mat = lay_out_matrices(traces, plan)[0]
    scales = np.ones(s_mat.shape[1])
    if lam < 0.0:
        s_mat, scales = equilibrate_columns(s_mat)
    _, svals, vh = np.linalg.svd(s_mat)
    null = _null(svals)
    if not null.any():
        raise NotAnEigenvalue(f"sigma_min/sigma_max = {svals[-1] / svals[0]:.3e} "
                              f"at lambda = {lam}")
    ids = [e.id for e in g.edges]
    a, b = _regime_coeffs(traces[:, 0], lam,
                          np.eye(len(svals), dtype=complex) if null.all()
                          else vh[null].conj() / scales)

    # orthonormalize in L2 via the quadrature Gram matrix, whose samples
    # are each function's values at every edge's nodes
    x, weights = (np.concatenate(v) for v in zip(
        *(edge_quadrature(e.length) for e in g.edges)))
    edge = np.repeat(np.arange(len(ids)), x.size // len(ids))
    samples = _regime_values(float(lam), a[:, edge], b[:, edge], x)
    gram = (samples * weights) @ samples.conj().T
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > 1e-12 * evals[-1]
    trans = np.conj(evecs[:, keep]) / np.sqrt(evals[keep])
    return [Eigenfunction(g, float(lam), dict(zip(ids, zip(*ab))))
            for ab in zip(trans.T @ a, trans.T @ b)]
