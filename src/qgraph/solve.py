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
spacings of its larger |end|, and its end counts differ or either end count
is untrusted. A cell with equal trusted counts holds no eigenvalue and is
dropped. A cell whose trusted counts rise by one, with no edge Dirichlet
eigenvalue between its ends, may jump instead of asking for its next two
rounds: the eigenvalue of the count's matrix Q that changes sign across the
cell places the root by regula falsi, and the call counts the ends of the
bisection leaf that holds that estimate and of the node three levels down.
The cell becomes the one whose ends carry its own counts, or else bisects
on the next call; counts still decide every cell, and a leaf reached is the
one bisection reaches. Where untrusted counts keep every cell splitting,
the calls grow about fourfold a call; one that would hold more than
_MAX_COUNT_POINTS points raises WindowTooCoarse instead. Neighbours that
share an untrusted end share its root; a longest chain of them is a run.
Each cell left is padded by half a width and clipped to its branch. Each
bracket runs its own search on sigma_min in plain floats, `_v_search`,
which steps to the vertex of the V that sigma_min makes at a simple root,
guarded by golden section; a step that lands near the best point also
evaluates the points that confirm it. `_golden_min` batches the searches,
one sigma call per round holding every live search's points. A padded
cell takes four rounds, some three or five. A candidate outside its run
lies where the counts put no root and is none.
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
from `kernels.prepare_structure`, or `secular.build_dtn_grid`. The DtN
route splits every edge and keeps the split point's trace an unknown, so
its matrix is regular at the edge Dirichlet eigenvalues and certifies a
root there as the edge route does; a lambda on a piece's own Dirichlet
spectrum has no DtN matrix, reads inf and certifies nothing. Last, the
window is checked for completeness against the trusted count
N(hi+) - N(lo-), with the probes nudged just outside the window (counted
in isolation's opening call): it must equal the certified multiplicities.
Otherwise a CountMismatch diagnostic names the roots that the search did
not certify, or certified too many of. Where either probe is untrusted the
check cannot be made, and a CountUntrusted diagnostic names the window.

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

import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import NotAnEigenvalue, WindowTooCoarse
from .graph import MetricGraph
from .kernels import (branch_svdvals, edge_basis, edge_builder, end_matrix,
                      equilibrate_columns, prepare_structure, scan_sigma)
from .quadform import _gram
from .secular import (_count_parts, build_dtn_grid, build_secular_matrix,
                      count_below)

ZERO_RADIUS = 1e-7
RANK_TOL = 1e-8  # sigma ratio below which a singular value counts as null
REFINE_TOL = 1e-12  # |d lambda| every eigenvalue is refined to
MULT_GUARD = 10.0  # a sigma within this factor of the rank threshold is shaky
_KAPPA_WIDTH = 1e-3  # widest cell the negative branch isolates, in kappa
_KAPPA_FLOOR = 1e-4
_GOLD_STEP = (3.0 - math.sqrt(5.0)) / 2.0  # golden section's step, 0.382
# a V-step this many tol / 2 or fewer from the best point is a landing: on
# the benchmark's ops 2e5 saves the rounds that 1e6 saves, with fewer points
_LANDING = 2e5
# the most eigenvalues a window may hold by the bound sqrt(hi) L / pi + 2E
MAX_WINDOW_COUNT = 10_000
# the most points one count call of _isolate may hold; where untrusted
# counts keep every cell splitting, the calls grow fourfold and stop here
_MAX_COUNT_POINTS = 4 * MAX_WINDOW_COUNT
# the most times first_eigenvalues moves its window end, each one count call:
# outward by a relative 1e-6 to a trusted count, which one move gives off an
# eigenvalue or a pole, or doubled while the trusted count is below k
_END_MOVES = 100


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
    d = 2 * max degree, where the exact count N(-d^2) is a trusted 0, and
    otherwise the first further doubling of d whose count is. Those
    doublings are counted in one call, as far as -d^2 is a float; where
    none counts a trusted 0 (an edge so short that its negative eigenvalue
    lies beyond the float range), WindowTooCoarse names the last of them.
    """
    return _negative_floor(g, [])[0]


def _negative_floor(g: MetricGraph, extra):
    """`default_negative_floor`, and the (counts, trusted) of `count_below`
    at the lambdas `extra`, which its first count call counts as well; a
    second call, where the first floor fails, counts all its doublings."""
    d = 2 * max(v.degree for v in g.vertices)
    counts, trusted = count_below(g, [-float(d * d), *extra])
    floors, rest = [-float(d * d)], (counts[1:], trusted[1:])
    if not (trusted[0] and counts[0] == 0):
        # the doublings d 2^j, j >= 1, whose (d 2^j)^2 is at most float max
        top = math.isqrt(int(sys.float_info.max)) // d
        floors = [-float((d << j) ** 2) for j in range(1, top.bit_length())]
        counts, trusted = count_below(g, floors)
    for floor, n, ok in zip(floors, counts.tolist(), trusted.tolist()):
        if ok and n == 0:
            return floor, rest
    raise WindowTooCoarse(
        f"the eigenvalue count below the floor {floors[-1]!r} is not a "
        f"trusted 0, and a lower floor leaves the float range")


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


def _v_search(a, b, tol):
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
      two secant slopes and v = xb -+ f(xb) / c on the shallower side. A
      V-step within _LANDING * tol / 2 of xb is a landing: its round also
      evaluates v -+ tol / 2, those of them inside (xl, xr), the points of
      the confirmation that follows where v becomes xb;
    - a confirmation, once |v - xb| <= tol / 2 or xb is an end: xb -+ tol / 2,
      those of them inside (xl, xr), read without a round of their own where
      landings evaluated them all. If neither is lower, the minimum
      lies within tol / 2 of xb, which is returned;
    - a golden step, 0.382 of the larger side away from xb, wherever a value
      is inf, the vertex leaves (xl, xr) or the bracket has not halved in
      the last two rounds; a confirmation right after the opening or a
      V-step is taken all the same.
    A bracket narrowed to its tolerance returns its midpoint. The landing
    changes no comparison, so the argmin is the one the search without it
    gives, in fewer rounds: a bracket that runs open, V, V, a landing V,
    confirm takes four rounds, the confirmation reading the landing's.
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
    landed = {}  # the values at v -+ tol / 2 of every landing
    w1 = w2 = math.inf  # widths one and two rounds ago
    again = False  # the last round confirmed
    while xr - xl > tol:
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
            # the points inside (xl, xr), read from the landings where they
            # evaluated them all; it moves to the lower, the left on ties,
            # and returns xb where neither is lower
            pts = [x for x in (xb - h, xb + h) if xl < x < xr]
            fs = [landed.get(x) for x in pts]
            if None in fs:
                fs = yield pts
            fu, u = min(zip(fs, pts), default=(math.inf, xb))
            if not fu < fx:
                return xb
        else:
            land = ()
            if stalled or v is None or not xl < v < xr:  # a golden step
                far = xr if xr - xb >= xb - xl else xl
                v = xb + _GOLD_STEP * (far - xb)
            elif abs(v - xb) <= _LANDING * h:  # a landing: v -+ tol / 2 too
                land = [x for x in (v - h, v + h) if xl < x < xr]
            u, (fu, *fs) = v, (yield [v, *land])
            if land:
                landed.update(zip(land, fs))
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


def _golden_min(fn, a, b, tol):
    """Argmins of a unimodal-enough function, one per bracket: each bracket
    runs its own `_v_search`, and one fn(xs) call per round, fn mapping an
    array of points to their values, holds every live search's points.

    a, b and tol are arrays (tol may be a scalar). Each bracket's points,
    comparisons and result are those of its search run alone."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), a.shape)
    out = np.empty(a.shape)
    live = [(i, search, None) for i, search in enumerate(
        map(_v_search, a.tolist(), b.tolist(), tol.tolist()))]
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


def _isolate(g, cells, width, lam_of, probes=(), first=None):
    """The cells [x0, x1] inside the start cells that may hold an eigenvalue
    at lambda = lam_of(x), each no wider than its start cell's entry of
    width or, as `_v_search` floors its tolerance, 4 float spacings of its
    larger |end|: an (n, 2) array in increasing order, with the (n, 2)
    counts and trust flags of `count_below` at their ends, then the counts
    and trust flags at the probes, lambdas counted in the opening call, and
    last the cut, (x, count) or None.

    Cells are bisected in lockstep, two rounds per count call
    (`secular._count_parts`): a call counts the midpoint of every cell that
    splits in its round and, where that cell's halves are still wider than
    their width, the halves' midpoints, which the next round reads from the
    one dict of counted points, x -> (count, trusted, N_D, mu), which holds
    every point counted but the probes. The opening call counts the start
    cells' ends, the probes and the points of the first two rounds of every
    start cell wider than its width. A cell is split while it is wider than
    its width and its end counts differ or either end count is untrusted; a
    cell with equal trusted end counts holds no eigenvalue and is dropped.
    The few live cells are a list of (x0, x1, width, may_jump), which read
    their end counts from that dict; only the counted points go through
    numpy.

    A cell that would ask for its two rounds' points may jump instead: one
    wider than its width whose trusted end counts rise by one and whose
    ends' N_D are equal holds one simple root and no edge Dirichlet
    eigenvalue. There the eigenvalue mu_j of Q that changes sign (j = n_-
    at x0) puts the root at its regula-falsi root xh. The cell walks its
    bisection tree toward xh, at the midpoints bisection takes, and the
    call counts the ends of the leaf that holds xh and of the node three
    levels down, where the leaf is deeper. The cell becomes the leaf, or
    else that node, if the trusted counts at its ends are the cell's own
    (n0, n0 + 1); counts being monotone, that leaf is the cell bisection
    gives. Otherwise the jump missed, and the cell bisects on the next
    call, its halves free to jump again. Only odd rounds count, the rounds
    in which bisecting cells ask, so a cell that a jump, or a split at a
    jump's point, put out of step waits a round rather than adding a call.

    With `first`, only the lowest `first` eigenvalues above the first probe
    are wanted, and where the probe's count is trusted their limit is that
    count plus `first`. In every round the lowest end of a live cell whose
    trusted count reaches the limit becomes the cut, and the cells at or
    above it are dropped.

    A call that would hold more than _MAX_COUNT_POINTS points raises
    WindowTooCoarse, naming the start cells' span in lambda and the count
    of points, before it is made."""
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

    def leap(x0, x1, w):
        """A jump's leaf, and the node three levels down where the leaf is
        deeper, or None where the cell may not jump: its end counts are
        not trusted, do not rise by one or its ends differ in N_D."""
        (n0, ok0, nd0, mu0), (n1, ok1, nd1, mu1) = counted[x0], counted[x1]
        if not (ok0 and ok1 and n1 == n0 + 1 and nd0 == nd1):
            return None
        # mu_j > 0 at x0 and < 0 at x1, as the trusted counts say
        up, down = mu0[n0 - nd0], mu1[n0 - nd0]
        xh = x0 + (x1 - x0) * (up / (up - down))
        # a width above the float floor at the cell's ends is above it at
        # every node inside, whose |ends| are no larger
        coarse = w > 4.0 * math.ulp(max(-x0, x1))
        a, b, node, depth = x0, x1, None, 0
        while b - a > w and (coarse or wide(a, b, w)):
            mid = (a + b) / 2.0
            if xh < mid:
                b = mid
            else:
                a = mid
            depth += 1
            if depth == 3:
                node = a, b
        return ((a, b), node) if depth > 3 else ((a, b),)

    def budgeted(lams):  # the count parts, within the budget
        if lams.size > _MAX_COUNT_POINTS:
            lo, hi = lam_of(np.array([x[0, 0], x[:, 1].max()])).tolist()
            raise WindowTooCoarse(
                f"isolating [{lo:.12g}, {hi:.12g}] asks one count for "
                f"{lams.size} points, more than {_MAX_COUNT_POINTS}")
        return _count_parts(g, lams)

    opening = [p for (x0, x1), w in zip(x.tolist(), width.tolist())
               if wide(x0, x1, w) for p in ahead(x0, x1, w)]
    parts = budgeted(np.concatenate((
        lam_of(x.T.ravel()), np.asarray(probes, dtype=float),
        lam_of(np.array(opening, dtype=float)))))
    nprobe = x.size + len(probes)
    probed = tuple(v[x.size:nprobe] for v in parts[:2])
    kept = np.r_[:x.size, nprobe:nprobe + len(opening)]
    counted = dict(zip(x.T.ravel().tolist() + opening,
                       zip(*(v[kept].tolist() for v in parts))))

    def holds(x0, x1):  # equal trusted end counts: no eigenvalue
        (n0, ok0, *_), (n1, ok1, *_) = counted[x0], counted[x1]
        return n0 != n1 or not (ok0 and ok1)

    live = [(x0, x1, w, True)
            for x0, x1, w in zip(*x.T.tolist(), width.tolist())
            if holds(x0, x1)]
    limit = (int(probed[0][0]) + first
             if first is not None and probed[1][0] else None)
    cut = None
    for rnd in itertools.count(1):
        if limit is not None:
            # the cells are in increasing order, so the first end found is
            # the lowest; it lies at or below the last cut
            reached = next(((xe, n) for c in live for xe in c[:2]
                            for n, ok, *_ in [counted[xe]]
                            if ok and n >= limit), cut)
            if reached is not None:
                cut = reached
                live = [c for c in live if c[0] < cut[0]]
        # one pass decides which cells split, at their midpoints, which
        # jump, and which points the round counts; only every other round
        # counts, so that the cells keep in step, and a cell whose midpoint
        # is not counted waits for it
        mids, ask, jumps = [], [], {}
        for i, (x0, x1, w, may_jump) in enumerate(live):
            mid = (x0 + x1) / 2.0 if wide(x0, x1, w) else None
            if mid is None or mid in counted or not rnd % 2:
                pass
            elif may_jump and (to := leap(x0, x1, w)):
                jumps[i] = to
                ask += sorted({p for node in to for p in node}
                              - counted.keys())
            else:
                ask += ahead(x0, x1, w)
            mids.append(mid)
        if mids.count(None) == len(mids):
            break
        if ask:
            counted.update(zip(ask, zip(*(
                v.tolist() for v in budgeted(lam_of(np.array(ask)))))))
        # each split cell becomes its halves that may hold an eigenvalue, in
        # place; each jump its leaf or node, or else it waits to bisect
        split = []
        for i, ((x0, x1, w, _), mid) in enumerate(zip(live, mids)):
            if i in jumps:  # `leap` found the cell's end counts trusted
                hit = next(((a, b, w, True) for a, b in jumps[i]
                            if counted[a][:2] == counted[x0][:2]
                            and counted[b][:2] == counted[x1][:2]), None)
                split.append(hit or (x0, x1, w, False))
            elif mid in counted:
                split += [(a, b, w, True) for a, b in ((x0, mid), (mid, x1))
                          if holds(a, b)]
            else:
                split.append(live[i])
        live = split
    ends = np.array([c[:2] for c in live], dtype=float).reshape(-1, 2)
    at = [counted[xe] for xe in ends.ravel().tolist()]
    return (ends, np.array([p[0] for p in at], dtype=np.intp).reshape(-1, 2),
            np.array([p[1] for p in at], dtype=bool).reshape(-1, 2),
            probed, cut)


def _runs(cells, ok):
    """The runs of the cells from `_isolate`: neighbours that share an
    untrusted end share its root, and a run is a longest chain of them.
    Returns the (m, 2) array of run ends and each cell's run index."""
    start = np.ones(len(cells), dtype=bool)
    start[1:] = ok[:-1, 1] | (cells[1:, 0] > cells[:-1, 1])
    last = np.ones_like(start)  # a run ends before the next one starts
    last[:-1] = start[1:]
    runs = np.stack((cells[start, 0], cells[last, 1]), axis=1)
    return runs, np.cumsum(start) - 1


def _null(s):
    """The rank rule: which singular values of each row (descending) are
    null. All of a row whose sigma_max < RANK_TOL, where the whole matrix
    vanished (multiplicity 2E, e.g. a one-edge cycle); otherwise those below
    RANK_TOL * sigma_max, so sigma_min is null iff any is.

    The constant threshold needs no reference scale, because sigma_max >= 1
    up to rounding on every matrix that has not vanished, sigma_max being at
    least the modulus of any entry. An edge-route matrix (column-equilibrated
    below zero) holds an entry of modulus >= 1 unless the graph is a single
    loop: some row has a start value f1(0) = 1 or a start derivative 1 that
    no other term of its entry cancels. On the DtN route every row of a
    coupled or Dirichlet vertex has real part +-1 from A (i B M is imaginary,
    the DtN entries M real), and the split points' rows and columns cannot
    lower sigma_max; only a lone edge with Neumann ends has no such row. The
    one exception is a single loop shorter than RANK_TOL / sqrt(2), about
    7e-9: its edge matrix at lambda = 0 has sigma_max sqrt(2) l, and reads
    as vanished."""
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
    # the secular matrices' size: 2E on the edge route, 3E over the DtN
    # route's endpoint and split-point traces
    size = (2 if method == "edge" else 3) * g.num_edges

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
        """Each cell's candidate lambda, with its singular values and
        certified multiplicity (0 where it is not certified), and whether
        it lies within its bounds, the ends of its run."""
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
        x = _golden_min(sigma_min, x0, x1, tol)
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
        # a candidate that is not live, or on a DtN piece's pole, reads inf
        # and certifies nothing
        svals = np.full((lams.size, size), np.inf)
        for i in np.flatnonzero(live):
            svals[i] = rows[lams[i]]
        return lams, svals, _null(svals).sum(axis=1), inside

    runs, run = _runs(cells, ok)
    found = search(cells, runs[run], width_of(cells[:, 0]))
    # a cell with trusted end counts whose candidate is none, or that holds
    # more eigenvalues than sigma certified in it, is bisected by counts
    # down to the distance at which roots are one; each run of its pieces
    # is searched again
    _, _, mult, inside = found
    lost = ok.all(axis=1) & (~inside | (mult < n[:, 1] - n[:, 0]))
    if lost.any():
        sub, _, sub_ok = _isolate(g, cells[lost], near(cells[lost, 0]),
                                  lam_of)[:3]
        runs = _runs(sub, sub_ok)[0]
        found = [np.concatenate((v[~lost], w)) for v, w in
                 zip(found, search(runs, runs, near(runs[:, 0])))]
    order = np.argsort(found[0], kind="stable")
    cands, svals, mult = (v[order] for v in found[:3])
    diagnostics = []

    merged = []  # indices into cands
    for i in np.flatnonzero(mult > 0):
        if not merged or abs(cands[i] - cands[merged[-1]]) > near(cands[i]):
            merged.append(i)

    def record(lam, s, m):
        s = s.tolist()
        shaky = RANK_TOL * s[0] / MULT_GUARD, RANK_TOL * s[0] * MULT_GUARD
        # a full collapse has no sigma ratio to be unsure of
        if m < len(s) and any(shaky[0] <= x <= shaky[1] for x in s):
            diagnostics.append(f"MultiplicityUncertain(lambda={lam:.12g})")
        return EigRecord(float(lam), int(m), s[-1], s[0])

    records = []
    if lo <= 0.0 <= hi:
        s = _svdvals(build_secular_matrix(g, 0.0, method), 0.0)
        m = _null(s).sum()
        if m > 0:
            records.append(record(0.0, s, m))
    records += [record(cands[i], svals[i], mult[i]) for i in merged]
    records.sort(key=lambda r: r.lam)
    # completeness: the window holds count eigenvalues, each certified
    count = int(counts[1] - counts[0])
    certified = sum(r.mult for r in records)
    if not trusted.all():
        diagnostics.append(f"CountUntrusted(lo={lo:.12g}, hi={hi:.12g})")
    elif certified != count:
        diagnostics.append(
            f"CountMismatch(lo={lo:.12g}, hi={hi:.12g}, certified={certified}, "
            f"count={count})")
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
    """First k eigenvalues (with multiplicity), and the spectrum they were
    read from.

    The counts size the window before it is solved. Its end starts at
    (pi (k + 2) / L)^2, counted in the first count call of the window's
    lower end, `default_negative_floor`, below which the count is a trusted
    0. While the end's count is untrusted (the end lies on an eigenvalue or
    an edge Dirichlet pole), the end moves outward by a relative 1e-6; while
    its trusted count is below k, it doubles. An end whose trusted count
    does not reach k after _END_MOVES such moves, each one count call (an
    end of 0, or an edge so long that no positive count is trusted), raises
    WindowTooCoarse naming it. The window then holds k eigenvalues and is
    solved once with first=k, so that it ends just above the k-th, at a
    trusted count point, and its spectrum covers only that much. Where the
    cut window certifies fewer than k, the whole window is solved again, as
    with no cut; where that too certifies fewer than k, WindowTooCoarse
    names the window."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    end = (math.pi * (k + 2) / g.total_length) ** 2
    lo, ((n,), (ok,)) = _negative_floor(g, [end])
    for _ in range(_END_MOVES):
        if ok and n >= k:
            break
        end *= 2.0 if ok else 1.0 + 1e-6
        (n,), (ok,) = count_below(g, [end])
    if not (ok and n >= k):
        raise WindowTooCoarse(
            f"the eigenvalue count at the window end {end!r} is not a "
            f"trusted {k} or more after {_END_MOVES} moves")
    spec = find_spectrum(g, (lo, end), first=k)
    if spec.count < k and spec.window[1] < end:
        spec = find_spectrum(g, (lo, end))
    lams = spec.lambdas()
    if len(lams) < k:
        raise WindowTooCoarse(f"could not locate {k} eigenvalues in "
                              f"[{spec.window[0]}, {spec.window[1]}]")
    return lams[:k], spec


# -- eigenfunctions ------------------------------------------------------------

@dataclass
class Eigenfunction:
    """One eigenfunction as coefficients (c1, c2) over the edge basis pair
    its secular matrix was laid out in (`kernels.edge_basis`): c1 f1(x) +
    c2 f2(x) on each edge, row e of the (E, 2) array `coeffs` on the
    graph's e-th edge.

    It is a `quadform` trial itself, whose `breakpoints` follow from its
    graph and lam (`_basis_breaks`)."""

    graph: MetricGraph
    lam: float
    coeffs: np.ndarray  # (E, 2): (c1, c2) on each edge, in edge order

    @property
    def breakpoints(self) -> dict:
        """Edge id to the points where the quadrature of the norm, form,
        Rayleigh quotient and Gram matrix splits that edge, so that each
        piece's Gauss rule resolves the basis at lam; an edge it does not
        name is one piece."""
        return _basis_breaks(self.graph, self.lam)

    def _combine(self, edge_id: str, x, deriv: bool):
        e = self.graph.edge_index[edge_id]
        c1, c2 = self.coeffs[e]
        f1, f2 = edge_basis(self.lam, self.graph.edges[e].length, x, deriv)
        return c1 * f1 + c2 * f2

    def value(self, edge_id: str, x):
        return self._combine(edge_id, x, False)

    def derivative(self, edge_id: str, x):
        return self._combine(edge_id, x, True)

    def on_edges(self, points, deriv: bool):
        """Values, or with deriv derivatives, at every edge's points (a
        `quadform._Nodes`), from one `edge_basis` call."""
        f1, f2 = edge_basis(self.lam, points.length, points.x, deriv)
        c1, c2 = self.coeffs.T
        return c1[points.edge] * f1 + c2[points.edge] * f2

    def as_trial(self):
        """The function as a `quadform` trial: itself."""
        return self


def _basis_breaks(g: MetricGraph, lam: float) -> dict:
    """The breakpoints that let each piece's Gauss rule resolve the basis
    pair of `kernels.edge_basis` at lam, by edge id. Below zero, where
    kappa l > 8, at 4/kappa * 4^j from both ends while under l/2, so the
    pieces grow geometrically away from the ends where e^(-kappa x) lives;
    above zero, where k l > 20, into ceil(k l / 20) equal pieces, about
    three periods each. Other edges are one piece."""
    k = math.sqrt(abs(lam))
    breaks = {}
    for e in g.edges:
        kl = k * e.length
        if lam < 0.0 and kl > 8.0:
            near, x = [], 4.0 / k
            while x < e.length / 2.0:
                near.append(x)
                x *= 4.0
            breaks[e.id] = near + [e.length - x for x in near]
        elif lam > 0.0 and kl > 20.0:
            n = math.ceil(kl / 20.0)
            breaks[e.id] = [e.length * j / n for j in range(1, n)]
    return breaks


def eigenfunction_at(g: MetricGraph, lam: float) -> list:
    """L2-orthonormal basis of the eigenspace at lam.

    Extraction always goes through the edge-ansatz matrix (its nullspace IS
    the coefficient vector; the DtN nullspace only carries traces), and
    each function keeps its null vector's coefficients in the basis that
    matrix was laid out in. Two `edge_basis` calls give the pair's values
    and derivatives at every edge's ends, which the matrix is laid out from,
    with the bytes of `build_secular_matrix`. The null vectors, each wrapped
    in an Eigenfunction, which splits its quadrature by `_basis_breaks`, are
    orthonormalized by their Gram matrix (`quadform._gram`), so the Gram
    matrix, the norm, the form and the Rayleigh quotient of every function
    returned read the same nodes. Raises NotAnEigenvalue when the matrix has
    full rank there.
    """
    plan = prepare_structure(g)
    ends = plan[2] * np.array([[0.0], [1.0]])  # (2, E): each edge's 0, length
    s_mat = end_matrix(edge_basis(lam, ends[1], ends, False),
                       edge_basis(lam, ends[1], ends, True), plan)
    scales = np.ones(s_mat.shape[1])
    if lam < 0.0:
        s_mat, scales = equilibrate_columns(s_mat)
    _, svals, vh = np.linalg.svd(s_mat)
    null = _null(svals)
    if not null.any():
        raise NotAnEigenvalue(f"sigma_min/sigma_max = {svals[-1] / svals[0]:.3e} "
                              f"at lambda = {lam}")
    vecs = (np.eye(len(svals), dtype=complex) if null.all()
            else vh[null].conj() / scales)
    c1, c2 = vecs[:, 0::2], vecs[:, 1::2]
    evals, evecs = np.linalg.eigh(_gram(g, [
        Eigenfunction(g, float(lam), c) for c in np.stack((c1, c2), axis=-1)]))
    keep = evals > 1e-12 * evals[-1]
    trans = np.conj(evecs[:, keep]) / np.sqrt(evals[keep])
    return [Eigenfunction(g, float(lam), c)
            for c in np.stack((trans.T @ c1, trans.T @ c2), axis=-1)]
