"""Spectrum search: eigenvalues isolated by exact counts, located by
golden-section refinement of sigma_min, rank-based multiplicities,
eigenfunction recovery.

Conventions: windows are closed intervals in lambda. Negative parts are
searched in kappa = sqrt(-lambda), positive parts in lambda. lambda = 0 is
always tested explicitly from the {1, x} solution basis. A located minimum
counts as an eigenvalue when sigma_min < rank_tol * sigma_max after
refinement to |d lambda| < refine_tol. Eigenvalues closer to zero than
zero_radius + refine_tol are indistinguishable from 0 and folded into it.

Both branches go through one routine. The exact counts of
`secular.count_below` isolate the eigenvalues: the branch's interval is
bisected in lockstep, one count call per round, and a cell is split while it
is wider than the branch width (_KAPPA_WIDTH in kappa, default_positive_step
in lambda) and its end counts differ or either end count is untrusted. A
cell with equal trusted counts holds no eigenvalue and is dropped. One sigma
call at the ends of the cells left gives the typical sigma_max. Each cell,
padded by half a width and clipped to the window, is a bracket of one
golden-section search; all brackets of the branch run in lockstep, one
batched sigma call per round. Certification is one batched call over the
candidates, and candidates within the count probes' nudge are one root.

Every batch goes through the one chunk loop, `kernels.scan_sigma`, with the
route's builder: the graph's edge plan from `kernels.prepare_structure`, or
`secular.build_dtn_grid`. A lambda on an edge's Dirichlet spectrum has no
DtN matrix and reads inf. A DtN candidate sits on such a pole when some edge
with k l >= 1 has |sin(k l)| < k / (1e6 max(1, k)), an off-diagonal DtN
entry above 1e6 max(1, k); it is reported as a DtNPole diagnostic, not
certified. Last, the window is checked for completeness against the trusted
count N(hi+) - N(lo-), with the probes nudged just outside the window: it
must equal the certified multiplicities, up to the at most 2E eigenvalues
each DtNPole may hide. Otherwise a CountMismatch diagnostic says so; two
roots folded into one cell are caught this way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NotAnEigenvalue, WindowTooCoarse
from .graph import END, MetricGraph, START
from .kernels import (branch_svdvals, edge_basis_traces, edge_builder,
                      equilibrate_columns, prepare_structure, scan_sigma)
from .secular import build_dtn_grid, build_secular_matrix, count_below

ZERO_RADIUS = 1e-7
_KAPPA_WIDTH = 1e-3  # widest cell the negative branch isolates, in kappa
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


def _isolate(g, a, b, width, lam_of):
    """(n, 2) array of the cells [x0, x1] of [a, b] that may hold an
    eigenvalue at lambda = lam_of(x), none wider than width.

    Cells are bisected in lockstep, starting from [a, b], with one
    `count_below` call per round. A cell is split while it is wider than
    width and its end counts differ or either end count is untrusted; a cell
    with equal trusted end counts holds no eigenvalue and is dropped."""
    def halves(v, mid):
        return np.concatenate((np.column_stack((v[:, 0], mid)),
                               np.column_stack((mid, v[:, 1]))))

    x = np.array([[a, b]], dtype=float)
    n, ok = (v.reshape(1, 2) for v in count_below(g, lam_of(x[0])))
    cells = []
    while True:
        open_ = (n[:, 0] != n[:, 1]) | ~ok.all(axis=1)
        wide = open_ & (x[:, 1] - x[:, 0] > width)
        cells.append(x[open_ & ~wide])
        if not wide.any():
            return np.concatenate(cells)
        x, n, ok = x[wide], n[wide], ok[wide]
        mid = (x[:, 0] + x[:, 1]) / 2.0
        n_mid, ok_mid = count_below(g, lam_of(mid))
        x, n, ok = halves(x, mid), halves(n, n_mid), halves(ok, ok_mid)


def find_spectrum(g: MetricGraph, window, method: str = "edge", *,
                  rank_tol: float = 1e-8, refine_tol: float = 1e-12,
                  mult_guard: float = 10.0) -> Spectrum:
    """All eigenvalues in the closed window [lo, hi], with multiplicities."""
    lo, hi = float(window[0]), float(window[1])
    if not lo <= hi:
        raise ValueError(f"window {window} is empty")
    if method not in ("edge", "dtn"):
        raise ValueError(f"unknown method {method!r}")
    struct = prepare_structure(g)
    pos_width = default_positive_step(g)

    candidates = []
    scale_ref = 0.0  # typical sigma_max over the cell ends

    def refine_branch(a, b, width, lam_of, tol_of):
        """Isolate the eigenvalues of [a, b] in x, at lambda = lam_of(x), in
        cells no wider than width, and refine the sigma_min minimum of each
        cell, padded by half a width and clipped to [a, b], to the
        x-tolerance tol_of(x)."""
        nonlocal scale_ref
        cells = _isolate(g, a, b, width, lam_of)
        if not cells.size:
            return
        smax = _sigma_grid(g, struct, lam_of(np.unique(cells)), method)[1]
        finite = smax[np.isfinite(smax)]
        if finite.size:
            scale_ref = max(scale_ref, float(np.median(finite)))
        x0 = np.maximum(cells[:, 0] - width / 2.0, a)
        x1 = np.minimum(cells[:, 1] + width / 2.0, b)
        x = _golden_min(lambda t: _sigma_grid(g, struct, lam_of(t), method)[0],
                        x0, x1, tol_of(x0))
        candidates.extend(lam_of(x))

    if lo < -ZERO_RADIUS:  # negative part, isolated in kappa
        k_lo = math.sqrt(-min(hi, 0.0)) if hi < 0 else _KAPPA_FLOOR
        k_hi = math.sqrt(-lo)
        if k_hi > k_lo:
            refine_branch(
                k_lo, k_hi, _KAPPA_WIDTH, lambda k: -k * k,
                lambda k: np.maximum(refine_tol / (2.0 * np.maximum(k, 0.05)),
                                     1e-15))
    if hi > ZERO_RADIUS:  # positive part, isolated in lambda
        refine_branch(max(lo, ZERO_RADIUS), hi, pos_width, lambda x: x,
                    lambda x: refine_tol)

    # certify candidates; a collapse of sigma_max against the typical scale
    # means the whole matrix vanished (eigenvalue of full multiplicity 2E,
    # e.g. a one-edge cycle), which the relative rank test cannot see.
    # Candidates within refine_tol of the zero radius are left to the
    # explicit zero test: a cell that holds only the flank of the lambda = 0
    # dip refines to its inner end, where the DtN rank ratio can read below
    # rank_tol.
    cands = np.array([lam for lam in sorted(candidates)
                      if abs(lam) > ZERO_RADIUS + refine_tol
                      and lo - refine_tol <= lam <= hi + refine_tol])
    sms, sxs = _sigma_grid(g, struct, cands, method)
    # interval-Dirichlet pole of the DtN map: some edge with k l >= 1 has
    # |sin(k l)| so small that its entries, k / sin(k l), exceed
    # 1e6 max(1, k). The rank ratio under-reads there, and any eigenvalue
    # hiding here cannot be certified on this route (the edge method can).
    # A short edge's entries are large (about 1 / l) far from its poles.
    pole = ~np.isfinite(sxs)
    if method == "dtn":
        k = np.sqrt(np.maximum(cands, 0.0))[:, None]
        kl = k * np.array([e.length for e in g.edges])
        pole |= ((kl >= 1.0) & (np.abs(np.sin(kl))
                                < k / (1e6 * np.maximum(1.0, k)))).any(axis=1)
    diagnostics = [f"DtNPole(lambda={lam:.12g})" for lam in cands[pole]]
    accepted = cands[~pole & ((sms < rank_tol * sxs)
                              | (sxs < rank_tol * scale_ref))]

    def near(lam):  # roots closer than this are one; the count probes' nudge
        return max(1e-9, 1e3 * refine_tol) * max(1.0, abs(lam))

    merged = []
    for lam in accepted:
        if not merged or abs(lam - merged[-1]) > near(lam):
            merged.append(lam)

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

    for lam in merged:
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
                    "kappa_step": _KAPPA_WIDTH, "pos_step": pos_width,
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
    for attempt in range(12):
        spec = find_spectrum(g, (lo, hi * 2.0 ** attempt), method=method)
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
    a, b = _regime_coeffs(g, lam, null)
    funcs = [Eigenfunction(g, float(lam), dict(zip(ids, zip(*ab))))
             for ab in zip(a, b)]

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
    return [Eigenfunction(g, float(lam), dict(zip(ids, zip(*ab))))
            for ab in zip(trans.T @ a, trans.T @ b)]
