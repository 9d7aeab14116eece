"""Scripted numerical checks of the surgery and bound statements.

Each verify_* function runs a batch of cases and returns a Report whose
entries carry enough data (graph serializations, eigenvalues, margins) to
reproduce any failure from the report alone. Strict inequalities are asserted
with margin > STRICT_MARGIN; anything closer to zero is reported as
"inconclusive" rather than guessed. Non-strict inequalities tolerate noise of
the same size. Random inputs come from a seeded generator, drawn up front so
the report content is deterministic regardless of worker scheduling.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .graph import (BoundaryType, EdgeRecord, MetricGraph, START, END,
                    VertexRecord, diameter, make_figure8, make_star,
                    rotation_genus)
from .secular import reduced_negative_kappas
# find_spectrum is not called here; qgbench's spans wrap it under this module
from .solve import RANK_TOL, REFINE_TOL, find_spectrum, first_eigenvalues
from .surgery import AttachEdge, ExtendEdge, Merge, Transplant, apply_surgery

STRICT_MARGIN = 1e-9
# the seeded batches' sizes and the star-ladder's stars
TRANSPLANT_CASES = 100
EQUILATERAL_SAMPLES = 50
BOUND_CASES = 30  # diameter-bound and general-bounds
GROUND_STATE_NS, GROUND_STATE_PER_N = (3, 4, 5, 6), 25
LADDER_TOTAL, LADDER_N_MAX = 3.0, 8
MIN_LENGTH_FRAC = 0.05  # sample_lengths' shortest edge, a share of the total

_SOLVER_TOL = {"rank_tol": RANK_TOL, "refine_tol": REFINE_TOL}


@dataclass
class CaseResult:
    name: str
    status: str  # "pass" | "fail" | "inconclusive" | "uncovered"
    margin: float = None
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "margin": self.margin, "details": self.details}


@dataclass
class Report:
    experiment: str
    seed: int
    cases: list
    tolerances: dict = field(default_factory=lambda: {
        "strict_margin": STRICT_MARGIN, **_SOLVER_TOL})

    @property
    def counts(self) -> Counter:
        return Counter(c.status for c in self.cases)

    @property
    def num_failures(self) -> int:
        return self.counts["fail"]

    def passed(self) -> bool:
        return self.num_failures == 0

    def to_json_dict(self) -> dict:
        return {"experiment": self.experiment, "seed": self.seed,
                "tolerances": self.tolerances, "summary": self.counts,
                "cases": [c.to_json_dict() for c in self.cases]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["name,status,margin"]
        for c in self.cases:
            m = "" if c.margin is None else repr(float(c.margin))
            lines.append(f"{c.name},{c.status},{m}")
        return "\n".join(lines) + "\n"


def write_report(report: Report, out_dir: str) -> str:
    """Write <experiment>-<seed>-<timestamp>.json (+ .csv); return json path."""
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    base = os.path.join(out_dir, f"{report.experiment}-{report.seed}-{stamp}")
    with open(base + ".json", "w") as fh:
        fh.write(report.to_json() + "\n")
    with open(base + ".csv", "w") as fh:
        fh.write(report.to_csv())
    return base + ".json"


def _worker_count() -> int:
    """Pool size: QGRAPH_THREADS, or 1 (serial) when unset. The case thunks
    hold the GIL, so a pool only pays where the variable asks for one."""
    env = os.environ.get("QGRAPH_THREADS", "").strip()
    return max(1, int(env)) if env else 1


def _run_cases(thunks) -> list:
    """Evaluate zero-arg case thunks on `_worker_count()` threads, preserving
    order."""
    workers = _worker_count()
    if workers == 1 or len(thunks) <= 1:
        return [fn() for fn in thunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda fn: fn(), thunks))


def _strict(margin: float) -> str:
    if margin > STRICT_MARGIN:
        return "pass"
    if margin < -STRICT_MARGIN:
        return "fail"
    return "inconclusive"


def _nonstrict(margin: float) -> str:
    return "pass" if margin >= -STRICT_MARGIN else "fail"


# -- sampling -------------------------------------------------------------------

def sample_lengths(rng, n: int, total: float) -> list:
    """Uniform on the simplex of n lengths summing to total, each >=
    MIN_LENGTH_FRAC * total."""
    base = MIN_LENGTH_FRAC * total
    rest = total - n * base
    if rest <= 0:
        raise ValueError("MIN_LENGTH_FRAC too large for this many edges")
    return [float(base + rest * w) for w in rng.dirichlet(np.ones(n))]


def sample_graph(rng, num_edges: int = 5, total: float = None) -> MetricGraph:
    """Connected random multigraph with shuffled planar endpoint enumerations.

    Loops and parallel edges are allowed. The endpoint orders are operator
    data once the graph has cycles, so the shuffle is rejection-sampled down
    to rotation genus zero; the sharp spectral bounds this package checks are
    stated for that planar regime.
    """
    if total is None:
        total = float(1.0 + 2.0 * rng.random())
    nv = int(rng.integers(2, min(num_edges, 4) + 1))
    pairs = [(int(rng.integers(0, i)), i) for i in range(1, nv)]
    while len(pairs) < num_edges:
        pairs.append((int(rng.integers(0, nv)), int(rng.integers(0, nv))))
    lengths = sample_lengths(rng, num_edges, total)
    edges = [EdgeRecord(f"e{i + 1}", f"v{a}", f"v{b}", lengths[i])
             for i, (a, b) in enumerate(pairs)]
    incident = {f"v{i}": [] for i in range(nv)}
    for e in edges:
        incident[e.src].append((e.id, START))
        incident[e.dst].append((e.id, END))
    for _ in range(500):
        vertices = []
        for vid in sorted(incident):
            refs = list(incident[vid])
            rng.shuffle(refs)
            bc = BoundaryType.NEUMANN if len(refs) == 1 else BoundaryType.COUPLED
            vertices.append(VertexRecord(vid, bc, tuple(refs)))
        g = MetricGraph.create(vertices, edges)
        if rotation_genus(g) == 0:
            return g
    raise RuntimeError("no planar enumeration found in 500 draws")


def ground_state(g: MetricGraph) -> tuple:
    """Lowest eigenvalue, and the CountMismatch and CountUntrusted
    diagnostics of its window, as `_first_k` gives them for k = 1."""
    lams, missed = _first_k(g, 1)
    return lams[0], missed


def _equilateral(n: int, total: float) -> tuple:
    """`ground_state` of the equilateral n-star of total length `total`."""
    return ground_state(make_star([total / n] * n))


def _equality_case(name: str, n: int, total: float, found) -> CaseResult:
    """The equilateral n-star's solved ground state `found` (with its
    diagnostics) against the one `reduced_negative_kappas` gives."""
    lam, missed = found
    reduced = -max(reduced_negative_kappas([total / n] * n)) ** 2
    dev = abs(lam - reduced)
    return _missed(CaseResult(
        name=name, status="pass" if dev < 1e-10 else "fail", margin=dev,
        details={"lambda1": lam, "reduced": reduced}), missed)


def _star_below(name: str, ls, ref, extra: dict) -> CaseResult:
    """The case that the star of lengths ls has a ground state strictly
    below the reference one, ref = (lambda1, its diagnostics); the details
    name the star and its ground state, then the keys of extra."""
    g = make_star(ls)
    lam, missed = ground_state(g)
    margin = ref[0] - lam
    return _missed(CaseResult(
        name=name, status=_strict(margin), margin=margin,
        details={"graph": g.to_json_dict(), "lambda1": lam, **extra}),
        missed, ref[1])


def _first_k(g: MetricGraph, k: int):
    """First k eigenvalues, and the CountMismatch and CountUntrusted
    diagnostics of their window: where the solver left a root uncertified,
    or the window's count could not check it, the list may be wrong."""
    lams, spec = first_eigenvalues(g, k)
    return list(lams), [d for d in spec.diagnostics
                        if d.startswith(("CountMismatch", "CountUntrusted"))]


def _missed(case: CaseResult, *mismatches) -> CaseResult:
    """The case fails where a spectrum it read missed a root, or where its
    count could not tell."""
    missed = [d for m in mismatches for d in m]
    if missed:
        case.status = "fail"
        case.details["count_mismatch"] = missed
    return case


# -- transplantation ------------------------------------------------------------

def _transplant_case(idx, ls, j, k, amount, base) -> CaseResult:
    """One move on the star of lengths ls, whose `ground_state` is base."""
    before = make_star(ls)
    after = apply_surgery(before, Transplant(f"e{j}", f"e{k}", amount))
    lam_b, mb = base
    lam_a, ma = ground_state(after)
    margin = lam_b - lam_a
    return _missed(CaseResult(
        name=f"transplant-{idx:03d}", status=_strict(margin), margin=margin,
        details={"graph_before": before.to_json_dict(),
                 "graph_after": after.to_json_dict(),
                 "move": {"from": f"e{j}", "to": f"e{k}", "amount": amount},
                 "lambda1_before": lam_b, "lambda1_after": lam_a}), mb, ma)


def verify_transplantation(lengths=None, moves=None, *, seed: int = 0) -> Report:
    """Strict decrease of the ground state when a piece of a shorter edge is
    transplanted onto a longer one (full removal allowed for even stars).

    Explicit form: pass `lengths` plus `moves` = [(j, k, amount), ...] with
    1-based edge indices and l_j <= l_k. Otherwise a seeded batch of
    TRANSPLANT_CASES is run. Each distinct star's ground state is solved
    once, before the cases, which solve the moved stars.
    """
    rng = np.random.default_rng(seed)
    if lengths is not None:
        specs = [(list(lengths), j, k, float(amount)) for j, k, amount in moves]
    else:
        specs = [([1.0, 1.0, 1.0], 1, 2, 0.2), ([1.0, 2.0, 3.0], 1, 3, 0.5),
                 ([1.0, 1.0, 1.0, 1.0], 1, 2, 1.0)]  # full removal, N even
        while len(specs) < TRANSPLANT_CASES:
            nn = int(rng.integers(3, 7))
            total = 2.0 + 2.0 * rng.random()
            ls = sample_lengths(rng, nn, total)
            j, k = rng.choice(nn, size=2, replace=False)
            if ls[j] > ls[k]:
                j, k = k, j
            if nn % 2 == 0 and rng.random() < 0.15:
                amount = ls[j]
            else:
                amount = float(ls[j] * rng.uniform(0.2, 0.95))
            specs.append((ls, int(j) + 1, int(k) + 1, amount))
    bases = {ls: ground_state(make_star(list(ls)))
             for ls in dict.fromkeys(tuple(s[0]) for s in specs)}
    return Report("transplant", seed, _run_cases(
        [partial(_transplant_case, i, *s, bases[tuple(s[0])])
         for i, s in enumerate(specs)]))


# -- equilateral maximality -----------------------------------------------------

def verify_equilateral_max(n: int, total: float, samples=None, *,
                           seed: int = 0) -> Report:
    """Among n-edge stars of fixed total length, the equilateral one has the
    largest ground state, strictly unless the sample is equilateral."""
    rng = np.random.default_rng(seed)
    if samples is None:
        samples = [sample_lengths(rng, n, total)
                   for _ in range(EQUILATERAL_SAMPLES)]
    ref = _equilateral(n, total)
    cases = [_equality_case(f"equilateral-max-N{n}-equality", n, total, ref)]
    cases += _run_cases([
        partial(_star_below, f"equilateral-max-N{n}-{i:03d}", ls, ref,
                {"lambda1_equilateral": ref[0]})
        for i, ls in enumerate(samples)])
    return Report(f"equilateral-max-N{n}", seed, cases)


# -- edge-count ladder ----------------------------------------------------------

def verify_star_count_ladder() -> Report:
    """Orderings of ground states of equilateral stars of total length
    LADDER_TOTAL, up to LADDER_N_MAX + 2 edges: adding two edges lowers it;
    odd -> odd+1 raises it; even -> even+1 lowers it.
    """
    ns = range(3, LADDER_N_MAX + 3)
    found = dict(zip(ns, _run_cases(
        [partial(_equilateral, nn, LADDER_TOTAL) for nn in ns])))
    steps = [(f"ladder-skip2-N{nn}", nn, nn + 2)
             for nn in range(3, LADDER_N_MAX + 1)]
    steps += [(f"ladder-odd-up-N{nn}", nn + 1, nn) if nn % 2 else
              (f"ladder-even-down-N{nn}", nn, nn + 1)
              for nn in range(3, LADDER_N_MAX + 1)]
    cases = []
    for name, higher, lower in steps:  # the higher star's ground state is above
        margin = found[higher][0] - found[lower][0]
        pair = sorted((higher, lower))
        cases.append(_missed(CaseResult(
            name=name, status=_strict(margin), margin=margin,
            details={"lambda1": {str(nn): found[nn][0] for nn in pair},
                     "total_length": LADDER_TOTAL}),
            *(found[nn][1] for nn in pair)))
    return Report("star-ladder", 0, cases)


# -- global ground-state maximality over stars ----------------------------------

def verify_ground_state_theorem(total: float, *, seed: int = 0) -> Report:
    """Every star of total length L has ground state at most that of the
    equilateral 3-star (odd edge counts) or 4-star (even), same L, on
    GROUND_STATE_PER_N seeded stars of each edge count in GROUND_STATE_NS."""
    rng = np.random.default_rng(seed)
    samples = [(nn, sample_lengths(rng, nn, total))
               for nn in GROUND_STATE_NS for _ in range(GROUND_STATE_PER_N)]
    refs = {nn: _equilateral(nn, total) for nn in (3, 4)}
    cases = [_equality_case(f"ground-state-equality-N{nn}", nn, total, ref)
             for nn, ref in refs.items()]
    cases += _run_cases([
        partial(_star_below, f"ground-state-N{nn}-{i:03d}", ls, refs[r],
                {"reference": refs[r][0], "reference_star": r})
        for i, (nn, ls) in enumerate(samples) for r in [3 if nn % 2 else 4]])
    return Report("ground-state", seed, cases)


# -- monotonicity under attach / extend / merge ----------------------------------

# The seeded surgery batch, one row per kind: (kind, cases, edge-count draw,
# base total, extra draw). Each case draws its edge count, the total's
# rng.random() above the base, the lengths, then its extra.
SURGERY_DRAWS = (
    ("attach-even", 8, lambda r: r.choice([4, 6]), 2.0,  # at the center
     lambda r, nn: float(r.uniform(0.3, 1.2))),
    ("attach-odd", 7, lambda r: r.choice([3, 5]), 2.0,
     lambda r, nn: float(r.uniform(0.3, 1.2))),
    ("attach-two", 10, lambda r: r.choice([4, 6]), 2.0,
     lambda r, nn: (float(r.uniform(0.3, 1.2)), float(r.uniform(0.3, 1.2)))),
    ("extend", 15, lambda r: r.integers(3, 7), 2.0,  # Neumann tips
     lambda r, nn: (int(r.integers(1, nn + 1)), float(r.uniform(0.1, 1.0)))),
    ("extend-dirichlet", 10, lambda r: r.integers(3, 7), 2.5,
     lambda r, nn: (int(r.integers(1, nn + 1)), float(r.uniform(0.1, 1.0)))),
    ("merge-odd-odd", 6, lambda r: r.integers(3, 6), 2.0,  # two tips
     lambda r, nn: tuple(int(v) + 1 for v in r.choice(nn, 2, replace=False))),
    ("merge-mixed", 4, lambda r: r.choice([4, 6]), 2.0,  # a tip, the center
     lambda r, nn: int(r.integers(1, nn + 1))),
)


def _operate(before: MetricGraph, kind: str, extra) -> MetricGraph:
    """`before` after the surgery of `kind`, with the draw's `extra`."""
    if kind == "attach-two":
        return apply_surgery(apply_surgery(before, AttachEdge("v0", extra[0])),
                             AttachEdge("v0", extra[1]))
    if kind.startswith("attach"):
        return apply_surgery(before, AttachEdge("v0", extra))
    if kind.startswith("extend"):
        return apply_surgery(before, ExtendEdge(f"e{extra[0]}", extra[1]))
    if kind == "merge-odd-odd":
        return apply_surgery(before, Merge(f"v{extra[0]}", f"v{extra[1]}"))
    return apply_surgery(before, Merge(f"v{extra}", "v0"))  # merge-mixed


def _surgery_case(idx, kind, ls, extra) -> CaseResult:
    tip = "dirichlet" if kind == "extend-dirichlet" else "neumann"
    before = make_star(ls, tip_bc=tip)
    after = _operate(before, kind, extra)
    (lb, mb), (la, ma) = _first_k(before, 6), _first_k(after, 6)
    ks = range(1, 7)
    if kind == "attach-odd":
        ks = [k for k in ks if lb[k - 1] >= 0.0]
    margins, uncovered = {}, []
    for k in ks:
        b, a = lb[k - 1], la[k - 1]
        if kind != "extend":  # merging odd tips raises, the rest lower
            margins[k] = a - b if kind == "merge-odd-odd" else b - a
        elif a <= 0.0:  # Neumann tips: the signs decide the way
            margins[k] = a - b
        elif b >= 0.0:
            margins[k] = b - a
        else:
            uncovered.append(k)
    det = ({"checked_k": list(ks)} if kind in ("attach-even", "attach-odd")
           else {"uncovered_k": uncovered} if kind == "extend" else {})
    worst = min(margins.values(), default=math.inf)
    status = "uncovered" if uncovered and not margins else _nonstrict(worst)
    det.update({"graph_before": before.to_json_dict(),
                "graph_after": after.to_json_dict(),
                "lambdas_before": lb, "lambdas_after": la,
                "margins": {str(k): v for k, v in margins.items()}})
    return _missed(CaseResult(
        name=f"{kind}-{idx:03d}", status=status,
        margin=(None if worst is math.inf else worst), details=det), mb, ma)


def verify_surgery_monotonicity(cases=None, *, seed: int = 0) -> Report:
    """Eigenvalue monotonicity under pendant-edge attachment, edge extension
    (Neumann and Dirichlet tips), and vertex merging, on the first six
    eigenvalues wherever the respective hypothesis applies."""
    rng = np.random.default_rng(seed)
    if cases is None:
        cases = []
        for kind, batch, count, base, extra in SURGERY_DRAWS:
            for _ in range(batch):
                nn = int(count(rng))
                ls = sample_lengths(rng, nn, base + rng.random() * 2)
                cases.append((kind, ls, extra(rng, nn)))
    return Report("surgery-monotonicity", seed, _run_cases(
        [partial(_surgery_case, i, *c) for i, c in enumerate(cases)]))


# -- diameter bound for even stars ----------------------------------------------

def _diameter_case(idx, ls) -> CaseResult:
    g = make_star(ls)
    lams, missed = _first_k(g, 6)
    diam = diameter(g)
    nn = len(ls)
    length = sum(ls)
    worst = math.inf
    chain_ok = True
    per_k = {}
    for k in range(1, 7):
        b1 = (k - 1) ** 2 * math.pi ** 2 / diam ** 2
        b2 = (k - 1) ** 2 * math.pi ** 2 * nn ** 2 / (4 * length ** 2)
        per_k[str(k)] = {"lambda": lams[k - 1], "diam_bound": b1,
                         "mean_bound": b2}
        worst = min(worst, b1 - lams[k - 1])
        chain_ok = chain_ok and (b2 - b1 >= -STRICT_MARGIN)
    status = _nonstrict(worst) if chain_ok else "fail"
    return _missed(CaseResult(
        name=f"diameter-bound-{idx:03d}", status=status, margin=worst,
        details={"graph": g.to_json_dict(), "diameter": diam,
                 "bounds": per_k}), missed)


def verify_diameter_bound(samples=None, *, seed: int = 0) -> Report:
    """lambda_k <= (k-1)^2 pi^2 / diam^2 <= (k-1)^2 pi^2 N^2 / (4 L^2) for
    stars with an even number of edges."""
    rng = np.random.default_rng(seed)
    if samples is None:
        samples = [[1.0, 1.0, 1.0, 1.0]]
        while len(samples) < BOUND_CASES:
            nn = int(rng.choice([4, 6]))
            samples.append(sample_lengths(rng, nn, 2.0 + rng.random() * 2))
    return Report("diameter-bound", seed, _run_cases(
        [partial(_diameter_case, i, ls) for i, ls in enumerate(samples)]))


# -- general upper bounds -------------------------------------------------------

def _general_bounds_case(idx, g) -> CaseResult:
    lams, missed = _first_k(g, 5)
    length = g.total_length
    checks = {
        "lambda1<=-1": -1.0 - lams[0],
        "lambda2<=0": 0.0 - lams[1],
        "lambda3<=4pi^2/L^2": 4 * math.pi ** 2 / length ** 2 - lams[2],
        "lambda5<=16pi^2/L^2": 16 * math.pi ** 2 / length ** 2 - lams[4],
    }
    worst = min(checks.values())
    return _missed(CaseResult(
        name=f"general-bounds-{idx:03d}", status=_nonstrict(worst),
        margin=worst, details={"graph": g.to_json_dict(), "lambdas": lams,
                               "margins": checks}), missed)


def verify_general_bounds(samples=None, *, seed: int = 0) -> Report:
    """For connected graphs other than paths and cycles: lambda_1 <= -1,
    lambda_2 <= 0, lambda_5 <= 16 pi^2 / L^2 (and lambda_3 <= 4 pi^2 / L^2);
    the equilateral figure-8 attains all of them."""
    rng = np.random.default_rng(seed)
    if samples is not None:
        graphs = list(samples)
    else:
        graphs = [make_figure8(0.5, 0.5), make_figure8(0.3, 0.9)]
        for nn in (3, 4, 5, 6):
            graphs.append(make_star(sample_lengths(rng, nn, 2.0 + rng.random())))
        while len(graphs) < BOUND_CASES:
            graphs.append(sample_graph(rng))
    cases = _run_cases([partial(_general_bounds_case, i, g)
                        for i, g in enumerate(graphs)])

    # sharpness: the equilateral figure-8 attains every bound
    lams, missed = _first_k(make_figure8(0.5, 0.5), 5)
    targets = [-1.0, 0.0, 4 * math.pi ** 2, 16 * math.pi ** 2, 16 * math.pi ** 2]
    dev = max(abs(l - t) for l, t in zip(lams, targets))
    cases.append(_missed(CaseResult(
        name="general-bounds-sharp-figure8",
        status="pass" if dev < 1e-8 else "fail", margin=dev,
        details={"lambdas": lams, "targets": targets}), missed))
    return Report("general-bounds", seed, cases)


# -- parameter sweeps -----------------------------------------------------------

@dataclass
class SweepTable:
    family: str
    n: int
    limit: float
    rows: list  # (param, lambda1, gap)
    monotonicity: str
    diagnostics: list = field(default_factory=list)  # (param, diagnostic)

    def to_csv(self) -> str:
        head = (f"# family={self.family},n={self.n},limit={repr(self.limit)},"
                f"monotonicity={self.monotonicity}\n")
        lines = [head + "param,lambda1,gap_to_limit"]
        for p, lam, gap in self.rows:
            lines.append(f"{repr(float(p))},{repr(float(lam))},{repr(float(gap))}")
        return "\n".join(lines) + "\n"


def _star_limit(n: int) -> float:
    """The equilateral n-star's ground state as its edges grow, either tip:
    with every tau_j -> 1, `star_secular_reduced` is Im (1 + i kappa)^n,
    whose largest root is kappa = tan(m pi / n), m = (n - 1) // 2. So the
    limit is -cot^2(pi / 2n) for odd n, -cot^2(pi / n) for even n, and 0
    where n <= 2 leaves no root."""
    m = (n - 1) // 2
    return -1.0 / math.tan((n - 2 * m) * math.pi / (2 * n)) ** 2 if m else 0.0


# family: (graph at parameter p with n edges, limit of the ground state)
SWEEP_FAMILIES = {
    "figure8": (lambda t, n: make_figure8(t, 2 * t), lambda n: -1.0),
    "neumann_star": (lambda l, n: make_star([l] * n), _star_limit),
    "dirichlet_star": (lambda l, n: make_star([l] * n, tip_bc="dirichlet"),
                       _star_limit),
}


def sweep_lambda1_vs_length(family: str, grid, n: int = 3) -> SweepTable:
    """Ground state along a one-parameter family of graphs, with the
    CountMismatch and CountUntrusted diagnostics of each ground state's
    window, as `ground_state` gives them.

    Families: "neumann_star" and "dirichlet_star" (parameter = edge length of
    the equilateral n-star; limit = -cot^2(pi / 2n) for odd n, -cot^2(pi / n)
    for even n, 0 for n <= 2, from `_star_limit`) and "figure8" (loops
    (t, 2t); the ground state stays at -1).

    Its monotonicity reads a step within 1e-12 as a tie: all ties are
    "constant", no step below -1e-12 is "increasing", no step above 1e-12
    is "decreasing", and anything else is "non-monotone". A star swept
    far enough repeats its limit as a float, a tie that breaks no trend.
    """
    if family not in SWEEP_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    build, limit_of = SWEEP_FAMILIES[family]
    limit = limit_of(n)

    def case(p):
        lam, missed = ground_state(build(float(p), n))
        return (float(p), lam, lam - limit), missed

    solved = _run_cases([partial(case, p) for p in grid])
    rows = [row for row, _ in solved]
    diagnostics = [(row[0], d) for row, missed in solved for d in missed]
    lams = [r[1] for r in rows]
    diffs = np.diff(lams)
    if np.all(np.abs(diffs) < 1e-12):
        mono = "constant"
    elif np.all(diffs > -1e-12):
        mono = "increasing"
    elif np.all(diffs < 1e-12):
        mono = "decreasing"
    else:
        mono = "non-monotone"
    return SweepTable(family, n, limit, rows, mono, diagnostics)


SUITES = {
    "transplant": lambda seed: verify_transplantation(seed=seed),
    "equilateral-max": lambda seed: verify_equilateral_max(3, 3.0, seed=seed),
    "equilateral-max-even": lambda seed: verify_equilateral_max(4, 4.0,
                                                                seed=seed),
    "star-ladder": lambda seed: verify_star_count_ladder(),
    "ground-state": lambda seed: verify_ground_state_theorem(3.0, seed=seed),
    "surgery-monotonicity": lambda seed: verify_surgery_monotonicity(seed=seed),
    "diameter-bound": lambda seed: verify_diameter_bound(seed=seed),
    "general-bounds": lambda seed: verify_general_bounds(seed=seed),
}
