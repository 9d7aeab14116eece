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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .graph import (BoundaryType, EdgeRecord, MetricGraph, START, END,
                    VertexRecord, diameter, make_figure8, make_star,
                    rotation_genus)
from .solve import (RANK_TOL, REFINE_TOL, default_negative_floor,
                    find_spectrum, first_eigenvalues)
from .surgery import AttachEdge, ExtendEdge, Merge, Transplant, apply_surgery

STRICT_MARGIN = 1e-9

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
    def counts(self) -> dict:
        out = {}
        for c in self.cases:
            out[c.status] = out.get(c.status, 0) + 1
        return out

    @property
    def num_failures(self) -> int:
        return self.counts.get("fail", 0)

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
    env = os.environ.get("QGRAPH_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def _run_cases(thunks) -> list:
    """Evaluate zero-arg case thunks, in parallel, preserving order."""
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

def sample_lengths(rng, n: int, total: float, min_frac: float = 0.05) -> list:
    """Uniform on the simplex of n lengths summing to total, each >= min_frac*total."""
    base = min_frac * total
    rest = total - n * base
    if rest <= 0:
        raise ValueError("min_frac too large for this many edges")
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


def ground_state(g: MetricGraph) -> float:
    """Lowest eigenvalue; scans the negative window first, then widens."""
    spec = find_spectrum(g, (default_negative_floor(g), -1e-8))
    if spec.records:
        return spec.records[0].lam
    lams, _ = first_eigenvalues(g, 1)
    return lams[0]


# -- transplantation ------------------------------------------------------------

def verify_transplantation(n: int = None, lengths=None, moves=None, *,
                           seed: int = 0, num_cases: int = 100) -> Report:
    """Strict decrease of the ground state when a piece of a shorter edge is
    transplanted onto a longer one (full removal allowed for even stars).

    Explicit form: pass `lengths` plus `moves` = [(j, k, amount), ...] with
    1-based edge indices and l_j <= l_k. Otherwise a seeded batch is run.
    """
    rng = np.random.default_rng(seed)
    specs = []
    if lengths is not None:
        for (j, k, amount) in moves:
            specs.append((list(lengths), j, k, float(amount)))
    else:
        specs.append(([1.0, 1.0, 1.0], 1, 2, 0.2))
        specs.append(([1.0, 2.0, 3.0], 1, 3, 0.5))
        specs.append(([1.0, 1.0, 1.0, 1.0], 1, 2, 1.0))  # full removal, N even
        while len(specs) < num_cases:
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

    def run(idx, ls, j, k, amount):
        def thunk():
            before = make_star(ls)
            op = Transplant(f"e{j}", f"e{k}", amount)
            after = apply_surgery(before, op)
            lam_b = ground_state(before)
            lam_a = ground_state(after)
            margin = lam_b - lam_a
            return CaseResult(
                name=f"transplant-{idx:03d}",
                status=_strict(margin), margin=margin,
                details={"graph_before": before.to_json_dict(),
                         "graph_after": after.to_json_dict(),
                         "move": {"from": f"e{j}", "to": f"e{k}",
                                  "amount": amount},
                         "lambda1_before": lam_b, "lambda1_after": lam_a})
        return thunk

    thunks = [run(i, *s) for i, s in enumerate(specs)]
    return Report("transplant", seed, _run_cases(thunks))


# -- equilateral maximality -----------------------------------------------------

def verify_equilateral_max(n: int, total: float, samples=None, *,
                           seed: int = 0, num_samples: int = 100) -> Report:
    """Among n-edge stars of fixed total length, the equilateral one has the
    largest ground state, strictly unless the sample is equilateral."""
    rng = np.random.default_rng(seed)
    if samples is None:
        samples = [sample_lengths(rng, n, total) for _ in range(num_samples)]
    eq = make_star([total / n] * n)
    lam_eq = ground_state(eq)
    cases = []

    lam_eq_again = ground_state(make_star([total / n] * n))
    dev = abs(lam_eq_again - lam_eq)
    cases.append(CaseResult(
        name=f"equilateral-max-N{n}-equality",
        status="pass" if dev < 1e-10 else "fail", margin=dev,
        details={"lambda1": lam_eq, "recomputed": lam_eq_again}))

    def run(idx, ls):
        def thunk():
            g = make_star(ls)
            lam = ground_state(g)
            margin = lam_eq - lam
            return CaseResult(
                name=f"equilateral-max-N{n}-{idx:03d}",
                status=_strict(margin), margin=margin,
                details={"graph": g.to_json_dict(), "lambda1": lam,
                         "lambda1_equilateral": lam_eq})
        return thunk

    cases.extend(_run_cases([run(i, ls) for i, ls in enumerate(samples)]))
    return Report(f"equilateral-max-N{n}", seed, cases)


# -- edge-count ladder ----------------------------------------------------------

def verify_star_count_ladder(total: float = 3.0, n_max: int = 8) -> Report:
    """Orderings of ground states of equilateral stars of fixed total length:
    adding two edges lowers it; odd -> odd+1 raises it; even -> even+1 lowers it.
    """
    lams = {}

    def lam_for(nn):
        def thunk():
            return nn, ground_state(make_star([total / nn] * nn))
        return thunk

    for nn, lam in _run_cases([lam_for(nn) for nn in range(3, n_max + 3)]):
        lams[nn] = lam

    cases = []
    for nn in range(3, n_max + 1):
        margin = lams[nn] - lams[nn + 2]
        cases.append(CaseResult(
            name=f"ladder-skip2-N{nn}", status=_strict(margin), margin=margin,
            details={"lambda1": {str(nn): lams[nn], str(nn + 2): lams[nn + 2]},
                     "total_length": total}))
    for nn in range(3, n_max + 1):
        if nn % 2 == 1:
            margin = lams[nn + 1] - lams[nn]
            name = f"ladder-odd-up-N{nn}"
        else:
            margin = lams[nn] - lams[nn + 1]
            name = f"ladder-even-down-N{nn}"
        cases.append(CaseResult(
            name=name, status=_strict(margin), margin=margin,
            details={"lambda1": {str(nn): lams[nn], str(nn + 1): lams[nn + 1]},
                     "total_length": total}))
    return Report("star-ladder", 0, cases)


# -- global ground-state maximality over stars ----------------------------------

def verify_ground_state_theorem(total: float, samples=None, *, seed: int = 0,
                                per_n: int = 25, ns=(3, 4, 5, 6)) -> Report:
    """Every star of total length L has ground state at most that of the
    equilateral 3-star (odd edge counts) or 4-star (even), same L."""
    rng = np.random.default_rng(seed)
    if samples is None:
        samples = []
        for nn in ns:
            for _ in range(per_n):
                samples.append((nn, sample_lengths(rng, nn, total)))
    ref3 = ground_state(make_star([total / 3] * 3))
    ref4 = ground_state(make_star([total / 4] * 4))
    cases = []
    for nn, ref in ((3, ref3), (4, ref4)):
        again = ground_state(make_star([total / nn] * nn))
        dev = abs(again - ref)
        cases.append(CaseResult(
            name=f"ground-state-equality-N{nn}",
            status="pass" if dev < 1e-10 else "fail", margin=dev,
            details={"lambda1": ref}))

    def run(idx, nn, ls):
        def thunk():
            g = make_star(ls)
            lam = ground_state(g)
            ref = ref3 if nn % 2 == 1 else ref4
            margin = ref - lam
            return CaseResult(
                name=f"ground-state-N{nn}-{idx:03d}",
                status=_strict(margin), margin=margin,
                details={"graph": g.to_json_dict(), "lambda1": lam,
                         "reference": ref, "reference_star": 3 if nn % 2 else 4})
        return thunk

    cases.extend(_run_cases([run(i, nn, ls)
                             for i, (nn, ls) in enumerate(samples)]))
    return Report("ground-state", seed, cases)


# -- monotonicity under attach / extend / merge ----------------------------------

def _first_k(g: MetricGraph, k: int = 6):
    """First k eigenvalues, and the CountMismatch diagnostics of their
    window: where the solver left a root uncertified the list is wrong."""
    lams, spec = first_eigenvalues(g, k)
    return list(lams), [d for d in spec.diagnostics
                        if d.startswith("CountMismatch")]


def _missed(case: CaseResult, *mismatches) -> CaseResult:
    """The case fails where a spectrum it read missed a root."""
    missed = [d for m in mismatches for d in m]
    if missed:
        case.status = "fail"
        case.details["count_mismatch"] = missed
    return case


def _compare(before, after, ks, direction) -> tuple:
    """Min margin over the checked indices; direction 'down' means after<=before."""
    margins = {}
    for k in ks:
        if direction == "down":
            margins[k] = before[k - 1] - after[k - 1]
        else:
            margins[k] = after[k - 1] - before[k - 1]
    worst = min(margins.values()) if margins else math.inf
    return worst, margins


def verify_surgery_monotonicity(cases=None, *, seed: int = 0) -> Report:
    """Eigenvalue monotonicity under pendant-edge attachment, edge extension
    (Neumann and Dirichlet tips), and vertex merging, on the first six
    eigenvalues wherever the respective hypothesis applies."""
    rng = np.random.default_rng(seed)
    if cases is None:
        cases = []
        for i in range(8):  # attach one edge at an even-degree center
            nn = int(rng.choice([4, 6]))
            cases.append(("attach-even", sample_lengths(rng, nn, 2.0 + rng.random() * 2),
                          float(rng.uniform(0.3, 1.2))))
        for i in range(7):  # attach at an odd-degree center
            nn = int(rng.choice([3, 5]))
            cases.append(("attach-odd", sample_lengths(rng, nn, 2.0 + rng.random() * 2),
                          float(rng.uniform(0.3, 1.2))))
        for i in range(10):  # attach two edges to an even star
            nn = int(rng.choice([4, 6]))
            cases.append(("attach-two", sample_lengths(rng, nn, 2.0 + rng.random() * 2),
                          (float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.3, 1.2)))))
        for i in range(15):  # extend one edge of a Neumann star
            nn = int(rng.integers(3, 7))
            ls = sample_lengths(rng, nn, 2.0 + rng.random() * 2)
            cases.append(("extend", ls, (int(rng.integers(1, nn + 1)),
                                         float(rng.uniform(0.1, 1.0)))))
        for i in range(10):  # extend one edge of a Dirichlet star
            nn = int(rng.integers(3, 7))
            ls = sample_lengths(rng, nn, 2.5 + rng.random() * 2)
            cases.append(("extend-dirichlet", ls, (int(rng.integers(1, nn + 1)),
                                                   float(rng.uniform(0.1, 1.0)))))
        for i in range(6):  # merge two degree-1 tips (odd + odd)
            nn = int(rng.integers(3, 6))
            ls = sample_lengths(rng, nn, 2.0 + rng.random() * 2)
            a, b = rng.choice(nn, size=2, replace=False)
            cases.append(("merge-odd-odd", ls, (int(a) + 1, int(b) + 1)))
        for i in range(4):  # merge a tip into the even center (odd + even)
            nn = int(rng.choice([4, 6]))
            ls = sample_lengths(rng, nn, 2.0 + rng.random() * 2)
            cases.append(("merge-mixed", ls, int(rng.integers(1, nn + 1))))

    def build(idx, kind, ls, extra):
        def thunk():
            if kind in ("attach-even", "attach-odd"):
                before = make_star(ls)
                after = apply_surgery(before, AttachEdge("v0", extra))
                (lb, mb), (la, ma) = _first_k(before), _first_k(after)
                if kind == "attach-even":
                    ks = range(1, 7)
                else:
                    ks = [k for k in range(1, 7) if lb[k - 1] >= 0.0]
                worst, margins = _compare(lb, la, ks, "down")
                status = _nonstrict(worst)
                det = {"checked_k": list(ks)}
            elif kind == "attach-two":
                before = make_star(ls)
                mid = apply_surgery(before, AttachEdge("v0", extra[0]))
                after = apply_surgery(mid, AttachEdge("v0", extra[1]))
                (lb, mb), (la, ma) = _first_k(before), _first_k(after)
                worst, margins = _compare(lb, la, range(1, 7), "down")
                status = _nonstrict(worst)
                det = {}
            elif kind in ("extend", "extend-dirichlet"):
                tip = ("dirichlet" if kind == "extend-dirichlet"
                       else "neumann")
                before = make_star(ls, tip_bc=tip)
                j, amount = extra
                after = apply_surgery(before, ExtendEdge(f"e{j}", amount))
                (lb, mb), (la, ma) = _first_k(before), _first_k(after)
                margins = {}
                uncovered = []
                if tip == "dirichlet":
                    worst, margins = _compare(lb, la, range(1, 7), "down")
                else:
                    for k in range(1, 7):
                        if la[k - 1] <= 0.0:
                            margins[k] = la[k - 1] - lb[k - 1]
                        elif lb[k - 1] >= 0.0:
                            margins[k] = lb[k - 1] - la[k - 1]
                        else:
                            uncovered.append(k)
                    worst = min(margins.values()) if margins else math.inf
                status = _nonstrict(worst)
                det = {"uncovered_k": uncovered} if tip == "neumann" else {}
                if tip == "neumann" and uncovered and not margins:
                    status = "uncovered"
            else:  # merge variants
                before = make_star(ls)
                if kind == "merge-odd-odd":
                    a, b = extra
                    after = apply_surgery(before, Merge(f"v{a}", f"v{b}"))
                    (lb, mb), (la, ma) = _first_k(before), _first_k(after)
                    worst, margins = _compare(lb, la, range(1, 7), "up")
                else:
                    after = apply_surgery(before, Merge(f"v{extra}", "v0"))
                    (lb, mb), (la, ma) = _first_k(before), _first_k(after)
                    worst, margins = _compare(lb, la, range(1, 7), "down")
                status = _nonstrict(worst)
                det = {}
            det.update({"graph_before": before.to_json_dict(),
                        "graph_after": after.to_json_dict(),
                        "lambdas_before": lb, "lambdas_after": la,
                        "margins": {str(k): v for k, v in margins.items()}})
            return _missed(CaseResult(
                name=f"{kind}-{idx:03d}", status=status,
                margin=(None if worst is math.inf else worst), details=det),
                mb, ma)
        return thunk

    thunks = [build(i, *c) for i, c in enumerate(cases)]
    return Report("surgery-monotonicity", seed, _run_cases(thunks))


# -- diameter bound for even stars ----------------------------------------------

def verify_diameter_bound(samples=None, *, seed: int = 0,
                          num_cases: int = 30) -> Report:
    """lambda_k <= (k-1)^2 pi^2 / diam^2 <= (k-1)^2 pi^2 N^2 / (4 L^2) for
    stars with an even number of edges."""
    rng = np.random.default_rng(seed)
    if samples is None:
        samples = [[1.0, 1.0, 1.0, 1.0]]
        while len(samples) < num_cases:
            nn = int(rng.choice([4, 6]))
            samples.append(sample_lengths(rng, nn, 2.0 + rng.random() * 2))

    def run(idx, ls):
        def thunk():
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
        return thunk

    thunks = [run(i, ls) for i, ls in enumerate(samples)]
    return Report("diameter-bound", seed, _run_cases(thunks))


# -- general upper bounds -------------------------------------------------------

def verify_general_bounds(samples=None, *, seed: int = 0,
                          num_cases: int = 30) -> Report:
    """For connected graphs other than paths and cycles: lambda_1 <= -1,
    lambda_2 <= 0, lambda_5 <= 16 pi^2 / L^2 (and lambda_3 <= 4 pi^2 / L^2);
    the equilateral figure-8 attains all of them."""
    rng = np.random.default_rng(seed)
    graphs = []
    if samples is not None:
        graphs = list(samples)
    else:
        graphs.append(make_figure8(0.5, 0.5))
        graphs.append(make_figure8(0.3, 0.9))
        for nn in (3, 4, 5, 6):
            graphs.append(make_star(sample_lengths(rng, nn, 2.0 + rng.random())))
        while len(graphs) < num_cases:
            graphs.append(sample_graph(rng))

    def run(idx, g):
        def thunk():
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
                margin=worst,
                details={"graph": g.to_json_dict(), "lambdas": lams,
                         "margins": checks}), missed)
        return thunk

    cases = _run_cases([run(i, g) for i, g in enumerate(graphs)])

    # sharpness: the equilateral figure-8 attains every bound
    g8 = make_figure8(0.5, 0.5)
    lams, missed = _first_k(g8, 5)
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

    def to_csv(self) -> str:
        head = (f"# family={self.family},n={self.n},limit={repr(self.limit)},"
                f"monotonicity={self.monotonicity}\n")
        lines = [head + "param,lambda1,gap_to_limit"]
        for p, lam, gap in self.rows:
            lines.append(f"{repr(float(p))},{repr(float(lam))},{repr(float(gap))}")
        return "\n".join(lines) + "\n"


def sweep_lambda1_vs_length(family: str, grid, n: int = 3) -> SweepTable:
    """Ground state along a one-parameter family of graphs.

    Families: "neumann_star" and "dirichlet_star" (parameter = edge length of
    the equilateral n-star; limit = -n(n-1)/2) and "figure8" (loops (t, 2t);
    the ground state stays at -1).
    """
    if family == "figure8":
        builder = lambda t: make_figure8(t, 2 * t)
        limit = -1.0
    elif family == "neumann_star":
        builder = lambda l: make_star([l] * n)
        limit = -n * (n - 1) / 2.0
    elif family == "dirichlet_star":
        builder = lambda l: make_star([l] * n, tip_bc="dirichlet")
        limit = -n * (n - 1) / 2.0
    else:
        raise ValueError(f"unknown family {family!r}")

    def run(p):
        def thunk():
            lam = ground_state(builder(float(p)))
            return (float(p), lam, lam - limit)
        return thunk

    rows = _run_cases([run(p) for p in grid])
    lams = [r[1] for r in rows]
    diffs = np.diff(lams)
    if np.all(np.abs(diffs) < 1e-12):
        mono = "constant"
    elif np.all(diffs > 0):
        mono = "increasing"
    elif np.all(diffs < 0):
        mono = "decreasing"
    else:
        mono = "non-monotone"
    return SweepTable(family, n, limit, rows, mono)


SUITES = {
    "transplant": lambda seed: verify_transplantation(seed=seed),
    "equilateral-max": lambda seed: verify_equilateral_max(3, 3.0, seed=seed,
                                                           num_samples=50),
    "equilateral-max-even": lambda seed: verify_equilateral_max(
        4, 4.0, seed=seed, num_samples=50),
    "star-ladder": lambda seed: verify_star_count_ladder(),
    "ground-state": lambda seed: verify_ground_state_theorem(3.0, seed=seed),
    "surgery-monotonicity": lambda seed: verify_surgery_monotonicity(seed=seed),
    "diameter-bound": lambda seed: verify_diameter_bound(seed=seed),
    "general-bounds": lambda seed: verify_general_bounds(seed=seed),
}
