"""The three workloads: seeded inputs, one op, and the check of its output.

Op i of a workload fills slot i % len(slots). The slot and i fix the
structure of the input (graph family, edge count, vertex degrees, surgery
kind, window) and base values of its lengths; the seed scales every length
by its own factor within +-JITTER. So op i of a seed is the same input
however many ops a run gets through, no two ops share an input, and the cost
of op i, which follows the number of eigenvalues in its windows, stays about
the same from seed to seed.

A check returns (ok, reason, known). `known` marks the one documented
defect the benchmark keeps visible: on cycles and some figure-8s the DtN
route reports a spurious root just above zero (lambda ~ 1e-7, usually
flagged MultiplicityUncertain) that the edge route does not have. It counts
as a failed op; any other failure also makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qgraph import cli, experiments, fem, quadform, secular, solve
from qgraph.errors import QGraphError
from qgraph.graph import (EdgeRecord, MetricGraph, make_cycle, make_figure8,
                          make_star, save_graph)

LAM_TOL = 1e-8        # relative agreement of two certified eigenvalues
RAYLEIGH_TOL = 1e-6   # relative, as in the acceptance tests
NAME_TOL = 1e-6       # relative distance of a diagnostic's lambda to its root
FEM_H = 1e-3          # mesh size of acceptance criterion 5
FEM_COUNT = 8
BASE_STREAM = 7919    # seeds input structure, apart from --seed
PLANAR_STREAM = 7907  # seeds the shapes of planar graphs, apart from --seed
JITTER = 0.1          # relative spread of a length from seed to seed


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


class Draw:
    """Inputs of op i: `base` draws structure and base values from a stream
    fixed by i; `seeded` jitters every length."""

    def __init__(self, seed: int, i: int):
        self.base = np.random.default_rng([BASE_STREAM, i])
        self.seeded = np.random.default_rng([seed, i])

    def _jitter(self, n: int):
        return self.seeded.uniform(1.0 - JITTER, 1.0 + JITTER, n)

    def length(self, lo: float, hi: float) -> float:
        return float(self.base.uniform(lo, hi) * self._jitter(1)[0])

    def lengths(self, n: int, total: float, min_frac: float = 0.1) -> list:
        """n lengths summing to `total`, each near at least min_frac*total/n."""
        floor = min_frac * total / n
        w = floor + (total - n * floor) * self.base.dirichlet(np.ones(n))
        w *= self._jitter(n)
        return [float(x) for x in w * (total / w.sum())]


def _spectrum_pairs(spec) -> list:
    return [(r.lam, r.mult) for r in spec.records]


def _diag_lams(spec, kind: str) -> list:
    pat = re.compile(kind + r"\(lambda=([^)]+)\)")
    return [float(m.group(1)) for d in spec.diagnostics
            for m in [pat.match(d)] if m]


def _near_zero(lam: float) -> bool:
    """The known DtN defect's signature: a root just outside ZERO_RADIUS."""
    return 0.0 < abs(lam) < 1e-6


def _match_levels(pairs, expected) -> str | None:
    """Compare [(lambda, mult)] with an expected list of the same shape."""
    if len(pairs) != len(expected):
        return f"{len(pairs)} levels, expected {len(expected)}: {pairs}"
    for (lam, mult), (ref, ref_mult) in zip(pairs, expected):
        if _rel(lam, ref) > LAM_TOL or mult != ref_mult:
            return f"level {lam!r} x{mult}, expected {ref!r} x{ref_mult}"
    return None


def _planar(d: Draw, i: int, j: int, total: float) -> MetricGraph:
    """A `sample_graph` planar multigraph with 5 edges: its shape is fixed by
    (i, j), its lengths come from `d`."""
    shape = experiments.sample_graph(np.random.default_rng([PLANAR_STREAM, i, j]),
                                     5, total=total)
    lengths = d.lengths(shape.num_edges, total)
    edges = [EdgeRecord(e.id, e.src, e.dst, length)
             for e, length in zip(shape.edges, lengths)]
    return MetricGraph.create(shape.vertices, edges)


class Deck:
    """Op inputs of one run: the first `size` built during set-up, any later
    ones on demand, each from its own (seed, index) stream."""

    def __init__(self, make, seed: int, size: int):
        self.make = make
        self.seed = seed
        self.prebuilt = [make(seed, i) for i in range(size)]

    def get(self, i: int, fresh: bool = False):
        if fresh or i >= len(self.prebuilt):
            return self.make(self.seed, i)
        return self.prebuilt[i]


# -- scan: one edge-route find_spectrum over a wide window --------------------------

SCAN_SLOTS = ("star3", "figure8", "star-equilateral", "cycle", "planar",
              "star5", "star3-dirichlet", "figure8-equilateral")


def scan_spec(seed: int, i: int) -> dict:
    d = Draw(seed, i)
    kind = SCAN_SLOTS[i % len(SCAN_SLOTS)]
    hi = 30.0
    if kind == "star3":
        ls = d.lengths(3, 3.0)
        g, ref = make_star(ls), ("reduced", ls, "neumann")
    elif kind == "star3-dirichlet":
        ls = d.lengths(3, 3.0)
        g = make_star(ls, tip_bc="dirichlet")
        ref = ("reduced", ls, "dirichlet")
    elif kind == "star-equilateral":
        n = (4, 6)[(i // len(SCAN_SLOTS)) % 2]
        ls = [d.length(0.5, 0.8)] * n
        g, ref = make_star(ls), ("reduced", ls, "neumann")
    elif kind == "star5":
        g, ref = make_star(d.lengths(5, 3.0)), ("bounds",)
    elif kind == "planar":
        g, ref = _planar(d, i, 0, 2.0), ("bounds",)
        hi = 40.0
    elif kind == "figure8":
        a = d.length(0.4, 0.9)
        g, ref, hi = make_figure8(a, 2.0 - a), ("figure8",), 60.0
    elif kind == "figure8-equilateral":
        loop = d.length(0.5, 0.6)
        g, ref, hi = make_figure8(loop, loop), ("figure8-equilateral", loop), 700.0
    else:  # cycle
        g, ref, hi = make_cycle(d.lengths(4, 2.0)), ("circle", 2.0), 60.0
    return {"kind": kind, "graph": g,
            "window": (solve.default_negative_floor(g), hi), "ref": ref}


def scan_op(spec):
    return solve.find_spectrum(spec["graph"], spec["window"])


def scan_check(spec, out) -> tuple:
    if out.diagnostics:
        return False, f"diagnostics {out.diagnostics}", False
    pairs = _spectrum_pairs(out)
    neg = [p for p in pairs if p[0] < 0.0]
    ref = spec["ref"]
    hi = spec["window"][1]
    err = None
    if ref[0] == "reduced":
        want = sorted(-k * k for k in secular.reduced_negative_kappas(*ref[1:]))
        got = [lam for lam, _ in neg]
        if len(got) != len(want) or any(_rel(a, b) > LAM_TOL
                                        for a, b in zip(got, want)):
            err = f"negative levels {got}, closed form {want}"
    elif ref[0] == "bounds":
        lams = out.lambdas()
        if len(lams) < 2 or lams[0] > -1.0 + LAM_TOL or lams[1] > LAM_TOL:
            err = f"lambda_1 <= -1, lambda_2 <= 0 violated: {lams[:2]}"
    elif ref[0] == "figure8":
        err = _match_levels(neg, [(-1.0, 1)])
    elif ref[0] == "figure8-equilateral":
        loop = ref[1]
        levels = [(-1.0, 1), (0.0, 1)]
        n = 1
        while (n * math.pi / loop) ** 2 <= hi:
            levels.append(((n * math.pi / loop) ** 2, 1 if n % 2 else 3))
            n += 1
        err = _match_levels(pairs, levels)
    elif ref[0] == "circle":
        levels = [(0.0, 1)]
        n = 1
        while (2 * n * math.pi / ref[1]) ** 2 <= hi:
            levels.append(((2 * n * math.pi / ref[1]) ** 2, 2))
            n += 1
        err = _match_levels(pairs, levels)
    return err is None, err, False


def scan_eigs(out) -> int:
    return out.count


# -- suites: one verify_* batch, or one CLI surgery tracking run --------------------

SUITE_SLOTS = ("transplant", "general-bounds", "surgery-monotonicity",
               "diameter-bound", "cli-surgery")
SURGERY_KINDS = ("attach-even", "attach-odd", "attach-two", "extend",
                 "extend-dirichlet", "merge-odd-odd", "merge-mixed")
CASES_PER_BATCH = 2  # at least the pool size, so _run_cases runs in parallel


def _transplant_move(d: Draw, ls):
    j, k = (int(x) for x in d.base.choice(len(ls), size=2, replace=False))
    if ls[j] > ls[k]:
        j, k = k, j
    if len(ls) % 2 == 0 and d.base.random() < 0.15:
        amount = ls[j]
    else:
        amount = float(ls[j] * d.base.uniform(0.2, 0.95))
    return j + 1, k + 1, amount


def _surgery_case(d: Draw, kind, cycle):
    if kind in ("attach-even", "attach-two", "merge-mixed"):
        n = (4, 6)[cycle % 2]
    elif kind == "attach-odd":
        n = (3, 5)[cycle % 2]
    elif kind == "merge-odd-odd":
        n = 3 + cycle % 3
    else:
        n = 3 + cycle % 4
    total = (3.5 if kind == "extend-dirichlet" else 3.0) + 1.5 * d.base.random()
    ls = d.lengths(n, total, min_frac=0.25)
    if kind in ("attach-even", "attach-odd"):
        extra = d.length(0.3, 1.2)
    elif kind == "attach-two":
        extra = (d.length(0.3, 1.2), d.length(0.3, 1.2))
    elif kind in ("extend", "extend-dirichlet"):
        extra = (int(d.base.integers(1, n + 1)), d.length(0.1, 1.0))
    elif kind == "merge-odd-odd":
        a, b = d.base.choice(n, size=2, replace=False)
        extra = (int(a) + 1, int(b) + 1)
    else:
        extra = int(d.base.integers(1, n + 1))
    return kind, ls, extra


def suites_spec_factory(workdir: str):
    """Suites inputs; CLI inputs are graph and ops files under `workdir`."""

    def make(seed: int, i: int) -> dict:
        d = Draw(seed, i)
        kind = SUITE_SLOTS[i % len(SUITE_SLOTS)]
        cycle = i // len(SUITE_SLOTS)
        if kind == "transplant":
            ls = d.lengths((3, 6, 4, 5)[cycle % 4], 2.0 + 2.0 * d.base.random(),
                           min_frac=0.25)
            return {"kind": kind, "lengths": ls,
                    "moves": [_transplant_move(d, ls)
                              for _ in range(CASES_PER_BATCH)]}
        if kind == "general-bounds":
            return {"kind": kind,
                    "graphs": [_planar(d, i, j, 3.0)
                               for j in range(CASES_PER_BATCH)]}
        if kind == "surgery-monotonicity":
            kinds = [SURGERY_KINDS[(CASES_PER_BATCH * cycle + j)
                                   % len(SURGERY_KINDS)]
                     for j in range(CASES_PER_BATCH)]
            return {"kind": kind,
                    "cases": [_surgery_case(d, k, cycle) for k in kinds]}
        if kind == "diameter-bound":
            return {"kind": kind,
                    "samples": [d.lengths(n, 3.0 + 1.5 * d.base.random(),
                                          min_frac=0.25) for n in (4, 6)]}
        ls = d.lengths(3 + cycle % 3, 3.0 + 1.5 * d.base.random(), min_frac=0.25)
        j, k, amount = _transplant_move(d, ls)
        if amount == ls[j - 1]:
            amount *= 0.5
        ops = [{"op": "transplant", "from_edge": f"e{j}", "to_edge": f"e{k}",
                "amount": amount},
               {"op": "attach", "at_vertex": "v0",
                "length": d.length(0.3, 1.0)}]
        graph_path = os.path.join(workdir, f"graph-{seed}-{i}.json")
        ops_path = os.path.join(workdir, f"ops-{seed}-{i}.json")
        save_graph(make_star(ls), graph_path)
        with open(ops_path, "w") as fh:
            json.dump(ops, fh)
        return {"kind": kind,
                "argv": ["surgery", graph_path, ops_path, "--track", "3",
                         "--json"]}

    return make


def _run_cli(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def suites_op(spec):
    kind = spec["kind"]
    if kind == "transplant":
        return experiments.verify_transplantation(
            lengths=spec["lengths"], moves=spec["moves"])
    if kind == "general-bounds":
        return experiments.verify_general_bounds(samples=spec["graphs"])
    if kind == "surgery-monotonicity":
        return experiments.verify_surgery_monotonicity(cases=spec["cases"])
    if kind == "diameter-bound":
        return experiments.verify_diameter_bound(samples=spec["samples"])
    return _run_cli(spec["argv"])


def suites_check(spec, out) -> tuple:
    if spec["kind"] == "cli-surgery":
        code, text = out
        if code != 0:
            return False, f"cli exit code {code}", False
        again = _run_cli(spec["argv"])
        if again != out:
            return False, "two identical CLI runs differ", False
        return True, None, False
    fails = [c.name for c in out.cases if c.status == "fail"]
    if fails:
        return False, f"failing cases {fails}", False
    return True, None, False


# details keys that hold eigenvalues: lambda, lambdas, lambda1,
# lambda1_before, lambdas_after, ...; not the margin names "lambda1<=-1".
_EIG_KEY = re.compile(r"lambdas?\d*(_[a-z]+)?")


def _count_lambdas(doc, under: bool = False) -> int:
    """Eigenvalues reported in a case's details: the numbers stored under a
    key that names eigenvalues, outside "margins"."""
    if isinstance(doc, dict):
        return sum(_count_lambdas(v, under or bool(_EIG_KEY.fullmatch(k)))
                   for k, v in doc.items() if k != "margins")
    if isinstance(doc, list):
        return sum(_count_lambdas(v, under) for v in doc)
    return int(under and isinstance(doc, (int, float))
               and not isinstance(doc, bool))


def suites_eigs(out) -> int:
    if isinstance(out, tuple):
        doc = json.loads(out[1])
        return sum(len(step["lambdas"]) for step in doc["steps"])
    return sum(_count_lambdas(c.details) for c in out.cases)


def suites_cases(out) -> dict:
    """Case counts by status of one suites op (none for a CLI op)."""
    return {} if isinstance(out, tuple) else dict(out.counts)


# -- crosscheck: DtN route, eigenfunctions, FEM oracle on one graph --------------

CROSS_SLOTS = ("star-unit", "figure8", "cycle")
CROSS_FLOOR = -16.0


def cross_spec(seed: int, i: int) -> dict:
    d = Draw(seed, i)
    kind = CROSS_SLOTS[i % len(CROSS_SLOTS)]
    if kind == "star-unit":  # the unit edge puts a DtN pole at pi^2
        n = 3 + (i // len(CROSS_SLOTS)) % 2
        ls = [1.0] + [d.length(0.5, 1.5) for _ in range(n - 1)]
        d.base.shuffle(ls)
        g, hi = make_star(ls), 30.0
    elif kind == "figure8":
        a = d.length(1.0, 1.4)
        g, hi = make_figure8(a, 3.0 - a), 30.0
    else:
        g, hi = make_cycle(d.lengths(4, 4.0)), 40.0
    # every window holds about FEM_COUNT eigenvalues, and -16 lies below the
    # lowest one of each family; the FEM check would show one missed below
    return {"kind": kind, "graph": g, "window": (CROSS_FLOOR, hi)}


def cross_op(spec) -> dict:
    g = spec["graph"]
    dtn = solve.find_spectrum(g, spec["window"], method="dtn")
    rayleigh = []  # (lambda, [quotients], error name or None)
    for r in dtn.records:
        try:
            funcs = solve.eigenfunction_at(g, r.lam)
        except QGraphError as exc:
            rayleigh.append((r.lam, [], type(exc).__name__))
            continue
        rayleigh.append((r.lam, [quadform.rayleigh_quotient(g, f.as_trial())
                                 for f in funcs], None))
    return {"dtn": dtn, "rayleigh": rayleigh,
            "fem": fem.oracle_eigenvalues(g, FEM_COUNT, FEM_H)}


def cross_check(spec, out) -> tuple:
    g = spec["graph"]
    lo, hi = spec["window"]
    dtn = out["dtn"]
    # the edge route over the window, widened to hold the first FEM_COUNT
    # eigenvalues: P1 FEM is conforming, so its k-th value bounds lambda_k
    # from above
    fem_tol = max(5e-2, 10.0 * FEM_H * (1.0 + abs(out["fem"][-1])))
    edge = solve.find_spectrum(g, (lo, max(hi, out["fem"][-1] + fem_tol)))
    first = edge.lambdas()[:FEM_COUNT]
    if len(first) < FEM_COUNT:
        return False, f"edge route found {len(first)} of {FEM_COUNT}", False
    edge_pairs = [p for p in _spectrum_pairs(edge) if lo <= p[0] <= hi]
    poles = _diag_lams(dtn, "DtNPole")
    uncertain = _diag_lams(dtn, "MultiplicityUncertain")

    def named(lam, lams, tol):
        return any(_rel(x, lam) <= tol for x in lams)

    errors, known = [], []
    for lam, mult in _spectrum_pairs(dtn):
        match = [m for e, m in edge_pairs if _rel(lam, e) <= LAM_TOL]
        if not match:
            msg = f"dtn root {lam!r} not on the edge route"
            if _near_zero(lam):
                known.append(msg)
            else:
                errors.append(msg)
        elif match[0] != mult and not named(lam, uncertain, NAME_TOL):
            errors.append(f"dtn multiplicity {mult} at {lam!r}, edge {match[0]}")
    for lam, mult in edge_pairs:
        on_dtn = any(_rel(d, lam) <= LAM_TOL for d, _ in _spectrum_pairs(dtn))
        if not on_dtn and not named(lam, poles, NAME_TOL):
            errors.append(f"edge root {lam!r} missing from dtn, no DtNPole")
    for (lam, quotients, err), (_, mult) in zip(out["rayleigh"],
                                                _spectrum_pairs(dtn)):
        bad = []
        if err is not None:
            bad.append(f"eigenfunction_at({lam!r}) raised {err}")
        elif len(quotients) != mult and not named(lam, uncertain, NAME_TOL):
            bad.append(f"{len(quotients)} eigenfunctions at {lam!r}, mult {mult}")
        bad += [f"Rayleigh quotient {q!r} at {lam!r}" for q in quotients
                if abs(q - lam) > RAYLEIGH_TOL * max(1.0, abs(lam))]
        (known if _near_zero(lam) else errors).extend(bad)
    for lam, f in zip(first, out["fem"]):
        tol = max(5e-2, 10.0 * FEM_H * (1.0 + abs(lam)))
        if abs(f - lam) >= tol:
            errors.append(f"FEM {f!r} vs {lam!r}, tolerance {tol!r}")
    if errors:
        return False, "; ".join(errors + known), False
    if known:
        return False, "; ".join(known), True
    return True, None, False


def cross_eigs(out) -> int:
    return out["dtn"].count


# -- registry ---------------------------------------------------------------------

def warm_up() -> None:
    """First call of every entry point the workloads use, on tiny inputs."""
    g = make_star([1.0, 0.8, 1.2])
    spec = solve.find_spectrum(g, (-4.0, 2.0))
    solve.find_spectrum(g, (-4.0, 2.0), method="dtn")
    psi = solve.eigenfunction_at(g, spec.records[0].lam)[0]
    quadform.rayleigh_quotient(g, psi.as_trial())
    fem.oracle_eigenvalues(g, 2, 0.05)


@dataclass(frozen=True)
class Workload:
    """One workload: input maker, op, check and eigenvalue count.

    Op i fills slot i % len(slots). A timed run of S seconds measures
    round(S / planned_cycle_s) whole cycles of slots, a count fixed before
    the run. A traced run
    measures `trace_cycles` cycles, so its per-layer counts repeat exactly
    for a seed.
    """

    name: str
    slots: tuple
    make: Callable
    op: Callable
    check: Callable
    eigs: Callable
    planned_cycle_s: float
    trace_cycles: int

    @property
    def trace_ops(self) -> int:
        return self.trace_cycles * len(self.slots)


def get(name: str, workdir: str) -> Workload:
    if name == "scan":
        return Workload(name, SCAN_SLOTS, scan_spec, scan_op, scan_check,
                        scan_eigs, 6.5, 2)
    if name == "suites":
        return Workload(name, SUITE_SLOTS, suites_spec_factory(workdir),
                        suites_op, suites_check, suites_eigs, 10.0, 1)
    if name == "crosscheck":
        return Workload(name, CROSS_SLOTS, cross_spec, cross_op, cross_check,
                        cross_eigs, 2.5, 3)
    raise KeyError(name)


WORKLOADS = ("scan", "suites", "crosscheck")

# Layers each workload must reach; a traced op that records no call to one of
# them means a wrapper sits on a name its callers no longer look up.
LAYERS = {
    "scan": ("kernels.scan_sigma", "kernels.build_matrix_grid",
             "kernels.edge_basis_traces", "solve.find_spectrum", "solve.grid",
             "solve.refine", "solve.svdvals", "secular.build_secular_matrix"),
    "suites": ("experiments.verify", "experiments.run_cases", "experiments.case",
               "experiments.ground_state", "solve.first_eigenvalues",
               "solve.find_spectrum", "kernels.scan_sigma",
               "surgery.apply_surgery", "cli.main"),
    "crosscheck": ("solve.find_spectrum", "solve.grid", "solve.refine",
                   "solve.svdvals", "secular.build_secular_matrix",
                   "coupling.assemble_blocks", "solve.eigenfunction_at",
                   "quadform.rayleigh_quotient", "fem.oracle_eigenvalues"),
}
