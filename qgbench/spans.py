"""Out-of-process-code tracing: wrap qgraph functions at the names their
callers look up, record one span per call, restore the originals afterwards.

A span carries name, start, end, parent, thread and op id. Spans stay in
memory until the traced phase ends. With one op in flight at a time, every
span opened while op i runs belongs to op i, including spans opened on the
experiments pool's worker threads: a span opened on a thread with no open
span of its own is parented to the `experiments._run_cases` case that runs
it, or else to the op's root span.

Self time of a span is its duration minus the part of its interval that the
union of its children's intervals covers, so children that overlap (pool
threads running in parallel) are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict | None = None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos, key, default):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _points(args, kwargs):
    return {"points": len(args[0])}


def _method(pos):
    def attrs(args, kwargs):
        return {"method": _arg(args, kwargs, pos, "method", "edge")}
    return attrs


def _grid(args, kwargs):
    return {"points": len(args[2]), "method": args[3]}


def _graph(args, kwargs):
    return {"graph": args[0]}


def _spectrum_count(result):
    return {"eigs": result.count}


# (module, attribute, span name, argument attrs, result attrs). Each entry is
# a name some caller resolves at call time; a function bound into several
# modules by `from ... import` is wrapped once per binding.
TARGETS = (
    ("qgraph.solve", "scan_sigma", "kernels.scan_sigma", _points, None),
    ("qgraph.kernels", "build_matrix_grid_numpy", "kernels.build_matrix_grid",
     _points, None),
    ("qgraph.secular", "build_matrix_grid_numpy", "kernels.build_matrix_grid",
     _points, None),
    ("qgraph.kernels", "edge_basis_traces", "kernels.edge_basis_traces",
     None, None),
    ("qgraph.solve", "find_spectrum", "solve.find_spectrum", _method(2),
     _spectrum_count),
    ("qgraph.experiments", "find_spectrum", "solve.find_spectrum", _method(2),
     _spectrum_count),
    ("qgraph.cli", "find_spectrum", "solve.find_spectrum", _method(2),
     _spectrum_count),
    ("qgraph.solve", "_sigma_grid", "solve.grid", _grid, None),
    ("qgraph.solve", "_golden_min", "solve.refine", None, None),
    ("qgraph.solve", "_svdvals", "solve.svdvals", None, None),
    ("qgraph.solve", "first_eigenvalues", "solve.first_eigenvalues", None, None),
    ("qgraph.experiments", "first_eigenvalues", "solve.first_eigenvalues",
     None, None),
    ("qgraph.cli", "first_eigenvalues", "solve.first_eigenvalues", None, None),
    ("qgraph.solve", "eigenfunction_at", "solve.eigenfunction_at", None, None),
    ("qgraph.solve", "build_secular_matrix", "secular.build_secular_matrix",
     _method(2), None),
    ("qgraph.secular", "assemble_blocks", "coupling.assemble_blocks",
     _graph, None),
    ("qgraph.experiments", "ground_state", "experiments.ground_state",
     None, None),
    ("qgraph.experiments", "verify_transplantation", "experiments.verify",
     None, None),
    ("qgraph.experiments", "verify_general_bounds", "experiments.verify",
     None, None),
    ("qgraph.experiments", "verify_surgery_monotonicity", "experiments.verify",
     None, None),
    ("qgraph.experiments", "verify_diameter_bound", "experiments.verify",
     None, None),
    ("qgraph.experiments", "apply_surgery", "surgery.apply_surgery", None, None),
    ("qgraph.cli", "apply_surgery", "surgery.apply_surgery", None, None),
    ("qgraph.cli", "main", "cli.main", None, None),
    ("qgraph.quadform", "rayleigh_quotient", "quadform.rayleigh_quotient",
     None, None),
    ("qgraph.fem", "oracle_eigenvalues", "fem.oracle_eigenvalues", None, None),
)

RUN_CASES = ("qgraph.experiments", "_run_cases")


class Tracer:
    """Installs the span wrappers on enter and restores the originals on exit."""

    def __init__(self, workers: int = 1):
        self.workers = workers  # pool size `experiments._run_cases` uses
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []
        self._op = None
        self._root = None

    # -- span bookkeeping ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, attrs=None, parent=None) -> Span:
        stack = self._stack()
        if parent is None:
            parent = stack[-1].id if stack else self._root
        span = Span(next(self._ids), name, parent, self._op,
                    threading.get_ident(), time.perf_counter(), attrs=attrs)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def call(self, name, fn, args=(), kwargs=None, *, attrs=None, parent=None,
             result_attrs=None):
        """fn(*args, **kwargs) inside a span named `name`."""
        span = self._open(name, attrs, parent)
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)
        if result_attrs is not None:
            span.attrs = {**(span.attrs or {}), **result_attrs(result)}
        return result

    def op(self, op_id: int, fn, *args):
        """Run fn(*args) as benchmark op `op_id`, under a root span 'op'."""
        self._op = op_id
        span = self._open("op")
        self._root = span.id
        try:
            return fn(*args)
        finally:
            self._close(span)
            self._root = None
            self._op = None

    # -- wrappers --------------------------------------------------------------

    def _wrapper(self, fn, name, arg_attrs, result_attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = arg_attrs(args, kwargs) if arg_attrs else None
            return self.call(name, fn, args, kwargs, attrs=attrs,
                             result_attrs=result_attrs)
        return traced

    def _run_cases_wrapper(self, fn):
        """Span around the pool call; each case thunk gets its own span,
        parented to the pool span on whichever thread runs it."""
        tracer = self

        @functools.wraps(fn)
        def traced(thunks):
            workers = max(1, min(tracer.workers, len(thunks)))
            pool = tracer._open("experiments.run_cases", {"workers": workers})

            def case(thunk):
                return lambda: tracer.call("experiments.case", thunk,
                                           parent=pool.id)
            try:
                return fn([case(t) for t in thunks])
            finally:
                tracer._close(pool)
        return traced

    def _patch(self, module_name, attr, make) -> None:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            self.missing.append(f"{module_name}.{attr}")
            return
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def __enter__(self):
        for module_name, attr, name, arg_attrs, result_attrs in TARGETS:
            self._patch(module_name, attr, lambda fn: self._wrapper(
                fn, name, arg_attrs, result_attrs))
        self._patch(*RUN_CASES, self._run_cases_wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


# -- analysis ----------------------------------------------------------------------

def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans) -> dict:
    out: dict = {}
    for s in spans:
        out.setdefault(s.parent, []).append(s)
    return out


def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    kids = children_of(spans)
    return {s.id: s.duration - _covered(s.start, s.end,
                                        [(c.start, c.end)
                                         for c in kids.get(s.id, ())])
            for s in spans}


def overlap_excess(spans) -> float:
    """Sum over spans of (children's clipped durations - their union).

    When every child lies inside its parent, as traced calls do, the sum of
    self times is the sum of root durations plus this excess: the time
    parallel children add on top of the ops' wall time.
    """
    kids = children_of(spans)
    by_id = {s.id: s for s in spans}
    total = 0.0
    for pid, cs in kids.items():
        p = by_id.get(pid)
        if p is None:
            continue
        clipped = [(max(c.start, p.start), min(c.end, p.end)) for c in cs]
        total += sum(max(0.0, b - a) for a, b in clipped)
        total -= _covered(p.start, p.end, clipped)
    return total


def self_by_name(spans) -> dict:
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + selfs[s.id]
    return out


def layer_metrics(spans) -> dict:
    """Per-layer counts and times from one traced phase's spans."""
    by_id = {s.id: s for s in spans}
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(spans)

    def named(name):
        return by_name.get(name, [])

    def parent_name(s):
        p = by_id.get(s.parent)
        return p.name if p is not None else None

    def one_point(s):
        return s.name == "kernels.scan_sigma" and s.attrs["points"] == 1

    def dur(ss):
        return sum(s.duration for s in ss)

    def ratio(a, b):
        return a / b if b else 0.0

    scans = named("kernels.scan_sigma")
    point_scans = [s for s in scans if one_point(s)]
    grid_scans = [s for s in scans if not one_point(s)]
    assembles = [s for s in named("kernels.build_matrix_grid")
                 if parent_name(s) == "kernels.scan_sigma"]
    traces = named("kernels.edge_basis_traces")
    scan_points = sum(s.attrs["points"] for s in grid_scans)

    finds = named("solve.find_spectrum")
    eigs = sum(s.attrs.get("eigs", 0) for s in finds)
    # one-point evaluations the golden-section search asks for
    refine_evals = [s for s in point_scans + named("secular.build_secular_matrix")
                    if parent_name(s) == "solve.refine"]
    # certification: the SVDs find_spectrum runs itself, per candidate
    direct = [s for s in spans if parent_name(s) == "solve.find_spectrum"]
    cert = [s for s in direct if s.name == "solve.svdvals" or one_point(s)]
    cert_time = cert + [s for s in direct
                        if s.name == "secular.build_secular_matrix"]
    grid_points = sum(s.attrs["points"] for s in named("solve.grid"))
    firsts = named("solve.first_eigenvalues")
    rescans = [s for s in finds if parent_name(s) == "solve.first_eigenvalues"]

    builds = named("secular.build_secular_matrix")
    blocks = named("coupling.assemble_blocks")
    graphs = {id(s.attrs["graph"]) for s in blocks}

    pools = named("experiments.run_cases")
    cases = named("experiments.case")
    pool_capacity = sum(s.duration * s.attrs["workers"] for s in pools)

    def calls_and_time(prefix, name):
        ss = named(name)
        return {f"{prefix}_calls": len(ss), f"{prefix}_s": dur(ss)}

    out = {
        "kernels.scan_calls": len(grid_scans),
        "kernels.scan_points": scan_points,
        "kernels.scan_grid_s": dur(grid_scans),
        "kernels.scan_point_calls": len(point_scans),
        "kernels.scan_point_s": dur(point_scans),
        "kernels.assemble_s": dur(assembles),
        "kernels.traces_calls": len(traces),
        "kernels.traces_s": dur(traces),
        "kernels.svd_s": sum(selfs[s.id] for s in scans),
        "kernels.points_per_s": ratio(scan_points, dur(grid_scans)),
        "solve.find_spectrum_calls": len(finds),
        "solve.find_spectrum_s": dur(finds),
        "solve.self_s": sum(selfs[s.id] for s in finds),
        "solve.refine_evals": len(refine_evals),
        "solve.refine_evals_per_eig": ratio(len(refine_evals), eigs),
        "solve.cert_svds": len(cert),
        "solve.cert_s": dur(cert_time),
        "solve.points_per_eig": ratio(grid_points, eigs),
        "solve.windows_per_first_eig": ratio(len(rescans), len(firsts)),
        "secular.build_calls.edge": sum(s.attrs["method"] == "edge"
                                        for s in builds),
        "secular.build_calls.dtn": sum(s.attrs["method"] == "dtn"
                                       for s in builds),
        "secular.build_s": dur(builds),
        "secular.dtn_singular": sum(s.error == "DtNSingular" for s in builds),
        "coupling.assemble_calls": len(blocks),
        "coupling.assemble_s": dur(blocks),
        "coupling.assemble_per_graph": ratio(len(blocks), len(graphs)),
        **calls_and_time("experiments.ground_state", "experiments.ground_state"),
        "experiments.pool_efficiency": ratio(dur(cases), pool_capacity),
        **calls_and_time("surgery.apply", "surgery.apply_surgery"),
        **calls_and_time("cli.main", "cli.main"),
        **calls_and_time("quadform.rayleigh", "quadform.rayleigh_quotient"),
        **calls_and_time("fem.oracle", "fem.oracle_eigenvalues"),
    }
    return out
