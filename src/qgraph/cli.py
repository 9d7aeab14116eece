"""Command-line front end.

Four subcommands: `spectrum` (eigenvalues of a graph file in a window),
`surgery` (track the bottom of the spectrum along a sequence of ops),
`verify` (run a named experiment suite and write report files) and `sweep`
(ground state along a one-parameter family, as plot-ready CSV).

Exit codes: 0 ok, 2 input error, 3 numerical diagnostic (certification
failures, suite failures, a diagnostic of any `surgery` step's window or of
any `sweep` ground state's window), 4 internal error. Identical inputs and
seed give byte-identical output; floats are printed with repr so
round-tripping is exact. Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import IllegalOp, InvalidGraph, QGraphError
from .experiments import (SUITES, SWEEP_FAMILIES, sweep_lambda1_vs_length,
                          write_report)
from .graph import MetricGraph, load_graph
from .solve import find_spectrum, first_eigenvalues
from .surgery import AttachEdge, ExtendEdge, Merge, Split, Transplant, apply_surgery

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _parse_window(text: str) -> tuple:
    lo, _, hi = text.partition(":")
    try:
        win = (float(lo), float(hi))
    except ValueError:
        raise ValueError(f"window must be LO:HI, got {text!r}")
    if not win[0] < win[1]:
        raise ValueError(f"window must satisfy LO < HI, got {text!r}")
    return win


def _parse_grid(text: str):
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ValueError(f"grid must be LO:HI:N, got {text!r}")
    if n < 2 or not lo < hi:
        raise ValueError(f"grid needs LO < HI and N >= 2, got {text!r}")
    return np.linspace(lo, hi, n)


def _load_graph_arg(path: str) -> MetricGraph:
    try:
        return load_graph(path)
    except OSError as exc:
        raise InvalidGraph(f"cannot read {path}: {exc}") from exc


# -- spectrum --------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    g = _load_graph_arg(args.graph)
    window = _parse_window(args.window)
    spec = find_spectrum(g, window, method=args.method)
    if args.format == "json":
        print(spec.to_json())
    elif args.format == "csv":
        lines = [f"# method={spec.method}",
                 f"# window={spec.window[0]!r}:{spec.window[1]!r}",
                 f"# tolerances={json.dumps(spec.tolerances, sort_keys=True)}",
                 "lambda,multiplicity"]
        lines += [f"{r.lam!r},{r.mult}" for r in spec.records]
        print("\n".join(lines))
    else:
        print(f"{len(spec.lambdas())} eigenvalue(s) in "
              f"[{window[0]!r}, {window[1]!r}] (method={spec.method})")
        for r in spec.records:
            print(f"  lambda = {r.lam!r}  (multiplicity {r.mult})")
        print(f"tolerances: {json.dumps(spec.tolerances, sort_keys=True)}")
    if spec.diagnostics:
        for d in spec.diagnostics:
            print(f"diagnostic: {d}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# -- surgery ---------------------------------------------------------------------

def _op_from_dict(doc: dict):
    """Ops-file entry -> surgery op. The `op` key selects the type."""
    if not isinstance(doc, dict):
        raise InvalidGraph(f"op entry {doc!r} is not a JSON object")
    kind = doc.get("op")
    try:
        if kind == "transplant":
            return Transplant(str(doc["from_edge"]), str(doc["to_edge"]),
                              float(doc["amount"]))
        if kind == "merge":
            return Merge(str(doc["v1"]), str(doc["v2"]))
        if kind == "split":
            as_refs = lambda grp: tuple((str(e), str(w)) for e, w in grp)
            return Split(str(doc["vertex"]), as_refs(doc["group1"]),
                         as_refs(doc["group2"]))
        if kind == "attach":
            pos = doc.get("position")
            return AttachEdge(str(doc["at_vertex"]), float(doc["length"]),
                              None if pos is None else int(pos))
        if kind == "extend":
            return ExtendEdge(str(doc["edge"]), float(doc["amount"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGraph(f"malformed op entry {doc!r}: {exc}") from exc
    raise InvalidGraph(f"unknown op kind {kind!r} "
                       "(expected transplant/merge/split/attach/extend)")


def _op_label(op) -> str:
    if isinstance(op, Transplant):
        return f"transplant {op.from_edge}->{op.to_edge} ({op.amount!r})"
    if isinstance(op, Merge):
        return f"merge {op.v1}+{op.v2}"
    if isinstance(op, Split):
        return f"split {op.vertex}"
    if isinstance(op, AttachEdge):
        return f"attach at {op.at_vertex} ({op.length!r})"
    return f"extend {op.edge} (+{op.amount!r})"


def cmd_surgery(args) -> int:
    g = _load_graph_arg(args.graph)
    try:
        doc = json.loads(Path(args.ops).read_text())
    except OSError as exc:
        raise InvalidGraph(f"cannot read {args.ops}: {exc}")
    except json.JSONDecodeError as exc:
        raise InvalidGraph(f"ops file is not valid JSON: {exc}")
    if not isinstance(doc, list):
        raise InvalidGraph("ops file must be a JSON list of op objects")
    ops = [_op_from_dict(d) for d in doc]

    k = args.track
    rows = []  # (step, label, [lambda_1..lambda_k])
    diagnostics = []  # (step, diagnostic) of each step's window
    for i, op in enumerate([None] + ops):
        if op is not None:
            g = apply_surgery(g, op)
        lams, spec = first_eigenvalues(g, k)
        rows.append((i, "input" if op is None else _op_label(op), lams))
        diagnostics += [(i, d) for d in spec.diagnostics]

    header = ["step", "op"] + [f"lambda_{j + 1}" for j in range(k)]
    if args.format == "json":
        print(json.dumps({
            "method": "edge",
            "track": k,
            "steps": [{"step": s, "op": label, "lambdas": lam}
                      for s, label, lam in rows],
        }, indent=2, sort_keys=True))
    elif args.format == "csv":
        lines = ["# method=edge", ",".join(header)]
        lines += [",".join([str(s), json.dumps(label)] + [repr(x) for x in lam])
                  for s, label, lam in rows]
        print("\n".join(lines))
    else:
        print("  ".join(header))
        for s, label, lam in rows:
            print("  ".join([str(s), label] + [repr(x) for x in lam]))
    for i, d in diagnostics:
        print(f"diagnostic: step {i}: {d}", file=sys.stderr)
    return EXIT_NUMERICAL if diagnostics else EXIT_OK


# -- verify ----------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        known = ", ".join(sorted(SUITES))
        return _fail(f"unknown suite {args.suite!r} (known: {known})", EXIT_INPUT)
    report = SUITES[args.suite](args.seed)
    path = write_report(report, args.out)
    print(f"{report.experiment}: {json.dumps(report.counts, sort_keys=True)} "
          f"-> {path}")
    if not report.passed():
        for c in report.cases:
            if c.status == "fail":
                print(f"fail: {c.name} margin={c.margin!r}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# -- sweep -----------------------------------------------------------------------

def cmd_sweep(args) -> int:
    if args.family not in SWEEP_FAMILIES:
        known = ", ".join(SWEEP_FAMILIES)
        return _fail(f"unknown family {args.family!r} (known: {known})", EXIT_INPUT)
    grid = _parse_grid(args.grid)
    table = sweep_lambda1_vs_length(args.family, grid, n=args.edges)
    text = table.to_csv()
    if args.out:
        Path(args.out).write_text(text)
        print(f"{args.family}: {len(table.rows)} rows -> {args.out}")
    else:
        print(text, end="")
    for p, d in table.diagnostics:
        print(f"diagnostic: {p!r}: {d}", file=sys.stderr)
    return EXIT_NUMERICAL if table.diagnostics else EXIT_OK


# -- entry point -------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qgraph",
        description="Spectra and surgery for metric graphs with the cyclic "
                    "non-reciprocal vertex coupling.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalues of a graph in a window")
    sp.add_argument("graph", help="graph JSON file")
    sp.add_argument("--window", required=True, metavar="LO:HI",
                    help="closed eigenvalue window, e.g. -10:0")
    sp.add_argument("--method", choices=("edge", "dtn"), default="edge")
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="format", action="store_const", const="json")
    fmt.add_argument("--csv", dest="format", action="store_const", const="csv")
    sp.set_defaults(func=cmd_spectrum, format="text")

    sg = sub.add_parser("surgery", help="track eigenvalues along a sequence of ops")
    sg.add_argument("graph", help="graph JSON file")
    sg.add_argument("ops", help="JSON list of ops, each {'op': kind, ...}")
    sg.add_argument("--track", type=int, default=3, metavar="K",
                    help="number of eigenvalues to follow (default 3)")
    fmt = sg.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="format", action="store_const", const="json")
    fmt.add_argument("--csv", dest="format", action="store_const", const="csv")
    sg.set_defaults(func=cmd_surgery, format="text")

    vf = sub.add_parser("verify", help="run an experiment suite, write reports")
    vf.add_argument("suite", help="suite name, e.g. general-bounds")
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--out", default="reports", metavar="DIR")
    vf.set_defaults(func=cmd_verify)

    sw = sub.add_parser("sweep", help="ground state along a parameter family")
    sw.add_argument("family", help="/".join(SWEEP_FAMILIES))
    sw.add_argument("--grid", required=True, metavar="LO:HI:N",
                    help="parameter grid, e.g. 0.5:4.0:15")
    sw.add_argument("--edges", type=int, default=3, metavar="N",
                    help="star edge count for the star families (default 3)")
    sw.add_argument("--out", default=None, metavar="CSV",
                    help="write CSV here instead of stdout")
    sw.set_defaults(func=cmd_sweep)
    return ap


def _glue_values(argv) -> list:
    """Join `--window -10:0` into `--window=-10:0` so argparse does not read
    the leading minus of the value as a new option."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in ("--window", "--grid"):
            val = next(it, None)
            out.append(tok if val is None else f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_glue_values(argv))
    try:
        return args.func(args)
    except (InvalidGraph, IllegalOp, ValueError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    except QGraphError as exc:
        return _fail(f"{type(exc).__name__}: {exc}", EXIT_NUMERICAL)
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(f"internal: {type(exc).__name__}: {exc}", EXIT_INTERNAL)


if __name__ == "__main__":
    raise SystemExit(main())
