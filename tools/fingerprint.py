"""Fingerprint a checkout's outputs, to show that a change keeps every byte.

    python tools/fingerprint.py [TREE]          # per output: records, SHA-256
    python tools/fingerprint.py --lines [TREE]  # code lines of src/qgraph
    python tools/fingerprint.py --calls [TREE]  # count, sigma, solve calls

TREE is the checkout to measure, by default the one holding this script. Its
`src/qgraph` and `qgbench` are imported, so running the same script against
two checkouts and comparing the printed lines tells whether a change moved
any output, and which. The lines:

- scan: the repr of every `scan` op output of seeds 1-3, ops 0-47;
- crosscheck: every `crosscheck` op output of the same seeds and ops, the
  DtN spectrum's repr, each Rayleigh quotient's `float.hex` and the FEM
  values' bytes;
- eigenfunctions: for every DtN eigenvalue of those ops, each
  eigenfunction's `coeffs.tobytes()` and its Rayleigh quotient's `float.hex`;
- one line per suite, named by the suite: the `to_json()` of its reports
  at seeds 0 and 1;
- one line per CLI run, named by its arguments: its stdout and exit code;
  the report path line of `verify` is dropped, as it names a temporary
  directory;
- scan, crosscheck and eigenfunctions once more, marked "reversed": after
  qgbench's `reset_caches()`, the same ops are solved from the last to the
  first, and their outputs hashed in op order. A plan that is cached and
  shared (by graph shape, say) and that kept anything of the graph it was
  first built for makes these lines differ from the ones above.

Inputs and reports go to a temporary directory, which is removed at the end;
nothing is written into the tree, byte code included.

`--lines` prints each `src/qgraph` module's code lines: lines holding a
`tokenize` token other than a comment or a line break, less the lines of
docstrings found by `ast`.

`--calls` prints, for each benchmark op, the calls and points of the exact
eigenvalue counts (`secular._count_parts`, which `count_below` and
isolation both call; `count_below` itself in a checkout without it), of
the sigma scans (`kernels.scan_sigma`) and the `solve.find_spectrum` calls,
which show how many windows a path solves, then each workload's means per
op.
It runs `scan` and `crosscheck` ops 0-47 and `suites` ops 0-19, of seeds
1-3, serially, each workload's inputs built before its counting starts.
Counts repeat exactly, so two checkouts' lines compare call for call.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import sys
import tempfile
import tokenize
from pathlib import Path

SEEDS = (1, 2, 3)
OPS = range(48)
CALL_OPS = {"scan": OPS, "crosscheck": OPS, "suites": range(20)}
SUITE_SEEDS = (0, 1)
SKIP_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
               tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Lines of `path` that hold code: not blank, comment or docstring."""
    text = path.read_text()
    lines = {n for tok in tokenize.generate_tokens(io.StringIO(text).readline)
             if tok.type not in SKIP_TOKENS
             for n in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def print_lines(tree: Path) -> None:
    total = 0
    for path in sorted((tree / "src" / "qgraph").glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.stem:12s} {n:5d}")
    print(f"{'total':12s} {total:5d}")


class Family:
    """One SHA-256 over a stream of records, each a tuple of byte strings."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.records = 0

    def add(self, *parts) -> None:
        self.records += 1
        for p in parts:
            b = p if isinstance(p, bytes) else str(p).encode()
            self._h.update(len(b).to_bytes(8, "little") + b)

    def __str__(self) -> str:
        return f"{self.records:6d} {self._h.hexdigest()}"


def _cli_runs(tmp: Path) -> list:
    """Argument lists of the CLI family, over graph and ops files in tmp."""
    from qgraph.graph import make_figure8, make_star, save_graph

    star, fig8 = tmp / "star.json", tmp / "fig8.json"
    save_graph(make_star([1.0, 0.7, 1.3]), star)
    save_graph(make_figure8(0.8, 1.2), fig8)
    ops = tmp / "ops.json"
    ops.write_text('[{"op": "transplant", "from_edge": "e2", "to_edge": "e3",'
                   ' "amount": 0.2}, {"op": "attach", "at_vertex": "v0",'
                   ' "length": 0.5}]')
    out = str(tmp / "reports")
    return [
        ["spectrum", str(star), "--window", "-8:30"],
        ["spectrum", str(star), "--window", "-8:30", "--json"],
        ["spectrum", str(star), "--window", "-8:30", "--csv"],
        ["spectrum", str(star), "--window", "-8:30", "--method", "dtn"],
        ["spectrum", str(fig8), "--window", "-4:60"],
        ["surgery", str(star), str(ops), "--track", "3"],
        ["surgery", str(star), str(ops), "--track", "3", "--json"],
        ["verify", "star-ladder", "--out", out],
        ["verify", "diameter-bound", "--seed", "1", "--out", out],
        ["verify", "no-such-suite", "--out", out],
        ["sweep", "figure8", "--grid", "0.5:1.5:5"],
        ["sweep", "neumann_star", "--grid", "0.5:1.5:4", "--edges", "4"],
        ["sweep", "neumann_star", "--grid", "0.5:1.5:4", "--edges", "5"],
        ["sweep", "dirichlet_star", "--grid", "0.5:1.5:4", "--edges", "4"],
        ["sweep", "no-such-family", "--grid", "0.5:1.5:3"],
    ]


def _op_records(seed: int, i: int) -> dict:
    """The records of scan op i and crosscheck op i of seed, by family."""
    from qgbench import workloads
    from qgraph import quadform, solve
    from qgraph.errors import QGraphError

    out = {"scan": [(repr(workloads.scan_op(workloads.scan_spec(seed, i))),)],
           "crosscheck": [], "eigenfunctions": []}
    spec = workloads.cross_spec(seed, i)
    cross = workloads.cross_op(spec)
    out["crosscheck"].append((repr(cross["dtn"]), cross["fem"].tobytes()))
    for lam, quotients, err in cross["rayleigh"]:
        out["crosscheck"].append((lam.hex(), err,
                                  *(q.hex() for q in quotients)))
    for r in cross["dtn"].records:
        try:
            funcs = solve.eigenfunction_at(spec["graph"], r.lam)
        except QGraphError as exc:
            out["eigenfunctions"].append((r.lam.hex(), type(exc).__name__))
            continue
        for f in funcs:
            q = quadform.rayleigh_quotient(spec["graph"], f.as_trial())
            out["eigenfunctions"].append((r.lam.hex(), f.coeffs.tobytes(),
                                          q.hex()))
    return out


def fingerprint() -> dict:
    from qgbench import run, workloads
    from qgraph.experiments import SUITES

    ops_families = ("scan", "crosscheck", "eigenfunctions")
    fam = {name: Family() for name in ops_families}
    ops = [(seed, i) for seed in SEEDS for i in OPS]
    for op in ops:
        for name, records in _op_records(*op).items():
            for parts in records:
                fam[name].add(*parts)
    for name in sorted(SUITES):
        fam[name] = family = Family()
        for seed in SUITE_SEEDS:
            family.add(name, seed, SUITES[name](seed).to_json())
    with tempfile.TemporaryDirectory() as tmp:
        for argv in _cli_runs(Path(tmp)):
            with contextlib.redirect_stderr(io.StringIO()):
                code, text = workloads._run_cli(argv)
            kept = [ln for ln in text.splitlines() if tmp not in ln]
            run_name = " ".join(argv).replace(tmp, "TMP")
            fam[run_name] = family = Family()
            family.add(run_name, code, "\n".join(kept))
    run.reset_caches()
    solved = {op: _op_records(*op) for op in reversed(ops)}
    for name in ops_families:
        fam[f"{name} reversed"] = family = Family()
        for op in ops:
            for parts in solved[op][name]:
                family.add(*parts)
    return fam


def calls() -> list:
    """(workload, seed, op, count calls, count points, sigma calls, sigma
    points, find_spectrum calls) for every op of CALL_OPS and SEEDS."""
    import numpy as np

    from qgbench import workloads
    from qgraph import cli, experiments, secular, solve

    tally = [0, 0, 0, 0, 0]

    def watched(fn, at, lams_arg):
        def counted(*args, **kwargs):
            tally[at] += 1
            if lams_arg is not None:
                tally[at + 1] += np.size(args[lams_arg])
            return fn(*args, **kwargs)
        return counted

    count = "_count_parts" if hasattr(secular, "_count_parts") else "count_below"
    for module, name, at, lams_arg in ((secular, count, 0, 1),
                                       (solve, count, 0, 1),
                                       (solve, "scan_sigma", 2, 0)):
        setattr(module, name, watched(getattr(module, name), at, lams_arg))
    # every module that imported find_spectrum by name calls its own binding
    solver = solve.find_spectrum
    for module in (solve, cli, experiments):
        if getattr(module, "find_spectrum", None) is solver:
            module.find_spectrum = watched(solver, 4, None)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, ops in CALL_OPS.items():
            work = workloads.get(name, tmp)
            specs = [(seed, i, work.make(seed, i)) for seed in SEEDS
                     for i in ops]
            for seed, i, spec in specs:
                tally[:] = [0, 0, 0, 0, 0]
                work.op(spec)
                rows.append((name, seed, i, *tally))
    return rows


def print_calls(rows) -> None:
    widths = (6, 7, 6, 7, 6)
    print(f"{'workload':10s} {'seed':>4s} {'op':>3s} {'count':>6s} "
          f"{'points':>7s} {'sigma':>6s} {'points':>7s} {'solves':>6s}")
    for name, seed, i, *tally in rows:
        print(f"{name:10s} {seed:4d} {i:3d} " + " ".join(
            f"{t:{w}d}" for t, w in zip(tally, widths)))
    for name in CALL_OPS:
        per = [r[3:] for r in rows if r[0] == name]
        means = [sum(col) / len(per) for col in zip(*per)]
        print(f"{name:10s} mean per op of {len(per)}: " + " ".join(
            f"{m:{w}.2f}" for m, w in zip(means, widths)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", nargs="?", type=Path,
                    default=Path(__file__).resolve().parents[1])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--lines", action="store_true",
                      help="print code lines per src/qgraph module instead")
    mode.add_argument("--calls", action="store_true",
                      help="print count, sigma and find_spectrum calls per "
                           "benchmark op instead")
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    if args.lines:
        print_lines(tree)
        return 0
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree)]
    if args.calls:
        print_calls(calls())
        return 0
    lines = fingerprint()
    width = max(map(len, lines))
    for name, family in lines.items():
        print(f"{name:{width}s} {family}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
