"""List the lines of `src/qgraph` that a run never executes.

    python tools/reach.py [TREE]          # the benchmark's ops, then CLI runs
    python tools/reach.py --tests [TREE]  # the tier-1 tests instead

For each `src/qgraph` module it prints the executable lines (the line
numbers of the module's compiled code objects) that the run never reached,
as ranges, and a module whose every line ran is not listed. Lines are
traced with `sys.settrace` and `threading.settrace`; no coverage package is
needed.

The default run is the benchmark workloads' ops, serially as their module
runs them (`QGRAPH_THREADS` unset): `scan` and `crosscheck` ops 0-47 and
`suites` ops 0-19, at seeds 1 and 2, and then the CLI runs of
`tools/fingerprint.py`. A line it lists is on no path that the benchmark
times, so no benchmark figure can show a change there. `--tests` runs the
tier-1 tests in-process (`pytest -q --continue-on-collection-errors` in
TREE), so a line it lists is one that no test reaches.

TREE is the checkout to trace, by default the one holding this script. Its
`src/qgraph` and `qgbench` are imported. Inputs go to a temporary
directory, which is removed at the end; nothing is written into the tree,
byte code included.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
import threading
import types
from collections import defaultdict
from pathlib import Path

SEEDS = (1, 2)
OPS = {"scan": range(48), "crosscheck": range(48), "suites": range(20)}


def executable_lines(path: Path) -> set:
    """The line numbers that the compiled code objects of `path` hold."""
    todo = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(n for _, _, n in code.co_lines() if n)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


@contextlib.contextmanager
def traced(package: Path):
    """Record, per file of `package`, the lines executed in the block, on
    this thread and on every thread started in it; yields the record."""
    hits = defaultdict(set)
    prefix = str(package) + os.sep

    def on_line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        yield hits
    finally:
        sys.settrace(None)
        threading.settrace(None)


def run_workloads(tmp: Path) -> None:
    """The benchmark's ops, serially, then fingerprint.py's CLI runs."""
    from qgbench import workloads
    from fingerprint import _cli_runs

    for name, ops in OPS.items():
        wl = workloads.get(name, str(tmp))
        for seed in SEEDS:
            for i in ops:
                with contextlib.redirect_stderr(io.StringIO()):
                    wl.op(wl.make(seed, i))
    for argv in _cli_runs(tmp):
        with contextlib.redirect_stderr(io.StringIO()):
            workloads._run_cli(argv)


def run_tests(tree: Path) -> None:
    """The tier-1 tests, in-process, from the tree's root."""
    import pytest

    os.chdir(tree)
    with contextlib.redirect_stdout(sys.stderr):  # stdout holds the report
        pytest.main(["-q", "-p", "no:cacheprovider",
                     "--continue-on-collection-errors"])


def ranges(lines) -> str:
    """Sorted line numbers as comma-separated runs, 3-5 for 3, 4, 5."""
    runs = []
    for n in sorted(lines):
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", nargs="?", type=Path,
                    default=Path(__file__).resolve().parents[1])
    ap.add_argument("--tests", action="store_true",
                    help="trace the tier-1 tests instead of the workloads")
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    package = tree / "src" / "qgraph"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree), str(tree / "tools")]
    os.environ.pop("QGRAPH_THREADS", None)
    with tempfile.TemporaryDirectory() as tmp, traced(package) as hits:
        if args.tests:
            run_tests(tree)
        else:
            run_workloads(Path(tmp))
    for path in sorted(package.glob("*.py")):
        missed = executable_lines(path) - hits[str(path)]
        if missed:
            print(f"{path.name}: {ranges(missed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
