"""Import footprint: numpy is the package's one runtime dependency. Every
module of `src/qgraph` imports only the standard library, qgraph and the
`[project] dependencies` of pyproject.toml, and the solver, the CLI, the FEM
oracle and the reduced root finder load no scipy module. The scipy checks
run in a fresh interpreter, because the test process has scipy loaded
already (the tests' references use it)."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qgraph

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
TESTS = Path(__file__).resolve().parent
MODULES = sorted((Path(SRC) / "qgraph").glob("*.py"))


def run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


SCIPY = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


@pytest.mark.parametrize("module", ["qgraph", "qgraph.cli"])
def test_import_loads_no_scipy(module):
    assert run(f"import sys, {module}; print(*{SCIPY})") == []


def test_oracle_loads_no_scipy():
    # after both imports, one call of the FEM oracle and one of the reduced
    # root finder, the two former scipy callers
    out = run("import sys\n"
              "import qgraph, qgraph.cli\n"
              "from qgraph import (make_star, oracle_eigenvalues,\n"
              "                    reduced_negative_kappas)\n"
              "reduced_negative_kappas([1, .7, 1.3])\n"
              "oracle_eigenvalues(make_star([1.0] * 3), 2, 0.05)\n"
              f"print(*{SCIPY})")
    assert out == []


def runtime_dependencies():
    """The import names of pyproject.toml's `[project] dependencies`."""
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    return {re.match(r"[A-Za-z0-9_]+", d).group() for d in
            doc["project"]["dependencies"]}


def imported_modules(path):
    """The top-level names of the modules a file imports anywhere in it;
    a relative import is qgraph's."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add("qgraph" if node.level else node.module.split(".")[0])
    return names


def test_numpy_is_the_only_runtime_dependency():
    assert runtime_dependencies() == {"numpy"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_a_dependency(path):
    allowed = set(sys.stdlib_module_names) | {"qgraph"} | runtime_dependencies()
    assert sorted(imported_modules(path) - allowed) == []


def test_every_public_name_resolves():
    out = run("import qgraph\n"
              "missing = [n for n in qgraph.__all__ if not hasattr(qgraph, n)]\n"
              "print(len(qgraph.__all__), *missing)")
    assert int(out[0]) > 0 and out[1:] == []


def unused_imports(path, kept=()):
    """The names a module imports and never reads, less `kept`."""
    tree = ast.parse(path.read_text())
    bound = {(a.asname or a.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read - set(kept))


@pytest.mark.parametrize(
    "path", MODULES + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent.name == "qgraph" else f"tests/{p.name}")
def test_every_import_is_used(path):
    # the package's exports are read by its importers, and experiments keeps
    # find_spectrum bound for qgbench's spans, which wrap it by that name
    kept = {"__init__.py": qgraph.__all__,
            "experiments.py": ["find_spectrum"]}.get(path.name, ())
    assert unused_imports(path, kept) == []


def options(path):
    """`module.function.parameter` for every parameter with a default of
    every function in a module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [k for k, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            found |= {f"{path.stem}.{node.name}.{arg.arg}" for arg in defaulted}
    return found


def test_options_are_the_listed_ones():
    # a new option, or one that stops being one, must be listed here
    assert set().union(*map(options, MODULES)) == {
        "cli.main.argv",
        "experiments.sample_graph.num_edges",
        "experiments.sample_graph.total",
        "experiments.sweep_lambda1_vs_length.n",
        "experiments.verify_diameter_bound.samples",
        "experiments.verify_diameter_bound.seed",
        "experiments.verify_equilateral_max.samples",
        "experiments.verify_equilateral_max.seed",
        "experiments.verify_general_bounds.samples",
        "experiments.verify_general_bounds.seed",
        "experiments.verify_ground_state_theorem.seed",
        "experiments.verify_surgery_monotonicity.cases",
        "experiments.verify_surgery_monotonicity.seed",
        "experiments.verify_transplantation.lengths",
        "experiments.verify_transplantation.moves",
        "experiments.verify_transplantation.seed",
        "graph.make_path.tip_bc",
        "graph.make_star.tip_bc",
        "quadform.edge_quadrature.breaks",
        "quadform.form_value.other",
        "secular.build_secular_matrix.method",
        "secular.interval_dtn.edge_id",
        "secular.reduced_negative_kappas.tips",
        "solve._isolate.first",
        "solve._isolate.probes",
        "solve.find_spectrum.first",
        "solve.find_spectrum.method",
    }
