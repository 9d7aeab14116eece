"""Import footprint: the solver, the CLI and the FEM oracle load numpy
alone; scipy loads only with `secular.reduced_negative_kappas` and the
`fem.discretize` reference. Each check runs in a fresh interpreter, because
the test process has scipy loaded already."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qgraph

SRC = str(Path(__file__).resolve().parents[1] / "src")
TESTS = Path(__file__).resolve().parent


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
    # one oracle call counts on numpy alone; the dense reference still
    # builds its pencil with scipy.sparse
    out = run("import sys\n"
              "from qgraph import make_star, oracle_eigenvalues\n"
              "from qgraph.fem import discretize\n"
              "oracle_eigenvalues(make_star([1.0] * 3), 2, 0.05)\n"
              f"print(len({SCIPY}))\n"
              "discretize(make_star([1.0] * 3), 0.05)\n"
              "print('scipy.sparse' in sys.modules)")
    assert out == ["0", "True"]


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
    "path", sorted((Path(SRC) / "qgraph").glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent.name == "qgraph" else f"tests/{p.name}")
def test_every_import_is_used(path):
    # the package's exports are read by its importers, and experiments keeps
    # find_spectrum bound for qgbench's spans, which wrap it by that name
    kept = {"__init__.py": qgraph.__all__,
            "experiments.py": ["find_spectrum"]}.get(path.name, ())
    assert unused_imports(path, kept) == []
