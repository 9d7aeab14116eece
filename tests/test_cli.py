"""CLI: subcommands, exit codes, byte-deterministic output."""

import json
import math
import os
import runpy
import sys
import warnings

import pytest

from qgraph.cli import main
from qgraph.graph import make_figure8, make_path, make_star, save_graph
from qgraph.solve import default_negative_floor


@pytest.fixture
def star_file(tmp_path):
    p = tmp_path / "star.json"
    save_graph(make_star([1.0, 1.0, 1.0]), p)
    return str(p)


@pytest.fixture
def generic_star_file(tmp_path):
    p = tmp_path / "star2.json"
    save_graph(make_star([1.0, 0.7, 1.3]), p)
    return str(p)


@pytest.fixture
def fig8_file(tmp_path):
    p = tmp_path / "fig8.json"
    save_graph(make_figure8(0.7, 1.3), p)
    return str(p)


class TestSpectrum:
    def test_text_output(self, star_file, capsys):
        assert main(["spectrum", star_file, "--window", "-10:0"]) == 0
        out = capsys.readouterr().out
        assert "2 eigenvalue(s)" in out
        assert "-3.32905861" in out

    def test_json_output(self, star_file, capsys):
        assert main(["spectrum", star_file, "--window=-10:10", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "edge"
        assert len(doc["eigenvalues"]) == 5
        assert doc["eigenvalues"][0]["lambda"] == pytest.approx(
            -3.3290586132660844, abs=1e-8)

    def test_csv_byte_determinism(self, star_file, capsys):
        argv = ["spectrum", star_file, "--window", "-10:10", "--csv"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = first.strip().split("\n")
        assert lines[0] == "# method=edge"
        assert lines[3] == "lambda,multiplicity"
        # repr floats round-trip exactly
        lam = float(lines[4].split(",")[0])
        assert lam == pytest.approx(-3.3290586132660844, abs=1e-8)

    def test_dtn_method(self, star_file, capsys):
        assert main(["spectrum", star_file, "--window", "-10:9",
                     "--method", "dtn", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["eigenvalues"]) == 4

    def test_dtn_pole_diagnostic_exits_3(self, generic_star_file, capsys):
        # pi^2 is both an eigenvalue and the unit edge's Dirichlet
        # eigenvalue, where the DtN route's split edges have no pole: the
        # root is printed and nothing is diagnosed
        code = main(["spectrum", generic_star_file, "--window", "8:12",
                     "--method", "dtn"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0] == "1 eigenvalue(s) in [8.0, 12.0] (method=dtn)"
        lam, mult = lines[1].split("=")[1].split("(multiplicity")
        assert float(lam) == pytest.approx(math.pi ** 2, rel=1e-12)
        assert mult == " 1)"

    def test_diagnostic_exits_3(self, generic_star_file, capsys):
        # the window ends on pi^2, a root and the unit edge's Dirichlet
        # eigenvalue, where the upper count probe is untrusted: the root is
        # printed and the diagnostic goes to stderr
        code = main(["spectrum", generic_star_file, "--window",
                     f"8:{math.pi ** 2!r}"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out.splitlines()[1] == (f"  lambda = {math.pi ** 2!r}  "
                                       "(multiplicity 1)")
        assert err == "diagnostic: CountUntrusted(lo=8, hi=9.86960440109)\n"

    def test_bad_window_exits_2(self, star_file, capsys):
        assert main(["spectrum", star_file, "--window", "abc"]) == 2
        assert "window" in capsys.readouterr().err
        assert main(["spectrum", star_file, "--window", "5:1"]) == 2

    @pytest.mark.parametrize("window, named", [("-inf:0", "(-inf, 0.0)"),
                                               ("0:inf", "(0.0, inf)")])
    def test_non_finite_window_exits_2(self, star_file, capsys, window, named):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["spectrum", star_file, "--window", window]) == 2
        assert f"window {named} is not finite" in capsys.readouterr().err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_window_too_wide_exits_2(self, star_file, capsys):
        # refused at once by the bound on the count it would hold
        assert main(["spectrum", star_file, "--window", "0:1e300"]) == 2
        assert "window (0.0, 1e+300) may hold" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["spectrum", str(tmp_path / "nope.json"),
                     "--window", "-1:1"]) == 2

    def test_malformed_graph_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"vertices": [], "edges": "nope"}')
        assert main(["spectrum", str(p), "--window", "-1:1"]) == 2

    def test_infinite_edge_exits_2(self, tmp_path, capsys):
        # json reads "Infinity" as a float; the graph is refused before any
        # count, where it reported an eigenvalue with pos_step 0.0
        p = tmp_path / "inf.json"
        save_graph(make_star([1.0, 1.0, 1.0]), p)
        p.write_text(p.read_text().replace('"length": 1.0', '"length": Infinity', 1))
        assert main(["spectrum", str(p), "--window", "-5:-1"]) == 2
        assert "length inf must be finite and > 0" in capsys.readouterr().err

    def test_neumann_joint_exits_2(self, tmp_path, capsys):
        # a path a-b-c with b Neumann: refused as input, not met in assembly
        p = tmp_path / "joint.json"
        save_graph(make_path([1.0, 1.0]), p)
        doc = json.loads(p.read_text())
        for v in doc["vertices"]:
            if len(v["order"]) == 2:
                v["bc"] = "neumann"
        p.write_text(json.dumps(doc))
        assert main(["spectrum", str(p), "--window", "-1:1"]) == 2
        assert "neumann condition only defined at degree 1" in \
            capsys.readouterr().err

    def test_numerical_error_exits_3(self, tmp_path, capsys):
        # a 1e-10 edge needs a finer count grid than the negative window
        # allows: WindowTooCoarse, a QGraphError that is no input error
        p = tmp_path / "short.json"
        g = make_star([1.0, 0.7, 1e-10])
        save_graph(g, p)
        window = f"{default_negative_floor(g)!r}:-1e-8"
        assert main(["spectrum", str(p), "--window", window]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: WindowTooCoarse: ")

    def test_internal_error_exits_4(self, star_file, monkeypatch, capsys):
        import qgraph.cli as cli_mod

        def boom(*a, **kw):
            raise RuntimeError("synthetic")

        monkeypatch.setattr(cli_mod, "find_spectrum", boom)
        assert main(["spectrum", star_file, "--window", "-1:1"]) == 4
        assert "internal" in capsys.readouterr().err


class TestSurgery:
    def write_ops(self, tmp_path, ops):
        p = tmp_path / "ops.json"
        p.write_text(json.dumps(ops))
        return str(p)

    def test_transplant_then_extend(self, generic_star_file, tmp_path, capsys):
        ops = self.write_ops(tmp_path, [
            {"op": "transplant", "from_edge": "e2", "to_edge": "e3",
             "amount": 0.2},
            {"op": "extend", "edge": "e1", "amount": 0.5},
        ])
        assert main(["surgery", generic_star_file, ops, "--track", "2",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["track"] == 2
        assert len(doc["steps"]) == 3
        lam1 = [s["lambdas"][0] for s in doc["steps"]]
        # transplanting toward the longer edge strictly lowers the ground
        # state; the extension step has no fixed direction here
        assert lam1[1] < lam1[0]
        assert all(len(s["lambdas"]) == 2 for s in doc["steps"])

    def test_attach_op(self, star_file, tmp_path, capsys):
        ops = self.write_ops(tmp_path, [
            {"op": "attach", "at_vertex": "v0", "length": 0.8},
        ])
        assert main(["surgery", star_file, ops, "--track", "1"]) == 0
        out = capsys.readouterr().out
        assert "attach at v0" in out

    def test_merge_then_split(self, generic_star_file, tmp_path, capsys):
        # merging two tips closes a cycle; splitting the merged vertex
        # gives the star back, its new degree-1 vertices Neumann
        ops = self.write_ops(tmp_path, [
            {"op": "merge", "v1": "v1", "v2": "v2"},
            {"op": "split", "vertex": "(v1+v2)", "group1": [["e1", "end"]],
             "group2": [["e2", "end"]]},
        ])
        with pytest.warns(UserWarning, match="reduces to Neumann"):
            code = main(["surgery", generic_star_file, ops, "--track", "1"])
        assert code == 0
        rows = [line.split("  ")
                for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[1] for row in rows] == ["input", "merge v1+v2",
                                            "split (v1+v2)"]
        lam1 = [float(row[2]) for row in rows]
        assert lam1[1] != pytest.approx(lam1[0], rel=1e-3)
        assert lam1[2] == pytest.approx(lam1[0], rel=1e-12)

    def test_csv_determinism(self, star_file, tmp_path, capsys):
        ops = self.write_ops(tmp_path, [
            {"op": "extend", "edge": "e1", "amount": 0.3},
        ])
        argv = ["surgery", star_file, ops, "--csv"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert first == capsys.readouterr().out
        assert first.startswith("# method=edge\nstep,op,lambda_1")

    def test_floor_beyond_the_float_range_exits_3(self, tmp_path, capsys):
        # a 1e-200 edge puts the ground state below every float: the
        # negative floor refuses with WindowTooCoarse, no OverflowError
        p = tmp_path / "short.json"
        save_graph(make_star([1e-200, 1.0, 1.0]), p)
        ops = self.write_ops(tmp_path, [
            {"op": "attach", "at_vertex": "v0", "length": 0.5},
        ])
        assert main(["surgery", str(p), ops, "--track", "1"]) == 3
        assert capsys.readouterr().err.startswith(
            "error: WindowTooCoarse: the eigenvalue count below the floor ")

    def test_step_diagnostic_exits_3(self, tmp_path, capsys):
        # a 1e-7 pendant edge drives lambda_1 to about -7.4e4, where the
        # step's window misses roots its trusted count holds
        p = tmp_path / "star.json"
        save_graph(make_star([1.0, 0.7]), p)
        ops = self.write_ops(tmp_path, [
            {"op": "attach", "at_vertex": "v0", "length": 1e-7},
        ])
        assert main(["surgery", str(p), ops, "--track", "3"]) == 3
        out, err = capsys.readouterr()
        assert out.splitlines()[2].startswith("1  attach at v0 (1e-07)  -73681.")
        assert "diagnostic: step 1: CountMismatch(" in err
        assert "diagnostic: step 0" not in err

    @pytest.mark.parametrize("track", ["0", "-2"])
    def test_track_below_one_exits_2(self, generic_star_file, tmp_path,
                                     capsys, track):
        ops = self.write_ops(tmp_path, [
            {"op": "extend", "edge": "e1", "amount": 0.3},
        ])
        assert main(["surgery", generic_star_file, ops, "--track", track]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: k must be >= 1, got {track}\n"

    def test_unknown_op_exits_2(self, star_file, tmp_path, capsys):
        ops = self.write_ops(tmp_path, [{"op": "teleport"}])
        assert main(["surgery", star_file, ops]) == 2
        assert "unknown op" in capsys.readouterr().err

    def test_malformed_op_entry_exits_2(self, star_file, tmp_path, capsys):
        ops = self.write_ops(tmp_path, [{"op": "extend", "edge": "e1"}])
        assert main(["surgery", star_file, ops]) == 2

    @pytest.mark.parametrize("entry", ["transplant", 1, None],
                             ids=["string", "number", "null"])
    def test_non_object_op_entry_exits_2(self, star_file, tmp_path, capsys,
                                         entry):
        ops = self.write_ops(tmp_path, [entry])
        assert main(["surgery", star_file, ops]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: op entry {entry!r} is not a JSON object\n"

    def test_non_list_ops_exits_2(self, star_file, tmp_path, capsys):
        p = tmp_path / "ops.json"
        p.write_text('{"op": "extend"}')
        assert main(["surgery", star_file, str(p)]) == 2

    @pytest.mark.parametrize("text, error", [
        (None, "error: cannot read "),
        ("[{", "error: ops file is not valid JSON: "),
    ], ids=["missing", "not-json"])
    def test_unreadable_ops_exits_2(self, star_file, tmp_path, capsys, text,
                                    error):
        p = tmp_path / "ops.json"
        if text is not None:
            p.write_text(text)
        assert main(["surgery", star_file, str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(error)

    def test_illegal_op_exits_2(self, star_file, tmp_path, capsys):
        # transplanting more than the edge holds
        ops = self.write_ops(tmp_path, [
            {"op": "transplant", "from_edge": "e1", "to_edge": "e2",
             "amount": 5.0},
        ])
        assert main(["surgery", star_file, ops]) == 2


class TestVerify:
    def test_star_ladder_report(self, tmp_path, capsys):
        out_dir = str(tmp_path / "reports")
        assert main(["verify", "star-ladder", "--out", out_dir]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("star-ladder:")
        path = stdout.rsplit("-> ", 1)[1].strip()
        doc = json.loads(open(path).read())
        assert doc["summary"] == {"pass": len(doc["cases"])}
        assert os.path.exists(path[:-5] + ".csv")

    def test_report_content_deterministic(self, tmp_path, capsys):
        # filenames carry a timestamp, but the JSON content must match
        docs = []
        for sub in ("a", "b"):
            out_dir = str(tmp_path / sub)
            assert main(["verify", "star-ladder", "--out", out_dir]) == 0
            path = capsys.readouterr().out.rsplit("-> ", 1)[1].strip()
            docs.append(open(path).read())
        assert docs[0] == docs[1]

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["verify", "does-not-exist"]) == 2
        err = capsys.readouterr().err
        assert "unknown suite" in err and "star-ladder" in err

    def test_failing_suite_exits_3(self, tmp_path, monkeypatch, capsys):
        import qgraph.cli as cli_mod
        from qgraph.experiments import CaseResult, Report

        fake = dict(cli_mod.SUITES)
        fake["broken"] = lambda seed: Report(
            "broken", seed, [CaseResult("x", "fail", -1.0)])
        monkeypatch.setattr(cli_mod, "SUITES", fake)
        code = main(["verify", "broken", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "fail: x" in captured.err


class TestSweep:
    def test_stdout_csv(self, capsys):
        assert main(["sweep", "figure8", "--grid", "0.5:1.5:3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# family=figure8")
        rows = out.strip().split("\n")[2:]
        assert len(rows) == 3
        for row in rows:
            assert float(row.split(",")[1]) == pytest.approx(-1.0, abs=1e-9)

    def test_out_file_determinism(self, tmp_path, capsys):
        texts = []
        for name in ("s1.csv", "s2.csv"):
            out = str(tmp_path / name)
            assert main(["sweep", "neumann_star", "--grid", "0.5:2.0:4",
                         "--edges", "3", "--out", out]) == 0
            capsys.readouterr()
            texts.append(open(out).read())
        assert texts[0] == texts[1]
        assert texts[0].startswith("# family=neumann_star,n=3,limit=-3.0")

    def test_five_star_limit(self, capsys):
        # the equilateral 5-star's ground state tends to -cot^2(pi / 10)
        assert main(["sweep", "neumann_star", "--grid", "1:20:3",
                     "--edges", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        limit = float(lines[0].split("limit=")[1].split(",")[0])
        assert limit == pytest.approx(-9.472135954999, abs=1e-12)
        assert abs(float(lines[-1].split(",")[2])) < 1e-9

    @pytest.mark.parametrize("family,edges,mono", [
        ("neumann_star", "5", "increasing"),
        ("dirichlet_star", "7", "decreasing")])
    def test_sweep_reaching_its_limit_keeps_its_trend(self, family, edges,
                                                       mono, capsys):
        # the ground states at 10.5 and 20 are the same float, the limit: a
        # tie, which breaks no trend
        assert main(["sweep", family, "--grid", "1:20:3",
                     "--edges", edges]) == 0
        lines = capsys.readouterr().out.splitlines()
        lams = [float(row.split(",")[1]) for row in lines[2:]]
        assert lams[1] == lams[2] != lams[0]
        assert f"monotonicity={mono}" in lines[0]

    def test_untrusted_ground_state_exits_3(self, capsys):
        # loops of 1e-7 and 2e-7: the ground state's window counts fewer
        # eigenvalues than it certified, and the values read off it are wrong
        # (the family's ground state is -1). The CSV is still printed; each
        # row's diagnostic goes to stderr
        assert main(["sweep", "figure8", "--grid", "1e-7:2e-7:2"]) == 3
        out, err = capsys.readouterr()
        assert out.splitlines()[2:] == [
            "1e-07,-1.3314446998540321,-0.33144469985403213",
            "2e-07,-1.1656757003676708,-0.16567570036767076"]
        assert err.splitlines() == [
            "diagnostic: 1e-07: CountMismatch(lo=-64, hi=1.57513684483, "
            "certified=739, count=2)",
            "diagnostic: 2e-07: CountMismatch(lo=-64, hi=-0.595327566205, "
            "certified=172, count=1)"]

    def test_unknown_family_exits_2(self, capsys):
        assert main(["sweep", "moebius", "--grid", "1:2:3"]) == 2

    def test_bad_grid_exits_2(self, capsys):
        assert main(["sweep", "figure8", "--grid", "1:2"]) == 2
        assert main(["sweep", "figure8", "--grid", "2:1:5"]) == 2

    @pytest.mark.parametrize("grid", ["0.5:4:15.0", "0.5:x:15", "1:2:3:4"])
    def test_unparsable_grid_names_the_form(self, capsys, grid):
        assert main(["sweep", "figure8", "--grid", grid]) == 2
        assert capsys.readouterr().err == (
            f"error: grid must be LO:HI:N, got {grid!r}\n")


class TestEntryPoints:
    def test_module_runs_as_a_script(self, star_file, monkeypatch, capsys):
        # `python -m qgraph.cli` runs the module as __main__ by runpy, and
        # its main() reads sys.argv; run here in-process from a fresh copy
        # of the module, which runpy requires not to be imported already
        argv = ["spectrum", star_file, "--window", "-10:0"]
        assert main(argv) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["qgraph", *argv])
        monkeypatch.delitem(sys.modules, "qgraph.cli")
        with pytest.raises(SystemExit) as done:
            runpy.run_module("qgraph.cli", run_name="__main__")
        assert done.value.code == 0
        assert capsys.readouterr().out == want
