"""Experiment harness: sampling, reports, suites, sweeps."""

import json
import os

import numpy as np
import pytest

import qgraph.experiments as experiments_mod
from qgraph.experiments import (
    SUITES,
    CaseResult,
    Report,
    SweepTable,
    ground_state,
    sample_graph,
    sample_lengths,
    sweep_lambda1_vs_length,
    verify_diameter_bound,
    verify_equilateral_max,
    verify_star_count_ladder,
    verify_transplantation,
    write_report,
)
from qgraph.graph import rotation_genus


class TestSampling:
    def test_lengths_sum_and_floor(self, rng):
        for n in (3, 5, 8):
            ls = sample_lengths(rng, n, 4.0)
            assert sum(ls) == pytest.approx(4.0, rel=1e-12)
            assert min(ls) >= 0.05 * 4.0 - 1e-12

    def test_lengths_min_frac_validation(self, rng):
        with pytest.raises(ValueError):
            sample_lengths(rng, 25, 1.0, min_frac=0.05)

    def test_graph_is_connected_planar(self, rng):
        for _ in range(10):
            g = sample_graph(rng, num_edges=5)
            assert g.is_connected()
            assert rotation_genus(g) == 0
            assert g.num_edges == 5

    def test_graph_total_length(self, rng):
        g = sample_graph(rng, num_edges=4, total=2.5)
        assert g.total_length == pytest.approx(2.5, rel=1e-12)

    def test_graph_deterministic(self):
        a = sample_graph(np.random.default_rng(3), num_edges=6)
        b = sample_graph(np.random.default_rng(3), num_edges=6)
        assert a.to_json() == b.to_json()


class TestReport:
    def make(self):
        return Report("demo", 0, [
            CaseResult("a", "pass", 0.5),
            CaseResult("b", "fail", -0.2),
            CaseResult("c", "inconclusive", 0.0),
            CaseResult("d", "uncovered"),
            CaseResult("e", "pass", 0.1),
        ])

    def test_counts(self):
        rep = self.make()
        assert rep.counts == {"pass": 2, "fail": 1, "inconclusive": 1,
                              "uncovered": 1}
        assert rep.num_failures == 1
        assert not rep.passed()

    def test_uncovered_is_not_failure(self):
        rep = Report("demo", 0, [CaseResult("x", "uncovered"),
                                 CaseResult("y", "inconclusive", 0.0)])
        assert rep.passed()

    def test_csv_shape(self):
        lines = self.make().to_csv().strip().split("\n")
        assert lines[0] == "name,status,margin"
        assert lines[1] == "a,pass,0.5"
        assert lines[4] == "d,uncovered,"

    def test_json_round_trip(self):
        d = json.loads(self.make().to_json())
        assert d["experiment"] == "demo"
        assert d["summary"]["pass"] == 2
        assert len(d["cases"]) == 5


class TestWriteReport:
    def test_files_created(self, tmp_path):
        rep = Report("demo", 7, [CaseResult("a", "pass", 1.0)])
        path = write_report(rep, str(tmp_path))
        assert os.path.exists(path)
        assert path.endswith(".json")
        assert os.path.exists(path[:-5] + ".csv")
        loaded = json.loads(open(path).read())
        assert loaded["seed"] == 7


class TestSuites:
    def test_registry_complete(self):
        assert set(SUITES) == {
            "transplant", "equilateral-max", "equilateral-max-even",
            "star-ladder", "ground-state", "surgery-monotonicity",
            "diameter-bound", "general-bounds"}

    def test_star_ladder_passes(self):
        rep = verify_star_count_ladder(total=3.0, n_max=5)
        assert rep.passed()
        assert all(c.status == "pass" for c in rep.cases)

    def test_equilateral_max_small_batch(self):
        rep = verify_equilateral_max(3, 3.0, seed=0, num_samples=6)
        assert rep.passed()
        # case 0 is the reproducibility self-check; the equilateral sample
        # itself must come out inconclusive (margin ~ 0), not a strict win
        rep_eq = verify_equilateral_max(3, 3.0, samples=[[1.0, 1.0, 1.0]])
        assert rep_eq.cases[0].status == "pass"
        assert rep_eq.cases[1].status == "inconclusive"

    def test_transplant_explicit_move(self):
        rep = verify_transplantation(lengths=[1.0, 0.7, 1.3],
                                     moves=[(2, 3, 0.2)])
        assert rep.passed()
        assert rep.cases[0].status == "pass"

    def test_transplant_detects_violated_hypothesis(self):
        # moving length from the longer onto the shorter edge reverses the
        # inequality; the harness must report that as a failure, not mask it
        rep = verify_transplantation(lengths=[1.0, 0.7, 1.3], moves=[(3, 2, 0.2)])
        assert not rep.passed()
        assert rep.cases[0].status == "fail"

    def test_missed_root_fails_the_case(self, monkeypatch):
        # a window whose count exceeds the certified roots gives a list with
        # a root missing, which could satisfy any bound; the case fails
        first_eigenvalues = experiments_mod.first_eigenvalues
        assert verify_diameter_bound(samples=[[1.0, 1.0, 1.0, 1.0]]).passed()

        def missing(g, k):
            lams, spec = first_eigenvalues(g, k)
            spec.diagnostics.append("CountMismatch(certified=6, count=7)")
            return lams, spec

        monkeypatch.setattr(experiments_mod, "first_eigenvalues", missing)
        rep = verify_diameter_bound(samples=[[1.0, 1.0, 1.0, 1.0]])
        assert [c.status for c in rep.cases] == ["fail"]
        assert rep.cases[0].details["count_mismatch"] == [
            "CountMismatch(certified=6, count=7)"]


class TestSweeps:
    def test_figure8_is_constant(self):
        table = sweep_lambda1_vs_length("figure8", [0.4, 0.7, 1.0, 1.5])
        assert table.monotonicity == "constant"
        assert table.limit == -1.0
        for _, lam, gap in table.rows:
            assert lam == pytest.approx(-1.0, abs=1e-9)
            assert gap == pytest.approx(0.0, abs=1e-9)

    def test_neumann_star_increases_to_limit(self):
        table = sweep_lambda1_vs_length("neumann_star", [0.5, 1.0, 2.0, 4.0], n=3)
        assert table.limit == -3.0
        assert table.monotonicity == "increasing"
        gaps = [abs(gap) for _, _, gap in table.rows]
        assert gaps == sorted(gaps, reverse=True)

    def test_dirichlet_star_decreases_to_limit(self):
        table = sweep_lambda1_vs_length("dirichlet_star", [0.8, 1.5, 3.0], n=3)
        assert table.limit == -3.0
        assert table.monotonicity == "decreasing"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            sweep_lambda1_vs_length("tadpole", [1.0])

    def test_csv_header(self):
        table = SweepTable("figure8", 3, -1.0,
                           [(0.5, -1.0, 0.0)], "constant")
        csv = table.to_csv()
        assert csv.startswith("# family=figure8,n=3,limit=-1.0,monotonicity=constant\n")
        assert "param,lambda1,gap_to_limit" in csv


class TestGroundState:
    def test_matches_frozen_star(self, star3):
        assert ground_state(star3) == pytest.approx(-3.3290586132660844, abs=1e-8)

    def test_no_negative_gives_zero_mode(self):
        from qgraph.graph import make_path

        assert ground_state(make_path([1.0])) == pytest.approx(0.0, abs=1e-10)
