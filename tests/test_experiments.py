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
    verify_general_bounds,
    verify_ground_state_theorem,
    verify_star_count_ladder,
    verify_surgery_monotonicity,
    verify_transplantation,
    write_report,
)
from qgraph.graph import (make_cycle, make_figure8, make_path, make_star,
                          rotation_genus)
from qgraph.solve import first_eigenvalues


class TestSampling:
    def test_lengths_sum_and_floor(self, rng):
        for n in (3, 5, 8):
            ls = sample_lengths(rng, n, 4.0)
            assert sum(ls) == pytest.approx(4.0, rel=1e-12)
            assert min(ls) >= 0.05 * 4.0 - 1e-12

    def test_lengths_min_frac_validation(self, rng):
        with pytest.raises(ValueError):
            sample_lengths(rng, 25, 1.0)

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
        rep = verify_star_count_ladder()
        assert rep.passed()
        assert all(c.status == "pass" for c in rep.cases)

    def test_equilateral_max_small_batch(self):
        rng = np.random.default_rng(0)
        rep = verify_equilateral_max(
            3, 3.0, samples=[sample_lengths(rng, 3, 3.0) for _ in range(6)])
        assert rep.passed()
        # case 0 checks the solved equilateral ground state against the
        # reduced form's root; the equilateral sample itself must come out
        # inconclusive (margin ~ 0), not a strict win
        rep_eq = verify_equilateral_max(3, 3.0, samples=[[1.0, 1.0, 1.0]])
        assert rep_eq.cases[0].status == "pass"
        assert rep_eq.cases[1].status == "inconclusive"

    @pytest.mark.parametrize("suite,total,ns", [
        (lambda total: verify_equilateral_max(3, total, samples=[]), 3.0, (3,)),
        (lambda total: verify_equilateral_max(4, total, samples=[]), 4.0, (4,)),
        (verify_ground_state_theorem, 3.0, (3, 4))])
    def test_equality_cases_read_the_reduced_form(self, monkeypatch, suite,
                                                  total, ns):
        # the solved equilateral ground state equals the reduced form's
        # root, -max(reduced_negative_kappas)^2, bit for bit; a reduced
        # root moved by 1e-9 fails the case
        monkeypatch.setattr(experiments_mod, "GROUND_STATE_PER_N", 0)
        cases = suite(total).cases
        assert len(cases) == len(ns)
        for c, n in zip(cases, ns):
            assert "equality" in c.name and f"N{n}" in c.name
            assert (c.status, c.margin) == ("pass", 0.0)
            lam = ground_state(make_star([total / n] * n))[0]
            assert c.details == {"lambda1": lam, "reduced": lam}
        reduced = experiments_mod.reduced_negative_kappas
        monkeypatch.setattr(experiments_mod, "reduced_negative_kappas",
                            lambda ls: [k + 1e-9 for k in reduced(ls)])
        assert [c.status for c in suite(total).cases] == ["fail"] * len(ns)

    def test_extend_case_reports_a_zero_crossing_as_uncovered(
            self, monkeypatch):
        # a Neumann star keeps (N - 1) // 2 negative eigenvalues at any
        # lengths (the phase sum of the reduced form rises from 0 to
        # N pi / 2), so no extension takes one across zero; stand-in
        # spectra that do cross leave that k unchecked
        for before, status, uncovered in (
                ([-2.0, 1.0, 2.0, 3.0, 4.0, 5.0], "pass", [1]),
                ([-6.0, -5.0, -4.0, -3.0, -2.0, -1.0], "uncovered",
                 [1, 2, 3, 4, 5, 6])):
            after = [0.5 if lam < 0.0 else lam - 0.1 for lam in before]
            spectra = iter([(before, []), (after, [])])
            monkeypatch.setattr(experiments_mod, "_first_k",
                                lambda g, k: next(spectra))
            case = experiments_mod._surgery_case(0, "extend", [0.6, 0.8, 1.1],
                                                 (2, 0.3))
            assert case.details["uncovered_k"] == uncovered
            assert [int(k) for k in case.details["margins"]] == [
                k for k in range(1, 7) if k not in uncovered]
            assert case.status == status

    def test_transplant_explicit_move(self):
        rep = verify_transplantation(lengths=[1.0, 0.7, 1.3],
                                     moves=[(2, 3, 0.2)])
        assert rep.passed()
        assert rep.cases[0].status == "pass"

    def test_transplant_solves_the_base_star_once(self, monkeypatch):
        # every explicit move applies to one star, whose ground state is
        # solved once, before the cases; each case solves its moved star.
        # Each case reads as it does in a call of its own
        lengths, moves = [1.0, 0.7, 1.3], [(2, 3, 0.2), (2, 1, 0.1), (1, 3, 0.3)]
        alone = [verify_transplantation(lengths=lengths, moves=[m]).cases[0]
                 for m in moves]
        solved = []

        def recorded(g):
            solved.append([e.length for e in g.edges])
            return ground_state(g)

        monkeypatch.setattr(experiments_mod, "ground_state", recorded)
        rep = verify_transplantation(lengths=lengths, moves=moves)
        assert len(solved) == 4 and solved[0] == lengths
        assert lengths not in solved[1:]
        for i, (case, one) in enumerate(zip(rep.cases, alone)):
            assert case.name == f"transplant-{i:03d}"
            assert json.dumps(case.details) == json.dumps(one.details)
            assert (case.status, case.margin) == (one.status, one.margin)

    def test_transplant_detects_violated_hypothesis(self):
        # moving length from the longer onto the shorter edge reverses the
        # inequality; the harness must report that as a failure, not mask it
        rep = verify_transplantation(lengths=[1.0, 0.7, 1.3], moves=[(3, 2, 0.2)])
        assert not rep.passed()
        assert rep.cases[0].status == "fail"

    def test_missed_root_fails_the_case(self, monkeypatch):
        # a window whose count exceeds the certified roots gives a list with
        # a root missing, which could satisfy any bound, and one whose count
        # is untrusted cannot tell; the case fails
        first_eigenvalues = experiments_mod.first_eigenvalues
        assert verify_diameter_bound(samples=[[1.0, 1.0, 1.0, 1.0]]).passed()
        for diagnostic in ("CountMismatch(certified=6, count=7)",
                           "CountUntrusted(lo=-64, hi=39.4784176044)"):
            def missing(g, k):
                lams, spec = first_eigenvalues(g, k)
                spec.diagnostics.append(diagnostic)
                return lams, spec

            monkeypatch.setattr(experiments_mod, "first_eigenvalues", missing)
            rep = verify_diameter_bound(samples=[[1.0, 1.0, 1.0, 1.0]])
            assert [c.status for c in rep.cases] == ["fail"]
            assert rep.cases[0].details["count_mismatch"] == [diagnostic]


class TestWorkerCount:
    def test_serial_unless_asked(self, monkeypatch):
        monkeypatch.delenv("QGRAPH_THREADS", raising=False)
        assert experiments_mod._worker_count() == 1
        monkeypatch.setenv("QGRAPH_THREADS", "3")
        assert experiments_mod._worker_count() == 3


def small_batches():
    """One small explicit batch of every suite that runs its cases through
    `_run_cases`, each as the text its report or table prints."""
    surgery = [("attach-even", [0.6, 0.8, 0.7, 0.9], 0.5),
               ("attach-odd", [0.6, 0.8, 1.1], 0.4),
               ("attach-two", [0.6, 0.8, 0.7, 0.9], (0.5, 0.7)),
               ("extend", [0.6, 0.8, 1.1], (2, 0.3)),
               ("extend-dirichlet", [0.9, 0.8, 1.1], (1, 0.2)),
               ("merge-odd-odd", [0.6, 0.8, 1.1], (1, 3)),
               ("merge-mixed", [0.6, 0.8, 0.7, 0.9], 2)]
    sweep = sweep_lambda1_vs_length("dirichlet_star", [0.8, 1.5], n=3)
    return {
        "transplant": verify_transplantation(
            lengths=[1.0, 0.7, 1.3], moves=[(2, 3, 0.2), (1, 3, 0.5)]).to_json(),
        "equilateral-max": verify_equilateral_max(
            3, 3.0, samples=[[1.0, 0.7, 1.3], [0.6, 1.2, 1.2]]).to_json(),
        "star-ladder": verify_star_count_ladder().to_json(),
        "ground-state": verify_ground_state_theorem(3.0, seed=2).to_json(),
        "surgery": verify_surgery_monotonicity(cases=surgery).to_json(),
        "diameter-bound": verify_diameter_bound(
            samples=[[1.0] * 4, [0.5, 1.0, 1.5, 0.8, 0.6, 0.9]]).to_json(),
        "general-bounds": verify_general_bounds(
            samples=[make_figure8(0.3, 0.9), make_cycle([0.6, 1.1]),
                     make_star([1.0, 0.7, 1.3])]).to_json(),
        "sweep": sweep.to_csv() + repr(sweep.diagnostics),
    }


def test_pooled_reports_equal_serial_reports(monkeypatch):
    # the inputs are drawn before the cases run, so the reports do not
    # depend on how the pool schedules them
    monkeypatch.setattr(experiments_mod, "GROUND_STATE_PER_N", 1)
    monkeypatch.delenv("QGRAPH_THREADS", raising=False)
    serial = small_batches()
    monkeypatch.setenv("QGRAPH_THREADS", "2")
    assert experiments_mod._worker_count() == 2
    assert small_batches() == serial


def former_surgery_draws(rng):
    """Reference: the seeded surgery batch as seven loops, one per kind."""
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
    return cases


@pytest.mark.parametrize("seed", range(4))
def test_surgery_draw_table_reproduces_the_former_loops(monkeypatch, seed):
    drawn = []
    monkeypatch.setattr(experiments_mod, "_run_cases",
                        lambda thunks: drawn.extend(t.args for t in thunks) or [])
    verify_surgery_monotonicity(seed=seed)
    want = former_surgery_draws(np.random.default_rng(seed))
    assert len(drawn) == 60
    assert drawn == [(i, *case) for i, case in enumerate(want)]


class TestSweeps:
    def test_figure8_is_constant(self):
        table = sweep_lambda1_vs_length("figure8", [0.4, 0.7, 1.0, 1.5])
        assert table.monotonicity == "constant" and table.diagnostics == []
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

    @pytest.mark.parametrize("n,limit", [
        (4, -1.0), (5, -9.472135954999579), (6, -3.0), (7, -19.19566935808922)])
    def test_star_limit_is_the_long_edge_ground_state(self, n, limit):
        # -cot^2(pi / 2n) for odd n, -cot^2(pi / n) for even n: both tips'
        # ground states reach it at l = 20
        for family in ("neumann_star", "dirichlet_star"):
            table = sweep_lambda1_vs_length(family, [20.0], n=n)
            assert table.limit == pytest.approx(limit, rel=1e-15)
            assert abs(table.rows[0][2]) < 1e-9

    def test_short_star_limit_is_zero(self):
        # n <= 2 leaves the reduced form no root: no negative eigenvalue
        table = sweep_lambda1_vs_length("neumann_star", [1.0, 20.0], n=2)
        assert table.limit == 0.0
        for _, lam, gap in table.rows:
            assert lam == gap == pytest.approx(0.0, abs=1e-9)

    def test_non_monotone_sweep(self, monkeypatch):
        lams = {1.0: -3.5, 2.0: -3.2, 3.0: -3.4}
        monkeypatch.setattr(experiments_mod, "ground_state",
                            lambda g: (lams[g.edges[0].length], []))
        table = sweep_lambda1_vs_length("neumann_star", [1.0, 2.0, 3.0])
        assert table.monotonicity == "non-monotone"
        assert [lam for _, lam, _ in table.rows] == [-3.5, -3.2, -3.4]

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
        assert ground_state(star3)[0] == pytest.approx(-3.3290586132660844, abs=1e-8)

    def test_no_negative_gives_zero_mode(self):
        from qgraph.graph import make_path

        assert ground_state(make_path([1.0]))[0] == pytest.approx(0.0, abs=1e-10)

    def test_untrusted_window_fails_the_case(self):
        # beside a 1e-7 edge the lowest certified root, -73681.5196, is not
        # the true one near -73681.2967: the window cut above the first root
        # counts one eigenvalue where four were certified. The case reads
        # the diagnostic and fails
        rep = verify_equilateral_max(3, 1.7000001, samples=[[1.0, 0.7, 1e-7]])
        assert [c.status for c in rep.cases] == ["pass", "fail"]
        assert rep.cases[1].margin > 0.0  # the margin alone would pass
        missed = ["CountMismatch(lo=-147456, hi=-73677.669632, certified=4, "
                  "count=1)"]
        assert rep.cases[1].details["count_mismatch"] == missed
        lam, got = ground_state(make_star([1.0, 0.7, 1e-7]))
        assert lam == -73681.51962370185 and got == missed

    @pytest.mark.parametrize("g", [
        make_star(sample_lengths(np.random.default_rng(5), 4, 3.0)),
        make_star([1.0, 0.7, 1.3], tip_bc="dirichlet"),
        make_figure8(0.3, 0.9),
        make_cycle([0.6, 1.1]),
        make_path([1.0]),  # the zero mode
    ], ids=["star", "dirichlet-star", "figure8", "cycle", "path-zero"])
    def test_is_the_first_eigenvalue(self, g):
        lam, missed = ground_state(g)
        (first,), spec = first_eigenvalues(g, 1)
        assert lam.hex() == first.hex()
        assert missed == [d for d in spec.diagnostics if d.startswith(
            ("CountMismatch", "CountUntrusted"))]
