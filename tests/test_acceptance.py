"""End-to-end acceptance gate.

One test per criterion, executed in order; each prints a single PASS line
(with the pinned tolerance and the worst observed error) once its assertions
hold. Run with -s to see the lines on success.
"""

import math
import time

import numpy as np
import pytest

from qgraph.cli import main
from qgraph.experiments import SUITES, sweep_lambda1_vs_length
from qgraph.fem import oracle_eigenvalues
from qgraph.graph import (
    MetricGraph,
    VertexRecord,
    make_cycle,
    make_figure8,
    make_path,
    make_star,
    save_graph,
)
from qgraph.quadform import form_value, rayleigh_quotient
from qgraph.secular import reduced_negative_kappas
from qgraph.solve import (
    count_negative,
    default_negative_floor,
    eigenfunction_at,
    find_spectrum,
    first_eigenvalues,
)
from reference import trace_vectors

PI2 = math.pi**2

TEST_GRAPHS = [
    ("star3-equilateral", make_star([1.0, 1.0, 1.0])),
    ("star3-generic", make_star([1.0, 0.7, 1.3])),
    ("star4-equilateral", make_star([1.0] * 4)),
    ("figure8-equilateral", make_figure8(0.5, 0.5)),
    ("figure8-generic", make_figure8(0.7, 1.3)),
    ("path", make_path([0.6, 0.4])),
    ("cycle", make_cycle([0.5, 0.5])),
]


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def negatives(g, **kw):
    spec = find_spectrum(g, (default_negative_floor(g), -1e-8), **kw)
    return spec.lambdas()


def test_criterion_1_reference_root_regression():
    """Closed-form negative roots vs the published two-decimal values."""
    tol = 5e-3
    cases = [
        ([1.0] * 3, "neumann", [1.82]),
        ([1.0] * 4, "neumann", [1.20]),
        ([1.0] * 6, "neumann", [0.84, 1.82]),
        ([1.0] * 3, "dirichlet", [1.60]),
    ]
    worst = 0.0
    for lengths, tips, refs in cases:
        t0 = time.perf_counter()
        kaps = reduced_negative_kappas(lengths, tips)
        dt = time.perf_counter() - t0
        assert dt < 1.0, f"reduction for {lengths}/{tips} took {dt:.2f}s"
        assert len(kaps) == len(refs), (lengths, tips, kaps)
        for got, ref in zip(sorted(kaps), sorted(refs)):
            worst = max(worst, abs(got - ref))
            assert abs(got - ref) < tol, (lengths, tips, got, ref)
    lam = -reduced_negative_kappas([1.0] * 3, "neumann")[0] ** 2
    assert abs(lam - (-3.33)) < tol
    report(1, f"reference kappa values within {tol} (worst {worst:.2e}), "
              "each root < 1s")


def test_criterion_2_figure8_exactness():
    tol_neg, tol_pos = 1e-8, 1e-6
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        l1, l2 = rng.uniform(0.2, 2.2, size=2)
        lams = negatives(make_figure8(float(l1), float(l2)))
        assert len(lams) == 1, (l1, l2, lams)
        worst = max(worst, abs(lams[0] + 1.0))
        assert abs(lams[0] + 1.0) < tol_neg, (l1, l2, lams)
    spec = find_spectrum(make_figure8(0.5, 0.5), (1.0, 700.0))
    got = [(r.lam, r.mult) for r in spec.records]
    want = [((2 * n * math.pi) ** 2, m) for n, m in
            zip(range(1, 5), (1, 3, 1, 3))]
    assert len(got) == 4, got
    for (gl, gm), (wl, wm) in zip(got, want):
        assert gm == wm, got
        assert abs(gl - wl) < tol_pos * max(1.0, wl), got
    report(2, f"20 random figure-8s: lambda_1 = -1 within {tol_neg} "
              f"(worst {worst:.2e}) and unique; equilateral positive spectrum "
              f"(2n pi)^2 with multiplicities (1,3,1,3) within {tol_pos}")


def test_criterion_3_closed_form_vs_determinant():
    tol = 1e-8
    t0 = time.perf_counter()
    cases = [
        ([1.0, 0.7, 1.3], "neumann"),
        ([1.0] * 3, "neumann"),
        ([1.0] * 4, "neumann"),
        ([1.0] * 6, "neumann"),
    ]
    worst = 0.0
    for lengths, tips in cases:
        g = make_star(lengths, tip_bc=tips)
        closed = sorted(-k * k for k in reduced_negative_kappas(lengths, tips))
        solver = negatives(g)
        assert len(closed) == len(solver), (lengths, closed, solver)
        for a, b in zip(closed, solver):
            worst = max(worst, abs(a - b))
            assert abs(a - b) < tol * max(1.0, abs(a)), (lengths, a, b)
    dt = time.perf_counter() - t0
    assert dt < 5.0, f"criterion 3 took {dt:.2f}s"
    report(3, f"closed-form roots match find_spectrum within {tol} "
              f"(worst {worst:.2e}) in {dt:.2f}s")


def test_criterion_4_negative_count_saturation():
    for n in (3, 4, 6):
        assert count_negative(make_star([1.0] * n)) == (n - 1) // 2
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        lengths = [float(x) for x in rng.uniform(0.25, 2.0, size=n)]
        got = count_negative(make_star(lengths))
        assert got >= (n - 1) // 2, (lengths, got)
    report(4, "count_negative == floor((N-1)/2) for equilateral N in {3,4,6}; "
              ">= for 20 random stars, N <= 6")


def test_criterion_5_fem_oracle_agreement():
    h = 1e-3
    converged_floor = 1e-9
    worst = 0.0
    for name, g in TEST_GRAPHS:
        secular, _ = first_eigenvalues(g, 8)
        fem_h = oracle_eigenvalues(g, 8, h)
        fem_h2 = oracle_eigenvalues(g, 8, h / 2)
        for lam, f1, f2 in zip(secular, fem_h, fem_h2):
            tol = max(5e-2, 10.0 * h * (1.0 + abs(lam)))
            gap1, gap2 = abs(f1 - lam), abs(f2 - lam)
            worst = max(worst, gap1 / tol)
            assert gap1 < tol, (name, lam, f1, tol)
            # exactly-representable modes sit at rounding noise already
            assert gap2 < gap1 or gap1 < converged_floor, (name, lam, gap1, gap2)
    report(5, "FEM h=1e-3 matches first 8 secular eigenvalues within "
              f"max(5e-2, 10h(1+|lambda|)) on {len(TEST_GRAPHS)} graphs "
              f"(worst gap/tol {worst:.2f}); halving h shrinks every gap")


def test_criterion_6_theorem_suites():
    t0 = time.perf_counter()
    failures = {}
    for name, runner in sorted(SUITES.items()):
        rep = runner(0)
        if rep.num_failures:
            failures[name] = rep.num_failures
    dt = time.perf_counter() - t0
    assert not failures, failures
    assert dt < 300.0, f"suites took {dt:.1f}s"
    report(6, f"all {len(SUITES)} theorem suites pass with zero failures "
              f"at seed 0 in {dt:.1f}s")


def _reorder(g, vid, order):
    verts = [VertexRecord(v.id, v.bc, tuple(order)) if v.id == vid else v
             for v in g.vertices]
    return MetricGraph.create(verts, list(g.edges))


def test_criterion_7_property_suites(tmp_path, capsys):
    # (a) form symmetry
    rng = np.random.default_rng(2)
    star = make_star([1.0, 0.7, 1.3])
    for _ in range(5):
        vals, ders = {}, {}
        for e in star.edges:
            p = np.polynomial.Polynomial(rng.normal(size=3))
            vals[e.id], ders[e.id] = p, p.deriv()
        from qgraph.quadform import TrialFunction

        f = TrialFunction(values=vals, derivatives=ders)
        diag = complex(form_value(star, f, f))
        assert abs(diag.imag) < 1e-10, diag

    # (b) eigenpair Rayleigh identity
    for g, lam in [(star, -3.461724246805116),
                   (make_figure8(0.7, 1.3), -1.0),
                   (make_star([1.0] * 3), 1.067126678486186)]:
        psi = eigenfunction_at(g, lam)[0]
        rq = rayleigh_quotient(g, psi.as_trial())
        assert abs(rq - lam) < 1e-6 * max(1.0, abs(lam)), (lam, rq)

    # (c) enumeration invariance over the provable rewrites
    fig8 = make_figure8(0.5, 0.5)
    base = find_spectrum(fig8, (-5.0, 50.0)).lambdas()
    order = fig8.vertices[0].order
    for shift in (1, 2, 3):
        rot = _reorder(fig8, "v0", order[shift:] + order[:shift])
        got = find_spectrum(rot, (-5.0, 50.0)).lambdas()
        assert got == pytest.approx(base, abs=1e-8)
    rev = star
    for v in star.vertices:
        rev = _reorder(rev, v.id, tuple(reversed(v.order)))
    assert find_spectrum(rev, (-10.0, 30.0)).lambdas() == pytest.approx(
        find_spectrum(star, (-10.0, 30.0)).lambdas(), abs=1e-8)

    # (d) vertex sum rules on eigenfunction traces
    for g, lam in [(make_star([1.0] * 3), -3.3290586132660844),
                   (make_star([1.0] * 4), -1.4392288398906454),
                   (make_figure8(0.7, 1.3), -1.0)]:
        psi = eigenfunction_at(g, lam)[0]
        tr, dv = trace_vectors(psi)
        scale_f = max(np.max(np.abs(tr)), 1e-30)
        scale_d = max(np.max(np.abs(dv)), 1e-30)
        for v in g.vertices:
            if v.bc != "coupled" or v.degree < 2:
                continue
            slots = [g.slot_index[ref] for ref in v.order]
            assert abs(np.sum(dv[slots])) < 1e-9 * scale_d, v.id
            if v.degree % 2 == 0:
                alt = sum((-1) ** j * tr[s] for j, s in enumerate(slots, start=1))
                assert abs(alt) < 1e-9 * scale_f, v.id

    # (e) figure-8 positive roots scale as t^-2
    base_pos = find_spectrum(make_figure8(0.7, 1.3), (1.0, 60.0)).lambdas()
    scaled = find_spectrum(make_figure8(0.35, 0.65), (4.0, 240.0)).lambdas()
    assert len(base_pos) == len(scaled) == 3
    for b, s in zip(base_pos, scaled):
        assert abs(s - 4.0 * b) < 1e-8 * s, (b, s)

    # (f) CLI byte determinism
    gpath = tmp_path / "g.json"
    save_graph(make_star([1.0, 1.0, 1.0]), gpath)
    argv = ["spectrum", str(gpath), "--window", "-10:10", "--csv"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    sweep_argv = ["sweep", "figure8", "--grid", "0.5:1.5:4"]
    assert main(sweep_argv) == 0
    sfirst = capsys.readouterr().out
    assert main(sweep_argv) == 0
    assert capsys.readouterr().out == sfirst

    report(7, "form symmetry < 1e-10; Rayleigh identity < 1e-6; enumeration "
              "invariance < 1e-8; trace sum rules < 1e-9; figure-8 t^-2 "
              "scaling < 1e-8; CLI outputs byte-identical")


def test_criterion_8_limits():
    # Neumann equilateral 3-star: lambda_1 rises with l toward -3, from below
    grid = [0.5, 1.0, 2.0, 4.0, 7.0, 10.0]
    table = sweep_lambda1_vs_length("neumann_star", grid, n=3)
    lams = [row[1] for row in table.rows]
    assert all(b > a for a, b in zip(lams, lams[1:])), lams
    lam10 = lams[-1]
    assert abs(lam10 + 3.0) < 1e-2, lam10
    assert lam10 <= -3.0 + 1e-8, lam10

    # Dirichlet threshold at l = 3^(-1/2) ~ 0.577
    assert count_negative(make_star([0.55] * 3, tip_bc="dirichlet")) == 0
    lams_06 = negatives(make_star([0.6] * 3, tip_bc="dirichlet"))
    assert len(lams_06) == 1
    assert lams_06[0] == pytest.approx(-0.32949725607553254, abs=1e-8)
    report(8, "Neumann 3-star lambda_1(l) increasing, lambda_1(10) within "
              "1e-2 below -3; Dirichlet 3-star threshold certified at "
              "l=0.55 (none) vs l=0.6 (exactly one)")
