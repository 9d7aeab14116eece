"""Spectrum solver: frozen regressions, multiplicities, dual routes, eigenfunctions."""

import math
import re
import signal
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from qgraph.coupling import assemble_blocks
import qgraph.kernels as kernels_mod
import qgraph.quadform as quadform_mod
import qgraph.secular as secular_mod
import qgraph.solve as solve_mod
from qgraph.errors import NotAnEigenvalue, WindowTooCoarse
from qgraph.experiments import ground_state, sample_graph, sample_lengths
from qgraph.graph import (
    MetricGraph,
    VertexRecord,
    make_cycle,
    make_figure8,
    make_path,
    make_star,
)
from qgraph.kernels import (edge_basis_traces, equilibrate_columns,
                            prepare_structure)
from qgraph.quadform import rayleigh_quotient, trial_norm_sq
from qgraph.secular import (_count_parts, build_secular_matrix, count_below,
                            reduced_negative_kappas)
from qgraph.solve import (
    Spectrum,
    _GOLD_STEP,
    _KAPPA_WIDTH,
    _LANDING,
    _golden_min,
    _isolate,
    _null,
    _sigma_grid,
    count_negative,
    default_negative_floor,
    default_positive_step,
    eigenfunction_at,
    find_spectrum,
    first_eigenvalues,
)
from qgraph.surgery import AttachEdge, Merge, apply_surgery
from reference import trace_vectors

PI2 = math.pi**2

# oracle roots, frozen from the closed-form phase identity (brentq, xtol 1e-14)
STAR3_EQUIL = [-3.3290586132660844, 0.0, 1.067126678486186,
               6.470961399932133, PI2]
STAR_GENERIC = [-3.461724246805116, 0.0, 1.069761327024490,
                5.222405795809001, PI2, 19.343700452660133,
                24.246622228261788]
DEEP_STAR_LENGTHS = [0.3546, 0.2023, 0.1557, 2.2405]
DEEP_STAR_LAM1 = -3.876230573048294


def _count_graphs():
    """The graphs of acceptance criteria 4 and 8, and three figure-8s."""
    graphs = {f"star{n}-equilateral": make_star([1.0] * n) for n in (3, 4, 6)}
    rng = np.random.default_rng(1)  # criterion 4's 20 random stars
    for i in range(20):
        n = int(rng.integers(3, 7))
        graphs[f"star-random{i}"] = make_star(
            [float(x) for x in rng.uniform(0.25, 2.0, size=n)])
    for a, b in ((0.5, 0.5), (0.7, 1.3), (0.3, 0.9)):
        graphs[f"figure8-{a}-{b}"] = make_figure8(a, b)
    for length in (0.55, 0.6):
        graphs[f"dirichlet-star-{length}"] = make_star([length] * 3,
                                                      tip_bc="dirichlet")
    return graphs


COUNT_GRAPHS = _count_graphs()


def reorder(g, vid, order):
    verts = [VertexRecord(v.id, v.bc, tuple(order)) if v.id == vid else v
             for v in g.vertices]
    return MetricGraph.create(verts, list(g.edges))


def check(spec, expected, tol=1e-8):
    got = [(r.lam, r.mult) for r in spec.records]
    assert len(got) == len(expected), got
    for (gl, gm), (el, em) in zip(got, expected):
        assert gm == em, got
        assert gl == pytest.approx(el, abs=tol * max(1.0, abs(el)))


class TestFrozenSpectra:
    def test_equilateral_three_star(self, star3):
        spec = find_spectrum(star3, (-10.0, 10.0))
        check(spec, [(lam, 1) for lam in STAR3_EQUIL])
        assert spec.diagnostics == []

    def test_generic_three_star(self):
        g = make_star([1.0, 0.7, 1.3])
        spec = find_spectrum(g, (-10.0, 30.0))
        check(spec, [(lam, 1) for lam in STAR_GENERIC])

    @pytest.mark.parametrize("seed", range(6))
    def test_generic_neumann_three_stars(self, seed):
        # positive roots k^2 of the entire function
        # sum_{i<j} cos(k l_i) cos(k l_j) sin(k l_m) - k^2 prod sin(k l_i),
        # m the third edge: the reduced Neumann 3-star form times the
        # product of the sines
        lengths = sample_lengths(np.random.default_rng(seed), 3, 3.0)

        def entire(k):
            c, s = np.cos(k * np.array(lengths)), np.sin(k * np.array(lengths))
            return (c[0] * c[1] * s[2] + c[0] * c[2] * s[1] + c[1] * c[2] * s[0]
                    - k * k * s.prod())

        ks = np.linspace(math.sqrt(0.5), math.sqrt(170.0), 20001)
        vals = np.array([entire(k) for k in ks])
        roots = [brentq(entire, ks[i], ks[i + 1], xtol=1e-15) ** 2
                 for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)]
        g = make_star(lengths)
        spec = find_spectrum(g, (0.5, 170.0))
        assert spec.diagnostics == []
        assert [r.mult for r in spec.records] == [1] * len(roots)
        for r, lam in zip(spec.records, roots):
            assert abs(r.lam - lam) <= 1e-12 * lam
        assert find_spectrum(g, (0.5, 170.0), "dtn").count == spec.count

    def test_equilateral_figure8(self, fig8):
        spec = find_spectrum(fig8, (-5.0, 700.0))
        check(spec, [(-1.0, 1), (0.0, 1), (4 * PI2, 1), (16 * PI2, 3),
                     (36 * PI2, 1), (64 * PI2, 3)], tol=1e-7)

    def test_generic_figure8(self):
        spec = find_spectrum(make_figure8(0.7, 1.3), (-5.0, 60.0))
        check(spec, [(-1.0, 1), (0.0, 1), (PI2, 1),
                     (23.360010416780, 1), (4 * PI2, 1)])

    def test_figure8_negative_eigenvalue_is_length_independent(self):
        # the vertex condition mixes traces with derivatives, so it carries an
        # intrinsic scale: the sole negative eigenvalue sits at -1 exactly
        for pair in [(0.3, 1.9), (1.1, 0.2), (2.5, 2.5)]:
            spec = find_spectrum(make_figure8(*pair), (-30.0, 0.5))
            check(spec, [(-1.0, 1), (0.0, 1)])

    def test_one_edge_cycle_full_multiplicity(self):
        # at (2 pi n / L)^2 the whole 2x2 secular matrix vanishes: both
        # Fourier modes survive, multiplicity 2
        spec = find_spectrum(make_cycle([1.0]), (-5.0, 170.0))
        check(spec, [(0.0, 1), (4 * PI2, 2), (16 * PI2, 2)], tol=1e-7)

    def test_subdivided_cycle_matches(self):
        spec = find_spectrum(make_cycle([0.5, 0.5]), (-5.0, 170.0))
        check(spec, [(0.0, 1), (4 * PI2, 2), (16 * PI2, 2)], tol=1e-7)

    def test_path_is_neumann_interval(self):
        # degree-2 coupled vertices are invisible: spectrum of [0, 1]
        spec = find_spectrum(make_path([0.6, 0.4]), (-5.0, 90.0))
        check(spec, [(0.0, 1), (PI2, 1), (4 * PI2, 1), (9 * PI2, 1)])

    def test_deep_negative_root_star(self):
        # kappa*l reaches 4.4 on the long edge; the naive cosh/sinh basis
        # overflows the rank test there and this root used to vanish
        g = make_star(DEEP_STAR_LENGTHS)
        spec = find_spectrum(g, (default_negative_floor(g), 0.5))
        negs = [r for r in spec.records if r.lam < 0]
        assert len(negs) == 1
        assert negs[0].lam == pytest.approx(DEEP_STAR_LAM1, abs=1e-8)


class TestNegativeCounts:
    @pytest.mark.parametrize("n,count", [(3, 1), (4, 1), (6, 2)])
    def test_equilateral_star_saturates_bound(self, n, count):
        assert count_negative(make_star([1.0] * n)) == count == (n - 1) // 2

    @pytest.mark.parametrize("g", COUNT_GRAPHS.values(), ids=list(COUNT_GRAPHS))
    def test_matches_the_solver_count(self, g):
        # the exact count N(-ZERO_RADIUS) against the certified negative roots
        spec = find_spectrum(g, (default_negative_floor(g), -1e-8))
        assert count_negative(g) == spec.count

    def test_untrusted_count_raises(self):
        # beside a 1e-7 edge, Q's entries reach ~1e7 and the sign of its
        # eigenvalue nearest zero at -ZERO_RADIUS is lost in rounding
        g = make_star([1.0, 0.7, 1e-7])
        assert not count_below(g, [-solve_mod.ZERO_RADIUS])[1][0]
        with pytest.raises(WindowTooCoarse):
            count_negative(g)

    @pytest.mark.parametrize("lengths", [[1.0, 1.0, 0.001], [1.0, 0.7, 0.002]])
    def test_default_floor_lies_below_every_eigenvalue(self, lengths):
        # a short edge puts the ground state far below -(2 * max degree)^2
        # = -36; the default floor widens until the count below it is 0
        g = make_star(lengths)
        kappa = max(reduced_negative_kappas(lengths))
        assert -kappa ** 2 < -36.0
        assert count_below(g, [-36.0])[0][0] == 1
        floor = default_negative_floor(g)
        counts, trusted = count_below(g, [floor])
        assert floor < -kappa ** 2 and counts[0] == 0 and trusted[0]
        assert ground_state(g)[0] == pytest.approx(-kappa ** 2, rel=1e-10)
        assert count_negative(g) == 1

    def test_default_floor_keeps_the_degree_guess(self):
        # where -(2 * max degree)^2 already lies below the spectrum it stands
        assert default_negative_floor(make_star([1.0] * 3)) == -36.0
        assert default_negative_floor(make_figure8(0.7, 1.3)) == -64.0

    def test_floor_near_the_float_range_keeps_its_value(self):
        # the 1e-150 edge's ground state lies near -1e300, still a float:
        # the floor doubles that far and stands there
        g = make_star([1e-150, 1.0, 1.0])
        floor = default_negative_floor(g)
        assert floor == -8.56521739283203e+286
        counts, trusted = count_below(g, [floor])
        assert counts[0] == 0 and trusted[0]

    def test_floor_doublings_are_counted_in_one_call(self, monkeypatch):
        # the first floor fails; its 475 further doublings take one call
        calls = []

        def counted(g, lams):
            calls.append(len(lams))
            return count_below(g, lams)

        monkeypatch.setattr(solve_mod, "count_below", counted)
        floor = default_negative_floor(make_star([1e-150, 1.0, 1.0]))
        assert floor == -8.56521739283203e+286
        assert type(floor) is float
        assert len(calls) <= 2 and calls[0] == 1

    @pytest.mark.parametrize("g,last", [
        (make_star([1e-200, 1.0, 1.0]), -1.0112023883600527e+308),
        (make_star([1e-300, 1.0, 1.0]), -1.0112023883600527e+308),
        (make_figure8(1e-300, 1.0), -4.49423283715579e+307),
        (make_cycle([1e-300, 1.0]), -4.49423283715579e+307)])
    def test_floor_beyond_the_float_range_is_refused(self, g, last):
        # a ground state below -1.8e308 has no float floor: the last floor
        # that is a float is named, not overflowed past
        with deadline(10), pytest.raises(WindowTooCoarse) as err:
            default_negative_floor(g)
        assert str(err.value) == (
            f"the eigenvalue count below the floor {last!r} is not a trusted "
            f"0, and a lower floor leaves the float range")

    def test_random_stars_respect_bound(self):
        # bracketing against the semi-infinite star gives a lower bound
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(3, 7))
            lengths = rng.uniform(0.3, 2.0, size=n).tolist()
            assert count_negative(make_star(lengths)) >= (n - 1) // 2


class TestLongEdgeOverflow:
    """Where kappa cosh(kappa l) or sinh(kappa l) overflows (kappa l near
    710), the DtN tables take their limits, so counts and both routes still
    answer."""

    def test_both_routes_on_a_long_edge(self):
        # kappa l reaches 720 on the 120 edge at the window's floor
        lengths = [120.0, 1.0, 1.0]
        g = make_star(lengths)
        lam1 = -max(reduced_negative_kappas(lengths)) ** 2
        for method in ("edge", "dtn"):
            spec = find_spectrum(g, (-36.0, 1.0), method)
            assert spec.records[0].lam == pytest.approx(lam1, rel=1e-10)
            assert [r.mult for r in spec.records if r.lam < 0.0] == [1]
            assert spec.diagnostics == []
        assert ground_state(g)[0] == pytest.approx(lam1, rel=1e-10)
        assert count_negative(g) == 1
        assert first_eigenvalues(g, 1)[0] == pytest.approx([lam1], rel=1e-10)
        # on a 50 edge k cosh(k l) overflows before sinh(k l) does, for
        # lambda in (-201.9, -200.4); the diagonal DtN entry is -kappa there
        g = make_star([30.0, 50.0, 1.0])
        counts, trusted = count_below(g, [-201.0, -100.0])
        assert counts.tolist() == [0, 0] and trusted.all()
        for method in ("edge", "dtn"):
            spec = find_spectrum(g, (-201.0, -100.0), method)
            assert spec.records == [] and spec.diagnostics == []

    @pytest.mark.parametrize("lengths,floor", [([200.0, 1.0, 1.0], -36.0),
                                               ([1.0, 0.7, 1e-8], -589824.0)])
    def test_floor_is_a_trusted_zero_count(self, lengths, floor):
        g = make_star(lengths)
        assert default_negative_floor(g) == floor
        counts, trusted = count_below(g, [floor])
        assert counts[0] == 0 and trusted[0]


def _rank_graphs():
    """Graphs of every kind the rank rule's bound covers."""
    graphs = {
        "star3": make_star([1.0] * 3),
        "star-generic": make_star([0.3, 1.0, 2.5, 0.7]),
        "star-dirichlet": make_star([0.6, 1.1, 0.8], tip_bc="dirichlet"),
        "star-short-edge": make_star([1.0, 0.7, 1e-9]),
        "star-long-edges": make_star([30.0, 50.0, 1.0]),
        "figure8": make_figure8(0.5, 0.5),
        "figure8-generic": make_figure8(0.3, 0.9),
        "cycle2": make_cycle([0.5, 0.7]),
        "cycle4": make_cycle([0.5, 0.7, 0.8, 1.0]),
        "path2": make_path([0.5, 1.5]),
        "path3-dirichlet": make_path([1.0, 0.4, 2.0], tip_bc="dirichlet"),
    }
    rng = np.random.default_rng(5)
    for i in range(4):
        graphs[f"sample{i}"] = sample_graph(rng, 5)
    return graphs


RANK_GRAPHS = _rank_graphs()
# both branches out to 1e6 in size, lambda = 0, and the cosh overflow band
# of the 50 edge
RANK_LAMS = np.concatenate((-np.geomspace(1e6, 1e-6, 25), [-201.0, 0.0],
                            np.geomspace(1e-6, 1e6, 25)))


class TestRankRule:
    """`_null` needs no reference scale: sigma_max >= 1 up to rounding on
    every secular matrix that has not vanished, so sigma_max < RANK_TOL
    means the whole matrix did."""

    @pytest.mark.parametrize("method", ["edge", "dtn"])
    def test_sigma_max_is_at_least_one(self, method):
        graphs = dict(RANK_GRAPHS)
        if method == "edge":  # a lone Neumann edge: no coupled vertex
            graphs["edge"] = make_path([0.8])
        for name, g in graphs.items():
            smax = _sigma_grid(g, prepare_structure(g), RANK_LAMS, method)[:, 0]
            assert np.isfinite(smax).all(), name  # no lambda is a DtN pole
            assert smax.min() >= 1.0 - 1e-12, name

    def test_vanished_rows_are_wholly_null(self):
        s = np.array([[3.0, 1.0, 2e-8], [3.0, 1.0, 4e-8], [9e-9, 5e-9, 1e-9]])
        assert _null(s).tolist() == [[False, False, True],
                                     [False, False, False],
                                     [True, True, True]]

    def test_lone_loop_root_far_up(self):
        # the whole matrix vanishes at this double root, to sigma_max 2.2e-12,
        # while a cell width away it reads about 5e-5: a threshold scaled by
        # nearby sigma_max values would sit below the root's own
        r = (2.0 * math.pi / 1e-3) ** 2
        spec = find_spectrum(make_cycle([1e-3]), (r - 0.5, r + 0.5))
        assert spec.diagnostics == []
        assert [rec.mult for rec in spec.records] == [2]
        assert spec.records[0].lam == pytest.approx(r, rel=1e-12)
        assert spec.records[0].sigma_max < solve_mod.RANK_TOL


class TestWindowHandling:
    def test_reversed_window(self, star3):
        with pytest.raises(ValueError):
            find_spectrum(star3, (1.0, -1.0))

    @pytest.mark.parametrize("window", [(-math.inf, 0.0), (0.0, math.inf),
                                        (math.nan, 1.0)])
    def test_non_finite_window(self, star3, window):
        # refused before any count, so no RuntimeWarning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"window \(.*\) is not finite"):
                find_spectrum(star3, window)

    def test_window_too_wide_is_refused(self, monkeypatch):
        # refused before any count where the bound N(hi) <= sqrt(hi) L / pi
        # + 2E exceeds MAX_WINDOW_COUNT; a window just inside it is counted
        def counted(*args):
            raise AssertionError("counted")

        monkeypatch.setattr(solve_mod, "_count_parts", counted)
        g = make_star([1.0, 0.7, 1.3])
        with pytest.raises(ValueError, match=r"window \(0\.0, 1e\+300\) may "
                           r"hold 9\.549e\+149 eigenvalues, more than 10000"):
            find_spectrum(g, (0.0, 1e300))
        hi = ((solve_mod.MAX_WINDOW_COUNT - 6) * math.pi / 3.0) ** 2
        with pytest.raises(ValueError, match="may hold"):
            find_spectrum(g, (-1.0, hi * (1.0 + 1e-12)))
        for window in ((-1.0, hi * (1.0 - 1e-12)), (-1e300, 0.0)):
            with pytest.raises(AssertionError, match="counted"):
                find_spectrum(g, window)

    def test_deep_negative_window_finishes(self):
        # the bound reads hi alone, so a window deep below zero is solved
        with deadline(5):
            spec = find_spectrum(make_star([1.0, 0.7, 1.3]), (-1e300, 0.0))
        assert [r.mult for r in spec.records] == [1, 1]
        assert spec.records[1].lam == 0.0

    def test_unknown_method(self, star3):
        with pytest.raises(ValueError):
            find_spectrum(star3, (-1.0, 1.0), "shooting")

    def test_zero_only_window(self, star3):
        spec = find_spectrum(star3, (-0.5, 0.5))
        check(spec, [(0.0, 1)])

    def test_dirichlet_star_has_no_zero_mode(self):
        g = make_star([1.0] * 3, tip_bc="dirichlet")
        spec = find_spectrum(g, (-0.5, 0.5))
        assert spec.records == []

    def test_window_excludes_outside_roots(self, star3):
        spec = find_spectrum(star3, (0.5, 7.0))
        check(spec, [(1.067126678486186, 1), (6.470961399932133, 1)])

    def test_point_window_on_a_negative_root(self, star3):
        # the negative branch keeps a point window, as the positive one does
        lam = STAR3_EQUIL[0]
        spec = find_spectrum(star3, (lam, lam))
        check(spec, [(lam, 1)])
        assert spec.diagnostics == []

    def test_multiplicity_uncertain_diagnostic(self, star3, monkeypatch):
        # an absurd guard band flags every certification as shaky; this
        # exercises the diagnostic plumbing, not a real degeneracy
        monkeypatch.setattr(solve_mod, "MULT_GUARD", 1e10)
        spec = find_spectrum(star3, (-4.0, -1.0))
        assert any(d.startswith("MultiplicityUncertain") for d in spec.diagnostics)


class TestDualRoute:
    def test_agreement_away_from_poles(self, star3):
        # window stops short of pi^2, an eigenvalue and an edge Dirichlet
        # eigenvalue, which the tests below take
        e = find_spectrum(star3, (-10.0, 9.0), "edge")
        d = find_spectrum(star3, (-10.0, 9.0), "dtn")
        assert len(e.records) == len(d.records) == 4
        for re_, rd in zip(e.records, d.records):
            assert rd.lam == pytest.approx(re_.lam, abs=1e-9 * max(1, abs(re_.lam)))
            assert rd.mult == re_.mult

    def test_dtn_pole_coincident_eigenvalue_is_flagged(self):
        # pi^2 is an eigenvalue of this star and a Dirichlet eigenvalue of
        # the unit edge, where the edge's own DtN block has a pole; the DtN
        # route splits each edge, so its matrix is regular there and
        # certifies the root as the edge route does
        g = make_star([1.0, 0.7, 1.3])
        spec = find_spectrum(g, (8.0, 12.0), "dtn")
        check(spec, [(PI2, 1)], tol=1e-12)
        assert spec.diagnostics == []
        edge = find_spectrum(g, (8.0, 12.0), "edge")
        check(edge, [(PI2, 1)])

    def test_near_equal_figure8_roots_are_all_certified(self):
        # the loops' Dirichlet eigenvalues crowd this window, once DtN poles:
        # the DtN route certified 3 of its 8 roots, flagged 4 poles and left
        # the root 19.0129565 between two of them uncertified. The split
        # edges certify all 8, as the edge route does
        loop = 1.4409023604983773
        g = make_figure8(loop, loop * (1.0 + 9.435366872677488e-05))
        edge = find_spectrum(g, (3.6963, 76.7384), "edge")
        dtn = find_spectrum(g, (3.6963, 76.7384), "dtn")
        assert edge.diagnostics == dtn.diagnostics == []
        assert [r.mult for r in dtn.records] == [r.mult for r in edge.records]
        assert edge.count == 8
        for rd, re_ in zip(dtn.records, edge.records):
            assert abs(rd.lam - re_.lam) <= 1e-10 * abs(re_.lam)

    def test_figure8_negative_part_both_routes(self):
        g = make_figure8(0.7, 1.3)
        for method in ("edge", "dtn"):
            spec = find_spectrum(g, (-5.0, 0.5), method)
            check(spec, [(-1.0, 1), (0.0, 1)])

    def test_dtn_no_root_on_the_flank_of_zero(self):
        # the first positive bracket holds only the flank of the lambda = 0
        # dip and refines to its inner end, ~1.00000465e-7, where the DtN
        # rank ratio reads below rank_tol; the explicit zero test owns it
        g = make_cycle([0.4, 0.6, 0.3, 0.7])
        edge = find_spectrum(g, (-16.0, 50.0), "edge")
        dtn = find_spectrum(g, (-16.0, 50.0), "dtn")
        assert not [r.lam for r in dtn.records if 0.0 < abs(r.lam) < 1e-6]
        assert dtn.diagnostics == []
        assert [r.mult for r in dtn.records] == [r.mult for r in edge.records]
        assert [r.lam for r in dtn.records] == pytest.approx(
            [r.lam for r in edge.records], abs=1e-8)
        assert [r.mult for r in dtn.records] == [1, 2, 2]

    def test_all_singular_grid_warns_nothing(self):
        # every point of the positive grid sits on pi^2, an edge Dirichlet
        # eigenvalue of the unit edge, where the split DtN matrix is regular
        g = make_star([1.0, 0.7, 1.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = find_spectrum(g, (PI2, PI2), method="dtn")
        assert spec.window == (PI2, PI2)
        # the one-point cell's untrusted count keeps it open, and its point
        # is certified. The completeness probes sit within rounding of the
        # root pi^2, so the check is named untrusted
        check(spec, [(PI2, 1)], tol=1e-12)
        assert spec.diagnostics == [f"CountUntrusted(lo={PI2:.12g}, "
                                    f"hi={PI2:.12g})"]

    @pytest.mark.parametrize("half", [1e-3, 0.1, 1.0])
    def test_narrow_window_around_pole_is_flagged(self, half):
        # a window no wider than the cell width is one cell and one
        # candidate; a wider one is first split at its middle, the edge
        # Dirichlet eigenvalue pi^2 itself, whose count is untrusted, so the
        # cells on both sides stay open. Either way the DtN route certifies
        # the one root pi^2, and no flank of it
        g = make_star([1.0, 0.7, 1.3])
        window = (PI2 - half, PI2 + half)
        spec = find_spectrum(g, window, "dtn")
        check(spec, [(PI2, 1)], tol=1e-12)
        assert spec.diagnostics == []
        check(find_spectrum(g, window, "edge"), [(PI2, 1)])

    @pytest.mark.parametrize("method", ["edge", "dtn"])
    def test_one_matrix_svdvals_match_former_form(self, method):
        # columns equilibrated on the negative branch only, then an SVD
        g = make_star([1.0, 0.7, 1.3])
        for lam in (-30.0, -4.2, -0.3, 0.0, 0.7, 9.5, 40.0):
            mat = build_secular_matrix(g, lam, method)
            ref = np.linalg.svd(equilibrate_columns(mat)[0] if lam < 0.0
                                else mat, compute_uv=False)
            assert solve_mod._svdvals(mat, lam).tobytes() == ref.tobytes()

    def test_dtn_grid_maps_singular_points_to_inf(self, star3):
        # (pi / (alpha l))^2 is a Dirichlet eigenvalue of every unit edge's
        # first piece: no DtN map there. pi^2, the edge's own, is regular
        pole = (math.pi / secular_mod._SPLIT) ** 2
        svals = _sigma_grid(star3, prepare_structure(star3),
                            [2.0, PI2, pole, 70.0], "dtn")
        assert np.isinf(svals[2]).all()
        assert np.isfinite(svals[[0, 1, 3]]).all()

    def test_dtn_grid_propagates_other_errors(self, star3, monkeypatch):
        # the grid builds its matrices in batches; only the singular mask
        # turns into inf, any error of the builder escapes
        def broken(g, lams):
            raise ValueError("not a DtN pole")

        monkeypatch.setattr(solve_mod, "build_dtn_grid", broken)
        with pytest.raises(ValueError, match="not a DtN pole"):
            _sigma_grid(star3, prepare_structure(star3), [2.0], "dtn")


class TestCompleteness:
    """The window count N(hi+) - N(lo-) against the certified records."""

    def test_spurious_dtn_root_is_named(self):
        # the 1e-6 edge's DtN entries (about 1/l) once made the DtN route
        # certify a root at the window end, named only by the count. Cells
        # without a count change are never refined now, so the route finds
        # what the edge route finds, and says nothing
        g = make_star([1.0, 0.7, 1e-6])
        spec = find_spectrum(g, (0.5, 30.0), "dtn")
        edge = find_spectrum(g, (0.5, 30.0), "edge")
        assert edge.diagnostics == spec.diagnostics == [] and edge.count == 2
        assert [r.mult for r in spec.records] == [r.mult for r in edge.records]
        assert [r.lam for r in spec.records] == pytest.approx(
            [r.lam for r in edge.records], rel=1e-9)

    @pytest.mark.parametrize("short", [1e-7, 1e-8])
    def test_short_edge_is_no_dtn_pole(self, short):
        # a short edge's DtN entries are about 1 / l everywhere, far from its
        # pieces' first poles, and the true roots are still found. Where the
        # DtN route then disagrees with the count, it says so
        g = make_star([1.0, 0.7, short])
        spec = find_spectrum(g, (0.5, 30.0), "dtn")
        edge = find_spectrum(g, (0.5, 30.0), "edge")
        assert edge.diagnostics == []
        assert [r.lam for r in edge.records] == pytest.approx(
            [3.4151, 13.6603], abs=1e-4)
        assert [r.lam for r in spec.records] == pytest.approx(
            [r.lam for r in edge.records], rel=1e-6)
        for rd, re_ in zip(spec.records, edge.records):
            if rd.mult != re_.mult:
                assert f"MultiplicityUncertain(lambda={rd.lam:.12g})" in \
                    spec.diagnostics
        if spec.count != edge.count:
            assert spec.diagnostics[-1].startswith("CountMismatch")

    @staticmethod
    def off_by_one_above(monkeypatch, hi, trusted):
        """Make count_below count one eigenvalue too many above hi, and mark
        those probes trusted or not; the scan never probes above hi."""
        def counted(g, lams):
            lams = np.asarray(lams, dtype=float).reshape(-1)
            counts, ok, *parts = _count_parts(g, lams)
            return (counts + (lams > hi), ok & (trusted | (lams <= hi)),
                    *parts)

        monkeypatch.setattr(solve_mod, "_count_parts", counted)

    def test_miscount_is_reported(self, star3, monkeypatch):
        ref = find_spectrum(star3, (-10.0, 10.0))
        self.off_by_one_above(monkeypatch, 10.0, trusted=True)
        spec = find_spectrum(star3, (-10.0, 10.0))
        assert spec.records == ref.records
        assert spec.diagnostics == [
            "CountMismatch(lo=-10, hi=10, certified=5, count=6)"]

    @pytest.mark.parametrize("length, window, method", [
        (1e-7, None, "edge"), (1e-7, None, "dtn"), (1e-8, None, "edge"),
        (1e-12, (0.5, 30.0), "edge"), (1e-12, (0.5, 30.0), "dtn")])
    def test_untrusted_probe_is_named(self, length, window, method):
        # beside a short edge Q's entries grow like 1 / l, and so does the
        # trust threshold: a completeness probe is untrusted, and the check
        # it cannot make is named instead of passing silently
        g = make_star([1.0, 0.7, length])
        lo, hi = window or (default_negative_floor(g), -1e-8)
        spec = find_spectrum(g, (lo, hi), method)
        assert f"CountUntrusted(lo={lo:.12g}, hi={hi:.12g})" in spec.diagnostics
        assert not any(d.startswith("CountMismatch") for d in spec.diagnostics)

    def test_untrusted_end_count_decides_nothing(self, star3, monkeypatch):
        # the miscount is not reported, but the check is named untrusted
        ref = find_spectrum(star3, (-10.0, 10.0))
        self.off_by_one_above(monkeypatch, 10.0, trusted=False)
        spec = find_spectrum(star3, (-10.0, 10.0))
        assert repr(spec.records) == repr(ref.records)
        assert ref.diagnostics == []
        assert spec.diagnostics == ["CountUntrusted(lo=-10, hi=10)"]


def _sampled(seed):
    return sample_graph(np.random.default_rng(seed), 5, total=2.0)


# (graph, window): stars with Neumann and Dirichlet tips, equilateral even
# stars, figure-8s (the equilateral one with triple roots on the loops'
# Dirichlet eigenvalues), the one-edge cycle (roots of full multiplicity), a
# 4-cycle, a path, sampled multigraphs with loops and parallel edges, and
# windows on and around pi^2, a unit edge's Dirichlet eigenvalue
IDENTITY_CASES = {
    "star3": (make_star([1.0, 0.7, 1.3]), (-10.0, 30.0)),
    "star3-dirichlet": (make_star([1.0, 0.7, 1.3], tip_bc="dirichlet"),
                        (-10.0, 60.0)),
    "star4-equilateral": (make_star([1.0] * 4), (-20.0, 60.0)),
    "star6-equilateral": (make_star([0.7] * 6), (-40.0, 60.0)),
    "figure8-0.3-0.9": (make_figure8(0.3, 0.9), (-5.0, 60.0)),
    "figure8-equilateral": (make_figure8(0.5, 0.5), (-5.0, 700.0)),
    "cycle1": (make_cycle([1.0]), (-5.0, 170.0)),
    "cycle4": (make_cycle([0.4, 0.6, 0.3, 0.7]), (-16.0, 50.0)),
    "path": (make_path([0.6, 0.4]), (-5.0, 90.0)),
    "sampled6": (_sampled(6), (-30.0, 60.0)),
    "sampled11": (_sampled(11), (-30.0, 60.0)),
    "pole-point": (make_star([1.0, 0.7, 1.3]), (PI2, PI2)),
    "pole-narrow": (make_star([1.0, 0.7, 1.3]), (PI2 - 1e-3, PI2 + 1e-3)),
    "pole-wide": (make_star([1.0, 0.7, 1.3]), (8.0, 12.0)),
}


# (records as (lambda, mult), diagnostic kinds) of every IDENTITY_CASES window
# on the edge route, frozen from the full-grid sigma scan (every point of a
# grid of the cell width, brackets around its minima) that count isolation
# replaced. The DtN route, whose split edges have no pole on an edge
# Dirichlet eigenvalue, must give the same
FULL_GRID_SPECTRA = {
    "cycle1": (
        [(0.0, 1), (39.47841760435752, 2), (157.91367041742973, 2)],
        []),
    "cycle4": (
        [(0.0, 1), (9.86960440108949, 2), (39.478417604357524, 2)],
        []),
    "figure8-0.3-0.9": (
        [(-1.000000000000142, 1), (0.0, 1), (27.415567780803542, 1),
         (48.73878716587357, 1)],
        []),
    "figure8-equilateral": (
        [(-1.000000000000142, 1), (0.0, 1), (39.47841760435737, 1),
         (157.91367041742984, 3), (355.3057584392168, 1), (631.654681669719,
         3)],
        []),
    "path": (
        [(0.0, 1), (9.869604401089537, 1), (39.478417604357276, 1),
         (88.82643960980414, 1)],
        []),
    "pole-narrow": (
        [(9.86960440108936, 1)],
        []),
    # the full-grid scan had no CountUntrusted: both completeness probes of
    # the one-point window sit within rounding of the root pi^2
    "pole-point": (
        [(9.869604401089358, 1)],
        ["CountUntrusted"]),
    "pole-wide": (
        [(9.869604401089253, 1)],
        []),
    "sampled11": (
        [(-16.549615541929246, 1), (-1.7618563491761194, 1),
         (-0.9374422682460687, 1), (-0.7779552013213085, 1), (0.0, 1),
         (10.251405315562026, 1), (25.01089651548199, 1), (58.82775238719454,
         1)],
        []),
    "sampled6": (
        [(-19.798190448468382, 1), (-2.7558381617066905, 1),
         (-0.09127495298748191, 1), (0.0, 1), (10.54523210063416, 1),
         (38.558910225893264, 1), (50.816311448712696, 1)],
        []),
    "star3-dirichlet": (
        [(-2.363985693651558, 1), (2.4674011002722303, 1),
         (5.9469876975412985, 1), (13.200196726165146, 1), (22.20660990245102,
         1), (36.11419002307062, 1), (45.43976737434642, 1)],
        []),
    "star3": (
        [(-3.4617242468051828, 1), (0.0, 1), (1.0697613270244237, 1),
         (5.222405795808801, 1), (9.869604401089553, 1), (19.34370045266015,
         1), (24.246622228261685, 1)],
        []),
    "star4-equilateral": (
        [(-1.4392288398907136, 1), (0.0, 1), (0.7401738843948504, 1),
         (2.4674011002722303, 1), (7.8309644612381, 1), (9.869604401089145, 1),
         (11.734861829941819, 1), (22.20660990245102, 1), (37.46970727849981,
         1), (39.47841760435746, 1), (41.438807847570544, 1)],
        []),
    "star6-equilateral": (
        [(-3.8710354230140553, 1), (-0.9488111930944065, 1), (0.0, 1),
         (0.7247576913768314, 1), (1.731503287224418, 1), (5.0355124495354815,
         1), (15.12810735381193, 1), (18.465895010723454, 1),
         (20.14204979814165, 1), (21.75231482809856, 1), (24.673945424222666,
         1), (45.3196120458184, 1)],
        []),
}


def diagnostic_kinds(spec):
    return [d.split("(")[0] for d in spec.diagnostics]


class TestCountGuidedScan:
    """Counts isolate the eigenvalues in cells, sigma refines each cell."""

    @pytest.mark.parametrize("method", ["edge", "dtn"])
    @pytest.mark.parametrize("name", sorted(IDENTITY_CASES))
    def test_identical_to_full_grid(self, name, method):
        # same multiplicities and diagnostics as the full-grid scan, and the
        # same eigenvalues up to the refinement of a different bracket
        g, window = IDENTITY_CASES[name]
        spec = find_spectrum(g, window, method)
        records, kinds = FULL_GRID_SPECTRA[name]
        assert diagnostic_kinds(spec) == kinds
        assert [r.mult for r in spec.records] == [m for _, m in records]
        for r, (lam, _) in zip(spec.records, records):
            assert abs(r.lam - lam) <= 1e-10 * max(1.0, abs(lam))

    def test_few_points_evaluated(self, monkeypatch):
        points = []

        def recorded(g, struct, lams, method):
            points.append(np.size(lams))
            return _sigma_grid(g, struct, lams, method)

        monkeypatch.setattr(solve_mod, "_sigma_grid", recorded)
        g = make_figure8(0.5, 0.5)
        spec = find_spectrum(g, (-5.0, 700.0))
        assert spec.count == 10
        # a grid of the cell width holds 70,000 points
        assert 700.0 / default_positive_step(g) >= 70_000
        assert sum(points) < 2_000

    def test_window_without_eigenvalues_evaluates_no_sigma(self, star3,
                                                          monkeypatch):
        points = []

        def recorded(g, struct, lams, method):
            points.append(np.size(lams))
            return _sigma_grid(g, struct, lams, method)

        assert _isolate(star3, [[2.0, 6.0]], 0.01, lambda x: x)[0].shape == (0, 2)
        monkeypatch.setattr(solve_mod, "_sigma_grid", recorded)
        spec = find_spectrum(star3, (2.0, 6.0))  # between 1.067 and 6.471
        assert spec.records == [] and spec.diagnostics == []
        assert sum(points) == 0

    def test_untrusted_counts_evaluate_every_point(self, star3, monkeypatch):
        # no count settles a cell, so the cells cover the whole window, each
        # is refined on its own, and every root is still found
        def untrusted(g, lams):
            counts, _, *parts = _count_parts(g, lams)
            return counts, np.zeros(counts.size, dtype=bool), *parts

        monkeypatch.setattr(solve_mod, "_count_parts", untrusted)
        cells = _isolate(star3, [[-10.0, 10.0]], 0.05, lambda x: x)[0]
        cells = cells[np.argsort(cells[:, 0])]
        assert cells[0, 0] == -10.0 and cells[-1, 1] == 10.0
        assert np.array_equal(cells[1:, 0], cells[:-1, 1])
        assert np.all(cells[:, 1] - cells[:, 0] <= 0.05)
        spec = find_spectrum(star3, (-10.0, 10.0))
        check(spec, [(lam, 1) for lam in STAR3_EQUIL])
        assert spec.diagnostics == ["CountUntrusted(lo=-10, hi=10)"]

    @staticmethod
    def recorded_brackets(monkeypatch):
        """The (a, b) arrays of every _golden_min call find_spectrum makes."""
        brackets = []

        def recorded(fn, a, b, *args):
            brackets.append((np.array(a), np.array(b)))
            return _golden_min(fn, a, b, *args)

        monkeypatch.setattr(solve_mod, "_golden_min", recorded)
        return brackets

    def test_cells_holding_roots_are_padded(self, monkeypatch):
        # the cell holding the root pi^2, a unit edge's Dirichlet eigenvalue,
        # is refined over the cell widened by half a width on each side and
        # clipped to the window, and the DtN route certifies the root there
        g = make_star([1.0, 0.7, 1.3])
        width = default_positive_step(g)
        brackets = self.recorded_brackets(monkeypatch)
        spec = find_spectrum(g, (8.0, 12.0), "dtn")
        check(spec, [(PI2, 1)], tol=1e-12)
        assert spec.diagnostics == []
        cells = _isolate(g, [[8.0, 12.0]], width, lambda x: x)[0]
        assert cells.shape == (1, 2) and cells[0, 1] - cells[0, 0] <= width
        assert cells[0, 0] < PI2 < cells[0, 1]
        (a, b), = brackets
        assert a.tolist() == [cells[0, 0] - width / 2.0]
        assert b.tolist() == [cells[0, 1] + width / 2.0]
        brackets.clear()
        spec = find_spectrum(g, (PI2 - 0.003, 12.0), "dtn")
        # clipped to the window, and the root found in one search
        (a, b), = brackets
        assert a.tolist() == [PI2 - 0.003]
        check(spec, [(PI2, 1)], tol=1e-12)
        assert spec.diagnostics == []

    def test_root_on_a_pole_is_found(self):
        # on the edge route sigma certifies the root pi^2 on the unit edge's
        # Dirichlet pole
        spec = find_spectrum(make_star([1.0, 0.7, 1.3]), (8.0, 12.0))
        assert len(spec.records) == 1 and spec.records[0].mult == 1
        assert abs(spec.records[0].lam - PI2) <= solve_mod.REFINE_TOL
        assert spec.diagnostics == []

    @pytest.mark.parametrize("shift", [1e-8, 1e-12])
    def test_root_beside_a_pole_is_searched(self, shift, monkeypatch):
        # lengthening the 1.3 edge moves the root off pi^2. At shift 1e-8
        # sigma at the pole still passes the rank test, but the search over
        # the padded cell finds the root of the reduced secular function
        g = make_star([1.0, 0.7, 1.3 + shift])
        s = _sigma_grid(g, prepare_structure(g), np.array([PI2]), "edge")[0]
        assert s[-1] < 1e-8 * s[0]
        brackets = self.recorded_brackets(monkeypatch)
        spec = find_spectrum(g, (8.0, 12.0))
        (a, b), = brackets
        assert b[0] - a[0] >= default_positive_step(g)

        def reduced(k):  # the Neumann 3-star form at lambda = k^2, times tan k
            c2, c3 = 1.0 / math.tan(0.7 * k), 1.0 / math.tan((1.3 + shift) * k)
            return c2 + c3 + math.tan(k) * (c2 * c3 - k * k)

        k = brentq(reduced, math.pi - 1e-3, math.pi + 1e-3, xtol=1e-16)
        assert spec.diagnostics == [] and len(spec.records) == 1
        assert spec.records[0].mult == 1
        assert abs(spec.records[0].lam - k * k) <= 1e-12

    @pytest.mark.parametrize("loop", [0.5, 0.55])
    def test_equilateral_figure8_needs_few_sigma_calls(self, loop,
                                                       monkeypatch):
        # every positive root of the equilateral figure-8 sits on a loop's
        # Dirichlet pole (n pi / loop)^2, where sigma_min is a clean V:
        # golden section's opening call, and V-steps with their
        # confirmation. Measured: 5 calls for both loops
        calls = []

        def recorded(g, struct, lams, method):
            calls.append(np.size(lams))
            return _sigma_grid(g, struct, lams, method)

        monkeypatch.setattr(solve_mod, "_sigma_grid", recorded)
        spec = find_spectrum(make_figure8(loop, loop), (-5.0, 700.0))
        n = range(1, int(math.sqrt(700.0) * loop / math.pi) + 1)
        check(spec, [(-1.0, 1), (0.0, 1)]
              + [((j * math.pi / loop) ** 2, 1 if j % 2 else 3) for j in n],
              tol=1e-10)
        assert spec.diagnostics == []
        assert len(calls) <= 5

    def test_pole_free_cells_are_refined_on_sigma(self, star3, monkeypatch):
        # a pole-free cell reaches golden section as the count cell padded
        # by half a width, and sigma refines its root to refine_tol
        width = default_positive_step(star3)
        brackets = self.recorded_brackets(monkeypatch)
        spec = find_spectrum(star3, (0.5, 2.0))
        check(spec, [(1.067126678486186, 1)], tol=1e-12)
        cells = _isolate(star3, [[0.5, 2.0]], width, lambda x: x)[0]
        (a, b), = brackets
        assert a.tolist() == [cells[0, 0] - width / 2.0]
        assert b.tolist() == [cells[0, 1] + width / 2.0]

    def test_few_sigma_calls_on_pole_free_cells(self, monkeypatch):
        # every root of the Dirichlet star lies off the edge Dirichlet
        # spectrum: sigma is evaluated at golden section's opening points and
        # in a few rounds of V-steps and confirmations. Measured: 5 calls
        calls = []

        def recorded(g, struct, lams, method):
            calls.append(np.size(lams))
            return _sigma_grid(g, struct, lams, method)

        monkeypatch.setattr(solve_mod, "_sigma_grid", recorded)
        g, window = IDENTITY_CASES["star3-dirichlet"]
        spec = find_spectrum(g, window)
        assert spec.diagnostics == [] and spec.count == 7
        assert len(calls) <= 5

    def test_untrusted_cells_are_not_narrowed(self, star3, monkeypatch):
        # with every count untrusted no cell is dropped: the cells cover the
        # window, each golden bracket is a whole padded cell, and every root
        # is still found
        monkeypatch.setattr(secular_mod, "_COUNT_TRUST", np.inf)
        assert not count_below(star3, [-5.0, 3.0])[1].any()
        brackets = self.recorded_brackets(monkeypatch)
        spec = find_spectrum(star3, (-10.0, 10.0))
        check(spec, [(lam, 1) for lam in STAR3_EQUIL])
        assert spec.diagnostics == ["CountUntrusted(lo=-10, hi=10)"]
        (a, b), = brackets
        assert np.all(b - a >= _KAPPA_WIDTH / 2.0)

    def test_double_roots_keep_their_multiplicity(self, monkeypatch):
        # the cycle's double roots pi^2 and 4 pi^2 are refined like any
        # other root, each in one bracket, and certified with multiplicity 2
        brackets = self.recorded_brackets(monkeypatch)
        g, window = IDENTITY_CASES["cycle4"]
        spec = find_spectrum(g, window)
        check(spec, [(0.0, 1), (PI2, 2), (4.0 * PI2, 2)], tol=1e-12)
        (a, b), = brackets
        for lam in (PI2, 4.0 * PI2):
            hit = (a <= lam + 1e-12) & (lam - 1e-12 <= b)
            assert hit.sum() == 1

    @pytest.mark.parametrize("method", ["edge", "dtn"])
    @pytest.mark.parametrize("window", [(32.5, 32.7), (30.0, 35.0), (0.0, 40.0)])
    def test_close_roots_are_both_found(self, window, method):
        # merging two tips of this 4-star puts two roots 0.0097 apart, less
        # than the cell width 0.01. A padded search can slide onto the other
        # cell's root; a candidate outside its cell is none, and the cell is
        # searched again after count bisection
        g = apply_surgery(make_star([0.24637772951322695, 0.31956165121482083,
                                     0.7810700918519062, 0.853935106921419]),
                          Merge("v3", "v2"))
        spec = find_spectrum(g, window, method)
        assert spec.diagnostics == []
        got = [r for r in spec.records if 32.5 < r.lam < 32.7]
        assert [r.mult for r in got] == [1, 1]
        for r, lam in zip(got, [32.5893477603954, 32.59905829469669]):
            assert abs(r.lam - lam) <= 1e-12 * lam

    def test_root_in_a_narrow_sigma_notch_is_found(self):
        # three roots of a near-equal figure-8 lie 0.0045 apart near 115.1,
        # and sigma_min dips to each in a notch about 1e-4 wide on a plateau
        # of about 1e-5, which the search over a padded 0.01 cell misses.
        # The cell's trusted counts hold a root that sigma did not certify
        # there, so counts bisect it and sigma searches it again
        loop = 0.5856491671436244
        g = make_figure8(loop, loop * (1.0 + 3.908645348885937e-05))
        spec = find_spectrum(g, (114.0, 116.0))
        assert spec.diagnostics == []
        assert [r.mult for r in spec.records] == [1, 1, 1]
        lams = [r.lam for r in spec.records]
        # the exact count steps by one across each root, and only there
        probes = [114.0] + [x for lam in lams for x in (lam - 1e-5, lam + 1e-5)]
        counts, trusted = count_below(g, probes + [116.0])
        assert trusted.all()
        assert np.diff(counts).tolist() == [0, 1, 0, 1, 0, 1, 0]

    def test_dtn_roots_beside_a_short_edge_are_not_bracket_ends(self):
        # beside a 1e-6 edge the DtN entries reach 1e6 and sigma_min is so
        # noisy that a search ending on an end of its bracket can pass the
        # rank test 1.8e-3 from the root. Every cell is padded, and a
        # candidate outside its cell is not a root
        g = make_star([1.0, 0.7, 1e-6])
        edge = find_spectrum(g, (0.5, 30.0))
        dtn = find_spectrum(g, (0.5, 30.0), "dtn")
        assert edge.diagnostics == [] and dtn.diagnostics == []
        assert [r.mult for r in dtn.records] == [1, 1]
        assert [r.mult for r in edge.records] == [1, 1]
        for a, b in zip(dtn.records, edge.records):
            assert abs(a.lam - b.lam) <= 1e-9 * b.lam

    @pytest.mark.parametrize("window", [(32.5, 32.7), (30.0, 35.0)])
    def test_dtn_close_roots_beside_a_short_edge_keep_their_places(
            self, window):
        # the merged 4-star above with a 1e-6 edge attached at its centre:
        # two roots 0.0087 apart, less than a cell width, and a noisy
        # sigma_min on the DtN route. Each root is found where the edge
        # route puts it, not at a cell or bracket end. (The DtN rank rule
        # reads both as double here, which the count check names.)
        g = apply_surgery(apply_surgery(
            make_star([0.24637772951322695, 0.31956165121482083,
                       0.7810700918519062, 0.853935106921419]),
            Merge("v3", "v2")), AttachEdge("v0", 1e-6))
        edge = find_spectrum(g, window)
        dtn = find_spectrum(g, window, "dtn")
        assert edge.diagnostics == [] and [r.mult for r in edge.records] == [1, 1]
        assert len(dtn.records) == 2
        for a, b in zip(dtn.records, edge.records):
            assert abs(a.lam - b.lam) <= 1e-9 * b.lam

    @pytest.mark.parametrize("short, roots", [
        (1e-7, [3.4150867286307403, 13.660344866513093]),
        (1e-8, [3.4150878981158543, 13.660351387661684])])
    def test_short_edge_roots_keep_their_accuracy(self, short, roots):
        # Q's entries grow like 1 / l, which blurs the counts' signs near
        # each root; sigma refines each padded cell to refine_tol all the same
        spec = find_spectrum(make_star([1.0, 0.7, short]), (0.5, 30.0))
        assert spec.diagnostics == []
        assert [r.mult for r in spec.records] == [1, 1]
        for r, lam in zip(spec.records, roots):
            assert abs(r.lam - lam) <= 1e-12 * lam

    def test_root_on_a_shared_cell_end_is_one_record(self, star3):
        # the window's middle is the root pi^2: the first split lands on it,
        # its count is untrusted, and the cells on both sides stay open; both
        # refine to the root, which is reported once
        lo, hi = PI2 - 0.5, PI2 + 0.5
        assert (lo + hi) / 2.0 == PI2
        cells = _isolate(star3, [[lo, hi]], default_positive_step(star3),
                         lambda x: x)[0]
        assert sorted(cells[:, 0].tolist() + cells[:, 1].tolist()).count(
            PI2) == 2
        spec = find_spectrum(star3, (lo, hi))
        check(spec, [(PI2, 1)])
        assert spec.diagnostics == []


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run for `seconds`, so that
    a loop that never ends fails fast instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# a cell of width 0.01 at the first eigenvalue, about 2.47e14, is narrower
# than 4 float spacings there (0.03125 each)
TINY_DIRICHLET_STAR = make_star([1e-7] * 4, tip_bc="dirichlet")


def reference_isolate(g, cells, width, lam_of, depths=None):
    """`_isolate` as a plain recursive bisection: one count per point, each
    start cell bisected on its own, left half first, down to its width or 4
    float spacings of its larger |end|. Appends to depths the round of each
    midpoint counted, 1 for a start cell's own."""
    def count(x):
        n, ok = solve_mod._count_parts(g, lam_of(np.array([x])))[:2]
        return int(n[0]), bool(ok[0])

    out = []

    def bisect(x0, x1, end0, end1, w, depth):
        (n0, ok0), (n1, ok1) = end0, end1
        if n0 == n1 and ok0 and ok1:
            return
        if not x1 - x0 > max(w, 4.0 * math.ulp(max(-x0, x1))):
            out.append(((x0, x1), (n0, n1), (ok0, ok1)))
            return
        mid = (x0 + x1) / 2.0
        at_mid = count(mid)
        if depths is not None:
            depths.append(depth)
        bisect(x0, mid, end0, at_mid, w, depth + 1)
        bisect(mid, x1, at_mid, end1, w, depth + 1)

    widths = np.broadcast_to(np.asarray(width, dtype=float), len(cells))
    for (x0, x1), w in sorted(zip(map(tuple, np.asarray(cells).tolist()),
                                  widths.tolist())):
        bisect(x0, x1, count(x0), count(x1), w, 1)
    return tuple(np.array([c[i] for c in out], dtype=t).reshape(-1, 2)
                 for i, t in enumerate((float, np.intp, bool)))


def branch_lam(x):
    return np.where(x < 0.0, -x * x, x)


class TestIsolate:
    """`_isolate` keeps its live cells in lists; it must return what a plain
    recursive bisection on the same counts returns, dtypes included. Both
    count one point at a time: a batched count's Q may differ from a lone
    one in its last bits, and that may flip a count that is untrusted or
    barely trusted."""

    GRAPHS = {"star3": make_star([1.0, 0.7, 1.3]),
              "figure8": make_figure8(0.3, 0.9),
              "star3-dirichlet": make_star([1.0, 0.7, 1.3],
                                           tip_bc="dirichlet")}

    @staticmethod
    def assert_same(got, want):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.fixture(autouse=True)
    def pointwise(self, monkeypatch):
        def counted(g, lams):
            parts = [_count_parts(g, [lam]) for lam in np.ravel(lams)]
            return (tuple(map(np.concatenate, zip(*parts))) if parts
                    else _count_parts(g, []))

        monkeypatch.setattr(solve_mod, "_count_parts", counted)

    @staticmethod
    def branches(g, lo, hi):
        """find_spectrum's start cells and widths for the window."""
        cells = np.array([[-math.sqrt(-lo), -1e-4], [1e-7, hi]])
        return cells, np.array([_KAPPA_WIDTH, default_positive_step(g)])

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_branches_match_the_reference(self, name):
        g = self.GRAPHS[name]
        cells, width = self.branches(g, default_negative_floor(g), 60.0)
        got = _isolate(g, cells, width, branch_lam)
        assert len(got[0]) >= 3
        self.assert_same(got, reference_isolate(g, cells, width, branch_lam))

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_per_cell_widths_match_the_reference(self, name):
        # the count re-search passes one width per cell, in any order
        g = self.GRAPHS[name]
        cells, width = self.branches(g, default_negative_floor(g), 60.0)
        cells = _isolate(g, cells, width, branch_lam)[0][::-1]
        width = np.geomspace(1e-9, 1e-5, len(cells))
        got = _isolate(g, cells, width, branch_lam)
        self.assert_same(got, reference_isolate(g, cells, width, branch_lam))

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_two_rounds_per_count_call(self, name, monkeypatch):
        # R rounds of bisection take the opening call (the ends, the probes
        # and the points of the first two rounds) and one call per two of
        # the other rounds
        g = self.GRAPHS[name]
        cells, width = self.branches(g, default_negative_floor(g), 60.0)
        pointwise, calls = solve_mod._count_parts, []

        def counted(g, lams):
            calls.append(np.size(lams))
            return pointwise(g, lams)

        monkeypatch.setattr(solve_mod, "_count_parts", counted)
        probes = [-40.0, 60.5]
        got = _isolate(g, cells, width, branch_lam, probes)
        monkeypatch.setattr(solve_mod, "_count_parts", pointwise)
        depths = []
        self.assert_same(got, reference_isolate(g, cells, width, branch_lam,
                                                depths))
        assert len(calls) <= math.ceil((max(depths) - 2) / 2) + 1
        # every start cell here splits, and so do both its halves
        assert max(depths) > 2 and np.all(cells[:, 1] - cells[:, 0] > 2 * width)
        assert calls[0] == cells.size + len(probes) + 3 * len(cells)
        self.assert_same(got[3], pointwise(g, probes)[:2])

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_cut_keeps_the_reference_cells_below_it(self, name, k):
        # with first=k the cells below the cut are the reference's, and the
        # cut is the lowest trusted end among them whose count reaches the
        # lower probe's count plus k
        g = self.GRAPHS[name]
        lo = default_negative_floor(g)
        cells, width = self.branches(g, lo, 60.0)
        got = _isolate(g, cells, width, branch_lam, [lo * (1.0 + 1e-9)],
                       first=k)
        (n_lo,), (ok_lo,) = got[3]
        x, count = got[4]
        assert ok_lo and count >= n_lo + k
        n_x, ok_x = solve_mod.count_below(g, branch_lam(np.array([x])))
        assert n_x.tolist() == [count] and ok_x.tolist() == [True]
        ref = reference_isolate(g, cells, width, branch_lam)
        below = ref[0][:, 0] < x
        assert 0 < below.sum() < len(ref[0])
        self.assert_same(got[:3], tuple(v[below] for v in ref))
        ends, n, ok = (v[below] for v in ref)
        assert not np.any(ok & (n >= n_lo + k) & (ends < x))

    @staticmethod
    def calls_made(monkeypatch, skew=None):
        """The lambdas of each count call made from now on, over the
        pointwise helper, whose mu skew(lams, n, nd, mu) may rewrite."""
        pointwise, calls = solve_mod._count_parts, []

        def counted(g, lams):
            lams = np.ravel(lams)
            calls.append(lams.tolist())
            n, ok, nd, mu = pointwise(g, lams)
            return n, ok, nd, mu if skew is None else skew(lams, n, nd, mu)

        monkeypatch.setattr(solve_mod, "_count_parts", counted)
        return calls

    def test_ground_state_window_jumps_to_its_leaf(self, monkeypatch):
        # the window first_eigenvalues solves for the ground state: the
        # opening call and two jumps, where bisection alone took 7 calls.
        # Below the cut the cells are the reference's
        g = make_star([1.0, 0.8, 1.2])
        lo = default_negative_floor(g)
        end = (3.0 * math.pi / g.total_length) ** 2
        while not count_below(g, [end])[1][0]:
            end *= 1.0 + 1e-6
        cells, width = self.branches(g, lo, end)
        calls = self.calls_made(monkeypatch)
        got = _isolate(g, cells, width, branch_lam, [lo * (1.0 + 1e-9)],
                       first=1)
        assert len(calls) <= 4
        ref = reference_isolate(g, cells, width, branch_lam)
        below = ref[0][:, 0] < got[4][0]
        assert below.sum() == 1 and got[1].tolist() == [[0, 1]]
        self.assert_same(got[:3], tuple(v[below] for v in ref))

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_misled_jumps_match_the_reference(self, name, monkeypatch):
        # mu rewritten as 1 / (r - x) above and -1 / (x - r) below each
        # reference root r (its leaf's midpoint, in x) puts a cell's
        # regula-falsi root at the mirror image of r across the cell's
        # midpoint, so every walk leaves r's half at its first step and
        # every jump misses. The cells then bisect through every midpoint
        # the reference counts, which the unskewed jumps skip, and the
        # counts still decide every cell, at the price of more calls
        g = self.GRAPHS[name]
        cells, width = self.branches(g, default_negative_floor(g), 60.0)
        counted = self.calls_made(monkeypatch)
        ref = reference_isolate(g, cells, width, branch_lam)
        bisected = {lam for call in counted for lam in call}
        roots = ref[0][ref[1][:, 1] > ref[1][:, 0]].mean(axis=1)

        def mirrored(lams, n, nd, mu):
            x = np.where(lams < 0.0, -np.sqrt(np.abs(lams)), lams)
            mu, above = mu.copy(), np.searchsorted(roots, x, side="right")
            for i, j, k in zip(range(len(x)), n - nd, above):
                if j < mu.shape[1] and k < len(roots):
                    mu[i, j] = 1.0 / (roots[k] - x[i])
                if j > 0 and k > 0:
                    mu[i, j - 1] = -1.0 / (x[i] - roots[k - 1])
            return mu

        calls = self.calls_made(monkeypatch)
        _isolate(g, cells, width, branch_lam)
        straight = len(calls)
        assert not bisected <= {lam for call in calls for lam in call}
        calls = self.calls_made(monkeypatch, mirrored)
        got = _isolate(g, cells, width, branch_lam)
        assert len(calls) > straight
        assert bisected <= {lam for call in calls for lam in call}
        self.assert_same(got, ref)

    def test_untrusted_counts_match_the_reference(self, monkeypatch):
        counted = solve_mod._count_parts

        def untrusted(g, lams):
            counts, _, *parts = counted(g, lams)
            return counts, np.zeros(counts.size, dtype=bool), *parts

        monkeypatch.setattr(solve_mod, "_count_parts", untrusted)
        g = self.GRAPHS["star3"]
        got = _isolate(g, [[-3.0, 3.0]], 0.05, lambda x: x)
        assert len(got[0]) == 128 and not got[2].any()
        self.assert_same(got, reference_isolate(g, [[-3.0, 3.0]], 0.05,
                                                lambda x: x))

    def test_cells_stop_at_float_resolution(self):
        # a cell no wider than 4 float spacings is not split: one spacing
        # wide, its midpoint rounds onto an end and it splits into itself
        g = TINY_DIRICHLET_STAR
        with deadline(20):
            got = _isolate(g, [[1e14, 4e14]], 0.01, lambda x: x)
        assert got[1].tolist() == [[0, 1], [1, 2], [2, 3]] and got[2].all()
        for x0, x1 in got[0].tolist():
            assert 0.01 < x1 - x0 <= 4.0 * math.ulp(x1)
        self.assert_same(got, reference_isolate(g, [[1e14, 4e14]], 0.01,
                                                lambda x: x))

    def test_empty_result(self, star3):
        got = _isolate(star3, [[2.0, 6.0]], 0.01, lambda x: x)
        self.assert_same(got, (np.zeros((0, 2)), np.zeros((0, 2), np.intp),
                               np.zeros((0, 2), bool)))

    def test_no_count_call_exceeds_the_budget(self, monkeypatch):
        # with every count untrusted every cell splits down to its width,
        # and each call holds about four times the points of the last; the
        # call past the budget is refused before it is made
        pointwise, calls = solve_mod._count_parts, []

        def untrusted(g, lams):
            calls.append(np.size(lams))
            counts, _, *parts = pointwise(g, lams)
            return counts, np.zeros(counts.size, dtype=bool), *parts

        monkeypatch.setattr(solve_mod, "_count_parts", untrusted)
        monkeypatch.setattr(solve_mod, "_MAX_COUNT_POINTS", 20)
        with pytest.raises(WindowTooCoarse, match=re.escape(
                "isolating [-3, 3] asks one count for 48 points, more than "
                "20")):
            _isolate(self.GRAPHS["star3"], [[-3.0, 3.0]], 0.05, lambda x: x)
        assert calls == [5, 12]

    def test_untrusted_star_stops_at_the_budget(self):
        # beside a 1e-10 edge nearly every negative count is untrusted, and
        # the count calls grow 48, 168, 648, 2577, 10281, 41070, ... points
        # until memory runs out unless the budget stops them. So the solve
        # runs in a child process under an address-space limit and a
        # timeout: a regression fails here and does not exhaust the host
        script = (
            "import resource, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from qgraph.errors import WindowTooCoarse\n"
            "from qgraph.graph import make_star\n"
            "from qgraph.solve import default_negative_floor, find_spectrum\n"
            "g = make_star([1.0, 0.7, 1e-10])\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    find_spectrum(g, (default_negative_floor(g), -1e-8))\n"
            "except WindowTooCoarse as exc:\n"
            "    print(exc)\n"
            "print(time.perf_counter() - start)\n")
        src = str(Path(solve_mod.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], text=True,
                              capture_output=True, timeout=60,
                              env={"PYTHONPATH": src, "OMP_NUM_THREADS": "1",
                                   "OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 0, proc.stderr
        message, seconds = proc.stdout.splitlines()
        assert re.fullmatch(r"isolating \[-\d+, -1e-08\] asks one count for "
                            r"\d+ points, more than 40000", message)
        assert float(seconds) < 10.0


class TestRefinementBudget:
    """V-steps finish a bracket in a few rounds; certification reads its
    records from the candidates' batch."""

    @staticmethod
    def refine_calls(monkeypatch):
        """Sizes of the fn calls of the _golden_min calls find_spectrum
        makes."""
        calls = []

        def recorded(fn, a, b, *args):
            def counted(xs):
                calls.append(len(xs))
                return fn(xs)

            return _golden_min(counted, a, b, *args)

        monkeypatch.setattr(solve_mod, "_golden_min", recorded)
        return calls

    @pytest.mark.parametrize("lengths, window, budget", [
        ([1.0, 0.7, 1e-7], (0.5, 30.0), 6),
        ([1.0, 0.7, 1e-8], (0.5, 30.0), 6),
        ([1.0, 0.7, 1.3], (-10.0, 30.0), 5)])
    def test_few_refinement_calls(self, lengths, window, budget, monkeypatch):
        # golden section took 37, 42 and 10 calls here
        calls = self.refine_calls(monkeypatch)
        spec = find_spectrum(make_star(lengths), window)
        assert spec.diagnostics == [] and spec.count >= 2
        assert len(calls) <= budget

    @pytest.mark.parametrize("method, budget", [("edge", 4), ("dtn", 60)])
    def test_refinement_ends_where_tol_is_below_the_float_spacing(
            self, method, budget, monkeypatch):
        # near 9.3e3 the float spacing is 1.8e-12, wider than refine_tol: the
        # tolerance floor of four spacings lets each bracket finish, in 4
        # calls on the edge route. The DtN route also certifies the root
        # 9484.69 at the unit edge's Dirichlet eigenvalue (31 pi)^2
        calls = []

        def recorded(g, struct, lams, method):
            calls.append(np.size(lams))
            return _sigma_grid(g, struct, lams, method)

        monkeypatch.setattr(solve_mod, "_sigma_grid", recorded)
        g = make_star([1.0, 0.7, 1.3])
        spec = find_spectrum(g, (9000.0, 9600.0), method)
        counts, trusted = count_below(g, [9000.0, 9600.0])
        assert trusted.all() and counts[1] - counts[0] == 2
        roots = [9343.98427390539, 9484.689829446872]
        assert spec.diagnostics == []
        assert [r.mult for r in spec.records] == [1] * len(roots)
        for r, lam in zip(spec.records, roots):
            assert abs(r.lam - lam) <= 1e-12 * lam
        assert len(calls) <= budget

    @pytest.mark.parametrize("method", ["edge", "dtn"])
    def test_records_come_from_the_certification_batch(self, method,
                                                       monkeypatch):
        # only the lambda = 0 test builds a matrix of its own; every record
        # holds the bytes a one-matrix SVD at its lambda gives
        builds = []

        def recorded(g, lam, method="edge", **kwargs):
            builds.append(lam)
            return build_secular_matrix(g, lam, method, **kwargs)

        monkeypatch.setattr(solve_mod, "build_secular_matrix", recorded)
        g = make_star([1.0, 0.7, 1.3])
        spec = find_spectrum(g, (-10.0, 30.0), method)
        assert builds == [0.0]
        assert len(spec.records) >= 5 and spec.records[1].lam == 0.0
        for r in spec.records:
            mat = build_secular_matrix(g, r.lam, method)
            s = solve_mod._svdvals(mat, r.lam)
            assert np.float64(r.sigma_min).tobytes() == s[-1].tobytes()
            assert np.float64(r.sigma_max).tobytes() == s[0].tobytes()


def scalar_vmin(fn, a, b, tol):
    """Reference: the search of `_golden_min` on one bracket in plain floats,
    one fn call per point. Returns the result and the points of each round;
    a bracket no wider than its floored tolerance is never evaluated. A
    V-step within _LANDING * tol / 2 of the best point lands: its round also
    evaluates v -+ tol / 2 inside the bracket, and a confirmation whose
    points landings evaluated reads them without a round of its own."""
    tol = max(tol, 4.0 * float(np.spacing(max(abs(a), abs(b)))))
    rounds = []

    def ev(xs):
        rounds.append(list(xs))
        return [fn(x) for x in xs]

    if not b - a > tol:
        return (a + b) / 2.0, rounds
    m = (a + b) / 2.0
    fm, fa, fb = ev([m, a, b])
    if fa < fm and fa <= fb:  # the lowest of (m, a, b), the first on ties
        xl, xb, xr, fl, fbest, fr = a, a, m, fa, fa, fm
    elif fb < fm and fb < fa:
        xl, xb, xr, fl, fbest, fr = m, b, b, fm, fb, fb
    else:
        xl, xb, xr, fl, fbest, fr = a, m, b, fa, fm, fb
    h = tol / 2.0
    w1 = w2 = math.inf
    again = False
    landed = {}
    while xr - xl > tol:
        width = xr - xl
        inner = xl < xb < xr
        finite = all(math.isfinite(y) for y in (fl, fbest, fr))
        v = None
        if inner and finite:
            sl = (fl - fbest) / (xb - xl)
            sr = (fr - fbest) / (xr - xb)
            c = max(sl, sr)
            if c > 0.0:  # the vertex of the V, on the shallower side
                v = xb - fbest / c if sl < sr else xb + fbest / c
        stalled = width > w2 / 2.0
        near = v is not None and abs(v - xb) <= h
        confirm = finite and (not inner or near) and not (stalled and again)
        step = (not confirm and finite and not stalled and v is not None
                and xl < v < xr)
        w2, w1, again = w1, width, confirm
        if confirm:
            pts = [x for x in (xb - h, xb + h) if xl < x < xr]
            if all(x in landed for x in pts):
                got = {x: landed[x] for x in pts}
            else:
                got = dict(zip(pts, ev(pts)))
            fcl, fcr = got.get(xb - h, math.inf), got.get(xb + h, math.inf)
            u, fu = (xb - h, fcl) if fcl <= fcr else (xb + h, fcr)
            if not fu < fbest:
                return xb, rounds
        else:
            if not step:
                far = xr if xr - xb >= xb - xl else xl
                v = xb + _GOLD_STEP * (far - xb)
            land = [x for x in (v - h, v + h) if xl < x < xr
                    and step and abs(v - xb) <= _LANDING * h]
            fu, *rest = ev([v] + land)
            u = v
            landed.update(zip(land, rest))
        if fu < fbest:
            if u > xb:
                xl, fl = xb, fbest
            else:
                xr, fr = xb, fbest
            xb, fbest = u, fu
        elif u > xb:
            xr, fr = u, fu
        else:
            xl, fl = u, fu
    return (xl + xr) / 2.0, rounds


class TestLockstepGoldenMin:
    """Every bracket of a lockstep run ends on the float its own scalar
    search gives, and each round asks for the live brackets' points only."""

    @staticmethod
    def run(fn, a, b, tol):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        calls = []

        def batched(xs):
            calls.append(np.array(xs))
            return fn(np.asarray(xs))

        got = _golden_min(batched, a, b, tol)
        tols = np.broadcast_to(tol, a.shape)
        refs = [scalar_vmin(lambda x: fn(np.array([x]))[0], ai, bi, ti)
                for ai, bi, ti in zip(a, b, tols)]
        assert got.shape == a.shape
        for x, (ref, _) in zip(got, refs):
            assert x.tobytes() == np.float64(ref).tobytes()
        # round r of the lockstep evaluates exactly the points of round r of
        # every scalar search still on, and makes no call without points
        rounds = max((len(r) for _, r in refs), default=0)
        want = [sorted(x for _, r in refs if len(r) > k for x in r[k])
                for k in range(rounds)]
        assert [sorted(c.tolist()) for c in calls] == [w for w in want if w]
        return got, [len(c) for c in calls]

    def test_mixed_tolerances_finish_in_different_rounds(self):
        def fn(xs):
            return np.abs(np.sin(3.0 * xs) - 0.2)

        a = [0.0, 0.5, 1.0, -2.0, 3.0]
        b = [0.4, 1.2, 1.001, -1.0, 3.5]
        tol = [1e-12, 1e-6, 1e-15, 1e-3, 1e-9]
        _, sizes = self.run(fn, a, b, tol)
        assert sizes[0] == 15 and len(set(sizes)) > 2

    def test_scalar_tolerance_and_ties(self):
        # a flat function: every comparison is a tie, and with no V to fit
        # every step is golden
        self.run(lambda xs: np.zeros(len(xs)), [0.0, 1.0], [1.0, 3.0], 1e-10)

    def test_no_brackets_no_calls(self):
        got, sizes = self.run(lambda xs: xs, [], [], 1e-12)
        assert sizes == [] and got.shape == (0,)

    def test_dead_brackets_are_never_evaluated(self):
        # zero-width brackets (those of a point window) and sub-tolerance
        # brackets return their midpoints unread, beside live brackets and
        # on their own
        def fn(xs):
            assert np.all((xs < 0.95) | (xs > 1.05)), xs
            return np.abs(np.cos(xs) - 0.3)

        a = [1.0, 0.0, 1.0 - 1e-13, 2.0, 1.0]
        b = [1.0, 0.9, 1.0 + 1e-13, 3.0, 1.0 + 1e-15]
        tol = [1e-12, 1e-12, 1e-12, 1e-9, 1e-12]
        got, sizes = self.run(fn, a, b, tol)
        assert sizes[0] == 6  # the ends and midpoints of the two live ones
        assert got[0] == 1.0 and got[2] == 1.0
        _, sizes = self.run(fn, a[::2], b[::2], tol[::2])
        assert sizes == []

    def test_tolerance_below_the_float_spacing(self):
        # at 9344 the spacing is 1.8e-12: a tolerance of 1e-12 is floored at
        # four spacings, and the search ends
        a, b = 9343.98427367, 9343.98427414
        assert np.spacing(b) > 1e-12
        got, _ = self.run(lambda xs: np.abs(xs - 9343.9842739), [a], [b], 1e-12)
        assert abs(got[0] - 9343.9842739) <= 2.0 * np.spacing(b)

    def test_all_infinite_brackets_end_in_golden_rounds(self):
        # a bracket that reads inf everywhere takes only golden steps:
        # each bracket ends within golden section's rounds at 0.618 a round,
        # plus two, and no round makes an empty call
        a = np.array([0.0, 3.0, -2.0, 1.0, 0.5])
        b = np.array([1.0, 3.001, -1.0, 1.0 + 1e-10, 30.0])
        tol = np.array([1e-12, 1e-12, 1e-9, 1e-12, 1e-12])
        _, sizes = self.run(lambda xs: np.full(len(xs), np.inf), a, b, tol)
        rounds = np.ceil(np.log((b - a) / tol) / np.log(1.0 / 0.618)) + 2
        assert len(sizes) <= rounds.max() and min(sizes) > 0
        for ai, bi, ti, n in zip(a, b, tol, rounds):
            assert len(scalar_vmin(lambda x: math.inf, ai, bi, ti)[1]) <= n

    def test_infinite_values(self):
        # DtN-singular points read inf; a value inf forces a golden step
        def fn(xs):
            return np.where(np.abs(xs - 1.3) < 0.05, np.inf,
                            np.where(xs > 2.5, np.inf, np.abs(xs - 0.9)))

        self.run(fn, [0.5, 1.2, 2.4, 2.6], [1.4, 1.4, 3.0, 2.9], 1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_v_vertex_within_half_tolerance(self, seed):
        # on c |x - v| with noise at the 1e-16 level every result lies within
        # tol / 2 of its vertex, in a few rounds
        rng = np.random.default_rng(seed)
        a = np.arange(20) * 0.3 - 3.0 + rng.uniform(0.0, 0.1, 20)
        b = a + 10.0 ** rng.uniform(-9.0, -1.0, 20)
        v = a + rng.uniform(0.0, 1.0, 20) * (b - a)
        c = 10.0 ** rng.uniform(-2.0, 2.0, 20)
        noise = rng.uniform(-1e-16, 1e-16, 97)
        tol = 10.0 ** rng.uniform(-13.0, -11.0, 20)

        def fn(xs):  # bracket j's points read its own V
            j = np.searchsorted(a, xs, side="right") - 1
            k = np.floor(np.abs(xs) * 1e15).astype(int) % noise.size
            return c[j] * np.abs(xs - v[j]) + noise[k]

        got, sizes = self.run(fn, a, b, tol)
        assert np.all(np.abs(got - v) <= tol / 2.0)
        assert len(sizes) <= 8  # golden section: 30 to 50

    @pytest.mark.parametrize("g", [make_star([1.0, 1.0, 1.0]),
                                   make_figure8(0.7, 1.3)], ids=["star3", "figure8"])
    def test_real_sigma_both_branches(self, g):
        # the cells find_spectrum refines, padded by half a width
        struct = prepare_structure(g)
        # kappa branch, with find_spectrum's per-bracket tolerances
        cells = _isolate(g, [[1e-4, 4.0]], 1e-3, lambda k: -k * k)[0]
        assert len(cells) >= 1
        a, b = cells[:, 0] - 5e-4, cells[:, 1] + 5e-4
        tol_k = np.maximum(1e-12 / (2.0 * np.maximum(a, 0.05)), 1e-15)
        self.run(lambda k: _sigma_grid(g, struct, -k * k, "edge")[:, -1],
                 a, b, tol_k)
        # positive branch, on both routes
        cells = _isolate(g, [[0.5, 30.0]], 0.01, lambda x: x)[0]
        assert len(cells) >= 2
        for method in ("edge", "dtn"):
            self.run(lambda x: _sigma_grid(g, struct, x, method)[:, -1],
                     cells[:, 0] - 0.005, cells[:, 1] + 0.005, 1e-12)


class TestFirstEigenvalues:
    def test_star_prefix(self, star3):
        lams, spec = first_eigenvalues(star3, 5)
        assert lams == pytest.approx(STAR3_EQUIL, abs=1e-8)
        assert spec.method == "edge"

    def test_floor_and_first_window_end_share_a_count_call(self,
                                                             monkeypatch):
        # one count_below call fewer than the floor's and the end's apart:
        # the first call counts both, and the spectrum is the one the
        # window solved alone gives; the star's first window end lies off
        # every edge Dirichlet eigenvalue, so its count is trusted at once
        g, k = make_star([1.1, 0.7, 1.3]), 4
        floor = default_negative_floor(g)
        end = (math.pi * (k + 2) / g.total_length) ** 2
        calls = []

        def recorded(count):
            def counted(g, lams):
                calls.append(np.ravel(lams).tolist())
                return count(g, lams)
            return counted

        for name in ("count_below", "_count_parts"):
            monkeypatch.setattr(solve_mod, name,
                                recorded(getattr(solve_mod, name)))
        lams, spec = first_eigenvalues(g, k)
        made = calls[:]
        calls.clear()
        alone = find_spectrum(g, (floor, end), first=k)
        assert made == [[floor, end]] + calls
        assert repr(spec) == repr(alone) and lams == alone.lambdas()[:k]

    def test_multiplicity_expansion(self):
        lams, _ = first_eigenvalues(make_cycle([1.0]), 3)
        assert lams[0] == pytest.approx(0.0, abs=1e-10)
        assert lams[1] == pytest.approx(4 * PI2, abs=1e-7)
        assert lams[2] == pytest.approx(4 * PI2, abs=1e-7)

    def test_window_end_on_a_root_is_moved(self, monkeypatch):
        # the unit 4-star's first window would end on the root 4 pi^2, where
        # the count that checks the window is untrusted; its end moves out.
        # The spectrum then ends at the cut above the sixth eigenvalue
        g = make_star([1.0] * 4)
        assert not count_below(g, [4.0 * PI2])[1][0]
        windows = []

        def recorded(g, window, method="edge", **kwargs):
            windows.append(window)
            return find_spectrum(g, window, method, **kwargs)

        monkeypatch.setattr(solve_mod, "find_spectrum", recorded)
        lams, spec = first_eigenvalues(g, 6)
        assert spec.diagnostics == [] and len(lams) == 6
        (lo, end), = windows
        assert 4.0 * PI2 < end <= 4.0 * PI2 * (1.0 + 1e-5)
        assert spec.window[0] == lo and lams[-1] < spec.window[1] < end

    def test_error_names_the_last_window_scanned(self, star3, monkeypatch):
        # a stand-in solve that certifies nothing is called once, on a
        # window whose end's trusted count already holds k; its cut window
        # is the whole one, so no retry runs, and the error names it
        windows = []

        def empty(g, window, method="edge", *, first=None):
            assert first == 2
            windows.append(window)
            return Spectrum([], window, method, {})

        monkeypatch.setattr(solve_mod, "find_spectrum", empty)
        with pytest.raises(WindowTooCoarse) as err:
            first_eigenvalues(star3, 2)
        (lo, end), = windows
        counts, trusted = count_below(star3, [end])
        assert trusted[0] and counts[0] >= 2
        assert str(err.value) == (
            f"could not locate 2 eigenvalues in [{lo}, {end}]")

    def test_short_first_end_is_doubled_before_any_solve(self, monkeypatch):
        # the first end (14 pi / 10)^2 holds 11 of the 12 eigenvalues asked
        # for: the counts double it, and the window is solved once
        g = make_star([1.0] * 10, tip_bc="dirichlet")
        first_end = (14.0 * math.pi / 10.0) ** 2
        counts, trusted = count_below(g, [first_end])
        assert trusted[0] and counts[0] == 11
        windows = []

        def recorded(g, window, method="edge", **kwargs):
            windows.append(window)
            return find_spectrum(g, window, method, **kwargs)

        monkeypatch.setattr(solve_mod, "find_spectrum", recorded)
        lams, spec = first_eigenvalues(g, 12)
        assert windows == [(-400.0, 2.0 * first_end)]
        assert spec.window == (-400.0, 19.447144704096793)
        assert lams == find_spectrum(g, (-400.0, 2.0 * first_end),
                                     first=12).lambdas()[:12]

    def test_root_beyond_float_resolution_of_the_width(self):
        # the first eigenvalue, about 2.47e14, is isolated to 4 float
        # spacings rather than the positive width 0.01, and certified
        g = TINY_DIRICHLET_STAR
        with deadline(20):
            (lam,), spec = first_eigenvalues(g, 1)
            assert ground_state(g) == (lam, [])
        # the coupling splits the cluster about (pi / 2l)^2 by a relative
        # 1e-7 or so
        assert lam == pytest.approx((math.pi / 2e-7) ** 2, rel=1e-6)
        n, ok = count_below(g, [lam * (1.0 - 1e-9), lam * (1.0 + 1e-9)])
        assert n.tolist() == [0, 1] and ok.all()

    def test_dropped_zero_test_names_nothing(self):
        # the lambda = 0 test finds multiplicity 0, so it keeps no record and
        # names no MultiplicityUncertain(lambda=0); the trusted counts say
        # nothing is there. The certified root keeps its value and its own
        # diagnostic
        with deadline(20):
            (lam,), spec = first_eigenvalues(TINY_DIRICHLET_STAR, 1)
        assert lam == 246740090027233.56
        assert spec.diagnostics == [
            "MultiplicityUncertain(lambda=2.46740090027e+14)"]

    def test_untrusted_end_is_refused_after_the_nudges(self, monkeypatch):
        # the 1e300 edge makes the first window end (3 pi / L)^2 underflow
        # to 0, where the count is untrusted and no relative move shifts it;
        # every positive count is untrusted there too
        g = make_star([1e300, 1.0, 1.0])
        calls = []

        def counted(g, lams):
            calls.append(lams)
            return count_below(g, lams)

        monkeypatch.setattr(solve_mod, "count_below", counted)
        monkeypatch.setattr(solve_mod, "find_spectrum", None)
        with deadline(5), pytest.raises(WindowTooCoarse) as err:
            first_eigenvalues(g, 1)
        assert str(err.value) == (
            f"the eigenvalue count at the window end 0.0 is not a trusted 1 "
            f"or more after {solve_mod._END_MOVES} moves")
        # the search floor's count holds the end's first count, and the end
        # is counted again after each move; nothing is solved
        assert calls[0][0] < 0.0 and calls[0][1:] == [0.0]
        assert calls[1:] == [[0.0]] * solve_mod._END_MOVES

    @pytest.mark.parametrize("k", [0, -1, -2])
    def test_k_below_one_raises(self, k):
        # at k = -2 the first window ends at 0, which no relative step moves
        with deadline(5), pytest.raises(ValueError, match="k must be >= 1"):
            first_eigenvalues(make_star([1.0, 0.7, 1.3]), k)

    def test_window_growth_reaches_high_count(self):
        lams, _ = first_eigenvalues(make_path([1.0]), 6)
        assert lams == pytest.approx([0.0] + [(n * math.pi) ** 2 for n in range(1, 6)],
                                     abs=1e-6)


FIRST_K_CASES = {
    # the second eigenvalue is 0: the cut is the positive branch's start,
    # ZERO_RADIUS, and the lambda = 0 test still runs
    "star3-zero": (make_star([1.0] * 3), 2),
    # the cut on the negative branch: no lambda = 0 test
    "star4-negative": (make_star([1.0] * 4), 1),
    # the double root 4 pi^2 holds the second and third eigenvalues
    "cycle1-double": (make_cycle([1.0]), 2),
    "cycle1-double-end": (make_cycle([1.0]), 3),
    "star3-dirichlet": (make_star([1.0, 0.7, 1.3], tip_bc="dirichlet"), 4),
    "figure8": (make_figure8(0.7, 1.3), 5),
    # a triple root holds the fourth eigenvalue
    "figure8-triple": (make_figure8(0.5, 0.5), 4),
}


class TestFirstK:
    """find_spectrum(..., first=k) stops at the k-th eigenvalue: its records
    are the whole window's, byte for byte, up to the one that holds the
    k-th, and it ends at a trusted count point that holds k."""

    @staticmethod
    def sigma_points(monkeypatch):
        points = []

        def recorded(g, struct, lams, method):
            points.append(np.size(lams))
            return _sigma_grid(g, struct, lams, method)

        monkeypatch.setattr(solve_mod, "_sigma_grid", recorded)
        return points

    @pytest.mark.parametrize("name", sorted(FIRST_K_CASES))
    def test_records_are_the_whole_windows(self, name, monkeypatch):
        g, k = FIRST_K_CASES[name]
        # first_eigenvalues' first window
        end = (math.pi * (k + 2) / g.total_length) ** 2
        while not count_below(g, [end])[1][0]:
            end *= 1.0 + 1e-6
        window = (default_negative_floor(g), end)
        points = self.sigma_points(monkeypatch)
        whole = find_spectrum(g, window)
        spent = sum(points)
        points.clear()
        cut = find_spectrum(g, window, first=k)
        assert cut.diagnostics == whole.diagnostics == []
        assert whole.count > k
        # the records up to the k-th eigenvalue, and none beyond
        mults = np.cumsum([r.mult for r in cut.records])
        assert mults[-1] >= k and (len(mults) == 1 or mults[-2] < k)
        assert repr(cut.records) == repr(whole.records[:len(cut.records)])
        assert cut.lambdas()[:k] == whole.lambdas()[:k]
        # the window ends at a trusted count point that holds k
        lo, end = cut.window
        assert lo == window[0] and cut.records[-1].lam < end < window[1]
        counts, trusted = count_below(g, [end])
        assert trusted[0] and counts[0] >= k
        assert sum(points) < spent

    def test_zero_cut_ends_at_the_zero_radius(self):
        g, k = FIRST_K_CASES["star3-zero"]
        spec = find_spectrum(g, (default_negative_floor(g), 30.0), first=k)
        assert spec.window[1] == solve_mod.ZERO_RADIUS
        assert [r.lam for r in spec.records][-1] == 0.0

    def test_negative_cut_runs_no_zero_test(self, monkeypatch):
        builds = []

        def recorded(g, lam, method="edge"):
            builds.append(lam)
            return build_secular_matrix(g, lam, method)

        monkeypatch.setattr(solve_mod, "build_secular_matrix", recorded)
        g, k = FIRST_K_CASES["star4-negative"]
        spec = find_spectrum(g, (default_negative_floor(g), 30.0), first=k)
        assert spec.count == 1 and spec.window[1] < 0.0 and builds == []
        find_spectrum(g, (default_negative_floor(g), 30.0), first=4)
        assert builds == [0.0]

    def test_window_short_of_k_is_solved_whole(self):
        # three eigenvalues below 2.0: no count point reaches the limit of
        # four, so the window is not cut
        g = make_star([1.0] * 3)
        window = (default_negative_floor(g), 2.0)
        assert repr(find_spectrum(g, window, first=4)) == repr(
            find_spectrum(g, window))

    def test_untrusted_lower_probe_makes_no_cut(self, star3, monkeypatch):
        # the limit reads the count below lo; where it is untrusted the
        # whole window is solved
        counted = solve_mod._count_parts

        def untrusted_below(g, lams):
            counts, trusted, *parts = counted(g, lams)
            return counts, trusted & (np.asarray(lams) > -10.0), *parts

        window = (-10.0, 30.0)
        whole = find_spectrum(star3, window)
        monkeypatch.setattr(solve_mod, "_count_parts", untrusted_below)
        spec = find_spectrum(star3, window, first=1)
        assert spec.window == window
        assert repr(spec.records) == repr(whole.records)
        assert spec.diagnostics == ["CountUntrusted(lo=-10, hi=30)"]

    def test_cut_window_short_of_k_is_solved_again_whole(self, star3,
                                                         monkeypatch):
        # a cut window that certifies fewer than k has missed a root its
        # count holds: first_eigenvalues solves the whole window, as with
        # no cut, instead of growing a window the cut would shrink again
        calls = []

        def lossy(g, window, method="edge", *, first=None):
            calls.append(first)
            spec = find_spectrum(g, window, method, first=first)
            if first is not None:
                spec.records = spec.records[:-1]
            return spec

        monkeypatch.setattr(solve_mod, "find_spectrum", lossy)
        lams, spec = first_eigenvalues(star3, 4)
        assert calls == [4, None]
        assert lams == pytest.approx(STAR3_EQUIL[:4], abs=1e-8)
        assert spec.window[1] > STAR3_EQUIL[4]

    def test_whole_window_short_of_k_is_refused(self, star3, monkeypatch):
        # where the whole window too certifies fewer than k, no larger
        # window is solved: the counts already hold k in it
        windows = []

        def lossy(g, window, method="edge", *, first=None):
            windows.append((window, first))
            spec = find_spectrum(g, window, method, first=first)
            spec.records = [r for r in spec.records
                            if r.lam < STAR3_EQUIL[3] - 1e-6]
            return spec

        monkeypatch.setattr(solve_mod, "find_spectrum", lossy)
        with pytest.raises(WindowTooCoarse) as err:
            first_eigenvalues(star3, 4)
        (cut, four), (whole, none) = windows
        assert cut == whole and (four, none) == (4, None)
        assert str(err.value) == (
            f"could not locate 4 eigenvalues in [{whole[0]}, {whole[1]}]")


class TestCertificationRows:
    """Certification reads each candidate's singular values from the row
    its refinement computed; only a candidate the search returned
    unevaluated gets its row from one more `_sigma_grid` call."""

    @staticmethod
    def calls_after_refinement(monkeypatch):
        """The lambdas of every `_sigma_grid` call made outside
        `_golden_min`, the refinement."""
        calls, refining = [], []
        grid, golden = solve_mod._sigma_grid, solve_mod._golden_min

        def refine(*args):
            refining.append(True)
            try:
                return golden(*args)
            finally:
                refining.pop()

        def recorded(g, struct, lams, method):
            if not refining:
                calls.append(np.array(lams))
            return grid(g, struct, lams, method)

        monkeypatch.setattr(solve_mod, "_golden_min", refine)
        monkeypatch.setattr(solve_mod, "_sigma_grid", recorded)
        return calls

    @staticmethod
    def assert_one_matrix_bytes(g, spec):
        for r in spec.records:
            s = solve_mod._svdvals(
                build_secular_matrix(g, r.lam, spec.method), r.lam)
            assert np.float64(r.sigma_min).tobytes() == s[-1].tobytes()
            assert np.float64(r.sigma_max).tobytes() == s[0].tobytes()

    @pytest.mark.parametrize("g, hi", [
        (make_star([0.9, 1.1, 1.05]), 30.0),
        (make_figure8(0.6, 1.4), 60.0),
        (make_figure8(0.55, 0.55), 700.0),
        (make_cycle([0.4, 0.6, 0.5, 0.5]), 60.0),
        (make_star([0.6, 0.7, 0.5, 0.6, 0.6]), 30.0),
        (make_star([0.9, 1.1, 1.0], tip_bc="dirichlet"), 30.0)])
    def test_scan_solves_make_no_certification_batch(self, g, hi,
                                                     monkeypatch):
        # no `_sigma_grid` call after refinement: every record is read from
        # a refinement row
        calls = self.calls_after_refinement(monkeypatch)
        spec = find_spectrum(g, (default_negative_floor(g), hi))
        assert spec.diagnostics == [] and spec.count >= 3
        assert calls == []
        self.assert_one_matrix_bytes(g, spec)

    def test_unevaluated_candidate_takes_its_own_batch(self, star3,
                                                       monkeypatch):
        # a point window's bracket is no wider than its tolerance, and its
        # search returns the midpoint unevaluated; one call holds that
        # lambda alone, and the record holds the bytes a one-matrix SVD at
        # its lambda gives
        calls = self.calls_after_refinement(monkeypatch)
        lam = STAR3_EQUIL[0]
        spec = find_spectrum(star3, (lam, lam))
        assert spec.diagnostics == []
        assert [(r.lam, r.mult) for r in spec.records] == [(lam, 1)]
        (lams,) = calls
        assert lams.tolist() == [lam]
        self.assert_one_matrix_bytes(star3, spec)


def residual(g, f):
    # loop sine modes have all-zero traces, so the scale must see F' too
    tr, dv = trace_vectors(f)
    a, b = assemble_blocks(g)
    r = a @ tr + 1j * (b @ dv)
    scale = max(float(np.max(np.abs(tr))), float(np.max(np.abs(dv))), 1e-30)
    return float(np.max(np.abs(r))) / scale


def closed_form_norm_sq(g, f):
    """Reference: the squared L2 norm of an eigenfunction at lambda < 0,
    with no `quadform` code. On an edge of the decaying pair (kappa l >= 1)
    in closed form, (|c1|^2 + |c2|^2) (1 - e^(-2 kappa l)) / (2 kappa) +
    2 Re(c1 conj(c2)) l e^(-kappa l); on the others, where kappa l < 1, by
    one 64-point Gauss-Legendre rule."""
    k = math.sqrt(-f.lam)
    x, w = np.polynomial.legendre.leggauss(64)
    total = 0.0
    for e, (c1, c2) in zip(g.edges, f.coeffs):
        if k * e.length >= 1.0:
            total += ((abs(c1) ** 2 + abs(c2) ** 2)
                      * -math.expm1(-2.0 * k * e.length) / (2.0 * k)
                      + 2.0 * (c1 * np.conj(c2)).real * e.length
                      * math.exp(-k * e.length))
        else:
            half = e.length / 2.0
            total += half * np.sum(w * np.abs(f.value(e.id, (x + 1.0) * half)) ** 2)
    return total


class TestEigenfunctions:
    def test_ground_state_satisfies_vertex_conditions(self, star3):
        funcs = eigenfunction_at(star3, STAR3_EQUIL[0])
        assert len(funcs) == 1
        assert residual(star3, funcs[0]) < 1e-9

    def test_normalized(self, star3):
        f = eigenfunction_at(star3, STAR3_EQUIL[0])[0]
        assert trial_norm_sq(star3, f.as_trial()) == pytest.approx(1.0, rel=1e-10)

    def test_deep_root_back_conversion(self):
        # kappa*l = 4.4 on the long edge: its coefficients are over the
        # decaying pair, the short edges' over the entire one
        g = make_star(DEEP_STAR_LENGTHS)
        funcs = eigenfunction_at(g, DEEP_STAR_LAM1)
        assert len(funcs) == 1
        assert residual(g, funcs[0]) < 1e-7

    def test_zero_mode_is_constant(self, star3):
        f = eigenfunction_at(star3, 0.0)[0]
        vals = [f.value(e.id, x) for e in star3.edges for x in (0.0, 0.3, 1.0)]
        assert np.ptp(np.abs(vals)) < 1e-10
        assert abs(f.derivative("e1", 0.5)) < 1e-10

    def test_cycle_double_eigenspace(self):
        g = make_cycle([1.0])
        funcs = eigenfunction_at(g, 4 * PI2)
        assert len(funcs) == 2
        for f in funcs:
            assert residual(g, f) < 1e-7
        # L2-orthonormal pair
        from qgraph.quadform import edge_quadrature

        x, w = edge_quadrature(1.0)
        v0 = funcs[0].value("e1", x)
        v1 = funcs[1].value("e1", x)
        assert np.sum(w * v0 * np.conj(v0)) == pytest.approx(1.0, rel=1e-8)
        assert np.sum(w * v1 * np.conj(v1)) == pytest.approx(1.0, rel=1e-8)
        assert abs(np.sum(w * v0 * np.conj(v1))) < 1e-8

    def test_triple_eigenspace_on_figure8(self, fig8):
        funcs = eigenfunction_at(fig8, 16 * PI2)
        assert len(funcs) == 3
        for f in funcs:
            assert residual(fig8, f) < 1e-6

    @pytest.mark.parametrize("g, lam, mult", [
        (make_figure8(0.5, 0.5), 16 * PI2, 3),
        (make_cycle([1.0]), 4 * PI2, 2),
        (make_cycle([0.4, 0.6, 0.5, 0.5]), 4 * PI2, 2),
        (make_cycle([1.0]), 4e4 * PI2, 2),  # k l = 628: 32 pieces
    ], ids=["figure8-triple", "cycle-double", "cycle4-double",
            "cycle-double-high"])
    def test_multiple_eigenspace_is_orthonormal(self, g, lam, mult):
        # the Gram matrix by quadform's own nodes, which the Rayleigh
        # quotient reads too, edge by edge and by `quadform._gram`, and by a
        # finer rule of 128 equal pieces per edge
        funcs = eigenfunction_at(g, lam)
        assert len(funcs) == mult
        q = quadform_mod._edge_nodes(g, *funcs)
        gram = np.zeros((mult, mult), dtype=complex)
        fine = np.zeros((mult, mult), dtype=complex)
        for (eid, x), s in zip(q.parts, q.pieces):
            v = np.array([f.value(eid, x[2:]) for f in funcs])
            gram += (v * q.weights[s]) @ v.conj().T
            length = x[1]
            xf, wf = quadform_mod.edge_quadrature(
                length, tuple(np.linspace(0.0, length, 129)[1:-1]))
            v = np.array([f.value(eid, xf) for f in funcs])
            fine += (v * wf) @ v.conj().T
        for m in (gram, fine, quadform_mod._gram(g, funcs)):
            assert np.abs(m - np.eye(mult)).max() <= 1e-12

    @pytest.mark.parametrize("g, lam", [
        (make_star([1.0, 0.7, 1.3]), -3.461724246805116),
        (make_figure8(0.5, 0.5), 16 * PI2),
        (make_cycle([0.4, 0.6, 0.5, 0.5]), 4 * PI2),
    ], ids=["star3", "figure8-triple", "cycle4-double"])
    def test_one_quadrature_per_edge(self, g, lam, monkeypatch):
        # the Gram matrix and every Rayleigh quotient share one build of
        # every edge's nodes
        quadrature = quadform_mod.edge_quadrature
        calls = []

        def counted(*args):
            calls.append(args)
            return quadrature(*args)

        monkeypatch.setattr(quadform_mod, "edge_quadrature", counted)
        quadform_mod._quadrature.cache_clear()
        funcs = eigenfunction_at(g, lam)
        assert len(calls) == g.num_edges
        for f in funcs:
            rayleigh_quotient(g, f)
            assert len(calls) == g.num_edges

    @pytest.mark.parametrize("g, lam", [
        (make_star([1.0, 0.7, 1.3]), -3.461724246805116),
        (make_star(DEEP_STAR_LENGTHS), DEEP_STAR_LAM1),
        (make_star([1.0] * 3), 0.0),
        (make_figure8(0.5, 0.5), 16 * PI2),
        (make_cycle([0.4, 0.6, 0.5, 0.5]), 4 * PI2),
    ], ids=["star3", "deep", "zero", "figure8-triple", "cycle4-double"])
    def test_whole_graph_basis_calls(self, g, lam, monkeypatch):
        # eigenfunction_at evaluates the basis on every edge at once: the
        # values and the derivatives at the ends for its matrix, then each
        # null vector's values at every edge's points for the Gram matrix,
        # and it builds no trace table; a Rayleigh quotient reads an
        # Eigenfunction in two whole-graph calls (values, derivatives)
        basis = solve_mod.edge_basis
        traces = kernels_mod.edge_basis_traces
        calls, tables = [], []

        def counted(lam, lengths, x, deriv):
            calls.append((np.shape(x), deriv))
            return basis(lam, lengths, x, deriv)

        def table(*args):
            tables.append(args)
            return traces(*args)

        monkeypatch.setattr(solve_mod, "edge_basis", counted)
        monkeypatch.setattr(kernels_mod, "edge_basis_traces", table)
        quadform_mod._quadrature.cache_clear()
        funcs = eigenfunction_at(g, lam)
        points = (2 + quadform_mod.QUAD_ORDER) * g.num_edges
        ends = (2, g.num_edges)
        assert calls == ([(ends, False), (ends, True)]
                         + [((points,), False)] * len(funcs))
        assert tables == []
        for f in funcs:
            calls.clear()
            rayleigh_quotient(g, f)
            assert [deriv for _, deriv in calls] == [False, True]

    @pytest.mark.parametrize("g, lams", [
        (make_star([1.0, 0.8, 1.25]), [-3.377172782409636, 0.0, 5.401443856991723]),
        (make_star(DEEP_STAR_LENGTHS), [DEEP_STAR_LAM1]),
        (make_cycle([0.96, 1.24, 0.64, 1.16]), [0.0, 2.467401100272335]),
        (make_figure8(1.2, 1.8), [-1.0, 0.0, 4.386490844928604]),
        (make_figure8(0.5, 0.5), [16 * PI2]),
    ], ids=["star-unit", "deep", "cycle4-near-double", "figure8",
            "figure8-triple"])
    def test_laid_out_matrix_is_the_secular_matrix(self, g, lams, monkeypatch):
        # the matrix laid out from the basis at the edge ends has the bytes
        # of the edge route's one-lambda matrix
        end_matrix, built = solve_mod.end_matrix, []

        def kept(*args):
            built.append(end_matrix(*args))
            return built[-1]

        monkeypatch.setattr(solve_mod, "end_matrix", kept)
        for lam in lams:
            built.clear()
            assert eigenfunction_at(g, lam)
            (mat,) = built
            assert mat.tobytes() == build_secular_matrix(g, lam, "edge").tobytes()

    @staticmethod
    def former_eigenfunction_at(g, lam):
        """Reference: eigenfunction_at as it was when it converted the null
        vectors into amplitudes (a, b) over the regime basis, a cosh + b sinh
        below zero, a cos + b sin above and a + b x at zero, with its Gram
        samples taken function by function and edge by edge. Returns each
        function's value and derivative as callables (edge, x)."""
        from qgraph.quadform import edge_quadrature

        s_mat = build_secular_matrix(g, lam, "edge")
        scales = np.ones(s_mat.shape[1])
        if lam < 0.0:
            s_mat, scales = equilibrate_columns(s_mat)
        _, svals, vh = np.linalg.svd(s_mat)
        null = _null(svals)
        vecs = (np.eye(len(svals), dtype=complex) if null.all()
                else vh[null].conj() / scales)
        # the start value of each edge's solution, and its start derivative
        # over the rate w (1 at lam = 0), off lam's start traces
        f10, f20, d10, d20 = edge_basis_traces(
            lam, [e.length for e in g.edges])[:4]
        c1, c2 = vecs[:, 0::2], vecs[:, 1::2]
        w = math.sqrt(abs(lam))
        a = c1 * f10 + c2 * f20
        b = (c1 * d10 + c2 * d20) / (w if lam != 0.0 else 1.0)

        def value(ca, cb, x):
            if lam < 0.0:
                return ca * np.cosh(w * x) + cb * np.sinh(w * x)
            if lam > 0.0:
                return ca * np.cos(w * x) + cb * np.sin(w * x)
            return ca + cb * x

        def derivative(ca, cb, x):
            if lam < 0.0:
                return w * (ca * np.sinh(w * x) + cb * np.cosh(w * x))
            if lam > 0.0:
                return w * (-ca * np.sin(w * x) + cb * np.cos(w * x))
            return cb * np.ones_like(x)

        quad = {e.id: edge_quadrature(e.length) for e in g.edges}
        weights = np.concatenate([quad[e.id][1] for e in g.edges])
        samples = np.array([
            np.concatenate([value(ra[g.edge_index[e.id]], rb[g.edge_index[e.id]],
                                  quad[e.id][0]) for e in g.edges])
            for ra, rb in zip(a, b)])
        gram = (samples * weights) @ samples.conj().T
        evals, evecs = np.linalg.eigh(gram)
        keep = evals > 1e-12 * evals[-1]
        trans = np.conj(evecs[:, keep]) / np.sqrt(evals[keep])
        return [(lambda eid, x, ra=ra, rb=rb: value(
                    ra[g.edge_index[eid]], rb[g.edge_index[eid]], x),
                 lambda eid, x, ra=ra, rb=rb: derivative(
                    ra[g.edge_index[eid]], rb[g.edge_index[eid]], x))
                for ra, rb in zip(trans.T @ a, trans.T @ b)]

    @pytest.mark.parametrize("g, lam", [
        (make_star([1.0, 0.7, 1.3]), -3.461724246805116),
        (make_star(DEEP_STAR_LENGTHS), DEEP_STAR_LAM1),
        (make_star([1.0] * 3), 0.0),
        (make_star([1.0] * 3), STAR3_EQUIL[2]),
        (make_cycle([1.0]), 4 * PI2),
        (make_figure8(0.5, 0.5), 16 * PI2),
        (make_figure8(0.5, 0.5), -1.0),
        (make_cycle([0.4, 0.6, 0.5, 0.5]), 4 * PI2),
    ], ids=["star3", "deep", "zero", "positive", "cycle-double",
            "figure8-triple", "figure8-negative", "cycle4-double"])
    def test_matches_the_former_samples_bytes(self, g, lam):
        # where the former amplitudes kept their digits (kappa l <= 4.4
        # here), both give the same functions: values and derivatives at
        # every edge's ends and Gauss nodes, to 1e-12 of each one's max
        from qgraph.quadform import edge_quadrature

        funcs = eigenfunction_at(g, lam)
        former = self.former_eigenfunction_at(g, lam)
        assert len(funcs) == len(former)
        points = {e.id: np.concatenate(([0.0, e.length],
                                        edge_quadrature(e.length)[0]))
                  for e in g.edges}

        def samples(fn):
            return np.concatenate([fn(eid, x) for eid, x in points.items()])

        for f, (value, derivative) in zip(funcs, former):
            for got, want in ((f.value, value), (f.derivative, derivative)):
                got, want = samples(got), samples(want)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_not_an_eigenvalue(self, star3):
        with pytest.raises(NotAnEigenvalue):
            eigenfunction_at(star3, 2.0)

    @pytest.mark.parametrize("long", [3.0, 4.0, 30.0, 100.0, 300.0, 3000.0],
                             ids=lambda x: f"star-{x:g}")
    def test_deep_ground_state_reproduces_its_eigenvalue(self, long):
        # kappa l = 25 to 38,000 on the long edges: amplitudes over cosh/sinh
        # lose every digit there, the decaying pair's coefficients none, and
        # the pieces of `_basis_breaks` follow e^(-kappa x) from both ends,
        # where one Gauss rule per edge read the quotient 0.40 relative off
        g = make_star([long, 2.0, 1e-3])
        lam = first_eigenvalues(g, 1)[0][0]
        (f,) = eigenfunction_at(g, lam)
        q = rayleigh_quotient(g, f.as_trial())
        assert abs(q - lam) <= 1e-12 * abs(lam)
        assert abs(closed_form_norm_sq(g, f) - 1.0) <= 1e-12
        assert residual(g, f) < 1e-9

    def test_high_roots_reproduce_their_eigenvalues(self):
        # k l up to 950 on the long edge: `_basis_breaks` cuts it into
        # pieces of k l <= 20, where one Gauss rule per edge read quotients
        # up to 1.4 relative off. Every edge is split at each root, and a
        # split layout grows with k l, so none enters `_quadrature`'s cache
        g = make_star([3.0, 2.0, 1.0])
        spec = find_spectrum(g, (1e3, 1e5))
        assert spec.diagnostics == [] and spec.count == 542
        before = quadform_mod._quadrature.cache_info()
        for r in spec.records:
            for f in eigenfunction_at(g, r.lam):
                assert abs(rayleigh_quotient(g, f) - r.lam) <= 1e-12 * r.lam
        assert quadform_mod._quadrature.cache_info() == before


class TestEnumerationInvariance:
    """Spectrum-preserving rewrites of the endpoint orders.

    The cyclic order at each vertex is part of the operator, but rotations,
    the global reversal, and arbitrary permutations at star centers provably
    preserve the spectrum.
    """

    def test_vertex_rotation(self, fig8):
        base = find_spectrum(fig8, (-5.0, 50.0)).lambdas()
        order = fig8.vertices[0].order
        for shift in (1, 2, 3):
            rot = reorder(fig8, "v0", order[shift:] + order[:shift])
            got = find_spectrum(rot, (-5.0, 50.0)).lambdas()
            assert got == pytest.approx(base, abs=1e-8)

    def test_global_reversal(self):
        g = make_star([1.0, 0.7, 1.3])
        rev = g
        for v in g.vertices:
            rev = reorder(rev, v.id, tuple(reversed(v.order)))
        base = find_spectrum(g, (-10.0, 30.0)).lambdas()
        got = find_spectrum(rev, (-10.0, 30.0)).lambdas()
        assert got == pytest.approx(base, abs=1e-8)

    def test_star_center_permutation(self):
        g = make_star([1.0, 0.7, 1.3])
        base = find_spectrum(g, (-10.0, 30.0)).lambdas()
        order = g.vertices[0].order
        perm = reorder(g, "v0", (order[2], order[0], order[1]))
        got = find_spectrum(perm, (-10.0, 30.0)).lambdas()
        assert got == pytest.approx(base, abs=1e-8)

    def test_interleaved_figure8_differs(self, fig8):
        # genus-1 enumeration of the same metric data: no negative eigenvalue
        inter = reorder(fig8, "v0",
                        (("e1", "start"), ("e2", "start"), ("e1", "end"), ("e2", "end")))
        assert count_negative(inter) == 0
        assert count_negative(fig8) == 1


class TestSpectrumObject:
    def test_lambdas_and_nth(self, star3):
        spec = find_spectrum(star3, (-10.0, 10.0))
        lams = spec.lambdas()
        assert lams == sorted(lams)
        assert spec.nth(1) == pytest.approx(STAR3_EQUIL[0], abs=1e-8)
        assert spec.nth(5) == pytest.approx(PI2, abs=1e-8)
        assert spec.count == 5
        with pytest.raises(IndexError):
            spec.nth(6)

    def test_json_round_trip_fields(self, star3):
        spec = find_spectrum(star3, (-1.0, 2.0))
        d = spec.to_json_dict()
        assert d["method"] == "edge"
        assert d["window"] == [-1.0, 2.0]
        # 0 and 1.067 lie in the window, lambda_1 = -3.329 below it
        assert [(e["lambda"], e["mult"]) for e in d["eigenvalues"]] == [
            (r.lam, r.mult) for r in spec.records]
        assert spec.count == 2
