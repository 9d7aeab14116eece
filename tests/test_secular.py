"""Secular matrix, DtN blocks, closed forms, and negative-root reduction."""

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from qgraph.coupling import assemble_blocks
from qgraph.errors import DtNSingular
from qgraph.experiments import sample_graph
from qgraph.graph import (
    END,
    START,
    BoundaryType,
    make_cycle,
    make_figure8,
    make_path,
    make_star,
)
from qgraph.kernels import equilibrate_columns, prepare_structure
from qgraph.secular import (
    _POLE_TOL,
    build_dtn_grid,
    build_secular_matrix,
    count_below,
    dtn_tables,
    interval_dtn,
    reduced_negative_kappas,
    star_secular_reduced,
)
from qgraph.solve import _sigma_grid, default_negative_floor, find_spectrum

COTH1 = 1.3130352854993312  # coth(1)
CSCH1 = 0.8509181282393216  # 1/sinh(1)


def phase_root_oracle(lengths, tips, lo, hi, n=4000):
    """Independent root finder: zeros of Im prod_j z_j/|z_j| on a kappa grid.

    z_j = cosh + i*kappa*sinh for Neumann tips, sinh + i*kappa*cosh for
    Dirichlet.  Norm-reduced so the bracket values stay O(1).
    """

    def im_phase(kap):
        acc = 1.0 + 0.0j
        for l in lengths:
            if tips == "neumann":
                z = math.cosh(kap * l) + 1j * kap * math.sinh(kap * l)
            else:
                z = math.sinh(kap * l) + 1j * kap * math.cosh(kap * l)
            acc *= z / abs(z)
        return acc.imag

    grid = np.linspace(lo, hi, n)
    vals = [im_phase(k) for k in grid]
    roots = []
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0.0:
            roots.append(brentq(im_phase, a, b, xtol=1e-13))
    return roots


class TestIntervalDtn:
    def test_negative_energy_entries(self):
        m = interval_dtn(1.0, -1.0)
        expect = np.array([[-COTH1, CSCH1], [CSCH1, -COTH1]])
        assert np.allclose(m, expect, atol=1e-14)

    def test_negative_energy_maps_traces_to_inward_derivatives(self):
        # f(x) = sinh(k(l-x))/sinh(kl) has traces (1, 0); check both inward
        # derivatives against the first matrix column.
        kap, l = 1.7, 0.8
        m = interval_dtn(l, -kap**2)
        fprime0 = -kap * math.cosh(kap * l) / math.sinh(kap * l)
        fprimel = -kap / math.sinh(kap * l)
        assert m[0, 0] == pytest.approx(+fprime0, rel=1e-14)
        assert m[1, 0] == pytest.approx(-fprimel, rel=1e-14)

    def test_positive_energy_entries(self):
        # k = pi/2 on a unit interval: cot vanishes, sin is 1.
        m = interval_dtn(1.0, (math.pi / 2) ** 2)
        expect = np.array([[0.0, math.pi / 2], [math.pi / 2, 0.0]])
        assert np.allclose(m, expect, atol=1e-12)

    def test_zero_energy_entries(self):
        m = interval_dtn(2.0, 0.0)
        expect = np.array([[-0.5, 0.5], [0.5, -0.5]])
        assert np.allclose(m, expect, atol=1e-15)

    def test_pole_raises(self):
        with pytest.raises(DtNSingular):
            interval_dtn(1.0, math.pi**2)

    def test_overflowing_sinh_takes_the_limits(self):
        # kappa l = 720 overflows sinh: coth -> 1 and 1/sinh -> 0; the
        # finite column keeps the bytes it has alone
        diag, off, singular = dtn_tables([-36.0], [120.0, 1.0])
        assert diag[0, 0] == -6.0 and off[0, 0] == 0.0 and not singular[0]
        alone = dtn_tables([-36.0], [1.0])
        assert diag[0, 1].tobytes() == alone[0][0, 0].tobytes()
        assert off[0, 1].tobytes() == alone[1][0, 0].tobytes()

    def test_symmetric(self):
        for lam in (-2.3, 0.0, 3.7):
            m = interval_dtn(1.3, lam)
            assert m[0, 1] == pytest.approx(m[1, 0], rel=1e-14)


class TestSecularMatrix:
    def test_shapes(self, star3):
        for method in ("edge", "dtn"):
            m = build_secular_matrix(star3, -1.0, method)
            assert m.shape == (6, 6)
            assert m.dtype == np.complex128

    def test_unknown_method(self, star3):
        with pytest.raises(ValueError):
            build_secular_matrix(star3, -1.0, "spectral")

    def test_rank_drop_at_eigenvalue(self, star3):
        # lambda_1 of the equilateral 3-star; away from it the matrix is
        # comfortably invertible.
        lam = -3.3290586132660844
        s_at = np.linalg.svd(build_secular_matrix(star3, lam, "edge"), compute_uv=False)
        s_off = np.linalg.svd(build_secular_matrix(star3, lam + 0.5, "edge"), compute_uv=False)
        assert s_at[-1] < 1e-10 * s_at[0]
        assert s_off[-1] > 1e-4 * s_off[0]

    def test_dtn_and_edge_share_rank_drop(self):
        g = make_figure8(0.7, 1.3)
        lam = -1.0
        for method in ("edge", "dtn"):
            s = np.linalg.svd(build_secular_matrix(g, lam, method), compute_uv=False)
            assert s[-1] < 1e-9 * s[0]


# -- batched DtN route against the former per-lambda loop --------------------------

def reference_interval_dtn(length, lam, edge_id="interval"):
    """The former scalar DtN block of one interval."""
    l = float(length)
    if lam < 0.0:
        kap = np.sqrt(-lam)
        sh = np.sinh(kap * l)
        return np.array([[-kap * np.cosh(kap * l) / sh, kap / sh],
                         [kap / sh, -kap * np.cosh(kap * l) / sh]])
    if lam > 0.0:
        k = np.sqrt(lam)
        s = np.sin(k * l)
        if abs(s) < _POLE_TOL * max(1.0, k * l):
            raise DtNSingular(edge_id, int(round(k * l / np.pi)))
        return np.array([[-k * np.cos(k * l) / s, k / s],
                         [k / s, -k * np.cos(k * l) / s]])
    return np.array([[-1.0 / l, 1.0 / l], [1.0 / l, -1.0 / l]])


def reference_dtn_matrix(g, lam):
    """The former per-edge += assembly of A + i B M(lambda)."""
    blocks = assemble_blocks(g)
    m = 2 * g.num_edges
    dtn = np.zeros((m, m))
    for e in g.edges:
        i = g.slot_index[(e.id, START)]
        j = g.slot_index[(e.id, END)]
        blk = reference_interval_dtn(e.length, lam, e.id)
        dtn[i, i] += blk[0, 0]
        dtn[i, j] += blk[0, 1]
        dtn[j, i] += blk[1, 0]
        dtn[j, j] += blk[1, 1]
    return blocks.a + 1j * (blocks.b @ dtn)


def reference_dtn_grid(g, lams):
    """The former per-lambda DtN loop of the sigma grid: every singular
    value of each lambda, descending, and a row of inf at a pole."""
    out = np.full((len(lams), 2 * g.num_edges), np.inf)
    for i, lam in enumerate(lams):
        try:
            mat = reference_dtn_matrix(g, lam)
        except DtNSingular:
            continue
        if lam < 0.0:
            mat = equilibrate_columns(mat)[0]
        out[i] = np.linalg.svd(mat, compute_uv=False)
    return out


PI2 = math.pi**2
POLE_IN = PI2 * (1 + 1.5e-13)  # |sin k| just below _POLE_TOL * k on a unit edge
POLE_OUT = PI2 * (1 + 2e-13)  # and just above it
DTN_GRAPHS = {
    "star3-unit": make_star([1.0, 1.0, 1.0]),
    "star4-unit": make_star([1.0, 0.7, 1.3, 0.9]),
    "dstar3": make_star([1.0, 0.7, 1.3], tip_bc=BoundaryType.DIRICHLET),
    "figure8": make_figure8(0.5, 0.5),
    "cycle1": make_cycle([1.0]),
    "cycle4": make_cycle([0.4, 0.6, 0.3, 0.7]),
    "path3": make_path([0.5, 1.0, 0.7]),
}
# a mixed-sign batch: both branches, lambda = 0 and +-1e-7, the Dirichlet
# eigenvalues pi^2 (unit edges) and 4 pi^2 (figure-8 loops, one-edge cycle)
DTN_GRID = np.concatenate([np.linspace(-20.0, -0.05, 60), [-1e-7, 0.0, 1e-7],
                           np.linspace(0.05, 45.0, 150),
                           [PI2, POLE_IN, POLE_OUT, 4.0 * PI2]])
HAS_UNIT_EDGE = {name for name, g in DTN_GRAPHS.items()
                 if any(e.length == 1.0 for e in g.edges)}


def raised(fn, *args):
    """The DtNSingular fn raises, as comparable data, or None."""
    try:
        fn(*args)
    except DtNSingular as exc:
        return exc.edge_id, exc.index, str(exc)
    return None


class TestDtnByteIdentity:
    """The batched DtN tables, matrices and grid must reproduce the former
    per-lambda loop bit for bit, poles and lambda = 0 included."""

    def test_tables_flag_the_pole_rule(self):
        lams = [PI2, POLE_IN, POLE_OUT, 0.0, 1e-7, -1e-7, -3.0]
        diag, off, singular = dtn_tables(lams, [1.0, 0.7])
        assert diag.shape == off.shape == (7, 2)
        assert singular.tolist() == [True, True] + [False] * 5
        assert not dtn_tables(lams, [0.7])[2].any()

    def test_overflow_rows_match_scalar_calls(self):
        # k l passes 710 on the 2.5 edge on both branches; below zero sinh
        # overflows and the entries take their limits, with no warning. At
        # k l = 707.5 only k cosh(k l) overflows: the diagonal is still -k
        lams = [-300.0**2, -283.0**2, -2.0, -0.0, 0.0, 1e-9, 3.0, PI2,
                300.0**2]
        lengths = [0.3, 1.0, 2.5]
        tables = dtn_tables(lams, lengths)
        for i, lam in enumerate(lams):
            for table, row in zip(tables, dtn_tables(lam, lengths)):
                assert table[i].tobytes() == row[0].tobytes()
        diag, off, singular = tables
        assert diag[0, 2] == -300.0 and off[0, 2] == 0.0
        assert diag[1, 2] == -283.0 and 0.0 < off[1, 2] < 1e-300
        assert singular.tolist() == [False] * 7 + [True, False]

    @pytest.mark.parametrize("name", DTN_GRAPHS)
    def test_grid_matches_loop(self, name):
        g = DTN_GRAPHS[name]
        svals = _sigma_grid(g, prepare_structure(g), DTN_GRID, "dtn")
        assert svals.tobytes() == reference_dtn_grid(g, DTN_GRID).tobytes()
        smin = svals[:, -1]
        at_pi2 = np.isin(DTN_GRID, [PI2, POLE_IN])
        assert np.isinf(smin[at_pi2]).all() == (name in HAS_UNIT_EDGE)
        assert np.isfinite(smin[np.abs(DTN_GRID) <= 1e-7]).all()

    @pytest.mark.parametrize("name", DTN_GRAPHS)
    def test_long_batch_matches_one_at_a_time(self, name):
        g = DTN_GRAPHS[name]
        struct = prepare_structure(g)
        lams = np.linspace(-16.0, 45.0, 1061)
        # a pole and lambda = 0 in the middle of the batch
        lams[511:515] = [PI2, 0.0, POLE_IN, -1e-7]
        svals = _sigma_grid(g, struct, lams, "dtn")
        alone = [_sigma_grid(g, struct, [lam], "dtn") for lam in lams]
        assert svals.tobytes() == np.concatenate(alone).tobytes()
        assert svals.tobytes() == reference_dtn_grid(g, lams).tobytes()

    @pytest.mark.parametrize("name", DTN_GRAPHS)
    def test_matrices_match_former_assembly(self, name):
        g = DTN_GRAPHS[name]
        mats, singular = build_dtn_grid(g, DTN_GRID)
        assert mats.shape == (DTN_GRID.size, 2 * g.num_edges, 2 * g.num_edges)
        for lam, row, sing in zip(DTN_GRID, mats, singular):
            err = raised(reference_dtn_matrix, g, lam)
            assert raised(build_secular_matrix, g, lam, "dtn") == err
            assert sing == (err is not None)
            if err is None:
                ref = reference_dtn_matrix(g, lam).tobytes()
                assert build_secular_matrix(g, lam, "dtn").tobytes() == ref
                assert row.tobytes() == ref

    def test_interval_dtn_matches_former_scalar_form(self):
        for length in (1.0, 0.37, 2.5):
            for lam in DTN_GRID:
                err = raised(reference_interval_dtn, length, lam, "e7")
                assert raised(interval_dtn, length, lam, "e7") == err
                if err is None:
                    got = interval_dtn(length, lam, "e7")
                    assert got.shape == (2, 2)
                    ref = reference_interval_dtn(length, lam, "e7")
                    assert got.tobytes() == ref.tobytes()
        assert raised(interval_dtn, 1.0, 4.0 * PI2, "e7")[:2] == ("e7", 2)


def star_secular_closed_form(lengths, tips, kappa):
    """Product form for a star at lambda = -kappa^2; zero iff eigenvalue.

    With per-edge factors A_j, B_j built from cosh/sinh (Neumann tips) or
    sinh/cosh (Dirichlet tips), the value is prod A_j + (-1)^(N+1) prod B_j.
    """
    lengths = np.asarray(lengths, dtype=float)
    n = lengths.size
    kl = kappa * lengths
    if tips == "neumann":
        a = np.cosh(kl) + 1j * kappa * np.sinh(kl)
        b = -np.cosh(kl) + 1j * kappa * np.sinh(kl)
    else:  # dirichlet
        a = np.sinh(kl) + 1j * kappa * np.cosh(kl)
        b = -np.sinh(kl) + 1j * kappa * np.cosh(kl)
    return complex(np.prod(a) + (-1) ** (n + 1) * np.prod(b))


def edge_determinant(g, kap):
    # at kappa * max(l) < 1 every edge keeps the cosh/sinh pair, the basis
    # the closed forms are stated in
    assert kap * max(e.length for e in g.edges) < 1.0
    return complex(np.linalg.det(build_secular_matrix(g, -kap**2)))


class TestClosedForms:
    def test_three_star_ratio_is_i(self):
        lengths = [1.0, 0.7, 1.3]
        g = make_star(lengths)
        for kap in (0.3, 0.5, 0.76):
            ratio = edge_determinant(g, kap) / star_secular_closed_form(
                lengths, "neumann", kap
            )
            assert ratio == pytest.approx(1j, abs=1e-12)

    def test_four_star_ratio_is_one(self):
        lengths = [1.0, 1.0, 1.0, 1.0]
        g = make_star(lengths)
        for kap in (0.5, 0.75, 0.99):
            ratio = edge_determinant(g, kap) / star_secular_closed_form(
                lengths, "neumann", kap
            )
            assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_dirichlet_star_ratio_is_kappa_cubed_reciprocal(self):
        lengths = [1.0, 1.0, 1.0]
        g = make_star(lengths, tip_bc="dirichlet")
        for kap in (0.5, 0.75, 0.99):
            ratio = edge_determinant(g, kap) / star_secular_closed_form(
                lengths, "dirichlet", kap
            )
            assert ratio * kap**3 == pytest.approx(1.0, abs=1e-11)

    def test_closed_form_vanishes_at_oracle_roots(self):
        lengths = [1.0, 0.7, 1.3]
        roots = phase_root_oracle(lengths, "neumann", 0.05, 4.0)
        assert roots
        for kap in roots:
            val = star_secular_closed_form(lengths, "neumann", kap)
            scale = sum(abs(math.cosh(kap * l) + 1j * kap * math.sinh(kap * l)) for l in lengths)
            assert abs(val) < 1e-8 * scale**3


BRENTQ_XTOL, BRENTQ_RTOL = 1e-13, 8.9e-16


def brentq_kappas(lengths, tips, kappa_max=None):
    """The roots as `reduced_negative_kappas` found them with scipy: brentq
    on each sign-change bracket of the same 20,000-point grid."""
    lengths = np.asarray(lengths, dtype=float)
    if kappa_max is None:
        kappa_max = 3.0 * lengths.size / np.sqrt(np.min(lengths)) + 5.0
    grid = np.linspace(1e-6, kappa_max, 20000)
    sign = np.sign(star_secular_reduced(lengths, tips, grid))
    return [brentq(lambda k: star_secular_reduced(lengths, tips, k),
                   grid[i], grid[i + 1], xtol=BRENTQ_XTOL, rtol=BRENTQ_RTOL)
            for i in np.flatnonzero(sign[:-1] * sign[1:] < 0)]


# every star the tests pass to reduced_negative_kappas
REDUCED_STARS = [
    ([1.0] * 3, "neumann", None), ([1.0] * 4, "neumann", None),
    ([1.0] * 6, "neumann", None), ([1.0] * 3, "dirichlet", None),
    ([1.0, 0.7, 1.3], "neumann", None), ([0.55] * 3, "dirichlet", None),
    ([0.6] * 3, "dirichlet", None), ([120.0, 1.0, 1.0], "neumann", None),
    ([1.0, 1.0, 0.001], "neumann", 40.0), ([1.0, 0.7, 0.002], "neumann", 40.0),
]


def scan_reference_stars():
    """The stars of the benchmark's scan ops 0-23 at seeds 1-3 whose
    negative levels its check reads from reduced_negative_kappas."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    try:
        workloads = importlib.import_module("qgbench.workloads")
    finally:
        sys.path.pop(0)
    refs = [workloads.scan_spec(seed, i)["ref"]
            for seed in (1, 2, 3) for i in range(24)]
    return [(list(r[1]), r[2], None) for r in refs if r[0] == "reduced"]


class TestReducedForms:
    def test_equilateral_three_star(self):
        kaps = reduced_negative_kappas([1.0, 1.0, 1.0], "neumann")
        assert len(kaps) == 1
        assert kaps[0] == pytest.approx(1.824570802480979, abs=1e-11)

    def test_equilateral_four_star(self):
        kaps = reduced_negative_kappas([1.0] * 4, "neumann")
        assert len(kaps) == 1
        assert kaps[0] == pytest.approx(1.199678640257734, abs=1e-11)

    def test_equilateral_six_star(self):
        kaps = reduced_negative_kappas([1.0] * 6, "neumann")
        assert len(kaps) == 2
        assert kaps[0] == pytest.approx(0.8411235004579221, abs=1e-11)
        assert kaps[1] == pytest.approx(1.824570802480979, abs=1e-11)

    def test_equilateral_dirichlet_three_star(self):
        kaps = reduced_negative_kappas([1.0] * 3, "dirichlet")
        assert len(kaps) == 1
        assert kaps[0] == pytest.approx(1.595091108713568, abs=1e-11)

    def test_general_lengths_match_phase_oracle(self):
        lengths = [1.0, 0.7, 1.3]
        kaps = reduced_negative_kappas(lengths, "neumann")
        oracle = phase_root_oracle(lengths, "neumann", 0.05, 6.0)
        assert len(kaps) == len(oracle) == 1
        assert kaps[0] == pytest.approx(oracle[0], abs=1e-10)
        assert kaps[0] == pytest.approx(1.860570946458403, abs=1e-11)

    def test_short_dirichlet_star_has_no_root(self):
        assert reduced_negative_kappas([0.55] * 3, "dirichlet") == []

    def test_long_dirichlet_star_has_one_root(self):
        kaps = reduced_negative_kappas([0.6] * 3, "dirichlet")
        assert len(kaps) == 1
        assert kaps[0] == pytest.approx(0.5740185154466122, abs=1e-11)

    def test_reduced_form_values(self):
        # Spot-check the algebraic reductions against the closed form's sign
        # structure: both must vanish together.
        for lengths, tips in ([[1.0] * 3, "neumann"], [[1.0] * 4, "neumann"],
                              [[1.0] * 6, "neumann"], [[1.0] * 3, "dirichlet"]):
            for kap in reduced_negative_kappas(lengths, tips):
                assert abs(star_secular_reduced(lengths, tips, kap)) < 1e-8

    @pytest.mark.parametrize("lengths,tips", [
        ([1.0, 0.7, 1.3], "neumann"), ([1.0] * 4, "neumann"),
        ([1.0] * 6, "neumann"), ([0.6, 0.9, 1.4], "dirichlet")])
    def test_array_of_kappas_matches_scalar_calls(self, lengths, tips):
        kaps = np.linspace(1e-3, 6.0, 41)
        vals = star_secular_reduced(lengths, tips, kaps)
        assert vals.shape == kaps.shape
        scalar = [star_secular_reduced(lengths, tips, k) for k in kaps.tolist()]
        assert all(type(v) is float for v in scalar)
        np.testing.assert_allclose(vals, scalar, rtol=1e-14, atol=0)

    def test_unsupported_combination(self):
        with pytest.raises(ValueError):
            star_secular_reduced([1.0] * 5, "neumann", 1.0)

    @pytest.mark.parametrize("lengths,tips,kappa_max", [
        *REDUCED_STARS, *scan_reference_stars()])
    def test_bisection_finds_the_brentq_roots(self, lengths, tips, kappa_max):
        # the same roots as one brentq per sign-change bracket of the same
        # grid, each within brentq's own tolerance
        got = reduced_negative_kappas(lengths, tips, kappa_max)
        want = brentq_kappas(lengths, tips, kappa_max)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert abs(a - b) <= BRENTQ_XTOL + BRENTQ_RTOL * abs(b)

    def test_positive_dirichlet_reduction(self):
        # the equilateral Dirichlet 3-star's second positive eigenvalue is
        # k0^2 at the root of 3 tan^2(k) = k^2 past the tan pole at pi/2
        k0 = brentq(lambda k: 3 * math.tan(k) ** 2 - k**2, 2.0, 2.5, xtol=1e-15)
        g = make_star([1.0] * 3, tip_bc="dirichlet")
        lams = find_spectrum(g, (0.1, 6.0)).lambdas()
        assert len(lams) == 2
        assert lams[1] == pytest.approx(k0**2, rel=1e-12)


def _sampled(seed):
    return sample_graph(np.random.default_rng(seed), 5, total=2.0)


# stars with Neumann and Dirichlet tips, equilateral even stars (the
# alternating-sum constraint), figure-8s, cycles, a path, and sampled
# multigraphs with loops and parallel edges (seeds 4, 6, 11 have both,
# seed 8 parallel edges and only even vertices)
COUNT_GRAPHS = {
    "star3": make_star([1.0, 0.7, 1.3]),
    "star3-dirichlet": make_star([1.0, 0.7, 1.3], tip_bc="dirichlet"),
    "star3-equilateral-dirichlet": make_star([1.0] * 3, tip_bc="dirichlet"),
    "star4-equilateral": make_star([1.0] * 4),
    "star6-equilateral": make_star([0.7] * 6),
    "figure8-0.3-0.9": make_figure8(0.3, 0.9),
    "figure8-0.5-0.5": make_figure8(0.5, 0.5),
    "cycle1": make_cycle([1.0]),
    "cycle4": make_cycle([0.4, 0.6, 0.3, 0.7]),
    "path": make_path([0.6, 0.4]),
    "sampled4": _sampled(4),
    "sampled6": _sampled(6),
    "sampled8": _sampled(8),
    "sampled11": _sampled(11),
}


class TestCountBelow:
    """N(lambda), the number of eigenvalues below lambda, from the inertia of
    the DtN form against the eigenvalues find_spectrum certifies."""

    def test_sampled_graphs_have_loops_and_parallel_edges(self):
        for name in ("sampled4", "sampled6", "sampled8", "sampled11"):
            g = COUNT_GRAPHS[name]
            pairs = [tuple(sorted((e.src, e.dst))) for e in g.edges]
            assert len(set(pairs)) < len(pairs), name
        assert any(e.src == e.dst for e in COUNT_GRAPHS["sampled11"].edges)

    @pytest.mark.parametrize("name", sorted(COUNT_GRAPHS))
    def test_counts_match_find_spectrum(self, name):
        g = COUNT_GRAPHS[name]
        floor = default_negative_floor(g)
        spec = find_spectrum(g, (2.0 * floor, 60.0))
        assert spec.diagnostics == []
        lams = spec.lambdas()
        probes = np.array([2.0 * floor - 1.0, floor, -20.3, -3.3, -0.5, 0.3,
                           5.1, 17.3, 33.3, 59.9])
        counts, trusted = count_below(g, probes)
        assert trusted.all()
        assert counts.tolist() == [sum(lam < p for lam in lams) for p in probes]
        assert counts[1] == 0

    def test_probe_on_a_pole_is_untrusted(self):
        # pi^2 is a Dirichlet eigenvalue of the unit edge: no DtN map there
        g = COUNT_GRAPHS["star3"]
        assert dtn_tables([math.pi ** 2], [1.0])[2][0]
        counts, trusted = count_below(g, [math.pi ** 2 - 1e-3, math.pi ** 2,
                                          math.pi ** 2 + 1e-3])
        assert trusted.tolist() == [True, False, True]
        assert counts[2] - counts[0] == 1  # pi^2 is an eigenvalue here

    def test_probe_on_an_eigenvalue_is_untrusted(self):
        # 0 is an eigenvalue (constants) and Q(0) is exactly singular
        counts, trusted = count_below(make_star([1.0] * 3), [-1e-3, 0.0, 1e-3])
        assert trusted.tolist() == [True, False, True]
        assert counts[2] - counts[0] == 1

    def test_batch_matches_one_at_a_time(self):
        g = COUNT_GRAPHS["sampled6"]
        lams = np.linspace(-30.0, 60.0, 37)
        counts, trusted = count_below(g, lams)
        for lam, c, t in zip(lams, counts, trusted):
            one = count_below(g, lam)
            assert (one[0][0], one[1][0]) == (c, t)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_edge_counts_are_untrusted_and_finite(self):
        # on a 1e300 edge k l is past 2^53 times pi at every positive probe
        # here, and not finite at 1e17 and above: those rows count 0 Dirichlet
        # eigenvalues, untrusted, with no invalid cast or overflow warned
        g = make_star([1e300, 1.0, 1.0])
        lams = [-1.0, 1e-300, 1e-2, 1.0, 1e10, 1e17, 1e300, math.inf]
        counts, trusted = count_below(g, lams)
        assert trusted.tolist() == [True] + [False] * 7
        assert 0 <= counts.min() and counts.max() <= 2 * g.num_edges
        # the probe whose count is exact keeps the count it has alone
        assert counts[0] == count_below(g, [-1.0])[0][0]

    def test_empty_trace_space(self):
        # a Dirichlet interval keeps no trace: N = N_D, the (n pi)^2 below
        g = make_path([1.0], tip_bc="dirichlet")
        counts, trusted = count_below(g, [-1.0, 5.0, 10.0, 50.0])
        assert counts.tolist() == [0, 0, 1, 2] and trusted.all()
        assert count_below(g, [])[0].shape == (0,)
