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
    _SPLIT,
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
        # 2E x 2E on the edge route, 3E x 3E over the DtN route's endpoint
        # and split-point traces
        for method, size in (("edge", 6), ("dtn", 9)):
            m = build_secular_matrix(star3, -1.0, method)
            assert m.shape == (size, size)
            assert m.dtype == np.complex128

    def test_unknown_method(self, star3):
        with pytest.raises(ValueError):
            build_secular_matrix(star3, -1.0, "spectral")

    def test_dtn_singular_names_the_edge_of_the_piece(self):
        # the DtN route's matrix is singular only on a pole of a piece: here
        # the first of the 0.7 edge's second piece, past the unit edge's
        # regular pieces. pi^2, the unit edge's own pole, is regular
        g = make_star([1.0, 0.7, 1.3])
        lam = (math.pi / (0.7 - _SPLIT * 0.7)) ** 2
        with pytest.raises(DtNSingular) as err:
            build_secular_matrix(g, lam, "dtn")
        assert (err.value.edge_id, err.value.index) == (g.edges[1].id, 1)
        assert np.isfinite(build_secular_matrix(g, math.pi ** 2, "dtn")).all()

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
    """A per-piece += assembly of A + i B M(lambda) over the traces (F, u):
    each edge split at _SPLIT of its length, its split-point trace in column
    2E + e, whose row is that of a Neumann vertex of degree 2 (A = 0, B = 1):
    the inward derivatives of its two pieces sum to zero."""
    m = 2 * g.num_edges
    size = m + g.num_edges
    a, b, dtn = np.zeros((size, size)), np.eye(size), np.zeros((size, size))
    a[:m, :m], b[:m, :m] = assemble_blocks(g)
    for k, e in enumerate(g.edges):
        u = m + k
        first = _SPLIT * e.length
        for (i, j), length in (((g.slot_index[(e.id, START)], u), first),
                               ((u, g.slot_index[(e.id, END)]),
                                e.length - first)):
            blk = reference_interval_dtn(length, lam, e.id)
            dtn[i, i] += blk[0, 0]
            dtn[i, j] += blk[0, 1]
            dtn[j, i] += blk[1, 0]
            dtn[j, j] += blk[1, 1]
    return a + 1j * (b @ dtn)


def reference_dtn_grid(g, lams):
    """A per-lambda DtN loop of the sigma grid: every singular value of
    each lambda, descending, and a row of inf at a piece's pole."""
    out = np.full((len(lams), 3 * g.num_edges), np.inf)
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
# the first Dirichlet eigenvalue of a unit edge's first piece, a pole of the
# DtN route, and a lambda just inside its pole rule
PIECE_POLE = (math.pi / _SPLIT) ** 2
PIECE_POLE_IN = PIECE_POLE * (1 + 1.5e-13)
DTN_GRAPHS = {
    "star3-unit": make_star([1.0, 1.0, 1.0]),
    "star4-unit": make_star([1.0, 0.7, 1.3, 0.9]),
    "dstar3": make_star([1.0, 0.7, 1.3], tip_bc=BoundaryType.DIRICHLET),
    "figure8": make_figure8(0.5, 0.5),
    "cycle1": make_cycle([1.0]),
    "cycle4": make_cycle([0.4, 0.6, 0.3, 0.7]),
    "path3": make_path([0.5, 1.0, 0.7]),
}
# a mixed-sign batch: both branches, lambda = 0 and +-1e-7, the edge
# Dirichlet eigenvalues pi^2 (unit edges) and 4 pi^2 (figure-8 loops,
# one-edge cycle), which the split leaves regular, and a unit edge's first
# piece's pole
DTN_GRID = np.concatenate([np.linspace(-20.0, -0.05, 60), [-1e-7, 0.0, 1e-7],
                           np.linspace(0.05, 45.0, 150),
                           [PI2, POLE_IN, POLE_OUT, 4.0 * PI2, PIECE_POLE,
                            PIECE_POLE_IN]])
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
    """The batched DtN tables, matrices and grid must reproduce a per-lambda
    loop bit for bit, poles and lambda = 0 included."""

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

    def test_overflow_rows_match_one_lambda_builds(self):
        # at -300^2 the 4.0 edge's second piece has kappa l = 742: its sinh
        # overflows, and its entries take their limits -kappa and 0
        g = make_star([1.0, 0.7, 4.0])
        lams = [-300.0**2, -2.0, 0.0, 3.0, -283.0**2]
        mats, singular = build_dtn_grid(g, lams)
        assert np.isfinite(mats).all() and not singular.any()
        for lam, row in zip(lams, mats):
            assert row.tobytes() == build_dtn_grid(g, [lam])[0][0].tobytes()
            assert row.tobytes() == \
                build_secular_matrix(g, lam, "dtn").tobytes()
        u, end = 2 * g.num_edges + 2, g.slot_index[("e3", END)]
        diag, off, _ = dtn_tables(lams[0], [_SPLIT * 4.0, (1 - _SPLIT) * 4.0])
        assert (diag[0, 1], off[0, 1]) == (-300.0, 0.0)
        # the split point's row: the two pieces' inward derivatives
        assert mats[0, u, u] == 1j * (diag[0, 0] + diag[0, 1])
        assert mats[0, u, end] == 0.0

    @pytest.mark.parametrize("name", DTN_GRAPHS)
    def test_grid_matches_loop(self, name):
        g = DTN_GRAPHS[name]
        svals = _sigma_grid(g, prepare_structure(g), DTN_GRID, "dtn")
        assert svals.tobytes() == reference_dtn_grid(g, DTN_GRID).tobytes()
        smin = svals[:, -1]
        at_piece_pole = np.isin(DTN_GRID, [PIECE_POLE, PIECE_POLE_IN])
        assert np.isinf(smin[at_piece_pole]).all() == (name in HAS_UNIT_EDGE)
        assert np.isfinite(smin[~at_piece_pole]).all()

    @pytest.mark.parametrize("name", DTN_GRAPHS)
    def test_long_batch_matches_one_at_a_time(self, name):
        g = DTN_GRAPHS[name]
        struct = prepare_structure(g)
        lams = np.linspace(-16.0, 45.0, 1061)
        # a piece's pole and lambda = 0 in the middle of the batch
        lams[511:515] = [PIECE_POLE, 0.0, PIECE_POLE_IN, -1e-7]
        svals = _sigma_grid(g, struct, lams, "dtn")
        alone = [_sigma_grid(g, struct, [lam], "dtn") for lam in lams]
        assert svals.tobytes() == np.concatenate(alone).tobytes()
        assert svals.tobytes() == reference_dtn_grid(g, lams).tobytes()

    @pytest.mark.parametrize("name", DTN_GRAPHS)
    def test_matrices_match_former_assembly(self, name):
        g = DTN_GRAPHS[name]
        mats, singular = build_dtn_grid(g, DTN_GRID)
        assert mats.shape == (DTN_GRID.size, 3 * g.num_edges, 3 * g.num_edges)
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


def brentq_kappas(lengths, tips):
    """The roots as `reduced_negative_kappas` found them with scipy: brentq
    on each sign-change bracket of the same 20,000-point grid, which ends at
    max(C / tanh 1, sqrt(C / (l_min tanh 1))), C = cot(pi / 2N)."""
    lengths = np.asarray(lengths, dtype=float)
    c = 1.0 / math.tan(math.pi / (2 * lengths.size))
    kappa_max = max(c / math.tanh(1.0),
                    math.sqrt(c / (np.min(lengths) * math.tanh(1.0))))
    grid = np.linspace(1e-6, kappa_max, 20000)
    sign = np.sign(star_secular_reduced(lengths, tips, grid))
    return [brentq(lambda k: star_secular_reduced(lengths, tips, k),
                   grid[i], grid[i + 1], xtol=BRENTQ_XTOL, rtol=BRENTQ_RTOL)
            for i in np.flatnonzero(sign[:-1] * sign[1:] < 0)]


# every star the tests pass to reduced_negative_kappas
REDUCED_STARS = [
    ([1.0] * 3, "neumann"), ([1.0] * 4, "neumann"), ([1.0] * 6, "neumann"),
    ([1.0] * 3, "dirichlet"), ([1.0, 0.7, 1.3], "neumann"),
    ([0.55] * 3, "dirichlet"), ([0.6] * 3, "dirichlet"),
    ([120.0, 1.0, 1.0], "neumann"), ([1.0, 1.0, 0.001], "neumann"),
    ([1.0, 0.7, 0.002], "neumann"),
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
    return [(list(r[1]), r[2]) for r in refs if r[0] == "reduced"]


BRENTQ_STARS = [*REDUCED_STARS, *scan_reference_stars()]


def solver_stars():
    """Seeded random stars, N = 3..10, and equilateral stars, N = 3..12,
    each with both tips."""
    rng = np.random.default_rng(46)
    for _ in range(64):
        n, total = int(rng.integers(3, 11)), float(rng.uniform(0.3, 10.0))
        w = rng.uniform(0.2, 1.0, n)
        for tips in ("neumann", "dirichlet"):
            yield (total * w / w.sum()).tolist(), tips
    for n in range(3, 13):
        for length in (0.05, 0.3, 1.0, 3.0, 10.0):
            for tips in ("neumann", "dirichlet"):
                yield [length] * n, tips


def solver_negatives(lengths, tips):
    g = make_star(lengths, tip_bc=tips)
    spec = find_spectrum(g, (default_negative_floor(g), -1e-8))
    return [(r.lam, r.mult) for r in spec.records]


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
        # the product vanishes, to rounding, at every root found
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

    def test_unknown_tip_condition(self):
        with pytest.raises(ValueError, match="unknown tip condition 'robin'"):
            star_secular_reduced([1.0, 1.0, 1.0], "robin", 1.0)

    @pytest.mark.parametrize("tips,count", [("neumann", 2),
                                            ("dirichlet", 1)])
    def test_non_equilateral_five_star(self, tips, count):
        # one form for every star: a 5-star of unequal lengths has the
        # solver's negative eigenvalues as its roots
        lengths = [0.4, 1.1, 0.7, 1.6, 0.9]
        got = solver_negatives(lengths, tips)
        want = sorted(-k * k for k in reduced_negative_kappas(lengths, tips))
        assert len(want) == count
        assert [m for _, m in got] == [1] * count
        for (lam, _), ref in zip(got, want):
            assert abs(lam - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("tips", ["neumann", "dirichlet"])
    def test_closed_form_is_the_product_times_its_scale(self, tips):
        # the product form is 2i prod cosh (prod sinh at Dirichlet tips)
        # times Im prod (1 + i kappa tau)
        lengths = [0.4, 1.1, 0.7, 1.6, 0.9, 0.3]
        scale = np.cosh if tips == "neumann" else np.sinh
        for kap in (0.3, 1.0, 2.5):
            want = star_secular_closed_form(lengths, tips, kap)
            got = 2j * np.prod(scale(kap * np.asarray(lengths))) \
                * star_secular_reduced(lengths, tips, kap)
            assert got == pytest.approx(want, rel=1e-12)

    def test_roots_are_the_solvers_negative_eigenvalues(self):
        # seeded random stars and equilateral stars up to N = 12, both tips:
        # as many roots as simple negative eigenvalues, each within the
        # solver's REFINE_TOL = 1e-12 scale, relative to max(1, |lambda|)
        for lengths, tips in solver_stars():
            got = solver_negatives(lengths, tips)
            want = sorted(-k * k
                          for k in reduced_negative_kappas(lengths, tips))
            assert [m for _, m in got] == [1] * len(want), (lengths, tips)
            for (lam, _), ref in zip(got, want):
                assert abs(lam - ref) <= 1e-12 * max(1.0, abs(ref)), (
                    lengths, tips, lam, ref)

    def test_grid_reaches_the_largest_root(self):
        # the Neumann 21-star of l = 100 has its largest root near
        # kappa = tan(10 pi / 21) = 13.3, beyond a grid end sized for
        # N <= 6, 3N / sqrt(l_min) + 5 = 11.3; all ten are found
        kaps = reduced_negative_kappas([100.0] * 21, "neumann")
        got = solver_negatives([100.0] * 21, "neumann")
        assert len(kaps) == len(got) == 10
        assert kaps[-1] == pytest.approx(math.tan(10 * math.pi / 21),
                                         rel=1e-12)
        for (lam, _), k in zip(got, reversed(kaps)):
            assert abs(lam + k * k) <= 1e-12 * k * k

    @pytest.mark.parametrize("lengths,tips", BRENTQ_STARS, ids=[
        # ids as they read when each star carried its own grid end: 40.0
        # for the two short-edge stars, None for the rest
        f"lengths{i}-{tips}-{40.0 if min(lengths) < 0.01 else None}"
        for i, (lengths, tips) in enumerate(BRENTQ_STARS)])
    def test_bisection_finds_the_brentq_roots(self, lengths, tips):
        # the same roots as one brentq per sign-change bracket of the same
        # grid, each within brentq's own tolerance
        got = reduced_negative_kappas(lengths, tips)
        want = brentq_kappas(lengths, tips)
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


class TestShuffledBatches:
    """Every row of a batch in shuffled order has the bytes of its one-point
    call: the counts, trust flags and singular values. The points mix both
    signs, 0 (an eigenvalue of the star), pi^2 (a Dirichlet eigenvalue of
    the unit edge), both with untrusted counts, and a pole of the unit
    edge's first DtN piece (where the DtN route has no matrix and reads inf,
    and the edge route does not)."""

    G = COUNT_GRAPHS["star3"]
    POLE = (math.pi / _SPLIT) ** 2
    LAMS = np.random.default_rng(7).permutation(
        [-30.0, -4.2, -0.3, -1e-7, 0.0, 1e-9, 0.7, 9.5, math.pi ** 2, POLE,
         40.0, 61.3])

    def test_count_below(self):
        counts, trusted = count_below(self.G, self.LAMS)
        for i, lam in enumerate(self.LAMS):
            one = count_below(self.G, [lam])
            assert one[0].tobytes() == counts[i:i + 1].tobytes()
            assert one[1].tobytes() == trusted[i:i + 1].tobytes()
        assert trusted.tolist() == [lam not in (0.0, math.pi ** 2)
                                    for lam in self.LAMS]

    @pytest.mark.parametrize("method", ["edge", "dtn"])
    def test_sigma_grid(self, method):
        plan = prepare_structure(self.G)
        svals = _sigma_grid(self.G, plan, self.LAMS, method)
        for i, lam in enumerate(self.LAMS):
            one = _sigma_grid(self.G, plan, [lam], method)
            assert one.tobytes() == svals[i:i + 1].tobytes()
        pole = self.LAMS == self.POLE
        assert np.isinf(svals[pole]).all() == (method == "dtn")
        assert np.isfinite(svals[~pole]).all()


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
