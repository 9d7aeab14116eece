"""Scan kernels: the per-graph edge plan, basis switching, byte identity of
the vectorized assembly, equilibration and per-row sigma identity of the
scan."""

import math

import numpy as np
import pytest

import qgraph.kernels as kernels_mod
from qgraph.graph import (
    END,
    BoundaryType,
    make_cycle,
    make_figure8,
    make_path,
    make_star,
)
from qgraph.kernels import (
    SCAN_CHUNK,
    build_matrix_grid_numpy,
    edge_basis_traces,
    edge_builder,
    equilibrate_columns,
    prepare_structure,
    scan_sigma,
)
from qgraph.secular import build_secular_matrix


class TestPrepareStructure:
    def test_layout(self, star3):
        # the plan lays every chunk of traces into the matrices the vertex
        # conditions give, touching no target twice within a step
        steps, lengths = prepare_structure(star3)
        assert lengths.tolist() == [1.0, 1.0, 1.0]
        for tgt, src, op in steps:
            assert np.unique(tgt).size == tgt.size
            assert 0 <= tgt.min() and tgt.max() < 2 * 6 * 6
            assert 0 <= src.min() and src.max() < 8 * 3
        got = build_matrix_grid_numpy(BYTE_GRID, prepare_structure(star3))
        assert got.tobytes() == reference_matrix_grid(star3, BYTE_GRID).tobytes()

    def test_cached(self, star3):
        # one plan per graph: an equal graph shares it, another has its own
        assert prepare_structure(star3) is prepare_structure(star3)
        assert prepare_structure(make_star([1.0, 1.0, 1.0])) is \
            prepare_structure(star3)
        assert prepare_structure(make_star([1.0, 0.7, 1.3])) is not \
            prepare_structure(star3)


class TestBasisTraces:
    def test_zero_energy(self):
        f10, f20, d10, d20, f1l, f2l, d1l, d2l = edge_basis_traces(0.0, [2.0])
        assert f1l[0] == 1.0 and f2l[0] == 2.0
        assert d1l[0] == 0.0 and d2l[0] == -1.0

    def test_entire_pair_shallow_negative(self):
        # kappa*l < 1 keeps cosh/sinh even without the entire flag
        kap, l = 0.5, 1.0
        out = edge_basis_traces(-kap**2, [l])
        assert out[4][0] == pytest.approx(math.cosh(kap * l))
        assert out[5][0] == pytest.approx(math.sinh(kap * l) / kap)

    def test_decaying_pair_deep_negative(self):
        # kappa*l >= 1 switches to {e^(-kx), e^(-k(l-x))}: traces stay bounded
        kap, l = 3.0, 2.0
        f10, f20, d10, d20, f1l, f2l, d1l, d2l = edge_basis_traces(-kap**2, [l])
        es = math.exp(-kap * l)
        assert f10[0] == 1.0 and f20[0] == pytest.approx(es)
        assert d10[0] == pytest.approx(-kap)
        assert f2l[0] == 1.0 and d2l[0] == pytest.approx(-kap)
        assert max(abs(v[0]) for v in (f10, f20, f1l, f2l)) <= 1.0 + 1e-15

    def test_entire_flag_forces_hyperbolic(self):
        kap, l = 3.0, 2.0
        out = edge_basis_traces(-kap**2, [l], entire=True)
        assert out[4][0] == pytest.approx(math.cosh(kap * l))

    def test_bases_span_same_roots(self):
        # both bases must agree on where the determinant vanishes
        g = make_star([0.3546, 0.2023, 0.1557, 2.2405])
        struct = prepare_structure(g)
        lam = -3.876230573048294
        for entire in (False, True):
            mats = build_matrix_grid_numpy([lam], struct, entire=entire)
            s = np.linalg.svd(mats[0], compute_uv=False)
            colmax = np.abs(mats[0]).max(axis=0)
            s_eq = np.linalg.svd(mats[0] / colmax, compute_uv=False)
            assert s_eq[-1] < 1e-8 * s_eq[0], f"entire={entire}"


def reference_matrix_grid(g, lams, entire=False):
    """Row-by-row complex assembly, read off the graph's vertex orders, from
    one scalar trace call per lambda. The row of endpoint p at a coupled
    vertex of degree >= 2, followed by q in the vertex's cyclic order, is
    F(q) - F(p) + i (F'(p) + F'(q)); any other row is i F'(p) (Neumann, or
    a coupled vertex of degree 1) or F(p) (Dirichlet)."""
    lengths = np.array([e.length for e in g.edges])
    n, m = len(lams), 2 * g.num_edges
    tabs = np.empty((8, n, lengths.size))
    for i, lam in enumerate(lams):
        for t, arr in enumerate(edge_basis_traces(lam, lengths, entire)):
            tabs[t, i] = arr
    f10, f20, d10, d20, f1l, f2l, d1l, d2l = tabs
    out = np.zeros((n, m, m), dtype=np.complex128)

    def tr(ref):
        e = g.edge_index[ref[0]]
        if ref[1] == END:
            return e, f1l[:, e], f2l[:, e]
        return e, f10[:, e], f20[:, e]

    def dv(ref):
        e = g.edge_index[ref[0]]
        if ref[1] == END:
            return e, d1l[:, e], d2l[:, e]
        return e, d10[:, e], d20[:, e]

    for v in g.sorted_vertices:
        for j, p in enumerate(v.order):
            r = g.slot_index[p]
            if v.bc is BoundaryType.COUPLED and v.degree >= 2:
                q = v.order[(j + 1) % v.degree]
                e, t1, t2 = tr(q)
                out[:, r, 2 * e] += t1
                out[:, r, 2 * e + 1] += t2
                e, t1, t2 = tr(p)
                out[:, r, 2 * e] -= t1
                out[:, r, 2 * e + 1] -= t2
                for ref in (p, q):
                    e, g1, g2 = dv(ref)
                    out[:, r, 2 * e] += 1j * g1
                    out[:, r, 2 * e + 1] += 1j * g2
            elif v.bc is BoundaryType.DIRICHLET:
                e, t1, t2 = tr(p)
                out[:, r, 2 * e] += t1
                out[:, r, 2 * e + 1] += t2
            else:
                e, g1, g2 = dv(p)
                out[:, r, 2 * e] += 1j * g1
                out[:, r, 2 * e + 1] += 1j * g2
    return out


# kappa * l crosses 1 on every edge below, lambda = 0 is hit exactly, and the
# positive part runs through several bands
BYTE_GRID = np.concatenate([-np.linspace(0.0, 6.0, 61)[::-1] ** 2,
                            np.linspace(0.0, 80.0, 97)[1:]])
BYTE_GRAPHS = [
    make_star([1.0, 0.7, 1.3]),
    make_star([1.0, 0.7, 1.3], tip_bc=BoundaryType.DIRICHLET),
    make_figure8(0.7, 1.3),
    make_cycle([1.0]),
    make_path([0.5, 1.2, 0.8]),
]


class TestByteIdentity:
    """The vectorized assembly must reproduce the row loop bit for bit,
    signed zeros included, so every sigma downstream stays the same."""

    def test_grid_has_exact_zero(self):
        assert np.count_nonzero(BYTE_GRID == 0.0) == 1

    @pytest.mark.parametrize("entire", [False, True])
    @pytest.mark.parametrize("g", BYTE_GRAPHS, ids=["star3", "dstar3", "figure8",
                                                    "cycle1", "path3"])
    def test_matrices(self, g, entire):
        got = build_matrix_grid_numpy(BYTE_GRID, prepare_structure(g),
                                      entire=entire)
        ref = reference_matrix_grid(g, BYTE_GRID, entire=entire)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("entire", [False, True])
    def test_trace_rows_match_scalar_calls(self, entire):
        lengths = np.array([0.3, 1.0, 2.5, 0.17])
        tables = edge_basis_traces(BYTE_GRID, lengths, entire)
        assert all(t.shape == (BYTE_GRID.size, lengths.size) for t in tables)
        for i, lam in enumerate(BYTE_GRID):
            for table, row in zip(tables, edge_basis_traces(lam, lengths, entire)):
                assert row.shape == lengths.shape
                assert table[i].tobytes() == row.tobytes()


class TestEquilibration:
    """One column-equilibration helper serves the scan, the certification
    SVDs and eigenvector extraction; it must keep the bytes of the copies
    it replaced."""

    @staticmethod
    def scan_copy(mats):  # the scan's former stacked form
        colmax = np.abs(mats).max(axis=1, keepdims=True)
        np.maximum(colmax, 1e-300, out=colmax)
        return mats / colmax

    @staticmethod
    def single_copy(mat):  # the former per-matrix form, with its scales
        colmax = np.abs(mat).max(axis=0)
        colmax = np.where(colmax > 0.0, colmax, 1.0)
        return mat / colmax, colmax

    @pytest.mark.parametrize("g", BYTE_GRAPHS, ids=["star3", "dstar3", "figure8",
                                                    "cycle1", "path3"])
    def test_matches_former_copies(self, g):
        mats = build_matrix_grid_numpy(BYTE_GRID, prepare_structure(g))
        # a zero column, signed zeros included, must stay zero
        mats[:3, :, 1] = np.array([0.0, -0.0]).repeat(mats.shape[1] // 2)
        scaled, scales = equilibrate_columns(mats)
        assert scales.shape == (mats.shape[0], mats.shape[2])
        assert scaled.tobytes() == self.scan_copy(mats).tobytes()
        for i in (0, 1, 60, 100):
            one, one_scales = equilibrate_columns(mats[i])
            ref, ref_scales = self.single_copy(mats[i])
            assert one.tobytes() == ref.tobytes() == scaled[i].tobytes()
            assert one_scales.tobytes() == ref_scales.tobytes()
        assert np.all(scaled[:3, :, 1] == 0.0)


class TestPerRowIdentity:
    """A lambda gets the same sigma bytes alone or inside any batch; batched
    refinement and certification rely on it."""

    @pytest.mark.parametrize("g", BYTE_GRAPHS, ids=["star3", "dstar3", "figure8",
                                                    "cycle1", "path3"])
    def test_alone_mixed_and_positive_batches(self, g, monkeypatch):
        build = edge_builder(prepare_structure(g))
        lams = np.array([-30.0, -4.2, -0.3, 0.0, 0.7, 9.5, 40.0])
        mixed = scan_sigma(lams, build)
        pos = lams > 0.0
        positive = scan_sigma(lams[pos], build)
        # a chunk boundary splits the batch in the middle
        with monkeypatch.context() as m:
            m.setattr(kernels_mod, "SCAN_CHUNK", 3)
            chunked = scan_sigma(lams, build)
        for i, lam in enumerate(lams):
            alone = scan_sigma(np.array([lam]), build)
            for j in range(2):
                assert alone[j].tobytes() == mixed[j][i:i + 1].tobytes()
                assert alone[j].tobytes() == chunked[j][i:i + 1].tobytes()
        for j in range(2):
            assert positive[j].tobytes() == mixed[j][pos].tobytes()

    @pytest.mark.parametrize("g", BYTE_GRAPHS, ids=["star3", "dstar3", "figure8",
                                                    "cycle1", "path3"])
    def test_long_batch_matches_one_at_a_time(self, g):
        build = edge_builder(prepare_structure(g))
        lams = np.linspace(-16.0, 45.0, 2 * SCAN_CHUNK + 37)
        # lambda = 0 and pi^2, a Dirichlet eigenvalue of the unit edges, on
        # both sides of the first chunk boundary
        lams[SCAN_CHUNK - 1:SCAN_CHUNK + 3] = [math.pi**2, 0.0,
                                               math.pi**2 + 1e-14, -1e-7]
        smin, smax = scan_sigma(lams, build)
        alone = [scan_sigma([lam], build) for lam in lams]
        assert smin.tobytes() == np.concatenate([a[0] for a in alone]).tobytes()
        assert smax.tobytes() == np.concatenate([a[1] for a in alone]).tobytes()
        assert np.isfinite(smin).all() and np.isfinite(smax).all()

    def test_negative_rows_equilibrated_positive_rows_raw(self, star3):
        lams = np.array([-9.0, -1.0, 0.0, 2.0, 20.0])
        mats = build_matrix_grid_numpy(lams, prepare_structure(star3))
        eq, _ = equilibrate_columns(mats)
        ref = np.linalg.svd(np.where((lams < 0.0)[:, None, None], eq, mats),
                            compute_uv=False)
        smin, smax = scan_sigma(lams, edge_builder(prepare_structure(star3)))
        assert smin.tobytes() == ref[:, -1].tobytes()
        assert smax.tobytes() == ref[:, 0].tobytes()


class TestScanAgreement:
    def test_matches_single_matrix_builder(self, star3):
        struct = prepare_structure(star3)
        for lam in (-4.0, 0.0, 2.5):
            grid = build_matrix_grid_numpy([lam], struct)[0]
            single = build_secular_matrix(star3, lam, "edge")
            assert np.allclose(grid, single, atol=1e-14)

    def test_positive_branch_not_normalized(self):
        # a one-edge cycle collapses the whole matrix at (2 pi n)^2; the scan
        # must report a small sigma_max there, not a normalized one
        lam = np.array([4 * math.pi**2])
        plan = prepare_structure(make_cycle([1.0]))
        _, mx = scan_sigma(lam, edge_builder(plan))
        assert mx[0] < 1e-7
