"""Scan kernels: the edge plan, built per shape, basis switching, byte
identity of the vectorized assembly, equilibration and per-row sigma
identity of the scan."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from qgraph import kernels, secular
from qgraph.experiments import sample_graph
from qgraph.graph import (
    END,
    BoundaryType,
    MetricGraph,
    make_cycle,
    make_figure8,
    make_path,
    make_star,
)
from qgraph.kernels import (
    build_matrix_grid_numpy,
    edge_basis,
    edge_basis_traces,
    edge_builder,
    equilibrate_columns,
    prepare_structure,
    scan_sigma,
)
from qgraph.quadform import TrialFunction, _edge_nodes
from qgraph.secular import _count_plan, build_secular_matrix, count_below
from qgraph.surgery import Transplant, apply_surgery


class TestPrepareStructure:
    def test_layout(self, star3):
        # the plan's +-1 weights sum every chunk of traces into the matrices
        # the vertex conditions give: each target slot once, from one or two
        # of the 8 E trace columns, and no more than two, which keeps every
        # sum one rounding
        targets, weights, lengths = prepare_structure(star3)
        assert lengths.tolist() == [1.0, 1.0, 1.0]
        assert np.unique(targets).size == targets.size
        assert 0 <= targets.min() and targets.max() < 2 * 6 * 6
        assert weights.shape == (8 * 3, targets.size)
        assert set(np.unique(weights).tolist()) == {-1.0, 0.0, 1.0}
        terms = np.count_nonzero(weights, axis=0)
        assert terms.min() == 1 and terms.max() <= 2
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
        # kappa*l < 1 keeps cosh/sinh
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

    def test_bases_span_same_roots(self):
        # the switched basis (decaying pair on the 2.2405 edge, cosh/sinh on
        # the others) drops rank at the eigenvalue
        g = make_star([0.3546, 0.2023, 0.1557, 2.2405])
        lam = -3.876230573048294
        mat = build_matrix_grid_numpy([lam], prepare_structure(g))[0]
        colmax = np.abs(mat).max(axis=0)
        s_eq = np.linalg.svd(mat / colmax, compute_uv=False)
        assert s_eq[-1] < 1e-8 * s_eq[0]

    @pytest.mark.parametrize("lam", [-4.0, -1.0, -0.25, 0.0, 2.0, math.pi ** 2])
    @pytest.mark.parametrize("ragged", [False, True], ids=["star", "glued"])
    def test_whole_graph_basis_is_the_per_edge_basis(self, lam, ragged):
        # one call over every edge's points, its ends and its nodes, gives
        # each edge the bytes of the former per-edge call: at -1 the edges
        # shorter than 1 keep the entire pair and the others (kappa l = 1 on
        # the unit edge) take the decaying one; -4 decays on all, -0.25 on
        # none. The transplant trial's glued edge, split at its seam, has
        # twice the nodes of the others
        g = make_star([1.0, 0.7, 1.3])
        trials = ()
        if ragged:
            g = apply_surgery(g, Transplant("e2", "e3", 0.2))
            trials = (TrialFunction({}, {}, {"e3": (1.3,)}),)
        q = _edge_nodes(g, *trials)
        sizes = {s.stop - s.start for s in q.pieces}
        assert (len(sizes) > 1) == ragged
        for deriv in (False, True):
            got = edge_basis(lam, q.length, q.x, deriv)
            for e, (_, x) in zip(g.edges, q.parts):
                part = q.edge == g.edge_index[e.id]
                want = former_edge_basis(lam, e.length, x, deriv)
                for u, v in zip(got, want):
                    assert u[part].tobytes() == v.tobytes()

    @pytest.mark.parametrize("lam", [
        -100.0, -4.0, -0.25, -1e-12, 0.0, -0.0, 2.0, math.pi ** 2, 1e4])
    def test_edge_basis_ends_are_the_tables(self, lam):
        # kappa l = 1 exactly on the 0.5 edge at -4 and the 2.0 edge at
        # -0.25, the entire pair below; pi^2 is the unit edge's first
        # Dirichlet eigenvalue
        lengths = [0.5, 1.0, 2.0, 3.7]
        tables = edge_basis_traces(lam, lengths)
        for j, length in enumerate(lengths):
            ends = np.array([0.0, length])
            f1, f2 = edge_basis(lam, length, ends, False)
            d1, d2 = edge_basis(lam, length, ends, True)
            want = [f1[0], f2[0], d1[0], d2[0], f1[1], f2[1], -d1[1], -d2[1]]
            assert tables[:, j].tolist() == want


def former_edge_basis(lam, length, x, deriv):
    """Reference: edge_basis as it was, on one edge at a time."""
    x = np.asarray(x, dtype=float)
    k = math.sqrt(abs(lam))
    if lam < 0.0 and k * length >= 1.0:
        start, end = np.exp(-k * x), np.exp(-k * (length - x))
        return (-k * start, k * end) if deriv else (start, end)
    if lam == 0.0:
        one = np.ones_like(x)
        return (np.zeros_like(x), one) if deriv else (one, x)
    kx = k * x
    if lam < 0.0:
        sn, cs = np.sinh(kx), np.cosh(kx)
        return (k * sn, cs) if deriv else (cs, sn / k)
    sn, cs = np.sin(kx), np.cos(kx)
    return (-(k * sn), cs) if deriv else (cs, sn / k)


def reference_matrix_grid(g, lams):
    """Row-by-row complex assembly, read off the graph's vertex orders, from
    one scalar trace call per lambda. The row of endpoint p at a coupled
    vertex of degree >= 2, followed by q in the vertex's cyclic order, is
    F(q) - F(p) + i (F'(p) + F'(q)); any other row is i F'(p) (Neumann, or
    a coupled vertex of degree 1) or F(p) (Dirichlet)."""
    lengths = np.array([e.length for e in g.edges])
    n, m = len(lams), 2 * g.num_edges
    tabs = np.empty((8, n, lengths.size))
    for i, lam in enumerate(lams):
        for t, arr in enumerate(edge_basis_traces(lam, lengths)):
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

    for v in g.vertices:
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
# random multigraphs as the suites draw them, with loops, parallel edges and
# vertices of degree 5 to 7
SAMPLED = [sample_graph(np.random.default_rng(seed), num_edges=n)
           for n in (5, 6, 7) for seed in range(3)]


class TestByteIdentity:
    """The vectorized assembly must reproduce the row loop bit for bit,
    signed zeros included, so every sigma downstream stays the same."""

    def test_grid_has_exact_zero(self):
        assert np.count_nonzero(BYTE_GRID == 0.0) == 1

    @pytest.mark.parametrize("g", BYTE_GRAPHS, ids=["star3", "dstar3", "figure8",
                                                    "cycle1", "path3"])
    def test_matrices(self, g):
        got = build_matrix_grid_numpy(BYTE_GRID, prepare_structure(g))
        ref = reference_matrix_grid(g, BYTE_GRID)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    def test_sampled_graphs_cover_multigraphs(self):
        loops = parallel = 0
        for g in SAMPLED:
            ends = [frozenset((e.src, e.dst)) for e in g.edges]
            loops += sum(len(p) == 1 for p in ends)
            parallel += sum(len(p) == 2 and ends.count(p) > 1 for p in ends)
        assert loops > 0 and parallel > 0
        assert max(v.degree for g in SAMPLED for v in g.vertices) >= 5

    @pytest.mark.parametrize("g", SAMPLED, ids=[
        f"E{n}-seed{seed}" for n in (5, 6, 7) for seed in range(3)])
    def test_sampled_matrices(self, g):
        got = build_matrix_grid_numpy(BYTE_GRID, prepare_structure(g))
        assert got.tobytes() == reference_matrix_grid(g, BYTE_GRID).tobytes()

    def test_trace_rows_match_scalar_calls(self):
        lengths = np.array([0.3, 1.0, 2.5, 0.17])
        tables = edge_basis_traces(BYTE_GRID, lengths)
        assert all(t.shape == (BYTE_GRID.size, lengths.size) for t in tables)
        for i, lam in enumerate(BYTE_GRID):
            for table, row in zip(tables, edge_basis_traces(lam, lengths)):
                assert row.shape == lengths.shape
                assert table[i].tobytes() == row.tobytes()


    # kappa = k = 300 puts k l past 710 on the 2.5 edge on both branches:
    # below zero the decaying pair takes over, above zero cosh and sinh must
    # not be evaluated at all, or they overflow and warn
    OVERFLOW_GRID = np.array([-300.0**2, -2.0, -0.0, 0.0, 1e-9, 3.0,
                              300.0**2])

    def test_overflow_rows_match_scalar_calls(self):
        lams = self.OVERFLOW_GRID
        lengths = np.array([0.3, 1.0, 2.5])
        tables = edge_basis_traces(lams, lengths)
        assert all(np.isfinite(t).all() for t in tables)
        for i, lam in enumerate(lams):
            for table, row in zip(tables, edge_basis_traces(lam, lengths)):
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
    def test_alone_mixed_and_positive_batches(self, g):
        build = edge_builder(prepare_structure(g))
        lams = np.array([-30.0, -4.2, -0.3, 0.0, 0.7, 9.5, 40.0])
        mixed = scan_sigma(lams, build)
        pos = lams > 0.0
        positive = scan_sigma(lams[pos], build)
        assert mixed.shape == (lams.size, 2 * g.num_edges)
        assert scan_sigma(lams[:0], build).shape == (0, 2 * g.num_edges)
        for i, lam in enumerate(lams):
            alone = scan_sigma(np.array([lam]), build)
            assert alone.tobytes() == mixed[i:i + 1].tobytes()
        assert positive.tobytes() == mixed[pos].tobytes()

    @pytest.mark.parametrize("g", BYTE_GRAPHS, ids=["star3", "dstar3", "figure8",
                                                    "cycle1", "path3"])
    def test_long_batch_matches_one_at_a_time(self, g):
        build = edge_builder(prepare_structure(g))
        lams = np.linspace(-16.0, 45.0, 1061)
        # lambda = 0 and pi^2, a Dirichlet eigenvalue of the unit edges, in
        # the middle of the batch
        lams[511:515] = [math.pi**2, 0.0, math.pi**2 + 1e-14, -1e-7]
        svals = scan_sigma(lams, build)
        alone = [scan_sigma([lam], build) for lam in lams]
        assert svals.tobytes() == np.concatenate(alone).tobytes()
        assert np.isfinite(svals).all()

    def test_negative_rows_equilibrated_positive_rows_raw(self, star3):
        lams = np.array([-9.0, -1.0, 0.0, 2.0, 20.0])
        mats = build_matrix_grid_numpy(lams, prepare_structure(star3))
        eq, _ = equilibrate_columns(mats)
        ref = np.linalg.svd(np.where((lams < 0.0)[:, None, None], eq, mats),
                            compute_uv=False)
        svals = scan_sigma(lams, edge_builder(prepare_structure(star3)))
        assert svals.tobytes() == ref.tobytes()


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
        svals = scan_sigma(lam, edge_builder(plan))
        assert svals[0, 0] < 1e-7


def edited(g, edit):
    """g with its JSON document changed in place by edit."""
    doc = g.to_json_dict()
    edit(doc)
    return MetricGraph.from_json_dict(doc)


def swap_center_order(doc):  # one vertex's endpoint order
    order = doc["vertices"][0]["order"]
    order[0], order[1] = order[1], order[0]


def dirichlet_tip(doc):  # one tip condition
    doc["vertices"][1]["bc"] = "dirichlet"


def reverse_edge(doc):  # one edge's endpoints, with the endpoints they own
    doc["edges"][0]["from"], doc["edges"][0]["to"] = "v1", "v0"
    doc["vertices"][0]["order"][0] = ["e1", "end"]
    doc["vertices"][1]["order"] = [["e1", "start"]]


class TestShapePlans:
    """The length-free plans are built once per shape and shared by every
    graph of that shape; each graph keeps its own lengths."""

    def test_graphs_of_one_shape_share_the_length_free_arrays(self):
        a, b = make_star([1.0, 0.7, 1.3]), make_star([0.4, 2.0, 1.1])
        assert a.shape == b.shape and a != b
        (ta, wa, la), (tb, wb, lb) = prepare_structure(a), prepare_structure(b)
        assert ta is tb and wa is wb
        assert la.tolist() == [1.0, 0.7, 1.3] and lb.tolist() == [0.4, 2.0, 1.1]
        assert all(x is y for x, y in zip(_count_plan(a.shape),
                                          _count_plan(b.shape)))
        for x in (ta, wa, la, *_count_plan(a.shape)):
            assert not x.flags.writeable

    @pytest.mark.parametrize("edit", [swap_center_order, dirichlet_tip,
                                      reverse_edge])
    def test_a_change_of_shape_gets_its_own_plans(self, edit):
        base = make_star([1.0, 0.7, 1.3])
        g = edited(base, edit)
        assert g.shape != base.shape
        assert g.lengths.tolist() == base.lengths.tolist()
        plan, other = prepare_structure(g), prepare_structure(base)
        assert plan[0].tobytes() != other[0].tobytes() or \
            plan[1].tobytes() != other[1].tobytes()
        got = build_matrix_grid_numpy(BYTE_GRID, plan)
        assert got.tobytes() == reference_matrix_grid(g, BYTE_GRID).tobytes()
        # the count plan of the shape is its own, the one built from the
        # graph itself (a reversed edge leaves its bytes, as an interval's
        # DtN map is symmetric)
        shared = _count_plan(g.shape)
        assert shared is not _count_plan(base.shape)
        own = _count_plan.__wrapped__(g)
        assert [x.tobytes() for x in shared] == [x.tobytes() for x in own]

    def test_no_shape_plan_survives_the_benchmark_cache_reset(self,
                                                               monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        run = importlib.import_module("qgbench.run")
        g = make_star([0.9, 1.1, 1.2])
        prepare_structure(g)
        count_below(g, [1.0])
        shape_caches = (kernels._edge_layout, secular._count_plan)
        assert all(c.cache_info().currsize for c in shape_caches)
        run.reset_caches()
        assert [c.cache_info().currsize for c in shape_caches] == [0, 0]
