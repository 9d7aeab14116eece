"""P1 Galerkin oracle: shapes, interval exactness limits, solver cross-checks,
and its counts and eigenvalues against a dense reference pencil."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from qgraph import fem, secular, solve
from qgraph.errors import MeshTooCoarse
from qgraph.experiments import ground_state
from qgraph.fem import oracle_eigenvalues
from qgraph.graph import (
    END,
    START,
    EdgeRecord,
    MetricGraph,
    VertexRecord,
    make_cycle,
    make_figure8,
    make_path,
    make_star,
)
from qgraph.quadform import form_domain_basis, vertex_form_matrix
from qgraph.solve import find_spectrum

PI2 = math.pi**2


def discretize(g, h):
    """The reference pencil, assembled node by node: (H, M, C), dense.

    Edge e's nodes are numbered in a row, max(1, round(l_e / h)) elements
    each. H holds the P1 stiffness plus, on the end nodes, the vertex form
    of `quadform.vertex_form_matrix`; M is the P1 mass. C's columns span the
    admissible dofs: one per interior node, and on the end nodes the
    form-domain basis of `quadform.form_domain_basis`. The reduced pencil is
    (C* H C, C^T M C); the oracle's vertex terms enter nowhere.
    """
    if not h > 0:
        raise MeshTooCoarse("mesh size must be positive")
    nelem = [max(1, int(round(e.length / h))) for e in g.edges]
    first = np.cumsum([0] + [n + 1 for n in nelem])
    left = np.concatenate([np.arange(n) + f for n, f in zip(nelem, first)])
    he = np.concatenate([np.full(n, e.length / n)
                         for n, e in zip(nelem, g.edges)])
    size = first[-1]
    stiff, mass = np.zeros((size, size)), np.zeros((size, size))
    for i, j, k, m in ((0, 0, 1, 2), (1, 1, 1, 2), (0, 1, -1, 1),
                       (1, 0, -1, 1)):
        np.add.at(stiff, (left + i, left + j), k / he)
        np.add.at(mass, (left + i, left + j), m * he / 6.0)
    # the end nodes, in the global slot order of the form's matrices
    ends = np.empty(2 * g.num_edges, dtype=int)
    for e, n, f in zip(g.edges, nelem, first):
        ends[g.slot_index[(e.id, START)]] = f
        ends[g.slot_index[(e.id, END)]] = f + n
    h_mat = stiff.astype(complex)
    h_mat[np.ix_(ends, ends)] += vertex_form_matrix(g)
    inner = np.setdiff1d(np.arange(size), ends)
    basis = form_domain_basis(g)
    restrict = np.zeros((size, inner.size + basis.shape[1]))
    restrict[inner, np.arange(inner.size)] = 1.0
    restrict[ends, inner.size:] = basis
    return h_mat, mass, restrict


def dense_eigenvalues(g, h):
    """Every eigenvalue of the reference pencil, ascending, by dense eigh."""
    h_mat, mass, restrict = discretize(g, h)
    return scipy.linalg.eigh(restrict.conj().T @ h_mat @ restrict,
                             restrict.T @ mass @ restrict, eigvals_only=True)


def former_chain_terms(s, n, h):
    """The chain terms as `fem._chain_terms` gave them with the chain counts,
    every regime evaluated at every point: (sigma, delta, below, t)."""
    x = s * h * h
    p = 0.5 * np.sqrt(np.abs(x))
    q = np.sqrt(np.abs(1.0 - x / 12.0))
    g = 2.0 * p * q / h
    osc = (x > 0.0) & (x < 12.0)
    odd = n % 2 == 1
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = n * np.arctan2(p, q)
        t = np.where(osc, np.tan(theta), 1.0)
        big = np.maximum(p, q)
        tanh = np.tanh(n * np.arctanh(np.minimum(p, q) / big))
        coth = np.where(tanh == 0.0, 2.0 * big * big / (n * h), g / tanh)
        swap = odd & ((x < -6.0) | (x >= 12.0))
        sign = np.where(x >= 12.0, -1.0, 1.0)
        sigma = np.where(osc, -g * t, sign * np.where(swap, coth, g * tanh))
        delta = np.where(osc, g / t, sign * np.where(swap, g * tanh, coth))
    m = np.rint(2.0 * theta / np.pi)
    below = np.clip(m - (t * (1.0 - 2.0 * (m % 2)) <= 0.0), 0, n - 1)
    below = np.where(osc, below, np.where(x >= 12.0, n - 1, 0))
    return sigma, delta, below.astype(int), t


def former_anderson_bjorck(plans, a, b, plan, jump):
    """`fem._anderson_bjorck` as it stepped with its brackets in numpy
    arrays, on the former chain terms, less its check of the cell ends."""
    m = a.size

    def schur_eigenvalues(x, plan):
        sigma, delta = former_chain_terms(x[:, None], plans.n[plan],
                                          plans.h)[:2]
        return np.linalg.eigvalsh(
            fem._assemble(plans, np.concatenate((sigma, delta), axis=1)))

    mu = schur_eigenvalues(np.concatenate((a, b)),
                           np.concatenate((plan, plan)))
    below = (mu < 0.0).sum(axis=1)
    cell = np.repeat(np.arange(m), jump)
    j = below[cell] + np.arange(cell.size) - np.repeat(np.cumsum(jump) - jump,
                                                       jump)
    a, b, plan = a[cell], b[cell], plan[cell]
    fa, fb = mu[cell, j], mu[m + cell, j]
    side = np.zeros(cell.size)
    live = b - a > fem._tol(a, b)
    for _ in range(fem._SECANT_STEPS):
        k = np.flatnonzero(live)
        if k.size == 0:
            break
        # a secant point within half the tolerance of an end steps to that
        # distance, so that a root found from one side closes its cell
        t = 0.5 * fem._tol(a[k], b[k])
        x = np.clip(b[k] - fb[k] * (b[k] - a[k]) / (fb[k] - fa[k]),
                    a[k] + t, b[k] - t)
        fx = schur_eigenvalues(x, plan[k])[np.arange(k.size), j[k]]
        up = fx >= 0.0  # the root lies above x
        # an end kept twice in a row has its value scaled by
        # 1 - f(x) / f(the end x replaces), or halved where that is not
        # positive
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = 1.0 - fx / np.where(up, fa[k], fb[k])
        scale = np.where(scale > 0.0, scale, 0.5)
        fb[k] = np.where(up & (side[k] < 0), scale * fb[k], fb[k])
        fa[k] = np.where(~up & (side[k] > 0), scale * fa[k], fa[k])
        a[k] = np.where(up, x, a[k])
        fa[k] = np.where(up, fx, fa[k])
        b[k] = np.where(up & (fx > 0.0), b[k], x)
        fb[k] = np.where(up, fb[k], fx)
        side[k] = np.where(up, -1.0, 1.0)
        live[k] = b[k] - a[k] > fem._tol(a[k], b[k])
    return 0.5 * (a + b)


class TestChainTerms:
    """`fem._chain_terms` and `fem._chain_counts` against the former terms,
    byte for byte: x = s h^2 in each regime and on its bounds -6, 0 and 12,
    odd and even chains, in batches of one regime, of several, and of one
    point, shaped as the counts and as the secant steps shape them."""

    # dyadic lengths put x exactly on the bounds; 0.1 puts it near them
    H = np.array([0.5, 0.25, 0.1])
    N = np.array([[1, 2, 3], [4, 5, 8]])
    # x = s / 4 on the first chain: -25, -6, -3, 0, 1.25, 11.75, 12, 50
    MIXED = np.array([-100.0, -24.0, -12.0, 0.0, 5.0, 47.0, 48.0, 200.0])
    # 0 < x < 12 on every chain, with points near poles of tan(n phi / 2)
    OSCILLATING = np.concatenate((np.linspace(0.5, 47.5, 37), [9.8696044]))

    @staticmethod
    def assert_same(s, n, h):
        sigma, delta, below, t = former_chain_terms(s, n, h)
        phase = fem._phase(s, n, h)
        got = fem._chain_terms(phase, n, h)
        got += (fem._chain_counts(phase, n, got[2]),)
        for a, b in zip(got, (sigma, delta, t, below)):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("batch", ["mixed", "oscillating"])
    def test_batch_as_the_counts_shape_it(self, batch):
        s = self.MIXED if batch == "mixed" else self.OSCILLATING
        self.assert_same(s[:, None, None], self.N, self.H)

    @pytest.mark.parametrize("batch", ["mixed", "oscillating"])
    def test_batch_as_the_secant_steps_shape_it(self, batch):
        s = self.MIXED if batch == "mixed" else self.OSCILLATING
        plan = np.arange(s.size) % 2
        self.assert_same(s[:, None], self.N[plan], self.H)

    @pytest.mark.parametrize("s", MIXED.tolist() + [-24.0 * (1 + 1e-15),
                                                    48.0 * (1 - 1e-15)])
    def test_one_point(self, s):
        self.assert_same(np.array([s])[:, None, None], self.N, self.H)
        self.assert_same(np.array([s])[:, None], self.N[:1], self.H)

    def test_bounds_are_hit(self):
        x = self.MIXED * self.H[0] ** 2
        assert {-6.0, 0.0, 12.0} <= set(x.tolist())
        assert (x < -6.0).any() and (x > 12.0).any()
        assert ((-6.0 < x) & (x < 0.0)).any() and ((0.0 < x) & (x < 12.0)).any()
        x = self.OSCILLATING[:, None] * self.H ** 2
        assert ((0.0 < x) & (x < 12.0)).all()

    @pytest.mark.parametrize("seed", [1, 4])
    def test_secant_steps_match_the_former_array_loop(self, seed,
                                                      monkeypatch):
        # the float steps take the numpy steps' operations in their order:
        # every value of the crosscheck graphs keeps its bytes
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        workloads = importlib.import_module("qgbench.workloads")
        graphs = [workloads.cross_spec(seed, i)["graph"] for i in range(24)]
        want = [oracle_eigenvalues(g, workloads.FEM_COUNT, workloads.FEM_H)
                for g in graphs]
        monkeypatch.setattr(fem, "_anderson_bjorck", former_anderson_bjorck)
        for i, g in enumerate(graphs):
            got = oracle_eigenvalues(g, workloads.FEM_COUNT, workloads.FEM_H)
            assert got.tobytes() == want[i].tobytes(), i

    def test_each_count_computes_one_phase(self, monkeypatch):
        # the chain terms and the chain counts of a count read one phase
        phase, inertia = fem._phase, fem._inertia
        phases, per_count = [], []

        def counted(*args):
            phases.append(args)
            return phase(*args)

        def count(*args):
            phases.clear()
            out = inertia(*args)
            per_count.append(len(phases))
            return out

        monkeypatch.setattr(fem, "_phase", counted)
        monkeypatch.setattr(fem, "_inertia", count)
        oracle_eigenvalues(make_cycle([0.9, 1.1, 1.0, 1.0]), 8, 1e-3)
        assert per_count and set(per_count) == {1}

    def test_secant_steps_compute_no_counts(self, monkeypatch):
        # the steps read the terms alone; only _inertia counts
        g = make_cycle([0.9, 1.1, 1.0, 1.0])
        want = oracle_eigenvalues(g, 8, 1e-3)
        counts, steps = fem._chain_counts, fem._anderson_bjorck
        calls = []

        def refuse(*args):
            raise AssertionError("chain counts in a secant step")

        def stepped(*args):
            calls.append(args)
            monkeypatch.setattr(fem, "_chain_counts", refuse)
            try:
                return steps(*args)
            finally:
                monkeypatch.setattr(fem, "_chain_counts", counts)

        monkeypatch.setattr(fem, "_anderson_bjorck", stepped)
        got = oracle_eigenvalues(g, 8, 1e-3)
        assert len(calls) == 1 and got.tobytes() == want.tobytes()


class TestDiscretize:
    def test_shapes_and_hermiticity(self, star3):
        h_mat, mass, restrict = discretize(star3, 0.1)
        n = h_mat.shape[0]
        assert h_mat.shape == mass.shape == (n, n)
        assert restrict.shape[0] == n
        assert restrict.shape[1] <= n
        assert abs(h_mat - h_mat.conj().T).max() < 1e-14
        assert abs(mass - mass.T).max() < 1e-14

    def test_restriction_enforces_even_vertex_constraint(self, fig8):
        h_mat, mass, restrict = discretize(fig8, 0.05)
        # fig8 center has degree 4: one trace dof is eliminated
        assert restrict.shape[1] == restrict.shape[0] - 1

    def test_dirichlet_tips_eliminated(self):
        g = make_star([1.0] * 3, tip_bc="dirichlet")
        h_mat, _, restrict = discretize(g, 0.1)
        assert restrict.shape[1] == restrict.shape[0] - 3

    def test_bad_mesh_size(self, star3):
        with pytest.raises(MeshTooCoarse):
            discretize(star3, 0.0)

    def test_reduced_dofs_are_the_oracles(self, star3, fig8):
        # the same mesh: the reference's admissible dofs are the oracle's
        for g in (star3, fig8, make_star([1.0] * 3, tip_bc="dirichlet")):
            for h in (0.1, 0.5, 2.0):
                assert discretize(g, h)[2].shape[1] == fem._plans(g, h).ndof


class TestOracle:
    def test_path_is_interval(self):
        # coupled degree-2 vertex is invisible: Neumann interval of length 1
        vals = oracle_eigenvalues(make_path([0.6, 0.4]), 4, 2e-3)
        exact = [0.0, PI2, 4 * PI2, 9 * PI2]
        for got, want in zip(vals, exact):
            assert got == pytest.approx(want, abs=5e-2 * max(1.0, want / 10))

    def test_figure8_negative_eigenvalue(self, fig8):
        vals = oracle_eigenvalues(fig8, 2, 1e-3)
        assert vals[0] == pytest.approx(-1.0, abs=5e-3)
        assert vals[1] == pytest.approx(0.0, abs=5e-3)

    def test_star_matches_secular_solver(self, star3):
        vals = oracle_eigenvalues(star3, 5, 1e-3)
        spec = find_spectrum(star3, (-10.0, 10.0))
        for got, want in zip(vals, spec.lambdas()):
            assert got == pytest.approx(want, abs=1e-2 * (1.0 + abs(want)))

    def test_first_order_convergence(self, star3):
        # P1 with the skew trace term converges; halving h must shrink the
        # ground state error markedly
        exact = -3.3290586132660844
        err = [abs(oracle_eigenvalues(star3, 1, h)[0] - exact)
               for h in (4e-3, 2e-3)]
        assert err[1] < 0.6 * err[0]

    def test_multiplicity_resolved(self, fig8):
        # 16 pi^2 carries a three-dimensional eigenspace on the equilateral
        # figure-eight
        vals = oracle_eigenvalues(fig8, 8, 1e-3)
        near = [v for v in vals if abs(v - 16 * PI2) < 2.0]
        assert len(near) == 3

    def test_interleaved_enumeration_changes_spectrum(self, fig8):
        # same metric data, genus-1 endpoint order: the negative eigenvalue
        # disappears, and the FEM sees it independently of the secular path
        inter = MetricGraph.create(
            [VertexRecord("v0", "coupled",
                          (("e1", "start"), ("e2", "start"),
                           ("e1", "end"), ("e2", "end")))],
            list(fig8.edges))
        vals = oracle_eigenvalues(inter, 2, 1e-3)
        assert vals[0] > -1e-3

    def test_mesh_too_coarse(self, star3):
        with pytest.raises(MeshTooCoarse):
            oracle_eigenvalues(star3, 10, 0.5)

    def test_count_up_to_the_reduced_dofs(self, star3):
        # the counts are exact up to the pencil's order: 3 eigenvalues from
        # the 9 reduced dofs at h = 0.5 are answered, 10 are refused with
        # the reduced dof count named
        assert oracle_eigenvalues(star3, 3, 0.5).shape == (3,)
        with pytest.raises(MeshTooCoarse, match="ndof = 9 "):
            oracle_eigenvalues(star3, 10, 0.5)

    def test_no_reduced_dofs_is_too_coarse(self):
        # one element between two Dirichlet tips leaves no dof at all
        with pytest.raises(MeshTooCoarse):
            oracle_eigenvalues(make_path([1.0], tip_bc="dirichlet"), 1, 2.0)

    def test_count_validation(self, star3):
        with pytest.raises(ValueError):
            oracle_eigenvalues(star3, 0, 0.1)

    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan])
    def test_mesh_size_must_be_positive(self, star3, h):
        with pytest.raises(MeshTooCoarse, match="mesh size must be positive"):
            oracle_eigenvalues(star3, 1, h)


class TestBandedOracle:
    """The inertia-count oracle: independence, its counts and eigenvalues
    against the dense pencil, deep ground states."""

    def test_independent_of_the_secular_path(self, monkeypatch, star3):
        def refuse(*args, **kwargs):
            raise AssertionError("the FEM oracle read the secular path")

        # wherever a module holds these names, its own import included
        for name in ("count_below", "default_negative_floor"):
            for mod in (secular, solve, fem):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
        vals = oracle_eigenvalues(star3, 4, 1e-2)
        assert vals[0] == pytest.approx(-3.329, abs=5e-2)

    @pytest.mark.parametrize("g", [
        make_star([1.0] * 3),
        make_figure8(0.5, 0.5),
        make_cycle([0.4, 0.7, 0.5, 0.9]),
        make_star([1.0] * 3, tip_bc="dirichlet"),
        make_star([1.0] * 6),
        make_path([0.5, 0.3, 0.4]),
    ], ids=["star3", "figure8-equilateral", "cycle4", "star3-dirichlet",
            "star6-equilateral", "path3"])
    def test_matches_dense_pencil(self, g):
        want = dense_eigenvalues(g, 0.02)[:8]
        got = oracle_eigenvalues(g, 8, 0.02)
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("g", [
        make_figure8(0.7, 1.3),
        make_star([1.0] * 3, tip_bc="dirichlet"),
    ], ids=["figure8", "star3-dirichlet"])
    def test_every_eigenvalue_matches_dense_pencil(self, g):
        # count = ndof asks for the whole spectrum of the reduced pencil
        want = dense_eigenvalues(g, 0.2)
        got = oracle_eigenvalues(g, want.size, 0.2)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @staticmethod
    def chain_poles(plans, plan):
        """Each chain's discrete Dirichlet eigenvalues on the plan: s with
        sin^2(phi/2) = t, phi = j pi / n, is 12 t / (h^2 (3 - 2 t))."""
        n, h = plans.n[plan], plans.h
        poles = []
        for nc, hc in zip(n, h):
            t = np.sin(np.arange(1, nc) * np.pi / (2 * nc)) ** 2
            poles.append(12.0 * t / (hc * hc * (3.0 - 2.0 * t)))
        return np.concatenate(poles)

    @pytest.mark.parametrize("g", [
        make_star([1.0] * 3),
        make_figure8(0.5, 0.5),
        make_cycle([0.4, 0.7, 0.5, 0.9]),
        make_star([1.0] * 3, tip_bc="dirichlet"),
        make_star([1.0] * 6),
        make_star([1.0, 0.7, 1.3, 0.8], tip_bc="dirichlet"),
        make_path([0.5, 0.3, 0.4]),
    ], ids=["star3", "figure8-equilateral", "cycle4", "star3-dirichlet",
            "star6-equilateral", "star4-dirichlet", "path3"])
    def test_count_is_the_dense_count(self, g):
        # on both split plans the count is #{dense eigenvalues < s}: in the
        # growing and oscillating regimes, below -6/h^2 and past 12/h^2 on a
        # coarse mesh, and within a few ulps of every chain pole
        for h in (0.02, 0.2):
            want = dense_eigenvalues(g, h)
            plans = fem._plans(g, h)
            edge = np.unique(plans.h) ** -2
            for plan in (0, 1):
                poles = self.chain_poles(plans, plan)
                poles = poles[poles < 2.0 * want[-1]]
                ulps = [np.nextafter(poles, sign * np.inf) for sign in (-1, 1)]
                ulps += [np.nextafter(u, sign * np.inf)
                         for u, sign in zip(ulps, (-1, 1))]
                regimes = [-50.0, -7.0, -6.5, -5.5, -1.0, -1e-3, 1e-3, 3.0,
                           11.5, 12.5, 13.0, 50.0]
                s = np.concatenate([
                    np.outer(edge, regimes).ravel(),
                    np.linspace(-5.0, min(want[-1], 400.0), 301),
                    poles, *ulps, [0.0]])
                gap = np.abs(s[:, None] - want[None, :]).min(axis=1)
                s = s[gap > 1e-9 * np.maximum(1.0, np.abs(s))]
                got = fem._inertia(plans, s, np.full(s.size, plan))[0]
                assert np.array_equal(got, np.searchsorted(want, s)), plan

    def test_alternating_chains_on_a_loop(self):
        # a loop of three coarse elements with a short pendant edge: the
        # ground state lies below -6/h^2 of the loop's chains, where they
        # alternate, and on a loop no sign of theirs is a change of basis
        g = MetricGraph.create(
            [VertexRecord("v0", "coupled", (("e1", "start"), ("e1", "end"),
                                            ("e2", "start"))),
             VertexRecord("v1", "neumann", (("e2", "end"),))],
            [EdgeRecord("e1", "v0", "v0", 3.0),
             EdgeRecord("e2", "v0", "v1", 0.05)])
        want = dense_eigenvalues(g, 1.0)
        assert want[0] < -6.0
        got = oracle_eigenvalues(g, 1, 1.0)
        assert abs(got[0] - want[0]) <= 1e-10 * abs(want[0])
        s = (want[:, None] + np.array([-1e-8, 1e-8])
             * np.maximum(1.0, np.abs(want))[:, None]).ravel()
        plans = fem._plans(g, 1.0)
        for plan in (0, 1):
            got = fem._inertia(plans, s, np.full(s.size, plan))[0]
            assert np.array_equal(got, np.searchsorted(want, s)), plan

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_few_eigvalsh_calls_on_crosscheck_graphs(self, seed, monkeypatch):
        # the benchmark's crosscheck graphs of a seed's run (24 ops: stars
        # with a unit edge, figure-8s, 4-cycles with near-double roots):
        # Anderson-Bjorck steps stay superlinear at the 4-cycles' close
        # roots, where Illinois steps took up to 36 eigvalsh calls. The
        # values match the dense pencil on a mesh where its eigh is exact
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        workloads = importlib.import_module("qgbench.workloads")
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def counted(a):
            calls.append(len(a))
            return eigvalsh(a)

        for i in range(24):
            g = workloads.cross_spec(seed, i)["graph"]
            calls.clear()
            monkeypatch.setattr(fem.np.linalg, "eigvalsh", counted)
            oracle_eigenvalues(g, workloads.FEM_COUNT, workloads.FEM_H)
            monkeypatch.setattr(fem.np.linalg, "eigvalsh", eigvalsh)
            assert 0 < len(calls) <= 20, i
            got = oracle_eigenvalues(g, workloads.FEM_COUNT, 0.02)
            want = dense_eigenvalues(g, 0.02)[:workloads.FEM_COUNT]
            assert np.all(np.abs(got - want)
                          <= 1e-10 * np.maximum(1.0, np.abs(want))), i

    def test_unresolved_cell_is_refused(self):
        # a 1e-12 edge carries entries of order 1e12 beside terms of order
        # 1, and the ground state's cell ends show no Schur eigenvalue
        # crossing zero; the oracle names the cell instead of returning its
        # midpoint, 1.5 * 2^24
        with pytest.raises(np.linalg.LinAlgError, match=(
                r"cell \[-33554432\.0, -16777216\.0\] holds 1 eigenvalue")):
            oracle_eigenvalues(make_star([1.0, 0.7, 1e-12]), 3, 1e-3)

    @pytest.mark.parametrize("h,cell", [
        (1e-4, r"-134217728\.0, -67108864\.0"),
        (1e-5, r"-33554432\.0, -16777216\.0")])
    def test_root_on_its_cell_end_is_refused(self, h, cell):
        # beside a 1e-12 edge the Schur eigenvalue at a cell end reads a
        # sign below rounding, and every step inside the cell reads the
        # other: the bracket closes onto the end, a power of two and no
        # root, in the ground state's cell (h = 1e-4) or the second
        # eigenvalue's (h = 1e-5); the oracle names the cell
        with pytest.raises(np.linalg.LinAlgError, match=(
                rf"cell \[{cell}\] holds a root .* closed onto the "
                r"cell's end")):
            oracle_eigenvalues(make_star([1.0, 0.7, 1e-12]), 3, h)

    def test_short_edge_ground_state_is_kept(self):
        # beside a 1e-7 edge the bracket closes inside its cell: the
        # ground state, near -73681.2967 in the continuum, is answered
        got = oracle_eigenvalues(make_star([1.0, 0.7, 1e-7]), 3, 1e-5)
        assert got[0] == pytest.approx(-73681.29, abs=0.01)

    def test_halving_where_the_scale_is_not_positive(self):
        # on this figure-8 one step's value is at least the value held for
        # the end it replaces, so the Anderson-Bjorck factor is not positive
        # and falls back to halving; the roots stay the dense pencil's
        g = make_figure8(0.4, 0.5)
        got = oracle_eigenvalues(g, 6, 0.1)
        want = dense_eigenvalues(g, 0.1)[:6]
        assert np.all(np.abs(got - want)
                      <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_deep_ground_state(self):
        # a short edge pushes lambda_1 near -12.5: the shift needs several
        # doublings below -1
        g = make_star([1.0, 1.0, 0.05])
        lam = ground_state(g)[0]
        assert lam == pytest.approx(-12.4685, abs=1e-4)
        h = 1e-3
        got = oracle_eigenvalues(g, 1, h)[0]
        assert abs(got - lam) < max(5e-2, 10.0 * h * (1.0 + abs(lam)))
