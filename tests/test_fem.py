"""P1 Galerkin oracle: shapes, interval exactness limits, solver cross-checks."""

import math

import numpy as np
import pytest
import scipy.linalg

from qgraph import fem, secular, solve
from qgraph.errors import MeshTooCoarse
from qgraph.experiments import ground_state
from qgraph.fem import discretize, oracle_eigenvalues
from qgraph.graph import (
    MetricGraph,
    VertexRecord,
    make_cycle,
    make_figure8,
    make_path,
    make_star,
)
from qgraph.solve import find_spectrum

PI2 = math.pi**2


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

    def test_count_validation(self, star3):
        with pytest.raises(ValueError):
            oracle_eigenvalues(star3, 0, 0.1)


class TestBandedOracle:
    """The banded Cholesky oracle: its own shift, dense agreement, deep
    ground states."""

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
    ], ids=["star3", "figure8-equilateral", "cycle4", "star3-dirichlet",
            "star6-equilateral"])
    def test_matches_dense_pencil(self, g):
        h_mat, mass, restrict = discretize(g, 0.02)
        a = (restrict.conj().T @ h_mat @ restrict).toarray()
        m = (restrict.T @ mass @ restrict).toarray()
        want = scipy.linalg.eigh(a, m, eigvals_only=True)[:8]
        got = oracle_eigenvalues(g, 8, 0.02)
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

    def test_deep_ground_state(self):
        # a short edge pushes lambda_1 near -12.5: the shift needs several
        # doublings below -1
        g = make_star([1.0, 1.0, 0.05])
        lam = ground_state(g)
        assert lam == pytest.approx(-12.4685, abs=1e-4)
        h = 1e-3
        got = oracle_eigenvalues(g, 1, h)[0]
        assert abs(got - lam) < max(5e-2, 10.0 * h * (1.0 + abs(lam)))
