"""Quadratic form: domain checks, symmetry, Rayleigh identities, trial surgery."""

import numpy as np
import pytest

from qgraph import quadform
from qgraph.errors import NotInDomain, QGraphError
from qgraph.experiments import sample_graph
from qgraph.graph import (END, START, BoundaryType, make_cycle, make_figure8,
                          make_path, make_star)
from qgraph.quadform import (
    QUAD_ORDER,
    TrialFunction,
    check_domain,
    edge_quadrature,
    form_domain_basis,
    form_value,
    rayleigh_quotient,
    trial_norm_sq,
    trial_traces,
    vertex_form_matrix,
)
from qgraph.solve import eigenfunction_at
from qgraph.surgery import Transplant, apply_surgery

STAR3_LAM1 = -3.3290586132660844


def gradient_integral(g, f):
    """The integral of |f'|^2 over the graph, by the edges' quadrature."""
    total = 0.0
    for e in g.edges:
        x, w = edge_quadrature(e.length)
        total += float(np.sum(w * np.abs(f.derivative(e.id, x)) ** 2))
    return total


def vertex_pair_term(fv, gv):
    """The module docstring's vertex term at one vertex, term by term:
    i * sum_{j>k} (-1)^(j+k) (F_k conj(G_j) - F_j conj(G_k))."""
    total = 0.0 + 0.0j
    for j in range(1, len(fv)):
        for k in range(j):
            sign = -1.0 if (j + k) % 2 else 1.0  # 0-based == 1-based parity
            total += sign * (fv[k] * np.conj(gv[j]) - fv[j] * np.conj(gv[k]))
    return 1j * total


def linear_trial(slopes):
    """slope * x on each edge, by edge id."""
    return TrialFunction(
        values={e: (lambda x, c=c: c * np.asarray(x, dtype=float))
                for e, c in slopes.items()},
        derivatives={e: (lambda x, c=c: c + 0.0 * np.asarray(x, dtype=float))
                     for e, c in slopes.items()})


def poly_trial(g, rng):
    """Random quadratic per edge; smooth, hence in the form domain for odd stars."""
    vals, ders = {}, {}
    for e in g.edges:
        c = rng.normal(size=3)
        p = np.polynomial.Polynomial(c)
        vals[e.id] = p
        ders[e.id] = p.deriv()
    return TrialFunction(values=vals, derivatives=ders)


def former_edge_quadrature(length, breaks=()):
    """Reference: edge_quadrature by its piece loop, one piece included."""
    base_x, base_w = np.polynomial.legendre.leggauss(QUAD_ORDER)
    cuts = [0.0] + sorted(b for b in breaks if 0.0 < b < length) + [float(length)]
    xs, ws = [], []
    for a, b in zip(cuts, cuts[1:]):
        half = (b - a) / 2.0
        xs.append((base_x + 1.0) * half + a)
        ws.append(base_w * half)
    return np.concatenate(xs), np.concatenate(ws)


def former_rayleigh_quotient(g, f):
    """Reference: the Rayleigh quotient as the norm, then the form value."""
    norm = trial_norm_sq(g, f)
    if norm < 1e-30:
        raise QGraphError("trial function has (numerically) zero norm")
    return form_value(g, f) / norm


def edge_loop_rayleigh_quotient(g, f):
    """Reference: the Rayleigh quotient by the former loop over edges, on
    each edge's own nodes: one f.value call on [0, length, nodes...] and one
    f.derivative call on the nodes, each edge's integral by np.sum, added
    in edge order."""
    traces = np.zeros(2 * g.num_edges, dtype=complex)
    norm, total = 0.0, 0.0 + 0.0j
    for e in g.edges:
        x, w = edge_quadrature(e.length, tuple(set(f.breakpoints.get(e.id, ()))))
        v = f.value(e.id, np.concatenate(([0.0, e.length], x)))
        traces[g.slot_index[(e.id, START)]] = v[0]
        traces[g.slot_index[(e.id, END)]] = v[1]
        norm += float(np.sum(w * np.abs(v[2:]) ** 2))
        df = f.derivative(e.id, x)
        total += np.sum(w * df * np.conj(df))
    total += np.conj(traces) @ vertex_form_matrix(g) @ traces
    return float(total.real) / norm


class TestQuadrature:
    @pytest.mark.parametrize("length, breaks", [
        (1.0, ()), (0.7, ()), (1e-7, ()), (3, ()), (2.0, (2.5, -0.1)),
        (1.3, (0.4,)), (1.3, (0.4, 0.4)), (1.3, [0.4, 0.4])])
    def test_matches_the_piece_loop(self, length, breaks):
        got = edge_quadrature(length, breaks)
        want = former_edge_quadrature(length, breaks)
        for u, v in zip(got, want):
            assert u.tobytes() == v.tobytes()

    def test_polynomial_exactness(self):
        x, w = edge_quadrature(2.0)
        assert np.sum(w * x**3) == pytest.approx(4.0, rel=1e-13)

    def test_breakpoint_splitting(self):
        # |x - 1/2| has a kink; split quadrature integrates it exactly
        x, w = edge_quadrature(1.0, breaks=(0.5,))
        assert np.sum(w * np.abs(x - 0.5)) == pytest.approx(0.25, rel=1e-13)

    def test_break_outside_interval_ignored(self):
        x1, w1 = edge_quadrature(1.0)
        x2, w2 = edge_quadrature(1.0, breaks=(1.5, -0.1))
        assert np.array_equal(x1, x2) and np.array_equal(w1, w2)


class TestDomain:
    def test_dirichlet_trace_rejected(self):
        g = make_star([1.0] * 3, tip_bc="dirichlet")
        ones = TrialFunction(
            values={e.id: (lambda x: np.ones_like(np.asarray(x, dtype=float)))
                    for e in g.edges},
            derivatives={e.id: (lambda x: np.zeros_like(np.asarray(x, dtype=float)))
                         for e in g.edges},
        )
        with pytest.raises(NotInDomain):
            check_domain(g, ones)

    def test_even_vertex_alternating_sum_rejected(self, fig8):
        # degree 4 vertex: sum of signed traces must vanish; x on one loop
        # breaks it
        f = TrialFunction(
            values={"e1": (lambda x: np.asarray(x, dtype=float)),
                    "e2": (lambda x: np.zeros_like(np.asarray(x, dtype=float)))},
            derivatives={"e1": (lambda x: np.ones_like(np.asarray(x, dtype=float))),
                         "e2": (lambda x: np.zeros_like(np.asarray(x, dtype=float)))},
        )
        with pytest.raises(NotInDomain):
            check_domain(g=fig8, f=f)

    @pytest.mark.parametrize("g, slopes, message", [
        # tips v2 and v3 off zero: the first in vertex order is named
        (make_star([1.0] * 3, tip_bc="dirichlet"),
         {"e1": 0.0, "e2": 2.0, "e3": 3.0},
         "dirichlet trace 2.000e+00+0.000e+00j at vertex 'v2'"),
        # x on one loop of the figure-8 leaves its degree-4 vertex's
        # alternating sum at 0.5
        (make_figure8(0.5, 0.5), {"e1": 1.0, "e2": 0.0},
         "alternating trace sum 5.000e-01 at even vertex 'v0'"),
        # the inner vertex v1 (degree 2) and the tip v2 are both off; v1
        # comes first
        (make_path([1.0, 0.5], tip_bc="dirichlet"), {"e1": 2.0, "e2": 0.25},
         "alternating trace sum 2.000e+00 at even vertex 'v1'"),
        (make_path([1.0, 1.0], tip_bc="dirichlet"), {"e1": 0.0, "e2": 0.25},
         "dirichlet trace 2.500e-01+0.000e+00j at vertex 'v2'"),
    ], ids=["dstar3", "figure8", "dpath-inner", "dpath-tip"])
    def test_message_names_first_violating_vertex(self, g, slopes, message):
        with pytest.raises(NotInDomain) as err:
            check_domain(g, linear_trial(slopes))
        assert str(err.value) == message

    @pytest.mark.parametrize("check", [check_domain, rayleigh_quotient])
    def test_nan_traces_are_rejected(self, check):
        # NaN compares false with everything, so a test of the violation
        # itself would pass it; the Dirichlet tips are named in vertex order
        g = make_star([1.0] * 3, tip_bc="dirichlet")
        nan = TrialFunction(
            values={e.id: (lambda x: np.full(np.shape(x), np.nan))
                    for e in g.edges},
            derivatives={e.id: (lambda x: np.full(np.shape(x), np.nan))
                         for e in g.edges})
        with pytest.raises(NotInDomain) as err:
            check(g, nan)
        assert str(err.value) == "dirichlet trace nan+nanj at vertex 'v1'"

    def test_smooth_trial_accepted(self, star3, rng):
        check_domain(star3, poly_trial(star3, rng))

    def test_form_value_runs_domain_check(self, fig8):
        bad = TrialFunction(
            values={"e1": (lambda x: np.asarray(x, dtype=float)),
                    "e2": (lambda x: np.zeros_like(np.asarray(x, dtype=float)))},
            derivatives={"e1": (lambda x: np.ones_like(np.asarray(x, dtype=float))),
                         "e2": (lambda x: np.zeros_like(np.asarray(x, dtype=float)))},
        )
        with pytest.raises(NotInDomain):
            form_value(fig8, bad)


class TestFormValue:
    def test_diagonal_is_real_float(self, star3, rng):
        v = form_value(star3, poly_trial(star3, rng))
        assert isinstance(v, float)

    def test_hermitian_symmetry(self, star3, rng):
        f, h = poly_trial(star3, rng), poly_trial(star3, rng)
        assert form_value(star3, f, h) == pytest.approx(
            np.conj(form_value(star3, h, f)), abs=1e-12)

    def test_diagonal_matches_offdiagonal(self, star3, rng):
        f = poly_trial(star3, rng)
        assert form_value(star3, f) == pytest.approx(
            complex(form_value(star3, f, f)).real, rel=1e-12)

    def test_vertex_term_lowers_energy_below_gradient(self, star3):
        # the signed trace coupling is what pushes a[psi] below the gradient
        # integral; on the ground state it must, the eigenvalue is negative
        psi = eigenfunction_at(star3, STAR3_LAM1)[0]
        trial = psi.as_trial()
        assert form_value(star3, trial) < 0.0 < gradient_integral(star3, trial)


    def test_diagonal_with_an_imaginary_part_raises(self, star3,
                                                    monkeypatch):
        # a vertex term that is not Hermitian, H + i I, gives the diagonal
        # an imaginary part i |F|^2, which the form refuses to drop
        trial = eigenfunction_at(star3, STAR3_LAM1)[0].as_trial()
        herm = vertex_form_matrix(star3.shape)
        monkeypatch.setattr(quadform, "vertex_form_matrix",
                            lambda shape: herm + 1j * np.eye(len(herm)))
        with pytest.raises(QGraphError, match="imaginary part"):
            form_value(star3, trial)
        with pytest.raises(QGraphError, match="imaginary part"):
            rayleigh_quotient(star3, trial)


class TestRayleigh:
    def test_matches_negative_eigenvalue(self, star3):
        psi = eigenfunction_at(star3, STAR3_LAM1)[0]
        rq = rayleigh_quotient(star3, psi.as_trial())
        assert rq == pytest.approx(STAR3_LAM1, rel=1e-6)

    def test_matches_positive_eigenvalue(self, star3):
        lam = 1.067126678486186
        psi = eigenfunction_at(star3, lam)[0]
        assert rayleigh_quotient(star3, psi.as_trial()) == pytest.approx(lam, rel=1e-6)

    def test_matches_on_figure8(self, fig8):
        psi = eigenfunction_at(fig8, -1.0)[0]
        assert rayleigh_quotient(fig8, psi.as_trial()) == pytest.approx(-1.0, rel=1e-6)

    def test_variational_lower_bound(self, star3, rng):
        for _ in range(10):
            rq = rayleigh_quotient(star3, poly_trial(star3, rng))
            assert rq >= STAR3_LAM1 - 1e-9

    def test_zero_norm_raises(self, star3):
        zero = TrialFunction(
            values={e.id: (lambda x: np.zeros_like(np.asarray(x, dtype=float)))
                    for e in star3.edges},
            derivatives={e.id: (lambda x: np.zeros_like(np.asarray(x, dtype=float)))
                         for e in star3.edges},
        )
        with pytest.raises(QGraphError):
            rayleigh_quotient(star3, zero)

    def test_form_arrays_are_built_once_per_shape(self, fig8):
        # edgewise constants: the even vertex's alternating sum is zero
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        trial = TrialFunction(values={"e1": one, "e2": one},
                              derivatives={"e1": zero, "e2": zero})
        other = make_figure8(0.3, 0.9)
        assert other != fig8 and other.shape == fig8.shape
        caches = (vertex_form_matrix, quadform._domain_rows)
        for cache in caches:
            cache.cache_clear()
        for g in (fig8, other):
            rayleigh_quotient(g, trial)
        assert [c.cache_info().currsize for c in caches] == [1, 1]

    @pytest.mark.parametrize("g, lams", [
        (make_star([1.0, 0.7, 1.3]), [-3.461724246805116, 0.0]),
        (make_star([1.0] * 3), [STAR3_LAM1, 1.067126678486186]),
        (make_figure8(0.5, 0.5), [-1.0, 16.0 * np.pi ** 2]),
        (make_cycle([1.0]), [4.0 * np.pi ** 2]),
        (make_star([1.0, 1.0, 1.0], tip_bc="dirichlet"), [9.0 * np.pi ** 2 / 4.0]),
        # the shapes of the benchmark's crosscheck workload, at roots its
        # DtN route certifies
        (make_star([1.0, 0.8, 1.25]), [-3.377172782409636, 0.0, 5.401443856991723]),
        (make_cycle([0.96, 1.24, 0.64, 1.16]), [0.0, 2.467401100272335]),
        (make_figure8(1.2, 1.8), [-1.0, 0.0, 4.386490844928604]),
    ], ids=["star3", "star3-equilateral", "figure8", "cycle", "dstar3",
            "star-unit", "cycle4-near-double", "figure8-crosscheck"])
    def test_eigenfunctions_match_the_former_composition(self, g, lams):
        for lam in lams:
            for psi in eigenfunction_at(g, lam):
                trial = psi.as_trial()
                got = rayleigh_quotient(g, trial).hex()
                assert got == former_rayleigh_quotient(g, trial).hex()
                assert got == edge_loop_rayleigh_quotient(g, trial).hex()

    def test_trials_match_the_former_composition(self, star3, rng):
        trials = [(star3, poly_trial(star3, rng)) for _ in range(5)]
        g = make_star([1.0, 0.7, 1.3])
        psi = eigenfunction_at(g, -3.461724246805116)[0]
        # breakpoints on the glued edge
        trials.append(build_transplant_trial(g, psi, "e2", "e3", 0.2))
        for g, trial in trials:
            got = rayleigh_quotient(g, trial).hex()
            assert got == former_rayleigh_quotient(g, trial).hex()
            assert got == edge_loop_rayleigh_quotient(g, trial).hex()

    def test_errors_come_in_the_former_order(self, fig8):
        # a zero norm is named before the domain: a trial that is 1 at the
        # far end of e1 and 0 at every quadrature node violates both
        def spike(x):
            return np.where(np.asarray(x, dtype=float) == 0.5, 1.0, 0.0)

        zero_off_domain = TrialFunction(
            values={"e1": spike, "e2": (lambda x: 0.0 * np.asarray(x))},
            derivatives={e: (lambda x: 0.0 * np.asarray(x)) for e in ("e1", "e2")})
        with pytest.raises(NotInDomain):
            check_domain(fig8, zero_off_domain)
        off_domain = linear_trial({"e1": 1.0, "e2": 0.0})
        for f, kind in ((zero_off_domain, QGraphError), (off_domain, NotInDomain)):
            with pytest.raises(QGraphError) as got:
                rayleigh_quotient(fig8, f)
            with pytest.raises(QGraphError) as want:
                former_rayleigh_quotient(fig8, f)
            assert type(got.value) is type(want.value) is kind
            assert str(got.value) == str(want.value)

    def test_norms_on_eigenfunction(self, star3):
        psi = eigenfunction_at(star3, STAR3_LAM1)[0]
        trial = psi.as_trial()
        assert trial_norm_sq(star3, trial) == pytest.approx(1.0, rel=1e-9)
        assert gradient_integral(star3, trial) > 0.0


class TestTraces:
    def test_layout(self, star3):
        f = TrialFunction(
            values={e.id: (lambda x, c=i: c + np.asarray(x, dtype=float))
                    for i, e in enumerate(star3.edges)},
            derivatives={e.id: (lambda x: np.ones_like(np.asarray(x, dtype=float)))
                         for e in star3.edges},
        )
        tr = trial_traces(star3, f)
        assert tr[star3.slot_index[("e2", "start")]] == pytest.approx(1.0)
        assert tr[star3.slot_index[("e2", "end")]] == pytest.approx(2.0)


class TestFormMatrices:
    """The trace-space pieces of the form that exact eigenvalue counts use."""

    GRAPHS = ([make_star([1.0, 0.7, 1.3]), make_star([1.0] * 4),
               make_star([1.0, 0.5], tip_bc="dirichlet"), make_figure8(0.3, 0.9),
               make_cycle([1.0]), make_star([1.0, 0.7, 1.3], tip_bc="dirichlet"),
               make_star([1.0, 0.7, 1.3, 0.4], tip_bc="dirichlet"),
               make_figure8(1.0, 1.0), make_cycle([1.0, 0.5, 2.0]),
               make_path([1.0, 0.5, 0.7]), make_path([1.0, 0.5], tip_bc="dirichlet")]
              + [sample_graph(np.random.default_rng(seed), num_edges=n)
                 for seed, n in [(0, 3), (1, 4), (2, 5), (3, 6)]])

    @pytest.mark.parametrize("g", GRAPHS)
    def test_vertex_matrix_is_the_vertex_term(self, g, rng):
        h = vertex_form_matrix(g)
        assert np.array_equal(h, h.conj().T)
        m = 2 * g.num_edges
        f = rng.normal(size=m) + 1j * rng.normal(size=m)
        other = rng.normal(size=m) + 1j * rng.normal(size=m)
        ref = sum(vertex_pair_term(f[s], other[s])
                  for v in g.vertices if v.degree >= 2
                  for s in [[g.slot_index[r] for r in v.order]])
        assert np.conj(other) @ h @ f == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("g", GRAPHS)
    def test_domain_basis_spans_the_allowed_traces(self, g):
        p = form_domain_basis(g)
        assert np.allclose(p.T @ p, np.eye(p.shape[1]), atol=1e-14)
        constraints = 0
        for v in g.vertices:
            slots = [g.slot_index[r] for r in v.order]
            if v.bc is BoundaryType.DIRICHLET:
                constraints += 1
                assert np.allclose(p[slots[0]], 0.0, atol=1e-14)
            elif v.bc is BoundaryType.COUPLED and v.degree % 2 == 0:
                constraints += 1
                alt = np.array([(-1) ** j for j in range(v.degree)])
                assert np.allclose(alt @ p[slots], 0.0, atol=1e-14)
        assert p.shape == (2 * g.num_edges, 2 * g.num_edges - constraints)

    @pytest.mark.parametrize("g", GRAPHS)
    def test_domain_basis_is_the_scipy_null_space(self, g):
        # numpy's SVD with scipy.linalg.null_space's rank rule: the same
        # subspace, compared through its orthogonal projector
        from scipy.linalg import null_space

        m = 2 * g.num_edges
        rows = []
        for v in g.vertices:
            slots = [g.slot_index[r] for r in v.order]
            if v.bc is BoundaryType.DIRICHLET:
                rows.append(np.eye(m)[slots[0]])
            elif v.bc is BoundaryType.COUPLED and v.degree % 2 == 0:
                row = np.zeros(m)
                row[slots] = [(-1) ** j for j in range(v.degree)]
                rows.append(row)
        p = form_domain_basis(g)
        if not rows:  # nothing to annihilate: every trace vector is allowed
            assert np.array_equal(p, np.eye(m))
            return
        q = null_space(np.array(rows))
        assert p.shape == q.shape
        assert np.allclose(p @ p.T, q @ q.T, rtol=0, atol=1e-14)


SEAM_TOL = 1e-13  # |psi| at a transplant cut below which the trial is undefined


def build_transplant_trial(g, psi, from_edge, to_edge, amount):
    """Transplant trial: cut `amount` off from_edge's far end, glue a scaled
    copy of the removed tail onto to_edge's far end.

    psi is an Eigenfunction of g (expected: the star ground state). Returns
    (new_graph, TrialFunction on it). The construction keeps the trial
    continuous at the seam and leaves every vertex trace of the original
    center untouched, so domain membership carries over.
    """
    le_from = g.edge_map[from_edge].length
    le_to = g.edge_map[to_edge].length
    if le_from > le_to:
        raise QGraphError("transplant trial moves length from the shorter edge")
    n_edges = g.num_edges
    if not (0.0 < amount <= le_from):
        raise QGraphError(f"amount {amount} outside (0, {le_from}]")
    if amount == le_from and n_edges % 2 == 1:
        raise QGraphError("full removal of an edge needs an even edge count")
    new_g = apply_surgery(g, Transplant(from_edge, to_edge, amount))
    stub = le_from - amount
    seam_val = complex(psi.value(from_edge, stub))
    denom = complex(psi.value(to_edge, le_to))
    # scale so the glued tail continues psi on to_edge
    if abs(seam_val) < SEAM_TOL:
        raise QGraphError("eigenfunction vanishes at the cut point; trial undefined")
    scale = denom / seam_val

    values = {}
    derivs = {}
    breaks = {}
    for e in new_g.edges:
        if e.id == to_edge:
            def val(x, _s=scale, _l=le_to, _st=stub, _eid=from_edge, _tid=to_edge):
                x = np.asarray(x, dtype=float)
                inner = psi.value(_tid, np.minimum(x, _l))
                outer = _s * psi.value(_eid, np.clip(x - _l + _st, 0.0, None))
                return np.where(x <= _l, inner, outer)

            def der(x, _s=scale, _l=le_to, _st=stub, _eid=from_edge, _tid=to_edge):
                x = np.asarray(x, dtype=float)
                inner = psi.derivative(_tid, np.minimum(x, _l))
                outer = _s * psi.derivative(_eid, np.clip(x - _l + _st, 0.0, None))
                return np.where(x <= _l, inner, outer)

            values[e.id] = val
            derivs[e.id] = der
            breaks[e.id] = (le_to,)
        else:
            values[e.id] = (lambda x, _eid=e.id: psi.value(_eid, x))
            derivs[e.id] = (lambda x, _eid=e.id: psi.derivative(_eid, x))
    return new_g, TrialFunction(values=values, derivatives=derivs, breakpoints=breaks)


class TestTransplantTrial:
    def test_continuity_and_energy_drop(self):
        g = make_star([1.0, 0.7, 1.3])
        lam1 = -3.461724246805116
        psi = eigenfunction_at(g, lam1)[0]
        new_g, trial = build_transplant_trial(g, psi, "e2", "e3", 0.2)
        assert new_g.edge_map["e2"].length == pytest.approx(0.5)
        assert new_g.edge_map["e3"].length == pytest.approx(1.5)
        # continuous across the seam at the old far end of e3
        below = complex(trial.value("e3", 1.3 - 1e-9))
        above = complex(trial.value("e3", 1.3 + 1e-9))
        assert abs(above - below) < 1e-6
        check_domain(new_g, trial)
        # the glued trial certifies strict decrease of the ground state
        assert rayleigh_quotient(new_g, trial) < lam1 - 1e-6

    @pytest.mark.parametrize("integral", [form_value, rayleigh_quotient])
    def test_glued_edge_is_read_on_two_pieces(self, integral):
        # the seam is the glued edge's one breakpoint, read once by the form
        # and the norm alike: 2 pieces, 128 nodes, and the two traces, where
        # the values and the derivatives are both read
        g = make_star([1.0, 0.7, 1.3])
        psi = eigenfunction_at(g, -3.461724246805116)[0]
        new_g, trial = build_transplant_trial(g, psi, "e2", "e3", 0.2)
        sizes = []
        for kind, fns in (("value", trial.values),
                          ("derivative", trial.derivatives)):
            def read(x, _fn=fns["e3"], _kind=kind):
                sizes.append((_kind, np.size(x)))
                return _fn(x)

            fns["e3"] = read
        integral(new_g, trial)
        assert sizes == [("value", 2 + 2 * QUAD_ORDER),
                         ("derivative", 2 + 2 * QUAD_ORDER)]

    def test_rejects_wrong_direction(self):
        g = make_star([1.0, 0.7, 1.3])
        psi = eigenfunction_at(g, -3.461724246805116)[0]
        with pytest.raises(QGraphError):
            build_transplant_trial(g, psi, "e3", "e2", 0.2)

    def test_rejects_bad_amount(self, star3):
        psi = eigenfunction_at(star3, STAR3_LAM1)[0]
        for amount in (0.0, -0.1, 1.5):
            with pytest.raises(QGraphError):
                build_transplant_trial(star3, psi, "e1", "e2", amount)
