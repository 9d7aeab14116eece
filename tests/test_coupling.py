"""Vertex condition matrices A F + i B F' = 0."""

import numpy as np
import pytest

from qgraph import (BoundaryType, EdgeRecord, MetricGraph, Split,
                    VertexRecord, apply_surgery, make_star)
from qgraph.coupling import assemble_blocks, build_vertex_pair
from qgraph.graph import END, START
from qgraph.solve import eigenfunction_at, find_spectrum
from reference import trace_vectors


def vertex_residual(a, b, traces, derivs):
    """Max-norm of A F + i B F' for trace and derivative vectors."""
    return float(np.max(np.abs(a @ traces + 1j * (b @ derivs))))


def test_pair_shapes_and_structure():
    a, b = build_vertex_pair(BoundaryType.COUPLED, 4)
    assert a.shape == b.shape == (4, 4)
    # row j encodes (F_{j+1} - F_j) + i(F'_j + F'_{j+1}), cyclically
    expected_a = np.roll(np.eye(4), 1, axis=1) - np.eye(4)
    expected_b = np.eye(4) + np.roll(np.eye(4), 1, axis=1)
    np.testing.assert_array_equal(a, expected_a)
    np.testing.assert_array_equal(b, expected_b)


def test_degree_one_pairs():
    a, b = build_vertex_pair(BoundaryType.NEUMANN, 1)
    assert (a[0, 0], b[0, 0]) == (0.0, 1.0)
    a, b = build_vertex_pair(BoundaryType.DIRICHLET, 1)
    assert (a[0, 0], b[0, 0]) == (1.0, 0.0)


def test_cyclic_difference_kernel():
    # A annihilates constants; B doubles them on even cycles too
    a, b = build_vertex_pair(BoundaryType.COUPLED, 5)
    ones = np.ones(5)
    np.testing.assert_allclose(a @ ones, 0.0, atol=1e-15)
    np.testing.assert_allclose(b @ ones, 2.0 * ones, atol=1e-15)


def test_assemble_blocks_layout(star3):
    a, b = assemble_blocks(star3)
    m = 2 * star3.num_edges
    assert a.shape == b.shape == (m, m)
    # center occupies the first 3 slots, each tip one slot after it
    np.testing.assert_array_equal(
        a[:3, :3], np.roll(np.eye(3), 1, axis=1) - np.eye(3))
    assert np.all(a[3:, :] == 0.0)
    np.testing.assert_array_equal(b[3:, 3:], np.eye(3))


def former_assemble_blocks(g):
    """Reference: the pairs laid along the diagonal by a running offset,
    vertex after vertex in sorted id order."""
    m = 2 * g.num_edges
    a, b = np.zeros((m, m)), np.zeros((m, m))
    pos = 0
    for v in sorted(g.vertices, key=lambda v: v.id):
        d = v.degree
        a[pos:pos + d, pos:pos + d], b[pos:pos + d, pos:pos + d] = \
            build_vertex_pair(v.bc, d)
        pos += d
    return a, b


def test_blocks_sit_at_each_vertex_slots_in_any_vertex_order():
    # vertex list v2, v9, v10; sorted id order v10, v2, v9 fixes the slots
    g = MetricGraph.create(
        [VertexRecord("v2", BoundaryType.COUPLED,
                      (("a", START), ("b", END), ("c", START), ("c", END))),
         VertexRecord("v9", BoundaryType.DIRICHLET, (("a", END),)),
         VertexRecord("v10", BoundaryType.NEUMANN, (("b", START),))],
        [EdgeRecord("a", "v2", "v9", 1.0), EdgeRecord("b", "v10", "v2", 0.7),
         EdgeRecord("c", "v2", "v2", 1.3)])
    assert [g.slot_index[("b", START)], g.slot_index[("a", END)]] == [0, 5]
    want = np.zeros((2, 6, 6))
    for v in g.vertices:
        for j, k in np.ndindex(v.degree, v.degree):
            r, c = g.slot_index[v.order[j]], g.slot_index[v.order[k]]
            want[:, r, c] = [x[j, k] for x in build_vertex_pair(v.bc, v.degree)]
    got = assemble_blocks(g)
    for got_x, want_x, former in zip(got, want, former_assemble_blocks(g)):
        assert got_x.tobytes() == want_x.tobytes() == former.tobytes()


def test_split_to_one_endpoint_gives_the_neumann_tip_pair():
    # a coupled vertex left with one endpoint is a Neumann tip once the
    # graph is created, so its pair is the tip's, byte for byte
    star4 = make_star([1.0, 0.7, 1.3, 0.9])
    rest = tuple((f"e{j}", START) for j in (2, 3, 4))
    with pytest.warns(UserWarning, match="reduces to Neumann"):
        s = apply_surgery(star4, Split("v0", (("e1", START),), rest))
    tips = [VertexRecord(f"v{j}", BoundaryType.NEUMANN, ((f"e{j}", END),))
            for j in range(1, 5)]
    ref = MetricGraph.create(
        [VertexRecord("(v0:a)", BoundaryType.NEUMANN, (("e1", START),)),
         VertexRecord("(v0:b)", BoundaryType.COUPLED, rest)] + tips,
        [EdgeRecord("e1", "(v0:a)", "v1", 1.0)]
        + [EdgeRecord(f"e{j}", "(v0:b)", f"v{j}", x)
           for j, x in ((2, 0.7), (3, 1.3), (4, 0.9))])
    assert s.vertex_map["(v0:a)"].bc is BoundaryType.NEUMANN
    assert s.slot_index == ref.slot_index
    for got, want in zip(assemble_blocks(s), assemble_blocks(ref)):
        assert got.tobytes() == want.tobytes()


def test_ground_state_satisfies_vertex_conditions(star3):
    """End-to-end: traces of a solver eigenfunction satisfy A F + i B F'."""
    lam = find_spectrum(star3, (-10.0, -0.1)).records[0].lam
    (psi,) = eigenfunction_at(star3, lam)
    f, fp = trace_vectors(psi)
    a, b = assemble_blocks(star3)
    res = vertex_residual(a, b, f, fp)
    scale = max(np.max(np.abs(f)), np.max(np.abs(fp)))
    assert res < 1e-9 * scale


def test_sum_rules_on_eigenfunction_traces(fig8):
    """Inward derivatives sum to zero at each coupled vertex; the alternating
    trace sum vanishes at even degree."""
    lam = find_spectrum(fig8, (-5.0, -0.5)).records[0].lam
    (psi,) = eigenfunction_at(fig8, lam)
    f, fp = trace_vectors(psi)
    g = fig8
    for v in g.vertices:
        slots = [g.slot_index[ref] for ref in v.order]
        scale = max(1.0, np.max(np.abs(f[slots])), np.max(np.abs(fp[slots])))
        assert abs(np.sum(fp[slots])) < 1e-9 * scale
        alt = sum((-1) ** j * f[s] for j, s in enumerate(slots))
        assert abs(alt) < 1e-9 * scale


def test_pairs_are_shared_and_read_only():
    # one pair serves every vertex of its condition and degree, so no caller
    # may write into it
    a, b = build_vertex_pair(BoundaryType.COUPLED, 4)
    assert build_vertex_pair(BoundaryType.COUPLED, 4)[0] is a
    for x in (a, b, *build_vertex_pair(BoundaryType.DIRICHLET, 1)):
        with pytest.raises(ValueError):
            x[0, 0] = 2.0
