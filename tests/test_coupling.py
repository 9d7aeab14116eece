"""Vertex condition matrices A F + i B F' = 0."""

import numpy as np
import pytest

from qgraph import BoundaryType
from qgraph.coupling import assemble_blocks, build_vertex_pair
from qgraph.errors import DimensionMismatch
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
    a, b = build_vertex_pair(BoundaryType.COUPLED, 1)  # normalizes to neumann
    assert (a[0, 0], b[0, 0]) == (0.0, 1.0)


def test_pair_rejects_impossible_requests():
    with pytest.raises(DimensionMismatch):
        build_vertex_pair(BoundaryType.COUPLED, 0)
    with pytest.raises(DimensionMismatch):
        build_vertex_pair(BoundaryType.DIRICHLET, 3)
    with pytest.raises(DimensionMismatch):
        build_vertex_pair(BoundaryType.NEUMANN, 2)


def test_cyclic_difference_kernel():
    # A annihilates constants; B doubles them on even cycles too
    a, b = build_vertex_pair(BoundaryType.COUPLED, 5)
    ones = np.ones(5)
    np.testing.assert_allclose(a @ ones, 0.0, atol=1e-15)
    np.testing.assert_allclose(b @ ones, 2.0 * ones, atol=1e-15)


def test_assemble_blocks_layout(star3):
    blocks = assemble_blocks(star3)
    m = 2 * star3.num_edges
    assert blocks.a.shape == blocks.b.shape == (m, m)
    # center occupies the first 3 slots, each tip one slot after it
    np.testing.assert_array_equal(
        blocks.a[:3, :3], np.roll(np.eye(3), 1, axis=1) - np.eye(3))
    assert np.all(blocks.a[3:, :] == 0.0)
    np.testing.assert_array_equal(blocks.b[3:, 3:], np.eye(3))


def test_ground_state_satisfies_vertex_conditions(star3):
    """End-to-end: traces of a solver eigenfunction satisfy A F + i B F'."""
    lam = find_spectrum(star3, (-10.0, -0.1)).records[0].lam
    (psi,) = eigenfunction_at(star3, lam)
    f, fp = trace_vectors(psi)
    blocks = assemble_blocks(star3)
    res = vertex_residual(blocks.a, blocks.b, f, fp)
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
