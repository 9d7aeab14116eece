"""Graph model: construction, validation, serialization, metrics."""

import json
import pickle
import re
from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import linprog

from qgraph import (BoundaryType, EdgeRecord, MetricGraph, VertexRecord,
                    diameter, load_graph, make_cycle,
                    make_figure8, make_path, make_star, rotation_genus,
                    save_graph)
from qgraph.errors import Disconnected, InvalidGraph
from qgraph.experiments import sample_graph
from qgraph.graph import END, START, _distances


def test_star_shape(star3):
    assert star3.num_edges == 3
    assert len(star3.vertices) == 4
    assert star3.degree("v0") == 3
    assert star3.total_length == pytest.approx(3.0)
    center = star3.vertex_map["v0"]
    assert center.bc is BoundaryType.COUPLED
    assert center.order == (("e1", START), ("e2", START), ("e3", START))


def test_figure8_shape(fig8):
    (v,) = fig8.vertices
    assert v.degree == 4
    assert fig8.num_edges == 2
    assert fig8.total_length == pytest.approx(1.0)
    # loops own both endpoint slots of their edge
    assert fig8.vertex_of_endpoint[("e1", START)] == v.id
    assert fig8.vertex_of_endpoint[("e1", END)] == v.id


def test_slot_index_is_vertex_major(star3):
    idx = star3.slot_index
    assert sorted(idx.values()) == list(range(2 * star3.num_edges))
    # slots of the (sorted-first) center come first, in its declared order
    assert idx[("e1", START)] == 0
    assert idx[("e2", START)] == 1
    assert idx[("e3", START)] == 2


@pytest.mark.parametrize("g", [make_star([1.0, 0.7, 1.3]),
                               make_figure8(0.5, 0.7),
                               make_cycle([0.4, 0.6, 0.3, 0.7]),
                               make_path([0.5, 1.0])],
                         ids=["star3", "figure8", "cycle4", "path2"])
def test_end_slots_read_the_slot_index(g):
    want = [[g.slot_index[(e.id, w)] for e in g.edges] for w in (START, END)]
    assert g.end_slots.tolist() == want
    assert g.end_slots.dtype == np.intp
    with pytest.raises(ValueError, match="read-only"):
        g.end_slots[0, 0] = 1


def two_loops():
    """Two one-edge cycles, apart: a valid graph that is not connected."""
    return MetricGraph.create(
        [VertexRecord(v, BoundaryType.COUPLED, ((e, START), (e, END)))
         for v, e in (("a", "e1"), ("b", "e2"))],
        [EdgeRecord("e1", "a", "a", 1.0), EdgeRecord("e2", "b", "b", 2.0)])


def test_diameter_of_a_disconnected_graph_raises():
    g = two_loops()
    assert not g.is_connected()
    with pytest.raises(Disconnected, match="disconnected graph"):
        diameter(g)


def test_a_graph_with_no_vertices_is_not_connected():
    # `create` refuses it (no edges); built directly, it is disconnected
    g = MetricGraph((), ())
    assert not g.is_connected()
    with pytest.raises(Disconnected, match="disconnected graph"):
        diameter(g)


@pytest.mark.parametrize("factory", [make_star, make_path, make_cycle])
def test_factories_refuse_an_empty_edge_list(factory):
    with pytest.raises(InvalidGraph, match=r"^\w+ needs at least one edge$"):
        factory([])


def test_degree_one_coupled_normalizes_to_neumann():
    edges = [EdgeRecord("e1", "a", "b", 1.0)]
    verts = [VertexRecord("a", BoundaryType.COUPLED, (("e1", START),)),
             VertexRecord("b", BoundaryType.NEUMANN, (("e1", END),))]
    with pytest.warns(UserWarning, match="reduces to Neumann"):
        g = MetricGraph.create(verts, edges)
    assert g.vertex_map["a"].bc is BoundaryType.NEUMANN


def test_equal_graphs_hash_once_and_share_a_cache_entry():
    a, b = make_star([1.0, 0.7, 1.3]), make_star([1.0, 0.7, 1.3])
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash((a.vertices, a.edges))
    assert vars(a)["_hash"] == hash(a)  # kept on the instance
    built = []

    @lru_cache(maxsize=None)
    def plan(g):
        built.append(g)
        return object()

    assert plan(a) is plan(b) and built == [a]
    assert plan.cache_info().currsize == 1


def test_a_pickled_graph_carries_no_hash_or_cached_view(star3):
    hash(star3), star3.slot_index, star3.lengths, star3.shape
    copy = pickle.loads(pickle.dumps(star3))
    # rebuilt from its fields: a hash made under another process's string
    # hash seed would break every dict and cache holding it
    assert set(vars(copy)) == {"vertices", "edges"}
    assert copy == star3 and hash(copy) == hash(star3)


def graph_doc(vertices, edges):
    """A graph document: vertices as (id, bc, [(edge id, end), ...]), edges
    as (id, from, to), each of length 1."""
    return {"vertices": [{"id": v, "bc": bc, "order": [list(r) for r in order]}
                         for v, bc, order in vertices],
            "edges": [{"id": e, "from": a, "to": b, "length": 1.0}
                      for e, a, b in edges]}


PATH_ENDS = [("a", "neumann", [("e1", "start")]),
             ("b", "neumann", [("e1", "end")])]
# graph documents, each with a violation it must be refused for
BAD_GRAPH_DOCS = [
    (graph_doc([], []), "NoEdges(-): graph has no edges"),
    (graph_doc([("a", "neumann", [("e1", "start")]),
                ("a", "neumann", [("e1", "end")])], [("e1", "a", "a")]),
     "DuplicateId(a): vertex id repeated"),
    (graph_doc(PATH_ENDS, [("e1", "a", "b"), ("e1", "a", "b")]),
     "DuplicateId(e1): edge id repeated"),
    (graph_doc(PATH_ENDS, [("e1", "a", "z")]),
     "UnknownVertex(e1): edge references missing vertex 'z'"),
    (graph_doc([("a", "neumann", [("e1", "end")]),
                ("b", "neumann", [("e1", "start")])], [("e1", "a", "b")]),
     "BadEnumeration(e1): endpoint start listed under 'b', edge names 'a'"),
    (graph_doc([("a", "coupled", [("e1", "start"), ("e9", "start")]),
                ("b", "neumann", [("e1", "end")])], [("e1", "a", "b")]),
     "BadEnumeration(('e9', 'start')): order entry references unknown "
     "endpoint (owners ['a'])"),
    (graph_doc(PATH_ENDS + [("c", "coupled", [])], [("e1", "a", "b")]),
     "IsolatedVertex(c): vertex has no endpoints"),
]


def test_validation_rejects_bad_graphs():
    with pytest.raises(InvalidGraph):  # dirichlet needs degree 1
        MetricGraph.create(
            [VertexRecord("a", BoundaryType.DIRICHLET,
                          (("e1", START), ("e2", START))),
             VertexRecord("b", BoundaryType.NEUMANN, (("e1", END),)),
             VertexRecord("c", BoundaryType.NEUMANN, (("e2", END),))],
            [EdgeRecord("e1", "a", "b", 1.0), EdgeRecord("e2", "a", "c", 1.0)])
    with pytest.raises(InvalidGraph, match="neumann condition only defined "
                       "at degree 1"):  # so does neumann
        MetricGraph.create(
            [VertexRecord("a", BoundaryType.NEUMANN, (("e1", START),)),
             VertexRecord("b", BoundaryType.NEUMANN,
                          (("e1", END), ("e2", START))),
             VertexRecord("c", BoundaryType.NEUMANN, (("e2", END),))],
            [EdgeRecord("e1", "a", "b", 1.0), EdgeRecord("e2", "b", "c", 1.0)])
    with pytest.raises(InvalidGraph):  # nonpositive length
        make_star([1.0, -0.5])
    with pytest.raises(InvalidGraph):  # endpoint owned twice
        MetricGraph.create(
            [VertexRecord("a", BoundaryType.NEUMANN, (("e1", START),)),
             VertexRecord("b", BoundaryType.NEUMANN, (("e1", START),)),
             VertexRecord("c", BoundaryType.NEUMANN, (("e1", END),))],
            [EdgeRecord("e1", "a", "c", 1.0)])
    for doc, violation in BAD_GRAPH_DOCS:  # as a graph file gives them
        with pytest.raises(InvalidGraph, match=re.escape(violation)):
            MetricGraph.from_json_dict(doc)


@pytest.mark.parametrize("length", [np.inf, -np.inf, np.nan, 0.0])
def test_length_must_be_finite_and_positive(length):
    # inf > 0, yet an infinite edge has no spectrum to find
    g = MetricGraph([VertexRecord("a", BoundaryType.NEUMANN, (("e1", START),)),
                     VertexRecord("b", BoundaryType.NEUMANN, (("e1", END),))],
                    [EdgeRecord("e1", "a", "b", length)])
    (bad,) = g.validate()
    assert bad.code == "NonpositiveLength" and bad.entity == "e1"
    assert "must be finite and > 0" in bad.message
    with pytest.raises(InvalidGraph, match="NonpositiveLength"):
        make_star([length, 1.0, 1.0])


def test_json_round_trip(tmp_path, star3):
    doc = star3.to_json_dict()
    back = MetricGraph.from_json_dict(json.loads(json.dumps(doc)))
    assert back.to_json() == star3.to_json()

    p = tmp_path / "g.json"
    save_graph(star3, p)
    assert load_graph(p).to_json() == star3.to_json()


def test_from_json_rejects_malformed():
    with pytest.raises(InvalidGraph):
        MetricGraph.from_json("not json")
    with pytest.raises(InvalidGraph):
        MetricGraph.from_json_dict({"vertices": [], "edges": [{"id": "e"}]})


def test_diameter_path_and_star():
    assert diameter(make_path([0.6, 0.4])) == pytest.approx(1.0)
    assert diameter(make_star([1.0, 1.0, 1.0])) == pytest.approx(2.0)
    assert diameter(make_star([1.0, 0.25, 0.25])) == pytest.approx(1.25)


def test_diameter_attained_inside_edges():
    # two unit loops: farthest pair is midpoint to midpoint
    assert diameter(make_figure8(1.0, 1.0)) == pytest.approx(1.0)
    assert diameter(make_cycle([1.0, 1.0])) == pytest.approx(1.0)


def vertex_distances(g):
    """`_distances` as Python floats keyed by vertex id, dv[u][w]."""
    ids = [v.id for v in g.vertices]
    return {u: dict(zip(ids, row)) for u, row in zip(ids, _distances(g).tolist())}


def lp_diameter(g):
    """Reference diameter: one linear program per pair of edges, maximizing
    z <= every affine piece of the distance over the pair's box."""
    dv = vertex_distances(g)

    def lp(rows, box, same_edge=False):
        a_ub = [[-at, -bs, 1.0] for _, at, bs in rows]
        b_ub = [const for const, _, _ in rows]
        if same_edge:  # the first variable is the larger one: s - t <= 0
            a_ub.append([-1.0, 1.0, 0.0])
            b_ub.append(0.0)
        res = linprog(c=[0.0, 0.0, -1.0], A_ub=a_ub, b_ub=b_ub,
                      bounds=[(0.0, box[0]), (0.0, box[1]), (None, None)],
                      method="highs")
        assert res.success
        return -res.fun

    best = 0.0
    for i, e in enumerate(g.edges):
        a, b = e.src, e.dst
        best = max(best, lp([(0.0, 1.0, -1.0),
                             (dv[a][b] + e.length, 1.0, -1.0),
                             (dv[a][b] + e.length, -1.0, 1.0)],
                            (e.length, e.length), same_edge=True))
        for f in g.edges[i + 1:]:
            c, d = f.src, f.dst
            best = max(best, lp([(dv[a][c], 1.0, 1.0),
                                 (dv[a][d] + f.length, 1.0, -1.0),
                                 (dv[b][c] + e.length, -1.0, 1.0),
                                 (dv[b][d] + e.length + f.length, -1.0, -1.0)],
                                (e.length, f.length)))
    return best


def test_diameter_of_one_edge_cycle_is_half_its_length():
    assert diameter(make_cycle([1.0])) == 0.5
    assert lp_diameter(make_cycle([1.0])) == pytest.approx(0.5, abs=1e-12)


def diameter_graphs():
    rng = np.random.default_rng(12)
    graphs = [sample_graph(rng, int(rng.integers(2, 8)))
              for _ in range(70)]  # loops and parallel edges
    graphs += [make_star(rng.uniform(0.1, 2.0, n)) for n in range(2, 7)]
    graphs += [make_star([0.7] * n) for n in (2, 4, 6)]
    graphs += [make_figure8(*rng.uniform(0.1, 2.0, 2)) for _ in range(4)]
    graphs += [make_figure8(0.5, 0.5), make_path([0.6, 0.4])]
    graphs += [make_cycle(rng.uniform(0.1, 2.0, n)) for n in range(1, 6)]
    graphs += [make_cycle([1.0] * n) for n in (1, 2, 3)]
    return graphs


def loop_diameter(g):
    """Reference: `diameter`'s closed form in Python floats, one edge and one
    pair of edges at a time."""
    dv = vertex_distances(g)
    best = 0.0
    for i, e in enumerate(g.edges):
        a, b, le = e.src, e.dst, e.length
        best = max(best, (dv[a][b] + le) / 2)
        for f in g.edges[i + 1:]:
            def phi(c, t):
                return min(dv[a][c] + t, dv[b][c] + le - t)

            ts = [0.0, le] + [(dv[b][c] + le - dv[a][c]) / 2
                              for c in (f.src, f.dst)]
            far = max(phi(f.src, t) + phi(f.dst, t) for t in ts)
            best = max(best, (far + f.length) / 2)
    return best


def test_diameter_matches_the_pairwise_loop():
    # every pair of edges in one pass, each candidate with the float
    # operations of its pair alone: the same bytes
    graphs = diameter_graphs()
    graphs += [make_star(np.geomspace(1e-7, 3.0, 6)), make_path([1e-9, 2.0]),
               make_cycle([1e-8, 1.0, 1e-8])]
    for g in graphs:
        got, want = diameter(g), loop_diameter(g)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_distances_match_scipy_dijkstra():
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    for g in diameter_graphs():
        at = {v.id: k for k, v in enumerate(g.vertices)}
        w = np.full((len(at), len(at)), np.inf)  # inf: no edge
        for e in g.edges:
            if e.src != e.dst:
                i, j = at[e.src], at[e.dst]
                w[i, j] = w[j, i] = min(w[i, j], e.length)
        want = csgraph.shortest_path(w, method="D", directed=False)
        got = _distances(g)
        if all(e.src == "v0" != e.dst for e in g.edges):
            # a star: every distance is one edge or the sum of two
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_diameter_matches_linear_programs():
    graphs = diameter_graphs()
    assert len(graphs) >= 90
    assert any(e.src == e.dst for g in graphs[:70] for e in g.edges)
    assert any(len({(e.src, e.dst) for e in g.edges}) < g.num_edges
               for g in graphs[:70])
    for g in graphs:
        assert abs(diameter(g) - lp_diameter(g)) <= 1e-12


def test_rotation_genus_planar_cases(star3, fig8):
    assert rotation_genus(star3) == 0
    assert rotation_genus(fig8) == 0
    assert rotation_genus(make_cycle([1.0, 2.0])) == 0
    assert rotation_genus(make_path([1.0, 1.0])) == 0


def test_rotation_genus_interleaved_figure8():
    # same underlying multigraph as make_figure8, torus enumeration
    g = MetricGraph.create(
        [VertexRecord("v", BoundaryType.COUPLED,
                      (("e1", START), ("e2", START), ("e1", END), ("e2", END)))],
        [EdgeRecord("e1", "v", "v", 0.5), EdgeRecord("e2", "v", "v", 0.5)])
    assert rotation_genus(g) == 1


def test_rotation_genus_requires_connected():
    g = MetricGraph.create(
        [VertexRecord("a", BoundaryType.NEUMANN, (("e1", START),)),
         VertexRecord("b", BoundaryType.NEUMANN, (("e1", END),)),
         VertexRecord("c", BoundaryType.NEUMANN, (("e2", START),)),
         VertexRecord("d", BoundaryType.NEUMANN, (("e2", END),))],
        [EdgeRecord("e1", "a", "b", 1.0), EdgeRecord("e2", "c", "d", 1.0)])
    with pytest.raises(Disconnected):
        rotation_genus(g)

