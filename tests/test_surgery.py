"""Surgery ops as graph bookkeeping (spectral consequences live in the
experiments module and its tests)."""

import pytest

from qgraph import (AttachEdge, BoundaryType, ExtendEdge, Merge, Split,
                    Transplant, apply_surgery, make_cycle, make_path,
                    make_star, reduce_to_figure8)
from qgraph.errors import IllegalOp, NotReducible
from qgraph.graph import END, START


def is_figure8_shape(g):
    """True when suppressing degree-2 joints leaves one vertex with two loops."""
    degs = sorted(v.degree for v in g.vertices)
    return g.is_connected() and degs[-1] == 4 and all(d == 2 for d in degs[:-1])


def reduced_loop_lengths(g):
    """Lengths of the two loops of a figure-8-shaped graph (sorted)."""
    if not is_figure8_shape(g):
        raise IllegalOp("graph is not figure-8 shaped")
    hub = max(g.vertices, key=lambda v: v.degree).id
    hub_slots = list(g.vertex_map[hub].order)
    seen = set()
    loops = []
    for start_ref in hub_slots:
        if start_ref in seen:
            continue
        length = 0.0
        ref = start_ref
        while True:
            seen.add(ref)
            eid, end = ref
            length += g.edge_map[eid].length
            far = (eid, END if end == START else START)
            seen.add(far)
            v = g.vertex_of_endpoint[far]
            if v == hub:
                break
            a, b = g.vertex_map[v].order
            ref = b if a == far else a
        loops.append(length)
    if len(loops) != 2:
        raise IllegalOp("loop chase failed")
    return tuple(sorted(loops))


def lengths_of(g):
    return {e.id: e.length for e in g.edges}


class TestTransplant:
    def test_moves_length(self, star3):
        g = apply_surgery(star3, Transplant("e1", "e2", 0.25))
        assert lengths_of(g) == pytest.approx({"e1": 0.75, "e2": 1.25, "e3": 1.0})
        assert g.total_length == pytest.approx(star3.total_length)

    def test_full_removal_deletes_edge_and_tip(self):
        g = apply_surgery(make_star([1.0] * 4), Transplant("e1", "e2", 1.0))
        assert set(lengths_of(g)) == {"e2", "e3", "e4"}
        assert lengths_of(g)["e2"] == pytest.approx(2.0)
        assert "v1" not in g.vertex_map  # isolated tip dropped
        assert g.degree("v0") == 3

    def test_rejects_bad_amounts(self, star3):
        for bad in (Transplant("e1", "e1", 0.1), Transplant("e1", "e2", 0.0),
                    Transplant("e1", "e2", 1.5), Transplant("nope", "e2", 0.1)):
            with pytest.raises(IllegalOp):
                apply_surgery(star3, bad)


class TestMergeSplit:
    def test_merge_concatenates_orders(self):
        g = make_star([1.0, 1.0, 1.0])
        m = apply_surgery(g, Merge("v1", "v2"))
        v = m.vertex_map["(v1+v2)"]
        assert v.degree == 2
        assert v.order == (("e1", END), ("e2", END))
        assert v.bc is BoundaryType.COUPLED

    def test_merge_rejects_dirichlet(self):
        g = make_star([1.0] * 3, tip_bc=BoundaryType.DIRICHLET)
        with pytest.raises(IllegalOp):
            apply_surgery(g, Merge("v1", "v2"))
        with pytest.raises(IllegalOp):
            apply_surgery(g, Merge("v1", "v1"))

    def test_split_partitions_order(self, fig8):
        v = fig8.vertices[0].id
        s = apply_surgery(fig8, Split(v, (("e1", START), ("e1", END)),
                                      (("e2", START), ("e2", END))))
        assert sorted(w.degree for w in s.vertices) == [2, 2]
        assert not s.is_connected()  # two separate loops

    def test_split_requires_partition(self, fig8):
        v = fig8.vertices[0].id
        with pytest.raises(IllegalOp):
            apply_surgery(fig8, Split(v, (("e1", START),), (("e1", START),
                                                            ("e2", START))))

    def test_merge_then_split_round_trips_degree(self, star3):
        m = apply_surgery(star3, Merge("v1", "v2"))
        # degree-1 halves normalize to neumann tips, with a warning
        with pytest.warns(UserWarning, match="reduces to Neumann"):
            s = apply_surgery(m, Split("(v1+v2)", (("e1", END),),
                                       (("e2", END),)))
        assert sorted(v.degree for v in s.vertices) == [1, 1, 1, 3]


class TestAttachExtend:
    def test_attach_adds_pendant(self, star3):
        g = apply_surgery(star3, AttachEdge("v0", 0.5))
        assert g.degree("v0") == 4
        assert g.total_length == pytest.approx(3.5)
        new = [v for v in g.vertices if v.id.startswith("t")]
        assert len(new) == 1 and new[0].bc is BoundaryType.NEUMANN

    def test_attach_position_is_honored(self, star3):
        g = apply_surgery(star3, AttachEdge("v0", 0.5, position=1))
        order = g.vertex_map["v0"].order
        assert order[1][1] == START and order[1][0] not in ("e1", "e2", "e3")

    def test_attach_rejects_bad_input(self, star3):
        with pytest.raises(IllegalOp):
            apply_surgery(star3, AttachEdge("v0", -1.0))
        with pytest.raises(IllegalOp):
            apply_surgery(star3, AttachEdge("v0", 1.0, position=9))
        with pytest.warns(UserWarning, match="reduces to Neumann"):
            one_edge = make_star([1.0], tip_bc=BoundaryType.DIRICHLET)
        with pytest.raises(IllegalOp):
            apply_surgery(one_edge, AttachEdge("v1", 1.0))

    def test_attach_at_tip_makes_degree_two(self, star3):
        g = apply_surgery(star3, AttachEdge("v1", 1.0))
        assert g.degree("v1") == 2
        assert g.vertex_map["v1"].bc is BoundaryType.COUPLED

    def test_extend(self, star3):
        g = apply_surgery(star3, ExtendEdge("e3", 0.7))
        assert lengths_of(g)["e3"] == pytest.approx(1.7)
        with pytest.raises(IllegalOp):
            apply_surgery(star3, ExtendEdge("e3", 0.0))
        with pytest.raises(IllegalOp):
            apply_surgery(star3, ExtendEdge("zz", 1.0))


class TestRefusals:
    @pytest.mark.parametrize("op", [
        Merge("v0", "nowhere"),
        Split("nowhere", (("e1", START),), (("e2", START),)),
        AttachEdge("nowhere", 1.0),
    ], ids=["merge", "split", "attach"])
    def test_unknown_vertex_is_named(self, star3, op):
        with pytest.raises(IllegalOp, match="^unknown vertex 'nowhere'$"):
            apply_surgery(star3, op)

    def test_split_needs_two_nonempty_groups(self, fig8):
        v = fig8.vertices[0]
        with pytest.raises(IllegalOp, match="both split groups must be nonempty"):
            apply_surgery(fig8, Split(v.id, v.order, ()))

    def test_an_object_that_is_no_op_is_refused(self, star3):
        with pytest.raises(IllegalOp, match="^unknown op type dict$"):
            apply_surgery(star3, {"op": "merge", "v1": "v1", "v2": "v2"})


class TestFigure8Reduction:
    def test_fig8_is_already_reduced(self, fig8):
        assert is_figure8_shape(fig8)
        assert reduced_loop_lengths(fig8) == pytest.approx((0.5, 0.5))

    def test_path_and_cycle_not_reducible(self):
        with pytest.raises(NotReducible):
            reduce_to_figure8(make_path([1.0, 1.0]))
        with pytest.raises(NotReducible):
            reduce_to_figure8(make_cycle([1.0, 1.0]))

    def test_disconnected_graph_not_reducible(self, fig8):
        v = fig8.vertices[0].id
        loops = apply_surgery(fig8, Split(v, (("e1", START), ("e1", END)),
                                          (("e2", START), ("e2", END))))
        with pytest.raises(NotReducible, match="graph must be connected"):
            reduce_to_figure8(loops)

    def test_star_reduces_with_total_length_kept(self):
        g = make_star([1.0, 0.5, 0.8, 0.7])
        steps = reduce_to_figure8(g)
        final = steps[-1][1]
        assert is_figure8_shape(final)
        assert final.total_length == pytest.approx(g.total_length)
        l1, l2 = reduced_loop_lengths(final)
        assert l1 + l2 == pytest.approx(3.0)

    def test_dirichlet_graph_rejected(self):
        g = make_star([1.0] * 4, tip_bc=BoundaryType.DIRICHLET)
        with pytest.raises(IllegalOp):
            reduce_to_figure8(g)

    def test_every_step_is_merge_or_split(self):
        steps = reduce_to_figure8(make_star([1.0] * 5))
        assert all(isinstance(op, (Merge, Split)) for op, _ in steps)
        assert is_figure8_shape(steps[-1][1])
