"""Graph surgery: length transplant, vertex merge/split, edge attach/extend.

Each op is a small frozen dataclass; apply_surgery returns a new graph (inputs
are never mutated). reduce_to_figure8 composes merges and splits into the
standard reduction of any connected graph with a branch vertex down to a
figure-8 of the same total length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import IllegalOp, NotReducible
from .graph import (END, START, BoundaryType, EdgeRecord, MetricGraph,
                    VertexRecord)


@dataclass(frozen=True)
class Transplant:
    """Move a piece of length `amount` from one edge to another."""

    from_edge: str
    to_edge: str
    amount: float


@dataclass(frozen=True)
class Merge:
    """Fuse two vertices; the new endpoint order is v1's list then v2's."""

    v1: str
    v2: str


@dataclass(frozen=True)
class Split:
    """Break one vertex into two, partitioning its endpoint list."""

    vertex: str
    group1: tuple  # endpoint refs going to the first new vertex
    group2: tuple


@dataclass(frozen=True)
class AttachEdge:
    """Add a pendant edge (fresh Neumann tip) rooted at an existing vertex."""

    at_vertex: str
    length: float
    position: Optional[int] = None  # insertion slot in the endpoint order


@dataclass(frozen=True)
class ExtendEdge:
    """Lengthen an edge by a positive amount."""

    edge: str
    amount: float


SurgeryOp = Union[Transplant, Merge, Split, AttachEdge, ExtendEdge]


def _fresh_id(taken, stem: str) -> str:
    k = 1
    while f"{stem}{k}" in taken:
        k += 1
    return f"{stem}{k}"


def _apply_transplant(g: MetricGraph, op: Transplant) -> MetricGraph:
    if op.from_edge == op.to_edge:
        raise IllegalOp("transplant needs two distinct edges")
    try:
        src = g.edge_map[op.from_edge]
        dst = g.edge_map[op.to_edge]
    except KeyError as exc:
        raise IllegalOp(f"unknown edge {exc.args[0]!r}") from None
    if not (0.0 < op.amount <= src.length):
        raise IllegalOp(f"amount {op.amount} outside (0, {src.length}]")
    edges = []
    for e in g.edges:
        if e.id == op.from_edge:
            if op.amount < src.length:
                edges.append(EdgeRecord(e.id, e.src, e.dst, e.length - op.amount))
        elif e.id == op.to_edge:
            edges.append(EdgeRecord(e.id, e.src, e.dst, e.length + op.amount))
        else:
            edges.append(e)
    removed = op.amount == src.length
    verts = []
    for v in g.vertices:
        order = tuple(ref for ref in v.order if not (removed and ref[0] == op.from_edge))
        if removed and not order:
            continue  # vertex isolated by the removal
        verts.append(VertexRecord(v.id, v.bc, order))
    return MetricGraph.create(verts, edges)


def _apply_merge(g: MetricGraph, op: Merge) -> MetricGraph:
    if op.v1 == op.v2:
        raise IllegalOp("merge needs two distinct vertices")
    try:
        a = g.vertex_map[op.v1]
        b = g.vertex_map[op.v2]
    except KeyError as exc:
        raise IllegalOp(f"unknown vertex {exc.args[0]!r}") from None
    for v in (a, b):
        if v.bc is BoundaryType.DIRICHLET:
            raise IllegalOp(f"cannot merge dirichlet vertex {v.id!r}")
    new_id = f"({a.id}+{b.id})"
    merged = VertexRecord(new_id, BoundaryType.COUPLED, a.order + b.order)
    verts = [merged] + [v for v in g.vertices if v.id not in (a.id, b.id)]
    old = {a.id, b.id}
    edges = [EdgeRecord(e.id,
                        new_id if e.src in old else e.src,
                        new_id if e.dst in old else e.dst,
                        e.length)
             for e in g.edges]
    return MetricGraph.create(verts, edges)


def _apply_split(g: MetricGraph, op: Split) -> MetricGraph:
    try:
        v = g.vertex_map[op.vertex]
    except KeyError:
        raise IllegalOp(f"unknown vertex {op.vertex!r}") from None
    g1 = [tuple(r) for r in op.group1]
    g2 = [tuple(r) for r in op.group2]
    if not g1 or not g2:
        raise IllegalOp("both split groups must be nonempty")
    if set(g1) | set(g2) != set(v.order) or set(g1) & set(g2) \
            or len(g1) + len(g2) != v.degree:
        raise IllegalOp("split groups must partition the endpoint order")
    pos = {ref: i for i, ref in enumerate(v.order)}
    g1 = tuple(sorted(g1, key=pos.get))  # keep parent-relative order
    g2 = tuple(sorted(g2, key=pos.get))
    id1, id2 = f"({v.id}:a)", f"({v.id}:b)"
    owner = {ref: id1 for ref in g1}
    owner.update({ref: id2 for ref in g2})
    verts = [VertexRecord(id1, BoundaryType.COUPLED, g1),
             VertexRecord(id2, BoundaryType.COUPLED, g2)]
    verts += [w for w in g.vertices if w.id != v.id]
    edges = [EdgeRecord(e.id,
                        owner.get((e.id, START), e.src),
                        owner.get((e.id, END), e.dst),
                        e.length)
             for e in g.edges]
    return MetricGraph.create(verts, edges)


def _apply_attach(g: MetricGraph, op: AttachEdge) -> MetricGraph:
    try:
        v = g.vertex_map[op.at_vertex]
    except KeyError:
        raise IllegalOp(f"unknown vertex {op.at_vertex!r}") from None
    if v.bc is BoundaryType.DIRICHLET:
        raise IllegalOp("cannot attach to a dirichlet vertex")
    if not (op.length > 0.0):
        raise IllegalOp("attached edge needs positive length")
    eid = _fresh_id({e.id for e in g.edges}, "e")
    tid = _fresh_id({w.id for w in g.vertices}, "t")
    pos = v.degree if op.position is None else op.position
    if not (0 <= pos <= v.degree):
        raise IllegalOp(f"insertion position {pos} outside 0..{v.degree}")
    order = v.order[:pos] + ((eid, START),) + v.order[pos:]
    verts = [VertexRecord(v.id, BoundaryType.COUPLED, order)]
    verts += [w for w in g.vertices if w.id != v.id]
    verts.append(VertexRecord(tid, BoundaryType.NEUMANN, ((eid, END),)))
    edges = list(g.edges) + [EdgeRecord(eid, v.id, tid, float(op.length))]
    return MetricGraph.create(verts, edges)


def _apply_extend(g: MetricGraph, op: ExtendEdge) -> MetricGraph:
    if op.edge not in g.edge_map:
        raise IllegalOp(f"unknown edge {op.edge!r}")
    if not (op.amount > 0.0):
        raise IllegalOp("extension must be positive")
    edges = [EdgeRecord(e.id, e.src, e.dst,
                        e.length + op.amount if e.id == op.edge else e.length)
             for e in g.edges]
    return MetricGraph.create(g.vertices, edges)


_DISPATCH = {
    Transplant: _apply_transplant,
    Merge: _apply_merge,
    Split: _apply_split,
    AttachEdge: _apply_attach,
    ExtendEdge: _apply_extend,
}


def apply_surgery(g: MetricGraph, op: SurgeryOp) -> MetricGraph:
    """Apply one op, returning a fresh validated graph."""
    try:
        fn = _DISPATCH[type(op)]
    except KeyError:
        raise IllegalOp(f"unknown op type {type(op).__name__}") from None
    return fn(g, op)


# -- figure-8 reduction -------------------------------------------------------

def _euler_circuit(g: MetricGraph, start: str) -> list:
    """Closed Eulerian circuit as [(edge_id, enter_end), ...] (Hierholzer).

    Requires every degree even and the graph connected. Each entry records the
    endpoint through which the circuit enters the edge; it exits at the other.
    """
    incid = {v.id: [] for v in g.vertices}
    for e in g.edges:
        incid[e.src].append((e.id, START))
        incid[e.dst].append((e.id, END))  # loops contribute both slots
    used = set()
    vertex_stack = [start]
    arrival = []  # arrival[i] = edge ref consumed to reach vertex_stack[i+1]
    circuit = []
    while vertex_stack:
        v = vertex_stack[-1]
        nxt = next(((eid, here) for eid, here in incid[v] if eid not in used), None)
        if nxt is None:
            vertex_stack.pop()
            if arrival:
                circuit.append(arrival.pop())
        else:
            eid, here = nxt
            used.add(eid)
            other = END if here == START else START
            vertex_stack.append(g.vertex_of_endpoint[(eid, other)])
            arrival.append((eid, here))
    circuit.reverse()
    if len(circuit) != len(g.edges):
        raise NotReducible("no Eulerian circuit (graph disconnected?)")
    return circuit


def _circuit_visits(g: MetricGraph, circuit: list) -> dict:
    """Pair up arrival/departure endpoints per vertex along a closed circuit.

    Returns {vertex_id: [(slot_in, slot_out), ...]}; every endpoint of the
    graph appears in exactly one visit.
    """
    visits = {v.id: [] for v in g.vertices}
    n = len(circuit)
    for i in range(n):
        eid, enter = circuit[i]
        exit_end = END if enter == START else START
        nid, nenter = circuit[(i + 1) % n]
        v_here = g.vertex_of_endpoint[(eid, exit_end)]
        assert v_here == g.vertex_of_endpoint[(nid, nenter)]
        visits[v_here].append(((eid, exit_end), (nid, nenter)))
    return visits


def reduce_to_figure8(g: MetricGraph) -> list:
    """Monotone surgery chain from g down to a figure-8 shape.

    Merges pairs of odd-degree vertices until all degrees are even, then
    splits every multiple visit of an Eulerian circuit into its own degree-2
    joint, keeping one degree-4 vertex. Returns [(op, graph_after), ...];
    suppressing the degree-2 joints of the final graph gives a figure-8 with
    the same total length.
    """
    if any(v.bc is BoundaryType.DIRICHLET for v in g.vertices):
        raise IllegalOp("reduction defined only for coupled/neumann vertices")
    if not g.is_connected():
        raise NotReducible("graph must be connected")
    if max(v.degree for v in g.vertices) <= 2:
        raise NotReducible("path and cycle graphs have no branch vertex")

    steps = []
    cur = g
    while True:
        odd = sorted(v.id for v in cur.vertices if v.degree % 2 == 1)
        if not odd:
            break
        op = Merge(odd[0], odd[1])
        cur = apply_surgery(cur, op)
        steps.append((op, cur))

    hub = max(cur.vertices, key=lambda v: (v.degree, v.id)).id
    circuit = _euler_circuit(cur, hub)
    visits = _circuit_visits(cur, circuit)

    for vid in sorted(visits):
        pairs = visits[vid]
        keep = 2 if vid == hub else 1  # hub keeps two visits (degree 4)
        holder = vid
        while len(pairs) > keep:
            chip, *pairs = pairs
            op = Split(holder, tuple(chip), tuple(
                ref for p in pairs for ref in p))
            cur = apply_surgery(cur, op)
            steps.append((op, cur))
            holder = f"({holder}:b)"
    return steps
