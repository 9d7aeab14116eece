"""Metric graph data model.

A graph is a set of edges, each identified with an interval [0, length], and a
set of vertices. Every edge endpoint ("start" = x=0, "end" = x=length) belongs
to exactly one vertex, and each vertex stores an explicit, ordered list of the
endpoints it owns. That order matters: the coupled vertex condition is cyclic
in the endpoint enumeration. Loops are allowed (both endpoints at one vertex)
and appear twice in the order list.
"""

from __future__ import annotations

import heapq
import json
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import Disconnected, InvalidGraph

START = "start"
END = "end"


class BoundaryType(str, Enum):
    """Vertex condition family attached to a vertex."""

    COUPLED = "coupled"
    NEUMANN = "neumann"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class EdgeRecord:
    """Edge identified with [0, length]; src owns the start, dst the end."""

    id: str
    src: str
    dst: str
    length: float


@dataclass(frozen=True)
class VertexRecord:
    """Vertex with its boundary type and ordered endpoint list."""

    id: str
    bc: BoundaryType
    order: tuple  # of (edge_id, START|END) pairs

    @property
    def degree(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class Violation:
    """One validation failure, naming the offending entity."""

    code: str
    entity: str
    message: str

    def __str__(self):
        return f"{self.code}({self.entity}): {self.message}"


@dataclass(frozen=True)
class MetricGraph:
    """Immutable metric graph. Build via MetricGraph.create or the factories."""

    vertices: tuple
    edges: tuple

    @staticmethod
    def create(vertices: Iterable[VertexRecord], edges: Iterable[EdgeRecord],
               check: bool = True) -> "MetricGraph":
        """Normalize and (optionally) validate a graph.

        Degree-1 vertices marked COUPLED are rewritten to NEUMANN: the cyclic
        coupled condition at a single endpoint reduces to F' = 0.
        """
        vs = []
        for v in vertices:
            bc = BoundaryType(v.bc)
            if bc is BoundaryType.COUPLED and len(v.order) == 1:
                warnings.warn(
                    f"vertex {v.id!r}: coupled condition at degree 1 reduces to Neumann",
                    stacklevel=2,
                )
                bc = BoundaryType.NEUMANN
            vs.append(VertexRecord(v.id, bc, tuple((e, w) for e, w in v.order)))
        g = MetricGraph(tuple(vs), tuple(edges))
        if check:
            bad = g.validate()
            if bad:
                raise InvalidGraph("; ".join(str(b) for b in bad))
        return g

    # -- indexed views -------------------------------------------------------

    @cached_property
    def vertex_map(self) -> dict:
        return {v.id: v for v in self.vertices}

    @cached_property
    def edge_map(self) -> dict:
        return {e.id: e for e in self.edges}

    @cached_property
    def vertex_of_endpoint(self) -> dict:
        """(edge_id, start|end) -> vertex id owning that endpoint."""
        owner = {}
        for v in self.vertices:
            for ref in v.order:
                owner[ref] = v.id
        return owner

    @cached_property
    def sorted_vertices(self) -> tuple:
        """Vertices in sorted id order; fixes the global endpoint enumeration."""
        return tuple(sorted(self.vertices, key=lambda v: v.id))

    @cached_property
    def slot_index(self) -> dict:
        """(edge_id, start|end) -> global slot in vertex-major order."""
        idx = {}
        for v in self.sorted_vertices:
            for ref in v.order:
                idx[ref] = len(idx)
        return idx

    @cached_property
    def edge_index(self) -> dict:
        return {e.id: i for i, e in enumerate(self.edges)}

    def degree(self, vertex_id: str) -> int:
        return self.vertex_map[vertex_id].degree

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def total_length(self) -> float:
        return float(sum(e.length for e in self.edges))

    # -- validation ----------------------------------------------------------

    def validate(self) -> list:
        """Return all structural violations (empty list means valid)."""
        out = []
        if not self.edges:
            out.append(Violation("NoEdges", "-", "graph has no edges"))
        seen_v = set()
        for v in self.vertices:
            if v.id in seen_v:
                out.append(Violation("DuplicateId", v.id, "vertex id repeated"))
            seen_v.add(v.id)
        seen_e = set()
        for e in self.edges:
            if e.id in seen_e:
                out.append(Violation("DuplicateId", e.id, "edge id repeated"))
            seen_e.add(e.id)
            if not (e.length > 0.0):
                out.append(Violation("NonpositiveLength", e.id,
                                     f"length {e.length!r} must be > 0"))
            for vid in (e.src, e.dst):
                if vid not in seen_v:
                    out.append(Violation("UnknownVertex", e.id,
                                         f"edge references missing vertex {vid!r}"))
        # every endpoint claimed exactly once, by the vertex the edge names
        claims = {}
        for v in self.vertices:
            for ref in v.order:
                claims.setdefault(ref, []).append(v.id)
        for e in self.edges:
            if e.id not in seen_e:
                continue
            for which, owner in ((START, e.src), (END, e.dst)):
                got = claims.pop((e.id, which), [])
                if len(got) != 1:
                    out.append(Violation("BadEnumeration", e.id,
                                         f"endpoint {which} claimed by {got!r}"))
                elif got[0] != owner:
                    out.append(Violation("BadEnumeration", e.id,
                                         f"endpoint {which} listed under {got[0]!r}, "
                                         f"edge names {owner!r}"))
        for ref, owners in claims.items():
            out.append(Violation("BadEnumeration", str(ref),
                                 f"order entry references unknown endpoint (owners {owners!r})"))
        for v in self.vertices:
            if v.bc is BoundaryType.DIRICHLET and v.degree != 1:
                out.append(Violation("BadBoundaryType", v.id,
                                     "dirichlet condition only defined at degree 1"))
            if v.degree == 0:
                out.append(Violation("IsolatedVertex", v.id, "vertex has no endpoints"))
        return out

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        adj = {v.id: set() for v in self.vertices}
        for e in self.edges:
            adj[e.src].add(e.dst)
            adj[e.dst].add(e.src)
        seen = {self.vertices[0].id}
        todo = [self.vertices[0].id]
        while todo:
            for w in adj[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == len(self.vertices)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"id": v.id, "bc": v.bc.value, "order": [[e, w] for e, w in v.order]}
                for v in self.vertices
            ],
            "edges": [
                {"id": e.id, "from": e.src, "to": e.dst, "length": e.length}
                for e in self.edges
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json_dict(doc: dict) -> "MetricGraph":
        try:
            vs = [VertexRecord(str(v["id"]), BoundaryType(v["bc"]),
                               tuple((str(e), str(w)) for e, w in v["order"]))
                  for v in doc["vertices"]]
            es = [EdgeRecord(str(e["id"]), str(e["from"]), str(e["to"]),
                             float(e["length"]))
                  for e in doc["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidGraph(f"malformed graph document: {exc}") from exc
        return MetricGraph.create(vs, es)

    @staticmethod
    def from_json(text: str) -> "MetricGraph":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidGraph(f"not valid JSON: {exc}") from exc
        return MetricGraph.from_json_dict(doc)


def save_graph(g: MetricGraph, path: Union[str, Path]) -> None:
    Path(path).write_text(g.to_json() + "\n")


def load_graph(path: Union[str, Path]) -> MetricGraph:
    return MetricGraph.from_json(Path(path).read_text())


# -- factories ---------------------------------------------------------------

def make_star(lengths: Sequence[float], tip_bc: BoundaryType = BoundaryType.NEUMANN,
              center_bc: BoundaryType = BoundaryType.COUPLED) -> MetricGraph:
    """Star with edges e1..eN from center v0 to tips v1..vN."""
    n = len(lengths)
    if n < 1:
        raise InvalidGraph("star needs at least one edge")
    edges = [EdgeRecord(f"e{j + 1}", "v0", f"v{j + 1}", float(lengths[j]))
             for j in range(n)]
    center = VertexRecord("v0", center_bc, tuple((e.id, START) for e in edges))
    tips = [VertexRecord(f"v{j + 1}", tip_bc, ((f"e{j + 1}", END),)) for j in range(n)]
    return MetricGraph.create([center] + tips, edges)


def make_figure8(l1: float, l2: float) -> MetricGraph:
    """Two loops of lengths l1, l2 at a single coupled vertex.

    Endpoint order: e1 start, e1 end, e2 start, e2 end.
    """
    edges = [EdgeRecord("e1", "v0", "v0", float(l1)),
             EdgeRecord("e2", "v0", "v0", float(l2))]
    v0 = VertexRecord("v0", BoundaryType.COUPLED,
                      (("e1", START), ("e1", END), ("e2", START), ("e2", END)))
    return MetricGraph.create([v0], edges)


def make_path(lengths: Sequence[float],
              tip_bc: BoundaryType = BoundaryType.NEUMANN) -> MetricGraph:
    """Path graph v0 - v1 - ... - vN with coupled interior vertices."""
    n = len(lengths)
    edges = [EdgeRecord(f"e{j + 1}", f"v{j}", f"v{j + 1}", float(lengths[j]))
             for j in range(n)]
    verts = [VertexRecord("v0", tip_bc, (("e1", START),))]
    for j in range(1, n):
        verts.append(VertexRecord(f"v{j}", BoundaryType.COUPLED,
                                  ((f"e{j}", END), (f"e{j + 1}", START))))
    verts.append(VertexRecord(f"v{n}", tip_bc, ((f"e{n}", END),)))
    return MetricGraph.create(verts, edges)


def make_cycle(lengths: Sequence[float]) -> MetricGraph:
    """Cycle v0 - v1 - ... - v0 with coupled vertices everywhere."""
    n = len(lengths)
    if n < 1:
        raise InvalidGraph("cycle needs at least one edge")
    if n == 1:
        edges = [EdgeRecord("e1", "v0", "v0", float(lengths[0]))]
        v0 = VertexRecord("v0", BoundaryType.COUPLED, (("e1", START), ("e1", END)))
        return MetricGraph.create([v0], edges)
    edges = [EdgeRecord(f"e{j + 1}", f"v{j}", f"v{(j + 1) % n}", float(lengths[j]))
             for j in range(n)]
    verts = []
    for j in range(n):
        prev = f"e{j}" if j > 0 else f"e{n}"
        verts.append(VertexRecord(f"v{j}", BoundaryType.COUPLED,
                                  ((prev, END), (f"e{j + 1}", START))))
    return MetricGraph.create(verts, edges)


# -- metrics -----------------------------------------------------------------

def _vertex_distances(g: MetricGraph) -> dict:
    """All-pairs shortest path distances between vertices (Dijkstra per source)."""
    adj = {v.id: [] for v in g.vertices}
    for e in g.edges:
        adj[e.src].append((e.dst, e.length))
        adj[e.dst].append((e.src, e.length))
    dist = {}
    for src in g.vertices:
        d = {v.id: float("inf") for v in g.vertices}
        d[src.id] = 0.0
        heap = [(0.0, src.id)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > d[u]:
                continue
            for w, lw in adj[u]:
                nd = du + lw
                if nd < d[w]:
                    d[w] = nd
                    heapq.heappush(heap, (nd, w))
        dist[src.id] = d
    return dist


def _max_min_affine(rows, box, same_edge=False):
    """Max of min_i c_i + a_i t + b_i s over 0 <= t <= box[0], 0 <= s <= box[1],
    and s <= t if same_edge; rows are the (c_i, a_i, b_i). Exact, no LP.

    A concave piecewise-affine function on a polygon takes its max at a
    vertex of its pieces' cells, where two of these lines meet: the box
    sides, s = t on one edge, and c_i + a_i t + b_i s = c_j + a_j t + b_j s.
    Every such meeting point, moved into the polygon, is a candidate, so the
    max over them is exact up to rounding.
    """
    c, a, b = np.asarray(rows, dtype=float).T
    i, j = np.triu_indices(c.size, 1)
    sides = [(1.0, 0.0, 0.0), (1.0, 0.0, box[0]), (0.0, 1.0, 0.0),
             (0.0, 1.0, box[1])]
    if same_edge:
        sides.append((1.0, -1.0, 0.0))
    # the lines alpha t + beta s = gamma, and where each two of them meet
    alpha, beta, gamma = np.concatenate(
        (np.column_stack((a[i] - a[j], b[i] - b[j], c[j] - c[i])), sides)).T
    p, q = np.triu_indices(alpha.size, 1)
    det = alpha[p] * beta[q] - alpha[q] * beta[p]
    p, q, det = p[det != 0.0], q[det != 0.0], det[det != 0.0]
    t = np.clip((gamma[p] * beta[q] - gamma[q] * beta[p]) / det, 0.0, box[0])
    s = np.clip((alpha[p] * gamma[q] - alpha[q] * gamma[p]) / det, 0.0, box[1])
    if same_edge:
        s = np.minimum(s, t)
    value = c[:, None] + a[:, None] * t + b[:, None] * s
    return float(value.min(axis=0).max())


def diameter(g: MetricGraph) -> float:
    """Metric diameter: max distance over all points, interior points included."""
    if not g.is_connected():
        raise Disconnected("diameter undefined for disconnected graph")
    dv = _vertex_distances(g)
    best = 0.0
    for i, e in enumerate(g.edges):
        a, b = e.src, e.dst
        # both points on e, at s <= t from its start
        rows = [(0.0, 1.0, -1.0),
                (dv[a][b] + e.length, -1.0, 1.0)]
        best = max(best, _max_min_affine(rows, (e.length, e.length),
                                         same_edge=True))
        for f in g.edges[i + 1:]:
            c, d = f.src, f.dst
            rows = [(dv[a][c], 1.0, 1.0),
                    (dv[a][d] + f.length, 1.0, -1.0),
                    (dv[b][c] + e.length, -1.0, 1.0),
                    (dv[b][d] + e.length + f.length, -1.0, -1.0)]
            best = max(best, _max_min_affine(rows, (e.length, f.length)))
    return best


def rotation_genus(g: MetricGraph) -> int:
    """Genus of the ribbon graph defined by the per-vertex endpoint orders.

    The cyclic vertex coupling makes the endpoint order part of the operator
    data: the spectrum is invariant under rotations of any one order and under
    reversing all of them at once, but not under arbitrary reshuffles once the
    graph has cycles. Zero means the orders describe a planar embedding, which
    is the regime the sharp figure-8 results live in.
    """
    if not g.is_connected():
        raise Disconnected("rotation genus undefined for disconnected graph")
    succ = {}
    for v in g.vertices:
        for j, ref in enumerate(v.order):
            succ[ref] = v.order[(j + 1) % v.degree]
    seen = set()
    faces = 0
    for dart in succ:
        if dart in seen:
            continue
        faces += 1
        cur = dart
        while cur not in seen:
            seen.add(cur)
            eid, which = cur
            cur = succ[(eid, END if which == START else START)]
    return (2 - len(g.vertices) + g.num_edges - faces) // 2


def graph_metrics(g: MetricGraph) -> dict:
    """Total length, metric diameter, mean edge length and rotation genus."""
    return {
        "total_length": g.total_length,
        "diameter": diameter(g),
        "mean_edge_length": g.total_length / g.num_edges,
        "rotation_genus": rotation_genus(g),
    }
