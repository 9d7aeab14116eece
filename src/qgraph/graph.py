"""Metric graph data model.

A graph is a set of edges, each identified with an interval [0, length], and a
set of vertices. Every edge endpoint ("start" = x=0, "end" = x=length) belongs
to exactly one vertex, and each vertex stores an explicit, ordered list of the
endpoints it owns. That order matters: the coupled vertex condition is cyclic
in the endpoint enumeration. Loops are allowed (both endpoints at one vertex)
and appear twice in the order list.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence, Union

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
    """Immutable metric graph. Build via MetricGraph.create or the factories.

    Its hash is the hash of its field tuple, computed once per instance, so
    the caches keyed on a graph do not rehash its nested tuples. A pickled
    graph is rebuilt from its fields and carries neither its hash nor any
    cached view."""

    vertices: tuple
    edges: tuple

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.vertices, self.edges))

    def __reduce__(self):
        return MetricGraph, (self.vertices, self.edges)

    @staticmethod
    def create(vertices: Iterable[VertexRecord],
               edges: Iterable[EdgeRecord]) -> "MetricGraph":
        """Normalize and validate a graph.

        Degree-1 vertices marked COUPLED are rewritten to NEUMANN: the cyclic
        coupled condition at a single endpoint reduces to F' = 0. So every
        vertex of a created graph is COUPLED of degree >= 2 or a NEUMANN or
        DIRICHLET tip of degree 1, the only kinds `coupling`, `quadform` and
        `fem` build conditions for.
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
    def slot_index(self) -> dict:
        """(edge_id, start|end) -> global slot in vertex-major order, the
        vertices in sorted id order."""
        idx = {}
        for v in sorted(self.vertices, key=lambda v: v.id):
            for ref in v.order:
                idx[ref] = len(idx)
        return idx

    @cached_property
    def end_slots(self) -> np.ndarray:
        """Every edge's global slots, a read-only (2, E) integer array: the
        start slots in edge order, then the end slots. It is the one
        statement of the edge ends' slots that the solver plans read."""
        slots = np.array([[self.slot_index[(e.id, w)] for e in self.edges]
                          for w in (START, END)], dtype=np.intp)
        slots.flags.writeable = False
        return slots

    @cached_property
    def edge_index(self) -> dict:
        return {e.id: i for i, e in enumerate(self.edges)}

    @cached_property
    def lengths(self) -> np.ndarray:
        """The edge lengths in edge order, a read-only float array."""
        lengths = np.array([e.length for e in self.edges], dtype=float)
        lengths.flags.writeable = False
        return lengths

    @cached_property
    def shape(self) -> "MetricGraph":
        """The graph's shape: its vertices, with their conditions and
        endpoint orders, and its edges' ids and endpoints, as the graph of
        that shape whose every edge has length 1. Graphs that differ only in
        their lengths share it, so a plan that reads no length is built once
        per shape from it, and carries nothing of the graph it was asked for.
        """
        return MetricGraph(self.vertices, tuple(
            EdgeRecord(e.id, e.src, e.dst, 1.0) for e in self.edges))

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
            if not 0.0 < e.length < np.inf:  # NaN fails too
                out.append(Violation("NonpositiveLength", e.id,
                                     f"length {e.length!r} must be finite "
                                     f"and > 0"))
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
            if v.bc is not BoundaryType.COUPLED and v.degree != 1:
                out.append(Violation("BadBoundaryType", v.id,
                                     f"{v.bc.value} condition only defined "
                                     "at degree 1"))
            if v.degree == 0:
                out.append(Violation("IsolatedVertex", v.id, "vertex has no endpoints"))
        return out

    def is_connected(self) -> bool:
        """Whether every vertex reaches every other: no distance of
        `_distances` is infinite. A graph with no vertices is not."""
        return _connected(_distances(self))

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

def make_star(lengths: Sequence[float],
              tip_bc: BoundaryType = BoundaryType.NEUMANN) -> MetricGraph:
    """Star with edges e1..eN from center v0 to tips v1..vN."""
    n = len(lengths)
    if n < 1:
        raise InvalidGraph("star needs at least one edge")
    edges = [EdgeRecord(f"e{j + 1}", "v0", f"v{j + 1}", float(lengths[j]))
             for j in range(n)]
    center = VertexRecord("v0", BoundaryType.COUPLED, tuple((e.id, START) for e in edges))
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
    if n < 1:
        raise InvalidGraph("path needs at least one edge")
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

def _distances(g: MetricGraph) -> np.ndarray:
    """All-pairs shortest path distances between vertices, rows and columns
    in the order of g.vertices: one Floyd-Warshall pass over the matrix of
    the shortest edge joining each pair; inf between components."""
    at = {v.id: k for k, v in enumerate(g.vertices)}
    dist = np.full((len(at), len(at)), np.inf)
    for e in g.edges:
        i, j = at[e.src], at[e.dst]
        dist[i, j] = dist[j, i] = min(dist[i, j], e.length)
    np.fill_diagonal(dist, 0.0)
    for k in range(len(at)):
        np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
    return dist


def _connected(dist) -> bool:
    """`MetricGraph.is_connected`, read off its `_distances` matrix."""
    return dist.size > 0 and bool(np.isfinite(dist).all())


def diameter(g: MetricGraph) -> float:
    """Metric diameter: max distance over all points, interior points included.

    Two points of one edge (a, b) of length l are at most (d(a, b) + l) / 2
    apart. A point t along e = (a, b) lies at phi_c(t) = min(d(a, c) + t,
    d(b, c) + l_e - t) from a vertex c, a tent with its apex inside e. A
    point of f = (c, d) is reached through c or d, and |phi_c - phi_d| <=
    d(c, d) <= l_f, so the farthest point of f from t is at (phi_c(t) +
    phi_d(t) + l_f) / 2; the concave phi_c + phi_d is largest at an end of
    e or at an apex.

    The vertex distances d come from `_distances`, in one all-pairs pass."""
    dist = _distances(g)
    if not _connected(dist):
        raise Disconnected("diameter undefined for disconnected graph")
    at = {v.id: k for k, v in enumerate(g.vertices)}
    src = np.array([at[e.src] for e in g.edges])
    dst = np.array([at[e.dst] for e in g.edges])
    length = g.lengths
    same = (dist[src, dst] + length) / 2
    i, j = np.triu_indices(length.size, 1)
    a, b, le = src[i, None], dst[i, None], length[i, None]
    ends = np.stack((src[j], dst[j]))[:, :, None]  # (2, P, 1): c and d
    apex = (dist[b, ends] + le - dist[a, ends]) / 2
    t = np.concatenate((np.zeros_like(le), le, apex[0], apex[1]), axis=1)
    phi = np.minimum(dist[a, ends] + t, dist[b, ends] + le - t)
    pairs = (phi.sum(axis=0).max(axis=1) + length[j]) / 2
    return float(max(0.0, same.max(), pairs.max(initial=0.0)))


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
