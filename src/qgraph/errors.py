"""Exception types shared across the package."""


class QGraphError(Exception):
    """Base class for all package errors."""


class InvalidGraph(QGraphError):
    """Graph data violates a structural invariant."""


class Disconnected(InvalidGraph):
    """Operation requires a connected graph."""


class IllegalOp(QGraphError):
    """Surgery operation violates its preconditions."""


class NotReducible(QGraphError):
    """Graph cannot be reduced to a figure-8 (path or cycle)."""


class DtNSingular(QGraphError):
    """Dirichlet-to-Neumann map undefined: lambda hits a Dirichlet eigenvalue
    of an interval, an edge or, on the DtN route, a piece of one."""

    def __init__(self, edge_id, index):
        self.edge_id = edge_id
        self.index = index
        super().__init__(f"DtN map singular on edge {edge_id!r} (sin(k*l) zero, n={index})")


class WindowTooCoarse(QGraphError):
    """The search window cannot answer: a count it needs is untrusted or has
    no float to stand at, or the requested eigenvalues were not certified."""


class NotAnEigenvalue(QGraphError):
    """Requested eigenfunction at a lambda where the secular matrix has full rank."""


class NotInDomain(QGraphError):
    """Trial function violates a form-domain constraint."""


class MeshTooCoarse(QGraphError):
    """FEM mesh cannot resolve the requested number of eigenvalues."""
