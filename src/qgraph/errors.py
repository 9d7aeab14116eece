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


class DimensionMismatch(QGraphError):
    """Trace vector length does not match vertex degree."""


class DtNSingular(QGraphError):
    """Dirichlet-to-Neumann map undefined: lambda hits an edge Dirichlet eigenvalue."""

    def __init__(self, edge_id, index):
        self.edge_id = edge_id
        self.index = index
        super().__init__(f"DtN map singular on edge {edge_id!r} (sin(k*l) zero, n={index})")


class WindowTooCoarse(QGraphError):
    """The search window cannot answer: the count of negative eigenvalues is
    untrusted, or repeated doubling did not reach the requested eigenvalues."""


class NotAnEigenvalue(QGraphError):
    """Requested eigenfunction at a lambda where the secular matrix has full rank."""


class NotInDomain(QGraphError):
    """Trial function violates a form-domain constraint."""


class MeshTooCoarse(QGraphError):
    """FEM mesh cannot resolve the requested number of eigenvalues."""
