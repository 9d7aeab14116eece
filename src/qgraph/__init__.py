"""Spectral toolkit for metric graphs with a cyclic, orientation-sensitive
vertex coupling: graph model, secular solver, quadratic form, FEM cross-check,
surgery operations and theorem-verification experiments."""

from .graph import (BoundaryType, EdgeRecord, MetricGraph, VertexRecord,
                    Violation, diameter, load_graph, make_cycle, make_figure8,
                    make_path, make_star, rotation_genus, save_graph)
from .surgery import (AttachEdge, ExtendEdge, Merge, Split, SurgeryOp,
                      Transplant, apply_surgery, reduce_to_figure8)
from .secular import (build_secular_matrix, interval_dtn,
                      reduced_negative_kappas, star_secular_reduced)
from .solve import (Eigenfunction, EigRecord, Spectrum, count_negative,
                    default_negative_floor, eigenfunction_at, find_spectrum,
                    first_eigenvalues)
from .quadform import (TrialFunction, form_value, rayleigh_quotient,
                       trial_norm_sq)
from .fem import oracle_eigenvalues
from .experiments import (Report, SUITES, sample_graph,
                          sweep_lambda1_vs_length, write_report)

__all__ = [
    "BoundaryType", "EdgeRecord", "MetricGraph", "VertexRecord", "Violation",
    "diameter", "load_graph", "make_cycle", "make_figure8", "make_path",
    "make_star", "rotation_genus", "save_graph",
    "AttachEdge", "ExtendEdge", "Merge", "Split", "SurgeryOp", "Transplant",
    "apply_surgery", "reduce_to_figure8",
    "build_secular_matrix", "interval_dtn", "reduced_negative_kappas",
    "star_secular_reduced",
    "Eigenfunction", "EigRecord", "Spectrum", "count_negative",
    "default_negative_floor", "eigenfunction_at", "find_spectrum",
    "first_eigenvalues",
    "TrialFunction", "form_value", "rayleigh_quotient", "trial_norm_sq",
    "oracle_eigenvalues",
    "Report", "SUITES", "sample_graph", "sweep_lambda1_vs_length",
    "write_report",
]

__version__ = "0.1.0"
