"""Reference code shared by the tests, kept out of the package because no
run path reads it."""

import numpy as np

from qgraph.graph import END, START


def trace_vectors(f):
    """(F, F') of an eigenfunction f over its graph's global slots: its
    traces and inward derivatives."""
    g = f.graph
    m = 2 * g.num_edges
    tr = np.zeros(m, dtype=complex)
    dv = np.zeros(m, dtype=complex)
    for e in g.edges:
        i = g.slot_index[(e.id, START)]
        j = g.slot_index[(e.id, END)]
        tr[i] = f.value(e.id, 0.0)
        tr[j] = f.value(e.id, e.length)
        dv[i] = f.derivative(e.id, 0.0)
        dv[j] = -f.derivative(e.id, e.length)
    return tr, dv
