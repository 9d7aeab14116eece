"""Host speed probe: scales measured times to one reference speed.

The host this benchmark runs on shares its cores with other machines. The
same op, on the same input, takes from 1x to 2x its fastest time, in phases
that last from a second to tens of seconds, and a whole run of 30 s can sit
mostly in slow phases. A run-level median or mean of raw wall times then
spreads by 0.2-0.3 of itself from run to run, whatever the program does.

A probe is a fixed piece of work that shares no code with qgraph and mixes
what the ops spend their time on: a batched SVD of small complex matrices
(as `scan_sigma`), small per-call numpy products (as one-point refinement)
and an interpreted float loop. It takes about 10 ms. The runner probes once
before the first op and once after every op, and scales the op's wall and
CPU times by REF_S over the mean of the two probes around it, so an op run in
a slow phase reads about what it would in a fast one. A change to qgraph
moves the op times and not the probes, so it shows in full.

REF_S is the probe time in a fast phase of the 2-CPU host the benchmark was
tuned on; only ratios between commits on one host mean anything.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.007         # seconds of one probe at the reference speed
PROBE_SVDS = 400      # 8x8 complex matrices per batched SVD
PROBE_PRODUCTS = 100  # single 8x8 products, one numpy call each
PROBE_LOOP = 40000    # iterations of the interpreted loop


class Probe:
    """A callable that runs the fixed probe work and returns its wall time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        shape = (PROBE_SVDS, 8, 8)
        self.batch = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def __call__(self) -> float:
        start = time.perf_counter()
        np.linalg.svd(self.batch, compute_uv=False)
        for a in self.batch[:PROBE_PRODUCTS]:
            np.abs(a @ a).sum()
        acc = 0.0
        for i in range(PROBE_LOOP):
            acc += i * 0.5
        return time.perf_counter() - start

    @staticmethod
    def scale(probe_s: float) -> float:
        """Factor that takes a time measured next to a probe of `probe_s`
        seconds to the reference speed."""
        return REF_S / probe_s
