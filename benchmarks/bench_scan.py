"""Benchmark the sigma scan: the per-point loop kernel vs pure-numpy batched SVD.

Usage: python benchmarks/bench_scan.py [--points N] [--repeats R]

Prints one row per graph with the best wall time of each path and the
speedup. The two paths are the ones `qgraph.kernels.scan_sigma` switches
between via QGRAPH_NO_NUMBA; they must agree to rounding, which is asserted
here on every run. The loop kernel is numba-compiled only when numba is
importable; otherwise it runs interpreted, and its column says so.
"""

import argparse
import time

import numpy as np

from qgraph.graph import make_cycle, make_figure8, make_star
from qgraph.kernels import (
    HAS_NUMBA,
    prepare_structure,
    scan_sigma_jit,
    scan_sigma_numpy,
)

GRAPHS = [
    ("star3", make_star([1.0, 0.7, 1.3])),
    ("star6", make_star([1.0] * 6)),
    ("figure8", make_figure8(0.7, 1.3)),
    ("cycle4", make_cycle([0.4, 0.6, 0.3, 0.7])),
]


def best_time(fn, repeats):
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return min(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=20000,
                    help="grid points per branch (default 20000)")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    lams = np.concatenate([np.linspace(-40.0, -1e-3, args.points),
                           np.linspace(1e-3, 120.0, args.points)])
    loop = "jit" if HAS_NUMBA else "loop (numba absent)"
    print(f"numba available: {HAS_NUMBA}; grid = {lams.size} points")
    print(f"{'graph':<10} {loop + ' [s]':>25} {'numpy [s]':>10} {'speedup':>8}")
    for name, g in GRAPHS:
        struct = prepare_structure(g)
        scan_sigma_jit(lams[:16], *struct)  # compile outside the timer
        mn_j, mx_j = scan_sigma_jit(lams, *struct)
        mn_n, mx_n = scan_sigma_numpy(lams, *struct)
        err = max(np.max(np.abs(mn_j - mn_n)), np.max(np.abs(mx_j - mx_n)))
        assert err < 1e-10, f"paths disagree on {name}: {err:.3e}"
        t_jit = best_time(lambda: scan_sigma_jit(lams, *struct), args.repeats)
        t_np = best_time(lambda: scan_sigma_numpy(lams, *struct), args.repeats)
        print(f"{name:<10} {t_jit:>25.4f} {t_np:>10.4f} {t_np / t_jit:>7.2f}x")


if __name__ == "__main__":
    main()
