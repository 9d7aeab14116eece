"""qgraph benchmark: one workload as a closed loop with a single client.

Usage, from the repository root:

    python3 qgbench/run.py --workload scan|suites|crosscheck --seed N
                           --seconds S --trace 0|1

One op runs at a time and the next starts when it returns. A run measures
a fixed number of whole cycles of the workload's input slots: as many as
fill S seconds at the workload's planned cycle time. The count depends on S
alone, not on how fast the program runs, so every commit is measured on the
same ops. Op inputs come from --seed only. Every output is checked against
an independent reference after the timed loop.

Times are reported at one reference host speed: a short probe that shares
no code with qgraph runs before the first op and after each op, and each
op's wall and CPU times are scaled by speed.REF_S over the mean of the two
probes around it (see speed.py). Set-up times are scaled by a probe taken
right after them. The raw times are printed and kept in the result file.

--trace 0 prints the end-to-end metrics. --trace 1 ignores S: it runs a
fixed number of ops untraced, then the same ops again with every layer
wrapped (see spans.py), and prints the per-layer metrics plus the tracing
overhead. A fixed op list makes the per-layer counts repeat exactly for a
seed.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Each earlier line names one metric with its unit, or the
environment. A fuller record (environment, every op, self time per layer)
goes to .bench_build/qgbench/. The program is imported from src/ of the
checkout; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "qgbench"
SETUP_PROBES = 2          # extra set-up runs in fresh processes per run
MAX_THREADS = 2           # QGRAPH_THREADS pool workers; BLAS runs 1 thread each
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10          # ops above the reported tail percentile


def metric_units() -> tuple:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists
    them; the run reports exactly these."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def tail(values) -> tuple:
    """(value, percentile) of the highest nearest-rank percentile that has at
    least TAIL_BEYOND samples above it.

    With n samples that is rank n - TAIL_BEYOND, the percentile
    100 (n - TAIL_BEYOND) / n. With n <= TAIL_BEYOND no percentile qualifies
    and the median is returned with percentile 50.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return statistics.median(xs), 50.0
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n


def op_count(wl, seconds: float) -> int:
    """Ops of a timed run: the whole cycles of the workload's slots that fill
    `seconds` at its planned cycle time, at least one. The count depends on
    `seconds` alone, never on how fast the program runs, so every commit is
    measured on the same ops and op_tail_s on the same rank."""
    return len(wl.slots) * max(1, round(seconds / wl.planned_cycle_s))


def configure_threads() -> dict:
    """Pin the thread budget before numpy loads: pool workers times BLAS
    threads stays within the CPUs this process may use."""
    cpus = len(os.sched_getaffinity(0))
    os.environ["QGRAPH_THREADS"] = str(max(1, min(MAX_THREADS, cpus)))
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return {"QGRAPH_THREADS": os.environ["QGRAPH_THREADS"],
            "blas_threads": os.environ[BLAS_VARS[0]]}


def git_commit() -> str:
    """HEAD of the checkout's own .git, read directly so that nothing outside
    the checkout is read; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: dict) -> dict:
    import importlib.util
    import platform

    import numpy
    import scipy
    from qgraph import kernels

    return {
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "scan_path": f"{kernels.scan_sigma.__module__}."
                     f"{kernels.scan_sigma.__qualname__}",
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **threads,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def reset_caches() -> None:
    """Empty every functools cache in qgraph so each phase starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "qgraph" or name.startswith("qgraph."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def setup_probe(args) -> dict:
    """Set-up time of one fresh interpreter running this run's set-up, scaled
    and raw."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: float(doc[k]) for k in ("setup_s", "setup_raw_s")}


@dataclass
class OpRecord:
    index: int
    spec: dict
    out: object        # the op's return value, None if it raised
    wall: float        # seconds
    cpu: float         # process CPU seconds, all threads
    error: str | None
    probe: float       # mean of the speed probes before and after the op
    scale: float       # factor to the reference speed, from `probe`


def run_ops(wl, deck, count, probe, *, fresh=False, tracer=None):
    """Closed loop over ops 0 .. count-1, one at a time, with a speed probe
    before the first op and after each."""
    records = []
    before = probe()
    for i in range(count):
        spec = deck.get(i, fresh=fresh)
        start, cpu = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                out = wl.op(spec)
            else:
                out = tracer.op(i, wl.op, spec)
            err = None
        except Exception as exc:  # an op that raises is a failed op
            out, err = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        after = probe()
        mean = (before + after) / 2
        records.append(OpRecord(i, spec, out, wall, cpu, err, mean,
                                probe.scale(mean)))
        before = after
    return records


_CHECKED = None  # (workload, records) the forked check processes read


def _check_one(i: int) -> tuple:
    wl, records = _CHECKED
    r = records[i]
    if r.error is not None:
        return False, r.error, False
    try:
        return wl.check(r.spec, r.out)
    except Exception as exc:  # a reference that raises fails the op
        return False, f"check raised {type(exc).__name__}: {exc}", False


def check_ops(wl, records, workers: int) -> list:
    """(ok, reason, known) per op, in order.

    The references cost about as much as a third of the ops themselves, so
    they run after the timed loop in `workers` forked processes, which read
    the outputs from memory and return only the verdicts."""
    global _CHECKED
    _CHECKED = (wl, records)
    try:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            out = pool.map(_check_one, range(len(records)), chunksize=1)
            pool.close()
            pool.join()
    finally:
        _CHECKED = None
    return out


def timings(times, cpus, eigs, setup_s) -> dict:
    """The timed end-to-end metrics of one run's op wall and CPU times."""
    busy = sum(times)
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times)[0],
        "ops_per_s": len(times) / busy,
        "eigs_per_s": eigs / busy,
        "cpu_per_op_s": sum(cpus) / len(cpus),
    }


def end_to_end(wl, records, setups) -> tuple:
    """(metrics at the reference speed, extra record with the raw ones).
    `setups` holds the set-up samples, each scaled and raw."""
    eigs = sum(wl.eigs(r.out) for r in records if r.error is None)
    values = timings([r.wall * r.scale for r in records],
                     [r.cpu * r.scale for r in records], eigs,
                     statistics.median(s["setup_s"] for s in setups))
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024)
    raw = timings([r.wall for r in records], [r.cpu for r in records], eigs,
                  statistics.median(s["setup_raw_s"] for s in setups))
    info = {"op_count": len(records),
            "op_tail_percentile": tail([r.wall for r in records])[1],
            "eigenvalues": eigs, "raw": raw,
            "probe_median_s": statistics.median(r.probe for r in records)}
    return values, info


def per_layer(wl, tracer, plain, traced, cache_delta, failed, attempted):
    from qgbench import spans
    from qgbench.workloads import suites_cases

    values = spans.layer_metrics(tracer.spans)
    counts: dict = {}
    if wl.name == "suites":
        for r in traced:
            if r.error is None:
                for k, v in suites_cases(r.out).items():
                    counts[k] = counts.get(k, 0) + v
    hits, misses = cache_delta
    plain_wall = sum(r.wall * r.scale for r in plain)
    traced_wall = sum(r.wall * r.scale for r in traced)
    values.update({
        "kernels.structure_cache_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "experiments.cases": sum(counts.values()),
        "experiments.case_pass": counts.get("pass", 0),
        "experiments.case_fail": counts.get("fail", 0),
        "experiments.case_inconclusive": counts.get("inconclusive", 0),
        "fail_frac": failed / attempted,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
        "trace.op_wall_s": sum(s.duration for s in tracer.spans
                               if s.name == "op"),
        "trace.self_sum_s": sum(spans.self_times(tracer.spans).values()),
        "trace.parallel_overlap_s": spans.overlap_excess(tracer.spans),
    })
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("scan", "suites", "crosscheck"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print the set-up time as JSON and exit")
    args = ap.parse_args(argv)

    threads = configure_threads()
    e2e_units, layer_units = metric_units()
    if not (SRC / "qgraph" / "__init__.py").is_file():
        print(f"error: no qgraph source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import qgraph
    if Path(qgraph.__file__).resolve().parent != SRC / "qgraph":
        print(f"error: imported qgraph from {qgraph.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from qgbench import spans, speed, workloads
    from qgraph import kernels
    probe = speed.Probe()

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.get(args.workload, str(workdir))
        count = (op_count(wl, args.seconds) if args.trace == 0
                 else wl.trace_ops)
        deck = workloads.Deck(wl.make, args.seed, count)
        workloads.warm_up()
        own_raw = time.perf_counter() - _START
        own_setup = {"setup_s": own_raw * probe.scale(probe()),
                     "setup_raw_s": own_raw}
        if args.setup_probe:
            print(json.dumps(own_setup))
            return 0

        env = environment(threads)
        print(f"env {json.dumps(env, sort_keys=True)}")
        setups = [own_setup] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        reset_caches()
        if args.trace == 0:
            runs = [run_ops(wl, deck, count, probe)]
        else:
            plain = run_ops(wl, deck, count, probe)
            reset_caches()
            info0 = kernels.prepare_structure.cache_info()
            tracer = spans.Tracer(workers=int(threads["QGRAPH_THREADS"]))
            with tracer:
                traced = run_ops(wl, deck, count, probe, fresh=True,
                                 tracer=tracer)
            info1 = kernels.prepare_structure.cache_info()
            runs = [plain, traced]
        checks = check_ops(wl, [r for recs in runs for r in recs],
                           int(threads["QGRAPH_THREADS"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(checks)
    failed = sum(not ok for ok, _, _ in checks)
    correct = all(ok or known for ok, _, known in checks)
    for ok, reason, known in checks:
        if not ok:
            tag = "known defect" if known else "FAILED"
            print(f"check {tag}: {reason}")

    if args.trace == 0:
        values, info = end_to_end(wl, runs[0], setups)
        units = e2e_units
        extra = {"setup_samples": setups, **info}
        print(f"ops {info['op_count']}, op_tail_s is "
              f"p{info['op_tail_percentile']:.1f} of them, "
              f"{info['eigenvalues']} eigenvalues, "
              f"fail_frac {failed / attempted:.4g} ({failed}/{attempted})")
        print(f"median probe {info['probe_median_s']:.6f} s against "
              f"REF_S {speed.REF_S} s; raw, unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in info["raw"].items()))
    else:
        delta = (info1.hits - info0.hits, info1.misses - info0.misses)
        values = per_layer(wl, tracer, plain, traced, delta, failed, attempted)
        units = layer_units
        by_name = spans.self_by_name(tracer.spans)
        extra = {"self_s_by_span": by_name, "op_count": len(plain),
                 "missing_targets": tracer.missing}
        for name, t in sorted(by_name.items(), key=lambda kv: -kv[1]):
            print(f"self {name} = {t:.6f} s")
        residual = (values["trace.self_sum_s"] - values["trace.parallel_overlap_s"]
                    - values["trace.op_wall_s"])
        print(f"self times sum to op wall + parallel overlap "
              f"(residual {residual:.3e} s)")
        if tracer.missing:
            print(f"untraced, name not found: {', '.join(tracer.missing)}")
    for name, unit in units.items():
        print(f"metric {name} = {values[name]!r} {unit}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in units.items()}}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              **extra,
              "ops": [{"index": r.index, "kind": r.spec["kind"],
                       "wall_s": r.wall, "cpu_s": r.cpu, "probe_s": r.probe}
                      for recs in runs for r in recs],
              "checks": [{"ok": ok, "reason": reason, "known": known}
                         for ok, reason, known in checks]}
    path = OUT_DIR / (f"result-{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
