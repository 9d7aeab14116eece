"""Tests of the benchmark's own logic.

Run from the repository root: python3 -m pytest -q qgbench/tests
"""

import importlib
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from qgbench import run, spans, speed, workloads
from qgbench.spans import Span

ROOT = Path(__file__).resolve().parents[2]


# -- tail percentile -----------------------------------------------------------------

@pytest.mark.parametrize("n", [11, 12, 20, 37, 100])
def test_tail_has_exactly_ten_samples_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]  # distinct, unsorted
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_without_ten_beyond_falls_back_to_median(n):
    values = [float(v) for v in range(n)]
    assert run.tail(values) == (pytest.approx((n - 1) / 2), 50.0)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("seconds", [1.0, 20.0, 60.0])
def test_op_count_is_whole_cycles_fixed_by_seconds(name, seconds, tmp_path):
    wl = workloads.get(name, str(tmp_path))
    count = run.op_count(wl, seconds)
    assert count >= len(wl.slots) and count % len(wl.slots) == 0
    assert run.op_count(wl, 2 * seconds) >= count


# -- speed scaling -------------------------------------------------------------

class _FakeProbe:
    """Probe times read from a list, one per call."""

    scale = staticmethod(speed.Probe.scale)

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_op_times_are_scaled_by_the_probes_around_them(tmp_path):
    wl = workloads.Workload("t", ("a",), lambda seed, i: {"kind": "a"},
                            lambda spec: None, None, lambda out: 3, 1.0, 1)
    deck = workloads.Deck(wl.make, 1, 2)
    recs = run.run_ops(wl, deck, 2, _FakeProbe([0.01, 0.02, 0.005]))
    assert [r.probe for r in recs] == pytest.approx([0.015, 0.0125])
    assert [r.scale for r in recs] == pytest.approx(
        [speed.REF_S / 0.015, speed.REF_S / 0.0125])
    setups = [{"setup_s": s, "setup_raw_s": 2 * s} for s in (1.0, 3.0, 2.0)]
    values, info = run.end_to_end(wl, recs, setups)
    scaled = sum(r.wall * r.scale for r in recs)
    assert values["ops_per_s"] == pytest.approx(2 / scaled)
    assert values["eigs_per_s"] == pytest.approx(6 / scaled)
    assert values["setup_s"] == 2.0
    assert info["raw"]["ops_per_s"] == pytest.approx(2 / sum(r.wall for r in recs))
    assert info["raw"]["setup_s"] == 4.0


# -- eigenvalue counts ---------------------------------------------------------

def test_count_lambdas_counts_eigenvalues_not_margins():
    general_bounds = {"graph": {"edges": [{"length": 1.0}]},
                      "lambdas": [-2.0, -0.5, 1.0, 3.0, 9.0],
                      "margins": {"lambda1<=-1": 1.0, "lambda2<=0": 0.5,
                                  "lambda3<=4pi^2/L^2": 2.0,
                                  "lambda5<=16pi^2/L^2": 4.0}}
    assert workloads._count_lambdas(general_bounds) == 5
    assert workloads._count_lambdas({"lambda1_before": -1.5,
                                     "lambda1_after": -1.2}) == 2
    assert workloads._count_lambdas({"lambda1": {"3": -1.1, "5": -1.3}}) == 2
    assert workloads._count_lambdas({"per_k": {"2": {"lambda": 0.4,
                                                     "diam_bound": 3.0}},
                                     "diameter": 2.0}) == 1
    assert workloads._count_lambdas({"lambdas": [1.0], "ok": True,
                                     "margins": {"1": 0.2}}) == 1


# -- self time -------------------------------------------------------------------------

def _span(sid, parent, start, end, name="x"):
    return Span(sid, name, parent, 0, 0, start, end)


def test_self_time_nested_and_overlapping_children():
    tree = [
        _span(1, None, 0.0, 10.0),   # op root
        _span(2, 1, 1.0, 4.0),       # two children overlapping on [3, 4]
        _span(3, 1, 3.0, 6.0),
        _span(4, 2, 2.0, 3.0),       # grandchild
        _span(5, 1, 9.0, 12.0),      # child running past its parent's end
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({1: 10.0 - 6.0, 2: 2.0, 3: 3.0, 4: 1.0,
                                   5: 3.0})
    # durations are clipped to the parent for the overlap, not for self time
    assert spans.overlap_excess(tree) == pytest.approx(1.0)


def test_self_times_sum_to_wall_plus_overlap():
    tree = [_span(1, None, 0.0, 8.0), _span(2, 1, 0.0, 5.0),
            _span(3, 1, 2.0, 7.0), _span(4, 3, 2.5, 3.0),
            _span(5, 3, 2.7, 4.0)]
    total = sum(spans.self_times(tree).values())
    assert total == pytest.approx(8.0 + spans.overlap_excess(tree))


def test_self_time_of_leaf_is_its_duration():
    assert spans.self_times([_span(7, None, 1.5, 2.0)]) == {7: 0.5}


# -- wrappers ----------------------------------------------------------------------

def _originals():
    out = {}
    for module_name, attr, *_ in spans.TARGETS + (spans.RUN_CASES,):
        module = importlib.import_module(module_name)
        out[(module_name, attr)] = getattr(module, attr)
    return out


def test_every_wrapper_is_restored():
    before = _originals()
    with spans.Tracer() as tracer:
        during = _originals()
    assert not tracer.missing
    assert all(during[k] is not before[k] for k in before)
    assert _originals() == before
    assert all(_originals()[k] is before[k] for k in before)


def test_wrappers_are_restored_after_an_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    assert all(_originals()[k] is before[k] for k in before)


def test_pool_thread_spans_belong_to_the_op(monkeypatch):
    monkeypatch.setenv("QGRAPH_THREADS", "2")
    tracer = spans.Tracer(workers=2)
    barrier = threading.Barrier(2, timeout=10)

    def op():
        from qgraph import experiments

        def thunk():
            barrier.wait()
            return threading.get_ident()
        return experiments._run_cases([thunk, thunk])

    with tracer:
        idents = tracer.op(7, op)
    assert len(set(idents)) == 2
    pool = [s for s in tracer.spans if s.name == "experiments.run_cases"]
    cases = [s for s in tracer.spans if s.name == "experiments.case"]
    assert len(pool) == 1 and len(cases) == 2
    assert {s.parent for s in cases} == {pool[0].id}
    assert {s.op for s in tracer.spans} == {7}
    assert spans.overlap_excess(tracer.spans) > 0.0


# -- layers per workload ------------------------------------------------------------

SLOTS = {"scan": workloads.SCAN_SLOTS, "suites": workloads.SUITE_SLOTS,
         "crosscheck": workloads.CROSS_SLOTS}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_listed_layer_records_calls(name, tmp_path):
    wl = workloads.get(name, str(tmp_path))
    tracer = spans.Tracer(workers=2)
    with tracer:
        for i in range(len(SLOTS[name])):
            if wl.make(11, i)["kind"] == "figure8-equilateral":
                continue  # the slowest scan slot adds no layer
            tracer.op(i, wl.op, wl.make(11, i))
    calls = {}
    for s in tracer.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    missing = [layer for layer in workloads.LAYERS[name] if not calls.get(layer)]
    assert not missing, f"{name}: no calls recorded for {missing}"
    metrics = spans.layer_metrics(tracer.spans)
    assert set(metrics) <= set(run.metric_units()[1])


# -- contract ------------------------------------------------------------------------

def test_benchmark_json_names_every_metric(tmp_path):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    e2e, layers = run.metric_units()
    wl = workloads.get("scan", str(tmp_path))
    recs = [run.OpRecord(i, {"kind": "star3"}, None, 0.5, 0.5, "raised",
                         0.01, 0.7) for i in range(12)]
    setup = {"setup_s": 1.0, "setup_raw_s": 1.2}
    values, _ = run.end_to_end(wl, recs, [setup])
    assert set(values) == set(e2e)
    values = run.per_layer(wl, spans.Tracer(), recs, recs, (0, 0), 12, 12)
    assert set(values) == set(layers)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "qgbench", tmp_path / "qgbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "qgbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
