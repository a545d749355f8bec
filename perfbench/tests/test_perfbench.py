"""Tests of the benchmark's own code: self-time arithmetic, metric names.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
from tracing import (LAYER_METRICS, count_spans, layer_metrics,  # noqa: E402
                     self_seconds)
from workloads import WORKLOADS  # noqa: E402

# one process: a [0, 10] holding b [1, 3] and a nested a2 [4, 8], which
# holds d [5, 6]; e [11, 12] is a second root
SPANS = [(1, 0, "b", 1.0, 3.0), (3, 2, "d", 5.0, 6.0),
         (2, 0, "a2", 4.0, 8.0), (0, -1, "a", 0.0, 10.0),
         (4, -1, "e", 11.0, 12.0)]


def test_self_time_subtracts_every_other_layer():
    # a2 belongs to a's layer, so only b (2 s) and d (1 s) leave it
    assert self_seconds(SPANS, {"a", "a2"}, "*") == pytest.approx(7.0)


def test_self_time_subtracts_only_the_named_children():
    assert self_seconds(SPANS, {"a", "a2"}, {"b"}) == pytest.approx(8.0)
    assert self_seconds(SPANS, {"a"}, {"a2"}) == pytest.approx(6.0)


def test_nested_spans_of_a_layer_count_once():
    assert self_seconds(SPANS, {"a", "a2"}, ()) == pytest.approx(10.0)
    assert self_seconds(SPANS, {"a2"}, ()) == pytest.approx(4.0)
    assert count_spans(SPANS, {"a", "a2"}) == 2
    assert count_spans(SPANS, {"a", "a2"}, outermost=True) == 1


def test_leaf_self_time_is_its_duration():
    assert self_seconds(SPANS, {"d", "e"}, "*") == pytest.approx(2.0)


def test_layer_metrics_merge_processes():
    master = {"pid": 1, "maxima": {}, "counts": {"fe2.macro_iters": 2},
              "spans": [(0, -1, "fe2.step", 0.0, 10.0),
                        (1, 0, "solver.newton_solve", 0.5, 9.0),
                        (2, 1, "scheduler.run_round", 1.0, 4.0),
                        (3, 0, "scheduler.commit", 9.0, 9.5)]}
    worker = {"pid": 2, "maxima": {"solver.lu_nnz_max": 7.0},
              "counts": {"solver.newton_iters": 3,
                         "solver.newton_evals": 4},
              "spans": [(0, -1, "homogenization.solve_rve_increment",
                         1.0, 3.0),
                        (1, 0, "homogenization.effective_tangent", 1.5, 2.5),
                        (2, 1, "homogenization.solve_rve_increment",
                         1.6, 1.8),
                        (3, 0, "fem.assemble_system", 1.1, 1.4),
                        (4, 3, "constitutive.coefficients", 1.2, 1.3)]}
    out = layer_metrics([master, worker], setup_s=0.5, solve_s=10.0)
    assert out["fe2.macro_self_s"] == pytest.approx(6.5)
    assert out["fe2.macro_steps"] == 1
    assert out["fe2.macro_iters"] == 2
    assert out["scheduler.rounds"] == 1
    assert out["scheduler.round_wall_s"] == pytest.approx(3.0)
    assert out["scheduler.commit_s"] == pytest.approx(0.5)
    assert out["homogenization.increments"] == 1
    assert out["homogenization.increment_s"] == pytest.approx(1.0)
    assert out["homogenization.tangent_calls"] == 1
    assert out["homogenization.tangent_s"] == pytest.approx(1.0)
    assert out["fem.assemble_calls"] == 1
    assert out["fem.assemble_self_s"] == pytest.approx(0.2)
    assert out["constitutive.self_s"] == pytest.approx(0.1)
    assert out["solver.iter_share"] == pytest.approx(0.75)
    assert out["solver.lu_nnz_max"] == 7.0
    assert out["trace.solve_s"] == 10.0


# ------------------------------------------------------------ names


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def fake_measured(trace, cycles=3):
    layers = [{name: 1.0 for name, _, _ in LAYER_METRICS}] * cycles
    return {"setup_s": [0.1, 0.2] * cycles, "solve_s": [1.0] * cycles,
            "peak_rss_mb": 100.0, "attempted": 2 * cycles, "failed": 0,
            "problems": [], "digest": "x", "layers": layers if trace else [],
            "counts": {"newton_iterations": [0, 1], "rounds": 0}}


def test_benchmark_json_names_the_workloads_and_metrics():
    bench = benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(LAYER_METRICS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    bench = benchmark()
    check = {"digest": "x", "problems": []}
    result, detail = run.combine("fine-wall", fake_measured(trace), check,
                                 trace)
    assert result["correct"] and not detail["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 6 and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in bench[key]}


def test_differing_states_make_a_run_incorrect():
    result, detail = run.combine("fine-wall", fake_measured(0),
                                 {"digest": "y", "problems": []}, 0)
    assert not result["correct"]
    assert any("final state differs" in p for p in detail["problems"])


# ------------------------------------------------------------ live tracer

LIVE = textwrap.dedent("""
    import json, sys, tempfile
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    from tracing import Tracer, layer_metrics
    from workloads import Problem, Workload, digest, inputs
    out = tempfile.mkdtemp()
    tracer = Tracer(out)
    assert tracer.install() == []
    result = {}
    for workers in (2, 1):
        tracer.reset()
        tracer.enabled = True
        problem = Problem(Workload("tiny", (2, 1), 2, 1, (2, 1)), workers)
        history = problem.solve(inputs(0))
        tracer.enabled = False
        problem.close()
        records = [tracer.record()] + tracer.collect_children()
        result[workers] = {"pids": len(records), "digest": digest(history),
                           "layers": layer_metrics(records, 0.0, 1.0)}
    print(json.dumps(result))
""")


def test_worker_spans_reach_the_report_and_match_one_worker():
    proc = subprocess.run(
        [sys.executable, "-c", LIVE, BENCH_DIR, os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    two, one = out["2"], out["1"]
    assert two["pids"] == 3 and one["pids"] == 1
    assert two["digest"] == one["digest"]
    layers = two["layers"]
    assert layers["homogenization.increments"] > 0
    assert layers["solver.factor_calls"] == layers["solver.newton_iters"]
    assert layers["scheduler.rounds"] > 0
    for name in ("homogenization.increments", "solver.newton_iters",
                 "solver.newton_evals", "constitutive.calls",
                 "fem.reduce_calls", "scheduler.rounds", "fe2.macro_iters"):
        assert layers[name] == one["layers"][name], name
