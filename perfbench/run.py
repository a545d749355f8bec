"""Benchmark of hamfe2 fine and FE2 solves, end to end or per layer.

    python3 perfbench/run.py --workload fine-wall --seed 0 --seconds 15 --trace 0

Run from the root of a hamfe2 source tree. It starts one fresh process
(perfbench/workloads.py) that sets the workload up and solves it over
and over for --seconds, then another that solves it once more, untimed,
for the checks. Every process gets one numeric-library thread. The last
line of standard output is one JSON object: correct, attempted and
failed time steps, and the metrics: end-to-end ones with --trace 0,
per-layer ones with --trace 1. The line before it, starting "detail ",
holds the digest, counts, comparison figures and every timing that
steady.py reads. Results are also written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import EXACT, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_ROOT = ".perfbench_out"
DEADLINE_S = 170.0         # the whole run, checks included
END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + [p for p in
                                    env.get("PYTHONPATH", "").split(os.pathsep)
                                    if p])
    return env


def run_child(args, deadline):
    """One workloads.py process; its JSON line, or None if it failed."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"timed out: {' '.join(args)}", file=sys.stderr)
        return None
    finally:
        # workers of a child that died early must not outlive the run
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"failed ({proc.returncode}): {' '.join(args)}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, out_dir):
    """The measuring process for `seconds`, then the check process."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--out", out_dir]
    measured = run_child(common + ["--role", "measure", "--seconds",
                                   str(seconds), "--trace", str(trace)],
                         deadline)
    check = run_child(common + ["--role", "check"], deadline)
    return measured, check


def combine(workload, measured, check, trace):
    """correct, attempted, failed, metrics and the detail record."""
    problems = []
    if measured is None:
        problems.append("the measuring process did not finish")
        measured = {"setup_s": [], "solve_s": [], "layers": [], "problems": [],
                    "attempted": WORKLOADS[workload].steps,
                    "failed": WORKLOADS[workload].steps}
    problems += measured["problems"]
    if check is None:
        problems.append("the check process did not finish")
    else:
        problems += [f"check: {p}" for p in check["problems"]]
        if check["digest"] != measured.get("digest"):
            problems.append("the final state differs between the measured "
                            "solves and the check solve")
    layers = measured["layers"]
    if trace:
        if any({k: c[k] for k in EXACT} != {k: layers[0][k] for k in EXACT}
               for c in layers):
            problems.append("per-layer counts differ between cycles")
        values = {name: [c[name] for c in layers] for name, _, _ in
                  LAYER_METRICS}
        units = [(name, unit) for name, unit, _ in LAYER_METRICS]
    else:
        # the least disturbed of the run's many short set-ups; their
        # median follows the host's slow and fast phases (README)
        values = {"setup_s": [min(measured["setup_s"], default=0.0)],
                  "solve_s": measured["solve_s"],
                  "peak_rss_mb": [measured.get("peak_rss_mb", 0.0)]}
        units = END_TO_END
    metrics = {name: {"value": statistics.median(values[name] or [0.0]),
                      "unit": unit} for name, unit in units}
    detail = {"workload": workload, "cycles": len(measured["solve_s"]),
              "digest": measured.get("digest"),
              "counts": measured.get("counts"),
              "comparison": (check or {}).get("comparison"),
              "setup_s": measured["setup_s"], "solve_s": measured["solve_s"],
              "problems": problems}
    if trace and layers:
        detail["layers"] = {k: layers[0][k] for k in EXACT}
    result = {"correct": not problems and bool(measured["solve_s"]),
              "attempted": measured["attempted"],
              "failed": measured["failed"], "metrics": metrics}
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "hamfe2", "__init__.py")):
        print("run.py: no hamfe2 sources under ./src; run it from the root "
              "of a hamfe2 checkout", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(OUT_ROOT, f"{tag}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        measured, check = measure(args.workload, args.seed, args.seconds,
                                  args.trace, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result, detail = combine(args.workload, measured, check, args.trace)
    for problem in detail["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    with open(os.path.join(OUT_ROOT, f"result-{tag}.json"), "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
