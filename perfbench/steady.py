"""Two sets of benchmark runs, and each metric's spread against its bound.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]
                                [--seconds N] [--trace 0|1]

Run from the root of a hamfe2 source tree. For every workload it makes
`--runs` runs of run.py per set, one after another, with seeds 0 to
runs-1 in every set. Per set and metric it
reports the median and the spread, the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median;
between sets, how far the second median moved from the first. A row
passes when the spread (setup_s excepted) and the move both stay within
the metric's bound from BENCHMARK.json. It also requires every run to
be correct, the same share of failed steps in both sets, and, for each
seed, the same final-state digest and the same iteration and round
counts (per-layer counts with --trace 1) in every set. Counts that
differ between seeds are listed. A summary is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def spread(values):
    """Interquartile distance over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return None, None
    detail = json.loads(lines[-2][len("detail "):])
    return json.loads(lines[-1]), detail


def check_workload(workload, bench, args):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets, problems, by_seed = [], [], {}
    for k in range(args.sets):
        runs = []
        for seed in range(args.runs):
            t0 = time.monotonic()
            result, detail = one_run(workload, seed, args.seconds, args.trace)
            took = time.monotonic() - t0
            if result is None or not result["correct"]:
                problems.append(f"set {k} seed {seed}: run failed or "
                                f"incorrect ({(detail or {}).get('problems')})")
                continue
            # the same seed must give the same states and counts
            key = (detail["digest"], detail["counts"], detail.get("layers"))
            if by_seed.setdefault(seed, key) != key:
                problems.append(f"set {k} seed {seed}: final state or counts "
                                "differ from the earlier run of this seed")
            runs.append((result, detail))
            print(f"  {workload} set {k} seed {seed}: {took:.1f} s, "
                  + ", ".join(f"{n} {m['value']:.6g}" for n, m in
                              result["metrics"].items()
                              if n in bounds or n.startswith("trace.")),
                  flush=True)
        sets.append(runs)
    shares = {round(sum(r["failed"] for r, _ in runs)
                    / max(1, sum(r["attempted"] for r, _ in runs)), 12)
              for runs in sets}
    if len(shares) > 1:
        problems.append(f"failed shares differ between sets: {shares}")
    rows = []
    names = bounds if not args.trace else ("trace.setup_s", "trace.solve_s")
    for name in names:
        values = [[r["metrics"][name]["value"] for r, _ in runs]
                  for runs in sets]
        if any(len(v) < 2 for v in values):
            continue
        medians = [statistics.median(v) for v in values]
        spreads = [spread(v) for v in values]
        moved = medians[-1] / medians[0] - 1.0
        bound = bounds.get(name)
        ok = bound is None or (
            moved <= bound
            and (name == "setup_s" or max(spreads) <= bound))
        rows.append({"metric": name, "medians": medians, "spreads": spreads,
                     "moved": moved, "bound": bound, "ok": ok,
                     "values": values})
    # counts that change with the seed (reported, not a failure)
    varying = {}
    for _, counts, layers in by_seed.values():
        for name, value in list(counts.items()) + list((layers or {}).items()):
            varying.setdefault(name, set()).add(json.dumps(value))
    varying = {n: sorted(v) for n, v in varying.items() if len(v) > 1}
    comparisons = [d["comparison"] for runs in sets for _, d in runs
                   if d.get("comparison")]
    return {"workload": workload, "rows": rows, "problems": problems,
            "seed_dependent_counts": varying, "comparisons": comparisons}


def main(argv=None):
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)
    report = [check_workload(w, bench, args)
              for w in args.workloads.split(",")]
    ok = True
    for entry in report:
        print(f"\n{entry['workload']}")
        for row in entry["rows"]:
            ok &= row["ok"]
            bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
            print(f"  {row['metric']:<14} medians "
                  + " ".join(f"{m:.6g}" for m in row["medians"])
                  + "  spreads " + " ".join(f"{s:.4f}" for s in row["spreads"])
                  + f"  moved {row['moved']:+.4f}  bound {bound}  "
                  + ("ok" if row["ok"] else "OUT OF BOUND"))
        for problem in entry["problems"]:
            ok = False
            print(f"  problem: {problem}")
        print("  counts that change with the seed: "
              f"{entry['seed_dependent_counts'] or 'none'}")
    os.makedirs(".perfbench_out", exist_ok=True)
    path = os.path.join(".perfbench_out",
                        f"steady-trace{args.trace}-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"\n{'steady' if ok else 'NOT steady'}; details in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
