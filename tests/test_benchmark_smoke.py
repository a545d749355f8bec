"""One short run of the benchmark, with its own gates.

perfbench/run.py fails a run ("correct": false) when the final state of
two workers differs bitwise from that of one, when a field leaves its
range, or when FE2 strays from the fine solve of the same wall beyond
the workload's bounds. Its `src` is the package under test; its result
files go to a temporary directory.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_fe2_fine_cells_benchmark_run_is_correct(tmp_path):
    # run.py reads the sources from ./src and writes under ./.perfbench_out
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "fe2-fine-cells", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
