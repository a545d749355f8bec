"""The benchmark's tracer must find every layer boundary it wraps.

perfbench/tracing.py wraps hamfe2 functions by name. A renamed or
removed function is only reported, and its per-layer metrics drop to
zero, so this checks that the list of names it could not find is empty.
"""

import json
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_finds_every_traced_name(tmp_path):
    script = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {os.path.join(ROOT, "perfbench")!r})
        from tracing import Tracer
        print(json.dumps(Tracer({str(tmp_path)!r}).install()))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
