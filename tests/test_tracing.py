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

import pytest

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


@pytest.fixture(scope="module")
def tangent_spans(tmp_path_factory):
    """Spans of one cell increment with tangents under the tracer, with
    spsolve wrapped as well, and the names of those inside the tangent."""
    tmp_path = tmp_path_factory.mktemp("trace")
    script = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {os.path.join(ROOT, "perfbench")!r})
        import scipy.sparse.linalg as spla
        from tracing import Tracer
        tracer = Tracer({str(tmp_path)!r})
        assert tracer.install() == []
        spla.spsolve = tracer.wrapper("test.spsolve", spla.spsolve)
        from hamfe2 import constitutive, homogenization as hom, mesh
        cell = hom.CellProblem(
            mesh.generate_masonry_cell(0.29, 0.14, 0.01, resolution=2),
            constitutive.default_materials())
        loading = hom.MacroLoading(12.0, 0.6, (30.0, -10.0), (0.5, 1.0),
                                   dt=3600.0)
        tracer.enabled = True
        hom.solve_rve_increment(cell, cell.initial_state(loading), loading,
                                want_tangents=True)
        tracer.enabled = False
        print(json.dumps(tracer.record()["spans"]))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    spans = json.loads(out.stdout.strip().splitlines()[-1])
    parent = {sid: pid for sid, pid, _, _, _ in spans}
    tangents = [sid for sid, _, name, _, _ in spans
                if name == "homogenization.effective_tangent"]
    assert len(tangents) == 1

    def inside(sid):
        while sid != -1:
            sid = parent[sid]
            if sid == tangents[0]:
                return True
        return False

    nested = [name for sid, _, name, _, _ in spans if inside(sid)]
    return [name for _, _, name, _, _ in spans], nested


def test_tangent_factorizes_once_outside_newton(tangent_spans):
    # the tangent span holds exactly one factorization (spsolve) and no
    # Newton solve, so the benchmark's solver.factor_* metrics count
    # only Newton iterations and tangent_s carries the tangent's own cost
    names, nested = tangent_spans
    assert nested.count("test.spsolve") == 1
    assert "solver.splu" not in nested
    assert "solver.newton_solve" not in nested
    assert names.count("solver.newton_solve") == 1
    assert names.count("solver.splu") >= 1


def test_tangent_reuses_the_converged_coefficients(tangent_spans):
    # the increment evaluates the converged state once; the tangent
    # neither assembles nor evaluates the coefficients again
    names, nested = tangent_spans
    assert "fem.assemble_system" not in nested
    assert "constitutive.coefficients" not in nested
    assert "constitutive.coefficients" in names
