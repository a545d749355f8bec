"""Results must not depend on which systems a process has planned before.

Every Newton system is factored in the order of its pattern's plan, the
first one included, and a plan is a function of the pattern alone. So a
solve repeated in one process, with its plans cached, and a solve in a
fresh process give the same states bit for bit, and a cell increment
answers alike whichever increment ran before it.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np

from hamfe2 import constitutive, fem, homogenization as hom, mesh, solver

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class ColdLeftFace:
    """The left face held at 5 deg C and 80 %, the right at 20 deg C, 50 %."""

    def dirichlet_values(self, m, t):
        out = {}
        for name, theta, phi in (("left", 5.0, 0.8), ("right", 20.0, 0.5)):
            for node in m.boundary_nodes(name):
                out[int(node)] = theta
                out[m.n_nodes + int(node)] = phi
        return out


def small_wall():
    return mesh.generate_masonry_wall(0.29, 0.14, 0.01, 2, 2, "running", 2)


def solve_digest(m):
    """sha256 of every state of three one-hour steps on the mesh m."""
    history = solver.transient_solve(
        m, constitutive.default_materials(), ColdLeftFace(),
        fem.FieldState.uniform(m.n_nodes, 20.0, 0.5), 1.0, 3.0)
    h = hashlib.sha256()
    for state in history.states:
        h.update(state.vector().tobytes())
    return h.hexdigest()


def test_wall_solve_is_the_same_with_warm_plans_and_in_a_fresh_process():
    m = small_wall()
    cold = solve_digest(m)
    assert fem.workspace(m).plans
    warm = solve_digest(m)
    assert warm == cold
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from test_history_independence import small_wall, solve_digest; "
              "print(solve_digest(small_wall()))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", script,
                          os.path.dirname(os.path.abspath(__file__))],
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip().splitlines()[-1] == cold


def assert_same_response(a, b):
    for name in ("q_heat", "q_moist", "s_t", "s_f"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("kg", "c"):
        assert np.array_equal(getattr(a.tangent, name),
                              getattr(b.tangent, name)), name


def test_cell_increments_answer_alike_in_either_order():
    loadings = {
        "a": hom.MacroLoading(12.0, 0.6, (30.0, -10.0), (0.5, 1.0), dt=3600.0),
        "b": hom.MacroLoading(25.0, 0.45, (-20.0, 5.0), (-1.0, 0.3), dt=1800.0)}

    def run(order):
        # a fresh mesh: its workspace starts without plans
        cell = hom.CellProblem(
            mesh.generate_masonry_cell(0.29, 0.14, 0.01, bond="running",
                                       resolution=2),
            constitutive.default_materials())
        out = {}
        for key in order:
            loading = loadings[key]
            out[key] = hom.solve_rve_increment(
                cell, hom.initial_response(cell, loading)[0], loading,
                want_tangents=True)
        return out

    ab, ba = run("ab"), run("ba")
    for key in "ab":
        assert np.array_equal(ab[key][0].u, ba[key][0].u)
        assert_same_response(ab[key][1], ba[key][1])
