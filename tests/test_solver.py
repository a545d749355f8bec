"""Time stepping and Newton iteration tests.

Reference values are produced by the plain-python oracles below and
frozen into FROZEN; the solver must reproduce them through its own code
path.
"""

import weakref
from functools import partial

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from hamfe2 import constitutive, fem, solver
from hamfe2 import homogenization as hom
from hamfe2 import mesh as meshmod
from hamfe2.climate import synthetic_annual_climate
from hamfe2.config import BoundaryRule, BoundarySchedule
from skeleton_csr import skeleton_csr


def oracle_newton_sqrt(u0, n):
    """Plain Newton loop for u^2 - 4 = 0."""
    iterates = []
    u = u0
    for _ in range(n):
        u = u - (u * u - 4.0) / (2.0 * u)
        iterates.append(u)
    return iterates


def oracle_slab_series(x, alpha_t, terms=400):
    """Unit Dirichlet heat-up of a unit slab from zero initial state."""
    out = np.ones_like(x)
    for n in range(1, terms, 2):
        out -= 4.0 / (n * np.pi) * np.sin(n * np.pi * x) \
            * np.exp(-(n * np.pi) ** 2 * alpha_t)
    return out


FROZEN = {
    "cn_decay_step": 1.0 / 3.0,  # du/dt = -u, u0 = 1, dt = 1
    "newton_iterates": (2.16666666666667, 2.00641025641026, 2.00001024002621),
}


# one triangle: the mesh of the toy Crank-Nicolson problems, whose
# matrices are SkeletonMatrix values on its skeleton
TRIANGLE = meshmod.Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                        np.array([[0, 1, 2]]), np.array([0]), ("solid",), {})


def triangle_matrix(tt, ff):
    """SkeletonMatrix on TRIANGLE with the (3, 3) theta and phi blocks
    tt and ff and no coupling between the fields."""
    zero = np.zeros((1, 3, 3))
    return fem.workspace(TRIANGLE).scatter([[tt[None], zero],
                                            [zero, ff[None]]])


# a constant material: the toy problems' storage has zero capacity
# derivatives
CONSTANT = constitutive.LinearMaterial("solid", k_tt=1.0, k_ff=1.0,
                                       c_tt=1.0, c_ff=1.0)


def toy_system(K, u):
    """CoupledSystem at u on TRIANGLE with conductivity K and unit storage."""
    return fem.CoupledSystem(
        K, np.ones(3), np.ones(3),
        materials=fem.CentroidMaterials(TRIANGLE, u[:3], u[3:],
                                        {"solid": CONSTANT}))


def scalar_decay_assembler(u):
    # du/dt = -u in each of the six dofs
    return toy_system(triangle_matrix(np.eye(3), np.eye(3)), u)


IDENTITY_6DOF = fem.dirichlet_map(6, {})


class UnitWallSchedule:
    """Both fields pinned to 1 on the left and right edges."""

    def dirichlet_values(self, mesh, t):
        vals = {}
        n = mesh.n_nodes
        for name in ("left", "right"):
            for node in mesh.boundary_nodes(name):
                vals[int(node)] = 1.0
                vals[int(node) + n] = 1.0
        return vals


def unit_weights(r, system):
    """A toy residual_jacobian's answer (r, system, w): r in rows of
    unit weight."""
    return r, system, np.ones(len(r))


def test_cn_scalar_decay_frozen():
    u, trace, _, _ = solver.crank_nicolson_step(
        scalar_decay_assembler, np.ones(6), 1.0,
        IDENTITY_6DOF, solver.SolverConfig())
    assert abs(u[0] - FROZEN["cn_decay_step"]) < 1e-14
    assert len(trace) - 1 == 1  # linear problem converges in one update


def test_newton_iterates_match_oracle():
    oracle = oracle_newton_sqrt(3.0, 3)
    for got, frozen in zip(oracle, FROZEN["newton_iterates"]):
        assert abs(got - frozen) < 5e-15 + 1e-14 * abs(frozen)

    seen = []

    def residual_jacobian(z):
        seen.append(float(z[0]))
        return unit_weights(np.array([z[0] ** 2 - 4.0]),
                            lambda: (sp.csr_matrix([[2.0 * z[0]]]), [0]))

    z, trace = solver.newton_solve(residual_jacobian, np.array([3.0]),
                                   solver.SolverConfig(newton_tol=1e-13))
    # iterates visited must match the oracle sequence
    assert seen[0] == 3.0
    for got, frozen in zip(seen[1:], FROZEN["newton_iterates"]):
        assert abs(got - frozen) < 1e-12
    assert abs(z[0] - 2.0) < 1e-12
    # residual trace is monotone after the first iterate
    assert all(b < a for a, b in zip(trace[1:], trace[2:]))


def test_newton_zero_iterations_at_root():
    built = []

    def residual_jacobian(z):
        def system():
            built.append(1)
            return sp.csr_matrix([[2.0 * z[0]]]), [0]

        return unit_weights(np.array([z[0] ** 2 - 4.0]), system)

    z, trace = solver.newton_solve(residual_jacobian, np.array([2.0]),
                                   solver.SolverConfig())
    assert z[0] == 2.0 and len(trace) == 1
    # a start at the root builds no Newton system
    assert built == []


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_newton_non_finite_start_residual_raises(bad):
    # an infinite start residual would set an infinite target and pass
    # as converged after zero iterations
    def residual_jacobian(z):
        return unit_weights(np.array([bad, 1.0]),
                            lambda: (sp.identity(2, format="csr"), [0, 1]))

    with pytest.raises(solver.SolverError, match="start iterate") as err:
        solver.newton_solve(residual_jacobian, np.zeros(2),
                            solver.SolverConfig())
    assert len(err.value.trace) == 1 and not np.isfinite(err.value.trace[0])


def test_newton_failure_reports_trace():
    def residual_jacobian(z):
        return unit_weights(np.array([z[0] ** 2 + 1.0]),
                            lambda: (sp.csr_matrix([[2.0 * z[0]]]), [0]))

    with pytest.raises(solver.SolverError) as err:
        solver.newton_solve(residual_jacobian, np.array([0.5]),
                            solver.SolverConfig(max_iterations=8))
    trace = err.value.trace
    assert len(trace) >= 1 and trace[0] == pytest.approx(1.25)


def test_newton_singular_bordered_system_raises_solver_error():
    # two unknowns bordered by a constraint row that repeats the first
    # row: the factorization fails, and Newton must report it
    jac = sp.csr_matrix([[1.0, 0.0, 1.0],
                         [0.0, 1.0, 1.0],
                         [1.0, 0.0, 1.0]])

    def residual_jacobian(z):
        return unit_weights(np.array([1.0, -2.0]),
                            lambda: (jac, np.array([0, 1])))

    with pytest.raises(solver.SolverError) as err:
        solver.newton_solve(residual_jacobian, np.zeros(2),
                            solver.SolverConfig())
    assert "linear solve failed" in str(err.value)
    assert err.value.trace == [pytest.approx(np.sqrt(5.0))]


def test_newton_stall_reports_residual_and_target():
    # every trial step evaluates, and every one grows the residual: the
    # iterate is not pinned anywhere, Newton stalls where it stands
    def residual_jacobian(z):
        return unit_weights(np.array([1.0 + 1000.0 * abs(z[0])]),
                            lambda: (sp.csr_matrix([[1.0]]), [0]))

    with pytest.raises(solver.SolverError) as err:
        solver.newton_solve(residual_jacobian, np.zeros(1),
                            solver.SolverConfig(newton_tol=1e-8))
    assert "stalled at residual 1.000e+00 (target 1.000e-08)" \
        in str(err.value)
    assert "admissible" not in str(err.value)
    assert err.value.trace == [1.0]


def test_newton_inadmissible_trials_report_the_admissible_range():
    # every trial iterate leaves the material's admissible range
    def residual_jacobian(z):
        if z[0] != 0.0:
            raise constitutive.ConstitutiveError("phi outside [0, 1]")
        return unit_weights(np.array([1.0]),
                            lambda: (sp.csr_matrix([[1.0]]), [0]))

    with pytest.raises(solver.SolverError) as err:
        solver.newton_solve(residual_jacobian, np.zeros(1),
                            solver.SolverConfig())
    assert "every trial left the admissible range" in str(err.value)
    assert "stalled" not in str(err.value)
    assert err.value.trace == [1.0]


def first_newton_system(monkeypatch, run):
    """(matrix, rows) of the first Newton system that run() factors."""
    seen = []
    bordered = fem.ConstraintMap.newton_system

    def spy(cmap, J, C):
        matrix, rows = bordered(cmap, J, C)
        seen.append((matrix, rows))
        return matrix, rows

    monkeypatch.setattr(fem.ConstraintMap, "newton_system", spy)
    run()
    return seen[0]


def wall_step():
    # one step of a 4 x 4-cell running-bond wall, four elements across
    # each joint, cooled and wetted on its left face
    m = meshmod.generate_masonry_wall(0.29, 0.14, 0.01, 4, 4, "running", 4)
    left = np.unique(m.boundary["left"])
    cmap = fem.dirichlet_map(2 * m.n_nodes,
                             {**{i: 5.0 for i in left},
                              **{m.n_nodes + i: 0.8 for i in left}})
    u_n = fem.FieldState.uniform(m.n_nodes, 20.0, 0.5).vector()
    assembler = partial(solver._assemble, m, constitutive.default_materials())
    solver.crank_nicolson_step(assembler, u_n, 3600.0, cmap,
                               solver.SolverConfig())


def cell_increment():
    # one increment of a bordered periodic running-bond cell
    cell = hom.CellProblem(
        meshmod.generate_masonry_cell(0.29, 0.14, 0.01, bond="running",
                                      resolution=4),
        constitutive.default_materials())
    loading = hom.MacroLoading(12.0, 0.6, (30.0, -10.0), (0.5, 1.0),
                               dt=3600.0)
    hom.solve_rve_increment(cell, cell.initial_state(loading), loading)


# entries of the factors of the first Newton matrix: factorize stores
# 501,032 on the wall and 26,902 on the cell, as many as L + U hold;
# SuperLU's default relaxed supernodes and panels pad the same factors
# to 504,296 and 39,470 stored entries. For L + U, the same ordering at
# threshold 1.0 gives 5,261,333 and 46,547; COLAMD at threshold 0.01
# gives 919,040 and 43,252; splu's defaults give 992,335 and 45,571
@pytest.mark.parametrize("run, bound", [(wall_step, 550_000),
                                        (cell_increment, 30_000)],
                         ids=["wall", "cell"])
def test_factorize_fill_is_bounded_and_solves(run, bound, monkeypatch):
    A, rows = first_newton_system(monkeypatch, run)
    lu = solver.factorize(A)
    assert lu.L.nnz + lu.U.nnz <= bound
    # the stored entries, explicit zeros of the supernodes included
    assert lu.nnz <= bound
    # every pivot stays on the diagonal
    assert np.array_equal(lu.perm_r, np.arange(A.shape[0]))
    # as in Newton, the right-hand side is zero on anchor and border rows
    b = np.zeros(A.shape[0])
    b[rows] = np.random.default_rng(0).normal(size=rows.size)
    x = lu.solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_factorize_does_not_keep_a_tiny_diagonal_pivot():
    # the ordering eliminates the lowest-degree node 0 first; at
    # threshold 0 its 1e-20 diagonal stays the pivot and x[0] is lost
    A = sp.csr_matrix([[1e-20, 1.0, 0.0],
                       [1.0, 1.0, 1.0],
                       [0.0, 1.0, 3.0]])
    b = A @ np.ones(3)
    x = solver.factorize(A).solve(b)
    assert np.abs(x - 1.0).max() <= 1e-15
    at_zero = spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0).solve(b)
    assert abs(at_zero[0] - 1.0) > 0.5


def test_overflowing_trial_step_is_halved():
    # the first Newton matrix has a quarter of the true slope, so the
    # full update overflows z; that trial counts as failed and is not
    # evaluated, and the half update lands past the root, in range. The
    # residual builds a FieldState of its iterate, as the Crank-Nicolson
    # assembler does, which raises FemError on a non-finite entry
    root, scale = 1.2e308, 1e-300
    seen = []

    def residual_jacobian(z):
        fem.FieldState(z, z)
        seen.append(float(z[0]))
        slope = 0.25 * scale if len(seen) == 1 else scale
        return unit_weights(np.array([(z[0] - root) * scale]),
                            lambda: (sp.csr_matrix([[slope]]), [0]))

    z, trace = solver.newton_solve(residual_jacobian, np.array([1.0e308]),
                                   solver.SolverConfig())
    assert len(seen) == 3 and len(trace) == 3
    assert seen[0] < root < seen[1] < np.finfo(float).max
    assert abs(z[0] - root) <= 1e-15 * root


def test_cn_temporal_order_two():
    errs = []
    for dt in (0.25, 0.125, 0.0625):
        u, old = np.ones(6), None
        for _ in range(int(round(1.0 / dt))):
            u, _, old, _ = solver.crank_nicolson_step(
                scalar_decay_assembler, u, dt, IDENTITY_6DOF,
                solver.SolverConfig(), old)
        errs.append(abs(u[0] - np.exp(-1.0)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.9)


def test_slab_heatup_matches_series():
    """Linear strip, both ends stepped to 1: 1% of the unit range."""
    m = meshmod.generate_rectangle_mesh(1.0, 0.05, 60, 1)
    mat = constitutive.LinearMaterial("unit", k_tt=1.0, k_ff=1.0,
                                      c_tt=18000.0, c_ff=18000.0)
    init = fem.FieldState.uniform(m.n_nodes, 0.0, 0.0)
    hist = solver.transient_solve(m, {"solid": mat}, UnitWallSchedule(),
                                  init, 0.025, 1.0)
    alpha_t = 3600.0 * (1.0 / 18000.0)
    ref = oracle_slab_series(m.nodes[:, 0], alpha_t)
    assert np.max(np.abs(hist.final.theta - ref)) < 0.01
    # phi solves the identical decoupled problem
    assert np.array_equal(hist.final.phi, hist.final.theta)
    # boundary values are honored exactly
    for name in ("left", "right"):
        assert np.all(hist.final.theta[m.boundary_nodes(name)] == 1.0)


def test_transient_history_layout():
    m = meshmod.generate_rectangle_mesh(0.1, 0.1, 2, 2)
    mats = {"solid": constitutive.KunzelMaterial(constitutive.BRICK)}

    class Hold:
        def dirichlet_values(self, mesh, t):
            n = mesh.n_nodes
            out = {}
            for node in mesh.boundary_nodes("left"):
                out[int(node)] = 25.0
                out[int(node) + n] = 0.6
            return out

    init = fem.FieldState.uniform(m.n_nodes, 20.0, 0.5)
    hist = solver.transient_solve(m, mats, Hold(), init, 0.25, 1.0)
    assert hist.times == [0.0, 900.0, 1800.0, 2700.0, 3600.0]
    assert hist.theta_array().shape == (m.n_nodes, 5)
    assert hist.phi_array().shape == (m.n_nodes, 5)
    assert np.array_equal(hist.times_hours(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert all(k >= 1 for k in hist.newton_iterations[1:])
    assert hist.final is hist.states[-1]


def stiff_exponential_assembler(u):
    # conductivity exp(u/2) makes the frozen-coefficient iteration
    # diverge at dt = 1 but converge at dt = 1/2; both dofs of node 0
    # obey the same decoupled equation. Its source 10 enters through
    # the entry -10 that couples each of them to its field's dof at
    # node 1, which StiffPins holds at 1
    tt, ff = np.diag(np.exp(0.5 * u[:3])), np.diag(np.exp(0.5 * u[3:]))
    tt[0, 1] = ff[0, 1] = -10.0
    return toy_system(triangle_matrix(tt, ff), u)


STIFF_PINS = {1: 1.0, 2: 0.0, 4: 1.0, 5: 0.0}
# node 0 starts at 0, the pinned nodes at their values
STIFF_START = fem.FieldState(np.array([0.0, 1.0, 0.0]),
                             np.array([0.0, 1.0, 0.0]))


class StiffPins:
    """Nodes 1 and 2 of TRIANGLE held at 1 and 0 in both fields."""

    def dirichlet_values(self, mesh, t):
        return STIFF_PINS


def stiff_step(cfg, log):
    """step callable of step_with_retry that records its step sizes."""
    old = None

    def step(u_n, dt, cmap):
        nonlocal old
        log.append(dt)
        u, trace, old, _ = solver.crank_nicolson_step(
            stiff_exponential_assembler, u_n, dt, cmap, cfg, old)
        # no holder: one factorization per iteration
        return u, len(trace) - 1, len(trace) - 1

    return step


def stiff_solve(cfg, log):
    """One step of one second from u = 0 through step_with_retry."""
    return solver.step_with_retry(stiff_step(cfg, log), TRIANGLE, StiffPins(),
                                  STIFF_START, 1.0 / 3600.0, 1.0 / 3600.0)


def test_step_retry_halves_once():
    cfg = solver.SolverConfig(max_iterations=60)
    with pytest.raises(solver.SolverError):
        solver.crank_nicolson_step(stiff_exponential_assembler,
                                   STIFF_START.vector(), 1.0,
                                   fem.dirichlet_map(6, STIFF_PINS), cfg)
    log = []
    hist = stiff_solve(cfg, log)
    assert log == [1.0, 0.5, 0.5]
    u, iters = hist.final.theta[0], hist.newton_iterations[1]
    assert hist.times == [0.0, 1.0]
    assert np.isfinite(u) and u > 0.0
    # more total iterations than a single solve may spend: two solves ran
    assert iters > cfg.max_iterations
    # the result solves the two-half-step composition, not the full step
    r_full = u + 0.5 * (np.exp(0.5 * u) * u) - 10.0
    assert abs(r_full) > 0.1


def test_step_retry_double_failure_aborts():
    log = []
    with pytest.raises(solver.SolverError):
        stiff_solve(solver.SolverConfig(max_iterations=30), log)
    assert log == [1.0, 0.5]


def test_step_retry_leaves_other_errors_alone():
    # only SolverError is retried; any other failure, such as a dead
    # worker pool, ends the run at once
    calls = []

    def step(u_n, dt, cmap):
        calls.append(dt)
        raise RuntimeError("pool is gone")

    with pytest.raises(RuntimeError):
        solver.step_with_retry(step, TRIANGLE, StiffPins(), STIFF_START,
                               1.0, 1.0)
    assert calls == [3600.0]


def test_transient_rejects_partial_step_count():
    m = meshmod.generate_rectangle_mesh(0.1, 0.1, 1, 1)
    init = fem.FieldState.uniform(m.n_nodes, 20.0, 0.5)
    with pytest.raises(solver.SolverError):
        solver.transient_solve(m, {"solid": constitutive.KunzelMaterial(constitutive.BRICK)},
                               UnitWallSchedule(), init, 0.3, 1.0)


def test_coupled_system_is_dissipative():
    """Generalized eigenvalues of (K, C) must sit in Re >= 0, which makes
    the trapezoidal update unconditionally non-amplifying."""
    m = meshmod.generate_rectangle_mesh(0.2, 0.1, 4, 2)
    state = fem.FieldState.uniform(m.n_nodes, 20.0, 0.5)
    sysm = fem.assemble_system(m, state, {"solid": constitutive.KunzelMaterial(constitutive.BRICK)})
    K = skeleton_csr(sysm.conductivity).toarray()
    C = np.diag(sysm.storage_diagonal())
    lam = sla.eig(K, C, right=False)
    assert np.min(lam.real) > -1e-10
    dt = 3600.0
    A = np.linalg.solve(C / dt + 0.5 * K, C / dt - 0.5 * K)
    assert np.max(np.abs(np.linalg.eigvals(A))) <= 1.0 + 1e-10


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(min_value=1e-3, max_value=1e3),
       dt=st.floats(min_value=1e-3, max_value=1e3),
       u0=st.floats(min_value=-10.0, max_value=10.0))
def test_cn_step_never_amplifies_decay(lam, dt, u0):
    def assembler(u):
        return toy_system(triangle_matrix(lam * np.eye(3), lam * np.eye(3)), u)

    u, _, _, _ = solver.crank_nicolson_step(assembler, np.full(6, u0), dt,
                                            IDENTITY_6DOF,
                                            solver.SolverConfig())
    assert abs(u[0]) <= abs(u0) + 1e-12


def spy_newton_work(monkeypatch):
    """Counts of reduce_matrix, capacity derivative and factorize calls."""
    counts = {"reduce": 0, "capacity": 0, "factor": 0}

    def counted(key, fn):
        def spy(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(fem.ConstraintMap, "reduce_matrix",
                        counted("reduce", fem.ConstraintMap.reduce_matrix))
    monkeypatch.setattr(fem, "capacity_jacobian_diagonals",
                        counted("capacity", fem.capacity_jacobian_diagonals))
    monkeypatch.setattr(solver, "factorize",
                        counted("factor", solver.factorize))
    return counts


def running_cell_r2():
    return hom.CellProblem(
        meshmod.generate_masonry_cell(0.29, 0.14, 0.01, bond="running",
                                      resolution=2),
        constitutive.default_materials())


LOADING = hom.MacroLoading(12.0, 0.6, (30.0, -10.0), (0.5, 1.0), dt=3600.0)


def cell_increment_with_tangent():
    cell = running_cell_r2()
    hom.solve_rve_increment(cell, cell.initial_state(LOADING), LOADING,
                            want_tangents=True)


@pytest.mark.parametrize("run, tangents", [(wall_step, 0),
                                           (cell_increment_with_tangent, 1)],
                         ids=["wall", "cell"])
def test_newton_builds_a_system_only_to_factor_it(run, tangents, monkeypatch):
    # a residual evaluation defers its Newton matrix: the capacity
    # derivatives and the reduction run once per factorization, and the
    # tangent reduces its own system once more
    counts = spy_newton_work(monkeypatch)
    run()
    assert counts["factor"] >= 2
    assert counts["capacity"] == counts["factor"]
    assert counts["reduce"] == counts["factor"] + tangents


def test_increment_at_its_root_builds_no_system(monkeypatch):
    # a uniform cell state under its own loading and no gradient is
    # already the solution of its increment
    counts = spy_newton_work(monkeypatch)
    cell = running_cell_r2()
    loading = hom.MacroLoading(15.0, 0.6, (0.0, 0.0), (0.0, 0.0), dt=3600.0)
    traces = []
    newton = solver.newton_solve

    def traced(*args, **kwargs):
        z, trace = newton(*args, **kwargs)
        traces.append(trace)
        return z, trace

    monkeypatch.setattr(solver, "newton_solve", traced)
    hom.solve_rve_increment(cell, cell.initial_state(loading), loading)
    (trace,) = traces
    assert len(trace) == 1
    assert counts == {"reduce": 0, "capacity": 0, "factor": 0}


def wall_step_with(wrap):
    """One step of a small Dirichlet wall; wrap(assembler) is stepped."""
    m = meshmod.generate_masonry_wall(0.29, 0.14, 0.01, 2, 2, "running", 2)
    left = np.unique(m.boundary["left"])
    cmap = fem.dirichlet_map(2 * m.n_nodes,
                             {**{i: 5.0 for i in left},
                              **{m.n_nodes + i: 0.8 for i in left}})
    u_n = fem.FieldState.uniform(m.n_nodes, 20.0, 0.5).vector()
    assembler = partial(solver._assemble, m, constitutive.default_materials())
    solver.crank_nicolson_step(wrap(assembler), u_n, 3600.0, cmap,
                               solver.SolverConfig())


def cell_increment_with(wrap):
    """One increment of an r=2 running-bond cell, its assembler wrapped."""
    cell = running_cell_r2()
    cell._assembler = wrap(cell._assembler)
    hom.solve_rve_increment(cell, cell.initial_state(LOADING), LOADING)


def wall_solve_with(wrap):
    """Four steps of a small Dirichlet wall by transient_solve, which holds
    Newton factors across them; wrap(assembler) is the assembler."""
    m = meshmod.generate_masonry_wall(0.29, 0.14, 0.01, 2, 2, "running", 2)
    mats = constitutive.default_materials()
    real = solver._assemble
    assembler = wrap(partial(real, m, mats))
    solver._assemble = lambda mesh, materials, u: assembler(u)
    try:
        hist = solver.transient_solve(
            m, mats, ColdWetLeft(),
            fem.FieldState.uniform(m.n_nodes, 20.0, 0.5), 1.0, 4.0)
    finally:
        solver._assemble = real
    assert sum(hist.factorizations) < sum(hist.newton_iterations)


def stiff_retry_with(wrap):
    """The stiff toy step through step_with_retry, wrap(assembler) stepped:
    the full step halves rejected trials and fails, two half steps pass."""
    cfg = solver.SolverConfig(max_iterations=60)
    assembler = wrap(stiff_exponential_assembler)

    def step(u_n, dt, cmap):
        u, trace, _, _ = solver.crank_nicolson_step(assembler, u_n, dt, cmap,
                                                    cfg)
        return u, len(trace) - 1, len(trace) - 1

    solver.step_with_retry(step, TRIANGLE, StiffPins(), STIFF_START,
                           1.0 / 3600.0, 1.0 / 3600.0)


class ColdWetLeft:
    """The left face held at 5 C and phi 0.8."""

    def dirichlet_values(self, mesh, t):
        left = np.unique(mesh.boundary["left"])
        return {**{int(i): 5.0 for i in left},
                **{mesh.n_nodes + int(i): 0.8 for i in left}}


class SpiedFactors:
    """SuperLU factors behind a proxy that a weak reference can follow."""

    def __init__(self, lu):
        self.lu, self.shape = lu, lu.shape

    def solve(self, rhs):
        return self.lu.solve(rhs)


@pytest.mark.parametrize("run", [wall_step_with, cell_increment_with,
                                 wall_solve_with, stiff_retry_with],
                         ids=["wall", "cell", "held-wall", "halved-toy"])
def test_factored_evaluation_is_dropped_before_its_factorization(run,
                                                                 monkeypatch):
    # the system of every evaluation, its K and its materials included,
    # the one whose Newton system is factored too, is gone once SuperLU
    # runs: only the bordered matrix stays alive through a
    # factorization, of a large wall as of a cell. No evaluation lives
    # on into the next one either, and held factors are dropped before
    # new ones are made
    refs, alive, alive_at_eval, factors, held = [], [], [], [], []

    def count(refs):
        return sum(ref() is not None for ref in refs)

    def wrap(assemble):
        def assembler(u):
            alive_at_eval.append(count(refs))
            out = assemble(u)
            refs.extend([weakref.ref(out), weakref.ref(out.conductivity),
                         weakref.ref(out.materials)])
            return out
        return assembler

    factorize = solver.factorize

    def spy(matrix):
        alive.append(count(refs))
        held.append(count(factors))
        lu = SpiedFactors(factorize(matrix))
        factors.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(solver, "factorize", spy)
    run(wrap)
    assert len(alive) >= 2 and len(alive_at_eval) > len(alive)
    assert alive == [0] * len(alive)
    assert alive_at_eval == [0] * len(alive_at_eval)
    assert held == [0] * len(held)


def test_crank_nicolson_step_returns_the_accepted_evaluation():
    # the returned system is the one at the returned state: its K u is
    # the returned old data, its coefficients, storage and capacity
    # terms are those of a fresh evaluation there, bit for bit
    cell = running_cell_r2()
    u_n = cell.total_vector(cell.initial_state(LOADING))
    cmap = cell.reduction.map_for(LOADING.theta, LOADING.phi,
                                  LOADING.grad_theta, LOADING.grad_phi)
    u_new, trace, old, sysm = solver.crank_nicolson_step(
        cell._assembler, u_n, LOADING.dt, cmap, cell.config)
    assert len(trace) > 2
    assert np.array_equal(sysm.conductivity @ u_new, old)
    state = fem.FieldState.from_vector(u_new)
    ref = fem.CentroidMaterials(cell.mesh, state.theta, state.phi,
                                cell.materials).coefficients()
    for name in ("k_tt", "k_tf", "k_ft", "k_ff", "c_tt", "c_ff"):
        assert np.array_equal(getattr(sysm.coeff, name),
                              getattr(ref, name)), name
    fresh = fem.assemble_system(cell.mesh, state, cell.materials)
    assert np.array_equal(sysm.storage_diagonal(), fresh.storage_diagonal())
    gtt, gff = fem.capacity_jacobian_diagonals(sysm)
    ref_tt, ref_ff = fem.capacity_jacobian_diagonals(fresh)
    assert np.array_equal(gtt, ref_tt) and np.array_equal(gff, ref_ff)


# --------------------------------------------------------- held factors


def linear_residual(A, b, weights=lambda z: np.ones(z.size), seen=None):
    """residual_jacobian of w(z) (A z - b), rows scaled by w(z), with the
    weights a holder needs; `seen` collects every evaluated iterate."""

    def residual_jacobian(z):
        if seen is not None:
            seen.append(z.copy())
        w = weights(z)
        return (w * (A @ z - b),
                lambda: (sp.csc_matrix(sp.diags(w) @ A), np.arange(z.size)),
                w)

    return residual_jacobian


def counted_factorize(monkeypatch):
    calls = []
    factorize = solver.factorize

    def spy(matrix):
        calls.append(matrix.shape)
        return factorize(matrix)

    monkeypatch.setattr(solver, "factorize", spy)
    return calls


A3 = sp.csc_matrix(np.array([[4.0, -1.0, 0.0],
                             [-1.0, 4.0, -1.0],
                             [0.0, -1.0, 3.0]]))


def test_exact_held_factors_are_not_refactored(monkeypatch):
    # the residual is linear, so the held factors are its exact Jacobian:
    # one factorization serves every later call, each in one update
    calls = counted_factorize(monkeypatch)
    held = solver.HeldFactors()
    cfg = solver.SolverConfig()
    for k in range(4):
        b = np.array([1.0, -2.0, 0.5]) * (k + 1)
        z, trace = solver.newton_solve(linear_residual(A3, b), np.zeros(3),
                                       cfg, held)
        assert len(trace) == 2 and trace[-1] <= cfg.newton_tol * trace[0]
        assert np.allclose(A3 @ z, b, rtol=0.0, atol=1e-13)
    assert len(calls) == held.factorizations == 1


def test_factors_that_no_longer_reduce_are_refactored_in_place(monkeypatch):
    # held factors of slope 1 give an update 2.25 times too long for a
    # slope of 2.25: the trial grows the residual by 1.25, which a fresh
    # update's damping would accept. A held-factor trial must reduce it,
    # so this one is discarded, not halved, and a fresh factorization at
    # the same iterate lands on the root
    calls = counted_factorize(monkeypatch)
    held = solver.HeldFactors()
    cfg = solver.SolverConfig()
    one = sp.csc_matrix([[1.0]])
    solver.newton_solve(linear_residual(one, np.array([2.0])),
                        np.zeros(1), cfg, held)
    assert held.factorizations == 1 and held.lu is not None
    seen = []
    z, trace = solver.newton_solve(
        linear_residual(2.25 * one, np.array([2.25]), seen=seen),
        np.zeros(1), cfg, held)
    assert [float(v[0]) for v in seen] == [0.0, 2.25, 0.0, 1.0]
    assert held.factorizations == 2 and len(calls) == 2
    # the discarded trial is no iteration: one update from the start,
    # whose residual set the target
    assert trace == [2.25, 0.0] and z[0] == 1.0


def test_held_factors_rescale_the_residual_to_their_rows(monkeypatch):
    # the rows are scaled by weights that change with the iterate: the
    # held factors, built at z = 0, solve A dz = -(A z - b) only when the
    # residual is moved into their rows' scaling; then a linear residual
    # converges in one held update from any start
    calls = counted_factorize(monkeypatch)
    held = solver.HeldFactors()
    cfg = solver.SolverConfig(newton_tol=1e-12)

    def weights(z):
        return 1.0 / (1.0 + z * z)

    solver.newton_solve(linear_residual(A3, np.ones(3), weights),
                        np.zeros(3), cfg, held)
    assert np.array_equal(held.weights, np.ones(3))
    b = np.array([3.0, -1.0, 2.0])
    seen = []
    z, trace = solver.newton_solve(linear_residual(A3, b, weights, seen),
                                   np.array([2.0, 1.0, -3.0]), cfg, held)
    assert len(calls) == 1 and len(seen) == 2 and len(trace) == 2
    ref = spla.spsolve(A3, b)
    assert np.abs(z - ref).max() <= 1e-13 * np.abs(ref).max()


def test_a_discarded_held_update_is_no_iteration_of_the_budget(monkeypatch):
    # the held factors' trial grows the residual and is discarded; the
    # fresh update that follows lands on the root. With a budget of one
    # iteration, that update is the one iteration
    calls = counted_factorize(monkeypatch)
    held = solver.HeldFactors()
    one = sp.csc_matrix([[1.0]])
    solver.newton_solve(linear_residual(one, np.array([2.0])), np.zeros(1),
                        solver.SolverConfig(), held)
    z, trace = solver.newton_solve(
        linear_residual(2.25 * one, np.array([2.25])), np.zeros(1),
        solver.SolverConfig(max_iterations=1), held)
    assert trace == [2.25, 0.0] and z[0] == 1.0
    assert len(calls) == held.factorizations == 2


def test_a_held_update_is_one_iteration_of_the_budget(monkeypatch):
    # exact held factors converge in one update, which a budget of one
    # iteration allows, and factor nothing
    calls = counted_factorize(monkeypatch)
    held = solver.HeldFactors()
    b = np.array([1.0, -2.0, 0.5])
    solver.newton_solve(linear_residual(A3, b), np.zeros(3),
                        solver.SolverConfig(), held)
    cfg = solver.SolverConfig(max_iterations=1)
    z, trace = solver.newton_solve(linear_residual(A3, 2.0 * b), np.zeros(3),
                                   cfg, held)
    assert len(trace) == 2 and trace[-1] <= cfg.newton_tol * trace[0]
    assert np.allclose(A3 @ z, 2.0 * b, rtol=0.0, atol=1e-13)
    assert len(calls) == held.factorizations == 1


def test_factors_held_for_another_step_size_are_dropped(monkeypatch):
    # the Crank-Nicolson matrix K/2 + C/dt changes with dt: a holder
    # serves one step size, and a new one factors afresh. The decay is
    # linear, so steps of one size share one factorization, and every
    # step equals the step without a holder bit for bit
    calls = counted_factorize(monkeypatch)
    held = solver.HeldFactors()
    u, ref = np.ones(6), np.ones(6)
    for dt, new in [(1.0, 1), (1.0, 0), (0.5, 1), (0.5, 0), (1.0, 1)]:
        before = len(calls)
        u, trace, _, _ = solver.crank_nicolson_step(
            scalar_decay_assembler, u, dt, IDENTITY_6DOF,
            solver.SolverConfig(), held=held)
        assert len(calls) - before == new and len(trace) == 2
        ref, _, _, _ = solver.crank_nicolson_step(
            scalar_decay_assembler, ref, dt, IDENTITY_6DOF,
            solver.SolverConfig())
        assert np.array_equal(u, ref)
    assert held.factorizations == 3


@pytest.mark.parametrize("run", [
    lambda: solver.newton_solve(
        lambda z: unit_weights(np.array([z[0] ** 2 - 4.0]),
                               lambda: (sp.csr_matrix([[2.0 * z[0]]]), [0])),
        np.array([3.0]), solver.SolverConfig(newton_tol=1e-13))[1],
    lambda: solver.crank_nicolson_step(
        stiff_exponential_assembler, STIFF_START.vector(), 0.5,
        fem.dirichlet_map(6, STIFF_PINS),
        solver.SolverConfig(max_iterations=60))[1]],
    ids=["sqrt", "stiff-cn"])
def test_without_a_holder_every_iteration_factors(run, monkeypatch):
    calls = counted_factorize(monkeypatch)
    trace = run()
    assert len(trace) > 3 and len(calls) == len(trace) - 1


def humid_climate_schedule(seed):
    """The seed's synthetic climate, temperature and humidity, on the
    left face; the right face held at 20 C and phi 0.5."""
    climate = synthetic_annual_climate(seed)
    return BoundarySchedule(
        {"left": BoundaryRule("theta", series=climate),
         "right": BoundaryRule("theta", constant=20.0)},
        {"left": BoundaryRule("phi", series=climate),
         "right": BoundaryRule("phi", constant=0.5)})


def test_fine_solve_with_held_factors_meets_every_newton_target(caplog):
    # six hours of a 2 x 2-cell r=2 wall under the climate's temperature
    # and humidity: the held factors serve most iterations, every step
    # meets Newton's target by a recomputation of ||w T'R||, none is
    # retried, and the final state agrees with steps of fresh Newton
    m = meshmod.generate_masonry_wall(0.29, 0.14, 0.01, 2, 2, "running", 2)
    mats = constitutive.default_materials()
    schedule = humid_climate_schedule(0)
    initial = fem.FieldState.uniform(m.n_nodes, 20.0, 0.5)
    cfg = solver.SolverConfig()
    caplog.set_level("WARNING", logger="hamfe2.solver")
    hist = solver.transient_solve(m, mats, schedule, initial, 1.0, 6.0, cfg)
    assert not caplog.records
    assert sum(hist.factorizations) < sum(hist.newton_iterations)
    assert hist.factorizations[0] == 0 and min(hist.factorizations[1:]) >= 0

    dt = 3600.0

    def parts(u):
        sysm = fem.assemble_system(m, fem.FieldState.from_vector(u), mats)
        return sysm.conductivity @ u, sysm.storage_diagonal()

    assembler = partial(solver._assemble, m, mats)
    u_ref = initial.vector()
    for k in range(1, len(hist.states)):
        u0, u1 = hist.states[k - 1].vector(), hist.states[k].vector()
        cmap = fem.dirichlet_map(2 * m.n_nodes,
                                 schedule.dirichlet_values(m, k * dt))
        fint0, _ = parts(u0)

        def scaled_norm(u):
            fint, C = parts(u)
            R = C * (u - u0) / dt + 0.5 * (fint + fint0)
            w = 1.0 / np.maximum(C[cmap.free_index], 1e-300)
            return np.linalg.norm(w * (cmap.T.T @ R))

        start = cmap.expand(cmap.initial_reduced(u0))
        assert scaled_norm(u1) <= max(cfg.newton_tol * scaled_norm(start),
                                      cfg.newton_floor), k
        u_ref, _, _, _ = solver.crank_nicolson_step(assembler, u_ref, dt,
                                                    cmap, cfg)
    final = hist.final
    n = m.n_nodes
    assert np.abs(final.theta - u_ref[:n]).max() <= 1e-6
    assert np.abs(final.phi - u_ref[n:]).max() <= 1e-6
