"""Time stepping and Newton iteration tests.

Reference values are produced by the plain-python oracles below and
frozen into FROZEN; the solver must reproduce them through its own code
path.
"""

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


def scalar_decay_assembler(u, t):
    return sp.csr_matrix([[1.0]]), np.array([1.0]), np.array([0.0])


IDENTITY_1DOF = fem.dirichlet_map(1, {})


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


def test_cn_scalar_decay_frozen():
    u, trace, _ = solver.crank_nicolson_step(
        scalar_decay_assembler, np.array([1.0]), 0.0, 1.0,
        IDENTITY_1DOF, solver.SolverConfig())
    assert abs(u[0] - FROZEN["cn_decay_step"]) < 1e-14
    assert len(trace) - 1 == 1  # linear problem converges in one update


def test_newton_iterates_match_oracle():
    oracle = oracle_newton_sqrt(3.0, 3)
    for got, frozen in zip(oracle, FROZEN["newton_iterates"]):
        assert abs(got - frozen) < 5e-15 + 1e-14 * abs(frozen)

    seen = []

    def residual_jacobian(z):
        seen.append(float(z[0]))
        return np.array([z[0] ** 2 - 4.0]), sp.csr_matrix([[2.0 * z[0]]]), [0]

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
    def residual_jacobian(z):
        return np.array([z[0] ** 2 - 4.0]), sp.csr_matrix([[2.0 * z[0]]]), [0]

    z, trace = solver.newton_solve(residual_jacobian, np.array([2.0]),
                                   solver.SolverConfig())
    assert z[0] == 2.0 and len(trace) == 1


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_newton_non_finite_start_residual_raises(bad):
    # an infinite start residual would set an infinite target and pass
    # as converged after zero iterations
    def residual_jacobian(z):
        return np.array([bad, 1.0]), sp.identity(2, format="csr"), [0, 1]

    with pytest.raises(solver.SolverError, match="start iterate") as err:
        solver.newton_solve(residual_jacobian, np.zeros(2),
                            solver.SolverConfig())
    assert len(err.value.trace) == 1 and not np.isfinite(err.value.trace[0])


def test_newton_failure_reports_trace():
    def residual_jacobian(z):
        return np.array([z[0] ** 2 + 1.0]), sp.csr_matrix([[2.0 * z[0]]]), [0]

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
        return np.array([1.0, -2.0]), jac, np.array([0, 1])

    with pytest.raises(solver.SolverError) as err:
        solver.newton_solve(residual_jacobian, np.zeros(2),
                            solver.SolverConfig())
    assert "linear solve failed" in str(err.value)
    assert err.value.trace == [pytest.approx(np.sqrt(5.0))]


def first_newton_system(monkeypatch, run):
    """(matrix, rows) of the first Newton system that run() factors."""
    seen = []
    bordered = fem.ConstraintMap.newton_system

    def spy(cmap, J, C):
        matrix, scaled, rows = bordered(cmap, J, C)
        seen.append((matrix, rows))
        return matrix, scaled, rows

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
    solver.crank_nicolson_step(assembler, u_n, 0.0, 3600.0, cmap,
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


def test_cn_temporal_order_two():
    errs = []
    for dt in (0.25, 0.125, 0.0625):
        u = np.array([1.0])
        t, old = 0.0, None
        for _ in range(int(round(1.0 / dt))):
            u, _, old = solver.crank_nicolson_step(
                scalar_decay_assembler, u, t, dt, IDENTITY_1DOF,
                solver.SolverConfig(), old)
            t += dt
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


def stiff_exponential_assembler(u, t):
    # conductivity exp(u/2) makes the frozen-coefficient iteration
    # diverge at dt = 1 but converge at dt = 1/2; both dofs of the one
    # node obey the same decoupled equation
    return sp.diags(np.exp(0.5 * u)).tocsr(), np.ones(2), np.full(2, 10.0)


class OneNode:
    """The node of the stiff test problem, without boundary data."""

    n_nodes = 1

    def dirichlet_values(self, mesh, t):
        return {}


def stiff_step(cfg, log):
    """step callable of step_with_retry that records its step sizes."""
    old = None

    def step(u_n, t_n, dt, cmap):
        nonlocal old
        log.append(dt)
        u, trace, old = solver.crank_nicolson_step(
            stiff_exponential_assembler, u_n, t_n, dt, cmap, cfg, old)
        return u, len(trace) - 1

    return step


def stiff_solve(cfg, log):
    """One step of one second from u = 0 through step_with_retry."""
    one = OneNode()
    return solver.step_with_retry(stiff_step(cfg, log), one, one,
                                  fem.FieldState.uniform(1, 0.0, 0.0),
                                  1.0 / 3600.0, 1.0 / 3600.0, cfg)


def test_step_retry_halves_once():
    cfg = solver.SolverConfig(max_iterations=60)
    with pytest.raises(solver.SolverError):
        solver.crank_nicolson_step(stiff_exponential_assembler, np.zeros(2),
                                   0.0, 1.0, fem.dirichlet_map(2, {}), cfg)
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


def test_step_retry_disabled_propagates():
    log = []
    with pytest.raises(solver.SolverError):
        stiff_solve(solver.SolverConfig(max_iterations=60,
                                        retry_halving=False), log)
    assert log == [1.0]


def test_step_retry_leaves_other_errors_alone():
    # only SolverError is retried; any other failure, such as a dead
    # worker pool, ends the run at once
    calls = []

    def step(u_n, t_n, dt, cmap):
        calls.append(dt)
        raise RuntimeError("pool is gone")

    one = OneNode()
    with pytest.raises(RuntimeError):
        solver.step_with_retry(step, one, one,
                               fem.FieldState.uniform(1, 0.0, 0.0),
                               1.0, 1.0, solver.SolverConfig())
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
    K = sysm.stiffness().toarray()
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
    def assembler(u, t):
        return sp.csr_matrix([[lam]]), np.array([1.0]), np.array([0.0])

    u, _, _ = solver.crank_nicolson_step(assembler, np.array([u0]), 0.0, dt,
                                         IDENTITY_1DOF, solver.SolverConfig())
    assert abs(u[0]) <= abs(u0) + 1e-12
