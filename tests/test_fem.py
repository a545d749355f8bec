"""Element matrices, assembly, and constraint elimination."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from hamfe2 import fem, homogenization as hom, mesh as msh, solver
from hamfe2.constitutive import CoefficientSet, LinearMaterial, default_materials

UNIT_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# hand-derived stiffness of the unit right triangle with unit conductivity
K_UNIT = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])


def element_matrices(coords, coeff: CoefficientSet):
    """Single-element 6x6 conductivity and lumped storage (diagonal).

    coords is (3, 2); dofs are field-major [t1 t2 t3 f1 f2 f3]. The
    storage matrix is returned as its diagonal of length 6. Reference
    for the vectorized assembly.
    """
    coords = np.asarray(coords, dtype=float)
    area = 0.5 * ((coords[1, 0] - coords[0, 0]) * (coords[2, 1] - coords[0, 1])
                  - (coords[2, 0] - coords[0, 0]) * (coords[1, 1] - coords[0, 1]))
    if area <= 0.0:
        raise fem.FemError(f"degenerate or clockwise element (area {area:g})")
    g = np.array([[coords[1, 1] - coords[2, 1], coords[2, 0] - coords[1, 0]],
                  [coords[2, 1] - coords[0, 1], coords[0, 0] - coords[2, 0]],
                  [coords[0, 1] - coords[1, 1], coords[1, 0] - coords[0, 0]]]) \
        / (2.0 * area)
    s = area * g @ g.T
    k = np.zeros((6, 6))
    k[:3, :3] = coeff.k_tt * s
    k[:3, 3:] = coeff.k_tf * s
    k[3:, :3] = coeff.k_ft * s
    k[3:, 3:] = coeff.k_ff * s
    c = np.concatenate([np.full(3, coeff.c_tt * area / 3.0),
                        np.full(3, coeff.c_ff * area / 3.0)])
    return k, c


def internal_flux(system, u):
    """K u for the full field-major vector u, block by block."""
    n = system.n_nodes
    th, ph = u[:n], u[n:]
    K = system.K
    return np.concatenate([K[:n, :n] @ th + K[:n, n:] @ ph,
                           K[n:, :n] @ th + K[n:, n:] @ ph])


def one_field_scatter(ws, data):
    """N x N csr matrix of raveled (M*9,) element entries on the one-field
    pattern; the per-block scatter the two-field skeleton replaced."""
    summed = np.bincount(ws.csr_pos, weights=data, minlength=ws.csr_nnz)
    n = ws.mesh.n_nodes
    return sp.csr_matrix((summed, ws.csr_indices, ws.csr_indptr), shape=(n, n))


def bmat_stiffness(mesh, state, materials):
    """Conductivity joined from four one-field scatters by sp.bmat.

    Reference for the two-field skeleton of fem.assemble_system.
    """
    ws = fem.workspace(mesh)
    coeff = fem.evaluate_coefficients(mesh, state, materials)

    def kblock(vals):
        return one_field_scatter(ws, (vals[:, None, None] * ws.pattern).ravel())

    return sp.bmat([[kblock(coeff.k_tt), kblock(coeff.k_tf)],
                    [kblock(coeff.k_ft), kblock(coeff.k_ff)]], format="csr")


def diags_newton_matrix(K, C, cap, u, u_n, dt):
    """Crank-Nicolson Newton matrix C/dt + K/2 plus the capacity coupling,
    built from sp.diags and a coo matrix. Reference for the in-place
    diagonal updates of solver.crank_nicolson_step."""
    J = sp.diags(C / dt) + 0.5 * K
    gtt, gff = cap
    n = gtt.size
    rate = (u - u_n) / dt
    rows = np.concatenate([np.arange(n), np.arange(n, 2 * n)])
    cols = np.tile(np.arange(n, 2 * n), 2)
    data = np.concatenate([gtt * rate[:n], gff * rate[n:]])
    return J + sp.csr_matrix((data, (rows, cols)), shape=J.shape)


def assert_same_csr(a, b):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def without_zeros(A):
    A = A.copy()
    A.eliminate_zeros()
    return A


def reduce_system(cmap, A, b):
    """Bordered system of A u = b; its solution at cmap.z_rows is z."""
    rhs = np.zeros(cmap.size)
    rhs[cmap.z_rows] = cmap.reduce_vector(b - A @ cmap.g)
    return cmap.reduce_matrix(A), rhs


def apply_dirichlet(system, values):
    """Reduced steady operator (A_red, b_red, cmap) for K u = f.

    values maps full field-major dof indices to prescribed values.
    """
    cmap = fem.dirichlet_map(2 * system.n_nodes, values)
    A_red, b_red = reduce_system(cmap, system.stiffness(), system.f)
    return A_red, b_red, cmap


def apply_periodic_constraints(system, mesh, pairing, grad_theta, grad_phi,
                               value_theta=0.0, value_phi=0.0):
    """Bordered steady periodic cell system (A_red, b_red, cmap).

    Slave dofs equal their master plus the affine offset grad . dx; the
    weighted mean of each field is anchored to its macro value. The
    solution's entries at cmap.z_rows are the reduced unknowns.
    """
    red = fem.PeriodicReduction(mesh, pairing)
    cmap = red.map_for(value_theta, value_phi, grad_theta, grad_phi)
    A_red, b_red = reduce_system(cmap, system.stiffness(), system.f)
    return A_red, b_red, cmap


def dense_newton_system(cmap, J, C):
    """Newton matrix of the congruence T'JT, rows scaled by the storage.

    The periodic T eliminates each mean constraint through an anchor
    dof, whose row of T couples every reduced unknown, so this matrix
    is dense. Reference for ConstraintMap.newton_system.
    """
    w = 1.0 / np.maximum(C[cmap.free_index], 1e-300)
    return (sp.diags(w) @ (cmap.T.T @ J @ cmap.T)).tocsr(), \
        lambda R: w * cmap.reduce_vector(R)


class DenseCongruenceMap(fem.ConstraintMap):
    """A constraint map whose Newton systems are the dense congruence."""

    def __init__(self, cmap):
        super().__init__(cmap.T, cmap.g, cmap.free_index, cmap.rows,
                         cmap.row_dofs, cmap.border)
        self.z_rows = np.arange(self.n_free)

    def newton_system(self, J, C):
        return dense_newton_system(self, J, C)


LOADING = hom.MacroLoading(12.0, 0.6, (30.0, -10.0), (0.5, 1.0), dt=3600.0)


def running_cell(resolution):
    cell = msh.generate_masonry_cell(0.29, 0.14, 0.01, bond="running",
                                     resolution=resolution)
    return hom.CellProblem(cell, default_materials())


def unit_coeff(**kw):
    base = dict(k_tt=0.0, k_tf=0.0, k_ft=0.0, k_ff=0.0, c_tt=0.0, c_ff=0.0)
    base.update(kw)
    return CoefficientSet(**base)


def test_element_matrices_unit_triangle():
    k, c = element_matrices(UNIT_TRI, unit_coeff(k_tt=1.0, c_tt=1.0))
    assert np.allclose(k[:3, :3], K_UNIT, atol=1e-14)
    assert np.allclose(k[3:, :], 0.0) and np.allclose(k[:3, 3:], 0.0)
    assert np.allclose(c[:3], 1.0 / 6.0, atol=1e-15)
    assert np.allclose(c[3:], 0.0)
    # coupling blocks scale the same pattern
    k2, _ = element_matrices(UNIT_TRI, unit_coeff(k_tf=2.0, k_ft=0.5, k_ff=3.0))
    assert np.allclose(k2[:3, 3:], 2.0 * K_UNIT, atol=1e-14)
    assert np.allclose(k2[3:, :3], 0.5 * K_UNIT, atol=1e-14)
    assert np.allclose(k2[3:, 3:], 3.0 * K_UNIT, atol=1e-14)


def test_element_matrices_rejects_degenerate():
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(fem.FemError):
        element_matrices(flat, unit_coeff(k_tt=1.0))
    clockwise = UNIT_TRI[[0, 2, 1]]
    with pytest.raises(fem.FemError):
        element_matrices(clockwise, unit_coeff(k_tt=1.0))


def test_assembly_matches_element_scatter_oracle():
    m = msh.generate_rectangle_mesh(1.3, 0.8, 3, 2)
    mat = LinearMaterial("m", k_tt=2.0, k_ff=0.7, c_tt=5.0, c_ff=3.0,
                         k_tf=0.25, k_ft=0.1)
    state = fem.FieldState.uniform(m.n_nodes, 10.0, 0.5)
    sys = fem.assemble_system(m, state, {"solid": mat})

    n = m.n_nodes
    K = np.zeros((2 * n, 2 * n))
    C = np.zeros(2 * n)
    for tri in m.triangles:
        ke, ce = element_matrices(m.nodes[tri], mat.coefficients(0.0, 0.0))
        dofs = np.concatenate([tri, n + tri])
        K[np.ix_(dofs, dofs)] += ke
        C[dofs] += ce
    assert np.allclose(sys.stiffness().toarray(), K, atol=1e-12)
    assert np.allclose(sys.storage_diagonal(), C, atol=1e-12)
    assert np.allclose(sys.f, 0.0)


def test_linear_field_is_flux_free_inside():
    # P1 elements reproduce linear fields exactly: K u vanishes at
    # interior nodes for u = a + b.x
    m = msh.generate_rectangle_mesh(2.0, 1.0, 5, 4)
    mat = LinearMaterial("m", k_tt=1.7, k_ff=0.3, c_tt=1.0, c_ff=1.0)
    state = fem.FieldState.uniform(m.n_nodes, 0.0, 0.5)
    sys = fem.assemble_system(m, state, {"solid": mat})
    u = np.concatenate([1.0 + 2.0 * m.nodes[:, 0] - 0.5 * m.nodes[:, 1],
                        np.full(m.n_nodes, 0.5)])
    res = internal_flux(sys, u)
    x0, x1, y0, y1 = m.extent()
    interior = (m.nodes[:, 0] > x0 + 1e-9) & (m.nodes[:, 0] < x1 - 1e-9) \
        & (m.nodes[:, 1] > y0 + 1e-9) & (m.nodes[:, 1] < y1 - 1e-9)
    assert np.max(np.abs(res[:m.n_nodes][interior])) < 1e-12


def test_dirichlet_solve_reproduces_linear_profile():
    m = msh.generate_rectangle_mesh(2.0, 1.0, 4, 3)
    mat = LinearMaterial("m", k_tt=1.0, k_ff=1.0, c_tt=1.0, c_ff=1.0)
    state = fem.FieldState.uniform(m.n_nodes, 0.0, 0.5)
    sys = fem.assemble_system(m, state, {"solid": mat})
    n = m.n_nodes
    left = np.unique(m.boundary["left"])
    right = np.unique(m.boundary["right"])
    values = {}
    for i in left:
        values[i] = 0.0
        values[n + i] = 0.3
    for i in right:
        values[i] = 4.0
        values[n + i] = 0.3
    A, b, cmap = apply_dirichlet(sys, values)
    u = cmap.expand(spla.spsolve(A.tocsc(), b))
    # prescribed dofs exact, interior linear in x, phi uniform
    for dof, val in values.items():
        assert u[dof] == val
    assert np.allclose(u[:n], 2.0 * m.nodes[:, 0], atol=1e-12)
    assert np.allclose(u[n:], 0.3, atol=1e-12)


def test_dirichlet_map_errors():
    with pytest.raises(fem.FemError):
        fem.dirichlet_map(4, {5: 1.0})
    m = msh.generate_rectangle_mesh(1.0, 1.0, 1, 1)
    mat = LinearMaterial("m", k_tt=1.0, k_ff=1.0, c_tt=1.0, c_ff=1.0)
    short = fem.FieldState.uniform(2, 0.0, 0.5)
    with pytest.raises(fem.FemError):
        fem.assemble_system(m, short, {"solid": mat})


def test_field_state_validation():
    with pytest.raises(fem.FemError):
        fem.FieldState(np.zeros(3), np.zeros(4))
    with pytest.raises(fem.FemError):
        fem.FieldState(np.array([np.nan, 0.0]), np.zeros(2))
    s = fem.FieldState.uniform(5, 20.0, 0.5, time=3.0)
    r = fem.FieldState.from_vector(s.vector(), time=3.0)
    assert np.array_equal(r.theta, s.theta) and np.array_equal(r.phi, s.phi)


def test_neumann_edge_loads():
    m = msh.generate_rectangle_mesh(1.0, 2.0, 2, 2)
    mat = LinearMaterial("m", k_tt=1.0, k_ff=1.0, c_tt=1.0, c_ff=1.0)
    state = fem.FieldState.uniform(m.n_nodes, 0.0, 0.5)
    sys = fem.assemble_system(m, state, {"solid": mat},
                              neumann={("theta", "right"): 3.0})
    n = m.n_nodes
    # total imposed flux = density * side length
    assert sys.f[:n].sum() == pytest.approx(3.0 * 2.0, rel=1e-12)
    assert np.all(sys.f[n:] == 0.0)
    right = np.unique(m.boundary["right"])
    assert np.all(sys.f[:n][right] > 0.0)
    with pytest.raises(fem.FemError):
        fem.assemble_system(m, state, {"solid": mat}, neumann={("theta", "nope"): 1.0})


def test_periodic_map_offsets_and_anchor():
    cell = msh.generate_masonry_cell(0.27, 0.27, 0.03, resolution=2)
    pairing = msh.detect_periodic_pairs(cell)
    red = fem.PeriodicReduction(cell, pairing)
    gt = np.array([3.0, -1.0])
    gf = np.array([0.2, 0.1])
    cmap = red.map_for(21.0, 0.6, gt, gf)
    rng = np.random.default_rng(7)
    z = rng.normal(size=cmap.n_free)
    u = cmap.expand(z)
    n = cell.n_nodes
    for m_i, s_i, off in zip(pairing.masters, pairing.slaves, pairing.offsets):
        assert u[s_i] - u[m_i] == pytest.approx(gt @ off, abs=1e-10)
        assert u[n + s_i] - u[n + m_i] == pytest.approx(gf @ off, abs=1e-10)
    # weighted mean of the fluctuation vanishes per field
    w = fem.workspace(cell).node_areas
    fluct = u - cmap.g
    assert abs(w @ fluct[:n]) < 1e-10 * w.sum()
    assert abs(w @ fluct[n:]) < 1e-10 * w.sum()
    # reduction round trip
    assert np.allclose(cmap.initial_reduced(u), z, atol=1e-12)


def test_periodic_steady_homogeneous_cell_fluctuation_free():
    cell = msh.generate_rectangle_mesh(0.4, 0.3, 3, 3)
    mat = LinearMaterial("m", k_tt=2.0, k_ff=0.5, c_tt=1.0, c_ff=1.0)
    state = fem.FieldState.uniform(cell.n_nodes, 0.0, 0.5)
    sys = fem.assemble_system(cell, state, {"solid": mat})
    pairing = msh.detect_periodic_pairs(cell)
    gt = np.array([1.0, 0.0])
    gf = np.array([0.0, 2.0])
    A, b, cmap = apply_periodic_constraints(sys, cell, pairing, gt, gf,
                                            value_theta=20.0, value_phi=0.5)
    u = cmap.expand(spla.spsolve(A.tocsc(), b)[cmap.z_rows])
    # exact affine field solves the homogeneous cell: zero fluctuation
    assert np.allclose(u, cmap.g, atol=1e-10)
    ws = fem.workspace(cell)
    gth = ws.element_gradient(u[:cell.n_nodes])
    mean_grad = (gth * ws.areas[:, None]).sum(axis=0) / ws.areas.sum()
    assert np.allclose(mean_grad, gt, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(-30, 30), st.floats(0.1, 0.9))
def test_property_periodic_expansion_consistent(gtx, gty, gfx, gfy, vt, vf):
    cell = msh.generate_rectangle_mesh(1.0, 1.0, 2, 2)
    pairing = msh.detect_periodic_pairs(cell)
    red = fem.PeriodicReduction(cell, pairing)
    cmap = red.map_for(vt, vf, (gtx, gty), (gfx, gfy))
    z = np.arange(cmap.n_free, dtype=float) * 0.37 - 1.0
    u = cmap.expand(z)
    n = cell.n_nodes
    gt = np.array([gtx, gty])
    gf = np.array([gfx, gfy])
    scale = 1.0 + max(abs(gtx), abs(gty), abs(gfx), abs(gfy), abs(vt))
    for m_i, s_i, off in zip(pairing.masters, pairing.slaves, pairing.offsets):
        assert abs(u[s_i] - u[m_i] - gt @ off) < 1e-10 * scale
        assert abs(u[n + s_i] - u[n + m_i] - gf @ off) < 1e-10 * scale
    w = fem.workspace(cell).node_areas
    assert abs(w @ (u - cmap.g)[:n]) < 1e-9 * w.sum() * (1.0 + np.abs(z).max())


@pytest.mark.parametrize("resolution", [2, 4])
def test_bordered_newton_step_matches_dense_congruence(resolution, monkeypatch):
    # every Newton system of a running-bond cell increment, solved both
    # ways: y[z_rows] of the bordered system against T'JT dz = -r
    seen = []
    bordered = fem.ConstraintMap.newton_system

    def spy(cmap, J, C):
        matrix, reduce = bordered(cmap, J, C)

        def keep(R):
            seen.append((cmap, J, C, R))
            return reduce(R)

        return matrix, keep

    monkeypatch.setattr(fem.ConstraintMap, "newton_system", spy)
    cell = running_cell(resolution)
    hom.solve_rve_increment(cell, cell.initial_state(LOADING), LOADING)
    assert len(seen) > 2
    for cmap, J, C, R in seen:
        matrix, reduce = bordered(cmap, J, C)
        r = reduce(R)
        rhs = np.zeros(matrix.shape[0])
        rhs[cmap.z_rows] = -r
        dz = spla.splu(matrix.tocsc()).solve(rhs)[cmap.z_rows]
        dense, reduce_dense = dense_newton_system(cmap, J, C)
        assert np.array_equal(reduce_dense(R), r)
        dz_ref = spla.splu(dense.tocsc()).solve(-r)
        assert np.abs(dz - dz_ref).max() <= 1e-10 * np.abs(dz_ref).max()


# tangent blocks grouped by the averaged quantity they differentiate;
# blocks of one group share its scale, and a weak block such as k_ft
# carries less signal than the solver tolerance on that quantity
TANGENT_GROUPS = (("k_tt", "k_tf", "b_t"), ("k_ft", "k_ff", "b_f"),
                  ("mg_tt", "mg_tf", "mv_t"), ("mg_ft", "mg_ff", "mv_f"),
                  ("c_t",), ("c_f",))


@pytest.mark.parametrize("resolution", [2, 4])
def test_rve_increment_matches_dense_congruence(resolution, monkeypatch):
    real_newton = solver.newton_solve

    def run(map_type):
        cell = running_cell(resolution)
        real_map_for = cell.reduction.map_for
        monkeypatch.setattr(cell.reduction, "map_for",
                            lambda *args: map_type(real_map_for(*args)))
        traces = []

        def counted(*args, **kwargs):
            z, trace = real_newton(*args, **kwargs)
            traces.append(len(trace))
            return z, trace

        monkeypatch.setattr(solver, "newton_solve", counted)
        state, _ = hom.solve_rve_increment(cell, cell.initial_state(LOADING),
                                           LOADING)
        loading = replace(LOADING, theta=13.0, phi=0.62,
                          grad_theta=(30.0, -20.0))
        state, response = hom.solve_rve_increment(cell, state, loading,
                                                   want_tangents=True)
        return state, response, traces

    state, response, traces = run(lambda cmap: cmap)
    state_ref, response_ref, traces_ref = run(DenseCongruenceMap)
    assert traces == traces_ref

    def close(a, b, rel):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return np.abs(a - b).max() <= rel * np.abs(b).max()

    assert close(state.fluct, state_ref.fluct, 1e-10)
    for name in ("q_heat", "q_moist", "s_t", "s_f", "m_t", "m_f"):
        assert close(getattr(response, name), getattr(response_ref, name),
                     1e-10), name
    for group in TANGENT_GROUPS:
        got = np.concatenate([np.ravel(getattr(response.tangent, n))
                              for n in group])
        ref = np.concatenate([np.ravel(getattr(response_ref.tangent, n))
                              for n in group])
        assert close(got, ref, 1e-6), group


def forward_difference_tangent(cell, state, loading, base, h=1e-6):
    """Tangent blocks from six perturbed reruns of the same increment.

    The parent code's effective_tangent, without its h/10 retry:
    forward differences of the averaged answer over unit perturbations
    of each macro gradient component and value, scaled by h. Reference
    for the consistent linearization.
    """

    def differences(**changes):
        r = hom.solve_rve_increment(cell, state, replace(loading, **changes))[1]
        d = np.array([r.q_heat - base.q_heat, r.q_moist - base.q_moist,
                      r.m_t - base.m_t, r.m_f - base.m_f]) / h
        return d, r

    k = np.empty((2, 2, 2, 2))
    mg = np.empty((2, 2, 2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        for g, name in enumerate(("grad_theta", "grad_phi")):
            d, _ = differences(**{name: getattr(loading, name) + e})
            k[:, g, :, j] = -d[:2]
            mg[:, g, :, j] = d[2:]
    b = np.empty((2, 2, 2))
    mv = np.empty((2, 2, 2))
    d, r = differences(theta=loading.theta + h)
    c_t = (r.s_t - base.s_t) * loading.dt / h
    b[:, :, 0], mv[:, :, 0] = d[:2], d[2:]
    d, r = differences(phi=loading.phi + h)
    c_f = (r.s_f - base.s_f) * loading.dt / h
    b[:, :, 1], mv[:, :, 1] = d[:2], d[2:]
    return hom.TangentBlocks(k[0, 0], k[0, 1], k[1, 0], k[1, 1], c_t, c_f,
                             b[0], b[1], mg[0, 0], mg[0, 1], mg[1, 0],
                             mg[1, 1], mv[0], mv[1])


def running_increment(resolution, theta):
    """A running-bond cell after one increment at LOADING moved to theta,
    and the harsher loading of its next increment."""
    cell = running_cell(resolution)
    first = replace(LOADING, theta=theta)
    state, _ = hom.solve_rve_increment(cell, cell.initial_state(first), first)
    loading = replace(first, theta=theta + 1.0, phi=0.62,
                      grad_theta=(30.0, -20.0))
    return cell, state, loading


@pytest.mark.parametrize("theta", [12.0, -10.0], ids=["above-0C", "below-0C"])
@pytest.mark.parametrize("resolution", [2, 4])
def test_consistent_tangent_matches_forward_differences(resolution, theta):
    cell, state, loading = running_increment(resolution, theta)
    new_state, response = hom.solve_rve_increment(cell, state, loading,
                                                   want_tangents=True)
    # every state of the increment lies on one branch of p_sat
    n = cell.n_nodes
    for s in (state, new_state):
        assert np.all(np.sign(cell.total_vector(s)[:n]) == np.sign(theta))
    oracle = forward_difference_tangent(cell, state, loading,
                                        replace(response, tangent=None))
    for group in TANGENT_GROUPS:
        got = np.concatenate([np.ravel(getattr(response.tangent, name))
                              for name in group])
        ref = np.concatenate([np.ravel(getattr(oracle, name))
                              for name in group])
        assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max(), group


def test_consistent_jacobian_taylor_remainder():
    # J v against central differences of the Crank-Nicolson residual
    # C(u) (u - u_n)/dt + K(u) u/2 at a state with a nonzero rate
    cell, state, loading = running_increment(2, 12.0)
    mesh, materials, dt = cell.mesh, cell.materials, loading.dt
    u_n = cell.total_vector(state)
    new_state, _ = hom.solve_rve_increment(cell, state, loading)
    u = cell.total_vector(new_state)
    rate = (u - u_n) / dt
    assert np.abs(rate).max() > 0.0

    def residual(x):
        sysm = fem.assemble_system(mesh, fem.FieldState.from_vector(x),
                                   materials)
        return sysm.storage_diagonal() * (x - u_n) / dt + 0.5 * (sysm.K @ x)

    fields = fem.FieldState.from_vector(u)
    sysm = fem.assemble_system(mesh, fields, materials)
    S = fem.state_jacobian(mesh, u, rate,
                           fem.coefficient_derivatives(mesh, fields, materials))
    J = S.copy()
    J.data += 0.5 * sysm.K.data
    J.setdiag(J.diagonal() + sysm.storage_diagonal() / dt)
    n = cell.n_nodes
    rng = np.random.default_rng(0)
    v = np.concatenate([rng.standard_normal(n), 0.01 * rng.standard_normal(n)])
    Jv, Sv = J @ v, S @ v
    errors = []
    for eps in (4e-2, 2e-2):
        fd = (residual(u + eps * v) - residual(u - eps * v)) / (2.0 * eps)
        errors.append(np.linalg.norm(Jv - fd))
    assert errors[0] <= 1e-6 * np.linalg.norm(Jv)
    # the state terms are a few 1e-4 of J v at this dt; they alone must
    # carry what the frozen matrix misses
    assert errors[0] <= 1e-3 * np.linalg.norm(Sv)
    assert 3.5 < errors[0] / errors[1] < 4.5


def test_periodic_reduce_matrix_stays_sparse():
    cell = running_cell(4)
    state = fem.FieldState.uniform(cell.n_nodes, 20.0, 0.5)
    K = fem.assemble_system(cell.mesh, state, cell.materials).stiffness()
    cmap = cell.reduction.map_for(20.0, 0.5, (1.0, 0.0), (0.0, 1.0))
    # the dense congruence of this cell stores (n_free)^2 = 260,100 entries
    assert cmap.n_free ** 2 == 260_100
    assert cmap.reduce_matrix(K).nnz < 10_000


def dirichlet_wall():
    m = msh.generate_masonry_wall(0.29, 0.14, 0.01, 2, 2, "running", 2)
    left = np.unique(m.boundary["left"])
    cmap = fem.dirichlet_map(2 * m.n_nodes, {**{i: 5.0 for i in left},
                                             **{m.n_nodes + i: 0.8 for i in left}})
    return m, default_materials(), cmap


def test_dirichlet_newton_system_is_the_congruence_bit_for_bit():
    # the fine solver's Newton matrices, and so its states, stay those
    # of the congruence T'JT
    m, materials, cmap = dirichlet_wall()
    state = fem.FieldState.uniform(m.n_nodes, 20.0, 0.5)
    sysm = fem.assemble_system(m, state, materials)
    C = sysm.storage_diagonal()
    J = sp.diags(C / 3600.0) + 0.5 * sysm.stiffness()
    matrix, scaled = cmap.newton_system(J, C)
    dense, scaled_ref = dense_newton_system(cmap, J, C)
    assert_same_csr(sp.csc_matrix(matrix), sp.csc_matrix(dense))
    R = np.random.default_rng(3).normal(size=2 * m.n_nodes)
    assert np.array_equal(scaled(R), scaled_ref(R))


def varied_state(mesh):
    x, y = mesh.nodes.T
    return fem.FieldState(15.0 + 40.0 * x - 30.0 * y, 0.55 + 0.8 * x + 0.6 * y)


@pytest.mark.parametrize("case", ["kunzel-running-cell", "linear-no-k_tf"])
def test_two_field_stiffness_is_bmat_of_one_field_blocks_bit_for_bit(case):
    if case == "kunzel-running-cell":
        cell = running_cell(2)
        mesh, materials = cell.mesh, cell.materials
    else:
        mesh = msh.generate_rectangle_mesh(1.3, 0.8, 4, 3)
        materials = {"solid": LinearMaterial("m", k_tt=2.0, k_ff=0.7, c_tt=5.0,
                                             c_ff=3.0, k_tf=0.0, k_ft=0.1)}
    state = varied_state(mesh)
    K = fem.assemble_system(mesh, state, materials).stiffness()
    ref = bmat_stiffness(mesh, state, materials)
    assert_same_csr(K, ref)
    # P1 stiffness on right-triangle grids stores exact zeros
    assert np.count_nonzero(K.data == 0.0) > 0


@pytest.mark.parametrize("case", ["periodic-cell", "dirichlet-wall"])
def test_cn_newton_matrix_matches_diags_and_coo_coupling(case, monkeypatch):
    seen, assembled = [], []
    bordered = fem.ConstraintMap.newton_system

    def spy(cmap, J, C):
        seen.append((cmap, J, C, assembled[-1]))
        return bordered(cmap, J, C)

    monkeypatch.setattr(fem.ConstraintMap, "newton_system", spy)
    if case == "periodic-cell":
        cell = running_cell(2)
        mesh, materials = cell.mesh, cell.materials
        cmap = cell.reduction.map_for(LOADING.theta, LOADING.phi,
                                      LOADING.grad_theta, LOADING.grad_phi)
        u_n = cell.total_vector(cell.initial_state(LOADING))
    else:
        mesh, materials, cmap = dirichlet_wall()
        u_n = fem.FieldState.uniform(mesh.n_nodes, 20.0, 0.5).vector()

    def assembler(u, t):
        out = solver._assemble(mesh, materials, u, t)
        assembled.append((u, out))
        return out

    solver.crank_nicolson_step(assembler, u_n, 0.0, 3600.0, cmap,
                               solver.SolverConfig())
    assert len(seen) > 2
    for cmap, J, C, (u, (K, C_asm, _, cap)) in seen:
        assert C is C_asm
        ref = diags_newton_matrix(K, C, cap, u, u_n, 3600.0)
        assert_same_csr(without_zeros(J), ref)
        assert_same_csr(bordered(cmap, J, C)[0], bordered(cmap, ref, C)[0])


def test_reduce_matrix_skips_stored_zeros():
    cell = running_cell(2)
    K = fem.assemble_system(cell.mesh, varied_state(cell.mesh),
                            cell.materials).stiffness()
    assert np.count_nonzero(K.data == 0.0) > 0
    for cmap in (cell.reduction.map_for(20.0, 0.5, (1.0, 0.0), (0.0, 1.0)),
                 fem.dirichlet_map(K.shape[0], {0: 1.0, 5: 2.0,
                                                cell.n_nodes + 3: 0.5})):
        for weights in (None, np.linspace(1.0, 2.0, cmap.row_dofs.size)):
            assert_same_csr(cmap.reduce_matrix(K, weights),
                            cmap.reduce_matrix(without_zeros(K), weights))
