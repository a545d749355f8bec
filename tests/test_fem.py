"""Element matrices, assembly, and constraint elimination."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from hamfe2 import (BoundaryRule, BoundarySchedule, fe2, fem,
                    homogenization as hom, mesh as msh, solver)
from hamfe2.constitutive import (BRICK, CoefficientSet, KunzelMaterial,
                                 LinearMaterial, default_materials)
from skeleton_csr import skeleton_csr

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
    n = system.c_tt.size
    th, ph = u[:n], u[n:]
    K = skeleton_csr(system.conductivity)
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
    coeff = fem.CentroidMaterials(mesh, state.theta, state.phi,
                                  materials).coefficients()

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
    """A csr copy of A, a SkeletonMatrix, without its stored zeros."""
    A = skeleton_csr(A)
    A.eliminate_zeros()
    return A


def skeleton_positions(ws):
    """The field-major csr matrix of the skeleton of ws whose every entry
    is the position of that entry in a SkeletonMatrix's data: the csr of
    the data that numbers its entries."""
    labels = skeleton_csr(fem.SkeletonMatrix(
        ws, np.arange(4 * ws.csr_nnz, dtype=float)))
    assert labels.nnz == 4 * ws.csr_nnz
    labels.data = labels.data.astype(np.int64)
    return labels


def on_skeleton(ws, A):
    """The sparse matrix A, whose entries lie on the two-field skeleton of
    ws, as a SkeletonMatrix; the skeleton's other entries are zero."""
    skeleton = skeleton_positions(ws).tocoo()
    data = np.empty(4 * ws.csr_nnz)
    data[skeleton.data] = np.asarray(
        A.tocsr()[skeleton.row, skeleton.col]).ravel()
    return fem.SkeletonMatrix(ws, data)


def newton_slots_oracle(A):
    """Positions in A.data of the main diagonal and of offset N of the
    2N x 2N csr matrix A, by a search over the column offsets of its
    entries; the search Workspace.diagonal_slots replaced."""
    n = A.shape[0]
    offset = A.indices - np.repeat(np.arange(n, dtype=A.indices.dtype),
                                   np.diff(A.indptr))
    return np.flatnonzero(offset == 0), np.flatnonzero(offset == n // 2)


def reduce_matrix_oracle(cmap, A, weights=None):
    """Bordered system matrix of A in the map's numbering, from coo triples.

    The body ConstraintMap.reduce_matrix had before its plans: the
    reference the planned matrices are checked against.
    """
    A = skeleton_csr(A) if isinstance(A, fem.SkeletonMatrix) else A.tocsr()
    m, G = cmap.row_dofs.size, cmap.border
    weights = np.ones(m) if weights is None else weights
    diag = np.abs(A.diagonal()[cmap.row_dofs] * weights)
    tiny = 2.0 ** -30 * diag.min(initial=np.inf)
    r, c = cmap.rows[A.tocoo().row], cmap.rows[A.indices]
    keep = (r >= 0) & (c >= 0) & (A.data != 0)
    k = m + G.col
    # entries of P'AP, the constraint columns, the constraint rows
    data = np.concatenate([A.data[keep], -G.data, tiny * G.data])
    rows = np.concatenate([r[keep], G.row, k])
    cols = np.concatenate([c[keep], k, G.row])
    scaled = rows.size - G.nnz
    data[:scaled] *= weights[rows[:scaled]]
    return sp.csr_matrix((data, (rows, cols)), shape=(cmap.size, cmap.size))


def in_map_order(matrix, plan):
    """A planned system renumbered back into its map's numbering, csr."""
    out = matrix[plan.order][:, plan.order].tocsr()
    out.sort_indices()
    return out


def reduce_system(cmap, A):
    """Bordered system of A u = 0, and the rows of its solution that hold z."""
    plan = cmap.plan(A)
    rows = plan.order[cmap.z_rows]
    rhs = np.zeros(cmap.size)
    rhs[rows] = cmap.reduce_vector(-(A @ cmap.g))
    return cmap.reduce_matrix(A, np.ones(cmap.row_dofs.size), plan), rhs, rows


def apply_dirichlet(system, values):
    """Reduced steady operator (A_red, b_red, cmap, rows) for K u = 0.

    values maps full field-major dof indices to prescribed values; the
    solution's entries at rows are the reduced unknowns.
    """
    cmap = fem.dirichlet_map(2 * system.c_tt.size, values)
    A_red, b_red, rows = reduce_system(cmap, system.conductivity)
    return A_red, b_red, cmap, rows


def apply_periodic_constraints(system, mesh, pairing, grad_theta, grad_phi,
                               value_theta=0.0, value_phi=0.0):
    """Bordered steady periodic cell system (A_red, b_red, cmap, rows).

    Slave dofs equal their master plus the affine offset grad . dx; the
    weighted mean of each field is anchored to its macro value. The
    solution's entries at rows are the reduced unknowns.
    """
    red = fem.PeriodicReduction(mesh, pairing)
    cmap = red.map_for(value_theta, value_phi, grad_theta, grad_phi)
    A_red, b_red, rows = reduce_system(cmap, system.conductivity)
    return A_red, b_red, cmap, rows


def dense_newton_system(cmap, J, C):
    """Newton matrix of the congruence T'JT, rows scaled by the storage.

    The periodic T eliminates each mean constraint through an anchor
    dof, whose row of T couples every reduced unknown, so this matrix
    is dense. Reference for ConstraintMap.newton_system and
    scaled_residual; J is a SkeletonMatrix.
    """
    w = 1.0 / np.maximum(C[cmap.free_index], 1e-300)
    return (sp.diags(w) @ (cmap.T.T @ skeleton_csr(J) @ cmap.T)).tocsr(), \
        lambda R: (w * cmap.reduce_vector(R), w)


class DenseCongruenceMap(fem.ConstraintMap):
    """A constraint map whose Newton systems are the dense congruence."""

    def __init__(self, cmap):
        super().__init__(cmap.T, cmap.g, cmap.free_index, cmap.rows,
                         cmap.row_dofs, cmap.border)

    def newton_system(self, J, C):
        return dense_newton_system(self, J, C)[0], np.arange(self.n_free)


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
    assert np.allclose(skeleton_csr(sys.conductivity).toarray(), K, atol=1e-12)
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
    A, b, cmap, rows = apply_dirichlet(sys, values)
    u = cmap.expand(spla.spsolve(A, b)[rows])
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


def test_workspace_rejects_a_node_outside_every_triangle():
    # a mesh built in code may list a node that no triangle uses (a
    # mesh file that does fails validate_mesh); its skeleton row would
    # have no diagonal entry for the storage terms
    m = msh.generate_rectangle_mesh(1.0, 1.0, 1, 1)
    loose = msh.Mesh(np.vstack([m.nodes, [[2.0, 2.0]]]), m.triangles,
                     m.phases, m.phase_names, {})
    with pytest.raises(fem.FemError, match="no triangle"):
        fem.workspace(loose)


def test_periodic_steady_homogeneous_cell_fluctuation_free():
    cell = msh.generate_rectangle_mesh(0.4, 0.3, 3, 3)
    mat = LinearMaterial("m", k_tt=2.0, k_ff=0.5, c_tt=1.0, c_ff=1.0)
    state = fem.FieldState.uniform(cell.n_nodes, 0.0, 0.5)
    sys = fem.assemble_system(cell, state, {"solid": mat})
    pairing = msh.detect_periodic_pairs(cell)
    gt = np.array([1.0, 0.0])
    gf = np.array([0.0, 2.0])
    A, b, cmap, rows = apply_periodic_constraints(
        sys, cell, pairing, gt, gf, value_theta=20.0, value_phi=0.5)
    u = cmap.expand(spla.spsolve(A, b)[rows])
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
    # ways: y[rows] of the bordered system against T'JT dz = -r. A
    # system is built for the iterate whose residual was scaled last
    seen, residuals = [], []
    bordered = fem.ConstraintMap.newton_system
    scaled = fem.ConstraintMap.scaled_residual

    def spy_residual(cmap, R, C):
        residuals.append(R)
        return scaled(cmap, R, C)

    def spy(cmap, J, C):
        seen.append((cmap, J, C, residuals[-1]))
        return bordered(cmap, J, C)

    monkeypatch.setattr(fem.ConstraintMap, "scaled_residual", spy_residual)
    monkeypatch.setattr(fem.ConstraintMap, "newton_system", spy)
    cell = running_cell(resolution)
    hom.solve_rve_increment(cell, hom.initial_response(cell, LOADING)[0],
                            LOADING)
    assert len(seen) > 2
    for cmap, J, C, R in seen:
        matrix, rows = bordered(cmap, J, C)
        r, w = scaled(cmap, R, C)
        rhs = np.zeros(matrix.shape[0])
        rhs[rows] = -r
        dz_newton = solver.factorize(matrix).solve(rhs)[rows]
        # splu's default COLAMD ordering depends on the column order it
        # is given: it gets the system in the map's numbering
        rhs = np.zeros(matrix.shape[0])
        rhs[cmap.z_rows] = -r
        dz = spla.splu(in_map_order(matrix, cmap.plan(J)).tocsc()).solve(
            rhs)[cmap.z_rows]
        dense, reduce_dense = dense_newton_system(cmap, J, C)
        r_ref, w_ref = reduce_dense(R)
        assert np.array_equal(r_ref, r) and np.array_equal(w_ref, w)
        dz_ref = spla.splu(dense.tocsc()).solve(-r)
        assert np.abs(dz - dz_ref).max() <= 1e-10 * np.abs(dz_ref).max()
        assert np.abs(dz_newton - dz_ref).max() <= 1e-10 * np.abs(dz_ref).max()


# tangent entries grouped by the averaged quantity they differentiate,
# (array, row): the heat or moisture row of kg over all of p, and each
# capacity. Entries of one group share its scale, and a weak block such
# as the moisture row's grad_Theta columns carries less signal than the
# solver tolerance on that quantity
TANGENT_GROUPS = (("kg", 0), ("kg", 1), ("c", 0), ("c", 1))


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
        state, _ = hom.solve_rve_increment(
            cell, hom.initial_response(cell, LOADING)[0], LOADING)
        loading = replace(LOADING, theta=13.0, phi=0.62,
                          grad_theta=(30.0, -20.0))
        state, response = hom.solve_rve_increment(cell, state, loading,
                                                   want_tangents=True)
        return cell.fluctuation(state), response, traces

    fluct, response, traces = run(lambda cmap: cmap)
    fluct_ref, response_ref, traces_ref = run(DenseCongruenceMap)
    assert traces == traces_ref

    def close(a, b, rel):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return np.abs(a - b).max() <= rel * np.abs(b).max()

    assert close(fluct, fluct_ref, 1e-10)
    for name in ("q_heat", "q_moist", "s_t", "s_f"):
        assert close(getattr(response, name), getattr(response_ref, name),
                     1e-10), name
    for name, a in TANGENT_GROUPS:
        got = getattr(response.tangent, name)[a]
        ref = getattr(response_ref.tangent, name)[a]
        assert close(got, ref, 1e-6), (name, a)


def forward_difference_tangent(cell, state, loading, base, h=1e-6):
    """Tangent arrays from six perturbed reruns of the same increment.

    Forward differences of the averaged answer over a perturbation h of
    each entry of the loading p = (Theta, Phi, grad_Theta, grad_Phi),
    without a retry at h/10. Reference for the consistent linearization.
    """
    changes = [dict(theta=loading.theta + h), dict(phi=loading.phi + h)]
    for name in ("grad_theta", "grad_phi"):
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            changes.append({name: getattr(loading, name) + e})
    kg = np.empty((2, 2, 6))
    c = np.empty(2)
    for col, change in enumerate(changes):
        r = hom.solve_rve_increment(cell, state, replace(loading, **change))[1]
        kg[:, :, col] = -np.array([r.q_heat - base.q_heat,
                                   r.q_moist - base.q_moist]) / h
        if col < 2:
            c[col] = ((r.s_t - base.s_t, r.s_f - base.s_f)[col]
                      * loading.dt / h)
    return hom.TangentBlocks(kg, c)


def running_increment(resolution, theta):
    """A running-bond cell after one increment at LOADING moved to theta,
    and the harsher loading of its next increment."""
    cell = running_cell(resolution)
    first = replace(LOADING, theta=theta)
    state, _ = hom.solve_rve_increment(
        cell, hom.initial_response(cell, first)[0], first)
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
    n = cell.mesh.n_nodes
    for s in (state, new_state):
        assert np.all(np.sign(s.u[:n]) == np.sign(theta))
    oracle = forward_difference_tangent(cell, state, loading,
                                        replace(response, tangent=None))
    for name, a in TANGENT_GROUPS:
        got = getattr(response.tangent, name)[a]
        ref = getattr(oracle, name)[a]
        assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max(), (name, a)


def test_consistent_jacobian_taylor_remainder():
    # J v against central differences of the Crank-Nicolson residual
    # C(u) (u - u_n)/dt + K(u) u/2 at a state with a nonzero rate
    cell, state, loading = running_increment(2, 12.0)
    mesh, materials, dt = cell.mesh, cell.materials, loading.dt
    u_n = state.u
    new_state, _ = hom.solve_rve_increment(cell, state, loading)
    u = new_state.u
    rate = (u - u_n) / dt
    assert np.abs(rate).max() > 0.0

    def residual(x):
        sysm = fem.assemble_system(mesh, fem.FieldState.from_vector(x),
                                   materials)
        return (sysm.storage_diagonal() * (x - u_n) / dt
                + 0.5 * (sysm.conductivity @ x))

    sysm = fem.assemble_system(mesh, fem.FieldState.from_vector(u), materials)
    D, St = fem.state_jacobian(mesh, u, rate,
                               fem.coefficient_derivatives(sysm))
    # the state terms alone: the weighted conduction derivative and the
    # storage terms
    S = skeleton_csr(0.5 * D) + skeleton_csr(St)
    # the consistent Jacobian as effective_tangent builds it
    D.data += sysm.conductivity.data
    J = fem.crank_nicolson_matrix(D, sysm.storage_diagonal(), dt)
    J.data += St.data
    J = skeleton_csr(J)
    n = cell.mesh.n_nodes
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
    state = fem.FieldState.uniform(cell.mesh.n_nodes, 20.0, 0.5)
    K = fem.assemble_system(cell.mesh, state, cell.materials).conductivity
    cmap = cell.reduction.map_for(20.0, 0.5, (1.0, 0.0), (0.0, 1.0))
    # the dense congruence of this cell stores (n_free)^2 = 260,100 entries
    assert cmap.n_free ** 2 == 260_100
    assert cmap.reduce_matrix(K, np.ones(cmap.row_dofs.size),
                              cmap.plan(K)).nnz < 10_000


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
    # sp.diags(C / 3600) + K / 2, on the skeleton
    J = 0.5 * sysm.conductivity
    J.data[J.workspace.diagonal_slots[0]] += C / 3600.0
    matrix, rows = cmap.newton_system(J, C)
    plan = cmap.plan(J)
    assert np.array_equal(rows, plan.order[cmap.z_rows])
    dense, scaled_ref = dense_newton_system(cmap, J, C)
    assert_same_csr(sp.csc_matrix(in_map_order(matrix, plan)),
                    sp.csc_matrix(dense))
    R = np.random.default_rng(3).normal(size=2 * m.n_nodes)
    r, w = cmap.scaled_residual(R, C)
    r_ref, w_ref = scaled_ref(R)
    assert np.array_equal(r, r_ref) and np.array_equal(w, w_ref)


@pytest.mark.parametrize("case", ["dirichlet-wall", "periodic-cell"])
def test_scaled_residual_of_a_block_is_column_by_column_bit_for_bit(case):
    # the cell tangent scales its six right-hand sides in one call
    if case == "dirichlet-wall":
        m, materials, cmap = dirichlet_wall()
    else:
        cell = running_cell(2)
        m, materials = cell.mesh, cell.materials
        cmap = cell.reduction.map_for(LOADING.theta, LOADING.phi,
                                      LOADING.grad_theta, LOADING.grad_phi)
    C = fem.assemble_system(m, fem.FieldState.uniform(m.n_nodes, 20.0, 0.5),
                            materials).storage_diagonal()
    R = np.random.default_rng(5).normal(size=(2 * m.n_nodes, 6))
    block, w = cmap.scaled_residual(R, C)
    assert block.shape == (cmap.n_free, 6)
    for k in range(6):
        r, w_k = cmap.scaled_residual(R[:, k], C)
        assert np.array_equal(block[:, k], r) and np.array_equal(w, w_k), k


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
    K = skeleton_csr(
        fem.assemble_system(mesh, state, materials).conductivity)
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
        u_n = hom.initial_response(cell, LOADING)[0].u
    else:
        mesh, materials, cmap = dirichlet_wall()
        u_n = fem.FieldState.uniform(mesh.n_nodes, 20.0, 0.5).vector()

    def assembler(u):
        out = solver._assemble(mesh, materials, u)
        assembled.append((u, out))
        return out

    solver.crank_nicolson_step(assembler, u_n, 3600.0, cmap,
                               solver.SolverConfig())
    assert len(seen) > 2
    for cmap, J, C, (u, sysm) in seen:
        assert np.array_equal(C, sysm.storage_diagonal())
        ref = diags_newton_matrix(skeleton_csr(sysm.conductivity), C,
                                  fem.capacity_jacobian_diagonals(sysm), u,
                                  u_n, 3600.0)
        assert_same_csr(without_zeros(J), ref)
        assert_same_csr(bordered(cmap, J, C)[0],
                        bordered(cmap, on_skeleton(J.workspace, ref), C)[0])


def test_crank_nicolson_matrix_adds_half_k_then_storage():
    # the Crank-Nicolson Jacobian of the Newton matrix (of K) and of the
    # cell tangent (of K + D): the adds of the hand-built sums, in their
    # order, bit for bit, into a new matrix; its input is left as it was
    cell = running_cell(2)
    ws = fem.workspace(cell.mesh)
    state = varied_state(cell.mesh)
    sysm = fem.assemble_system(cell.mesh, state, cell.materials)
    K = sysm.conductivity.data.copy()
    diag, dt = ws.diagonal_slots[0], 3600.0
    C = sysm.storage_diagonal()
    ref = 0.5 * K
    ref[diag] += C / dt
    J = fem.crank_nicolson_matrix(sysm.conductivity, C, dt)
    assert J.workspace is ws and np.array_equal(J.data, ref)
    assert np.array_equal(sysm.conductivity.data, K)
    u = state.vector()
    rate = np.linspace(-1e-4, 1e-4, u.size)
    D, _ = fem.state_jacobian(cell.mesh, u, rate,
                              fem.coefficient_derivatives(sysm))
    D.data += K
    KD = D.data.copy()
    ref = 0.5 * KD
    ref[diag] += C / dt
    J = fem.crank_nicolson_matrix(D, C, dt)
    assert J is not D and np.array_equal(J.data, ref)
    assert np.array_equal(D.data, KD)


def assert_planned_is_oracle(cmap, A, weights, ref):
    """The planned system of A, renumbered into the map's numbering, is
    the csr matrix ref entry for entry. A Dirichlet system is bit for
    bit. Periodic slaves sum duplicates in another order, and the
    weights scale the sums rather than their terms: there each entry
    may differ by 8 units in the last place of the sum of its terms'
    magnitudes."""
    plan = cmap.plan(A)
    ones = np.ones(cmap.row_dofs.size)
    got = in_map_order(cmap.reduce_matrix(
        A, ones if weights is None else weights, plan), plan)
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    if cmap.border.shape[1] > 0:
        scale = reduce_matrix_oracle(cmap, abs(skeleton_csr(A)), weights)
        assert np.all(np.abs(got.data - ref.data)
                      <= 8 * np.finfo(float).eps * np.abs(scale.data))
    else:
        assert np.array_equal(got.data, ref.data)


def test_reduce_matrix_skips_stored_zeros():
    cell = running_cell(2)
    K = fem.assemble_system(cell.mesh, varied_state(cell.mesh),
                            cell.materials).conductivity
    assert np.count_nonzero(K.data == 0.0) > 0
    for cmap in (cell.reduction.map_for(20.0, 0.5, (1.0, 0.0), (0.0, 1.0)),
                 fem.dirichlet_map(K.shape[0], {0: 1.0, 5: 2.0,
                                                cell.mesh.n_nodes + 3: 0.5})):
        for weights in (None, np.linspace(1.0, 2.0, cmap.row_dofs.size)):
            assert_planned_is_oracle(
                cmap, K, weights,
                reduce_matrix_oracle(cmap, without_zeros(K), weights))


# ------------------------------------------------------------ system plans


def spied_newton_systems(monkeypatch, run):
    """(cmap, J, C) of every Newton system that run() builds, in order."""
    seen = []
    bordered = fem.ConstraintMap.newton_system

    def spy(cmap, J, C):
        seen.append((cmap, J, C))
        return bordered(cmap, J, C)

    monkeypatch.setattr(fem.ConstraintMap, "newton_system", spy)
    run()
    monkeypatch.undo()
    return seen


def wall_systems(monkeypatch):
    """The Newton systems of one step of a Dirichlet wall."""
    mesh, materials, cmap = dirichlet_wall()
    u_n = fem.FieldState.uniform(mesh.n_nodes, 20.0, 0.5).vector()
    return spied_newton_systems(monkeypatch, lambda: solver.crank_nicolson_step(
        partial(solver._assemble, mesh, materials), u_n, 3600.0, cmap,
        solver.SolverConfig()))


def cell_systems(monkeypatch):
    """The Newton systems of a periodic cell increment, then its tangent's."""
    cell = running_cell(2)
    return spied_newton_systems(monkeypatch, lambda: hom.solve_rve_increment(
        cell, hom.initial_response(cell, LOADING)[0], LOADING,
        want_tangents=True))


def macro_systems(monkeypatch):
    """A macro Newton system: the chain rule through random cell tangents,
    built as FE2Driver.step builds it, under the wall's Dirichlet map."""
    mesh = msh.generate_rectangle_mesh(1.2, 0.6, 4, 2)
    ws = fem.workspace(mesh)
    rng = np.random.default_rng(5)
    kg = rng.normal(size=(mesh.n_triangles, 2, 2, 6))
    C = rng.uniform(1.0, 2.0, 2 * mesh.n_nodes)
    J = fem.crank_nicolson_matrix(fe2._flux_jacobian(ws, kg), C, 3600.0)
    # a cell tangent can vanish in whole blocks (no k_tf, say): a few
    # stored zeros off the diagonal stand for them
    skeleton = skeleton_positions(ws)
    rows = np.repeat(np.arange(J.shape[0]), np.diff(skeleton.indptr))
    J.data[skeleton.data[np.flatnonzero(skeleton.indices != rows)[::5]]] = 0.0
    left = mesh.boundary_nodes("left")
    cmap = fem.dirichlet_map(2 * mesh.n_nodes,
                             {**{i: 5.0 for i in left},
                              **{mesh.n_nodes + i: 0.8 for i in left}})
    return [(cmap, J, C)]


SYSTEMS = {"dirichlet-wall": wall_systems, "periodic-cell": cell_systems,
           "macro": macro_systems}


@pytest.mark.parametrize("case", list(SYSTEMS))
def test_planned_matrix_is_the_coo_oracle_in_the_plan_order(case, monkeypatch):
    # entry for entry, with and without row weights, against the oracle
    # of the skeleton matrix with its stored zeros and that of a copy
    # without them (see assert_planned_is_oracle)
    systems = SYSTEMS[case](monkeypatch)
    assert any(np.count_nonzero(J.data == 0.0) for _, J, _ in systems)
    for cmap, J, C in systems:
        assert isinstance(J, fem.SkeletonMatrix)
        periodic = cmap.border.shape[1] > 0
        assert periodic == (case == "periodic-cell")
        for weights in (None, 1.0 / C[cmap.row_dofs]):
            for A in (J, without_zeros(J)):
                assert_planned_is_oracle(cmap, J, weights,
                                         reduce_matrix_oracle(cmap, A, weights))


@pytest.mark.parametrize("case", list(SYSTEMS))
def test_plan_is_the_minimum_degree_order_of_its_pattern(case, monkeypatch):
    # the cached plan of a skeleton matrix and a fresh one of the same
    # matrix without its stored zeros agree, and both order the system
    # as splu's own minimum degree ordering of the oracle would; the
    # factors of the planned matrix are as large as that splu's
    for cmap, J, C in SYSTEMS[case](monkeypatch):
        plan = cmap.plan(J)
        assert cmap.plan(J) is plan
        bare = without_zeros(J).tocoo()
        fresh = fem.SystemPlan(bare.row, bare.col,
                               np.ones(bare.nnz, dtype=bool), cmap)
        assert fresh is not plan
        for name in ("order", "indptr", "indices"):
            assert np.array_equal(getattr(fresh, name), getattr(plan, name))
        weights = 1.0 / C[cmap.row_dofs]
        ref = spla.splu(reduce_matrix_oracle(cmap, J, weights).tocsc(),
                        permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01)
        assert np.array_equal(plan.order, ref.perm_c)
        lu = solver.factorize(cmap.reduce_matrix(J, weights, plan))
        assert lu.L.nnz + lu.U.nnz == ref.L.nnz + ref.U.nnz


def test_cell_newton_and_tangent_systems_get_different_plans(monkeypatch):
    # the tangent's consistent Jacobian fills zeros that the Newton
    # matrices keep: its pattern, and so its plan, is another one
    *newton, tangent = cell_systems(monkeypatch)
    plans = {id(cmap.plan(J)): cmap.plan(J) for cmap, J, _ in newton}
    cmap, J, _ = tangent
    assert id(cmap.plan(J)) not in plans
    assert all(cmap.plan(J).nnz > plan.nnz for plan in plans.values())


# ------------------------------------------------------------ kernels


def kernel_meshes():
    return [running_cell(2).mesh,
            msh.generate_masonry_wall(0.29, 0.14, 0.01, 2, 2, "running", 2)]


def element_mean_oracle(ws, nodal):
    """Element means by the gather that element_mean replaced."""
    return nodal[ws.mesh.triangles].sum(axis=1) / 3.0


def lumped_oracle(ws, vals):
    """Lumped nodal sums by the bincount that lumped replaced."""
    return np.bincount(ws.mesh.triangles.ravel(),
                       weights=np.repeat(vals * ws.areas / 3.0, 3),
                       minlength=ws.mesh.n_nodes)


@pytest.mark.parametrize("mesh", kernel_meshes()
                         + [msh.generate_rectangle_mesh(1.2, 0.6, 4, 2)],
                         ids=["cell", "wall", "macro"])
def test_nodal_sums_and_means_match_their_numpy_oracles_bit_for_bit(mesh):
    # and the 0/1 operators of element_mean and lumped match the gather
    # and bincount forms they replaced
    ws = fem.workspace(mesh)
    tris = mesh.triangles.ravel()
    rng = np.random.default_rng(11)
    vals = rng.uniform(0.5, 2.0e6, mesh.n_triangles)
    ref = np.zeros(mesh.n_nodes)
    np.add.at(ref, tris, np.repeat(vals * ws.areas / 3.0, 3))
    assert np.array_equal(ws.lumped(vals), ref)
    for vals in (vals, rng.normal(size=mesh.n_triangles)):
        assert np.array_equal(ws.lumped(vals), lumped_oracle(ws, vals))
    assert np.array_equal(ws.node_areas,
                          lumped_oracle(ws, np.ones(mesh.n_triangles)))
    vec = rng.normal(size=(mesh.n_triangles, 2))
    contrib = np.einsum("mid,md->mi", ws.grads, vec) * ws.areas[:, None]
    ref = np.zeros(mesh.n_nodes)
    np.add.at(ref, tris, contrib.ravel())
    assert np.array_equal(ws.scatter_gradient_pairing(vec), ref)
    nodal = rng.normal(size=mesh.n_nodes)
    assert np.array_equal(ws.element_mean(nodal),
                          nodal[mesh.triangles].mean(axis=1))
    for nodal in (nodal, rng.uniform(-5.0, 40.0, mesh.n_nodes)):
        assert np.array_equal(ws.element_mean(nodal),
                              element_mean_oracle(ws, nodal))
    # the broadcast stiffness pattern is the einsum form
    assert np.array_equal(ws.pattern,
                          np.einsum("mid,mjd->mij", ws.grads, ws.grads)
                          * ws.areas[:, None, None])


def product_cases():
    linear = {"solid": LinearMaterial("m", k_tt=2.0, k_ff=0.7, c_tt=5.0,
                                      c_ff=3.0, k_tf=0.3, k_ft=0.1)}
    return [(running_cell(2).mesh, default_materials()),
            (msh.generate_masonry_wall(0.29, 0.14, 0.01, 2, 2, "running", 2),
             default_materials()),
            (msh.generate_rectangle_mesh(1.2, 0.6, 4, 2), linear)]


@pytest.mark.parametrize("mesh, materials", product_cases(),
                         ids=["cell", "wall", "macro"])
def test_skeleton_products_match_the_bsr_product_bit_for_bit(mesh, materials):
    # A @ x is scipy's own bsr product of A's node blocks in
    # node-interleaved order, for a vector and for a (2N, 6) block, the
    # tangent's J @ dg, whose columns are the products of each column
    # alone. The field-major csr product sums a row's k terms in another
    # order: both lie within (k - 1) u of the sum of the terms'
    # magnitudes from the exact sum (u = eps / 2), so within (k - 1) eps
    # of each other
    x, y = (mesh.nodes / mesh.nodes.max(axis=0)).T
    state = fem.FieldState(15.0 + 10.0 * x - 8.0 * y, 0.4 + 0.3 * x + 0.2 * y)
    sysm = fem.assemble_system(mesh, state, materials)
    A = sysm.conductivity
    assert isinstance(A, fem.SkeletonMatrix)
    assert isinstance(sysm.stiffness(), fem.SkeletonMatrix)
    K = skeleton_csr(A)
    n = mesh.n_nodes
    # interleaved[2 i + a] is the field-major dof of field a at node i
    interleaved = np.arange(2 * n).reshape(2, n).T.ravel()
    B = K[interleaved][:, interleaved].tobsr(blocksize=(2, 2))
    assert np.array_equal(B.data.reshape(-1), A.data)
    bound = (np.diff(K.indptr) - 1) * np.finfo(float).eps
    rng = np.random.default_rng(2)
    for x in (rng.normal(size=2 * n), rng.normal(size=(2 * n, 6))):
        got = A @ x
        assert got.shape == x.shape
        assert np.array_equal(got[interleaved], B @ x[interleaved])
        assert np.all(np.abs(got - K @ x)
                      <= (bound * (abs(K) @ abs(x)).T).T)
        if x.ndim == 2:
            for j in range(x.shape[1]):
                assert np.array_equal(got[:, j], A @ x[:, j]), j
    half = 0.5 * A
    assert isinstance(half, fem.SkeletonMatrix)
    assert_same_csr(skeleton_csr(half), 0.5 * K)
    assert np.array_equal(A.diagonal(), K.diagonal())


@pytest.mark.parametrize("mesh", [
    running_cell(2).mesh,
    msh.generate_masonry_wall(0.29, 0.14, 0.01, 2, 2, "running", 2),
    msh.generate_rectangle_mesh(1.2, 0.6, 4, 2)], ids=["cell", "wall", "macro"])
def test_diagonal_slots_equal_the_offset_search(mesh):
    ws = fem.workspace(mesh)
    skeleton = skeleton_positions(ws)
    diag, offset = newton_slots_oracle(skeleton)
    assert diag.size == 2 * mesh.n_nodes and offset.size == mesh.n_nodes
    assert np.array_equal(ws.diagonal_slots[0], skeleton.data[diag])
    assert np.array_equal(ws.diagonal_slots[1], skeleton.data[offset])


@pytest.mark.parametrize("mesh", [
    running_cell(4).mesh,
    msh.generate_masonry_wall(0.29, 0.14, 0.01, 3, 2, "running", 2),
    msh.generate_rectangle_mesh(1.2, 0.6, 4, 2)], ids=["cell", "wall", "macro"])
def test_stiffness_pattern_sorts_its_entries_as_lexsort(mesh):
    # the element entries in lexsort's (row, column, element) order
    # give each entry's slot and, slot by slot, the elements of the
    # stiffness operator and their pattern values
    ws = fem.Workspace(mesh)
    tris = mesh.triangles.astype(np.int32)
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    order = np.lexsort((cols, rows))
    sorted_rows, sorted_cols = rows[order], cols[order]
    fresh = np.ones(order.size, dtype=bool)
    fresh[1:] = ((sorted_rows[1:] != sorted_rows[:-1])
                 | (sorted_cols[1:] != sorted_cols[:-1]))
    pos = np.empty(order.size, dtype=np.int64)
    pos[order] = np.cumsum(fresh) - 1
    assert np.array_equal(ws.csr_pos, pos)
    assert np.array_equal(ws.csr_indices, sorted_cols[fresh])
    assert np.array_equal(ws.stiffness_operator.indices, order // 9)
    assert np.array_equal(ws.stiffness_operator.data,
                          ws.pattern.reshape(-1)[order])


def eager_cell_geometry(mesh):
    """(grads, pattern, csr_pos) as the workspace once built them on
    construction: the (M, 3, 2) corner gather, the broadcast pattern
    and the stable argsort of the row-major entry keys."""
    tris = mesh.triangles
    p = mesh.nodes[tris]
    areas = msh.triangle_areas(mesh)
    inv2a = 1.0 / (2.0 * areas)
    gx = np.stack([p[:, 1, 1] - p[:, 2, 1],
                   p[:, 2, 1] - p[:, 0, 1],
                   p[:, 0, 1] - p[:, 1, 1]], axis=1) * inv2a[:, None]
    gy = np.stack([p[:, 2, 0] - p[:, 1, 0],
                   p[:, 0, 0] - p[:, 2, 0],
                   p[:, 1, 0] - p[:, 0, 0]], axis=1) * inv2a[:, None]
    pattern = (gx[:, :, None] * gx[:, None, :]
               + gy[:, :, None] * gy[:, None, :]) * areas[:, None, None]
    tris32 = tris.astype(np.int32)
    rows = np.repeat(tris32, 3, axis=1).ravel()
    cols = np.tile(tris32, (1, 3)).ravel()
    order = np.argsort(rows.astype(np.int64) * mesh.n_nodes + cols,
                       kind="stable")
    rows, cols = rows[order], cols[order]
    fresh = np.empty(order.size, dtype=bool)
    fresh[0] = True
    fresh[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    pos = np.empty(order.size, dtype=np.int32)
    pos[order] = np.cumsum(fresh, dtype=np.int32) - 1
    return np.stack([gx, gy], axis=2), pattern, pos


CELL_GEOMETRY = ("grads", "pattern", "csr_pos", "node_areas")


def small_fine_solve(wall):
    """Two one-hour steps of a fine solve on wall, cold on the left."""
    schedule = BoundarySchedule(
        {"left": BoundaryRule("theta", constant=5.0),
         "right": BoundaryRule("theta", constant=20.0)},
        {"left": BoundaryRule("phi", constant=0.5),
         "right": BoundaryRule("phi", constant=0.5)})
    return solver.transient_solve(
        wall, default_materials(), schedule,
        fem.FieldState.uniform(wall.n_nodes, 20.0, 0.5), 1.0, 2.0)


def test_fine_solve_builds_no_cell_geometry():
    # only scatter, the cell tangent, the cell constraints and the FE2
    # macro step read these; a fine solve leaves them unbuilt
    wall = msh.generate_masonry_wall(0.29, 0.14, 0.01, 2, 2, "running", 2)
    small_fine_solve(wall)
    assert not set(CELL_GEOMETRY) & set(vars(fem.workspace(wall)))


@pytest.mark.parametrize("resolution", [2, 4])
def test_cell_geometry_is_built_on_first_use_as_it_was_eagerly(resolution):
    mesh = running_cell(resolution).mesh
    ws = fem.Workspace(mesh)
    assert not set(CELL_GEOMETRY) & set(vars(ws))
    node_areas = np.zeros(mesh.n_nodes)
    np.add.at(node_areas, mesh.triangles.ravel(), np.repeat(ws.areas / 3.0, 3))
    for name, ref in zip(CELL_GEOMETRY,
                         eager_cell_geometry(mesh) + (node_areas,)):
        # the layout too: einsum's sums over them follow it
        got = getattr(ws, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
        assert got.strides == ref.strides, name
        assert getattr(ws, name) is got, name


def held_bytes(obj, seen):
    """Bytes of the arrays that obj holds, each buffer counted once: an
    array counts its base's whole buffer, which a view keeps alive."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, (list, tuple)):
        return sum(held_bytes(o, seen) for o in obj)
    if isinstance(obj, dict):
        return sum(held_bytes(o, seen) for o in obj.values())
    if sp.issparse(obj) or isinstance(obj, fem.SystemPlan):
        return held_bytes(vars(obj), seen)
    return 0


def test_fine_workspace_footprint_per_element():
    # what the workspace and its plans hold after a fine solve; an eager
    # per-element array (the 48 bytes an element of grads, the 36 of
    # csr_pos) or a view that pins a per-entry temporary exceeds it.
    # At these 2048 elements the workspace holds 312 bytes an element;
    # with the cell geometry built eagerly it would hold 549
    wall = msh.generate_masonry_wall(0.29, 0.14, 0.01, 2, 2, "running", 4)
    small_fine_solve(wall)
    ws = fem.workspace(wall)
    assert ws.plans
    for plan in ws.plans.values():
        assert plan.border_cols.base is None
        assert plan.border_rows.base is None
    held = held_bytes({k: v for k, v in vars(ws).items() if k != "mesh"},
                      set())
    assert held <= 330 * wall.n_triangles


def test_shared_periodic_map_equals_a_fresh_map_bit_for_bit():
    cell = running_cell(2)
    red = cell.reduction
    loading = (12.0, 0.6, (30.0, -10.0), (0.5, 1.0))
    first = red.map_for(20.0, 0.5, (1.0, 0.0), (0.0, 1.0))
    shared = red.map_for(*loading)
    fresh = fem.ConstraintMap(red.T, red.affine(*loading), red.free_index,
                              red.rows, red.row_dofs, red.border)
    assert shared.T is first.T and shared.Tt is first.Tt
    assert not np.array_equal(shared.g, first.g)
    for name in ("T", "Tt", "border"):
        a, b = getattr(shared, name), getattr(fresh, name)
        assert type(a) is type(b) and a.shape == b.shape
        for part in ("data", "indices", "indptr", "row", "col"):
            if hasattr(b, part):
                assert np.array_equal(getattr(a, part), getattr(b, part))
    for name in ("g", "free_index", "rows", "row_dofs", "z_rows"):
        a, b = getattr(shared, name), getattr(fresh, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (shared.n_free, shared.size, shared._pattern_key) \
        == (fresh.n_free, fresh.size, fresh._pattern_key)
    R = np.random.default_rng(4).normal(size=2 * cell.mesh.n_nodes)
    z = R[:shared.n_free]
    assert np.array_equal(shared.expand(z), fresh.expand(z))
    assert np.array_equal(shared.reduce_vector(R), fresh.reduce_vector(R))


# ------------------------------------------------- one Kunzel evaluation


def per_phase_oracle(mesh, state, materials, evaluate, n_out):
    """n_out per-element arrays of evaluate(material, theta_c, phi_c) at
    centroid states, one call per phase: the loop that one call over all
    Kunzel phases replaced."""
    ws = fem.workspace(mesh)
    th_c = ws.element_mean(state.theta)
    ph_c = ws.element_mean(state.phi)
    out = [np.empty(mesh.n_triangles) for _ in range(n_out)]
    for pid, name in enumerate(mesh.phase_names):
        idx = np.nonzero(mesh.phases == pid)[0]
        if idx.size:
            for arr, vals in zip(out, evaluate(materials[name], th_c[idx],
                                               ph_c[idx])):
                arr[idx] = vals
    return out


def oracle_coefficients(material, theta, phi):
    c = material.coefficients(theta, phi)
    return [c.k_tt, c.k_tf, c.k_ft, c.k_ff, c.c_tt, c.c_ff]


def oracle_derivatives(material, theta, phi):
    d_theta, d_phi = material.conduction_derivatives(theta, phi)
    return [*d_theta, *d_phi, *material.storage_derivatives(theta, phi)]


def kunzel_and_linear_cell():
    """The r=2 running-bond cell with Kunzel brick and a linear mortar."""
    mortar = LinearMaterial("mortar", k_tt=0.9, k_ff=3e-9, c_tt=1.6e6,
                            c_ff=40.0, k_tf=2e-4, k_ft=1e-10)
    return (running_cell(2).mesh,
            {"brick": KunzelMaterial(BRICK), "mortar": mortar})


def evaluation_cases():
    return [(running_cell(2).mesh, default_materials()),
            (msh.generate_masonry_wall(0.29, 0.14, 0.01, 2, 2, "running", 2),
             default_materials()),
            kunzel_and_linear_cell()]


def freezing_state(mesh):
    """A state across the 0 degC branch switch of p_sat, phi 0.3 to 1."""
    x, y = (mesh.nodes / mesh.nodes.max(axis=0)).T
    return fem.FieldState(-5.0 + 30.0 * x - 8.0 * y, 0.3 + 0.5 * x + 0.2 * y)


@pytest.mark.parametrize("mesh, materials", evaluation_cases(),
                         ids=["cell", "wall", "kunzel-and-linear"])
def test_one_kunzel_call_equals_the_per_phase_oracle_bit_for_bit(mesh,
                                                                materials):
    # the coefficients, and the capacity terms and coefficient
    # derivatives read from the system of assemble_system and from that
    # of the solvers' one-argument assembler
    state = freezing_state(mesh)
    assert state.theta.min() < 0.0 < state.theta.max()
    systems = [fem.assemble_system(mesh, state, materials),
               solver._assemble(mesh, materials, state.vector())]
    ref = per_phase_oracle(mesh, state, materials, oracle_coefficients, 6)
    for coeff in [fem.CentroidMaterials(mesh, state.theta, state.phi,
                                        materials).coefficients()] \
            + [sysm.coeff for sysm in systems]:
        for name, r in zip(("k_tt", "k_tf", "k_ft", "k_ff", "c_tt", "c_ff"),
                           ref):
            assert np.array_equal(getattr(coeff, name), r), name
    ws = fem.workspace(mesh)
    dtt, dff = per_phase_oracle(
        mesh, state, materials,
        lambda m, t, p: m.storage_derivatives(t, p), 2)
    ref = np.array(per_phase_oracle(mesh, state, materials,
                                    oracle_derivatives, 10))
    for sysm in systems:
        gtt, gff = fem.capacity_jacobian_diagonals(sysm)
        assert np.array_equal(gtt, ws.lumped(dtt))
        assert np.array_equal(gff, ws.lumped(dff))
        dk, dc = fem.coefficient_derivatives(sysm)
        assert np.array_equal(dk, np.moveaxis(ref[:8].reshape(2, 2, 2, -1),
                                              0, 2))
        assert np.array_equal(dc, ref[8:])


def test_an_assembly_makes_one_kunzel_call_for_both_phases(monkeypatch):
    cell = running_cell(2)
    mesh = cell.mesh
    assert len(mesh.phase_names) == 2
    calls = []
    real = KunzelMaterial.coefficients

    def coefficients(material, theta, phi):
        calls.append(np.size(theta))
        return real(material, theta, phi)

    monkeypatch.setattr(KunzelMaterial, "coefficients", coefficients)
    u = freezing_state(mesh).vector()
    solver._assemble(mesh, cell.materials, u)
    assert calls == [mesh.n_triangles]


@pytest.mark.parametrize("mesh", kernel_meshes(), ids=["cell", "wall"])
def test_stiffness_operator_product_is_the_bincount_scatter_bit_for_bit(mesh):
    # the operator is the csc matrix whose column m holds element m's
    # pattern on its slots, stored by slot, each slot's elements in order
    ws = fem.workspace(mesh)
    m = mesh.n_triangles
    by_element = sp.csc_matrix(
        (ws.pattern.reshape(-1), ws.csr_pos,
         np.arange(0, 9 * m + 1, 9, dtype=np.int32)), shape=(ws.csr_nnz, m))
    assert_same_csr(ws.stiffness_operator, by_element.tocsr())
    sysm = fem.assemble_system(mesh, freezing_state(mesh),
                               default_materials())
    coeff, K = sysm.coeff, sysm.conductivity
    # column 2 a + b of the node blocks holds block (a, b)
    ref = np.empty((ws.csr_nnz, 4))
    for col, k in enumerate((coeff.k_tt, coeff.k_tf, coeff.k_ft, coeff.k_ff)):
        ref[:, col] = np.bincount(
            ws.csr_pos, weights=(k[:, None, None] * ws.pattern).ravel(),
            minlength=ws.csr_nnz)
    assert np.array_equal(K.data, ref.reshape(-1))
