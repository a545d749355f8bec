"""Element matrices, assembly, and constraint elimination."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from hamfe2 import fem, mesh as msh
from hamfe2.constitutive import CoefficientSet, LinearMaterial

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
    return np.concatenate([system.K_tt @ th + system.K_tf @ ph,
                           system.K_ft @ th + system.K_ff @ ph])


def apply_dirichlet(system, values):
    """Reduced steady operator (A_red, b_red, cmap) for K u = f.

    values maps full field-major dof indices to prescribed values.
    """
    cmap = fem.dirichlet_map(2 * system.n_nodes, values)
    A_red, b_red = cmap.reduce_system(system.stiffness(), system.f)
    return A_red, b_red, cmap


def apply_periodic_constraints(system, mesh, pairing, grad_theta, grad_phi,
                               value_theta=0.0, value_phi=0.0):
    """Reduced steady periodic cell system (A_red, b_red, cmap).

    Slave dofs equal their master plus the affine offset grad . dx; the
    weighted mean of each field is anchored to its macro value.
    """
    red = fem.PeriodicReduction(mesh, pairing)
    cmap = red.map_for(value_theta, value_phi, grad_theta, grad_phi)
    A_red, b_red = cmap.reduce_system(system.stiffness(), system.f)
    return A_red, b_red, cmap


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
    u = cmap.expand(spla.spsolve(A.tocsc(), b))
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
