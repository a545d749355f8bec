"""Unit-cell homogenization tests.

Closed-form references: a layered cell must reproduce the arithmetic
mean conductivity along the layers and the harmonic mean across them;
a homogeneous cell must answer like the bulk material exactly.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamfe2 import constitutive as cst
from hamfe2 import fem, homogenization as hom
from hamfe2 import mesh as meshmod
from hamfe2 import solver

LAM_A, LAM_B = 0.25, 0.45          # layer conductivities, heat
MOIST_A, MOIST_B = 0.10, 0.30      # layer conductivities, moisture
FROZEN = {
    "harmonic_tt": 0.321428571428571,   # 2 a b / (a + b)
    "arithmetic_tt": 0.35,
    "harmonic_ff": 0.15,
    "arithmetic_ff": 0.20,
}


def layered_cell():
    m = meshmod.generate_rectangle_mesh(1.0, 1.0, 4, 8)
    m = meshmod.with_phases(m, ("a", "b"), lambda xc, yc: (yc > 0.5).astype(int))
    mats = {"a": cst.LinearMaterial("a", k_tt=LAM_A, k_ff=MOIST_A, c_tt=1.0, c_ff=1.0),
            "b": cst.LinearMaterial("b", k_tt=LAM_B, k_ff=MOIST_B, c_tt=1.0, c_ff=1.0)}
    return m, mats


def scale_mesh(mesh, factor):
    """Geometrically similar mesh, coordinates multiplied by factor."""
    if factor <= 0:
        raise meshmod.MeshError("scale factor must be positive")
    return meshmod.Mesh(mesh.nodes * factor, mesh.triangles, mesh.phases,
                        mesh.phase_names, dict(mesh.boundary))


def steady_linear_homogenize(mesh, materials, theta=20.0, phi=0.5):
    """Effective conductivity blocks of the cell frozen at a uniform state.

    Solves the four steady periodic problems with unit macroscopic
    gradients and reads the gradient columns of kg, columns 2 to 5 of
    p, off the averaged fluxes; the value columns stay zero. Exact for
    linear materials; for nonlinear ones this is the tangent at the
    given state with the coefficient fields held fixed.
    """
    red = fem.PeriodicReduction(mesh, meshmod.detect_periodic_pairs(mesh))
    ws = fem.workspace(mesh)
    sysm = fem.assemble_system(
        mesh, fem.FieldState.uniform(mesh.n_nodes, theta, phi), materials)
    coeff, K = sysm.coeff, sysm.conductivity
    w = ws.areas / ws.areas.sum()
    kg = np.zeros((2, 2, 6))
    # one unit gradient (grad_Theta, grad_Phi) per gradient column of p
    cmaps = [red.map_for(0.0, 0.0, *e.reshape(2, 2)) for e in np.eye(4)]
    # the bordered matrix depends on the periodic pattern only, not on
    # the loading's g: one factorization serves the four loadings
    plan = cmaps[0].plan(K)
    rows = plan.order[cmaps[0].z_rows]
    lu = solver.factorize(cmaps[0].reduce_matrix(K, plan=plan))
    for k, cmap in enumerate(cmaps):
        rhs = np.zeros(cmap.size)
        rhs[rows] = -cmap.reduce_vector(K @ cmap.g)
        u = cmap.expand(lu.solve(rhs)[rows])
        # <k grad u> per unit macroscopic gradient, so that the
        # physical flux is q = -K_eff g
        kg[0][:, 2 + k], kg[1][:, 2 + k] = hom._mean_conduction(ws, coeff, w, u)
    return hom.TangentBlocks(kg)


def test_scale_mesh_similar():
    cell = meshmod.generate_masonry_cell(0.27, 0.27, 0.03, resolution=2)
    big = scale_mesh(cell, 10.0)
    assert big.bbox == pytest.approx((3.0, 3.0))
    assert big is not cell
    assert np.array_equal(big.triangles, cell.triangles)
    assert meshmod.triangle_areas(big).sum() == pytest.approx(
        100.0 * meshmod.triangle_areas(cell).sum(), rel=1e-12)
    assert cell.bbox == pytest.approx((0.3, 0.3))  # original untouched


def test_layered_cell_matches_mixture_rules():
    m, mats = layered_cell()
    tb = steady_linear_homogenize(m, mats)
    assert tb.kg[0, 0, 2] == pytest.approx(FROZEN["arithmetic_tt"], abs=1e-9)
    assert tb.kg[0, 1, 3] == pytest.approx(FROZEN["harmonic_tt"], abs=1e-9)
    assert tb.kg[1, 0, 4] == pytest.approx(FROZEN["arithmetic_ff"], abs=1e-9)
    assert tb.kg[1, 1, 5] == pytest.approx(FROZEN["harmonic_ff"], abs=1e-9)
    for block in (tb.kg[0, :, 2:4], tb.kg[1, :, 4:6]):
        assert abs(block[0, 1]) < 1e-12 and abs(block[1, 0]) < 1e-12
    assert np.abs(tb.kg[0, :, 4:6]).max() < 1e-12
    assert np.abs(tb.kg[1, :, 2:4]).max() < 1e-12


def test_steady_blocks_scale_invariant():
    m, mats = layered_cell()
    ref = steady_linear_homogenize(m, mats)
    big = steady_linear_homogenize(scale_mesh(m, 10.0), mats)
    assert np.allclose(big.kg[0, :, 2:4], ref.kg[0, :, 2:4], rtol=1e-9,
                       atol=1e-12)
    assert np.allclose(big.kg[1, :, 4:6], ref.kg[1, :, 4:6], rtol=1e-9,
                       atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(ka=st.floats(min_value=0.1, max_value=10.0),
       kb=st.floats(min_value=0.1, max_value=10.0),
       cut=st.integers(min_value=1, max_value=5))
def test_layered_bounds_property(ka, kb, cut):
    """Any layering sits between the Reuss and Voigt bounds."""
    m = meshmod.generate_rectangle_mesh(1.0, 1.0, 2, 6)
    y_cut = cut / 6.0
    m = meshmod.with_phases(m, ("a", "b"),
                            lambda xc, yc: (yc > y_cut).astype(int))
    frac_b = 1.0 - y_cut
    mats = {"a": cst.LinearMaterial("a", k_tt=ka, k_ff=1.0, c_tt=1.0, c_ff=1.0),
            "b": cst.LinearMaterial("b", k_tt=kb, k_ff=1.0, c_tt=1.0, c_ff=1.0)}
    tb = steady_linear_homogenize(m, mats)
    voigt = (1.0 - frac_b) * ka + frac_b * kb
    reuss = 1.0 / ((1.0 - frac_b) / ka + frac_b / kb)
    assert reuss - 1e-9 <= tb.kg[0, 1, 3] <= voigt + 1e-9
    assert tb.kg[0, 0, 2] == pytest.approx(voigt, rel=1e-9)
    assert np.all(np.linalg.eigvals(tb.kg[0, :, 2:4]) > 0.0)


HOMOG = cst.LinearMaterial("s", k_tt=0.5, k_ff=0.2, c_tt=2e6, c_ff=40.0)


def homogeneous_cell(lx=0.3, ly=0.3, n=6):
    return hom.CellProblem(meshmod.generate_rectangle_mesh(lx, ly, n, n),
                           {"solid": HOMOG})


def test_zero_loading_zero_response():
    cell = homogeneous_cell()
    l0 = hom.MacroLoading(20.0, 0.5, [0, 0], [0, 0], dt=600.0)
    state, r0 = hom.initial_response(cell, l0)
    assert np.all(r0.q_heat == 0.0) and np.all(r0.q_moist == 0.0)
    assert r0.s_t == 0.0 and r0.s_f == 0.0
    state, r = hom.solve_rve_increment(cell, state, l0)
    assert np.all(state.fluct == 0.0)
    assert r.s_t == 0.0 and r.s_f == 0.0


def test_uniform_value_step_exact_storage():
    """A homogeneous cell heated uniformly stores c dTheta/dt exactly."""
    cell = homogeneous_cell()
    dt = 600.0
    st0, _ = hom.initial_response(cell, hom.MacroLoading(20.0, 0.5, [0, 0], [0, 0], dt=dt))
    st1, r = hom.solve_rve_increment(
        cell, st0, hom.MacroLoading(21.0, 0.55, [0, 0], [0, 0], dt=dt))
    assert r.s_t == pytest.approx(2e6 * 1.0 / dt, rel=1e-12)
    assert r.s_f == pytest.approx(40.0 * 0.05 / dt, rel=1e-12)
    assert np.linalg.norm(st1.fluct) < 1e-10


def test_initial_response_flux_from_affine_gradients():
    cell = homogeneous_cell()
    lg = hom.MacroLoading(20.0, 0.5, [3.0, -1.0], [0.2, 0.1], dt=600.0)
    _, r = hom.initial_response(cell, lg)
    assert np.allclose(r.q_heat, -0.5 * np.array([3.0, -1.0]), rtol=1e-12)
    assert np.allclose(r.q_moist, -0.2 * np.array([0.2, 0.1]), rtol=1e-12)
    assert r.s_t == 0.0 and r.s_f == 0.0


def test_homogeneous_tangent_recovers_material():
    cell = homogeneous_cell()
    dt = 600.0
    st0, _ = hom.initial_response(cell, hom.MacroLoading(20.0, 0.5, [0, 0], [0, 0], dt=dt))
    st1, r = hom.solve_rve_increment(
        cell, st0, hom.MacroLoading(20.5, 0.52, [2.0, 1.0], [0.1, -0.05], dt=dt),
        want_tangents=True)
    t = r.tangent
    assert np.allclose(t.kg[0, :, 2:4], 0.5 * np.eye(2), atol=1e-6)
    assert np.allclose(t.kg[1, :, 4:6], 0.2 * np.eye(2), atol=1e-6)
    assert np.allclose(t.kg[0, :, 4:6], 0.0, atol=1e-6)
    assert np.allclose(t.kg[1, :, 2:4], 0.0, atol=1e-6)
    assert t.c[0] == pytest.approx(2e6, rel=1e-6)
    assert t.c[1] == pytest.approx(40.0, rel=1e-6)


MASONRY_LINEAR = {
    "brick": cst.LinearMaterial("brick", k_tt=0.25, k_ff=1e-5, c_tt=1.4e6, c_ff=30.0),
    "mortar": cst.LinearMaterial("mortar", k_tt=0.45, k_ff=4e-5, c_tt=1.7e6, c_ff=90.0),
}


def masonry_mesh():
    return meshmod.generate_masonry_cell(0.27, 0.27, 0.03, resolution=2)


def test_linear_masonry_steady_limit_matches_blocks():
    """Transient response at fixed loading relaxes onto the steady
    homogenization answer, which is exact for linear phases."""
    m = masonry_mesh()
    cell = hom.CellProblem(m, MASONRY_LINEAR)
    tb = steady_linear_homogenize(m, MASONRY_LINEAR)
    g_t = np.array([10.0, 3.0])
    g_f = np.array([0.2, 0.05])
    state, _ = hom.initial_response(
        cell, hom.MacroLoading(25.0, 0.6, [0, 0], [0, 0], dt=600.0))
    fix = hom.MacroLoading(25.0, 0.6, g_t, g_f, dt=600.0)
    for _ in range(200):
        state, r = hom.solve_rve_increment(cell, state, fix)
    assert abs(r.s_t) < 1e-7 and abs(r.s_f) < 1e-12
    q_pred = -(tb.kg[0, :, 2:4] @ g_t + tb.kg[0, :, 4:6] @ g_f)
    qm_pred = -(tb.kg[1, :, 2:4] @ g_t + tb.kg[1, :, 4:6] @ g_f)
    assert np.linalg.norm(r.q_heat - q_pred) < 1e-6 * np.linalg.norm(q_pred)
    assert np.linalg.norm(r.q_moist - qm_pred) < 1e-6 * np.linalg.norm(qm_pred)
    # mixture bounds for the diagonal entries
    areas = meshmod.triangle_areas(m)
    frac_m = areas[m.phases == m.phase_names.index("mortar")].sum() / areas.sum()
    voigt = (1 - frac_m) * 0.25 + frac_m * 0.45
    reuss = 1.0 / ((1 - frac_m) / 0.25 + frac_m / 0.45)
    for d in (tb.kg[0, 0, 2], tb.kg[0, 1, 3]):
        assert reuss - 1e-9 < d < voigt + 1e-9


# brick and mortar with constant coefficients and both cross couplings
COUPLED_LINEAR = {
    "brick": cst.LinearMaterial("brick", k_tt=0.25, k_ff=1e-5, c_tt=1.4e6,
                                c_ff=30.0, k_tf=0.02, k_ft=1e-7),
    "mortar": cst.LinearMaterial("mortar", k_tt=0.45, k_ff=4e-5, c_tt=1.7e6,
                                 c_ff=90.0, k_tf=0.05, k_ft=3e-7),
}


def test_tiled_cells_answer_like_one_cell_with_linear_materials():
    # with constant coefficients the fluctuation is periodic on every
    # tiling of the period, so 2 x 1 and 1 x 2 tilings of the running
    # cell answer like the cell itself: the periodic map, the lumped-area
    # anchoring, the offsets and the averages must not see the tiling.
    # The cell loadings: a first increment with a tangent from a fresh
    # state, then a second from its state
    first = hom.MacroLoading(12.0, 0.6, [30.0, -10.0], [0.5, 1.0], dt=3600.0)
    second = hom.MacroLoading(12.3, 0.602, [31.0, -10.5], [0.52, 1.0],
                              dt=3600.0)
    answers = []
    for nx, ny in ((1, 1), (2, 1), (1, 2)):
        cell = hom.CellProblem(
            meshmod.generate_masonry_wall(0.29, 0.14, 0.01, nx, ny,
                                          "running", 2), COUPLED_LINEAR)
        committed, _ = hom.initial_response(
            cell, hom.MacroLoading(20.0, 0.5, [0, 0], [0, 0], dt=3600.0))
        state, r1 = hom.solve_rve_increment(cell, committed, first,
                                            want_tangents=True)
        _, r2 = hom.solve_rve_increment(cell, state, second)
        answers.append({"kg": r1.tangent.kg, "c": r1.tangent.c,
                        **{f"{name}_{k}": getattr(r, name)
                           for k, r in enumerate((r1, r2))
                           for name in ("q_heat", "q_moist", "s_t", "s_f")}})
    one, *tiled = answers
    for name, ref in one.items():
        scale = np.max(np.abs(ref))
        assert scale > 0.0, name
        for other in tiled:
            assert np.max(np.abs(other[name] - ref)) <= 1e-12 * scale, name


def test_nonlinear_masonry_tangent_sane():
    cell = hom.CellProblem(masonry_mesh(), cst.default_materials())
    dt = 3600.0
    st0, _ = hom.initial_response(cell, hom.MacroLoading(20.0, 0.5, [0, 0], [0, 0], dt=dt))
    st1, r = hom.solve_rve_increment(
        cell, st0, hom.MacroLoading(20.5, 0.55, [5.0, 0.0], [0.1, 0.0], dt=dt),
        want_tangents=True)
    t = r.tangent
    phase_ktt = [m.coefficients(20.5, 0.55).k_tt
                 for m in cst.default_materials().values()]
    phase_ctt = [m.coefficients(20.5, 0.55).c_tt
                 for m in cst.default_materials().values()]
    for d in (t.kg[0, 0, 2], t.kg[0, 1, 3]):
        assert 0.5 * min(phase_ktt) < d < 2.0 * max(phase_ktt)
    assert abs(t.kg[0, 0, 3]) < 0.05 * t.kg[0, 0, 2]
    assert abs(t.kg[0, 1, 2]) < 0.05 * t.kg[0, 0, 2]
    assert min(phase_ctt) * 0.9 < t.c[0] < max(phase_ctt) * 1.1
    assert t.c[1] > 0.0
    assert t.kg[1, 0, 4] > 0.0 and t.kg[1, 1, 5] > 0.0
    # latent coupling block is significant for this material pair
    assert t.kg[0, 0, 4] > 0.01


TANGENT_LOADINGS = pytest.mark.parametrize("loading", [
    hom.MacroLoading(20.0, 0.5, [5.0, 0.0], [0.0, 0.0], dt=3600.0),
    hom.MacroLoading(12.0, 0.6, [30.0, -10.0], [0.5, 1.0], dt=3600.0)])


def running_bond_cell(resolution, config=None):
    mesh = meshmod.generate_masonry_cell(0.29, 0.14, 0.01, "running",
                                         resolution)
    return hom.CellProblem(mesh, cst.default_materials(), config)


@pytest.mark.parametrize("resolution", [2, 4])
@TANGENT_LOADINGS
def test_tangent_system_solve_matches_dense(monkeypatch, resolution, loading):
    """The cell tangent's bordered system, on a running-bond cell, is
    solved as accurately as a dense LU solves it on the rows it reads."""
    cell = running_bond_cell(resolution)
    state, _ = hom.initial_response(cell, loading)
    solves = []
    real_spsolve = hom.spla.spsolve

    def spsolve(matrix, rhs, **kwargs):
        x = real_spsolve(matrix, rhs, **kwargs)
        solves.append((matrix, rhs, x))
        return x

    monkeypatch.setattr(hom.spla, "spsolve", spsolve)
    hom.solve_rve_increment(cell, state, loading, want_tangents=True)
    (matrix, rhs, x), = solves
    dense = np.linalg.solve(matrix.toarray(), rhs)
    rows = np.any(rhs != 0.0, axis=1)
    assert rows.sum() > matrix.shape[0] // 2
    error = np.abs(x[rows] - dense[rows]).max()
    assert error <= 1e-11 * np.abs(dense[rows]).max()


def einsum_tangent(cell, cmap, sysm, u_new, u_old, dt):
    """effective_tangent with its averages taken by per-element gathers
    and einsums: the oracle of the element-operator averaging. Its
    coefficient derivatives come from a fresh evaluation at u_new."""
    mesh = cell.mesh
    n = mesh.n_nodes
    ws = fem.workspace(mesh)
    tris = mesh.triangles
    rate = (u_new - u_old) / dt
    K, C, coeff = sysm.conductivity, sysm.storage_diagonal(), sysm.coeff
    dk, dc = fem.coefficient_derivatives(fem.assemble_system(
        mesh, fem.FieldState.from_vector(u_new), cell.materials))
    J = fem.state_jacobian(mesh, u_new, rate, (dk, dc))
    J.data += 0.5 * K.data
    J.data[ws.diagonal_slots[0]] += C / dt
    matrix, rows = cmap.newton_system(J, C)
    dg = np.zeros((2 * n, 6))
    dg[:n, 0] = dg[n:, 1] = 1.0
    dg[:n, 2:4] = dg[n:, 4:6] = mesh.nodes - cell.reduction.x0
    w = 1.0 / np.maximum(C[cmap.free_index], 1e-300)
    rhs = np.zeros((matrix.shape[0], 6))
    rhs[rows] = -(w[:, None] * (cmap.Tt @ (J @ dg)))
    dz = hom.spla.spsolve(matrix, rhs, permc_spec="NATURAL")[rows]
    du = cmap.T @ dz + dg
    d_nodal = [du[:n][tris], du[n:][tris]]
    d_mean = [d.mean(axis=1) for d in d_nodal]
    d_grad = [np.einsum("mid,mik->mdk", ws.grads, d) for d in d_nodal]
    grad = [ws.element_gradient(u_new[:n]), ws.element_gradient(u_new[n:])]
    k = ((coeff.k_tt, coeff.k_tf), (coeff.k_ft, coeff.k_ff))
    w = ws.areas / cell.area
    kg, s = [], []
    for a, (c, r) in enumerate(((coeff.c_tt, ws.element_mean(rate[:n])),
                                (coeff.c_ff, ws.element_mean(rate[n:])))):
        flux = sum((dk[a, b, 0][:, None] * d_mean[0]
                    + dk[a, b, 1][:, None] * d_mean[1])[:, None, :]
                   * grad[b][:, :, None] + k[a][b][:, None, None] * d_grad[b]
                   for b in (0, 1))
        store = (dc[a] * r)[:, None] * d_mean[1] + c[:, None] * d_mean[a] / dt
        kg.append(np.einsum("m,mdk->dk", w, flux))
        s.append(w @ store)
    return hom.TangentBlocks(np.array(kg),
                             np.array([s[0][0] * dt, s[1][1] * dt])), dz


@pytest.mark.parametrize("resolution", [2, 4])
@TANGENT_LOADINGS
def test_tangent_averages_match_the_einsum_oracle(monkeypatch, resolution,
                                                  loading):
    cell = running_bond_cell(resolution)
    state, _ = hom.initial_response(cell, loading)
    seen = []
    real_tangent = hom.effective_tangent

    def tangent(*args):
        out = real_tangent(*args)
        seen.append((args, out))
        return out

    monkeypatch.setattr(hom, "effective_tangent", tangent)
    hom.solve_rve_increment(cell, state, loading, want_tangents=True)
    (args, (blocks, dz)), = seen
    ref, ref_dz = einsum_tangent(*args)
    for new, old in ((blocks.kg, ref.kg), (blocks.c, ref.c), (dz, ref_dz)):
        assert new.shape == old.shape
        assert np.abs(new - old).max() <= 1e-13 * np.abs(old).max()


@pytest.mark.parametrize("resolution", [2, 4])
@TANGENT_LOADINGS
def test_sensitivity_matches_central_differences(resolution, loading):
    """T dz/dp, the sensitivity a tangent increment keeps on its state,
    matches central differences of the converged fluctuation in all six
    directions of p, within 1e-5 of each column's largest entry.

    Newton runs to a residual floor of 1e-13, so the states the
    differences and the tangent see are converged far below the step
    sizes; under a floor of 1e-14 one perturbed r=4 increment stalled on
    round-off at 1.3e-14. Measured worst case: 1.7e-6, in the Theta
    column of the r=2 cell under the first loading, whose entries are
    only about 4e-5.
    """
    cell = running_bond_cell(resolution, solver.SolverConfig(
        newton_tol=1e-12, newton_floor=1e-13, max_iterations=50))
    state, _ = hom.initial_response(cell, loading)
    converged, _ = hom.solve_rve_increment(cell, state, loading,
                                           want_tangents=True)
    p = hom._loading_vector(loading)
    # K, -, K/m, K/m, 1/m, 1/m
    steps = (1e-2, 1e-5, 1e-2, 1e-2, 1e-4, 1e-4)
    for k, h in enumerate(steps):
        def fluct(sign):
            q = p.copy()
            q[k] += sign * h
            moved = hom.MacroLoading(q[0], q[1], q[2:4], q[4:6], dt=loading.dt)
            return hom.solve_rve_increment(cell, state, moved)[0].fluct
        difference = (fluct(1) - fluct(-1)) / (2 * h)
        analytic = cell.reduction.T @ converged.sensitivity[:, k]
        assert (np.abs(difference - analytic).max()
                <= 1e-5 * np.abs(analytic).max()), k


# one cell point across two rounds of the first macro step of a wall
# whose left face jumps to 32 deg C and phi 0.85: the tangent round, then
# the loading after one macro Newton update
ROUND_1 = hom.MacroLoading(24.0, 0.6167, [-20.0, 0.0], [-0.583, 0.0],
                           dt=3600.0)
ROUND_2 = hom.MacroLoading(24.123, 0.6191, [-19.687, -0.0466],
                           [-0.5773, 0.00115], dt=3600.0)


def test_predicted_start_saves_iterations(monkeypatch):
    cell = running_bond_cell(2)
    committed, _ = hom.initial_response(
        cell, hom.MacroLoading(20.0, 0.5, [0, 0], [0, 0], dt=3600.0))
    previous, _ = hom.solve_rve_increment(cell, committed, ROUND_1,
                                          want_tangents=True)
    assert previous.sensitivity.shape == (cell.reduction.free_index.size, 6)
    iterations = []
    real_newton = solver.newton_solve

    def counted(*args, **kwargs):
        z, trace = real_newton(*args, **kwargs)
        iterations.append(len(trace) - 1)
        return z, trace

    monkeypatch.setattr(solver, "newton_solve", counted)
    predicted, _ = hom.solve_rve_increment(cell, committed, ROUND_2,
                                           start=previous)
    plain, _ = hom.solve_rve_increment(
        cell, committed, ROUND_2, start=replace(previous, sensitivity=None))
    # measured 4 against 7
    assert iterations[0] < iterations[1]
    # the same root: Newton stops at a 1e-8 relative residual drop, and
    # the two fluctuations differ by 4e-9 of their size
    assert (np.abs(predicted.fluct - plain.fluct).max()
            <= 1e-7 * np.abs(plain.fluct).max())
    # a round without tangents carries the start's sensitivity on
    assert predicted.sensitivity is previous.sensitivity
    assert plain.sensitivity is None


def test_tangent_increment_ignores_a_carried_sensitivity():
    # a tangent round starts from its committed state, whatever that
    # state carries, so a retried step repeats a fresh one bit for bit
    cell = running_bond_cell(2)
    committed, _ = hom.initial_response(
        cell, hom.MacroLoading(20.0, 0.5, [0, 0], [0, 0], dt=3600.0))
    previous, _ = hom.solve_rve_increment(cell, committed, ROUND_1,
                                          want_tangents=True)
    bare = replace(previous, sensitivity=None)
    a = hom.solve_rve_increment(cell, previous, ROUND_2, want_tangents=True)
    b = hom.solve_rve_increment(cell, bare, ROUND_2, want_tangents=True)
    assert_same_increment(a, b)
    assert np.array_equal(a[0].sensitivity, b[0].sensitivity)


def test_failed_increment_raises_solver_error():
    cell = hom.CellProblem(masonry_mesh(), cst.default_materials(),
                           solver.SolverConfig(max_iterations=1))
    st0, _ = hom.initial_response(cell, hom.MacroLoading(20.0, 0.5, [0, 0], [0, 0], dt=3600.0))
    hard = hom.MacroLoading(32.0, 0.85, [40.0, 0.0], [0.3, 0.0], dt=3600.0)
    with pytest.raises(solver.SolverError):
        hom.solve_rve_increment(cell, st0, hard)


def test_macro_loading_validation():
    with pytest.raises(ValueError):
        hom.MacroLoading(20.0, 0.5, [0, 0, 0], [0, 0], dt=60.0)
    with pytest.raises(ValueError):
        hom.MacroLoading(20.0, 0.5, [0, 0], [0, 0], dt=0.0)


# A one-step drop of the mean humidity redistributes in inverse proportion
# to the local moisture capacities while transport is frozen, so the softest
# pure-mortar node swings 5-6 times the mean jump, with softening runaway
# below that. Measured on this cell at dt = 60 s: drying jumps beyond about
# -0.035 push that node out of [0, 1] and have no admissible solution.
# Wetting jumps stiffen the capacity and are safe far beyond +0.12.
@settings(max_examples=100, deadline=None)
@given(theta=st.floats(min_value=-10.0, max_value=35.0),
       phi=st.floats(min_value=0.48, max_value=0.62),
       gtx=st.floats(min_value=-50.0, max_value=50.0),
       gty=st.floats(min_value=-50.0, max_value=50.0),
       gfx=st.floats(min_value=-0.15, max_value=0.15),
       gfy=st.floats(min_value=-0.15, max_value=0.15),
       dt=st.floats(min_value=60.0, max_value=7200.0))
def test_fluctuation_invariants_property(theta, phi, gtx, gty, gfx, gfy, dt):
    """For any admissible loading the converged fluctuation field is
    periodic and has zero lumped-area weighted mean per field."""
    cell = _PROPERTY_CELL
    start = hom.MacroLoading(20.0, 0.5, [0, 0], [0, 0], dt=dt)
    state, _ = hom.initial_response(cell, start)
    loading = hom.MacroLoading(theta, phi, [gtx, gty], [gfx, gfy], dt=dt)
    state, _ = hom.solve_rve_increment(cell, state, loading)
    n = cell.mesh.n_nodes
    red = cell.reduction
    w = fem.workspace(cell.mesh).node_areas
    for part in (state.fluct[:n], state.fluct[n:]):
        # periodicity: slaves carry the master value
        assert np.allclose(part[cell.pairing.slaves],
                           part[cell.pairing.masters], atol=1e-8)
        # zero weighted mean
        scale = max(np.abs(part).max(), 1e-30)
        assert abs(w @ part) < 1e-8 * w.sum() * scale
    # the full field jumps across the cell exactly by gradient * period
    total = cell.total_vector(state)
    jump = total[:n][cell.pairing.slaves] - total[:n][cell.pairing.masters]
    expect = cell.pairing.offsets @ np.array([gtx, gty])
    assert np.allclose(jump, expect, atol=1e-8 * max(1.0, abs(gtx) + abs(gty)))


# generous iteration budget: the random loadings include one-step jumps
# far harsher than any time-continuous drive
_PROPERTY_CELL = hom.CellProblem(masonry_mesh(), cst.default_materials(),
                                 solver.SolverConfig(max_iterations=80))


STALL_DT = 1592.0
STALL_LOADING = hom.MacroLoading(3.541089200618295, 0.5,
                                 [22.36328125, 34.18359375],
                                 [0.140625, 0.0234375], dt=STALL_DT)


def solve_stall_case():
    start = hom.MacroLoading(20.0, 0.5, [0, 0], [0, 0], dt=STALL_DT)
    state, _ = hom.initial_response(_PROPERTY_CELL, start)
    return hom.solve_rve_increment(_PROPERTY_CELL, state, STALL_LOADING)


@pytest.mark.xfail(raises=solver.SolverError, strict=True,
                   reason="the two-branch p_sat fit kinks at 0 deg C (slope "
                          "50.33 Pa/K below, 44.56 above), so k_tt and k_ft "
                          "jump inside this cell; Newton alternates near "
                          "2.1e-6 against a target of 1.6e-10")
def test_stored_newton_stall_case_converges():
    """A loading drawn by the property test above on which the cell
    Newton iteration stalls. Its affine temperature spans -4.94 to
    12.02 deg C, across the kink of the saturation pressure fit at the
    freezing point; a consistent Jacobian does not remove the stall."""
    solve_stall_case()


def test_stored_stall_case_converges_without_the_freezing_kink(monkeypatch):
    # the same loading with the over-water branch of p_sat on both sides
    # of 0 deg C: smooth coefficients, and Newton converges. Every
    # evaluation of p_sat and its derivatives takes its fit coefficients
    # from _saturation_branch
    monkeypatch.setattr(cst, "_saturation_branch", lambda th: (17.08, 234.18))
    n = _PROPERTY_CELL.mesh.n_nodes
    theta = _PROPERTY_CELL.affine_vector(STALL_LOADING)[:n]
    assert theta.min() < 0.0 < theta.max()
    traces = []
    real_newton = solver.newton_solve

    def counted(*args, **kwargs):
        z, trace = real_newton(*args, **kwargs)
        traces.append(trace)
        return z, trace

    monkeypatch.setattr(solver, "newton_solve", counted)
    solve_stall_case()
    assert len(traces) == 1 and len(traces[0]) - 1 <= 8


def assert_same_increment(a, b):
    (state_a, resp_a), (state_b, resp_b) = a, b
    assert np.array_equal(state_a.fluct, state_b.fluct)
    assert np.array_equal(state_a.old, state_b.old)
    for name in ("q_heat", "q_moist"):
        assert np.array_equal(getattr(resp_a, name), getattr(resp_b, name))
    assert resp_a.s_t == resp_b.s_t and resp_a.s_f == resp_b.s_f
    for name in ("kg", "c"):
        assert np.array_equal(getattr(resp_a.tangent, name),
                              getattr(resp_b.tangent, name))


def test_increments_evaluate_each_cell_state_once(monkeypatch):
    cell = _PROPERTY_CELL
    assert len(cell.mesh.phase_names) == 2
    calls, evals = [], []
    real_coefficients = cst.KunzelMaterial.coefficients
    real_newton = solver.newton_solve

    def coefficients(material, theta, phi):
        calls.append(material.name)
        return real_coefficients(material, theta, phi)

    def newton(residual_jacobian, *args, **kwargs):
        def counted(z):
            evals.append(1)
            return residual_jacobian(z)
        return real_newton(counted, *args, **kwargs)

    start = hom.MacroLoading(20.0, 0.5, [0.0, 0.0], [0.0, 0.0], dt=3600.0)
    committed, _ = hom.initial_response(cell, start)
    # two rounds of one macro step, loadings differing as macro iterates do
    rounds = [hom.MacroLoading(17.0, 0.55, [4.0, -2.0], [0.3, 0.1], dt=3600.0),
              hom.MacroLoading(17.5, 0.54, [4.5, -2.5], [0.3, 0.2], dt=3600.0)]
    monkeypatch.setattr(cst.KunzelMaterial, "coefficients", coefficients)
    monkeypatch.setattr(solver, "newton_solve", newton)

    def counted_increment(state, loading):
        calls.clear()
        evals.clear()
        out = hom.solve_rve_increment(cell, state, loading, want_tangents=True)
        return out, len(calls), len(evals)

    # one coefficients call covers both phases of an evaluation; the
    # first increment from a fresh state computes its old data
    _, n_calls, n_evals = counted_increment(committed, rounds[0])
    assert committed.old is not None
    assert n_calls == n_evals + 1
    # the later round reuses it and evaluates the converged state no more
    second, n_calls, n_evals = counted_increment(committed, rounds[1])
    assert n_calls == n_evals
    fresh = hom.MesoState(committed.fluct.copy(), committed.loading)
    assert_same_increment(second, counted_increment(fresh, rounds[1])[0])
    # a converged state carries the pair Newton evaluated there
    new_state = second[0]
    assert new_state.old is not None
    step = hom.MacroLoading(16.0, 0.56, [4.0, -2.0], [0.3, 0.2], dt=3600.0)
    carried, n_calls, n_evals = counted_increment(new_state, step)
    assert n_calls == n_evals
    fresh = hom.MesoState(new_state.fluct.copy(), new_state.loading)
    assert_same_increment(carried, counted_increment(fresh, step)[0])


def test_an_increment_gathers_the_materials_once_per_state(monkeypatch):
    # an r=2 increment with tangent: the capacity terms of every Newton
    # matrix and the tangent's coefficient derivatives read the system
    # of their state, so the Kunzel constants are gathered once per
    # evaluated state, the old data's included
    cell = running_bond_cell(2)
    gathers, states, factors = [], [], []
    over_elements = cst.KunzelMaterial.over_elements.__func__
    assembler = cell._assembler
    factorize = solver.factorize

    def gather(cls, phases, phase_of):
        gathers.append(phase_of.size)
        return over_elements(cls, phases, phase_of)

    def evaluate(u):
        states.append(u)
        return assembler(u)

    def counted_factorize(matrix):
        factors.append(matrix.shape)
        return factorize(matrix)

    monkeypatch.setattr(cst.KunzelMaterial, "over_elements",
                        classmethod(gather))
    monkeypatch.setattr(solver, "factorize", counted_factorize)
    cell._assembler = evaluate
    loading = hom.MacroLoading(12.0, 0.6, [30.0, -10.0], [0.5, 1.0],
                               dt=3600.0)
    _, response = hom.solve_rve_increment(cell, cell.initial_state(loading),
                                          loading, want_tangents=True)
    assert response.tangent is not None and len(factors) >= 2
    assert len(gathers) == len(states)
    assert gathers == [cell.mesh.n_triangles] * len(states)


def test_cell_increment_builds_scipy_matrices_only_to_factor_them(monkeypatch):
    # a cell increment without tangents builds one scipy matrix per
    # Newton factorization, the bordered system it factors, and none on
    # its residual evaluations, its constraint map or its averages. A
    # first increment computes the plan of the cell's Newton pattern
    from scipy.sparse._compressed import _cs_matrix
    cell = running_bond_cell(2)
    loading = hom.MacroLoading(12.0, 0.6, [30.0, -10.0], [0.5, 1.0],
                               dt=3600.0)
    hom.solve_rve_increment(cell, cell.initial_state(loading), loading)
    state = cell.initial_state(replace(loading, theta=14.0))
    events = []
    init, factorize = _cs_matrix.__init__, solver.factorize

    def construct(matrix, *args, **kwargs):
        events.append("construct")
        init(matrix, *args, **kwargs)

    def factor(matrix):
        events.append("factor")
        return factorize(matrix)

    monkeypatch.setattr(_cs_matrix, "__init__", construct)
    monkeypatch.setattr(solver, "factorize", factor)
    hom.solve_rve_increment(cell, state, loading)
    n = events.count("factor")
    assert n >= 2
    assert events == ["construct", "factor"] * n
