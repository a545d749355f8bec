"""Unit-cell homogenization tests.

Closed-form references: a layered cell must reproduce the arithmetic
mean conductivity along the layers and the harmonic mean across them;
a homogeneous cell must answer like the bulk material exactly.
"""

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


def quad_areas_centroids(mesh):
    """Independent one-point quadrature data from the raw arrays."""
    pts = mesh.nodes[mesh.triangles]
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    return areas, pts.mean(axis=1)


def test_layered_cell_matches_mixture_rules():
    m, mats = layered_cell()
    tb = hom.steady_linear_homogenize(m, mats)
    assert tb.k_tt[0, 0] == pytest.approx(FROZEN["arithmetic_tt"], abs=1e-9)
    assert tb.k_tt[1, 1] == pytest.approx(FROZEN["harmonic_tt"], abs=1e-9)
    assert tb.k_ff[0, 0] == pytest.approx(FROZEN["arithmetic_ff"], abs=1e-9)
    assert tb.k_ff[1, 1] == pytest.approx(FROZEN["harmonic_ff"], abs=1e-9)
    for block in (tb.k_tt, tb.k_ff):
        assert abs(block[0, 1]) < 1e-12 and abs(block[1, 0]) < 1e-12
    assert np.abs(tb.k_tf).max() < 1e-12 and np.abs(tb.k_ft).max() < 1e-12


def test_steady_blocks_scale_invariant():
    m, mats = layered_cell()
    ref = hom.steady_linear_homogenize(m, mats)
    big = hom.steady_linear_homogenize(meshmod.scale_mesh(m, 10.0), mats)
    assert np.allclose(big.k_tt, ref.k_tt, rtol=1e-9, atol=1e-12)
    assert np.allclose(big.k_ff, ref.k_ff, rtol=1e-9, atol=1e-12)


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
    tb = hom.steady_linear_homogenize(m, mats)
    voigt = (1.0 - frac_b) * ka + frac_b * kb
    reuss = 1.0 / ((1.0 - frac_b) / ka + frac_b / kb)
    assert reuss - 1e-9 <= tb.k_tt[1, 1] <= voigt + 1e-9
    assert tb.k_tt[0, 0] == pytest.approx(voigt, rel=1e-9)
    assert np.all(np.linalg.eigvals(tb.k_tt) > 0.0)


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
    assert np.all(r.m_t == 0.0) and np.all(r.m_f == 0.0)


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
    assert np.abs(r.m_t).max() < 1e-9 and np.abs(r.m_f).max() < 1e-12


def test_initial_response_flux_from_affine_gradients():
    cell = homogeneous_cell()
    lg = hom.MacroLoading(20.0, 0.5, [3.0, -1.0], [0.2, 0.1], dt=600.0)
    _, r = hom.initial_response(cell, lg)
    assert np.allclose(r.q_heat, -0.5 * np.array([3.0, -1.0]), rtol=1e-12)
    assert np.allclose(r.q_moist, -0.2 * np.array([0.2, 0.1]), rtol=1e-12)
    assert r.s_t == 0.0 and r.s_f == 0.0


def test_gradient_step_moment_quasi_static():
    """dt far above the cell diffusion time: the storage moment equals
    the one-point quadrature of c (x - x0) (x - x0) dgrad/dt."""
    cell = homogeneous_cell()
    # the residual fluctuation decays like tau/dt with the cell
    # diffusion time tau ~ 3.7e4 s, so dt = 1e8 leaves ~4e-4 of it
    dt = 1e8
    gx = 4.0
    st0, _ = hom.initial_response(cell, hom.MacroLoading(20.0, 0.5, [0, 0], [0, 0], dt=dt))
    _, r = hom.solve_rve_increment(
        cell, st0, hom.MacroLoading(20.0, 0.5, [gx, 0.0], [0, 0], dt=dt))
    areas, cents = quad_areas_centroids(cell.mesh)
    x_rel = cents - cell.mesh.center()
    # both components of the quadrature second moment; the off-diagonal
    # h^2/36 term is a property of the split direction, not an error
    j_x = np.array([(areas * x_rel[:, 0] ** 2).sum(),
                    (areas * x_rel[:, 0] * x_rel[:, 1]).sum()]) / areas.sum()
    pred = 2e6 * gx / dt * j_x
    assert r.m_t[0] == pytest.approx(pred[0], rel=1e-3)
    assert r.m_t[1] == pytest.approx(pred[1], rel=1e-2, abs=1e-3 * abs(pred[0]))
    # within a few percent of the exact second moment lx^2/12
    assert r.m_t[0] == pytest.approx(2e6 * gx / dt * 0.3 ** 2 / 12.0, rel=0.05)


def test_gradient_step_moment_lags_at_finite_dt():
    cell = homogeneous_cell()
    dt = 600.0
    gx = 4.0
    st0, _ = hom.initial_response(cell, hom.MacroLoading(20.0, 0.5, [0, 0], [0, 0], dt=dt))
    _, r = hom.solve_rve_increment(
        cell, st0, hom.MacroLoading(20.0, 0.5, [gx, 0.0], [0, 0], dt=dt))
    quasi = 2e6 * gx / dt * 0.3 ** 2 / 12.0
    assert 0.0 < r.m_t[0] < quasi


def test_homogeneous_tangent_recovers_material():
    cell = homogeneous_cell()
    dt = 600.0
    st0, _ = hom.initial_response(cell, hom.MacroLoading(20.0, 0.5, [0, 0], [0, 0], dt=dt))
    st1, r = hom.solve_rve_increment(
        cell, st0, hom.MacroLoading(20.5, 0.52, [2.0, 1.0], [0.1, -0.05], dt=dt),
        want_tangents=True)
    t = r.tangent
    assert np.allclose(t.k_tt, 0.5 * np.eye(2), atol=1e-6)
    assert np.allclose(t.k_ff, 0.2 * np.eye(2), atol=1e-6)
    assert np.allclose(t.k_tf, 0.0, atol=1e-6)
    assert np.allclose(t.k_ft, 0.0, atol=1e-6)
    assert t.c_t == pytest.approx(2e6, rel=1e-6)
    assert t.c_f == pytest.approx(40.0, rel=1e-6)


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
    tb = hom.steady_linear_homogenize(m, MASONRY_LINEAR)
    g_t = np.array([10.0, 3.0])
    g_f = np.array([0.2, 0.05])
    state, _ = hom.initial_response(
        cell, hom.MacroLoading(25.0, 0.6, [0, 0], [0, 0], dt=600.0))
    fix = hom.MacroLoading(25.0, 0.6, g_t, g_f, dt=600.0)
    for _ in range(200):
        state, r = hom.solve_rve_increment(cell, state, fix)
    assert abs(r.s_t) < 1e-7 and abs(r.s_f) < 1e-12
    q_pred = -(tb.k_tt @ g_t + tb.k_tf @ g_f)
    qm_pred = -(tb.k_ft @ g_t + tb.k_ff @ g_f)
    assert np.linalg.norm(r.q_heat - q_pred) < 1e-6 * np.linalg.norm(q_pred)
    assert np.linalg.norm(r.q_moist - qm_pred) < 1e-6 * np.linalg.norm(qm_pred)
    # mixture bounds for the diagonal entries
    frac_m = m.phase_fraction("mortar")
    voigt = (1 - frac_m) * 0.25 + frac_m * 0.45
    reuss = 1.0 / ((1 - frac_m) / 0.25 + frac_m / 0.45)
    for d in (tb.k_tt[0, 0], tb.k_tt[1, 1]):
        assert reuss - 1e-9 < d < voigt + 1e-9


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
    for d in (t.k_tt[0, 0], t.k_tt[1, 1]):
        assert 0.5 * min(phase_ktt) < d < 2.0 * max(phase_ktt)
    assert abs(t.k_tt[0, 1]) < 0.05 * t.k_tt[0, 0]
    assert abs(t.k_tt[1, 0]) < 0.05 * t.k_tt[0, 0]
    assert min(phase_ctt) * 0.9 < t.c_t < max(phase_ctt) * 1.1
    assert t.c_f > 0.0
    assert t.k_ff[0, 0] > 0.0 and t.k_ff[1, 1] > 0.0
    # latent coupling block is significant for this material pair
    assert t.k_tf[0, 0] > 0.01


def test_failed_increment_raises_solver_error():
    cell = hom.CellProblem(masonry_mesh(), cst.default_materials(),
                           solver.SolverConfig(max_iterations=1,
                                               retry_halving=False))
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
    n = cell.n_nodes
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


@pytest.mark.xfail(raises=solver.SolverError, strict=True,
                   reason="frozen-coefficient Jacobian stalls near 2.1e-6 "
                          "against a target of 1.6e-10")
def test_stored_newton_stall_case_converges():
    """A loading drawn by the property test above on which the cell
    Newton iteration stalls; a consistent Jacobian must converge here."""
    dt = 1592.0
    start = hom.MacroLoading(20.0, 0.5, [0, 0], [0, 0], dt=dt)
    state, _ = hom.initial_response(_PROPERTY_CELL, start)
    loading = hom.MacroLoading(3.541089200618295, 0.5,
                               [22.36328125, 34.18359375],
                               [0.140625, 0.0234375], dt=dt)
    hom.solve_rve_increment(_PROPERTY_CELL, state, loading)
