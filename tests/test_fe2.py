"""Tests for the nested two-scale driver and the comparison harness.

Reference values are frozen from analytic series resistances of a
layered slab and from the quadratic cell-size scaling of the moment
term; derivations are quoted at the point of use.
"""

import os
import signal

import numpy as np
import pytest
import scipy.sparse as sp

from hamfe2 import fem
from hamfe2.constitutive import LinearMaterial, default_materials
from hamfe2.fe2 import (FE2Driver, FE2Error, build_grid_cell_map,
                        compare_fields, element_loadings, fe2_solve)
from hamfe2.fem import FieldState, dirichlet_map
from hamfe2.homogenization import CellProblem
from hamfe2.mesh import (generate_masonry_cell, generate_rectangle_mesh,
                         with_phases)
from hamfe2.scheduler import SchedulerError
from hamfe2.solver import History, SolverConfig, SolverError, transient_solve

LIN = LinearMaterial("solid", k_tt=0.5, k_ff=2e-7, c_tt=2e6, c_ff=40.0)


class WallSchedule:
    """Per-edge constant or time-callable Dirichlet values."""

    def __init__(self, sets):
        self.sets = sets

    def dirichlet_values(self, mesh, t):
        vals, n = {}, mesh.n_nodes
        for name, (th, ph) in self.sets.items():
            th = th(t) if callable(th) else th
            ph = ph(t) if callable(ph) else ph
            for node in mesh.boundary_nodes(name):
                vals[int(node)] = th
                vals[int(node) + n] = ph
        return vals


def linear_cell(size=0.1):
    return CellProblem(generate_rectangle_mesh(size, size, 2, 2),
                       {"solid": LIN})


@pytest.fixture(scope="module")
def masonry():
    mesh = generate_masonry_cell(0.27, 0.27, 0.03, resolution=2)
    return mesh, default_materials()


def one_field_scatter(ws, data):
    """N x N csr matrix of raveled (M*9,) element entries on the one-field
    pattern; the per-block scatter the two-field skeleton replaced."""
    summed = np.bincount(ws.csr_pos, weights=data, minlength=ws.csr_nnz)
    n = ws.mesh.n_nodes
    return sp.csr_matrix((summed, ws.csr_indices, ws.csr_indptr), shape=(n, n))


def bmat_macro_jacobian(ws, tangents, C, dt, cprime):
    """Frozen macro Jacobian joined from one-field blocks by sp.bmat and
    sp.diags, term by term in FE2Driver.step's order. Reference for the
    two-field construction."""

    kg = np.stack([t.kg for t in tangents])
    mg = np.stack([t.mg for t in tangents])

    def conduction(tensors):
        return one_field_scatter(ws, np.einsum(
            "mid,mde,mje,m->mij", ws.grads, tensors, ws.grads,
            ws.areas).ravel())

    def value_coupling(vecs):
        row_vals = np.einsum("mid,md,m->mi", ws.grads, vecs, ws.areas) / 3.0
        return one_field_scatter(ws, np.broadcast_to(
            row_vals[:, :, None], (len(ws.areas), 3, 3)).ravel())

    # conductivity blocks K_ab and mean-flux value sensitivities
    # b_a = d q_a / d(Theta, Phi) = -kg[a][:, :2]
    blocks = [[conduction(kg[:, 0, :, 2:4]), conduction(kg[:, 0, :, 4:6])],
              [conduction(kg[:, 1, :, 2:4]), conduction(kg[:, 1, :, 4:6])]]
    bt, bf = -kg[:, 0, :, :2], -kg[:, 1, :, :2]
    vblocks = [[value_coupling(bt[:, :, 0]), value_coupling(bt[:, :, 1])],
               [value_coupling(bf[:, :, 0]), value_coupling(bf[:, :, 1])]]
    J = (sp.diags(C / dt) + 0.5 * sp.bmat(blocks, format="csr")
         - 0.5 * sp.bmat(vblocks, format="csr"))
    if cprime:
        mvt, mvf = mg[:, 0, :, :2], mg[:, 1, :, :2]
        mblocks = [
            [conduction(mg[:, 0, :, 2:4]) + value_coupling(mvt[:, :, 0]),
             conduction(mg[:, 0, :, 4:6]) + value_coupling(mvt[:, :, 1])],
            [conduction(mg[:, 1, :, 2:4]) + value_coupling(mvf[:, :, 0]),
             conduction(mg[:, 1, :, 4:6]) + value_coupling(mvf[:, :, 1])]]
        J = J + sp.bmat(mblocks, format="csr")
    return J


def on_skeleton(ws, A):
    """The sparse matrix A, whose entries lie on the two-field skeleton of
    ws, as a SkeletonMatrix; the skeleton's other entries are zero."""
    skeleton = fem.SkeletonMatrix(ws, np.zeros(4 * ws.csr_nnz)).tocsr().tocoo()
    return fem.SkeletonMatrix(
        ws, np.asarray(A.tocsr()[skeleton.row, skeleton.col]).ravel())


def assert_same_csr(a, b):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def max_state_diff(hist_a, hist_b):
    return max(np.abs(a.vector() - b.vector()).max()
               for a, b in zip(hist_a.states, hist_b.states))


# ----------------------------------------------------------- registry


def test_element_loadings_recover_linear_field():
    mesh = generate_rectangle_mesh(1.0, 0.5, 3, 2)
    x, y = mesh.nodes.T
    u = np.concatenate([2.0 + 3.0 * x - 1.5 * y,
                        0.4 + 0.1 * x + 0.05 * y])
    loads = element_loadings(mesh, u, dt=60.0)
    cent = mesh.nodes[mesh.triangles].mean(axis=1)
    for e, load in loads.items():
        assert load.dt == 60.0
        assert load.grad_theta == pytest.approx([3.0, -1.5])
        assert load.grad_phi == pytest.approx([0.1, 0.05])
        assert load.theta == pytest.approx(
            2.0 + 3.0 * cent[e, 0] - 1.5 * cent[e, 1])
        assert load.phi == pytest.approx(
            0.4 + 0.1 * cent[e, 0] + 0.05 * cent[e, 1])


def test_registry_requires_cells_for_all_regions():
    macro = with_phases(generate_rectangle_mesh(1.0, 0.5, 2, 1),
                        ("render", "core"),
                        lambda xc, yc: (xc > 0.5).astype(int))
    initial = FieldState.uniform(macro.n_nodes, 20.0, 0.5)
    # the check runs before the pool forks its workers
    with pytest.raises(FE2Error, match="core"):
        FE2Driver(macro, {"render": linear_cell()}, initial, n_workers=2)


# ----------------------------------------------------------- stepping


def test_constant_boundary_keeps_fields_constant(masonry):
    mesh, mats = masonry
    macro = generate_rectangle_mesh(1.2, 0.3, 2, 2)
    sched = WallSchedule({"left": (20.0, 0.5), "right": (20.0, 0.5)})
    initial = FieldState.uniform(macro.n_nodes, 20.0, 0.5)
    res = fe2_solve(macro, {"solid": CellProblem(mesh, mats)}, sched,
                    initial, dt_hours=1.0, t_end_hours=2.0)
    for state in res.history.states:
        assert np.array_equal(state.vector(), initial.vector())
    assert res.history.newton_iterations == [0, 0, 0]


def test_homogeneous_linear_fe2_matches_single_scale():
    # with the moment term off, a homogeneous linear cell reproduces the
    # single-scale solution; the boundary step excites both fields
    macro = generate_rectangle_mesh(1.0, 0.25, 4, 2)
    sched = WallSchedule({"left": (30.0, 0.7), "right": (20.0, 0.5)})
    initial = FieldState.uniform(macro.n_nodes, 20.0, 0.5)
    res = fe2_solve(macro, {"solid": linear_cell()}, sched, initial,
                    dt_hours=0.5, t_end_hours=4.0, cprime=False)
    ref = transient_solve(macro, {"solid": LIN}, sched, initial,
                          dt_hours=0.5, t_end_hours=4.0)
    dth = max(np.abs(a.theta - b.theta).max()
              for a, b in zip(res.history.states, ref.states))
    dph = max(np.abs(a.phi - b.phi).max()
              for a, b in zip(res.history.states, ref.states))
    assert dth <= 1e-8 * 10.0    # theta range 20..30
    assert dph <= 1e-8 * 0.2     # phi range 0.5..0.7


def test_cell_size_drops_out_without_moment_term():
    macro = generate_rectangle_mesh(1.0, 0.25, 4, 2)
    sched = WallSchedule({"left": (30.0, 0.7), "right": (20.0, 0.5)})
    initial = FieldState.uniform(macro.n_nodes, 20.0, 0.5)
    runs = [fe2_solve(macro, {"solid": linear_cell(size)}, sched, initial,
                      dt_hours=0.5, t_end_hours=4.0, cprime=False)
            for size in (0.1, 0.025)]
    assert max_state_diff(runs[0].history, runs[1].history) <= 1e-8


def test_moment_term_scales_with_cell_area():
    # the storage-moment coupling carries the only cell-size dependence;
    # it scales with the second moment, so quartering the edge length
    # divides the on/off solution gap by ~16
    macro = generate_rectangle_mesh(1.0, 0.25, 4, 2)
    sched = WallSchedule({"left": (30.0, 0.7), "right": (20.0, 0.5)})
    initial = FieldState.uniform(macro.n_nodes, 20.0, 0.5)

    def gap(size):
        on, off = [fe2_solve(macro, {"solid": linear_cell(size)}, sched,
                             initial, dt_hours=0.5, t_end_hours=4.0,
                             cprime=cp)
                   for cp in (True, False)]
        return max_state_diff(on.history, off.history)

    big, small = gap(0.1), gap(0.025)
    assert big > 1e-2                      # the effect is measurable
    assert big / small == pytest.approx(16.0, rel=0.25)


def test_worker_counts_bit_identical(masonry):
    mesh, mats = masonry
    macro = generate_rectangle_mesh(1.2, 0.3, 2, 2)
    sched = WallSchedule({"left": (32.0, 0.85), "right": (24.0, 0.5)})
    initial = FieldState.uniform(macro.n_nodes, 20.0, 0.5)
    runs = [fe2_solve(macro, {"solid": CellProblem(mesh, mats)}, sched,
                      initial, dt_hours=1.0, t_end_hours=3.0, n_workers=w)
            for w in (1, 2)]
    for a, b in zip(runs[0].history.states, runs[1].history.states):
        assert np.array_equal(a.vector(), b.vector())
    assert runs[0].history.newton_iterations == runs[1].history.newton_iterations
    assert sorted(len(a) for a in runs[1].partition.assignments) == [4, 4]
    assert runs[1].rounds and all(r.points in (4, 8) for r in runs[1].rounds)


def test_two_regions_bit_identical_over_worker_counts():
    # two different cells, one per half of the mesh; dealt cyclically,
    # each of 2 workers holds points of both regions
    macro = with_phases(generate_rectangle_mesh(1.2, 0.6, 2, 2),
                        ("facing", "fill"),
                        lambda xc, yc: (xc > 0.6).astype(int))
    mats = default_materials()
    cells = {"facing": CellProblem(generate_masonry_cell(
                 0.27, 0.27, 0.03, "running", resolution=2), mats),
             "fill": CellProblem(generate_masonry_cell(
                 0.27, 0.27, 0.03, "stack", resolution=2), mats)}
    sched = WallSchedule({"left": (32.0, 0.85), "right": (24.0, 0.5)})
    initial = FieldState.uniform(macro.n_nodes, 20.0, 0.5)
    runs = [fe2_solve(macro, cells, sched, initial, dt_hours=1.0,
                      t_end_hours=2.0, n_workers=w) for w in (1, 2, 3)]
    for run in runs[1:]:
        for a, b in zip(runs[0].history.states, run.history.states):
            assert np.array_equal(a.vector(), b.vector())
        assert (run.history.newton_iterations
                == runs[0].history.newton_iterations)
    for a in runs[1].partition.assignments:
        assert set(macro.phases[list(a)]) == {0, 1}


@pytest.mark.parametrize("cprime", [True, False])
def test_macro_jacobian_matches_bmat_construction(masonry, cprime):
    mesh, mats = masonry
    macro = generate_rectangle_mesh(1.2, 0.3, 2, 2)
    sched = WallSchedule({"left": (32.0, 0.85), "right": (24.0, 0.5)})
    initial = FieldState.uniform(macro.n_nodes, 20.0, 0.5)
    dt = 3600.0
    cmap = dirichlet_map(2 * macro.n_nodes, sched.dirichlet_values(macro, dt))
    newton_system = cmap.newton_system
    systems, tangent_rounds = [], []

    def spy_system(J, C):
        systems.append((J, C))
        return newton_system(J, C)

    cmap.newton_system = spy_system
    with FE2Driver(macro, {"solid": CellProblem(mesh, mats)}, initial,
                   cprime=cprime) as driver:
        run_round = driver.pool.run_round

        def spy_round(loadings, want_tangents=False):
            responses = run_round(loadings, want_tangents=want_tangents)
            if want_tangents:
                tangent_rounds.append(responses)
            return responses

        driver.pool.run_round = spy_round
        driver.step(initial.vector(), 0.0, dt, cmap)
    (J, C), = systems
    responses, = tangent_rounds
    ref = bmat_macro_jacobian(
        fem.workspace(macro),
        [responses[e].tangent for e in range(macro.n_triangles)], C, dt, cprime)
    bare = J.tocsr().copy()
    bare.eliminate_zeros()
    assert_same_csr(bare, ref)
    assert_same_csr(newton_system(J, C)[0],
                    newton_system(on_skeleton(J.workspace, ref), C)[0])


def test_each_worker_holds_a_point_of_each_square():
    # the two triangles of a square share its distance from the climate
    # face, and so its cost; the cyclic partition splits every square
    macro = generate_rectangle_mesh(0.6, 0.3, 2, 1)
    initial = FieldState.uniform(macro.n_nodes, 20.0, 0.5)
    with FE2Driver(macro, {"solid": linear_cell()}, initial,
                   n_workers=2) as driver:
        assignments = driver.partition.assignments
    centroids = fem.workspace(macro).centroids
    for a in assignments:
        assert sorted(centroids[list(a), 0] > 0.3) == [False, True]


def test_workers_without_points_get_no_process():
    # two macro points over three workers: the empty slice is dropped
    macro = generate_rectangle_mesh(0.3, 0.3, 1, 1)
    initial = FieldState.uniform(macro.n_nodes, 20.0, 0.5)
    with pytest.warns(RuntimeWarning, match="receive no points"):
        driver = FE2Driver(macro, {"solid": linear_cell()}, initial,
                           n_workers=3)
    with driver:
        assert [len(a) for a in driver.partition.assignments] == [1, 1, 0]
        assert driver.pool.n_workers == 2


def test_failed_macro_step_leaves_meso_states_uncommitted(masonry):
    # a macro attempt that dies after meso rounds must not advance the
    # cell memories: the retried step has to match a fresh driver bit
    # for bit
    mesh, mats = masonry
    macro = generate_rectangle_mesh(1.2, 0.3, 2, 2)
    sched = WallSchedule({"left": (32.0, 0.85), "right": (24.0, 0.5)})
    initial = FieldState.uniform(macro.n_nodes, 20.0, 0.5)
    dt = 3600.0
    cmap = dirichlet_map(2 * macro.n_nodes, sched.dirichlet_values(macro, dt))
    u_n = initial.vector()
    with FE2Driver(macro, {"solid": CellProblem(mesh, mats)}, initial,
                   config=SolverConfig(max_iterations=1)) as driver:
        with pytest.raises(SolverError):
            driver.step(u_n, 0.0, dt, cmap)
        driver.config = SolverConfig()
        u_retry, _ = driver.step(u_n, 0.0, dt, cmap)
    with FE2Driver(macro, {"solid": CellProblem(mesh, mats)},
                   initial) as fresh:
        u_fresh, _ = fresh.step(u_n, 0.0, dt, cmap)
    assert np.array_equal(u_retry, u_fresh)


def test_unsolvable_meso_aborts_after_retry(masonry, caplog):
    # cells that cannot converge fail the step, the halved retry and
    # finally the run; the retry attempt is logged
    mesh, mats = masonry
    macro = generate_rectangle_mesh(1.2, 0.3, 2, 2)
    sched = WallSchedule({"left": (32.0, 0.85), "right": (24.0, 0.5)})
    initial = FieldState.uniform(macro.n_nodes, 20.0, 0.5)
    strangled = CellProblem(mesh, mats, SolverConfig(max_iterations=1))
    caplog.set_level("WARNING", logger="hamfe2.solver")
    with pytest.raises(SolverError, match="refused the macro iterate"):
        fe2_solve(macro, {"solid": strangled}, sched, initial,
                  dt_hours=1.0, t_end_hours=2.0)
    assert any("retrying with dt/2" in rec.message for rec in caplog.records)


def test_dead_worker_fails_the_run_with_scheduler_error(masonry, caplog):
    # a killed worker ends the round and the run with SchedulerError,
    # without a dt/2 retry; the alarm fails the test if the run hangs
    mesh, mats = masonry
    macro = generate_rectangle_mesh(1.2, 0.3, 2, 2)
    sched = WallSchedule({"left": (32.0, 0.85), "right": (24.0, 0.5)})
    initial = FieldState.uniform(macro.n_nodes, 20.0, 0.5)

    def hung(signum, frame):
        raise TimeoutError("the run hung on a dead worker")

    caplog.set_level("WARNING", logger="hamfe2.solver")
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with FE2Driver(macro, {"solid": CellProblem(mesh, mats)}, initial,
                       n_workers=2) as driver:
            victim = driver.pool._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            loadings = element_loadings(macro, initial.vector(), 3600.0)
            with pytest.raises(SchedulerError, match="worker 1 died"):
                driver.pool.run_round(loadings)
            with pytest.raises(SchedulerError, match="worker 1 died"):
                driver.solve(sched, initial, dt_hours=1.0, t_end_hours=2.0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not any("retrying" in rec.message for rec in caplog.records)


# ------------------------------------------------- fine-scale reference


def test_layered_slab_steady_state_matches_series_resistance():
    # strips A|B|A of widths 0.06/0.03/0.06 m; steady interface values
    # follow from the series resistances:
    #   R_t = 0.06/0.25 + 0.03/0.45 + 0.06/0.25,  q = 10/R_t
    #   theta(0.06) = q*0.24 = 4.390243902439024
    #   theta(0.09) = theta(0.06) + q/15 = 5.609756097560975
    #   R_f = 6000 + 1500 + 6000,  q = 0.3/13500
    #   phi(0.06) = 0.3 + 2/15 = 0.4333333333333333
    #   phi(0.09) = phi(0.06) + 1/30 = 0.4666666666666667
    # capacities are tuned so Crank-Nicolson damps the whole spectrum
    # within the run
    base = generate_rectangle_mesh(0.15, 0.03, 10, 2)
    mesh = with_phases(base, ("A", "B"),
                       lambda xc, yc: np.where((xc > 0.06) & (xc < 0.09), 1, 0))
    mats = {"A": LinearMaterial("A", k_tt=0.25, k_ff=1e-5, c_tt=1.5e5, c_ff=6.0),
            "B": LinearMaterial("B", k_tt=0.45, k_ff=2e-5, c_tt=1.5e5, c_ff=6.0)}
    sched = WallSchedule({"left": (0.0, 0.3), "right": (10.0, 0.6)})
    initial = FieldState.uniform(mesh.n_nodes, 5.0, 0.45)
    hist = transient_solve(mesh, mats, sched, initial,
                           dt_hours=0.05, t_end_hours=10.0)
    theta, phi = hist.states[-1].theta, hist.states[-1].phi
    for x, t_ref, f_ref in ((0.06, 4.390243902439024, 0.4333333333333333),
                            (0.09, 5.609756097560975, 0.4666666666666667)):
        sel = np.isclose(mesh.nodes[:, 0], x)
        assert theta[sel] == pytest.approx(t_ref, abs=1e-7)
        assert phi[sel] == pytest.approx(f_ref, abs=1e-9)


# ----------------------------------------------------------- comparison


def test_build_grid_cell_map_nested_grids():
    fine = generate_rectangle_mesh(1.2, 0.3, 12, 3)
    coarse = generate_rectangle_mesh(1.2, 0.3, 4, 1)
    cells = build_grid_cell_map(fine, coarse, 4, 1)
    assert len(cells) == 4
    assert [len(f) for f, _ in cells] == [16, 16, 16, 16]
    assert [len(c) for _, c in cells] == [4, 4, 4, 4]
    # nodes on shared cell borders belong to both neighbours
    assert sum(len(f) for f, _ in cells) > fine.n_nodes
    for i, (f, _) in enumerate(cells):
        xs = fine.nodes[f, 0]
        assert xs.min() >= 0.3 * i - 1e-9
        assert xs.max() <= 0.3 * (i + 1) + 1e-9


def test_build_grid_cell_map_rejects_mismatched_domains():
    fine = generate_rectangle_mesh(1.0, 0.3, 4, 2)
    coarse = generate_rectangle_mesh(1.2, 0.3, 4, 2)
    with pytest.raises(FE2Error, match="different domains"):
        build_grid_cell_map(fine, coarse, 4, 1)


def _uniform_history(mesh, theta, phi, times):
    hist = History()
    n = mesh.n_nodes
    for t in times:
        hist.append(FieldState.from_vector(
            np.concatenate([np.full(n, theta), np.full(n, phi)]), t))
    return hist


def test_compare_fields_reports_known_offset():
    mesh = generate_rectangle_mesh(1.2, 0.3, 4, 1)
    times = (0.0, 3600.0, 7200.0)
    fine = _uniform_history(mesh, 24.0, 0.5, times)
    coarse = _uniform_history(mesh, 24.11, 0.505, times)
    cells = build_grid_cell_map(mesh, mesh, 4, 1)
    rep = compare_fields(fine, coarse, cells)
    assert rep.n_cells == 4 and rep.n_times == 2
    assert rep.abs_theta == pytest.approx(0.11, abs=1e-12)
    assert rep.rel_theta == pytest.approx(100.0 * 0.11 / 24.0, rel=1e-9)
    assert rep.abs_phi == pytest.approx(0.005, abs=1e-12)
    assert rep.rel_phi == pytest.approx(1.0, rel=1e-9)
    zero = compare_fields(fine, fine, cells)
    assert zero.abs_theta == 0.0 and zero.rel_phi == 0.0


def test_compare_fields_rejects_disjoint_time_grids():
    mesh = generate_rectangle_mesh(1.2, 0.3, 4, 1)
    fine = _uniform_history(mesh, 24.0, 0.5, (0.0, 3600.0))
    coarse = _uniform_history(mesh, 24.0, 0.5, (0.0, 1800.0))
    cells = build_grid_cell_map(mesh, mesh, 4, 1)
    with pytest.raises(FE2Error, match="share time"):
        compare_fields(fine, coarse, cells)
