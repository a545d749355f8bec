"""Nested macro-meso driver and the fine-scale comparison harness.

Every macro element carries one integration point bound to a transient
periodic cell problem. A macro step is solver.crank_nicolson_step, the
Crank-Nicolson residual of the fine solve, over macro evaluations: each
Newton iteration sends the current element values and gradients to the
scheduler pool, which advances every cell from its committed state and
returns averaged fluxes and storage rates. A cell's Newton starts from
its committed fluctuation on the first iteration of a step attempt.
After that it starts from the fluctuation it reached on the previous
iteration, moved along the change of its loading by the sensitivity its
cell tangent computed on the first iteration. The points are dealt to
the workers cyclically by element id. The macro residual is that of
classical first-order homogenization:

  * effective capacities (from the cell tangents) times nodal rates,
  * the Crank-Nicolson average of the conduction term, the pairing of
    the cell flux averages with gradient test functions; the driver
    carries that term of the last accepted state.

Cell tangents are refreshed on the first Newton iteration of each step
and reused within it. Their effective capacities form the storage term
of the macro residual, so they shape the solution, not only the
iteration. The macro Jacobian is the chain rule through each point's
tangent arrays over its cell's loading p = (Theta, Phi, grad_Theta_x,
grad_Theta_y, grad_Phi_x, grad_Phi_y). Cell states commit when the
macro step is accepted, so a rejected or retried step never pollutes
the meso memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .constitutive import ConstitutiveError
from .fem import FieldState
from .homogenization import MacroLoading, initial_response
from .mesh import Mesh
from .scheduler import (SchedulerError, make_pool, partition_points,
                        slice_registry)
from .solver import (History, SolverConfig, crank_nicolson_step,
                     step_with_retry)


class FE2Error(RuntimeError):
    pass


def element_loadings(mesh: Mesh, u, dt):
    """Per-element MacroLoading from the field-major macro vector."""
    ws = fem.workspace(mesh)
    n = mesh.n_nodes
    tm, pm = ws.element_mean(u[:n]), ws.element_mean(u[n:])
    tg, pg = ws.element_gradient(u[:n]), ws.element_gradient(u[n:])
    return {e: MacroLoading(tm[e], pm[e], tg[e], pg[e], dt=dt)
            for e in range(mesh.n_triangles)}


def _tensor_stiffness(ws, g):
    """SkeletonMatrix of the gradient columns of g, the (M, 2, 2, 6)
    per-point tangent arrays over p; block (a, b) has entries
    sum_e A_e grad N_i . (T_e grad N_j) for T_e = g[e, a, :, 2+2b:4+2b]."""
    return ws.scatter(
        [[np.einsum("mid,mde,mje,m->mij", ws.grads,
                    g[:, a, :, 2 + 2 * b:4 + 2 * b], ws.grads, ws.areas)
          for b in (0, 1)] for a in (0, 1)])


def _value_coupling(ws, g):
    """SkeletonMatrix of the value columns of g, the (M, 2, 2, 6)
    per-point tangent arrays over p; block (a, b) has entries
    sum_e A_e (grad N_i . v_e) / 3 for v_e = g[e, a, :, b].

    Jacobian of flux terms driven by the element mean value; the column
    weight 1/3 is the derivative of the mean with respect to each nodal
    value.
    """
    m = len(ws.areas)
    return ws.scatter(
        [[np.broadcast_to(
            (np.einsum("mid,md,m->mi", ws.grads, g[:, a, :, b],
                       ws.areas) / 3.0)[:, :, None],
            (m, 3, 3)) for b in (0, 1)] for a in (0, 1)])


def _stacked(points, name):
    """Attribute `name` of every point's object, stacked by point id."""
    return np.stack([getattr(points[e], name) for e in range(len(points))])


def _conduction(ws, responses):
    """The macro conduction term of the points' responses: the pairing of
    each field's mean fluxes -q with the gradient test functions."""
    return np.concatenate([ws.scatter_gradient_pairing(-_stacked(responses, q))
                           for q in ("q_heat", "q_moist")])


class _MacroRound:
    """crank_nicolson_step's assembler for one macro step attempt.

    At an iterate it runs one pool round and returns itself as the
    evaluation: the conduction term of that round, read before the next
    round, and the storage and Newton matrix that the first round's
    tangents froze. Each matrix handed out is factored once, and counted."""

    def __init__(self, driver, dt):
        self.driver, self.dt = driver, dt
        self.J, self.factorizations = None, 0

    def __call__(self, u):
        ws, dt = self.driver.ws, self.dt
        try:
            responses = self.driver.pool.run_round(
                element_loadings(self.driver.mesh, u, dt),
                want_tangents=self.J is None)
        except SchedulerError as exc:
            if exc.failures:
                raise ConstitutiveError(
                    "meso increments refused the macro iterate "
                    f"(points {[p for p, _ in exc.failures]})") from exc
            raise
        if self.J is None:
            tan = {e: r.tangent for e, r in responses.items()}
            kg, c = _stacked(tan, "kg"), _stacked(tan, "c")
            self.C = np.concatenate([ws.lumped(c[:, 0]), ws.lumped(c[:, 1])])
            # every term lies on the mesh's two-field skeleton, so the
            # terms add on their .data arrays
            self.J = _tensor_stiffness(ws, kg)
            self.J.data *= 0.5
            self.J.data[ws.diagonal_slots[0]] += self.C / dt
            # mean-flux sensitivity to the macro values; without it the
            # saturation-pressure coupling degrades Newton to a slow
            # linear rate
            self.J.data += 0.5 * _value_coupling(ws, kg).data
        self.flux = _conduction(ws, responses)
        return self

    def storage_diagonal(self):
        return self.C

    def conduction(self, u):
        return self.flux

    def newton_matrix(self, dt, rate):
        self.factorizations += 1
        return self.J


@dataclass
class FE2Result:
    history: History
    partition: object
    rounds: list = field(default_factory=list)   # scheduler RoundRecords


class FE2Driver:
    """Owns the macro mesh, the conduction term of its last accepted state
    and the worker pool that holds the cell problems and meso states.

    init_dt is the dt of the initial loadings, which no increment
    reads; the benchmark passes it, and the benchmark's change of
    ROADMAP item 9 deletes it.
    """

    def __init__(self, mesh: Mesh, cells, initial: FieldState,
                 config: SolverConfig = None, n_workers=1, init_dt=3600.0):
        self.mesh = mesh
        self.ws = fem.workspace(mesh)
        self.config = config or SolverConfig()
        # one meso problem per macro element (single integration point),
        # bound to its region's cell; checked before any worker forks
        regions = [mesh.phase_names[k] for k in mesh.phases]
        missing = sorted(set(regions) - set(cells))
        if missing:
            raise FE2Error(f"regions without a cell problem: {missing}")
        loadings = element_loadings(mesh, initial.vector(), init_dt)
        # the macro step reads only the conduction term of the last
        # accepted state; the meso states live with the workers
        responses, registry = {}, {}
        for e, region in enumerate(regions):
            state, responses[e] = initial_response(cells[region], loadings[e])
            registry[e] = (cells[region], state)
        self.old = _conduction(self.ws, responses)
        self.partition = partition_points(registry, n_workers)
        self.pool = make_pool(slice_registry(self.partition, registry))

    def close(self):
        self.pool.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # ------------------------------------------------------------ stepping

    def step(self, u_n, dt, cmap):
        """One macro CN step from u_n; commits meso states on success.

        Returns (u_new, newton_iterations, factorizations). The macro
        Newton holds no factors: every Newton matrix the step's rounds
        hand out is factored once, and those are counted.
        Raises SolverError on macro breakdown and when the meso
        increments refuse an iterate (their SchedulerError arrives
        wrapped); both are retryable by halving.
        A SchedulerError from a failed pool, such as a dead worker,
        propagates as it is and is not retried.
        """
        rounds = _MacroRound(self, dt)
        u_new, trace, self.old, _ = crank_nicolson_step(
            rounds, u_n, dt, cmap, self.config, self.old)
        self.pool.commit()
        return u_new, len(trace) - 1, rounds.factorizations

    def solve(self, schedule, initial: FieldState, dt_hours,
              t_end_hours) -> History:
        return step_with_retry(self.step, self.mesh, schedule, initial,
                               dt_hours, t_end_hours)


def fe2_solve(mesh: Mesh, cells, schedule, initial: FieldState, dt_hours,
              t_end_hours, config: SolverConfig = None,
              n_workers=1) -> FE2Result:
    """Nested two-scale transient solution.

    cells maps macro region names to CellProblem instances; schedule
    supplies Dirichlet data as in transient_solve. Returns the macro
    history together with the partition and per-round scheduler
    timings.
    """
    with FE2Driver(mesh, cells, initial, config, n_workers,
                   init_dt=float(dt_hours) * 3600.0) as driver:
        history = driver.solve(schedule, initial, dt_hours, t_end_hours)
        rounds = list(driver.pool.timings)
        return FE2Result(history, driver.partition, rounds)


# ------------------------------------------------------------- comparison


@dataclass(frozen=True)
class ComparisonReport:
    """Cell-averaged field discrepancies between two histories."""

    rel_theta: float     # mean |dT|/|T_ref| over cells and steps [%]
    abs_theta: float     # mean |dT| [deg C]
    rel_phi: float       # [%]
    abs_phi: float       # [-]
    n_cells: int
    n_times: int
    descriptor: str = "per-cell averages, all steps after the initial"


def build_grid_cell_map(fine_mesh: Mesh, coarse_mesh: Mesh, nx, ny):
    """Node groups per cell of a regular nx x ny grid over the domain.

    Returns a list of (fine node ids, coarse node ids); nodes on shared
    cell borders belong to every adjacent cell.
    """
    ext = fine_mesh.extent()
    if not np.allclose(ext, coarse_mesh.extent()):
        raise FE2Error("fine and coarse meshes cover different domains")
    xlo, xhi, ylo, yhi = ext
    dx = (xhi - xlo) / nx
    dy = (yhi - ylo) / ny
    eps = 1e-9 * max(xhi - xlo, yhi - ylo)

    def members(nodes, i, j):
        x0, y0 = xlo + i * dx, ylo + j * dy
        inside = ((nodes[:, 0] >= x0 - eps) & (nodes[:, 0] <= x0 + dx + eps)
                  & (nodes[:, 1] >= y0 - eps) & (nodes[:, 1] <= y0 + dy + eps))
        return np.nonzero(inside)[0]

    cells = []
    for j in range(ny):
        for i in range(nx):
            fine = members(fine_mesh.nodes, i, j)
            coarse = members(coarse_mesh.nodes, i, j)
            if fine.size and coarse.size:
                cells.append((fine, coarse))
    return cells


def compare_fields(fine: History, coarse: History, cell_map) -> ComparisonReport:
    """Table-style error report: coarse history against cell-averaged fine.

    Both histories must share the coarse time grid; the fine one may be
    denser and is subsampled. The initial state is excluded (identical
    by construction).
    """
    fine_times = np.asarray(fine.times)
    idx = []
    for t in coarse.times[1:]:
        hits = np.nonzero(np.abs(fine_times - t) <= 1e-6 * max(1.0, t))[0]
        if hits.size != 1:
            raise FE2Error(f"histories do not share time {t} s")
        idx.append(hits[0])
    if not idx:
        raise FE2Error("no common steps to compare")

    out = {}
    for name, get_f, get_c in (
            ("theta", fine.theta_array, coarse.theta_array),
            ("phi", fine.phi_array, coarse.phi_array)):
        ref = get_f()[:, idx]
        test = get_c()[:, 1:]
        ref_avg = np.stack([ref[f].mean(axis=0) for f, _ in cell_map])
        test_avg = np.stack([test[c].mean(axis=0) for _, c in cell_map])
        diff = np.abs(test_avg - ref_avg)
        out["abs_" + name] = float(diff.mean())
        out["rel_" + name] = float(
            100.0 * (diff / np.maximum(np.abs(ref_avg), 1e-12)).mean())
    return ComparisonReport(n_cells=len(cell_map), n_times=len(idx), **out)
