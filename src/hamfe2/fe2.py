"""The nested macro-meso driver, the one FE2 entry of the CLI and the
benchmark alike, and the fine-scale comparison harness.

Every macro element carries one integration point bound to a transient
periodic cell problem. A macro step is solver.crank_nicolson_step, the
Crank-Nicolson residual of the fine solve, over macro evaluations: each
Newton iteration sends the current element values and gradients to the
scheduler pool, which advances every cell from its committed state and
returns averaged fluxes and storage rates. A cell's Newton starts from
its committed fluctuation on the first iteration of a step attempt.
After that it starts from the fluctuation it reached on the previous
iteration, moved along the change of its loading by the sensitivity its
cell tangent computed on the first iteration. The pool deals the points
to its workers (scheduler.make_pool). The macro residual is that of
classical first-order homogenization:

  * effective capacities (from the cell tangents) times nodal rates,
  * the Crank-Nicolson average of the conduction term, the pairing of
    the cell flux averages with gradient test functions; the driver
    carries that term of the last accepted state.

Cell tangents are refreshed on the first Newton iteration of each step
and reused within it. Their effective capacities form the storage term
of the macro residual, so they shape the solution, not only the
iteration. The macro flux Jacobian, one scatter per step attempt, is
the chain rule through each point's tangent arrays over its cell's
loading p = (Theta, Phi, grad_Theta_x, grad_Theta_y, grad_Phi_x,
grad_Phi_y); fem.crank_nicolson_matrix adds the weight and the
capacities to it, as it does for the fine and cell steps. Cell states
commit when the macro step is accepted, so a rejected or retried step
never pollutes the meso memory.

The driver's start evaluates each distinct initial cell state once.
Points bound to the same cell problem object whose initial loadings
carry bitwise equal values and gradients share one
homogenization.initial_response: its response and its MesoState, one
immutable object with its old data K u0. A uniform initial field thus
costs one evaluation per region; point ids never enter the key. The
workers fork with states that carry their old data, so no first
increment evaluates its start again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .constitutive import ConstitutiveError
from .fem import FieldState
from .homogenization import MacroLoading, _loading_vector, initial_response
from .mesh import Mesh
from .scheduler import SchedulerError, make_pool
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


def _flux_jacobian(ws, kg):
    """Jacobian of the macro conduction term from the (M, 2, 2, 6) tangent
    arrays kg over p: block (a, b) holds sum_e A_e grad N_i . (T_e grad
    N_j + v_e / 3) for the conductivity T_e = kg[e, a, :, 2+2b:4+2b] and
    the mean-flux sensitivity v_e = kg[e, a, :, b] to the values (1/3 is
    d mean / d nodal value). Without v the saturation-pressure coupling
    degrades Newton to a slow linear rate."""
    return ws.scatter(
        [[np.einsum("mid,mde,mje,m->mij", ws.grads,
                    kg[:, a, :, 2 + 2 * b:4 + 2 * b], ws.grads, ws.areas)
          + (np.einsum("mid,md,m->mi", ws.grads, kg[:, a, :, b], ws.areas)
             / 3.0)[:, :, None]
          for b in (0, 1)] for a in (0, 1)])


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
            self.J = fem.crank_nicolson_matrix(_flux_jacobian(ws, kg),
                                               self.C, dt)
        self.flux = _conduction(ws, responses)
        return self

    def storage_diagonal(self):
        return self.C

    def conduction(self, u):
        return self.flux

    def newton_matrix(self, dt, rate):
        self.factorizations += 1
        return self.J


class FE2Driver:
    """The one FE2 entry, used the same way by the CLI and the benchmark.
    Owns the macro mesh, the conduction term of its last accepted state
    and the pool that holds the cell problems and meso states, dealt
    over n_workers by make_pool (see pool.assignments).

    The start shares work: points whose cell problem is the same object
    and whose initial loadings hold bitwise equal Theta, Phi, grad_Theta
    and grad_Phi share one initial_response, its response and its
    state. The driver builds no MesoState of its own: a state is
    immutable, so the points hold the one object, and each increment
    builds a new one. solve runs from `initial`, the field the cells
    start from, and only once.

    init_dt is the dt of the initial loadings, which no increment
    reads; the benchmark passes it, and the benchmark's change of
    ROADMAP item 12 deletes it.
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
        self._start = initial.vector()
        self._committed = False
        loadings = element_loadings(mesh, self._start, init_dt)
        # the macro step reads only the conduction term of the last
        # accepted state; the meso states live with the workers. Points
        # that start alike share one evaluation, keyed on the cell
        # object and the bits of the loading's values and gradients
        starts, responses, registry = {}, {}, {}
        for e, region in enumerate(regions):
            cell, loading = cells[region], loadings[e]
            key = (cell, _loading_vector(loading).tobytes())
            if key not in starts:
                starts[key] = initial_response(cell, loading)
            state, responses[e] = starts[key]
            registry[e] = (cell, state)
        self.old = _conduction(self.ws, responses)
        self.pool = make_pool(registry, n_workers)

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
        self._committed = True
        return u_new, len(trace) - 1, rounds.factorizations

    def solve(self, schedule, initial: FieldState, dt_hours,
              t_end_hours) -> History:
        """The macro history from `initial`, which must be bitwise the
        field the driver started from, before any step has committed:
        the cells and the old data were built from that field."""
        if self._committed:
            raise FE2Error("the driver has committed steps; "
                           "build a new one to solve again")
        if initial.vector().tobytes() != self._start.tobytes():
            raise FE2Error("solve must start from the field the driver "
                           "was built from")
        return step_with_retry(self.step, self.mesh, schedule, initial,
                               dt_hours, t_end_hours)


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
