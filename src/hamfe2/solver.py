"""Newton iteration and Crank-Nicolson time stepping.

The step solves

    C(u) (u_{n+1} - u_n)/dt + 1/2 (K(u_{n+1}) u_{n+1} + K(u_n) u_n)
        = 1/2 (f_{n+1} + f_n)

with the storage diagonal evaluated at the step's current iterate and a
frozen-coefficient (Picard accelerated) Jacobian C/dt + K/2. Linear
systems use a direct sparse factorization; everything is deterministic
for a fixed input, there is no iterative solver noise.

Every Newton system, fine, cell or macro, is factored by `factorize`.
Its matrices have a symmetric pattern, so SuperLU orders them by
minimum degree on A + A' and keeps a diagonal pivot whenever it holds
at least 1 % of its column's largest entry. On an 8 x 8-cell wall with
four elements across each joint, the smallest ratio |a_jj| / max_i
|a_ij| of a Newton matrix is 0.065: every pivot stays on the diagonal,
and the factors hold 2.6 M entries against 5.5 M with SuperLU's default
COLAMD ordering. The ordering and the threshold only work together: at
a threshold of 0.1 that wall already pivots off the diagonal, and its
factors hold 50.8 M entries; at 0, a near-zero diagonal entry would
stay the pivot with no fallback to partial pivoting.
"""

from __future__ import annotations

import logging
import time as _time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constitutive import ConstitutiveError
from .fem import (ConstraintMap, FieldState, assemble_system,
                  capacity_jacobian_diagonals, dirichlet_map)

log = logging.getLogger(__name__)


@dataclass
class SolverConfig:
    newton_tol: float = 1e-8      # relative residual drop
    newton_floor: float = 1e-10   # absolute residual floor; near-steady
    # steps start almost converged and must not chase roundoff
    max_iterations: int = 25
    retry_halving: bool = True    # one automatic dt/2 retry per step


class SolverError(RuntimeError):
    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


def factorize(A):
    """SuperLU factors of the square sparse A in the ordering above."""
    # called through the module attribute, so a profiler that rebinds
    # spla.splu sees every factorization
    return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.01)


def newton_solve(residual_jacobian, z0, config: SolverConfig, rows=None):
    """Newton iteration on the reduced unknowns.

    residual_jacobian(z) returns the reduced residual and the sparse
    matrix of the Newton system. That system may be larger than z, as
    the bordered systems of ConstraintMap are: `rows` then gives the
    position of each entry of z among its unknowns, the other unknowns
    take a zero right-hand side and are left out of the update.
    Converges when ||r|| <= max(tol * ||r0||, floor);
    a start at the root returns after zero iterations. Updates that
    overshoot out of the admissible state range are halved until they
    evaluate (at most 8 halvings). Raises SolverError with the residual
    trace on breakdown.
    """
    z = np.array(z0, dtype=float)
    if rows is None:
        rows = np.arange(z.size)
    trace = []

    def evaluate(zk):
        try:
            return residual_jacobian(zk)
        except ConstitutiveError as exc:
            raise SolverError(f"iterate left the admissible state range: {exc}",
                              trace) from exc

    r, jac = evaluate(z)
    norm0 = float(np.linalg.norm(r))
    target = max(config.newton_tol * norm0, config.newton_floor)
    trace.append(norm0)
    if norm0 <= target:
        return z, trace
    for _ in range(config.max_iterations):
        try:
            lu = factorize(jac)
            rhs = np.zeros(jac.shape[0])
            rhs[rows] = -r
            dz = lu.solve(rhs)[rows]
        except RuntimeError as exc:
            raise SolverError(f"linear solve failed: {exc}", trace) from exc
        if not np.all(np.isfinite(dz)):
            raise SolverError("non-finite Newton update", trace)
        # damped update: halve the step while the trial iterate leaves
        # the admissible state range, gives a non-finite residual, or
        # grows the residual well beyond the previous one (the moisture
        # capacity softens steeply and full steps can run away). Small
        # steps always pass the growth test by continuity, so failing
        # all trials means the iterate is pinned to the admissibility
        # boundary with the correction pointing outward.
        step, accepted = 1.0, None
        for _halving in range(9):
            z_try = z + step * dz
            try:
                r_try, jac_try = evaluate(z_try)
                nrm = float(np.linalg.norm(r_try))
            except SolverError:
                nrm = np.inf
            if np.isfinite(nrm) and nrm <= 1.5 * trace[-1]:
                accepted = (nrm, z_try, r_try, jac_try)
                break
            step *= 0.5
        if accepted is None:
            raise SolverError(
                "damped Newton made no progress; the state update is "
                "pinned to the admissible range boundary", trace)
        nrm, z, r, jac = accepted
        trace.append(nrm)
        if nrm <= target:
            return z, trace
    raise SolverError(
        f"Newton did not converge in {config.max_iterations} iterations "
        f"(residual {trace[-1]:.3e}, target {target:.3e})", trace)


def crank_nicolson_step(assembler, u_n, t_n, dt, cmap: ConstraintMap,
                        config: SolverConfig, old=None, z0=None):
    """Advance one step; returns (u_{n+1}, trace, old-data for the next step).

    assembler(u, t) -> (K csr, C diagonal, f[, capacity derivatives]) on
    the full dof vector; K stores its main diagonal and offset N, as
    the two-field skeleton of fem does.
    `old` carries (K_n u_n, f_n) when the caller already assembled the
    old state; the returned triple's third entry is the same pair
    evaluated at the accepted new state. `z0` overrides the start
    iterate in reduced coordinates (default: project u_n).
    """
    if dt <= 0.0:
        raise SolverError("time step must be positive")
    if old is None:
        out_n = assembler(u_n, t_n)
        fint_n = out_n[0] @ u_n
        f_n = out_n[2]
    else:
        fint_n, f_n = old
    t_new = t_n + dt
    accepted = {}

    def residual_jacobian(z):
        u = cmap.expand(z)
        out = assembler(u, t_new)
        K, C, f = out[:3]
        fint = K @ u
        R = C * (u - u_n) / dt + 0.5 * (fint + fint_n) - 0.5 * (f + f_n)
        J = 0.5 * K
        diag = J.diagonal() + C / dt
        if len(out) > 3 and out[3] is not None:
            # storage coefficients depend on humidity: the derivative
            # times the current rate enters the phi columns, on offset
            # n in the theta rows and on the diagonal in the phi rows
            gtt, gff = out[3]
            n = gtt.size
            rate = (u - u_n) / dt
            diag[n:] += gff * rate[n:]
            J.setdiag(J.diagonal(n) + gtt * rate[:n], n)
        J.setdiag(diag)
        accepted["old"] = (fint, f)
        matrix, scaled = cmap.newton_system(J, C)
        return scaled(R), matrix

    if z0 is None:
        z0 = cmap.initial_reduced(u_n)
    z, trace = newton_solve(residual_jacobian, z0, config, cmap.z_rows)
    return cmap.expand(z), trace, accepted["old"]


@dataclass
class History:
    """Accepted states at uniform multiples of the nominal step."""

    times: list = field(default_factory=list)        # seconds
    states: list = field(default_factory=list)       # FieldState
    newton_iterations: list = field(default_factory=list)
    step_seconds: list = field(default_factory=list)  # wall time per step

    def append(self, state: FieldState, iterations=0, wall=0.0):
        self.times.append(state.time)
        self.states.append(state)
        self.newton_iterations.append(int(iterations))
        self.step_seconds.append(float(wall))

    @property
    def final(self) -> FieldState:
        return self.states[-1]

    def theta_array(self):
        return np.stack([s.theta for s in self.states], axis=1)

    def phi_array(self):
        return np.stack([s.phi for s in self.states], axis=1)

    def times_hours(self):
        return np.asarray(self.times) / 3600.0


def _assemble(mesh, materials, u, t):
    """crank_nicolson_step's assembler(u, t) once mesh and materials are bound."""
    state = FieldState.from_vector(u, t)
    sysm = assemble_system(mesh, state, materials)
    cap = capacity_jacobian_diagonals(mesh, state, materials)
    return sysm.K, sysm.storage_diagonal(), sysm.f, cap


def step_with_retry(step, mesh, schedule, initial: FieldState, dt_hours,
                    t_end_hours, config: SolverConfig) -> History:
    """History of steps of size dt up to t_end, each retried once on failure.

    step(u_n, t_n, dt, cmap) returns (u_{n+1}, newton iterations) under
    the Dirichlet map of schedule at t_n + dt, or raises SolverError. A
    failed step is retried as two half steps; a second failure, and
    every error other than SolverError, propagates.
    """
    dt = float(dt_hours) * 3600.0
    t_end = float(t_end_hours) * 3600.0
    n_steps = int(round(t_end / dt))
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * max(t_end, dt):
        raise SolverError("t_end must be a positive whole number of steps")

    def cmap_for(t):
        return dirichlet_map(2 * mesh.n_nodes, schedule.dirichlet_values(mesh, t))

    u = initial.vector()
    history = History()
    history.append(FieldState.from_vector(u, 0.0))
    for k in range(1, n_steps + 1):
        tic = _time.perf_counter()
        t_n = (k - 1) * dt
        try:
            u, iters = step(u, t_n, dt, cmap_for(t_n + dt))
        except SolverError as exc:
            if not config.retry_halving:
                raise
            log.warning("step at t=%.0f s failed (%s); retrying with dt/2",
                        t_n, exc)
            half = 0.5 * dt
            u_mid, it1 = step(u, t_n, half, cmap_for(t_n + half))
            u, it2 = step(u_mid, t_n + half, half, cmap_for(t_n + dt))
            iters = it1 + it2
        wall = _time.perf_counter() - tic
        history.append(FieldState.from_vector(u, k * dt), iters, wall)
        log.info("step=%d t_hours=%.3f iterations=%d wall=%.3f",
                 k, k * dt / 3600.0, iters, wall)
    return history


def transient_solve(mesh, materials, schedule, initial: FieldState,
                    dt_hours, t_end_hours, config: SolverConfig | None = None) -> History:
    """Single-scale transient solution with Dirichlet data from `schedule`.

    schedule.dirichlet_values(mesh, t_seconds) supplies the constrained
    field-major dofs at a given time; see step_with_retry for retries.
    """
    config = config or SolverConfig()
    assembler = partial(_assemble, mesh, materials)
    old = None

    def step(u_n, t_n, dt, cmap):
        # reuses (K_n u_n, f_n) of the last accepted state
        nonlocal old
        u_new, trace, old = crank_nicolson_step(assembler, u_n, t_n, dt,
                                                cmap, config, old)
        return u_new, len(trace) - 1

    return step_with_retry(step, mesh, schedule, initial, dt_hours,
                           t_end_hours, config)
