"""Newton iteration and Crank-Nicolson time stepping.

The step solves

    C(u) (u_{n+1} - u_n)/dt + 1/2 (K(u_{n+1}) u_{n+1} + K(u_n) u_n) = 0

with the storage diagonal evaluated at the step's current iterate and a
frozen-coefficient (Picard accelerated) Jacobian C/dt + K/2. Linear
systems use a direct sparse factorization; everything is deterministic
for a fixed input, there is no iterative solver noise.

A residual evaluation defers its Newton system. newton_solve takes
residual_jacobian(z) -> (r, system), and system() -> (matrix, rows)
builds the matrix; Newton calls it only for an iterate whose update it
solves for, right before it factors the matrix, and drops the system
first. An evaluation that converges, and a trial step that is
rejected, build no matrix. For the Crank-Nicolson step, system()
evaluates the capacity derivatives, adds the storage terms to K/2 and
reduces the result onto the planned bordered system; the FE2 macro
step returns the system it reduced once for the whole step.

Every Newton system, fine, cell or macro, is factored by `factorize`.
Its matrices have a symmetric pattern, so they are ordered by minimum
degree on A + A', and SuperLU keeps a diagonal pivot whenever it holds
at least 1 % of its column's largest entry. The ordering depends on the
pattern alone: ConstraintMap.reduce_matrix computes it once per pattern
(fem.SystemPlan) and gathers every matrix of that pattern straight into
that order, so `factorize` runs SuperLU with its NATURAL column order
and repeats no ordering. On an 8 x 8-cell wall with four elements
across each joint, the smallest ratio |a_jj| / max_i |a_ij| of a
Newton matrix is 0.065: every pivot stays on the diagonal, and the
factors hold 2.6 M entries against 5.5 M with SuperLU's default COLAMD
ordering. The ordering and the threshold only work together: at a
threshold of 0.1 that wall already pivots off the diagonal, and its
factors hold 50.8 M entries; at 0, a near-zero diagonal entry would
stay the pivot with no fallback to partial pivoting.

SuperLU also groups columns into supernodes and panels. Its default
relaxation merges small subtrees of the elimination tree into dense
supernodes and stores their zeros, which pays off on large matrices;
on the cell systems about a third of the entries it stores are zeros.
`factorize` therefore asks for unrelaxed supernodes (relax=1) and
one-column panels (panel_size=1). The pivots and the pattern of L and
U stay the same, though their values can change in the last bits; only
the stored zeros go. A sweep on the first Newton matrix of a
running-bond cell (r elements across a joint) and of the 8 x 8-cell
wall of perfbench's fine-wall workload (seed 0) gave these stored
entries; the panel size does not change them:

    matrix          default    relax 1    relax 2
    r=2 cell          6,486      4,246      4,478
    r=4 cell         39,470     26,902     29,694
    r=8 cell        235,110    158,486    178,526
    r=12 cell       592,846    438,294    487,134
    fine wall     2,620,122  2,617,994  2,617,994

and these `splu` times in ms (minimum over interleaved runs on one core
of a 2-CPU Xeon host, whose speed swings about 1.4x), by relax and
panel size:

    matrix      default   1/1   1/2   1/4   2/1   2/2   2/4
    r=2 cell       0.24  0.15  0.16  0.18  0.15  0.16  0.16
    r=4 cell       1.60  0.84  0.88  0.90  1.01  1.03  1.13
    r=8 cell       13.1   6.7   6.8   6.6   8.5   8.2   8.3
    r=12 cell      38.8  20.0  21.2  19.5  25.8  24.5  25.7
    fine wall       159   133   136   139   133   128   139

relax=1 halves the time of a cell factorization, and relax=2 is 20 to
30 % slower than relax=1 on r >= 4; on the wall every setting beats the
default, and they all lie within the host's noise of each other. No
panel size above 1 is faster beyond that noise, so the rule keeps 1.
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
    """SuperLU factors of the square sparse A, already in the ordering above.

    Unrelaxed supernodes and one-column panels, as the sweep above chose.
    """
    # called through the module attribute, so a profiler that rebinds
    # spla.splu sees every factorization; a CSC input is not wrapped again
    return spla.splu(A if sp.isspmatrix_csc(A) else sp.csc_matrix(A),
                     permc_spec="NATURAL", diag_pivot_thresh=0.01, relax=1,
                     panel_size=1)


def newton_solve(residual_jacobian, z0, config: SolverConfig):
    """Newton iteration on the reduced unknowns.

    residual_jacobian(z) returns the reduced residual r and its
    deferred Newton system, a function: system() returns the sparse
    matrix of the Newton system and `rows`, the position of each entry
    of z among the system's unknowns. The system may be larger than z,
    as the bordered systems of ConstraintMap are: its other unknowns
    take a zero right-hand side and are left out of the update. system
    is called at most once, for an iterate that is not yet converged,
    right before its matrix is factored; the evaluation behind it is
    dropped before the factorization.
    Converges when ||r|| <= max(tol * ||r0||, floor);
    a start at the root returns after zero iterations, and a start with
    a non-finite residual raises, since no target can be set from it.
    Updates are halved (at most 8 times) until the trial iterate
    evaluates and does not grow the residual beyond 1.5 times the last.
    Raises SolverError with the residual trace on breakdown: when no
    trial evaluates, and when every trial that evaluates grows the
    residual, a stall at round-off or on a steep part of the material
    curves.
    """
    z = np.array(z0, dtype=float)
    trace = []

    def evaluate(zk):
        try:
            return residual_jacobian(zk)
        except ConstitutiveError as exc:
            raise SolverError(f"iterate left the admissible state range: {exc}",
                              trace) from exc

    r, system = evaluate(z)
    norm0 = float(np.linalg.norm(r))
    trace.append(norm0)
    if not np.isfinite(norm0):
        raise SolverError("non-finite residual at the start iterate", trace)
    target = max(config.newton_tol * norm0, config.newton_floor)
    if norm0 <= target:
        return z, trace
    for _ in range(config.max_iterations):
        try:
            matrix, rows = system()
            # the evaluation behind the system is dropped before the
            # factorization, and the matrix and its factors once they
            # have solved: neither the factorization nor the trial
            # evaluations run while the others are still held
            system = None
            rhs = np.zeros(matrix.shape[0])
            rhs[rows] = -r
            dz = factorize(matrix).solve(rhs)[rows]
            del matrix
        except RuntimeError as exc:
            raise SolverError(f"linear solve failed: {exc}", trace) from exc
        if not np.all(np.isfinite(dz)):
            raise SolverError("non-finite Newton update", trace)
        # damped update: halve the step while the trial iterate leaves
        # the admissible state range, gives a non-finite residual, or
        # grows the residual well beyond the previous one (the moisture
        # capacity softens steeply and full steps can run away)
        step, evaluated = 1.0, False
        for _halving in range(9):
            z_try = z + step * dz
            try:
                r, system = evaluate(z_try)
                nrm = float(np.linalg.norm(r))
            except SolverError:
                nrm = np.inf
            evaluated = evaluated or np.isfinite(nrm)
            if np.isfinite(nrm) and nrm <= 1.5 * trace[-1]:
                break
            step *= 0.5
        else:
            if evaluated:
                raise SolverError(
                    f"damped Newton stalled at residual {trace[-1]:.3e} "
                    f"(target {target:.3e}): every trial step that "
                    "evaluated grew the residual", trace)
            raise SolverError(
                "damped Newton made no progress: every trial left the "
                "admissible range or gave a non-finite residual", trace)
        z = z_try
        trace.append(nrm)
        if nrm <= target:
            return z, trace
    raise SolverError(
        f"Newton did not converge in {config.max_iterations} iterations "
        f"(residual {trace[-1]:.3e}, target {target:.3e})", trace)


def crank_nicolson_step(assembler, u_n, t_n, dt, cmap: ConstraintMap,
                        config: SolverConfig, old=None, z0=None):
    """Advance one step; returns (u_{n+1}, trace, old data, evaluation).

    assembler(u, t) -> (K, C, capacity, coeff) on the full dof vector,
    the evaluation at u: K a fem.SkeletonMatrix, C the storage
    diagonal, capacity a function that returns the lumped capacity
    derivatives (d c_tt / d phi, d c_ff / d phi), and coeff whatever the
    caller reads off the evaluation (the coefficient set of _assemble);
    capacity runs only when the Newton matrix of that evaluation is
    built. The old data is K u of a state: `old` carries K_n u_n when
    the caller already has it, and the returned old data is K u_{n+1}
    of the returned evaluation, the one at the accepted new state. `z0`
    overrides the start iterate in reduced coordinates (default:
    project u_n).
    """
    if dt <= 0.0:
        raise SolverError("time step must be positive")
    fint_n = assembler(u_n, t_n)[0] @ u_n if old is None else old
    t_new = t_n + dt
    # the latest evaluation and its K u; Newton returns at the accepted one
    accepted = {}

    def residual_jacobian(z):
        u = cmap.expand(z)
        evaluation = K, C, capacity, _ = assembler(u, t_new)
        fint = K @ u
        R = C * (u - u_n) / dt + 0.5 * (fint + fint_n)
        accepted.update(evaluation=evaluation, old=fint)

        def system():
            # an iterate that is factored is not the accepted one
            accepted.clear()
            # J = K/2 + C/dt on K's own skeleton
            J = 0.5 * K
            diag, offset = J.workspace.diagonal_slots
            J.data[diag] += C / dt
            # storage coefficients depend on humidity: the derivative
            # times the current rate enters the phi columns, on offset n
            # in the theta rows and on the diagonal in the phi rows
            gtt, gff = capacity()
            n = gtt.size
            rate = (u - u_n) / dt
            J.data[diag[n:]] += gff * rate[n:]
            J.data[offset] += gtt * rate[:n]
            return cmap.newton_system(J, C)

        return cmap.scaled_residual(R, C), system

    if z0 is None:
        z0 = cmap.initial_reduced(u_n)
    z, trace = newton_solve(residual_jacobian, z0, config)
    return cmap.expand(z), trace, accepted["old"], accepted["evaluation"]


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
    """crank_nicolson_step's assembler(u, t) once mesh and materials are bound.

    Returns (K, C, capacity, coefficient set at u): K a
    fem.SkeletonMatrix, and capacity the deferred
    capacity_jacobian_diagonals at u.
    """
    state = FieldState.from_vector(u, t)
    sysm = assemble_system(mesh, state, materials)
    return (sysm.conductivity, sysm.storage_diagonal(),
            partial(capacity_jacobian_diagonals, mesh, state, materials),
            sysm.coeff)


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
        # reuses K_n u_n of the last accepted state
        nonlocal old
        u_new, trace, old, _ = crank_nicolson_step(assembler, u_n, t_n, dt,
                                                   cmap, config, old)
        return u_new, len(trace) - 1

    return step_with_retry(step, mesh, schedule, initial, dt_hours,
                           t_end_hours, config)
