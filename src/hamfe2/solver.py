"""Newton iteration and Crank-Nicolson time stepping.

The step solves

    C(u) (u_{n+1} - u_n)/dt + 1/2 (f(u_{n+1}) + f(u_n)) = 0

with the storage diagonal evaluated at the step's current iterate: one
residual for the fine solve and the cell increments, whose conduction
term is f(u) = K(u) u, and for the FE2 macro step, whose f pairs the
cells' mean fluxes with the gradient test functions. The weight 1/2
and the storage C/dt live in this residual and in
fem.crank_nicolson_matrix, which adds them to the Jacobian of f in
every Newton matrix and the cell tangent: K at frozen coefficients
(Picard accelerated) for the fine and cell steps, the cell tangents'
flux Jacobian for the macro step. Linear systems use a direct sparse
factorization; everything is deterministic for a fixed input.

A residual evaluation defers its Newton system. newton_solve takes
residual_jacobian(z) -> (r, system, w): r is the reduced residual in
the Newton rows' scaling, w those row weights, and system() -> (matrix,
rows) builds the matrix; Newton calls it only when it factors, for the
iterate whose update it solves for, right before it factors the matrix,
and drops the system first. An evaluation that converges, a trial step
that is rejected, and an iterate that held factors serve build no
matrix. For the Crank-Nicolson step, system() takes the Newton matrix
of the iterate's evaluation, drops the evaluation and reduces the
matrix onto the planned bordered system.

Every Newton update solves with the factors at hand, a HeldFactors: a
fresh factorization of the iterate's system when there are none. A
caller that passes a holder keeps them while they contract, a chord
Newton (Kelley, Iterative Methods for Linear and Nonlinear Equations,
SIAM 1995): an update made with them must cut ||r|| to at most
CHORD_CONTRACTION times the last, or Newton factors afresh at the next
iteration. transient_solve carries one holder from step to step; the
matrix is already a frozen-coefficient one, so a fresh factorization at
every iterate buys little. Factors serve one constraint pattern and one
dt; the dt/2 retry factors afresh. Cell increments and the macro step
pass no holder: their factors are dropped right after their update is
solved, so they factor at every iteration. Probes with the climate's
temperature and humidity on the exterior face of a 6 x 6-cell wall,
four elements across a joint, eight one-hour steps, seeds 0, 1 and 2
(the perfbench fine wall factors once in its three steps for every
value):

    CHORD_CONTRACTION    factorizations      iterations    largest step
    no holder            108/120/110     108/120/110        20
    0.1                  102/116/104     108/120/111        20
    0.2                   94/108/ 93     108/120/111        20
    0.3                   55/ 80/ 62     110/120/111        20
    0.4                   31/ 43/ 26     113/124/118        20
    0.45                  20/ 35/ 18     117/127/117        21
    0.5                   13/ 31/ 14     119/136/118        21
    0.6                   11/ 21/ 10     123/133/123        21

The frozen-coefficient Newton itself contracts by about 0.3 per
iteration there, so values below that save nothing. 0.4 is the largest
value probed that keeps the longest step at 20; in two interleaved runs
per tree on a 2-CPU host, its solves took 3.9-5.7 s against 10.9-12.3 s
without a holder. It also bounds a chord that keeps its factors:
0.4^21 < 1e-8, so the default newton_tol is met within 21 of the 25
iterations max_iterations allows.

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
from .fem import ConstraintMap, FieldState, assemble_system, dirichlet_map

log = logging.getLogger(__name__)


@dataclass
class SolverConfig:
    newton_tol: float = 1e-8      # relative residual drop
    newton_floor: float = 1e-10   # absolute residual floor; near-steady
    # steps start almost converged and must not chase roundoff
    max_iterations: int = 25


# held factors serve the next iteration while the update made with them
# cut the residual norm to at most this fraction of the last one; see
# the module notes for how it was chosen
CHORD_CONTRACTION = 0.4


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


class HeldFactors:
    """The factors at hand for newton_solve's updates: those of one
    Newton matrix, kept across iterations and calls while they contract
    (the chord Newton of the module notes).

    `key` names the systems the factors serve; `serve(key)` drops them
    when it changes. `weights` are the row weights of z's rows in the
    factored matrix, and `factorizations` counts the factorizations made
    with this holder.
    """

    def __init__(self):
        self.key = None
        self.factorizations = 0
        self.drop()

    def drop(self):
        self.lu = self.rows = self.weights = None

    def serve(self, key):
        if key != self.key:
            self.drop()
            self.key = key


def newton_solve(residual_jacobian, z0, config: SolverConfig, held=None):
    """Newton iteration on the reduced unknowns.

    residual_jacobian(z) returns (r, system, w): the reduced residual r,
    its deferred Newton system, and the row weights w of r (r = w T'R).
    system() returns the sparse matrix of the Newton system and `rows`,
    the position of each entry of z among the system's unknowns. The
    system may be larger than z, as the bordered systems of
    ConstraintMap are: its other unknowns take a zero right-hand side
    and are left out of the update. system is called at most once, for
    an iterate that is not yet converged, right before its matrix is
    factored; the evaluation behind it is dropped before the
    factorization, and before every later evaluation.
    Converges when ||r|| <= max(tol * ||r0||, floor);
    a start at the root returns after zero iterations, and a start with
    a non-finite residual raises, since no target can be set from it.

    Every update solves with the factors at hand, those `held` keeps,
    a HeldFactors, or else fresh ones of the iterate's system. Their
    rows carry the weights w_f of the iterate they were factored at, so
    the right-hand side on them is -r w_f / w (-r for fresh factors).
    A fresh update is halved (at most 8 times) until the trial iterate
    is finite, evaluates and keeps the residual within 1.5 times the
    last. A held update gets one full trial, which must reduce the
    residual; otherwise the factors are dropped, and Newton evaluates
    the iterate again and updates it with fresh factors, without
    counting an iteration. Factors stay held while every update made
    with them is taken in full and cuts the residual to at most
    CHORD_CONTRACTION times the last. Without a caller's holder, the
    factors are dropped as soon as their update is solved, so every
    iteration factors its own system.
    Raises SolverError with the residual trace on breakdown: when no
    trial evaluates, and when every trial that evaluates grows the
    residual, a stall at round-off or on a steep part of the material
    curves.
    """
    keep = held is not None
    held = held if keep else HeldFactors()
    z = np.array(z0, dtype=float)
    trace = []

    def evaluate(zk):
        if not np.all(np.isfinite(zk)):
            raise SolverError("non-finite iterate", trace)
        try:
            return residual_jacobian(zk)
        except ConstitutiveError as exc:
            raise SolverError(f"iterate left the admissible state range: {exc}",
                              trace) from exc

    r, system, w = evaluate(z)
    norm0 = float(np.linalg.norm(r))
    trace.append(norm0)
    if not np.isfinite(norm0):
        raise SolverError("non-finite residual at the start iterate", trace)
    target = max(config.newton_tol * norm0, config.newton_floor)
    if norm0 <= target:
        return z, trace
    # every pass that appends to the trace is one iteration
    while len(trace) <= config.max_iterations:
        chord = held.lu is not None
        try:
            if not chord:
                matrix, rows = system()
                # the evaluation behind the system is dropped before the
                # factorization, and the matrix once it is factored:
                # neither the factorization nor the trial evaluations run
                # while the others are still held
                system = None
                held.lu, held.rows, held.weights = factorize(matrix), rows, w
                held.factorizations += 1
                del matrix
            rhs = np.zeros(held.lu.shape[0])
            rhs[held.rows] = -r * (held.weights / w)
            dz = held.lu.solve(rhs)[held.rows]
        except RuntimeError as exc:
            raise SolverError(f"linear solve failed: {exc}", trace) from exc
        if not keep:
            held.drop()
        if not (chord or np.all(np.isfinite(dz))):
            raise SolverError("non-finite Newton update", trace)
        # damped update: halve a fresh step while the trial iterate
        # overflows, leaves the admissible state range, gives a
        # non-finite residual, or grows the residual well beyond the
        # previous one (the moisture capacity softens steeply and full
        # steps can run away)
        evaluated = False
        for halvings in range(1 if chord else 9):
            with np.errstate(over="ignore"):
                z_try = z + dz
            system = None
            try:
                r_try, system, w_try = evaluate(z_try)
                nrm = float(np.linalg.norm(r_try))
            except SolverError:
                nrm = np.inf
            evaluated = evaluated or np.isfinite(nrm)
            if (nrm < trace[-1]) if chord else (nrm <= 1.5 * trace[-1]):
                break
            dz *= 0.5
        else:
            if chord:
                # the held factors no longer reduce the residual: they
                # go, and fresh ones update the same iterate
                held.drop()
                system = None
                r, system, w = evaluate(z)
                continue
            if evaluated:
                raise SolverError(
                    f"damped Newton stalled at residual {trace[-1]:.3e} "
                    f"(target {target:.3e}): every trial step that "
                    "evaluated grew the residual", trace)
            raise SolverError(
                "damped Newton made no progress: every trial left the "
                "admissible range, overflowed or gave a non-finite "
                "residual", trace)
        if halvings or nrm > CHORD_CONTRACTION * trace[-1]:
            held.drop()
        z, r, w = z_try, r_try, w_try
        trace.append(nrm)
        if nrm <= target:
            return z, trace
    raise SolverError(
        f"Newton did not converge in {config.max_iterations} iterations "
        f"(residual {trace[-1]:.3e}, target {target:.3e})", trace)


def crank_nicolson_step(assembler, u_n, dt, cmap: ConstraintMap,
                        config: SolverConfig, old=None, z0=None, held=None):
    """Advance one step; returns (u_{n+1}, trace, old data, evaluation).

    assembler(u) returns the evaluation of the full dof vector u: a
    fem.CoupledSystem, or a round of FE2 cells. The step reads its
    storage_diagonal() and conduction term conduction(u), and only to
    factor at u its Newton matrix newton_matrix(dt, (u - u_n)/dt), which
    takes the residual's weight and storage from fem.crank_nicolson_matrix.
    The returned evaluation is the one at the accepted new state. The old
    data is the conduction term of a state: `old` carries that of u_n
    when the caller already has it, and the returned old data is that
    of u_{n+1}. `z0` overrides the start iterate in reduced coordinates
    (default: project u_n). `held`, a HeldFactors, lends Newton factors
    of an earlier step with the same constraint pattern and dt, and
    keeps this step's for the next.
    """
    if dt <= 0.0:
        raise SolverError("time step must be positive")
    if held is not None:
        held.serve((cmap._pattern_key, dt))
    fint_n = assembler(u_n).conduction(u_n) if old is None else old
    # the latest evaluation and its conduction term; at return, the accepted
    accepted = {}

    def residual_jacobian(z):
        u = cmap.expand(z)
        # the last evaluation goes before the next one is assembled
        accepted.clear()
        sysm = assembler(u)
        C = sysm.storage_diagonal()
        fint = sysm.conduction(u)
        R = C * (u - u_n) / dt + 0.5 * (fint + fint_n)
        accepted.update(system=sysm, old=fint)

        def system():
            # an iterate that is factored is not the accepted one: its
            # evaluation goes once its Newton matrix is built
            nonlocal sysm
            accepted.clear()
            J = sysm.newton_matrix(dt, (u - u_n) / dt)
            sysm = None
            return cmap.newton_system(J, C)

        r, w = cmap.scaled_residual(R, C)
        return r, system, w

    z0 = cmap.initial_reduced(u_n) if z0 is None else z0
    z, trace = newton_solve(residual_jacobian, z0, config, held)
    return cmap.expand(z), trace, accepted["old"], accepted["system"]


@dataclass
class History:
    """Accepted states at uniform multiples of the nominal step."""

    times: list = field(default_factory=list)        # seconds
    states: list = field(default_factory=list)       # FieldState
    newton_iterations: list = field(default_factory=list)
    step_seconds: list = field(default_factory=list)  # wall time per step
    factorizations: list = field(default_factory=list)  # Newton LUs per step

    def append(self, state: FieldState, iterations=0, wall=0.0,
               factorizations=0):
        self.times.append(state.time)
        self.states.append(state)
        self.newton_iterations.append(int(iterations))
        self.step_seconds.append(float(wall))
        self.factorizations.append(int(factorizations))

    @property
    def final(self) -> FieldState:
        return self.states[-1]

    def theta_array(self):
        return np.stack([s.theta for s in self.states], axis=1)

    def phi_array(self):
        return np.stack([s.phi for s in self.states], axis=1)

    def times_hours(self):
        return np.asarray(self.times) / 3600.0


def _assemble(mesh, materials, u):
    """crank_nicolson_step's assembler(u) once mesh and materials are
    bound; the FieldState of u views its halves, it copies nothing."""
    n = u.size // 2
    return assemble_system(mesh, FieldState(u[:n], u[n:]), materials)


def step_with_retry(step, mesh, schedule, initial: FieldState, dt_hours,
                    t_end_hours) -> History:
    """History of steps of size dt up to t_end, each retried once on failure.

    step(u_n, dt, cmap) returns (u_{n+1}, newton iterations, Newton
    factorizations) under the Dirichlet map of schedule at the step's
    end, or raises SolverError.
    A failed step is retried as two half steps; a second failure, and
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
            done = step(u, dt, cmap_for(t_n + dt))
        except SolverError as exc:
            # a log record that keeps the error would keep the frames
            # of the failed attempt, and their evaluations, alive
            log.warning("step at t=%.0f s failed (%s); retrying with dt/2",
                        t_n, str(exc))
            done = None
        # the retry runs once the error and those frames are gone
        if done is None:
            half = 0.5 * dt
            u_mid, it1, lu1 = step(u, half, cmap_for(t_n + half))
            u, it2, lu2 = step(u_mid, half, cmap_for(t_n + dt))
            iters, lus = it1 + it2, lu1 + lu2
        else:
            u, iters, lus = done
        wall = _time.perf_counter() - tic
        history.append(FieldState.from_vector(u, k * dt), iters, wall, lus)
        log.info("step=%d t_hours=%.3f iterations=%d factorizations=%d "
                 "wall=%.3f", k, k * dt / 3600.0, iters, lus, wall)
    return history


def transient_solve(mesh, materials, schedule, initial: FieldState,
                    dt_hours, t_end_hours, config: SolverConfig | None = None) -> History:
    """Single-scale transient solution with Dirichlet data from `schedule`.

    schedule.dirichlet_values(mesh, t_seconds) supplies the constrained
    field-major dofs at a given time; see step_with_retry for retries.
    Newton's factors are held from step to step while they contract
    (HeldFactors), and live no longer than this call.
    """
    config = config or SolverConfig()
    assembler = partial(_assemble, mesh, materials)
    old = None
    held = HeldFactors()

    def step(u_n, dt, cmap):
        # reuses K_n u_n of the last accepted state, and its factors
        nonlocal old
        before = held.factorizations
        u_new, trace, old, _ = crank_nicolson_step(assembler, u_n, dt, cmap,
                                                   config, old, held=held)
        return u_new, len(trace) - 1, held.factorizations - before

    return step_with_retry(step, mesh, schedule, initial, dt_hours,
                           t_end_hours)
