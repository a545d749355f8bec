"""Transient computational homogenization on periodic unit cells.

A macroscopic integration point hands the cell its local values and
gradients of temperature and relative humidity plus the time increment.
The cell carries the fields

    theta(x) = Theta + grad_Theta . (x - x0) + theta~(x)

with periodic fluctuations theta~ constrained to zero weighted mean, and
advances them by one Crank-Nicolson step. Volume averaging of the
converged state returns the homogenized fluxes, storage rates and first
moments; finite differencing of reruns of the same increment yields the
effective conductivity blocks and storage coefficients.

Fluxes follow the physical sign convention q = -k grad u, and the
effective blocks satisfy q_heat = -(K_tt grad_Theta + K_tf grad_Phi).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy.sparse.linalg as spla

from . import fem
from .fem import FieldState, assemble_system, evaluate_coefficients, workspace
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
    """Converged cell state: fluctuations plus the loading that made them."""

    fluct: np.ndarray        # (2N,) field-major fluctuation vector
    loading: MacroLoading
    time: float = 0.0        # s, cell-local


@dataclass(frozen=True)
class TangentBlocks:
    k_tt: np.ndarray         # (2, 2) W/(m K)
    k_tf: np.ndarray
    k_ft: np.ndarray
    k_ff: np.ndarray
    c_t: float = None        # J/(m^3 K)
    c_f: float = None        # kg/m^3 per unit humidity
    # mean-flux sensitivities to the macroscopic values, columns
    # (Theta, Phi); zero for linear materials, but the saturation
    # pressure makes them sizeable for real ones
    b_t: np.ndarray = None   # (2, 2) d q_heat / d(Theta, Phi)
    b_f: np.ndarray = None   # (2, 2) d q_moist / d(Theta, Phi)
    # storage-moment sensitivities: mg_xy = d m_x / d grad_y (2, 2),
    # mv_x = d m_x / d(Theta, Phi) (2, 2). For one step these scale
    # like capacity <x~ (x) x~> / dt and dwarf the conductive blocks
    mg_tt: np.ndarray = None
    mg_tf: np.ndarray = None
    mg_ft: np.ndarray = None
    mg_ff: np.ndarray = None
    mv_t: np.ndarray = None
    mv_f: np.ndarray = None


@dataclass(frozen=True)
class EffectiveResponse:
    """Volume-averaged answer of one cell for one increment."""

    q_heat: np.ndarray       # (2,) W/m^2
    q_moist: np.ndarray      # (2,) kg/(m^2 s)
    s_t: float               # W/m^3, averaged heat storage rate
    s_f: float               # kg/(m^3 s)
    m_t: np.ndarray          # (2,) first moment of the heat storage rate
    m_f: np.ndarray          # (2,)
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

    @property
    def n_nodes(self):
        return self.mesh.n_nodes

    def affine_vector(self, loading: MacroLoading):
        return self.reduction.affine(loading.theta, loading.phi,
                                     loading.grad_theta, loading.grad_phi)

    def total_vector(self, state: MesoState):
        return self.affine_vector(state.loading) + state.fluct

    def initial_state(self, loading: MacroLoading) -> MesoState:
        return MesoState(np.zeros(2 * self.n_nodes), loading, 0.0)


def _mean_conduction(ws, coeff, w, u):
    """Area-weighted means <k grad u> of the heat and moisture rows, (2,) each."""
    n = ws.mesh.n_nodes
    gt = ws.element_gradient(u[:n])
    gf = ws.element_gradient(u[n:])
    return (np.array([w @ (coeff.k_tt * gt[:, 0] + coeff.k_tf * gf[:, 0]),
                      w @ (coeff.k_tt * gt[:, 1] + coeff.k_tf * gf[:, 1])]),
            np.array([w @ (coeff.k_ft * gt[:, 0] + coeff.k_ff * gf[:, 0]),
                      w @ (coeff.k_ft * gt[:, 1] + coeff.k_ff * gf[:, 1])]))


def average_fields(cell: CellProblem, u_new, u_old, dt) -> EffectiveResponse:
    """Volume averages of flux, storage rate and storage moment.

    dt = None averages a static state: fluxes only, zero rates.
    """
    ws = workspace(cell.mesh)
    n = cell.n_nodes
    state = FieldState.from_vector(u_new)
    coeff = evaluate_coefficients(cell.mesh, state, cell.materials)
    w = ws.areas / cell.area
    kg_heat, kg_moist = _mean_conduction(ws, coeff, w, u_new)
    q_heat, q_moist = -kg_heat, -kg_moist
    if dt is None:
        zero = np.zeros(2)
        return EffectiveResponse(q_heat, q_moist, 0.0, 0.0, zero, zero.copy())
    rate = (u_new - u_old) / dt
    rt = ws.element_mean(rate[:n])
    rf = ws.element_mean(rate[n:])
    xc = ws.centroids - cell.reduction.x0
    s_t = float(w @ (coeff.c_tt * rt))
    s_f = float(w @ (coeff.c_ff * rf))
    m_t = np.array([w @ (coeff.c_tt * rt * xc[:, 0]),
                    w @ (coeff.c_tt * rt * xc[:, 1])])
    m_f = np.array([w @ (coeff.c_ff * rf * xc[:, 0]),
                    w @ (coeff.c_ff * rf * xc[:, 1])])
    return EffectiveResponse(q_heat, q_moist, s_t, s_f, m_t, m_f)


def initial_response(cell: CellProblem, loading: MacroLoading):
    """Zero-rate response of the fresh affine state, no solve involved."""
    state = cell.initial_state(loading)
    u0 = cell.total_vector(state)
    return state, average_fields(cell, u0, u0, None)


def solve_rve_increment(cell: CellProblem, state: MesoState,
                        loading: MacroLoading, config: SolverConfig = None,
                        want_tangents=False):
    """Advance the cell by loading.dt and average the converged state.

    Returns (new state, response).
    """
    cfg = config or cell.config
    u_n = cell.total_vector(state)
    cmap = cell.reduction.map_for(loading.theta, loading.phi,
                                  loading.grad_theta, loading.grad_phi)
    # start from the carried-over fluctuation under the new affine part;
    # projecting the old total field instead would dump the affine mean
    # shift onto the anchor group and can leave the material validity
    # window for large macro steps
    z0 = state.fluct[cell.reduction.free_index]
    u_new, _, _ = crank_nicolson_step(cell._assembler, u_n, state.time,
                                      loading.dt, cmap, cfg, z0=z0)
    new_state = MesoState(u_new - cell.affine_vector(loading), loading,
                          state.time + loading.dt)
    response = average_fields(cell, u_new, u_n, loading.dt)
    if want_tangents:
        tangent = effective_tangent(cell, state, loading, cfg, base=response)
        response = replace(response, tangent=tangent)
    return new_state, response


def effective_tangent(cell: CellProblem, state: MesoState,
                      loading: MacroLoading, config: SolverConfig = None,
                      base: EffectiveResponse = None,
                      h=1e-6) -> TangentBlocks:
    """Forward-difference sensitivities of the averaged increment answer.

    Six perturbed reruns of the same increment: one per gradient
    component (unit perturbations of 1 K/m and 1 /m scaled by h) and one
    per macroscopic value. The same reruns also yield the mean-flux
    value sensitivities b_t, b_f and the storage-moment sensitivities
    mg_*, mv_* at no extra cost. A failed perturbation retries once
    with h/10.

    Every rerun starts from the same iterate and stopping rule as the
    base solve, so the dominant part of the solver error is shared and
    cancels in the difference; the weakly coupled blocks (k_ft
    especially) rely on that cancellation because their signal in the
    averaged fluxes is far below the absolute solver tolerance.
    """
    cfg = config or cell.config
    if base is None:
        _, base = solve_rve_increment(cell, state, loading, cfg)

    def differences(step, **changes):
        # rows q_heat, q_moist, m_t, m_f; the rerun for its storage rates
        r = solve_rve_increment(cell, state, replace(loading, **changes),
                                cfg)[1]
        d = np.array([r.q_heat - base.q_heat, r.q_moist - base.q_moist,
                      r.m_t - base.m_t, r.m_f - base.m_f]) / step
        return d, r

    for step in (h, 0.1 * h):
        try:
            k = np.empty((2, 2, 2, 2))   # [field eq, field grad, flux comp, grad comp]
            mg = np.empty((2, 2, 2, 2))  # [moment pair, grad field, comp, grad comp]
            for j in range(2):
                e = np.zeros(2)
                e[j] = step
                for g, name in enumerate(("grad_theta", "grad_phi")):
                    d, _ = differences(step,
                                       **{name: getattr(loading, name) + e})
                    k[:, g, :, j] = -d[:2]
                    mg[:, g, :, j] = d[2:]
            b = np.empty((2, 2, 2))   # [flux pair, flux comp, value field]
            mv = np.empty((2, 2, 2))  # [moment pair, comp, value field]
            d, r = differences(step, theta=loading.theta + step)
            c_t = (r.s_t - base.s_t) * loading.dt / step
            b[:, :, 0], mv[:, :, 0] = d[:2], d[2:]
            d, r = differences(step, phi=loading.phi + step)
            c_f = (r.s_f - base.s_f) * loading.dt / step
            b[:, :, 1], mv[:, :, 1] = d[:2], d[2:]
            return TangentBlocks(k[0, 0], k[0, 1], k[1, 0], k[1, 1],
                                 float(c_t), float(c_f), b[0], b[1],
                                 mg[0, 0], mg[0, 1], mg[1, 0], mg[1, 1],
                                 mv[0], mv[1])
        except SolverError:
            if step == 0.1 * h:
                raise
    raise SolverError("tangent perturbation failed")  # pragma: no cover


def steady_linear_homogenize(mesh: Mesh, materials, theta=20.0, phi=0.5):
    """Effective conductivity blocks of the cell frozen at a uniform state.

    Solves the four steady periodic problems with unit macroscopic
    gradients and reads the blocks off the averaged fluxes. Exact for
    linear materials; for nonlinear ones this is the tangent at the
    given state with the coefficient fields held fixed.
    """
    red = fem.PeriodicReduction(mesh, detect_periodic_pairs(mesh))
    ws = workspace(mesh)
    n = mesh.n_nodes
    state = FieldState.uniform(n, theta, phi)
    sysm = assemble_system(mesh, state, materials)
    K = sysm.stiffness()
    coeff = evaluate_coefficients(mesh, state, materials)
    w = ws.areas / ws.areas.sum()
    blocks = {name: np.zeros((2, 2)) for name in ("k_tt", "k_tf", "k_ft", "k_ff")}
    zero = np.zeros(2)
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1.0
        for field, (g_t, g_f) in (("t", (e, zero)), ("f", (zero, e))):
            cmap = red.map_for(0.0, 0.0, g_t, g_f)
            A_red, b_red = cmap.reduce_system(K, np.zeros(2 * n))
            y = spla.splu(A_red.tocsc()).solve(b_red)
            u = cmap.expand(y[cmap.z_rows])
            # block column = <k grad u> per unit macroscopic gradient,
            # so that the physical flux is q = -K_eff g
            blocks["k_t" + field][:, j], blocks["k_f" + field][:, j] = \
                _mean_conduction(ws, coeff, w, u)
    return TangentBlocks(**blocks)
