"""P1 finite elements for the coupled two-field diffusion system.

Global unknowns are arranged field-major, u = [theta_0..theta_N-1,
phi_0..phi_N-1]; element matrices follow the same ordering with 6 dofs
per triangle. Conductivity uses one-point (centroid) integration,
storage is lumped row-sum, i.e. area/3 per node and field.

Constraints (Dirichlet values, periodic-affine cell conditions) are
expressed as an affine map u = T z + g onto free unknowns z; systems
are reduced by the congruence T' A T and recovered through the map.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from .constitutive import CoefficientSet
from .mesh import Mesh, PeriodicPairing, triangle_areas


class FemError(RuntimeError):
    pass


@dataclass
class FieldState:
    """Nodal temperature [deg C] and relative humidity [-] at one time."""

    theta: np.ndarray
    phi: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        if self.theta.shape != self.phi.shape or self.theta.ndim != 1:
            raise FemError("theta and phi must be matching 1-d nodal arrays")
        if not (np.all(np.isfinite(self.theta)) and np.all(np.isfinite(self.phi))):
            raise FemError("non-finite entries in field state")

    @property
    def n_nodes(self):
        return self.theta.size

    def vector(self):
        return np.concatenate([self.theta, self.phi])

    @classmethod
    def from_vector(cls, u, time=0.0):
        n = u.size // 2
        return cls(u[:n].copy(), u[n:].copy(), time)

    @classmethod
    def uniform(cls, n_nodes, theta, phi, time=0.0):
        return cls(np.full(n_nodes, float(theta)), np.full(n_nodes, float(phi)), time)


@dataclass
class CoupledSystem:
    """Assembled operator blocks of the coupled system.

    K_* are conductivity blocks (N x N csr), c_tt/c_ff the lumped
    storage diagonals, f the external flux vector of length 2N.
    """

    K_tt: sp.csr_matrix
    K_tf: sp.csr_matrix
    K_ft: sp.csr_matrix
    K_ff: sp.csr_matrix
    c_tt: np.ndarray
    c_ff: np.ndarray
    f: np.ndarray

    @property
    def n_nodes(self):
        return self.c_tt.size

    def stiffness(self) -> sp.csr_matrix:
        return sp.bmat([[self.K_tt, self.K_tf], [self.K_ft, self.K_ff]], format="csr")

    def storage_diagonal(self):
        return np.concatenate([self.c_tt, self.c_ff])


# ------------------------------------------------- per-mesh workspace

_WORKSPACES: "weakref.WeakKeyDictionary[Mesh, Workspace]" = weakref.WeakKeyDictionary()


class Workspace:
    """Geometry factors and scatter indices precomputed once per mesh."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        tris = mesh.triangles
        p = mesh.nodes[tris]                       # (M, 3, 2)
        self.areas = triangle_areas(mesh)          # (M,)
        if np.any(self.areas <= 0.0):
            raise FemError("mesh contains degenerate or inverted triangles")
        # gradients of the three shape functions, grads[m, i, :] = grad N_i
        inv2a = 1.0 / (2.0 * self.areas)
        gx = np.stack([p[:, 1, 1] - p[:, 2, 1],
                       p[:, 2, 1] - p[:, 0, 1],
                       p[:, 0, 1] - p[:, 1, 1]], axis=1) * inv2a[:, None]
        gy = np.stack([p[:, 2, 0] - p[:, 1, 0],
                       p[:, 0, 0] - p[:, 2, 0],
                       p[:, 1, 0] - p[:, 0, 0]], axis=1) * inv2a[:, None]
        self.grads = np.stack([gx, gy], axis=2)    # (M, 3, 2)
        self.centroids = p.mean(axis=1)            # (M, 2)
        # scalar stiffness pattern S_mij = area * grad N_i . grad N_j
        self.pattern = np.einsum("mid,mjd->mij", self.grads, self.grads) \
            * self.areas[:, None, None]
        self.rows = np.repeat(tris, 3, axis=1).ravel()
        self.cols = np.tile(tris, (1, 3)).ravel()
        # lumped nodal areas (row-sum mass with unit density)
        self.node_areas = self.lumped(np.ones(mesh.n_triangles))
        # per-phase element index lists, fixed order
        self.phase_elements = [np.nonzero(mesh.phases == k)[0]
                               for k in range(len(mesh.phase_names))]
        # fixed csr skeleton of the stiffness pattern: every assembly
        # reuses it, turning the coo sort/dedup into one bincount
        order = np.lexsort((self.cols, self.rows))
        r_s, c_s = self.rows[order], self.cols[order]
        fresh = np.empty(order.size, dtype=bool)
        fresh[0] = True
        fresh[1:] = (r_s[1:] != r_s[:-1]) | (c_s[1:] != c_s[:-1])
        slots = np.cumsum(fresh) - 1
        self.csr_nnz = int(slots[-1]) + 1
        pos = np.empty(order.size, dtype=np.int64)
        pos[order] = slots
        self.csr_pos = pos
        self.csr_indices = c_s[fresh].astype(np.int32)
        counts = np.bincount(r_s[fresh], minlength=mesh.n_nodes)
        self.csr_indptr = np.concatenate(
            [[0], np.cumsum(counts)]).astype(np.int32)

    def csr_scatter(self, data):
        """Assemble raveled (M*9,) element entries into a csr matrix."""
        summed = np.bincount(self.csr_pos, weights=data,
                             minlength=self.csr_nnz)
        n = self.mesh.n_nodes
        return sp.csr_matrix((summed, self.csr_indices, self.csr_indptr),
                             shape=(n, n))

    def lumped(self, vals):
        """Row-sum lumped nodal diagonal of per-element densities, (N,)."""
        d = np.zeros(self.mesh.n_nodes)
        np.add.at(d, self.mesh.triangles.ravel(),
                  np.repeat(vals * self.areas / 3.0, 3))
        return d

    def element_gradient(self, nodal):
        """Constant per-element gradient of a nodal field, (M, 2)."""
        return np.einsum("mid,mi->md", self.grads, nodal[self.mesh.triangles])

    def element_mean(self, nodal):
        return nodal[self.mesh.triangles].mean(axis=1)

    def scatter_gradient_pairing(self, vec):
        """Nodal vector b with b_i = sum_e A_e grad N_i . vec_e."""
        contrib = np.einsum("mid,md->mi", self.grads, vec) * self.areas[:, None]
        out = np.zeros(self.mesh.n_nodes)
        np.add.at(out, self.mesh.triangles.ravel(), contrib.ravel())
        return out


def workspace(mesh: Mesh) -> Workspace:
    ws = _WORKSPACES.get(mesh)
    if ws is None:
        ws = Workspace(mesh)
        _WORKSPACES[mesh] = ws
    return ws


# ------------------------------------------------------------ assembly


def _per_phase(mesh: Mesh, state: FieldState, materials, evaluate, n_out):
    """n_out per-element arrays of evaluate(material, theta_c, phi_c) at
    centroid states, one call per phase."""
    ws = workspace(mesh)
    th_c = ws.element_mean(state.theta)
    ph_c = ws.element_mean(state.phi)
    out = [np.empty(mesh.n_triangles) for _ in range(n_out)]
    for pid, name in enumerate(mesh.phase_names):
        idx = ws.phase_elements[pid]
        if idx.size == 0:
            continue
        if name not in materials:
            raise FemError(f"mesh phase '{name}' missing from the material set")
        for arr, vals in zip(out, evaluate(materials[name], th_c[idx], ph_c[idx])):
            arr[idx] = vals
    return out


_COEFFICIENTS = tuple(f.name for f in fields(CoefficientSet))


def evaluate_coefficients(mesh: Mesh, state: FieldState, materials) -> CoefficientSet:
    """Per-element CoefficientSet at centroid states, phase by phase."""

    def evaluate(material, theta, phi):
        c = material.coefficients(theta, phi)
        return [getattr(c, name) for name in _COEFFICIENTS]

    return CoefficientSet(*_per_phase(mesh, state, materials, evaluate,
                                      len(_COEFFICIENTS)))


def assemble_system(mesh: Mesh, state: FieldState, materials,
                    neumann=None) -> CoupledSystem:
    """Assemble conductivity blocks, lumped storage and external fluxes.

    materials maps phase names to objects with coefficients(theta, phi);
    neumann, when given, maps (field, boundary-set) to a flux density
    [W m^-2 or kg m^-2 s^-1] applied on that edge set.
    """
    if state.n_nodes != mesh.n_nodes:
        raise FemError("state length does not match the mesh")
    ws = workspace(mesh)
    coeff = evaluate_coefficients(mesh, state, materials)
    n = mesh.n_nodes

    def kblock(vals):
        return ws.csr_scatter((vals[:, None, None] * ws.pattern).ravel())

    f = np.zeros(2 * n)
    if neumann:
        for (fld, set_name), flux in neumann.items():
            if set_name not in mesh.boundary:
                raise FemError(f"unknown boundary set '{set_name}'")
            off = 0 if fld == "theta" else n
            for a, b in mesh.boundary[set_name]:
                half = 0.5 * float(np.hypot(*(mesh.nodes[b] - mesh.nodes[a]))) * flux
                f[off + a] += half
                f[off + b] += half

    return CoupledSystem(kblock(coeff.k_tt), kblock(coeff.k_tf),
                         kblock(coeff.k_ft), kblock(coeff.k_ff),
                         ws.lumped(coeff.c_tt), ws.lumped(coeff.c_ff), f)


def capacity_jacobian_diagonals(mesh: Mesh, state: FieldState, materials):
    """Lumped humidity derivatives of the two storage diagonals.

    Returns nodal arrays (d c_tt / d phi, d c_ff / d phi) lumped like
    the storage itself. They feed the Newton Jacobian of the transient
    step; without them a steep sorption isotherm makes the frozen
    coefficient iteration oscillate near convergence.
    """
    dtt, dff = _per_phase(
        mesh, state, materials,
        lambda material, theta, phi: material.storage_derivatives(theta, phi), 2)
    ws = workspace(mesh)
    return ws.lumped(dtt), ws.lumped(dff)


# ---------------------------------------------------------- constraints


class ConstraintMap:
    """Affine reduction u = T z + g with T an injection of free dofs.

    free_index gives, for every reduced unknown, the full dof it
    coincides with (every free dof appears identically in u), so the
    reduced start vector for an admissible u is simply (u - g)[free].
    """

    def __init__(self, T: sp.csr_matrix, g: np.ndarray, free_index: np.ndarray):
        self.T = T.tocsr()
        self.g = np.asarray(g, dtype=float)
        self.free_index = np.asarray(free_index, dtype=np.int64)
        self.n_free = self.T.shape[1]

    def reduce_matrix(self, A) -> sp.csr_matrix:
        return (self.T.T @ A @ self.T).tocsr()

    def reduce_vector(self, r):
        return self.T.T @ r

    def expand(self, z):
        return self.T @ z + self.g

    def initial_reduced(self, u):
        return (u - self.g)[self.free_index]

    def reduce_system(self, A, b):
        """Eliminate constraints from A u = b."""
        return self.reduce_matrix(A), self.T.T @ (b - A @ self.g)


def dirichlet_map(n_dofs, values: dict) -> ConstraintMap:
    """Constraint map fixing the given dofs to prescribed values."""
    fixed = np.fromiter(values.keys(), dtype=np.int64, count=len(values))
    if fixed.size and (fixed.min() < 0 or fixed.max() >= n_dofs):
        raise FemError("dirichlet dof index out of range")
    if fixed.size != len(set(fixed.tolist())):
        raise FemError("repeated dirichlet dof")
    mask = np.ones(n_dofs, dtype=bool)
    mask[fixed] = False
    free = np.nonzero(mask)[0]
    g = np.zeros(n_dofs)
    for dof, val in values.items():
        g[dof] = float(val)
    T = sp.csr_matrix((np.ones(free.size), (free, np.arange(free.size))),
                      shape=(n_dofs, free.size))
    return ConstraintMap(T, g, free)


class PeriodicReduction:
    """Loading-independent part of the periodic-affine constraints.

    Fluctuations are periodic (slave equals master) with a weighted
    zero mean per field; the mean constraint is eliminated through one
    anchor dof whose value balances the lumped-area average, anchoring
    the cell average of each total field to its macro value.
    """

    def __init__(self, mesh: Mesh, pairing: PeriodicPairing):
        self.mesh = mesh
        self.pairing = pairing
        n = mesh.n_nodes
        w = workspace(mesh).node_areas
        master_of = np.arange(n)
        for m, s in zip(pairing.masters, pairing.slaves):
            master_of[s] = m
        if np.any(master_of[master_of] != master_of):
            raise FemError("chained periodic constraints are not supported")
        self.master_of = master_of
        masters = np.nonzero(master_of == np.arange(n))[0]
        # group weight: own lumped area plus that of all slaves
        gw = np.zeros(n)
        np.add.at(gw, master_of, w)
        self.anchor = int(masters[0])
        free = masters[masters != self.anchor]
        self.free = free
        col_of = -np.ones(n, dtype=np.int64)
        col_of[free] = np.arange(free.size)

        rows, cols, data = [], [], []
        anchor_row = -gw[free] / gw[self.anchor]
        for i in range(n):
            m = master_of[i]
            if m == self.anchor:
                rows.extend([i] * free.size)
                cols.extend(range(free.size))
                data.extend(anchor_row)
            else:
                rows.append(i)
                cols.append(col_of[m])
                data.append(1.0)
        self.T_field = sp.csr_matrix((data, (rows, cols)), shape=(n, free.size))
        # two-field block map [theta; phi]
        self.T = sp.block_diag([self.T_field, self.T_field], format="csr")
        self.free_index = np.concatenate([free, n + free])
        self.x0 = mesh.center()

    def affine(self, value_theta, value_phi, grad_theta, grad_phi):
        """Nodal field-major vector of the macro (affine) part."""
        rel = self.mesh.nodes - self.x0
        return np.concatenate([value_theta + rel @ np.asarray(grad_theta, dtype=float),
                               value_phi + rel @ np.asarray(grad_phi, dtype=float)])

    def map_for(self, value_theta, value_phi, grad_theta,
                grad_phi) -> ConstraintMap:
        g = self.affine(value_theta, value_phi, grad_theta, grad_phi)
        return ConstraintMap(self.T, g, self.free_index)
