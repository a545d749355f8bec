"""P1 finite elements for the coupled two-field diffusion system.

Global unknowns are arranged field-major, u = [theta_0..theta_N-1,
phi_0..phi_N-1]; element matrices follow the same ordering with 6 dofs
per triangle. Conductivity uses one-point (centroid) integration,
storage is lumped row-sum, i.e. area/3 per node and field.

Every coupled operator on a mesh, the conductivity K of the fine and
cell solves and the macro Jacobian of FE2, is assembled into one fixed
2N x 2N csr skeleton per mesh: the four blocks [[tt, tf], [ft, ff]]
each carry the one-field P1 pattern, and every node's own entry is
stored in all four, so the Crank-Nicolson storage terms are added in
place on the main diagonal and on offset N. The pattern keeps the
exact zeros that P1 stiffness has on right-triangle grids.

Boundary data enter as Dirichlet values only; no assembly adds an edge
flux, so the external flux vector of every system is zero. Constraints
(Dirichlet values, periodic-affine cell conditions) are expressed as an
affine map u = T z + g onto free unknowns z. Residuals reduce as T'R;
linear systems are solved on the unknowns that remain once prescribed
dofs are dropped and periodic slaves summed onto their masters,
bordered by the cell's zero-mean constraints as Lagrange multipliers,
so they keep the sparsity of the assembled matrix. Each pattern of such
a system gets one SystemPlan: a fill-reducing ordering and a gather map
from the assembled matrix straight into the bordered system, stored as
CSC in that ordering. The plans of the matrices on a mesh's skeleton
live with its workspace.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    """Assembled operators of the coupled system.

    K is the field-major conductivity (2N x 2N csr on the mesh's
    two-field skeleton), c_tt/c_ff the lumped storage diagonals, f the
    external flux vector of length 2N, coeff the per-element
    coefficients they were built from. f is zero (see the module notes)
    but keeps its place in the Crank-Nicolson residual.
    """

    K: sp.csr_matrix
    c_tt: np.ndarray
    c_ff: np.ndarray
    f: np.ndarray
    coeff: CoefficientSet = None

    def stiffness(self) -> sp.csr_matrix:
        return self.K

    def storage_diagonal(self):
        return np.concatenate([self.c_tt, self.c_ff])


# ------------------------------------------------- per-mesh workspace

_WORKSPACES: "weakref.WeakKeyDictionary[Mesh, Workspace]" = weakref.WeakKeyDictionary()
# workspaces by the id of their skeleton's indptr array, see skeleton_of
_SKELETONS: "weakref.WeakValueDictionary[int, Workspace]" = \
    weakref.WeakValueDictionary()


class Workspace:
    """Geometry factors and scatter indices precomputed once per mesh.

    csr_pos maps every element entry to its slot in the one-field csr
    pattern (csr_indices, csr_indptr, csr_nnz slots). Each row of the
    two-field skeleton (pair_indices, pair_indptr) holds the one-field
    row of its left block, then that of its right block; pair_slots[b]
    places the slots of block b = 2 * row field + column field there.
    plans holds the SystemPlan of every bordered-system pattern met on
    that skeleton (see ConstraintMap.plan), and diagonal_slots the
    newton_slots of its matrices once found.
    """

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
        # two-field skeleton: one-field slot s of node row i lands at
        # s + indptr[i] (left block) or s + indptr[i + 1] (right block),
        # 2 nnz further on in the phi rows
        nnz = self.csr_nnz
        left = np.arange(nnz) + np.repeat(self.csr_indptr[:-1], counts)
        right = left + np.repeat(counts, counts)
        self.pair_slots = np.stack([left, right, left + 2 * nnz,
                                    right + 2 * nnz]).astype(np.int32)
        self.pair_indices = np.empty(4 * nnz, dtype=np.int32)
        self.pair_indices[self.pair_slots] = \
            [self.csr_indices, self.csr_indices + mesh.n_nodes] * 2
        self.pair_indptr = np.concatenate(
            [2 * self.csr_indptr, 2 * nnz + 2 * self.csr_indptr[1:]])
        self.plans = {}
        self.diagonal_slots = None
        _SKELETONS[id(self.pair_indptr)] = self

    def csr_scatter(self, data):
        """Two-field 2N x 2N csr matrix of (2, 2, M, 3, 3) element entries.

        data[a][b][m, i, j] couples field a at the i-th node of element
        m to field b at its j-th node; a 2 x 2 nested list of (M, 3, 3)
        blocks spares a large system one array four blocks in size.
        Each block is summed over its one-field slots by one bincount
        and placed into the skeleton, so every matrix of a mesh shares
        indices, indptr and the order of its .data array.
        """
        nnz = self.csr_nnz
        summed = np.empty(4 * nnz)
        for slots, block in zip(self.pair_slots, [b for r in data for b in r]):
            summed[slots] = np.bincount(self.csr_pos, weights=np.ravel(block),
                                        minlength=nnz)
        n = 2 * self.mesh.n_nodes
        return sp.csr_matrix((summed, self.pair_indices, self.pair_indptr),
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


def skeleton_of(A):
    """The workspace whose two-field skeleton stores the csr matrix A, or None.

    A matrix built on a skeleton (csr_scatter, or a new .data array with
    its index arrays) shares the skeleton's indptr array; scipy keeps
    that array as it is but may hand the matrix a view of the indices.
    """
    ws = _SKELETONS.get(id(A.indptr))
    return ws if ws is not None and ws.pair_indptr is A.indptr else None


def newton_slots(A):
    """Positions in A.data of the main diagonal and of offset N.

    A is a 2N x 2N csr matrix that stores both, like the two-field
    skeleton: the first array holds the slot of (i, i) for every row,
    the second that of (i, N + i) for the N theta rows. The storage and
    capacity terms of a Newton matrix are added there. Found once per
    mesh for the matrices on its skeleton.
    """
    ws = skeleton_of(A)
    if ws is not None and ws.diagonal_slots is not None:
        return ws.diagonal_slots
    n = A.shape[0]
    offset = A.indices - np.repeat(np.arange(n, dtype=A.indices.dtype),
                                   np.diff(A.indptr))
    slots = np.flatnonzero(offset == 0), np.flatnonzero(offset == n // 2)
    if ws is not None:
        ws.diagonal_slots = slots
    return slots


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


def assemble_system(mesh: Mesh, state: FieldState,
                    materials) -> CoupledSystem:
    """Conductivity blocks and lumped storage at the given state.

    materials maps phase names to objects with coefficients(theta, phi).
    The external flux vector is zero: boundary data enter as Dirichlet
    values through the constraint map.
    """
    if state.n_nodes != mesh.n_nodes:
        raise FemError("state length does not match the mesh")
    return coupled_system(mesh, evaluate_coefficients(mesh, state, materials))


def coupled_system(mesh: Mesh, coeff: CoefficientSet) -> CoupledSystem:
    """Conductivity and lumped storage of given per-element coefficients,
    with zero external fluxes."""
    ws = workspace(mesh)
    K = ws.csr_scatter([[k[:, None, None] * ws.pattern for k in row]
                        for row in ((coeff.k_tt, coeff.k_tf),
                                    (coeff.k_ft, coeff.k_ff))])
    # f before the lumped diagonals: on a large wall this allocation
    # order keeps the peak memory of the later factorization lower
    f = np.zeros(2 * mesh.n_nodes)
    return CoupledSystem(K, ws.lumped(coeff.c_tt), ws.lumped(coeff.c_ff), f,
                         coeff)


def capacity_jacobian_diagonals(mesh: Mesh, state: FieldState, materials):
    """Lumped humidity derivatives of the two storage diagonals.

    Returns nodal arrays (d c_tt / d phi, d c_ff / d phi) lumped like
    the storage itself. They feed the Newton Jacobian of the transient
    step; without them a steep sorption isotherm makes the frozen
    coefficient iteration oscillate near convergence. Newton keeps this
    lumped form, exact only for uniform directions, rather than the
    consistent state_jacobian: the consistent terms fill the exact zeros
    of the skeleton, and on a large wall the bigger factors cost more
    time than the few Newton iterations they save.
    """
    dtt, dff = _per_phase(
        mesh, state, materials,
        lambda material, theta, phi: material.storage_derivatives(theta, phi), 2)
    ws = workspace(mesh)
    return ws.lumped(dtt), ws.lumped(dff)


def coefficient_derivatives(mesh: Mesh, state: FieldState, materials):
    """Per-element state derivatives of the coefficients at centroid states.

    Returns (dk, dc): dk[a, b, c] = d k_ab / d u_c, shape (2, 2, 2, M),
    and dc[a] = d c_aa / d phi, shape (2, M), for the fields a, b, c of
    (theta, phi).
    """

    def evaluate(material, theta, phi):
        d_theta, d_phi = material.conduction_derivatives(theta, phi)
        return [*d_theta, *d_phi, *material.storage_derivatives(theta, phi)]

    out = np.array(_per_phase(mesh, state, materials, evaluate, 10))
    return np.moveaxis(out[:8].reshape(2, 2, 2, -1), 0, 2), out[8:]


def state_jacobian(mesh: Mesh, u, rate, derivatives) -> sp.csr_matrix:
    """State dependence of the Crank-Nicolson residual at u, 2N x 2N csr.

    The part of dR/du beyond K(u)/2 + C(u)/dt: half the derivative of
    K(u) v at v = u, whose element block is (1/3) sum_b dk_ab/du_c
    (S_e u_b)_i / 2 with the scalar stiffness S_e, plus the
    element-consistent dC(u)/du rate, A_e/9 dc_aa/dphi rate_a,i in the
    phi columns. The coefficients live at the element centroids, so
    every block is constant along j. `derivatives` is (dk, dc) of
    coefficient_derivatives at u.
    """
    ws = workspace(mesh)
    tris = mesh.triangles
    n = mesh.n_nodes
    dk, dc = derivatives
    su = [np.einsum("mij,mj->mi", ws.pattern, u[f * n:(f + 1) * n][tris])
          for f in (0, 1)]
    data = []
    for a in (0, 1):
        blocks = [(dk[a, 0, c][:, None] * su[0]
                   + dk[a, 1, c][:, None] * su[1]) / 6.0 for c in (0, 1)]
        blocks[1] += (ws.areas * dc[a] / 9.0)[:, None] \
            * rate[a * n:(a + 1) * n][tris]
        data.append([np.broadcast_to(b[:, :, None], b.shape + (3,))
                     for b in blocks])
    return ws.csr_scatter(data)


# ---------------------------------------------------------- constraints


class SystemPlan:
    """Ordering and gather map of one bordered-system pattern.

    The pattern is that of ConstraintMap.reduce_matrix: the stored
    nonzero entries of a csr matrix A (given by its indptr, indices and
    the mask `keep` of its nonzero entries) on the rows and columns that
    stay in the system, and the border. The plan depends on nothing
    else, so every matrix of one pattern is ordered and summed alike.

    order[i] is the position, in the planned system, of row and column
    i of the map's numbering (ConstraintMap.rows). It is SuperLU's
    minimum degree ordering on S + S', with its elimination-tree
    postorder, of a diagonally dominant stand-in S that has the
    system's pattern and a full diagonal: incomplete factors with
    everything dropped yield it without a factorization of the system.
    That call takes the unrelaxed supernodes and one-column panels of
    solver.factorize: they leave the ordering as it is and make the
    incomplete factorization cheaper.
    The system is stored as CSC in that order (indptr, indices). slots
    gives the data slot of every entry of A, or nnz for an entry the
    system drops; border_cols and border_rows are the slots of the
    border's entries in the constraint columns and rows.
    """

    def __init__(self, indptr, indices, keep, cmap: "ConstraintMap"):
        n, m, G = cmap.size, cmap.row_dofs.size, cmap.border
        r = cmap.rows[np.repeat(np.arange(indptr.size - 1, dtype=np.int32),
                                np.diff(indptr))]
        c = cmap.rows[indices]
        keep = keep & (r >= 0) & (c >= 0)
        k = (m + G.col).astype(np.int32)
        r = np.concatenate([r[keep], G.row, k])
        c = np.concatenate([c[keep], k, G.row])
        # column-major keys in the map's numbering; merging equal keys
        # sums the periodic slaves onto their masters
        keys, entry = np.unique(c.astype(np.int64) * n + r,
                                return_inverse=True)
        del r, c
        # the stand-in adds the diagonal keys the system lacks, in order
        diag = np.arange(n, dtype=np.int64) * (n + 1)
        at = np.searchsorted(keys, diag)
        missing = keys[np.minimum(at, keys.size - 1)] != diag
        s_col, s_row = np.divmod(np.insert(keys, at[missing], diag[missing]), n)
        del diag, at, missing
        S = sp.csc_matrix(
            (np.where(s_row == s_col, float(n), 1.0), s_row.astype(np.int32),
             np.concatenate([[0], np.cumsum(np.bincount(s_col, minlength=n))])
             .astype(np.int32)), shape=(n, n))
        del s_col, s_row
        self.order = spla.spilu(S, permc_spec="MMD_AT_PLUS_A", drop_tol=1.0,
                                fill_factor=1, relax=1,
                                panel_size=1).perm_c.astype(np.int32)
        del S
        col, row = np.divmod(keys, n)
        del keys
        row, col = self.order[row], self.order[col]
        sort = np.argsort(col.astype(np.int64) * n + row)
        self.nnz = sort.size
        self.indices = row[sort]
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(col, minlength=n))]).astype(np.int32)
        del row, col
        slot = np.empty(self.nnz, dtype=np.int32)
        slot[sort] = np.arange(self.nnz, dtype=np.int32)
        del sort
        slot = slot[entry]
        del entry
        kept = np.count_nonzero(keep)
        self.slots = np.full(keep.size, self.nnz, dtype=np.int32)
        self.slots[keep] = slot[:kept]
        self.border_cols = slot[kept:kept + G.nnz]
        self.border_rows = slot[kept + G.nnz:]


class ConstraintMap:
    """Affine constraints u = T z + g on the free unknowns z, and the
    linear systems that solve for them.

    free_index gives, for every reduced unknown, the full dof it
    coincides with (every free dof appears identically in u), so the
    reduced start vector for an admissible u is simply (u - g)[free_index].
    Residuals reduce as T'R.

    Matrices are not reduced by the congruence T'AT. Each full dof has a
    row of the linear system, rows[dof] (-1 for a prescribed dof), and
    row i stands for the dof row_dofs[i]. reduce_matrix sums A onto
    those rows and columns, P'AP for the injection P of the system
    unknowns, and borders it with one column and one row per linear
    constraint G'y = 0 on them (`border` holds G as a coo matrix):

        [ P'AP  -G ] [y]   [c]
        [  G'    0 ] [l] = [0]

    A Dirichlet map has P = T and no border. A periodic map ties every
    slave to its master in P, and its G holds the weights of the
    zero-mean constraints; T eliminates those through an anchor dof
    (T = PQ), which would make T'AT dense, while the bordered matrix
    keeps the sparsity of A. The reduced unknowns sit at the rows
    z_rows = rows[free_index]: with c = b there and zero elsewhere,
    y[z_rows] solves T'AT z = b.

    That numbering is the map's. The system reduce_matrix returns is
    stored in the order of its pattern's plan (see plan): unknown i of
    the map's numbering is unknown plan.order[i] there, so its reduced
    unknowns sit at plan.order[z_rows].
    """

    def __init__(self, T: sp.csr_matrix, g: np.ndarray, free_index: np.ndarray,
                 rows: np.ndarray, row_dofs: np.ndarray, border=None):
        self.T = T.tocsr()
        # a csc view sharing T's arrays, built once instead of per residual
        self.Tt = self.T.T
        self.g = np.asarray(g, dtype=float)
        self.free_index = np.asarray(free_index, dtype=np.int64)
        self.n_free = self.T.shape[1]
        self.rows = np.asarray(rows, dtype=np.int32)
        self.row_dofs = np.asarray(row_dofs, dtype=np.int64)
        m = self.row_dofs.size
        self.border = sp.coo_matrix((m, 0)) if border is None else border
        self.z_rows = self.rows[self.free_index]
        self.size = m + self.border.shape[1]

    @cached_property
    def _pattern_key(self):
        """What of this map a plan depends on, as bytes, built once per map."""
        G = self.border
        return (self.size, self.rows.tobytes(), G.row.tobytes(),
                G.col.tobytes())

    def plan(self, A) -> SystemPlan:
        """The SystemPlan of A's pattern under these constraints.

        Stored zeros of A are not part of the pattern. For a matrix on a
        mesh's skeleton the plan is computed once and kept with the
        mesh's workspace; any other matrix gets a fresh one, equal to
        what a cached plan of the same pattern would be.
        """
        A = A.tocsr()
        keep = A.data != 0
        ws = skeleton_of(A)
        if ws is None:
            return SystemPlan(A.indptr, A.indices, keep, self)
        key = (self._pattern_key, np.packbits(keep).tobytes())
        plan = ws.plans.get(key)
        if plan is None:
            plan = ws.plans[key] = SystemPlan(A.indptr, A.indices, keep, self)
        return plan

    def reduce_matrix(self, A, weights=None, plan=None) -> sp.csc_matrix:
        """Bordered system matrix of A; `weights` scales the rows of P'AP.

        The result is CSC in the order of `plan`, self.plan(A) unless
        the caller has it already, gathered from A.data by one bincount.
        Stored zeros of A are skipped. The two-field skeleton keeps the
        exact zeros of P1 stiffness on right-triangle grids, and so do
        the Newton matrices built on it; carried into the bordered
        matrix, they would only add entries and fill to its LU.
        """
        A = A.tocsr()
        plan = self.plan(A) if plan is None else plan
        m, G = self.row_dofs.size, self.border
        weights = np.ones(m) if weights is None else weights
        # a constraint row's scale leaves the solution unchanged. Far
        # below every diagonal entry, it never decides a pivot: the
        # factorization (solver.factorize) keeps a diagonal pivot above
        # 1 % of its column's largest entry, and a constraint row taken
        # as an early pivot would spread its full row through the factors
        diag = np.abs(A.diagonal()[self.row_dofs] * weights)
        tiny = 2.0 ** -30 * diag.min(initial=np.inf)
        data = np.bincount(plan.slots, weights=A.data,
                           minlength=plan.nnz + 1)[:plan.nnz]
        data[plan.border_cols] = -G.data
        # the weights scale the rows of P'AP, constraint columns
        # included, and every slot lies in one row: scaling the sums
        # equals scaling the terms up to rounding
        scale = np.ones(self.size)
        scale[plan.order[:m]] = weights
        data *= scale[plan.indices]
        data[plan.border_rows] = tiny * G.data
        return sp.csc_matrix((data, plan.indices, plan.indptr),
                             shape=(self.size, self.size))

    def reduce_vector(self, r):
        return self.Tt @ r

    def expand(self, z):
        return self.T @ z + self.g

    def initial_reduced(self, u):
        return (u - self.g)[self.free_index]

    def newton_system(self, J, C):
        """Storage-scaled Newton matrix of J and the matching residual map.

        Every row is divided by the storage C at its dof, so heat and
        moisture rows are measured in comparable rate units; the Newton
        direction is unchanged, only the convergence norm and pivoting
        see it. Returns (matrix, scaled, rows): the planned system,
        scaled(R) = w * T'R, the reduced residual in the same row
        scaling, and the positions of the reduced unknowns in the
        matrix's order.
        """
        plan = self.plan(J)
        w = 1.0 / np.maximum(C[self.row_dofs], 1e-300)
        w_z = w[self.z_rows]
        return (self.reduce_matrix(J, w, plan),
                lambda R: w_z * self.reduce_vector(R),
                plan.order[self.z_rows])


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
    rows = np.full(n_dofs, -1, dtype=np.int64)
    rows[free] = np.arange(free.size)
    return ConstraintMap(T, g, free, rows, free)


class PeriodicReduction:
    """Loading-independent part of the periodic-affine constraints.

    Fluctuations are periodic (slave equals master) with a weighted
    zero mean per field, anchoring the cell average of each total field
    to its macro value. The reduced unknowns are the masters except one
    anchor per field, whose value balances the lumped-area average.
    Linear systems run on all masters, bordered by the two mean
    constraints (see ConstraintMap), so they stay as sparse as the cell
    stiffness.
    """

    def __init__(self, mesh: Mesh, pairing: PeriodicPairing):
        self.mesh = mesh
        self.pairing = pairing
        n = mesh.n_nodes
        master_of = np.arange(n)
        master_of[pairing.slaves] = pairing.masters
        if np.any(master_of[master_of] != master_of):
            raise FemError("chained periodic constraints are not supported")
        masters = np.nonzero(master_of == np.arange(n))[0]
        row_of = np.searchsorted(masters, master_of)
        # group weight: own lumped area plus that of all slaves
        gw = np.bincount(row_of, weights=workspace(mesh).node_areas,
                         minlength=masters.size)
        # the anchor is the first master, system row 0
        k = masters.size - 1
        anchored = np.nonzero(row_of == 0)[0]
        others = np.nonzero(row_of != 0)[0]
        T_field = sp.csr_matrix(
            (np.concatenate([np.tile(-gw[1:] / gw[0], anchored.size),
                             np.ones(others.size)]),
             (np.concatenate([np.repeat(anchored, k), others]),
              np.concatenate([np.tile(np.arange(k), anchored.size),
                              row_of[others] - 1]))),
            shape=(n, k))
        # two-field block maps [theta; phi]
        m = masters.size
        self.T = sp.block_diag([T_field, T_field], format="csr")
        self.free_index = np.concatenate([masters[1:], n + masters[1:]])
        self.rows = np.concatenate([row_of, m + row_of])
        self.row_dofs = np.concatenate([masters, n + masters])
        self.border = sp.coo_matrix(
            (np.concatenate([gw, gw]),
             (np.arange(2 * m), np.repeat([0, 1], m))), shape=(2 * m, 2))
        self.x0 = mesh.center()

    def affine(self, value_theta, value_phi, grad_theta, grad_phi):
        """Nodal field-major vector of the macro (affine) part."""
        rel = self.mesh.nodes - self.x0
        return np.concatenate([value_theta + rel @ np.asarray(grad_theta, dtype=float),
                               value_phi + rel @ np.asarray(grad_phi, dtype=float)])

    def map_for(self, value_theta, value_phi, grad_theta,
                grad_phi) -> ConstraintMap:
        g = self.affine(value_theta, value_phi, grad_theta, grad_phi)
        return ConstraintMap(self.T, g, self.free_index, self.rows,
                             self.row_dofs, self.border)
