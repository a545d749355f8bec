"""P1 finite elements for the coupled two-field diffusion system.

Global unknowns are arranged field-major, u = [theta_0..theta_N-1,
phi_0..phi_N-1]; element matrices follow the same ordering with 6 dofs
per triangle. Conductivity uses one-point (centroid) integration,
storage is lumped row-sum, i.e. area/3 per node and field.

Every coupled operator on a mesh, the conductivity K of the fine and
cell solves, the consistent cell Jacobian and the macro Jacobian of
FE2, is assembled into one fixed 2N x 2N skeleton per mesh: the four
blocks [[tt, tf], [ft, ff]] each carry the one-field P1 pattern, and
every node's own entry is stored in all four, so the Crank-Nicolson
storage terms are added in place on the main diagonal and on offset N.
The pattern keeps the exact zeros that P1 stiffness has on
right-triangle grids.

Materials are evaluated at the element centroids, all KunzelMaterial
phases of a mesh in one call. The workspace keeps element operators
over its precomputed geometry: K's four blocks are one product of the
stiffness operator (one-field slots x elements) with the (M, 4)
conductivities, and the cell tangent takes the element means and
gradients of its sensitivities from the element operator.

The index arrays of a skeleton, its diagonal slots and the plans of its
bordered systems live with the mesh's workspace, and the values of a
matrix on it in a SkeletonMatrix, the one matrix type on a mesh, which
is no scipy object. The Newton solvers assemble and multiply such
matrices on every residual evaluation and reduce them for every
factorization: a product runs scipy's compiled csr product on the
workspace's own csr matrix of the skeleton, and a reduction gathers the
values straight into the planned bordered system. The one scipy matrix
built per Newton system is that bordered system, the input of its
factorization.

Boundary data enter as Dirichlet values only; no assembly adds an edge
flux, so a system has no external flux vector. Constraints
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

import copy
import weakref
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constitutive import CoefficientSet, KunzelMaterial
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

    conductivity holds the values of the field-major conductivity on
    the mesh's two-field skeleton, a SkeletonMatrix; the solvers
    multiply and reduce it as it is. c_tt/c_ff are the lumped storage
    diagonals, coeff the per-element coefficients they were built from.
    """

    conductivity: "SkeletonMatrix"
    c_tt: np.ndarray
    c_ff: np.ndarray
    coeff: CoefficientSet = None

    def stiffness(self) -> "SkeletonMatrix":
        """The conductivity, for the benchmark's residual check; the
        benchmark's change of ROADMAP item 1 deletes it."""
        return self.conductivity

    @property
    def f(self):
        """A zero external flux vector of length 2N (see the module
        notes), for the benchmark's residual check; the benchmark's
        change of ROADMAP item 1 deletes it."""
        return np.zeros(2 * self.c_tt.size)

    def storage_diagonal(self):
        return np.concatenate([self.c_tt, self.c_ff])


# ------------------------------------------------- per-mesh workspace

_WORKSPACES: "weakref.WeakKeyDictionary[Mesh, Workspace]" = weakref.WeakKeyDictionary()


class Workspace:
    """Geometry factors and scatter indices precomputed once per mesh.

    csr_pos maps every element entry to its slot in the one-field csr
    pattern (csr_indices, csr_indptr, csr_nnz slots). Each row of the
    two-field skeleton (pair_indices, pair_indptr) holds the one-field
    row of its left block, then that of its right block; pair_slots[b]
    places the slots of block b = 2 * row field + column field there.
    diagonal_slots holds the skeleton's slots of the main diagonal, for
    every row in order, and of offset N, the (i, N + i) entry of every
    theta row: the storage and capacity terms of a Newton matrix are
    added there. plans holds the SystemPlan of every bordered-system
    pattern met on that skeleton (see ConstraintMap.plan).

    Two element operators act on the geometry. stiffness_operator is
    the csc matrix (one-field slots x elements) whose column m holds
    element m's scalar stiffness on its slots; its data is pattern and
    its indices csr_pos, both shared. Times the (M, 4) conductivities
    it sums the four blocks of K over their slots in scatter's order.
    element_operator (3M x N, built on first use, as only cell tangents
    need it) maps a nodal field to its element means and x and y
    gradients.
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
        # int32, as scipy keeps the index arrays the operator shares
        pos = np.empty(order.size, dtype=np.int32)
        pos[order] = slots
        self.csr_pos = pos
        m = mesh.n_triangles
        self.stiffness_operator = sp.csc_matrix(
            (self.pattern.reshape(-1), pos,
             np.arange(0, 9 * m + 1, 9, dtype=np.int32)),
            shape=(self.csr_nnz, m))
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
        # each node's own one-field slot, in its tt, ff and tf blocks
        own = np.full(mesh.n_nodes, -1, dtype=np.int64)
        on_diagonal = self.rows == self.cols
        own[self.rows[on_diagonal]] = pos[on_diagonal]
        if np.any(own < 0):
            raise FemError("mesh has nodes that belong to no triangle")
        self.diagonal_slots = (np.concatenate([self.pair_slots[0][own],
                                               self.pair_slots[3][own]]),
                               self.pair_slots[1][own])
        self.plans = {}
        # the csr matrix that multiplies every SkeletonMatrix of this
        # skeleton; it holds values only during a product and is never
        # handed out
        n = 2 * mesh.n_nodes
        self._product = sp.csr_matrix(
            (np.zeros(4 * nnz), self.pair_indices, self.pair_indptr),
            shape=(n, n))
        self._product.data = None

    def scatter(self, data):
        """SkeletonMatrix of (2, 2, M, 3, 3) element entries.

        data[a][b][m, i, j] couples field a at the i-th node of element
        m to field b at its j-th node; a 2 x 2 nested list of (M, 3, 3)
        blocks spares a large system one array four blocks in size.
        Each block is summed over its one-field slots by one bincount
        and placed into the skeleton, so every matrix of a mesh shares
        the order of its values.
        """
        nnz = self.csr_nnz
        summed = np.empty(4 * nnz)
        for slots, block in zip(self.pair_slots, [b for r in data for b in r]):
            summed[slots] = np.bincount(self.csr_pos, weights=np.ravel(block),
                                        minlength=nnz)
        return SkeletonMatrix(self, summed)

    @cached_property
    def element_operator(self):
        """csr (3M x N): rows m, M + m and 2M + m give the mean, x and y
        gradient of a nodal field on element m."""
        m, tris = self.mesh.n_triangles, self.mesh.triangles
        data = np.concatenate([np.full(3 * m, 1.0 / 3.0),
                               self.grads[:, :, 0].ravel(),
                               self.grads[:, :, 1].ravel()])
        return sp.csr_matrix(
            (data, np.tile(tris.ravel(), 3).astype(np.int32),
             np.arange(0, 9 * m + 1, 3, dtype=np.int32)),
            shape=(3 * m, self.mesh.n_nodes))

    def lumped(self, vals):
        """Row-sum lumped nodal diagonal of per-element densities, (N,)."""
        # bincount adds each node's terms in index order, so the sums
        # are those of np.add.at bit for bit
        return np.bincount(self.mesh.triangles.ravel(),
                           weights=np.repeat(vals * self.areas / 3.0, 3),
                           minlength=self.mesh.n_nodes)

    def element_gradient(self, nodal):
        """Constant per-element gradient of a nodal field, (M, 2)."""
        return np.einsum("mid,mi->md", self.grads, nodal[self.mesh.triangles])

    def element_mean(self, nodal):
        # what .mean(axis=1) computes, without its Python wrapper
        return nodal[self.mesh.triangles].sum(axis=1) / 3.0

    def scatter_gradient_pairing(self, vec):
        """Nodal vector b with b_i = sum_e A_e grad N_i . vec_e."""
        contrib = np.einsum("mid,md->mi", self.grads, vec) * self.areas[:, None]
        return np.bincount(self.mesh.triangles.ravel(),
                           weights=contrib.ravel(),
                           minlength=self.mesh.n_nodes)


class SkeletonMatrix:
    """The values of a 2N x 2N matrix on a mesh's two-field skeleton.

    data follows the slots of the skeleton, whose index arrays the
    workspace holds; a SkeletonMatrix is not a scipy matrix and builds
    none. `A @ x` runs scipy's csr product on the workspace's own csr
    matrix of the skeleton, `s * A` scales the values into a new
    SkeletonMatrix, and ConstraintMap plans and reduces it. tocsr()
    builds the csr matrix of the skeleton, sharing data and the index
    arrays, for a caller that compares against scipy.
    """

    def __init__(self, workspace: "Workspace", data):
        self.workspace = workspace
        self.data = data

    @property
    def shape(self):
        n = 2 * self.workspace.mesh.n_nodes
        return n, n

    def __matmul__(self, x):
        A = self.workspace._product
        A.data = self.data
        try:
            return A @ x
        finally:
            A.data = None

    def __rmul__(self, scalar):
        return SkeletonMatrix(self.workspace, scalar * self.data)

    def diagonal(self):
        return self.data[self.workspace.diagonal_slots[0]]

    def tocsr(self) -> sp.csr_matrix:
        ws = self.workspace
        return sp.csr_matrix((self.data, ws.pair_indices, ws.pair_indptr),
                             shape=self.shape)


def workspace(mesh: Mesh) -> Workspace:
    ws = _WORKSPACES.get(mesh)
    if ws is None:
        ws = Workspace(mesh)
        _WORKSPACES[mesh] = ws
    return ws


# ------------------------------------------------------------ assembly


def _per_phase(mesh: Mesh, state: FieldState, materials, evaluate, n_out):
    """n_out per-element arrays of evaluate(material, theta_c, phi_c) at
    centroid states: one call for all KunzelMaterial phases together
    (KunzelMaterial.over_elements), one for each other phase."""
    ws = workspace(mesh)
    th_c = ws.element_mean(state.theta)
    ph_c = ws.element_mean(state.phi)
    kunzel = [None] * len(mesh.phase_names)
    groups = []
    for pid, name in enumerate(mesh.phase_names):
        idx = ws.phase_elements[pid]
        if idx.size == 0:
            continue
        if name not in materials:
            raise FemError(f"mesh phase '{name}' missing from the material set")
        if isinstance(materials[name], KunzelMaterial):
            kunzel[pid] = materials[name]
        else:
            groups.append((materials[name], idx))
    if not groups:
        # every element is Kunzel: evaluate in element order, no scatter
        return list(evaluate(KunzelMaterial.over_elements(kunzel, mesh.phases),
                             th_c, ph_c))
    if any(m is not None for m in kunzel):
        idx = np.concatenate([ws.phase_elements[pid]
                              for pid, m in enumerate(kunzel) if m is not None])
        groups.append((KunzelMaterial.over_elements(kunzel, mesh.phases[idx]),
                       idx))
    out = [np.empty(mesh.n_triangles) for _ in range(n_out)]
    for material, idx in groups:
        for arr, vals in zip(out, evaluate(material, th_c[idx], ph_c[idx])):
            arr[idx] = vals
    return out


_COEFFICIENTS = tuple(f.name for f in fields(CoefficientSet))


def evaluate_coefficients(mesh: Mesh, state: FieldState, materials) -> CoefficientSet:
    """Per-element CoefficientSet at centroid states (see _per_phase)."""

    def evaluate(material, theta, phi):
        c = material.coefficients(theta, phi)
        return [getattr(c, name) for name in _COEFFICIENTS]

    return CoefficientSet(*_per_phase(mesh, state, materials, evaluate,
                                      len(_COEFFICIENTS)))


def assemble_system(mesh: Mesh, state: FieldState,
                    materials) -> CoupledSystem:
    """Conductivity blocks and lumped storage at the given state.

    materials maps phase names to objects with coefficients(theta, phi).
    No external flux is assembled: boundary data enter as Dirichlet
    values through the constraint map.
    """
    if state.n_nodes != mesh.n_nodes:
        raise FemError("state length does not match the mesh")
    return coupled_system(mesh, evaluate_coefficients(mesh, state, materials))


def coupled_system(mesh: Mesh, coeff: CoefficientSet) -> CoupledSystem:
    """Conductivity and lumped storage of given per-element coefficients.

    The four blocks of K are one product of the workspace's
    stiffness_operator with the (M, 4) conductivities, the bits of
    scatter on k_ab times the scalar stiffness.
    """
    ws = workspace(mesh)
    blocks = ws.stiffness_operator @ np.array(
        [coeff.k_tt, coeff.k_tf, coeff.k_ft, coeff.k_ff]).T
    K = np.empty(4 * ws.csr_nnz)
    K[ws.pair_slots] = blocks.T
    return CoupledSystem(SkeletonMatrix(ws, K), ws.lumped(coeff.c_tt),
                         ws.lumped(coeff.c_ff), coeff)


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


def state_jacobian(mesh: Mesh, u, rate, derivatives) -> SkeletonMatrix:
    """State dependence of the Crank-Nicolson residual at u, on the skeleton.

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
    return ws.scatter(data)


# ---------------------------------------------------------- constraints


class SystemPlan:
    """Ordering and gather map of one bordered-system pattern.

    The pattern is that of ConstraintMap.reduce_matrix: the stored
    nonzero entries of a matrix A on a skeleton (given by the skeleton's
    indptr and indices and the mask `keep` of A's nonzero entries) on
    the rows and columns that stay in the system, and the border. The
    plan depends on nothing else, so every matrix of one pattern is
    ordered and summed alike.

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
        G = self.border
        # what of this map a plan depends on, as bytes
        self._pattern_key = (self.size, self.rows.tobytes(),
                             G.row.tobytes(), G.col.tobytes())

    def plan(self, A: SkeletonMatrix) -> SystemPlan:
        """The SystemPlan of A's pattern under these constraints.

        Stored zeros of A are not part of the pattern. The plan of a
        pattern is computed once and kept with A's workspace.
        """
        keep = A.data != 0
        ws = A.workspace
        key = (self._pattern_key, np.packbits(keep).tobytes())
        plan = ws.plans.get(key)
        if plan is None:
            plan = ws.plans[key] = SystemPlan(ws.pair_indptr, ws.pair_indices,
                                              keep, self)
        return plan

    def reduce_matrix(self, A: SkeletonMatrix, weights=None,
                      plan=None) -> sp.csc_matrix:
        """Bordered system matrix of A; `weights` scales the rows of P'AP.

        The result is CSC in the order of `plan`, self.plan(A) unless
        the caller has it already, gathered from A.data by one bincount;
        it is the one scipy matrix a Newton system builds. Stored zeros
        of A are skipped. The two-field skeleton keeps the exact zeros
        of P1 stiffness on right-triangle grids, and so do the Newton
        matrices built on it; carried into the bordered matrix, they
        would only add entries and fill to its LU.
        """
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

    def newton_weights(self, C):
        """Row weights of the storage-scaled Newton systems, 1 / C at the
        dof of every system row.

        Every row is divided by the storage C at its dof, so heat and
        moisture rows are measured in comparable rate units; the Newton
        direction is unchanged, only the convergence norm and pivoting
        see it.
        """
        return 1.0 / np.maximum(C[self.row_dofs], 1e-300)

    def scaled_residual(self, R, C):
        """w * T'R: the reduced residual in the Newton rows' scaling."""
        return self.newton_weights(C)[self.z_rows] * self.reduce_vector(R)

    def newton_system(self, J, C):
        """Storage-scaled Newton matrix of J, and where z sits in it.

        Returns (matrix, rows): the planned system of J with its rows
        scaled by newton_weights(C), and the positions of the reduced
        unknowns in the matrix's order. With scaled_residual(R, C) as
        its right-hand side on those rows, and zero on the others, it
        solves for the Newton update of z.
        """
        plan = self.plan(J)
        return (self.reduce_matrix(J, self.newton_weights(C), plan),
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
        # node positions relative to x0, the gradient part of dg/dp
        self.offsets = mesh.nodes - self.x0
        # every loading's map shares T, T' and the plan key of this one
        self._map = ConstraintMap(self.T, np.zeros(2 * n), self.free_index,
                                  self.rows, self.row_dofs, self.border)

    def affine(self, value_theta, value_phi, grad_theta, grad_phi):
        """Nodal field-major vector of the macro (affine) part."""
        rel = self.offsets
        return np.concatenate([value_theta + rel @ np.asarray(grad_theta, dtype=float),
                               value_phi + rel @ np.asarray(grad_phi, dtype=float)])

    def map_for(self, value_theta, value_phi, grad_theta,
                grad_phi) -> ConstraintMap:
        cmap = copy.copy(self._map)
        cmap.g = self.affine(value_theta, value_phi, grad_theta, grad_phi)
        return cmap
