"""P1 finite elements for the coupled two-field diffusion system.

Global unknowns are arranged field-major, u = [theta_0..theta_N-1,
phi_0..phi_N-1]; element matrices follow the same ordering with 6 dofs
per triangle. Conductivity uses one-point (centroid) integration,
storage is lumped row-sum, i.e. area/3 per node and field.

Every coupled operator on a mesh, the conductivity K of the fine and
cell solves, the consistent cell Jacobian and the macro Jacobian of
FE2, is stored on one fixed skeleton per mesh: the one-field P1 csr
pattern, whose every slot holds a 2 x 2 node block [[tt, tf], [ft, ff]]
coupling the two fields of its row node to those of its column node.
Every node's own block is stored, so the Crank-Nicolson storage terms
are added in place on the main diagonal and on offset N. The pattern
keeps the exact zeros that P1 stiffness has on right-triangle grids.
The blocks are a block-sparse (bsr) matrix in node-interleaved order;
vectors and the solvers' dof numbering stay field-major.

Materials are evaluated at the element centroids, all KunzelMaterial
phases of a mesh in one call, once per state: a CoupledSystem keeps its
CentroidMaterials, which the capacity terms and the coefficient
derivatives of that state read. The workspace keeps element operators
over its precomputed geometry: K's node blocks are one product of the
stiffness operator (one-field slots x elements) with the (M, 4)
conductivities, element means and lumped storage are one product each
with a 0/1 operator, and the cell tangent takes the element means and
gradients of its sensitivities from the element operator. A workspace
holds only what every solve reads; the per-element geometry that only
cells and the FE2 macro step read (shape-function gradients, element
stiffness, the entry-to-slot map, the lumped node areas) is built on
first use, so a fine solve never holds it (see Workspace).

The index arrays of a skeleton, its diagonal slots and the plans of its
bordered systems live with the mesh's workspace, and the values of a
matrix on it in a SkeletonMatrix, the one matrix type on a mesh, which
is no scipy object. The Newton solvers assemble and multiply such
matrices on every residual evaluation and reduce them for every
factorization: the stiffness product writes K's blocks in the
skeleton's order, a product runs scipy's compiled bsr product on the
workspace's own bsr matrix of the skeleton, and a reduction gathers the
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
    """Assembled operators of the coupled system at one state.

    conductivity holds the node blocks of the conductivity on the
    mesh's skeleton, a SkeletonMatrix; the solvers
    multiply and reduce it as it is. c_tt/c_ff are the lumped storage
    diagonals, coeff the per-element coefficients of materials, the
    CentroidMaterials they were built from.
    """

    conductivity: "SkeletonMatrix"
    c_tt: np.ndarray
    c_ff: np.ndarray
    coeff: CoefficientSet = None
    materials: "CentroidMaterials" = None

    def stiffness(self) -> "SkeletonMatrix":
        """The conductivity, for the benchmark's residual check; the
        benchmark's change of ROADMAP item 12 deletes it."""
        return self.conductivity

    @property
    def f(self):
        """A zero external flux vector of length 2N (see the module
        notes), for the benchmark's residual check; the benchmark's
        change of ROADMAP item 12 deletes it."""
        return np.zeros(2 * self.c_tt.size)

    def storage_diagonal(self):
        return np.concatenate([self.c_tt, self.c_ff])

    def conduction(self, u):
        """The conduction term K u of the Crank-Nicolson residual at u."""
        return self.conductivity @ u

    def newton_matrix(self, dt, rate):
        """crank_nicolson_matrix of K and C; the humidity derivatives of C
        times `rate` enter the phi columns, on offset N in the theta
        rows and on the diagonal in the phi rows."""
        J = crank_nicolson_matrix(self.conductivity, self.storage_diagonal(),
                                  dt)
        diag, offset = J.workspace.diagonal_slots
        gtt, gff = capacity_jacobian_diagonals(self)
        n = gtt.size
        J.data[diag[n:]] += gff * rate[n:]
        J.data[offset] += gtt * rate[:n]
        return J


# ------------------------------------------------- per-mesh workspace

_WORKSPACES: "weakref.WeakKeyDictionary[Mesh, Workspace]" = weakref.WeakKeyDictionary()


class Workspace:
    """Geometry factors and the one-field pattern of one mesh.

    Every solve reads what the constructor builds, and nothing more:
    the element areas, the skeleton (csr_indices, csr_indptr, csr_nnz
    slots, diagonal_slots), stiffness_operator, the element-sum operator
    of element_mean and lumped, and phase_elements. They are built in
    linear passes: two stable counting sorts order the element entries.
    The rest is built on first use and then kept: grads and pattern,
    the shape-function gradients and the scalar element stiffness, which
    the cell tangent (state_jacobian, element_operator), cell averages
    and the FE2 macro step read; csr_pos, which scatter reads for the
    cell tangent and the macro step; node_areas, which the periodic cell
    constraints read. A fine solve builds none of them.

    The one-field csr pattern holds every two-field matrix on the mesh
    as 2 x 2 node blocks (see SkeletonMatrix): entry 4 s + 2 a + b
    couples field a of slot s's row node to field b of its column node.
    csr_pos maps every element entry 9 m + 3 i + j to its slot.
    diagonal_slots holds the entries of the main diagonal, for every
    field-major row in order, and of offset N, the (i, N + i) entry of
    every theta row: the storage and capacity terms of a Newton matrix
    are added there. plans holds the SystemPlan of every bordered-system
    pattern met on that skeleton (see ConstraintMap.plan).

    Element operators act on the geometry. stiffness_operator is the csr
    matrix (one-field slots x elements) whose row s holds, in element
    order, the scalar stiffness of every element on slot s. Times the
    (M, 4) conductivities it sums the four entries of every node block
    of K in scatter's order, and its (csr_nnz, 4) result is K's data as
    it stands. A 0/1 operator sums a nodal field over each element's
    nodes (element_mean); its transpose, a view of the same arrays, sums
    per-element values over each node's elements (lumped).
    element_operator (3M x N, built on first use, as only cell tangents
    need it) maps a nodal field to its element means and x and y
    gradients.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.areas = triangle_areas(mesh)          # (M,)
        if np.any(self.areas <= 0.0):
            raise FemError("mesh contains degenerate or inverted triangles")
        m, n = mesh.n_triangles, mesh.n_nodes
        # 0/1 csr operator of the sums over each element's nodes (M x N,
        # in the triangles' node order); its transpose, a csc view of the
        # same arrays, sums over each node's elements in element order
        self._element_sums = sp.csr_matrix(
            (np.ones(3 * m), mesh.triangles.ravel().astype(np.int32),
             np.arange(0, 3 * m + 1, 3, dtype=np.int32)),
            shape=(m, n))
        self._node_sums = self._element_sums.T
        # per-phase element index lists, fixed order
        self.phase_elements = [np.nonzero(mesh.phases == k)[0]
                               for k in range(len(mesh.phase_names))]
        # fixed csr pattern of the stiffness: every assembly reuses it,
        # turning the coo sort/dedup into one product. A slot starts at
        # each new row or column of the sorted entries
        order, cols, row_starts = self._entry_order()
        if np.any(np.diff(row_starts) == 0):
            raise FemError("mesh has nodes that belong to no triangle")
        fresh = np.empty(order.size, dtype=bool)
        fresh[0] = True
        np.not_equal(cols[1:], cols[:-1], out=fresh[1:])
        fresh[row_starts[:-1]] = True
        starts = np.flatnonzero(fresh)
        del fresh
        self.csr_indices = cols[starts]
        del cols
        self.csr_nnz = nnz = starts.size
        # each row's first entry starts a slot: the slot numbers of the
        # row starts
        self.csr_indptr = np.searchsorted(starts, row_starts).astype(np.int32)
        self.stiffness_operator = sp.csr_matrix(
            (_stiffness_pattern(*_shape_gradients(mesh, self.areas),
                                self.areas).reshape(-1)[order],
             order // 9, np.append(starts, order.size).astype(np.int32)),
            shape=(nnz, m))
        del order, starts
        # each node's own slot, one a row, whose tt, tf and ff entries are
        # 4 own, 4 own + 1 and 4 own + 3
        own = np.flatnonzero(
            np.repeat(np.arange(n, dtype=np.int32), np.diff(self.csr_indptr))
            == self.csr_indices)
        self.diagonal_slots = (np.concatenate([4 * own, 4 * own + 3]),
                               4 * own + 1)
        self.plans = {}
        # the bsr matrix that multiplies every SkeletonMatrix of this
        # mesh, in node-interleaved order; it holds values only during a
        # product and is never handed out
        self._product = sp.bsr_matrix(
            (np.zeros((nnz, 2, 2)), self.csr_indices, self.csr_indptr),
            shape=(2 * n, 2 * n))
        self._product.data = None

    def _entry_order(self):
        """(order, cols, row_starts): the element entries 9 m + 3 i + j
        (row node triangles[m, i], column node triangles[m, j]) sorted
        by row, then column, then element, the column node of each, and
        where each row's entries start in that order, N + 1 of them.

        Two stable counting sorts, each one scipy csr-to-csc pass: the
        first lists the corners of every node in element order, which
        orders the entries by column; the second, the csc form of the
        transposed pattern with its duplicates, sorts those by row.
        """
        m, n = self.mesh.n_triangles, self.mesh.n_nodes
        corners = self._element_sums.indices
        # entry 9 m + j of every corner (m, j), listed by its node
        by_col = sp.csr_matrix(
            ((np.arange(0, 9 * m, 9, dtype=np.int32)[:, None]
              + np.arange(3, dtype=np.int32)).ravel(), corners,
             self._element_sums.indptr), shape=(m, n)).tocsc()
        by_row = sp.csr_matrix(
            ((by_col.data[:, None]
              + np.arange(0, 9, 3, dtype=np.int32)).ravel(),
             corners.reshape(m, 3)[by_col.indices].ravel(),
             3 * by_col.indptr), shape=(n, n)).tocsc()
        return by_row.data, by_row.indices, by_row.indptr

    @cached_property
    def grads(self):
        """(M, 3, 2): grads[m, i, :] is the gradient of the i-th shape
        function on element m."""
        return np.stack(_shape_gradients(self.mesh, self.areas), axis=2)

    @cached_property
    def pattern(self):
        """(M, 3, 3) scalar stiffness, S_mij = area * grad N_i . grad N_j."""
        return _stiffness_pattern(*_shape_gradients(self.mesh, self.areas),
                                  self.areas)

    @cached_property
    def csr_pos(self):
        """(9M,) int32: the one-field slot of every element entry
        9 m + 3 i + j."""
        order = self._entry_order()[0]
        pos = np.empty(order.size, dtype=np.int32)
        pos[order] = np.repeat(np.arange(self.csr_nnz, dtype=np.int32),
                               np.diff(self.stiffness_operator.indptr))
        return pos

    @cached_property
    def node_areas(self):
        """Lumped nodal areas (row-sum mass with unit density), (N,)."""
        return self.lumped(np.ones(self.mesh.n_triangles))

    def scatter(self, data):
        """SkeletonMatrix of (2, 2, M, 3, 3) element entries.

        data[a][b][m, i, j] couples field a at the i-th node of element
        m to field b at its j-th node; a 2 x 2 nested list of (M, 3, 3)
        blocks spares a large system one array four blocks in size.
        Each block is summed over its one-field slots by one bincount
        into column 2 a + b of the (csr_nnz, 4) node blocks, so every
        matrix of a mesh shares the order of its values.
        """
        nnz = self.csr_nnz
        # bincount casts its indices to intp: cast once for the four
        # blocks, per call, since the fine wall never scatters and a copy
        # kept on the workspace would only add to its memory
        pos = self.csr_pos.astype(np.intp)
        summed = np.empty((nnz, 4))
        for k, block in enumerate([b for r in data for b in r]):
            summed[:, k] = np.bincount(pos, weights=np.ravel(block),
                                       minlength=nnz)
        return SkeletonMatrix(self, summed.reshape(-1))

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
        # each node sums its elements' terms in element order, so the
        # sums are those of np.add.at bit for bit
        return self._node_sums @ (vals * self.areas / 3.0)

    def element_gradient(self, nodal):
        """Constant per-element gradient of a nodal field, (M, 2)."""
        return np.einsum("mid,mi->md", self.grads, nodal[self.mesh.triangles])

    def element_mean(self, nodal):
        # what .mean(axis=1) computes: the sum of the three nodal
        # values in the triangle's order, divided by 3
        return self._element_sums @ nodal / 3.0

    def scatter_gradient_pairing(self, vec):
        """Nodal vector b with b_i = sum_e A_e grad N_i . vec_e."""
        contrib = np.einsum("mid,md->mi", self.grads, vec) * self.areas[:, None]
        return np.bincount(self.mesh.triangles.ravel(),
                           weights=contrib.ravel(),
                           minlength=self.mesh.n_nodes)


class SkeletonMatrix:
    """The values of a 2N x 2N matrix on a mesh's one-field pattern, as
    2 x 2 node blocks.

    data follows the slots of the workspace's csr pattern, four entries
    a slot: entry 4 s + 2 a + b couples field a of slot s's row node to
    field b of its column node, so data is the data of a block-sparse
    (bsr) matrix in node-interleaved order. A SkeletonMatrix is not a
    scipy matrix and builds none. `A @ x` takes a field-major x, a
    vector or a block of columns, and runs scipy's bsr product on the
    workspace's own bsr matrix; `s * A` scales the values into a new
    SkeletonMatrix, and ConstraintMap plans and reduces it.
    """

    def __init__(self, workspace: "Workspace", data):
        self.workspace = workspace
        self.data = data

    @property
    def shape(self):
        n = 2 * self.workspace.mesh.n_nodes
        return n, n

    def __matmul__(self, x):
        # field-major x to node-interleaved, and the product back
        n = self.workspace.mesh.n_nodes
        tail = x.shape[1:]
        A = self.workspace._product
        A.data = self.data.reshape(-1, 2, 2)
        try:
            y = A @ x.reshape((2, n) + tail).swapaxes(0, 1).reshape(x.shape)
        finally:
            A.data = None
        return y.reshape((n, 2) + tail).swapaxes(0, 1).reshape(x.shape)

    def __rmul__(self, scalar):
        return SkeletonMatrix(self.workspace, scalar * self.data)

    def diagonal(self):
        return self.data[self.workspace.diagonal_slots[0]]


def _shape_gradients(mesh: Mesh, areas):
    """(gx, gy), (M, 3) each: the x and y gradients of the three shape
    functions of every element, from per-corner coordinate gathers."""
    x, y = (mesh.nodes[:, d][mesh.triangles].T for d in (0, 1))
    inv2a = 1.0 / (2.0 * areas)
    return (np.stack([y[1] - y[2], y[2] - y[0], y[0] - y[1]], axis=1)
            * inv2a[:, None],
            np.stack([x[2] - x[1], x[0] - x[2], x[1] - x[0]], axis=1)
            * inv2a[:, None])


def _stiffness_pattern(gx, gy, areas):
    """(M, 3, 3) scalar stiffness, area * grad N_i . grad N_j."""
    return (gx[:, :, None] * gx[:, None, :]
            + gy[:, :, None] * gy[:, None, :]) * areas[:, None, None]


def _entry_dofs(ws: Workspace):
    """Field-major (row, column) dofs of every entry of the data of a
    SkeletonMatrix on ws, int32 arrays of 4 csr_nnz."""
    n = ws.mesh.n_nodes
    node_rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(ws.csr_indptr))
    shape = (ws.csr_nnz, 2, 2)
    field = np.array([0, n], dtype=np.int32)
    rows = np.broadcast_to((node_rows[:, None] + field)[:, :, None], shape)
    cols = np.broadcast_to((ws.csr_indices[:, None] + field)[:, None, :], shape)
    return rows.reshape(-1), cols.reshape(-1)


def workspace(mesh: Mesh) -> Workspace:
    ws = _WORKSPACES.get(mesh)
    if ws is None:
        ws = Workspace(mesh)
        _WORKSPACES[mesh] = ws
    return ws


# ------------------------------------------------------------ assembly


class CentroidMaterials:
    """The materials of a mesh at the element centroids of one state.

    theta and phi are the element means of the nodal fields. groups
    pairs each material with its elements: all KunzelMaterial phases
    form one material, gathered once by KunzelMaterial.over_elements
    (over every element in order when no other phase has any), and each
    other phase is its own. Each kernel runs once per group (_each).
    """

    def __init__(self, mesh: Mesh, theta, phi, materials):
        ws = workspace(mesh)
        self.theta, self.phi = ws.element_mean(theta), ws.element_mean(phi)
        kunzel = [None] * len(mesh.phase_names)
        self.groups = []
        for pid, name in enumerate(mesh.phase_names):
            idx = ws.phase_elements[pid]
            if idx.size == 0:
                continue
            if name not in materials:
                raise FemError(f"mesh phase '{name}' missing from the material set")
            if isinstance(materials[name], KunzelMaterial):
                kunzel[pid] = materials[name]
            else:
                self.groups.append((materials[name], idx))
        if any(m is not None for m in kunzel):
            # alone, the Kunzel group covers every element in order
            idx = slice(None) if not self.groups else np.concatenate(
                [ws.phase_elements[pid] for pid, m in enumerate(kunzel)
                 if m is not None])
            self.groups.append(
                (KunzelMaterial.over_elements(kunzel, mesh.phases[idx]), idx))

    def _each(self, kernel):
        """What every group's material.<kernel>(theta, phi) returns."""
        return [getattr(m, kernel)(self.theta[idx], self.phi[idx])
                for m, idx in self.groups]

    def _join(self, per_group):
        """Per-element arrays from the arrays of each group, in order."""
        if isinstance(self.groups[0][1], slice):
            return list(per_group[0])
        out = [np.empty(self.theta.size) for _ in per_group[0]]
        for (_, idx), arrays in zip(self.groups, per_group):
            for arr, vals in zip(out, arrays):
                arr[idx] = vals
        return out

    def coefficients(self) -> CoefficientSet:
        return CoefficientSet(*self._join(
            [[getattr(c, f.name) for f in fields(c)]
             for c in self._each("coefficients")]))

    def storage_derivatives(self):
        """[d c_tt / d phi, d c_ff / d phi] per element."""
        return self._join(self._each("storage_derivatives"))


def assemble_system(mesh: Mesh, state: FieldState,
                    materials) -> CoupledSystem:
    """Conductivity blocks and lumped storage at the given state.

    materials maps phase names to objects with coefficients(theta, phi).
    K's node blocks are one product of the workspace's stiffness_operator
    with the (M, 4) conductivities, the bits of scatter on k_ab times the
    scalar stiffness. No external flux is assembled: boundary data enter
    as Dirichlet values through the constraint map.
    """
    if state.n_nodes != mesh.n_nodes:
        raise FemError("state length does not match the mesh")
    ws = workspace(mesh)
    at = CentroidMaterials(mesh, state.theta, state.phi, materials)
    coeff = at.coefficients()
    K = ws.stiffness_operator @ np.stack(
        [coeff.k_tt, coeff.k_tf, coeff.k_ft, coeff.k_ff], axis=1)
    return CoupledSystem(SkeletonMatrix(ws, K.reshape(-1)),
                         ws.lumped(coeff.c_tt), ws.lumped(coeff.c_ff), coeff,
                         at)


def crank_nicolson_matrix(conduction: SkeletonMatrix, C, dt) -> SkeletonMatrix:
    """conduction/2 + C/dt, a new matrix: the one place where the scheme's
    weight 1/2 and storage diagonal C enter a Jacobian. `conduction`,
    the Jacobian of the conduction term, is K for the fine and cell
    Newton matrices, K + D (state_jacobian) for the cell tangent and the
    macro flux Jacobian for FE2; it is left as it is."""
    J = 0.5 * conduction
    J.data[J.workspace.diagonal_slots[0]] += C / dt
    return J


def capacity_jacobian_diagonals(sysm: CoupledSystem):
    """Lumped humidity derivatives of the two storage diagonals of sysm.

    Returns nodal arrays (d c_tt / d phi, d c_ff / d phi) lumped like
    the storage itself. They feed the Newton Jacobian of the transient
    step; without them a steep sorption isotherm makes the frozen
    coefficient iteration oscillate near convergence. Newton keeps this
    lumped form, exact only for uniform directions, rather than the
    consistent state_jacobian: the consistent terms fill the exact zeros
    of the skeleton, and on a large wall the bigger factors cost more
    time than the few Newton iterations they save.
    """
    lumped = sysm.conductivity.workspace.lumped
    return tuple(lumped(d) for d in sysm.materials.storage_derivatives())


def coefficient_derivatives(sysm: CoupledSystem):
    """Per-element state derivatives of the coefficients of sysm.

    Returns (dk, dc): dk[a, b, c] = d k_ab / d u_c, shape (2, 2, 2, M),
    and dc[a] = d c_aa / d phi, shape (2, M), for the fields a, b, c of
    (theta, phi).
    """
    at = sysm.materials
    dk = np.array(at._join([[*d_theta, *d_phi] for d_theta, d_phi
                            in at._each("conduction_derivatives")]))
    return (np.moveaxis(dk.reshape(2, 2, 2, -1), 0, 2),
            np.array(at.storage_derivatives()))


def state_jacobian(mesh: Mesh, u, rate, derivatives):
    """(D, S): the state dependence of the Crank-Nicolson residual at u
    beyond its frozen coefficients, on the skeleton.

    D, the derivative of K(u) v at v = u, makes K + D the Jacobian of
    the conduction term; its element block is (1/3) sum_b dk_ab/du_c
    (S_e u_b)_i with the scalar stiffness S_e. S, which no weight
    scales, is the element-consistent dC(u)/du rate, A_e/9 dc_aa/dphi
    rate_a,i in the phi columns. The coefficients live at the element
    centroids, so every block is constant along j. `derivatives` is
    (dk, dc) of coefficient_derivatives of the system at u.
    """
    ws = workspace(mesh)
    tris = mesh.triangles
    n = mesh.n_nodes
    dk, dc = derivatives
    su = [np.einsum("mij,mj->mi", ws.pattern, u[f * n:(f + 1) * n][tris])
          for f in (0, 1)]
    D = [[(dk[a, 0, c][:, None] * su[0] + dk[a, 1, c][:, None] * su[1]) / 3.0
          for c in (0, 1)] for a in (0, 1)]
    S = [[np.zeros(tris.shape), (ws.areas * dc[a] / 9.0)[:, None]
          * rate[a * n:(a + 1) * n][tris]] for a in (0, 1)]
    return tuple(ws.scatter([[np.broadcast_to(b[:, :, None], b.shape + (3,))
                              for b in row] for row in blocks])
                 for blocks in (D, S))


# ---------------------------------------------------------- constraints


class SystemPlan:
    """Ordering and gather map of one bordered-system pattern.

    The pattern is that of ConstraintMap.reduce_matrix: the stored
    nonzero entries of a matrix A (given by the field-major row and
    column dofs of every entry of A's data and the mask `keep` of A's
    nonzero entries) on the rows and columns that stay in the system,
    and the border. The plan depends on nothing else, so every matrix
    of one pattern is ordered and summed alike.

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
    border's entries in the constraint columns and rows. Every array of
    a plan owns its data: the border arrays are copies, not views that
    would keep the per-entry slot array of the plan's construction alive
    (empty for a Dirichlet map, which has no border).
    """

    def __init__(self, rows, cols, keep, cmap: "ConstraintMap"):
        n, m, G = cmap.size, cmap.row_dofs.size, cmap.border
        r, c = cmap.rows[rows], cmap.rows[cols]
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
        # copies, so that slot is freed (see the class notes)
        self.border_cols = slot[kept:kept + G.nnz].copy()
        self.border_rows = slot[kept + G.nnz:].copy()


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
            plan = ws.plans[key] = SystemPlan(*_entry_dofs(ws), keep, self)
        return plan

    def reduce_matrix(self, A: SkeletonMatrix, weights,
                      plan: SystemPlan) -> sp.csc_matrix:
        """Bordered system matrix of A; `weights` scales the rows of P'AP.

        The result is CSC in the order of `plan`, self.plan(A), gathered
        from A.data by one bincount; it is the one scipy matrix a Newton
        system builds. Stored zeros of A are skipped. The two-field
        skeleton keeps the exact zeros of P1 stiffness on right-triangle
        grids, and so do the Newton matrices built on it; carried into
        the bordered matrix, they would only add entries and fill to its
        LU.
        """
        m, G = self.row_dofs.size, self.border
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
        """(w T'R, w): the reduced residual in the Newton rows' scaling,
        and the weights w of z's rows. R may be a block of columns, each
        reduced and scaled as one residual."""
        w = self.newton_weights(C)[self.z_rows]
        return (w * self.reduce_vector(R).T).T, w

    def newton_system(self, J, C):
        """Storage-scaled Newton matrix of J, and where z sits in it.

        Returns (matrix, rows): the planned system of J with its rows
        scaled by newton_weights(C), and the positions of the reduced
        unknowns in the matrix's order. With scaled_residual(R, C)[0] as
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
