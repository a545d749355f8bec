"""Two dimensional triangle meshes for the macro domain and periodic cells.

Meshes are plain node/triangle arrays with a phase label per triangle
and named boundary edge sets. All generators produce structured
triangulations from sorted grid lines, which guarantees matching node
traces on opposite sides of a cell (a requirement for the periodic
pairing) and deterministic node numbering. Meshes are immutable; every
transformation returns a new object.

Text file format (line oriented, '#' starts a comment):

    nodes <N>
    <x> <y>              one line per node, ids implicit 0..N-1
    triangles <M>
    <i0> <i1> <i2>       one line per triangle, counterclockwise
    phases <M>
    <phase-name>         one line per triangle
    boundary <name> <K>  repeatable section
    <a> <b>              one edge per line, node ids

Sections appear in exactly this order; `boundary` sections may repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MeshError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Mesh:
    nodes: np.ndarray                # (N, 2) float
    triangles: np.ndarray            # (M, 3) int
    phases: np.ndarray               # (M,) int, index into phase_names
    phase_names: tuple
    boundary: dict                   # name -> (K, 2) int edge array
    bbox: tuple = field(default=None)  # (lx, ly) side lengths

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        tris = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        phases = np.ascontiguousarray(np.asarray(self.phases, dtype=np.int64))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "phase_names", tuple(self.phase_names))
        bnd = {k: np.ascontiguousarray(np.asarray(v, dtype=np.int64)).reshape(-1, 2)
               for k, v in self.boundary.items()}
        object.__setattr__(self, "boundary", bnd)
        if self.bbox is None:
            lo = nodes.min(axis=0)
            hi = nodes.max(axis=0)
            object.__setattr__(self, "bbox", (float(hi[0] - lo[0]), float(hi[1] - lo[1])))
        else:
            object.__setattr__(self, "bbox", (float(self.bbox[0]), float(self.bbox[1])))
        for arr in (nodes, tris, phases, *bnd.values()):
            arr.flags.writeable = False

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    def extent(self):
        lo = self.nodes.min(axis=0)
        hi = self.nodes.max(axis=0)
        return float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1])

    def center(self):
        x0, x1, y0, y1 = self.extent()
        return np.array([0.5 * (x0 + x1), 0.5 * (y0 + y1)])

    def phase_fraction(self, name):
        """Area fraction occupied by the named phase."""
        areas = triangle_areas(self)
        pid = self.phase_names.index(name)
        return float(areas[self.phases == pid].sum() / areas.sum())

    def boundary_nodes(self, name):
        """Sorted node indices of a named boundary edge set."""
        if name not in self.boundary:
            raise MeshError(f"unknown boundary set '{name}'")
        return np.unique(self.boundary[name])

    def __repr__(self):
        return (f"Mesh({self.n_nodes} nodes, {self.n_triangles} triangles, "
                f"phases={self.phase_names})")


@dataclass(frozen=True)
class PeriodicPairing:
    """Master/slave relations between opposite boundary nodes.

    Every slave appears exactly once; the three non-origin corners are
    all tied to the single origin corner. offsets[i] is the coordinate
    difference slave - master.
    """

    masters: np.ndarray              # (P,) int
    slaves: np.ndarray               # (P,) int
    offsets: np.ndarray              # (P, 2) float

    def __post_init__(self):
        for name in ("masters", "slaves", "offsets"):
            arr = np.asarray(getattr(self, name))
            object.__setattr__(self, name, arr)
            arr.flags.writeable = False
        if len(set(self.slaves.tolist())) != self.slaves.size:
            raise MeshError("periodic pairing assigns a slave node twice")
        if set(self.slaves.tolist()) & set(self.masters.tolist()):
            raise MeshError("periodic pairing uses a node as both master and slave")

    @property
    def n_pairs(self):
        return self.masters.size


def triangle_areas(mesh: Mesh):
    p = mesh.nodes[mesh.triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def validate_mesh(mesh: Mesh):
    """Raise MeshError on malformed connectivity or geometry."""
    if mesh.nodes.ndim != 2 or mesh.nodes.shape[1] != 2:
        raise MeshError("nodes must be (N, 2)")
    if mesh.triangles.min(initial=0) < 0 or mesh.triangles.max(initial=-1) >= mesh.n_nodes:
        raise MeshError("triangle refers to a node out of range")
    areas = triangle_areas(mesh)
    if np.any(areas <= 0.0):
        bad = int(np.argmin(areas))
        raise MeshError(f"triangle {bad} is degenerate or clockwise (area {areas[bad]:g})")
    if mesh.phases.shape != (mesh.n_triangles,):
        raise MeshError("one phase id per triangle required")
    if mesh.phases.min(initial=0) < 0 or mesh.phases.max(initial=-1) >= len(mesh.phase_names):
        raise MeshError("phase id out of range")
    # duplicate nodes defeat the periodic matching
    scale = max(mesh.bbox) if max(mesh.bbox) > 0 else 1.0
    rounded = np.round(mesh.nodes / (1e-12 * scale)).astype(np.int64)
    if np.unique(rounded, axis=0).shape[0] != mesh.n_nodes:
        raise MeshError("duplicate nodes detected")
    # boundary edges must each belong to exactly one triangle
    n = mesh.n_nodes
    keys, counts = np.unique(_edge_keys(mesh.triangles[:, [0, 1, 1, 2, 2, 0]]
                                        .reshape(-1, 2), n), return_counts=True)
    once = keys[counts == 1]
    for name, edges in mesh.boundary.items():
        free = ((edges >= 0) & (edges < n)).all(axis=1) \
            & np.isin(_edge_keys(edges, n), once)
        if not free.all():
            a, b = edges[np.argmin(free)]
            raise MeshError(f"boundary set '{name}' edge {a}-{b} is not a free edge")
    return mesh


def _edge_keys(edges, n):
    """One integer per undirected edge (a, b) of nodes in range(n)."""
    ends = np.sort(edges, axis=1)
    return ends[:, 0] * n + ends[:, 1]


def _grid_mesh(xs, ys, phase_fn, phase_names):
    """Structured triangulation of the tensor grid xs x ys.

    phase_fn maps centroid coordinates (array, array) to phase ids.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    nx = xs.size - 1
    ny = ys.size - 1
    xx, yy = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    nid = np.arange(nodes.shape[0], dtype=np.int64).reshape(ny + 1, nx + 1)
    n00, n10 = nid[:-1, :-1].ravel(), nid[:-1, 1:].ravel()
    n01, n11 = nid[1:, :-1].ravel(), nid[1:, 1:].ravel()
    # two triangles per quad, quads row by row
    tris = np.stack([n00, n10, n11, n00, n11, n01], axis=1).reshape(-1, 3)
    cent = nodes[tris].mean(axis=1)
    phases = phase_fn(cent[:, 0], cent[:, 1])

    def edges(line):
        return np.column_stack([line[:-1], line[1:]])

    boundary = {"left": edges(nid[:, 0]), "right": edges(nid[:, nx]),
                "bottom": edges(nid[0]), "top": edges(nid[ny])}
    return Mesh(nodes, tris, phases, phase_names, boundary,
                bbox=(float(xs[-1] - xs[0]), float(ys[-1] - ys[0])))


def generate_rectangle_mesh(lx, ly, nx, ny, phase="solid"):
    """Uniform nx-by-ny quad grid on [0, lx] x [0, ly], split into triangles."""
    if lx <= 0 or ly <= 0 or nx < 1 or ny < 1:
        raise MeshError("rectangle mesh needs positive sides and divisions")
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    mesh = _grid_mesh(xs, ys, lambda x, y: np.zeros(x.size, dtype=np.int64), (phase,))
    return validate_mesh(mesh)


def _band_breaks(breaks, h_target, cap):
    """Subdivide each band of `breaks` towards h_target, at most cap per band."""
    out = [breaks[0]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        width = b - a
        n = max(1, min(int(np.ceil(width / h_target - 1e-12)), cap))
        out.extend(a + width * (k + 1) / n for k in range(n))
    return np.asarray(out)


def _wrap_interval_test(lo, hi, period):
    lo = lo % period
    hi = hi % period
    if lo < hi:
        return lambda x: (x >= lo) & (x <= hi)
    return lambda x: (x >= lo) | (x <= hi)


def generate_masonry_cell(brick_w, brick_h, joint_t, bond="stack", resolution=2):
    """Periodic unit cell of a masonry wall, brick plus mortar joints.

    The mortar forms a continuous grid when the cell tiles the plane. A
    stack bond cell spans one brick and one joint in each direction; a
    running bond cell spans two courses with the upper course shifted by
    half a period, the shifted brick wrapping across the cell sides.
    `resolution` is the number of elements across a full joint; brick
    bands are subdivided with the same cap so cells stay small.
    """
    if min(brick_w, brick_h, joint_t) <= 0:
        raise MeshError("brick and joint dimensions must be positive")
    if resolution < 2:
        raise MeshError("resolution must give at least 2 elements across a joint")
    if bond not in ("stack", "running"):
        raise MeshError(f"unknown bond pattern '{bond}'")

    px = brick_w + joint_t
    h_target = joint_t / resolution
    cap = max(2, int(resolution))
    half = 0.5 * joint_t

    if bond == "stack":
        py = brick_h + joint_t
        xb = _band_breaks([0.0, half, half + brick_w, px], h_target, cap)
        yb = _band_breaks([0.0, half, half + brick_h, py], h_target, cap)
        in_brick_x = lambda x: (x > half) & (x < half + brick_w)
        in_brick_y = lambda y: (y > half) & (y < half + brick_h)

        def phase_fn(x, y):
            return np.where(in_brick_x(x) & in_brick_y(y), 0, 1).astype(np.int64)
    else:
        py = 2.0 * (brick_h + joint_t)
        shift = 0.5 * px
        lo2, hi2 = (half + shift) % px, (half + brick_w + shift) % px
        xbreaks = sorted({0.0, half, half + brick_w, lo2 % px, hi2 % px, px})
        xb = _band_breaks(list(xbreaks), h_target, cap)
        course = brick_h + joint_t
        yb = _band_breaks([0.0, half, half + brick_h, course,
                           course + half, course + half + brick_h, py],
                          h_target, cap)
        wrap2 = _wrap_interval_test(half + shift, half + brick_w + shift, px)

        def phase_fn(x, y):
            lower = (x > half) & (x < half + brick_w) & (y > half) & (y < half + brick_h)
            upper = wrap2(x) & (y > course + half) & (y < course + half + brick_h)
            return np.where(lower | upper, 0, 1).astype(np.int64)

    mesh = _grid_mesh(xb, yb, phase_fn, ("brick", "mortar"))
    return validate_mesh(mesh)


def generate_masonry_wall(brick_w, brick_h, joint_t, nx_cells, ny_cells,
                          bond="stack", resolution=2):
    """Resolved wall made of nx_cells x ny_cells tiled masonry cells.

    Shares the cell generator's grid spacing so a wall node trace lines
    up exactly with the tiled cell; used for fine-scale references.
    """
    cell = generate_masonry_cell(brick_w, brick_h, joint_t, bond, resolution)
    px, py = cell.bbox
    xs0 = np.unique(cell.nodes[:, 0])
    ys0 = np.unique(cell.nodes[:, 1])
    xs = np.concatenate([xs0[:-1] + k * px for k in range(nx_cells)] + [[nx_cells * px]])
    ys = np.concatenate([ys0[:-1] + k * py for k in range(ny_cells)] + [[ny_cells * py]])

    # the wall grid is the cell grid tiled, so element (row, column,
    # half) takes the phase of the cell element at the same position
    phases = np.tile(cell.phases.reshape(ys0.size - 1, xs0.size - 1, 2),
                     (ny_cells, nx_cells, 1)).ravel()
    mesh = _grid_mesh(xs, ys, lambda x, y: phases, cell.phase_names)
    return validate_mesh(mesh)


def with_phases(mesh: Mesh, phase_names, labeler):
    """New mesh with phases reassigned by labeler(xc, yc) -> phase ids."""
    cent = mesh.nodes[mesh.triangles].mean(axis=1)
    phases = np.asarray(labeler(cent[:, 0], cent[:, 1]), dtype=np.int64)
    return Mesh(mesh.nodes, mesh.triangles, phases, phase_names,
                dict(mesh.boundary), bbox=mesh.bbox)


def scale_mesh(mesh: Mesh, factor):
    """Geometrically similar mesh, coordinates multiplied by factor."""
    if factor <= 0:
        raise MeshError("scale factor must be positive")
    return Mesh(mesh.nodes * factor, mesh.triangles, mesh.phases,
                mesh.phase_names, dict(mesh.boundary),
                bbox=(mesh.bbox[0] * factor, mesh.bbox[1] * factor))


def detect_periodic_pairs(mesh: Mesh, tol=1e-9):
    """Match opposite boundary nodes of a rectangular cell.

    Returns a PeriodicPairing with left->right and bottom->top pairs;
    the three non-origin corners are all slaved to the origin corner so
    that every slave appears exactly once. tol is relative to the cell
    diagonal.
    """
    x0, x1, y0, y1 = mesh.extent()
    lx, ly = x1 - x0, y1 - y0
    eps = tol * max(lx, ly)
    x = mesh.nodes[:, 0]
    y = mesh.nodes[:, 1]
    on_l = np.abs(x - x0) <= eps
    on_r = np.abs(x - x1) <= eps
    on_b = np.abs(y - y0) <= eps
    on_t = np.abs(y - y1) <= eps

    def corner(mask_a, mask_b, name):
        hits = np.nonzero(mask_a & mask_b)[0]
        if hits.size != 1:
            raise MeshError(f"cell must have exactly one {name} corner node")
        return int(hits[0])

    c00 = corner(on_l, on_b, "lower-left")
    c10 = corner(on_r, on_b, "lower-right")
    c01 = corner(on_l, on_t, "upper-left")
    c11 = corner(on_r, on_t, "upper-right")
    corners = {c00, c10, c01, c11}

    masters, slaves, offsets = [c00] * 3, [c10, c01, c11], [(lx, 0.0), (0.0, ly), (lx, ly)]

    def match(side_a, side_b, coord, offset, label):
        a = [i for i in np.nonzero(side_a)[0] if i not in corners]
        b = [i for i in np.nonzero(side_b)[0] if i not in corners]
        a.sort(key=lambda i: mesh.nodes[i, coord])
        b.sort(key=lambda i: mesh.nodes[i, coord])
        if len(a) != len(b):
            raise MeshError(f"{label}: {len(a)} vs {len(b)} nodes, traces do not match")
        for m, s in zip(a, b):
            if abs(mesh.nodes[m, coord] - mesh.nodes[s, coord]) > eps:
                raise MeshError(
                    f"{label}: node {m} at {mesh.nodes[m].tolist()} has no partner "
                    f"within tolerance (closest {mesh.nodes[s].tolist()})")
            masters.append(m)
            slaves.append(s)
            offsets.append(offset)

    match(on_l, on_r, 1, (lx, 0.0), "left-right")
    match(on_b, on_t, 0, (0.0, ly), "bottom-top")
    return PeriodicPairing(np.asarray(masters), np.asarray(slaves),
                           np.asarray(offsets, dtype=float))


# ------------------------------------------------------------- file io


def save_mesh(path, mesh: Mesh):
    lines = [f"nodes {mesh.n_nodes}"]
    lines.extend("%.17g %.17g" % (p[0], p[1]) for p in mesh.nodes)
    lines.append(f"triangles {mesh.n_triangles}")
    lines.extend("%d %d %d" % tuple(t) for t in mesh.triangles)
    lines.append(f"phases {mesh.n_triangles}")
    lines.extend(mesh.phase_names[p] for p in mesh.phases)
    for name, edges in mesh.boundary.items():
        lines.append(f"boundary {name} {edges.shape[0]}")
        lines.extend("%d %d" % tuple(e) for e in edges)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path) -> Mesh:
    with open(path) as fh:
        raw = [ln.strip() for ln in fh]
    lines = [ln for ln in raw if ln and not ln.startswith("#")]
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise MeshError(f"{path}: unexpected end of file")
        ln = lines[pos]
        pos += 1
        return ln

    def expect(keyword):
        parts = take().split()
        if parts[0] != keyword:
            raise MeshError(f"{path}: expected '{keyword}' section, got '{parts[0]}'")
        return parts

    n = int(expect("nodes")[1])
    nodes = np.array([[float(v) for v in take().split()] for _ in range(n)])
    m = int(expect("triangles")[1])
    tris = np.array([[int(v) for v in take().split()] for _ in range(m)], dtype=np.int64)
    mp = int(expect("phases")[1])
    if mp != m:
        raise MeshError(f"{path}: phases count {mp} != triangles count {m}")
    names = []
    phase_ids = np.empty(m, dtype=np.int64)
    for k in range(m):
        nm = take()
        if nm not in names:
            names.append(nm)
        phase_ids[k] = names.index(nm)
    boundary = {}
    while pos < len(lines):
        parts = expect("boundary")
        bname, cnt = parts[1], int(parts[2])
        boundary[bname] = np.array([[int(v) for v in take().split()]
                                    for _ in range(cnt)], dtype=np.int64)
    mesh = Mesh(nodes, tris, phase_ids, tuple(names), boundary)
    return validate_mesh(mesh)
