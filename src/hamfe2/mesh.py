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

Sections appear in exactly this order; `boundary` sections may repeat,
each under a name of its own.

Every generator, with_phases and load_mesh return a mesh that passed
validate_mesh, which checks, in this order and each in one linear or
single-sort pass:

- the nodes are an (N, 2) array (a mesh with no nodes is rejected when
  it is built);
- every triangle refers to nodes in range, and every node belongs to a
  triangle;
- every triangle has positive area, i.e. is counterclockwise and not
  degenerate;
- there is one phase id per triangle, each naming a phase;
- no two nodes coincide after rounding to 1e-12 of the larger extent;
- no directed edge a->b lies in two triangles, which a triangle listed
  twice or two overlapping triangles would cause;
- every named boundary edge is a free edge: it lies in one triangle.
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
    bbox: tuple = field(init=False)  # (lx, ly) extent of the nodes

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
        if nodes.shape[0] == 0:
            raise MeshError("mesh has no nodes")
        lo = nodes.min(axis=0)
        hi = nodes.max(axis=0)
        object.__setattr__(self, "bbox", (float(hi[0] - lo[0]), float(hi[1] - lo[1])))
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


def triangle_areas(mesh: Mesh):
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    t0, t1, t2 = mesh.triangles.T
    x0, y0 = x[t0], y[t0]
    return 0.5 * ((x[t1] - x0) * (y[t2] - y0) - (x[t2] - x0) * (y[t1] - y0))


def _centroids(nodes, tris):
    """Centroid coordinates (xc, yc) of each triangle.

    The sum of the three corners in corner order, divided by 3: what
    nodes[tris].mean(axis=1) gives, bit for bit, without the (M, 3, 2)
    gather.
    """
    x, y = nodes[:, 0], nodes[:, 1]
    t0, t1, t2 = tris.T
    return (x[t0] + x[t1] + x[t2]) / 3.0, (y[t0] + y[t1] + y[t2]) / 3.0


def validate_mesh(mesh: Mesh):
    """Raise MeshError on malformed connectivity or geometry.

    The module notes list the checks; returns the mesh.
    """
    if mesh.nodes.ndim != 2 or mesh.nodes.shape[1] != 2:
        raise MeshError("nodes must be (N, 2)")
    n = mesh.n_nodes
    tris = mesh.triangles
    if tris.min(initial=0) < 0 or tris.max(initial=-1) >= n:
        raise MeshError("triangle refers to a node out of range")
    used = np.bincount(tris.ravel(), minlength=n) > 0
    if not used.all():
        raise MeshError(f"node {int(np.argmin(used))} belongs to no triangle")
    areas = triangle_areas(mesh)
    if np.any(areas <= 0.0):
        bad = int(np.argmin(areas))
        raise MeshError(f"triangle {bad} is degenerate or clockwise (area {areas[bad]:g})")
    if mesh.phases.shape != (mesh.n_triangles,):
        raise MeshError("one phase id per triangle required")
    if mesh.phases.min(initial=0) < 0 or mesh.phases.max(initial=-1) >= len(mesh.phase_names):
        raise MeshError("phase id out of range")
    # duplicate nodes defeat the periodic matching: sort the rounded
    # coordinates once, equal rows are then neighbours
    scale = max(mesh.bbox) if max(mesh.bbox) > 0 else 1.0
    rounded = np.round(mesh.nodes / (1e-12 * scale)).astype(np.int64)
    rows = rounded[np.lexsort((rounded[:, 1], rounded[:, 0]))]
    if np.any((rows[1:, 0] == rows[:-1, 0]) & (rows[1:, 1] == rows[:-1, 1])):
        raise MeshError("duplicate nodes detected")
    # one key a n + b per directed edge a->b, triangle k's three edges
    # at 3k, 3k + 1 and 3k + 2; counterclockwise triangles that conform
    # hold each directed edge once
    keys = (tris * n + tris[:, [1, 2, 0]]).ravel()
    ordered = np.sort(keys)
    twice = ordered[1:] == ordered[:-1]
    if twice.any():
        key = ordered[np.argmax(twice)]
        first, second = np.flatnonzero(keys == key)[:2] // 3
        raise MeshError(f"triangles {first} and {second} both hold the "
                        f"directed edge {key // n}->{key % n}: a triangle "
                        "is listed twice or two triangles overlap")

    # so an edge a-b lies in [a->b held] + [b->a held] triangles, and a
    # boundary edge must lie in exactly one
    def held(k):
        return ordered[np.minimum(np.searchsorted(ordered, k),
                                  ordered.size - 1)] == k

    for name, edges in mesh.boundary.items():
        free = ((edges >= 0) & (edges < n)).all(axis=1) \
            & (held(edges[:, 0] * n + edges[:, 1])
               != held(edges[:, 1] * n + edges[:, 0]))
        if not free.all():
            a, b = edges[np.argmin(free)]
            raise MeshError(f"boundary set '{name}' edge {a}-{b} is not a free edge")
    return mesh


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
    phases = phase_fn(*_centroids(nodes, tris))

    def edges(line):
        return np.column_stack([line[:-1], line[1:]])

    boundary = {"left": edges(nid[:, 0]), "right": edges(nid[:, nx]),
                "bottom": edges(nid[0]), "top": edges(nid[ny])}
    return Mesh(nodes, tris, phases, phase_names, boundary)


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
    phases = np.asarray(labeler(*_centroids(mesh.nodes, mesh.triangles)),
                        dtype=np.int64)
    return validate_mesh(Mesh(mesh.nodes, mesh.triangles, phases,
                              phase_names, dict(mesh.boundary)))


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
    """Read a mesh written by save_mesh.

    Malformed headers and rows raise MeshError naming the file and the
    1-based line.
    """
    with open(path) as fh:
        raw = [ln.strip() for ln in fh]
    lines = [(k, ln) for k, ln in enumerate(raw, start=1)
             if ln and not ln.startswith("#")]
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise MeshError(f"{path}: unexpected end of file")
        pos += 1
        return lines[pos - 1]

    def section(keyword, i=1):
        """Fields of the next section header and its integer count, field i."""
        lineno, ln = take()
        parts = ln.split()
        if parts[0] != keyword:
            raise MeshError(f"{path}:{lineno}: expected '{keyword}' section, "
                            f"got '{parts[0]}'")
        try:
            return parts, int(parts[i])
        except (IndexError, ValueError):
            raise MeshError(f"{path}:{lineno}: '{ln}' lacks an integer "
                            "count") from None

    def rows(count, width, kind, label):
        """count rows of `width` fields, each parsed by kind."""
        out = []
        for _ in range(count):
            lineno, ln = take()
            parts = ln.split()
            try:
                if len(parts) != width:
                    raise ValueError
                out.append([kind(v) for v in parts])
            except ValueError:
                raise MeshError(
                    f"{path}:{lineno}: {label} row '{ln}' needs {width} "
                    f"{kind.__name__} values") from None
        return np.array(out, dtype=kind).reshape(count, width)

    n = section("nodes")[1]
    nodes = rows(n, 2, float, "node")
    m = section("triangles")[1]
    tris = rows(m, 3, int, "triangle")
    mp = section("phases")[1]
    if mp != m:
        raise MeshError(f"{path}: phases count {mp} != triangles count {m}")
    names = []
    phase_ids = np.empty(m, dtype=np.int64)
    for k in range(m):
        nm = take()[1]
        if nm not in names:
            names.append(nm)
        phase_ids[k] = names.index(nm)
    boundary = {}
    while pos < len(lines):
        lineno = lines[pos][0]
        parts, cnt = section("boundary", 2)
        if parts[1] in boundary:
            raise MeshError(f"{path}:{lineno}: repeated boundary '{parts[1]}'")
        boundary[parts[1]] = rows(cnt, 2, int, "boundary")
    mesh = Mesh(nodes, tris, phase_ids, tuple(names), boundary)
    return validate_mesh(mesh)
