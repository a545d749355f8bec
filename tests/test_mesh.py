"""Mesh generation, periodic pairing and the mesh file format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamfe2 import mesh as msh


def phase_fraction(mesh, name):
    """Area fraction occupied by the named phase."""
    areas = msh.triangle_areas(mesh)
    pid = mesh.phase_names.index(name)
    return float(areas[mesh.phases == pid].sum() / areas.sum())


def test_rectangle_mesh_counts_and_area():
    m = msh.generate_rectangle_mesh(1.0, 1.0, 2, 2)
    assert m.n_nodes == 9
    assert m.n_triangles == 8
    assert msh.triangle_areas(m).sum() == pytest.approx(1.0, rel=1e-14)
    assert np.all(msh.triangle_areas(m) > 0.0)
    for name in ("left", "right", "bottom", "top"):
        assert m.boundary[name].shape == (2, 2)
    assert m.bbox == (1.0, 1.0)


def test_rectangle_mesh_rejects_bad_args():
    with pytest.raises(msh.MeshError):
        msh.generate_rectangle_mesh(0.0, 1.0, 2, 2)
    with pytest.raises(msh.MeshError):
        msh.generate_rectangle_mesh(1.0, 1.0, 0, 2)


def test_mesh_is_immutable():
    m = msh.generate_rectangle_mesh(1.0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        m.nodes[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.phases[0] = 1


def test_validate_rejects_clockwise_triangle():
    nodes = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    with pytest.raises(msh.MeshError):
        msh.validate_mesh(msh.Mesh(nodes, [(0, 2, 1)], [0], ("a",), {}))


def test_validate_rejects_duplicate_nodes():
    nodes = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    tris = [(0, 1, 2), (1, 3, 2)]
    with pytest.raises(msh.MeshError):
        msh.validate_mesh(msh.Mesh(nodes, tris, [0, 0], ("a",), {}))


def test_load_rejects_a_node_outside_every_triangle(tmp_path):
    # the fifth node belongs to no triangle: the file fails validation
    # with the node's number, before any solver sees the mesh
    m = msh.generate_rectangle_mesh(1.0, 1.0, 1, 1)
    loose = msh.Mesh(np.vstack([m.nodes, [[2.0, 2.0]]]), m.triangles,
                     m.phases, m.phase_names, m.boundary)
    with pytest.raises(msh.MeshError, match="node 4 belongs to no triangle"):
        msh.validate_mesh(loose)
    path = tmp_path / "loose.mesh"
    msh.save_mesh(path, loose)
    with pytest.raises(msh.MeshError, match="node 4 belongs to no triangle"):
        msh.load_mesh(path)


REPEAT_MESSAGE = ("triangles {} and {} both hold the directed edge {}->{}: "
                  "a triangle is listed twice or two triangles overlap")


def with_triangles(mesh, extra):
    """mesh with the triangles `extra` appended, in phase 0."""
    extra = np.asarray(extra, dtype=np.int64).reshape(-1, 3)
    return msh.Mesh(mesh.nodes, np.vstack([mesh.triangles, extra]),
                    np.append(mesh.phases, np.zeros(len(extra), np.int64)),
                    mesh.phase_names, dict(mesh.boundary))


def test_validate_rejects_a_triangle_listed_twice(tmp_path):
    # the central triangle of a 3 x 3 grid, listed again at the end,
    # would be assembled twice
    base = msh.generate_rectangle_mesh(1.0, 1.0, 3, 3)
    twice = with_triangles(base, base.triangles[8])
    message = REPEAT_MESSAGE.format(8, 18, 5, 6)
    with pytest.raises(msh.MeshError) as err:
        msh.validate_mesh(twice)
    assert str(err.value) == message
    path = tmp_path / "twice.mesh"
    msh.save_mesh(path, twice)
    with pytest.raises(msh.MeshError) as err:
        msh.load_mesh(path)
    assert str(err.value) == message


def test_load_rejects_an_empty_mesh(tmp_path):
    path = tmp_path / "empty.mesh"
    path.write_text("nodes 0\ntriangles 0\nphases 0\n")
    with pytest.raises(msh.MeshError, match="mesh has no nodes"):
        msh.load_mesh(path)


def repeated_edge_error_loop(mesh):
    """validate_mesh's repeated-edge message by a dict of directed edges,
    or None: the edge (a, b) first in order, and its first two triangles."""
    holders = {}
    for k, (i0, i1, i2) in enumerate(mesh.triangles.tolist()):
        for edge in ((i0, i1), (i1, i2), (i2, i0)):
            holders.setdefault(edge, []).append(k)
    twice = sorted(edge for edge, ks in holders.items() if len(ks) > 1)
    if not twice:
        return None
    return REPEAT_MESSAGE.format(*holders[twice[0]][:2], *twice[0])


@pytest.mark.parametrize("extra", [
    [], [(5, 6, 10)], [(10, 5, 6)], [(0, 1, 5)], [(0, 1, 13)],
    [(10, 15, 14), (5, 6, 10)], [(9, 10, 14), (9, 10, 14)]],
    ids=["none", "listed-twice", "rotated", "first", "overlap", "two",
         "three-times"])
def test_validate_repeated_edges_match_directed_edge_loop(extra):
    # a grid of 3 x 3 quads, node (i, j) numbered 4 j + i; (0, 1, 13)
    # is a counterclockwise triangle over two triangles of the grid
    m = with_triangles(msh.generate_rectangle_mesh(1.0, 1.0, 3, 3), extra)
    expected = repeated_edge_error_loop(m)
    assert (expected is None) == (not extra)
    if expected is None:
        assert msh.validate_mesh(m) is m
    else:
        with pytest.raises(msh.MeshError) as err:
            msh.validate_mesh(m)
        assert str(err.value) == expected


def has_duplicate_nodes_loop(mesh):
    """validate_mesh's duplicate-node predicate by a set of rounded tuples."""
    scale = max(mesh.bbox) if max(mesh.bbox) > 0 else 1.0
    seen = set()
    for x, y in mesh.nodes.tolist():
        key = (round(x / (1e-12 * scale)), round(y / (1e-12 * scale)))
        if key in seen:
            return True
        seen.add(key)
    return False


@pytest.mark.parametrize("shift, duplicate", [
    (0.3e-12, True), (0.9e-12, False), (3e-12, False), (1e-6, False)])
def test_validate_duplicate_nodes_match_rounded_tuple_loop(shift, duplicate):
    # node 3 lies `shift` right of node 1, the extent being 1 + shift.
    # The check rounds to multiples of 1e-12 of the extent: node 1 at
    # (1 - shift) 1e12 of them, node 3 at 1e12. So 0.3e-12 is one
    # point, and 0.9e-12, though closer than 1e-12, rounds apart
    nodes = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0 + shift, 0.0)]
    m = msh.Mesh(nodes, [(0, 1, 2), (1, 3, 2)], [0, 0], ("a",), {})
    assert has_duplicate_nodes_loop(m) == duplicate
    if duplicate:
        with pytest.raises(msh.MeshError, match="duplicate nodes detected"):
            msh.validate_mesh(m)
    else:
        assert msh.validate_mesh(m) is m


@pytest.mark.parametrize("bond", ["stack", "running"])
@pytest.mark.parametrize("resolution", [2, 3, 4, 8])
def test_cell_phases_come_from_the_mean_centroids_bit_for_bit(
        bond, resolution, monkeypatch):
    # the centroids handed to the cell's phase function are
    # nodes[tris].mean(axis=1) bit for bit, so are its phases
    seen = {}
    grid_mesh = msh._grid_mesh

    def spy(xs, ys, phase_fn, phase_names):
        seen["phase_fn"] = phase_fn
        return grid_mesh(xs, ys, phase_fn, phase_names)

    monkeypatch.setattr(msh, "_grid_mesh", spy)
    cell = msh.generate_masonry_cell(0.29, 0.14, 0.01, bond, resolution)
    cent = cell.nodes[cell.triangles].mean(axis=1)
    xc, yc = msh._centroids(cell.nodes, cell.triangles)
    assert xc.tobytes() == cent[:, 0].tobytes()
    assert yc.tobytes() == cent[:, 1].tobytes()
    assert np.array_equal(cell.phases,
                          seen["phase_fn"](cent[:, 0], cent[:, 1]))


def test_wall_centroids_and_areas_match_the_corner_gather_bit_for_bit():
    wall = msh.generate_masonry_wall(0.29, 0.14, 0.01, 8, 8, "running", 4)
    p = wall.nodes[wall.triangles]
    cent = p.mean(axis=1)
    xc, yc = msh._centroids(wall.nodes, wall.triangles)
    assert xc.tobytes() == cent[:, 0].tobytes()
    assert yc.tobytes() == cent[:, 1].tobytes()
    areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                   - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    assert msh.triangle_areas(wall).tobytes() == areas.tobytes()


def grid_triangles_loop(nx, ny):
    """Triangles and boundary edges of the (nx+1) x (ny+1) node grid,
    one quad at a time. Reference for the generators' arrays."""
    def nid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            n00, n10 = nid(i, j), nid(i + 1, j)
            n01, n11 = nid(i, j + 1), nid(i + 1, j + 1)
            tris.append((n00, n10, n11))
            tris.append((n00, n11, n01))
    boundary = {
        "left": [(nid(0, j), nid(0, j + 1)) for j in range(ny)],
        "right": [(nid(nx, j), nid(nx, j + 1)) for j in range(ny)],
        "bottom": [(nid(i, 0), nid(i + 1, 0)) for i in range(nx)],
        "top": [(nid(i, ny), nid(i + 1, ny)) for i in range(nx)]}
    return np.array(tris), {k: np.array(v) for k, v in boundary.items()}


def free_edge_error_loop(mesh):
    """validate_mesh's free-edge message by a dict of edge counts, or None."""
    edge_count = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edge_count[key] = edge_count.get(key, 0) + 1
    for name, edges in mesh.boundary.items():
        for a, b in edges:
            if edge_count.get((min(a, b), max(a, b)), 0) != 1:
                return f"boundary set '{name}' edge {a}-{b} is not a free edge"
    return None


@pytest.mark.parametrize("make", [
    lambda: msh.generate_rectangle_mesh(1.0, 1.0, 1, 1),
    lambda: msh.generate_rectangle_mesh(2.0, 1.0, 5, 3),
    lambda: msh.generate_masonry_cell(0.29, 0.14, 0.01, "running", 4),
    lambda: msh.generate_masonry_wall(0.27, 0.27, 0.03, 3, 2, "stack", 2)])
def test_grid_arrays_match_quad_loop(make):
    m = make()
    nx = np.unique(m.nodes[:, 0]).size - 1
    ny = np.unique(m.nodes[:, 1]).size - 1
    tris, boundary = grid_triangles_loop(nx, ny)
    assert np.array_equal(m.triangles, tris)
    assert set(m.boundary) == set(boundary)
    for name, edges in boundary.items():
        assert np.array_equal(m.boundary[name], edges), name


@pytest.mark.parametrize("edge", [(0, 1), (1, 0), (0, 4), (4, 8), (0, 9),
                                  (-1, 0), (2, 5)])
def test_validate_free_edges_match_edge_count_loop(edge):
    base = msh.generate_rectangle_mesh(1.0, 1.0, 2, 2)
    bad = dict(base.boundary)
    bad["extra"] = np.vstack([base.boundary["top"], [edge]])
    m = msh.Mesh(base.nodes, base.triangles, base.phases, base.phase_names,
                 bad)
    expected = free_edge_error_loop(m)
    if expected is None:
        assert msh.validate_mesh(m) is m
    else:
        with pytest.raises(msh.MeshError) as err:
            msh.validate_mesh(m)
        assert str(err.value) == expected


def test_masonry_cell_stack_geometry():
    bw, bh, j = 0.27, 0.27, 0.03
    cell = msh.generate_masonry_cell(bw, bh, j, bond="stack", resolution=2)
    assert cell.bbox == pytest.approx((bw + j, bh + j))
    assert set(cell.phase_names) == {"brick", "mortar"}
    # interface-aligned bands make the area fraction exact
    expect = 1.0 - bw * bh / ((bw + j) * (bh + j))
    assert phase_fraction(cell, "mortar") == pytest.approx(expect, rel=1e-12)
    msh.validate_mesh(cell)


def test_masonry_cell_running_bond_sepuc1_like():
    # running bond with l_x = 0.45, l_y = 0.44
    cell = msh.generate_masonry_cell(0.42, 0.19, 0.03, bond="running", resolution=2)
    assert cell.bbox == pytest.approx((0.45, 0.44))
    expect = 1.0 - 2.0 * 0.42 * 0.19 / (0.45 * 0.44)
    assert phase_fraction(cell, "mortar") == pytest.approx(expect, rel=1e-12)
    msh.validate_mesh(cell)
    # wrapped upper brick touches both vertical cell sides
    pid = cell.phase_names.index("brick")
    cent = cell.nodes[cell.triangles].mean(axis=1)
    upper = cent[(cell.phases == pid) & (cent[:, 1] > 0.22)]
    assert upper[:, 0].min() < 0.03 and upper[:, 0].max() > 0.42


def test_masonry_cell_rejects_bad_input():
    with pytest.raises(msh.MeshError):
        msh.generate_masonry_cell(0.3, 0.3, 0.0)
    with pytest.raises(msh.MeshError):
        msh.generate_masonry_cell(0.3, 0.3, 0.05, resolution=1)
    with pytest.raises(msh.MeshError):
        msh.generate_masonry_cell(0.3, 0.3, 0.05, bond="flemish")


def test_periodic_pairs_rectangle():
    m = msh.generate_rectangle_mesh(2.0, 1.0, 2, 2)
    pairing = msh.detect_periodic_pairs(m)
    # 3 corner slaves on one master, 1 left-right pair, 1 bottom-top pair
    assert pairing.masters.size == 5
    origin = np.argmin(m.nodes[:, 0] ** 2 + m.nodes[:, 1] ** 2)
    corner_rows = np.nonzero(pairing.masters == origin)[0]
    assert corner_rows.size >= 3
    # every slave exactly once, slave = master + offset
    assert len(set(pairing.slaves.tolist())) == pairing.masters.size
    for m_i, s_i, off in zip(pairing.masters, pairing.slaves, pairing.offsets):
        assert m.nodes[s_i] == pytest.approx(m.nodes[m_i] + off, abs=1e-12)
        assert tuple(np.abs(off)) in {(2.0, 0.0), (0.0, 1.0), (2.0, 1.0)}


def test_periodic_pairs_masonry_cell():
    cell = msh.generate_masonry_cell(0.27, 0.27, 0.03, resolution=2)
    pairing = msh.detect_periodic_pairs(cell)
    xs = np.unique(cell.nodes[:, 0])
    ys = np.unique(cell.nodes[:, 1])
    assert pairing.masters.size == (ys.size - 2) + (xs.size - 2) + 3
    for m_i, s_i, off in zip(pairing.masters, pairing.slaves, pairing.offsets):
        assert cell.nodes[s_i] == pytest.approx(cell.nodes[m_i] + off, abs=1e-12)


def test_periodic_pairs_mismatch_reports_node():
    base = msh.generate_rectangle_mesh(1.0, 1.0, 2, 2)
    nodes = base.nodes.copy()
    moved = np.nonzero((np.abs(nodes[:, 0] - 1.0) < 1e-12)
                       & (np.abs(nodes[:, 1] - 0.5) < 1e-12))[0][0]
    nodes[moved, 1] = 0.7
    warped = msh.Mesh(nodes, base.triangles, base.phases, base.phase_names,
                      dict(base.boundary))
    with pytest.raises(msh.MeshError):
        msh.detect_periodic_pairs(warped)


def test_masonry_wall_tiles_cells():
    wall = msh.generate_masonry_wall(0.27, 0.27, 0.03, nx_cells=3, ny_cells=2,
                                     resolution=2)
    cell = msh.generate_masonry_cell(0.27, 0.27, 0.03, resolution=2)
    assert wall.bbox == pytest.approx((0.9, 0.6))
    assert wall.n_triangles == 6 * cell.n_triangles
    assert phase_fraction(wall, "mortar") == pytest.approx(
        phase_fraction(cell, "mortar"), rel=1e-12)
    msh.validate_mesh(wall)


def nearest_centroid_wall_phases(wall, cell):
    """Reference: phase of the nearest cell centroid, element by element."""
    px, py = cell.bbox
    cell_cent = cell.nodes[cell.triangles].mean(axis=1)
    wall_cent = wall.nodes[wall.triangles].mean(axis=1)
    xl, yl = np.mod(wall_cent[:, 0], px), np.mod(wall_cent[:, 1], py)
    out = np.empty(wall.n_triangles, dtype=np.int64)
    for k in range(wall.n_triangles):
        d2 = (cell_cent[:, 0] - xl[k]) ** 2 + (cell_cent[:, 1] - yl[k]) ** 2
        out[k] = cell.phases[int(np.argmin(d2))]
    return out


@pytest.mark.parametrize("bond", ["stack", "running"])
@pytest.mark.parametrize("resolution", [2, 4])
@pytest.mark.parametrize("cells", [(3, 5), (8, 8)], ids=["3x5", "8x8"])
def test_masonry_wall_phases_match_nearest_cell_centroid(bond, resolution,
                                                         cells):
    args = (0.29, 0.14, 0.01)
    wall = msh.generate_masonry_wall(*args, *cells, bond=bond,
                                     resolution=resolution)
    cell = msh.generate_masonry_cell(*args, bond=bond, resolution=resolution)
    assert np.array_equal(wall.phases,
                          nearest_centroid_wall_phases(wall, cell))


def test_with_phases_relabels():
    m = msh.generate_rectangle_mesh(1.0, 1.0, 4, 4)
    lam = msh.with_phases(m, ("a", "b"), lambda x, y: (x > 0.5).astype(int))
    assert set(lam.phases.tolist()) == {0, 1}
    assert phase_fraction(lam, "a") == pytest.approx(0.5, rel=1e-12)


def test_with_phases_rejects_a_label_out_of_range():
    # three labels for two phase names: the third phase has no material
    m = msh.generate_rectangle_mesh(3.0, 1.0, 3, 1)
    with pytest.raises(msh.MeshError, match="phase id out of range"):
        msh.with_phases(m, ("brick", "lin"),
                        lambda x, y: np.floor(x).astype(int))


def test_with_phases_rejects_labels_of_the_wrong_length():
    m = msh.generate_rectangle_mesh(3.0, 1.0, 3, 1)
    with pytest.raises(msh.MeshError, match="one phase id per triangle"):
        msh.with_phases(m, ("brick", "lin"),
                        lambda x, y: np.zeros(x.size + 1, dtype=int))


def test_mesh_file_round_trip(tmp_path):
    cell = msh.generate_masonry_cell(0.42, 0.19, 0.03, bond="running", resolution=2)
    path = tmp_path / "cell.mesh"
    msh.save_mesh(path, cell)
    loaded = msh.load_mesh(path)
    assert np.array_equal(loaded.nodes, cell.nodes)
    assert np.array_equal(loaded.triangles, cell.triangles)
    assert [loaded.phase_names[p] for p in loaded.phases] == \
        [cell.phase_names[p] for p in cell.phases]
    assert set(loaded.boundary) == set(cell.boundary)
    # canonical writer: second save is byte-identical
    path2 = tmp_path / "cell2.mesh"
    msh.save_mesh(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_mesh_file_errors(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("nodes 2\n0 0\n1 0\ntriangles 1\n0 1 5\nphases 1\nsolid\n")
    with pytest.raises(msh.MeshError):
        msh.load_mesh(path)
    path.write_text("triangles 1\n0 1 2\n")
    with pytest.raises(msh.MeshError):
        msh.load_mesh(path)


@pytest.mark.parametrize("header", ["nodes", "nodes four", "boundary left"])
def test_mesh_header_without_integer_count_names_the_file(tmp_path, header):
    path = tmp_path / "bad.mesh"
    msh.save_mesh(path, msh.generate_rectangle_mesh(1.0, 1.0, 1, 1))
    lines = path.read_text().splitlines()
    if header.startswith("nodes"):
        lines[0] = header
    else:
        lines.append(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(msh.MeshError) as err:
        msh.load_mesh(path)
    assert str(path) in str(err.value)
    assert header in str(err.value)


@pytest.mark.parametrize("section, row", [
    ("nodes", "1 zero"), ("nodes", "0.5"), ("triangles", "0 1 2.0"),
    ("boundary", "0")])
def test_malformed_row_names_the_file_and_line(tmp_path, section, row):
    path = tmp_path / "bad.mesh"
    msh.save_mesh(path, msh.generate_rectangle_mesh(1.0, 1.0, 1, 1))
    lines = path.read_text().splitlines()
    # the first row of the section; boundary rows follow the last header
    lineno = 1 + max(k for k, ln in enumerate(lines)
                     if ln.startswith(section)) + 1
    lines[lineno - 1] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(msh.MeshError) as err:
        msh.load_mesh(path)
    assert f"{path}:{lineno}:" in str(err.value)
    assert f"'{row}'" in str(err.value)


def test_repeated_boundary_section_names_the_file_and_line(tmp_path):
    # a second 'boundary left' section would silently replace the first
    path = tmp_path / "bad.mesh"
    msh.save_mesh(path, msh.generate_rectangle_mesh(1.0, 1.0, 1, 1))
    lines = path.read_text().splitlines()
    first = next(k for k, ln in enumerate(lines)
                 if ln.startswith("boundary left "))
    count = int(lines[first].split()[2])
    lines += lines[first:first + 1 + count]
    lineno = len(lines) - count
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(msh.MeshError) as err:
        msh.load_mesh(path)
    assert f"{path}:{lineno}:" in str(err.value)
    assert "'left'" in str(err.value)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.1, max_value=10.0))
def test_property_rectangle_mesh_consistency(nx, ny, lx, ly):
    m = msh.generate_rectangle_mesh(lx, ly, nx, ny)
    assert m.n_nodes == (nx + 1) * (ny + 1)
    assert m.n_triangles == 2 * nx * ny
    assert msh.triangle_areas(m).sum() == pytest.approx(lx * ly, rel=1e-12)
    pairing = msh.detect_periodic_pairs(m)
    assert pairing.masters.size == (nx - 1) + (ny - 1) + 3
