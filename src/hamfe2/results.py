"""Result export and re-import: per-field CSV tables and VTK frames.

CSV files are the exchange format with byte-exact determinism: values
print with 17 significant digits so that reading them back reproduces
the binary doubles. VTK legacy ASCII frames exist for inspection tools
and carry the same numbers without the bit-exactness contract.
"""

from __future__ import annotations

import os

import numpy as np

from .fem import FieldState
from .mesh import Mesh
from .solver import History

FORMATS = ("csv", "vtk")


def _fmt(x):
    return "%.17g" % x


def _write_field_csv(path, times_h, values):
    lines = ["node," + ",".join(_fmt(t) for t in times_h)]
    for i, row in enumerate(values):
        lines.append(str(i) + "," + ",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_history_csv(history: History, outdir):
    """theta.csv and phi.csv under outdir: rows nodes, columns times [h]."""
    if not history.states:
        raise ValueError("cannot export an empty history")
    os.makedirs(outdir, exist_ok=True)
    times_h = history.times_hours()
    for name, values in (("theta", history.theta_array()),
                         ("phi", history.phi_array())):
        _write_field_csv(os.path.join(outdir, name + ".csv"), times_h, values)
    return [os.path.join(outdir, "theta.csv"), os.path.join(outdir, "phi.csv")]


def _numbers(path, lineno, fields):
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed number") from None
    if not all(np.isfinite(values)):
        raise ValueError(f"{path}:{lineno}: non-finite value")
    return values


def _read_field_csv(path):
    """(times [h], values) of a table written by _write_field_csv.

    Errors cite the one-based line number of the offending row.
    """
    with open(path) as fh:
        lines = [(lineno, ln) for lineno, ln in
                 enumerate(fh.read().splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    lineno, line = lines[0]
    header = line.split(",")
    if header[0] != "node":
        raise ValueError(f"{path}: missing 'node' header column")
    times_h = np.array(_numbers(path, lineno, header[1:]))
    values = np.empty((len(lines) - 1, times_h.size))
    for k, (lineno, line) in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} "
                             f"comma-separated fields as in the header, "
                             f"got {len(parts)}")
        if parts[0].strip() != str(k):
            raise ValueError(
                f"{path}:{lineno}: rows must be ordered by node id")
        values[k] = _numbers(path, lineno, parts[1:])
    return times_h, values


def read_history_csv(outdir) -> History:
    """Inverse of write_history_csv; iteration counts are not stored."""
    t_theta, theta = _read_field_csv(os.path.join(outdir, "theta.csv"))
    t_phi, phi = _read_field_csv(os.path.join(outdir, "phi.csv"))
    if t_theta.size != t_phi.size or not np.array_equal(t_theta, t_phi):
        raise ValueError(f"{outdir}: theta and phi tables disagree on times")
    history = History()
    for j, t_h in enumerate(t_theta):
        history.append(FieldState.from_vector(
            np.concatenate([theta[:, j], phi[:, j]]), t_h * 3600.0))
    return history


def write_history_vtk(history: History, mesh: Mesh, outdir):
    """One legacy ASCII VTK file per frame with point data theta, phi."""
    if not history.states:
        raise ValueError("cannot export an empty history")
    if history.states[0].theta.size != mesh.n_nodes:
        raise ValueError("history and mesh disagree on node count")
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for k, state in enumerate(history.states):
        lines = ["# vtk DataFile Version 3.0",
                 "t = %.17g h" % (state.time / 3600.0),
                 "ASCII",
                 "DATASET UNSTRUCTURED_GRID",
                 f"POINTS {mesh.n_nodes} double"]
        lines.extend("%.17g %.17g 0" % (p[0], p[1]) for p in mesh.nodes)
        lines.append(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
        lines.extend("3 %d %d %d" % tuple(t) for t in mesh.triangles)
        lines.append(f"CELL_TYPES {mesh.n_triangles}")
        lines.extend("5" for _ in range(mesh.n_triangles))
        lines.append(f"POINT_DATA {mesh.n_nodes}")
        for name, vals in (("theta", state.theta), ("phi", state.phi)):
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(_fmt(v) for v in vals)
        path = os.path.join(outdir, "frame_%04d.vtk" % k)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def write_results(history: History, fmt, path, mesh: Mesh = None):
    """Dispatch on format: csv writes field tables, vtk per-frame files."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown result format '{fmt}'; choose {FORMATS}")
    if fmt == "csv":
        return write_history_csv(history, path)
    if mesh is None:
        raise ValueError("vtk export needs the mesh")
    return write_history_vtk(history, mesh, path)


def write_step_log(history: History, path):
    """Per-step table: step, t_hours, Newton iterations, Newton
    factorizations, wall seconds."""
    lines = ["step,t_hours,iterations,factorizations,wall_s"]
    for k, t in enumerate(history.times):
        lines.append("%d,%s,%d,%d,%s" % (k, _fmt(t / 3600.0),
                                         history.newton_iterations[k],
                                         history.factorizations[k],
                                         _fmt(history.step_seconds[k])))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_round_log(rounds, path):
    """Scheduler round records: round, worker, points, seconds."""
    lines = ["round,worker,points,seconds"]
    for rec in rounds:
        lines.append("%d,%d,%d,%s" % (rec.round_index, rec.worker,
                                      rec.points, _fmt(rec.seconds)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_comparison_report(report, path):
    """Two-column metric table for a ComparisonReport."""
    lines = ["metric,value",
             "rel_theta_pct," + _fmt(report.rel_theta),
             "abs_theta_degC," + _fmt(report.abs_theta),
             "rel_phi_pct," + _fmt(report.rel_phi),
             "abs_phi," + _fmt(report.abs_phi),
             "n_cells,%d" % report.n_cells,
             "n_times,%d" % report.n_times]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_response_table(rows, path):
    """Averaged cell responses per step, one CSV row each.

    rows: iterable of (t_hours, EffectiveResponse).
    """
    lines = ["t_hours,q_heat_x,q_heat_y,q_moist_x,q_moist_y,s_t,s_f"]
    for t_h, r in rows:
        vals = [t_h, r.q_heat[0], r.q_heat[1], r.q_moist[0], r.q_moist[1],
                r.s_t, r.s_f]
        lines.append(",".join(_fmt(v) for v in vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
