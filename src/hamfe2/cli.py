"""Command line entry points.

Subcommands
    solve-fine   single-scale transient solve on a resolved mesh
    solve-rve    transient unit-cell run under fixed macroscopic loading
    solve-fe2    nested two-scale transient solve
    gen-mesh     write a rectangle, unit-cell or resolved-wall mesh
    compare      cell-averaged discrepancy between two saved histories

All subcommands read one INI scenario file, named by --config. The
flags --workers, --dt-hours, --t-end-hours, --output-dir and --seed
override the [scenario] keys of the same names: a flag beats the file.
The file and the flags are the whole input of a run; no environment
variable is read.

Exit status: 0 on success, 1 for configuration errors (every offending
key is listed), 2 when a solve aborts or input data is inconsistent.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .config import (ConfigError, ScenarioConfig, SectionReader,
                     boundary_schedule_from, initial_from, load_materials,
                     load_scenario, scenario_settings, solver_config_from)
from .fe2 import FE2Error, build_grid_cell_map, compare_fields, fe2_solve
from .fem import FieldState
from .homogenization import CellProblem, MacroLoading, solve_rve_increment
from .mesh import (MeshError, generate_masonry_cell, generate_masonry_wall,
                   generate_rectangle_mesh, load_mesh, save_mesh)
from .results import (read_history_csv, write_comparison_report,
                      write_response_table, write_results, write_round_log,
                      write_step_log)
from .scheduler import SchedulerError
from .solver import SolverError, transient_solve

log = logging.getLogger("hamfe2.cli")

# flag names, each the [scenario] key it overrides
OVERRIDE_KEYS = ("workers", "dt_hours", "t_end_hours", "output_dir", "seed")


def apply_overrides(config: ScenarioConfig, overrides):
    for name, value in overrides.items():
        if value is None:
            continue
        if name == "output_dir":
            value = os.path.abspath(value)
        config.set("scenario", name, value)


# --------------------------------------------------------- plan builders


def _load_mesh_checked(path, label, problems):
    if path is None:
        return None
    try:
        return load_mesh(path)
    except (MeshError, OSError, ValueError) as exc:
        problems.append(f"{label}: {exc}")
        return None


def _materials_checked(settings, problems):
    if settings.materials_path is None:
        return None
    try:
        return load_materials(settings.materials_path)
    except ConfigError as exc:
        problems.extend(exc.problems)
        return None


def _check_phases_covered(mesh, materials, label, problems):
    if mesh is None or materials is None:
        return
    for phase in mesh.phase_names:
        if phase not in materials:
            problems.append(f"{label}: material '{phase}' is not defined "
                            f"in the materials file")


def _check_boundary_sets(schedule, mesh, problems):
    if mesh is None:
        return
    for field_name in ("theta", "phi"):
        for set_name in sorted(schedule.rules[field_name]):
            if set_name not in mesh.boundary:
                problems.append(f"boundary:{field_name}.{set_name}: no "
                                f"boundary set '{set_name}' in the mesh")


def _macro_mesh(config, problems):
    reader = SectionReader(config, "macro", problems)
    path = reader.get_path("mesh", required=True, must_exist=True)
    reader.reject_unknown()
    return _load_mesh_checked(path, "macro.mesh", problems)


def _finish(problems):
    if problems:
        raise ConfigError(problems)


def _outdir(settings):
    os.makedirs(settings.output_dir, exist_ok=True)
    return settings.output_dir


# ---------------------------------------------------------- subcommands


def _cmd_solve_fine(config: ScenarioConfig):
    problems = []
    settings = scenario_settings(config, problems)
    solver_cfg = solver_config_from(config, problems)
    materials = _materials_checked(settings, problems)
    mesh = _macro_mesh(config, problems)
    theta0, phi0 = initial_from(config, problems)
    schedule = boundary_schedule_from(config, problems, seed=settings.seed)
    _check_phases_covered(mesh, materials, "macro.mesh", problems)
    _check_boundary_sets(schedule, mesh, problems)
    _finish(problems)

    initial = FieldState.uniform(mesh.n_nodes, theta0, phi0)
    history = transient_solve(mesh, materials, schedule, initial,
                              settings.dt_hours, settings.t_end_hours,
                              solver_cfg)
    outdir = _outdir(settings)
    write_results(history, settings.format, outdir, mesh=mesh)
    write_step_log(history, os.path.join(outdir, "steps.csv"))
    print(f"solve-fine: {len(history.times) - 1} steps on {mesh.n_nodes} "
          f"nodes, {sum(history.newton_iterations)} Newton iterations, "
          f"{sum(history.factorizations)} factorizations, results in "
          f"{outdir}")
    return 0


def _cmd_solve_fe2(config: ScenarioConfig):
    problems = []
    settings = scenario_settings(config, problems)
    solver_cfg = solver_config_from(config, problems)
    materials = _materials_checked(settings, problems)
    mesh = _macro_mesh(config, problems)
    theta0, phi0 = initial_from(config, problems)
    schedule = boundary_schedule_from(config, problems, seed=settings.seed)
    _check_boundary_sets(schedule, mesh, problems)

    region_paths = config.section("regions")
    if not region_paths:
        problems.append("regions: at least one region -> cell mesh entry "
                        "is required")
    cells = {}
    for region in sorted(region_paths):
        cell_mesh = _load_mesh_checked(config.resolve(region_paths[region]),
                                       f"regions.{region}", problems)
        if mesh is not None and region not in mesh.phase_names:
            problems.append(f"regions.{region}: no such region in the "
                            f"macro mesh")
        _check_phases_covered(cell_mesh, materials, f"regions.{region}",
                              problems)
        if cell_mesh is not None and materials is not None:
            cells[region] = CellProblem(cell_mesh, materials, solver_cfg)
    if mesh is not None:
        for phase in mesh.phase_names:
            if phase not in region_paths:
                problems.append(f"regions.{phase}: missing cell mesh for "
                                f"macro region '{phase}'")
    _finish(problems)

    initial = FieldState.uniform(mesh.n_nodes, theta0, phi0)
    result = fe2_solve(mesh, cells, schedule, initial, settings.dt_hours,
                       settings.t_end_hours, solver_cfg,
                       n_workers=settings.workers)
    outdir = _outdir(settings)
    write_results(result.history, settings.format, outdir, mesh=mesh)
    write_step_log(result.history, os.path.join(outdir, "steps.csv"))
    write_round_log(result.rounds, os.path.join(outdir, "rounds.csv"))
    history = result.history
    print(f"solve-fe2: {len(history.times) - 1} steps, "
          f"{sum(history.newton_iterations)} macro Newton iterations, "
          f"{sum(history.factorizations)} factorizations, "
          f"{settings.workers} workers, results in {outdir}")
    return 0


def _cmd_solve_rve(config: ScenarioConfig):
    problems = []
    settings = scenario_settings(config, problems, need_time=False)
    solver_cfg = solver_config_from(config, problems)
    materials = _materials_checked(settings, problems)
    reader = SectionReader(config, "rve", problems)
    mesh_path = reader.get_path("mesh", required=True, must_exist=True)
    theta = reader.get_float("theta", required=True)
    phi = reader.get_float("phi", required=True, minimum=0.0, maximum=1.0)
    grad = {key: reader.get_float(key, 0.0)
            for key in ("grad_theta_x", "grad_theta_y",
                        "grad_phi_x", "grad_phi_y")}
    steps = reader.get_int("steps", 1, minimum=1)
    reader.reject_unknown()
    cell_mesh = _load_mesh_checked(mesh_path, "rve.mesh", problems)
    _check_phases_covered(cell_mesh, materials, "rve.mesh", problems)
    _finish(problems)

    cell = CellProblem(cell_mesh, materials, solver_cfg)
    loading = MacroLoading(theta, phi,
                           np.array([grad["grad_theta_x"],
                                     grad["grad_theta_y"]]),
                           np.array([grad["grad_phi_x"], grad["grad_phi_y"]]),
                           settings.dt_hours * 3600.0)
    state = cell.initial_state(loading)
    rows = []
    for k in range(steps):
        state, response = solve_rve_increment(cell, state, loading)
        rows.append(((k + 1) * settings.dt_hours, response))
    outdir = _outdir(settings)
    path = os.path.join(outdir, "response.csv")
    write_response_table(rows, path)
    final = rows[-1][1]
    print(f"solve-rve: {steps} steps, final q_heat = ({final.q_heat[0]:.6g}, "
          f"{final.q_heat[1]:.6g}) W/m^2, table in {path}")
    return 0


def _cmd_gen_mesh(config: ScenarioConfig):
    problems = []
    reader = SectionReader(config, "mesh", problems)
    kind = reader.get_str("kind", required=True,
                          choices=("rectangle", "masonry-cell",
                                   "masonry-wall"))
    out = reader.get_path("out", required=True)
    mesh = None
    if kind == "rectangle":
        lx = reader.get_float("lx", required=True, minimum=1e-12)
        ly = reader.get_float("ly", required=True, minimum=1e-12)
        nx = reader.get_int("nx", required=True, minimum=1)
        ny = reader.get_int("ny", required=True, minimum=1)
        phase = reader.get_str("phase", "solid")
        reader.reject_unknown()
        _finish(problems)
        mesh = generate_rectangle_mesh(lx, ly, nx, ny, phase)
    elif kind in ("masonry-cell", "masonry-wall"):
        brick_w = reader.get_float("brick_w", required=True, minimum=1e-12)
        brick_h = reader.get_float("brick_h", required=True, minimum=1e-12)
        joint_t = reader.get_float("joint_t", required=True, minimum=1e-12)
        bond = reader.get_str("bond", "stack", choices=("stack", "running"))
        resolution = reader.get_int("resolution", 2, minimum=2)
        if kind == "masonry-wall":
            nx_cells = reader.get_int("nx_cells", required=True, minimum=1)
            ny_cells = reader.get_int("ny_cells", required=True, minimum=1)
        reader.reject_unknown()
        _finish(problems)
        if kind == "masonry-cell":
            mesh = generate_masonry_cell(brick_w, brick_h, joint_t, bond,
                                         resolution)
        else:
            mesh = generate_masonry_wall(brick_w, brick_h, joint_t, nx_cells,
                                         ny_cells, bond, resolution)
    else:
        _finish(problems)
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    save_mesh(out, mesh)
    print(f"gen-mesh: wrote {out} ({mesh.n_nodes} nodes, "
          f"{mesh.n_triangles} triangles)")
    return 0


def _cmd_compare(config: ScenarioConfig):
    problems = []
    settings = scenario_settings(config, problems, need_materials=False,
                                 need_time=False)
    reader = SectionReader(config, "compare", problems)
    fine_mesh_path = reader.get_path("fine_mesh", required=True,
                                     must_exist=True)
    coarse_mesh_path = reader.get_path("coarse_mesh", required=True,
                                       must_exist=True)
    fine_results = reader.get_path("fine_results", required=True)
    coarse_results = reader.get_path("coarse_results", required=True)
    nx = reader.get_int("nx", required=True, minimum=1)
    ny = reader.get_int("ny", required=True, minimum=1)
    reader.reject_unknown()
    fine_mesh = _load_mesh_checked(fine_mesh_path, "compare.fine_mesh",
                                   problems)
    coarse_mesh = _load_mesh_checked(coarse_mesh_path, "compare.coarse_mesh",
                                     problems)
    for label, outdir in (("compare.fine_results", fine_results),
                          ("compare.coarse_results", coarse_results)):
        if outdir and not os.path.isfile(os.path.join(outdir, "theta.csv")):
            problems.append(f"{label}: no theta.csv under '{outdir}'")
    _finish(problems)

    fine = read_history_csv(fine_results)
    coarse = read_history_csv(coarse_results)
    for label, history, mesh in (("fine", fine, fine_mesh),
                                 ("coarse", coarse, coarse_mesh)):
        if history.states and history.states[0].n_nodes != mesh.n_nodes:
            raise FE2Error(
                f"compare.{label}_results hold {history.states[0].n_nodes} "
                f"nodes, but compare.{label}_mesh has {mesh.n_nodes}")
    cell_map = build_grid_cell_map(fine_mesh, coarse_mesh, nx, ny)
    report = compare_fields(fine, coarse, cell_map)
    outdir = _outdir(settings)
    path = os.path.join(outdir, "report.csv")
    write_comparison_report(report, path)
    print(f"compare: |dT| = {report.abs_theta:.6g} degC "
          f"({report.rel_theta:.6g} %), |dphi| = {report.abs_phi:.6g} "
          f"({report.rel_phi:.6g} %) over {report.n_cells} cells and "
          f"{report.n_times} times; report in {path}")
    return 0


# subcommand -> handler, in the order of the module notes and --help
_DISPATCH = {"solve-fine": _cmd_solve_fine, "solve-rve": _cmd_solve_rve,
             "solve-fe2": _cmd_solve_fe2, "gen-mesh": _cmd_gen_mesh,
             "compare": _cmd_compare}


def run_scenario(path, subcommand, overrides=None) -> int:
    """Execute one subcommand against the scenario file at path.

    Returns the process exit status; artifacts land in the configured
    output directory. Configuration defects are all reported at once.
    """
    if subcommand not in _DISPATCH:
        print(f"unknown subcommand '{subcommand}'", file=sys.stderr)
        return 1
    try:
        config = load_scenario(path)
        apply_overrides(config, overrides or {})
        return _DISPATCH[subcommand](config)
    except ConfigError as exc:
        print("configuration invalid:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    except (SolverError, SchedulerError, FE2Error, MeshError,
            ValueError, OSError) as exc:
        print(f"{subcommand} failed: {exc}", file=sys.stderr)
        return 2


def build_argparser():
    parser = argparse.ArgumentParser(
        prog="hamfe2",
        description="Coupled heat and moisture transport in masonry, "
                    "single-scale or FE2 two-scale.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", help="scenario INI file")
        p.add_argument("--workers", type=int)
        p.add_argument("--dt-hours", dest="dt_hours", type=float)
        p.add_argument("--t-end-hours", dest="t_end_hours", type=float)
        p.add_argument("--output-dir", dest="output_dir")
        p.add_argument("--seed", type=int)
    return parser


def main(argv=None) -> int:
    args = build_argparser().parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.config is None:
        print("no scenario file: pass --config", file=sys.stderr)
        return 1
    overrides = {name: getattr(args, name) for name in OVERRIDE_KEYS}
    return run_scenario(args.config, args.subcommand, overrides)


if __name__ == "__main__":
    raise SystemExit(main())
