"""The benchmark's workloads, and one timed set-up and solve of one of them.

Run as a script, this module measures or checks one workload in a fresh
process and prints one JSON line:

    PYTHONPATH=src python3 perfbench/workloads.py --workload fine-wall \
        --seed 0 --role measure --seconds 20 --out .perfbench_out/x

`--role measure` repeats cycles of timed set-ups and a timed solve for
`--seconds` (see run_cycles). `--role check` solves once more untimed,
with one worker for FE2, and compares FE2 with the fine solve of the
same wall. `run.py` starts both processes and combines their lines; it
is the command to use.

Every input comes from the seed through `synthetic_annual_climate`, so
the seed changes only the climate noise on the exterior face.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

BRICK_W, BRICK_H, JOINT_T = 0.29, 0.14, 0.01
BOND = "running"
DT_HOURS = 1.0
THETA0, PHI0 = 20.0, 0.5             # initial state, also held indoors
WORKERS = 2
SETUPS = 3                           # timed set-ups per measured cycle
# slack of the theta range check: Crank-Nicolson is not monotone, and
# after the exterior face drops by about 20 K in the first hour the
# fine wall undershoots the coldest boundary value by up to 0.9 K
# (seeds 0 to 9)
THETA_SLACK = 1.5                    # K


@dataclass(frozen=True)
class Workload:
    name: str
    wall: tuple          # masonry cells of the wall (x, y)
    resolution: int      # elements across a joint
    steps: int           # one-hour steps
    macro: tuple = None  # macro squares (x, y) for FE2; None: fine solve
    # FE2 only: bounds on compare_fields against the fine solve of the
    # same wall, mean |dT| [K] and mean |dphi| [-] over cells and steps;
    # the largest values of seeds 0 to 9 are in the README
    max_abs_theta: float = None
    max_abs_phi: float = None


WORKLOADS = {w.name: w for w in (
    Workload("fine-wall", (8, 8), 4, 3),
    Workload("fe2-many-points", (4, 4), 2, 2, (4, 4), 2.5, 1e-5),
    Workload("fe2-fine-cells", (2, 1), 4, 2, (2, 1), 5.0, 1e-5),
)}


def inputs(seed):
    """Boundary schedule: the seed's synthetic climate outside, indoors inside.

    The exterior face takes the climate's temperature; its humidity is
    held at the initial value like the interior's. With the climate's
    humidity on that face, Newton iteration counts change with the
    noise realization (25 to 37 over two steps of a 6 x 6-cell wall for
    seeds 0 to 4), and so would the work a run measures.
    """
    from hamfe2 import BoundaryRule, BoundarySchedule, synthetic_annual_climate
    climate = synthetic_annual_climate(seed)
    return BoundarySchedule(
        {"left": BoundaryRule("theta", series=climate),
         "right": BoundaryRule("theta", constant=THETA0)},
        {"left": BoundaryRule("phi", constant=PHI0),
         "right": BoundaryRule("phi", constant=PHI0)})


class Problem:
    """One set-up of a workload: what every run builds before its first step."""

    def __init__(self, workload: Workload, n_workers=WORKERS):
        from hamfe2 import (CellProblem, FE2Driver, FieldState,
                            default_materials, generate_masonry_cell,
                            generate_masonry_wall, generate_rectangle_mesh)
        self.workload = workload
        self.materials = default_materials()
        self.driver = None
        nx, ny = workload.wall
        if workload.macro is None:
            self.mesh = generate_masonry_wall(BRICK_W, BRICK_H, JOINT_T, nx,
                                              ny, BOND, workload.resolution)
        else:
            cell_mesh = generate_masonry_cell(BRICK_W, BRICK_H, JOINT_T, BOND,
                                              workload.resolution)
            px, py = cell_mesh.bbox
            self.mesh = generate_rectangle_mesh(nx * px, ny * py,
                                                *workload.macro, phase="wall")
            cells = {"wall": CellProblem(cell_mesh, self.materials)}
        self.initial = FieldState.uniform(self.mesh.n_nodes, THETA0, PHI0)
        if workload.macro is not None:
            # the body of fe2_solve, split so that the driver start
            # (initial cell responses, pool fork) counts as set-up
            self.driver = FE2Driver(self.mesh, cells, self.initial,
                                    n_workers=n_workers,
                                    init_dt=DT_HOURS * 3600.0)

    def solve(self, schedule):
        from hamfe2 import transient_solve
        if self.driver is None:
            return transient_solve(self.mesh, self.materials, schedule,
                                   self.initial, DT_HOURS,
                                   self.workload.steps * DT_HOURS)
        return self.driver.solve(schedule, self.initial, DT_HOURS,
                                 self.workload.steps * DT_HOURS)

    def rounds(self):
        if self.driver is None:
            return 0
        return len({rec.round_index for rec in self.driver.pool.timings})

    def close(self):
        if self.driver is not None:
            self.driver.close()


# ----------------------------------------------------------------- checks


def digest(history):
    """sha256 of every stored state and time, bit for bit."""
    h = hashlib.sha256()
    for state in history.states:
        h.update(np.float64(state.time).tobytes())
        h.update(np.ascontiguousarray(state.vector()).tobytes())
    return h.hexdigest()


def range_problems(problem: Problem, schedule, history):
    """theta within its initial and boundary range, phi within [0, 1]."""
    mesh = problem.mesh
    n = mesh.n_nodes
    bc = [v for t in history.times[1:]
          for dof, v in schedule.dirichlet_values(mesh, t).items() if dof < n]
    lo = min([THETA0] + bc) - THETA_SLACK
    hi = max([THETA0] + bc) + THETA_SLACK
    theta, phi = history.theta_array(), history.phi_array()
    out = []
    if theta.min() < lo or theta.max() > hi:
        out.append(f"theta range [{theta.min():.4f}, {theta.max():.4f}] "
                   f"leaves [{lo:.4f}, {hi:.4f}]")
    if phi.min() < 0.0 or phi.max() > 1.0:
        out.append(f"phi range [{phi.min():.6f}, {phi.max():.6f}] "
                   "leaves [0, 1]")
    return out


def residual_problems(problem: Problem, schedule, history):
    """Crank-Nicolson residual of each stored step against Newton's target.

    Recomputed from the stored states with assemble_system, scaled and
    reduced as the solver does: ||R/C|| on the free dofs at the accepted
    state must not exceed max(tol * ||R0/C0||, floor), R0 being the
    residual at the step's start iterate.
    """
    from hamfe2 import FieldState, SolverConfig
    from hamfe2.fem import assemble_system, dirichlet_map
    cfg = SolverConfig()
    mesh, mats = problem.mesh, problem.materials
    dt = DT_HOURS * 3600.0

    def parts(u):
        sysm = assemble_system(mesh, FieldState.from_vector(u), mats)
        K = sysm.stiffness()
        return K @ u, sysm.storage_diagonal(), sysm.f

    out = []
    for k in range(1, len(history.states)):
        u0 = history.states[k - 1].vector()
        u1 = history.states[k].vector()
        cmap = dirichlet_map(2 * mesh.n_nodes,
                             schedule.dirichlet_values(mesh, history.times[k]))
        fint0, _, f0 = parts(u0)

        def scaled(u):
            fint, C, f = parts(u)
            R = C * (u - u0) / dt + 0.5 * (fint + fint0) - 0.5 * (f + f0)
            w = 1.0 / np.maximum(C[cmap.free_index], 1e-300)
            return float(np.linalg.norm(w * cmap.reduce_vector(R)))

        start = cmap.expand(cmap.initial_reduced(u0))
        target = max(cfg.newton_tol * scaled(start), cfg.newton_floor)
        norm = scaled(u1)
        if not norm <= target:
            out.append(f"step {k}: scaled residual {norm:.3e} above the "
                       f"Newton target {target:.3e}")
    return out


def comparison(workload: Workload, schedule, history):
    """compare_fields of an FE2 history against the fine solve of its wall."""
    from hamfe2 import (FieldState, build_grid_cell_map, compare_fields,
                        default_materials, generate_masonry_wall,
                        generate_rectangle_mesh, transient_solve)
    nx, ny = workload.wall
    fine = generate_masonry_wall(BRICK_W, BRICK_H, JOINT_T, nx, ny, BOND,
                                 workload.resolution)
    lx, ly = fine.bbox
    macro = generate_rectangle_mesh(lx, ly, *workload.macro, phase="wall")
    ref = transient_solve(fine, default_materials(), schedule,
                          FieldState.uniform(fine.n_nodes, THETA0, PHI0),
                          DT_HOURS, workload.steps * DT_HOURS)
    report = compare_fields(ref, history,
                            build_grid_cell_map(fine, macro, nx, ny))
    return {"abs_theta": report.abs_theta, "rel_theta": report.rel_theta,
            "abs_phi": report.abs_phi, "rel_phi": report.rel_phi}


# ------------------------------------------------------------ measuring


def _vm_hwm_kb(pid):
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError(f"no VmHWM for process {pid}")


def peak_rss_mb():
    """Peak resident set of this process plus that of each live child."""
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0


def run_cycles(workload, seed, seconds, tracer=None):
    """Set up and solve again and again for `seconds`; every figure of it.

    Each cycle times SETUPS set-ups (the last one is solved) and the
    solve. The peak resident memory is read in the first cycle, before
    its workers stop, so later cycles cannot move it. The first cycle's
    history is checked in full; every later one must match it bit for
    bit. With a tracer, each cycle has one set-up and is traced whole.
    """
    schedule = inputs(seed)
    setups = 1 if tracer is not None else SETUPS
    out = {"setup_s": [], "solve_s": [], "attempted": 0, "failed": 0,
           "problems": [], "layers": []}
    start = time.monotonic()
    while not out["solve_s"] or time.monotonic() - start < seconds:
        if tracer is not None:
            tracer.reset()
            tracer.enabled = True
        for k in range(setups):
            gc.collect()
            t0 = time.perf_counter()
            problem = Problem(workload)
            out["setup_s"].append(time.perf_counter() - t0)
            if k < setups - 1:
                problem.close()
        gc.collect()
        out["attempted"] += workload.steps
        t0 = time.perf_counter()
        try:
            history = problem.solve(schedule)
        except Exception as exc:  # a step failed even after its retry
            problem.close()
            out["failed"] += workload.steps
            out["problems"].append(f"solve failed: {type(exc).__name__}: "
                                   f"{exc}")
            continue
        solve_s = time.perf_counter() - t0
        out["solve_s"].append(solve_s)
        if tracer is not None:
            tracer.enabled = False
        if "peak_rss_mb" not in out:
            out["peak_rss_mb"] = peak_rss_mb()
        rounds = problem.rounds()
        problem.close()
        if tracer is not None:
            from tracing import layer_metrics
            records = [tracer.record()] + tracer.collect_children()
            out["layers"].append(layer_metrics(records, out["setup_s"][-1],
                                               solve_s))
        if "digest" not in out:
            out["digest"] = digest(history)
            out["counts"] = {"newton_iterations": history.newton_iterations,
                             "rounds": rounds}
            out["problems"] += range_problems(problem, schedule, history)
            if workload.macro is None:
                out["problems"] += residual_problems(problem, schedule,
                                                     history)
        elif digest(history) != out["digest"]:
            out["problems"].append("a repeated solve changed the final state")
    return out


def run_check(workload, seed):
    schedule = inputs(seed)
    problem = Problem(workload, n_workers=1)
    try:
        history = problem.solve(schedule)
    finally:
        problem.close()
    out = {"digest": digest(history),
           "problems": range_problems(problem, schedule, history)}
    if workload.macro is not None:
        report = comparison(workload, schedule, history)
        out["comparison"] = report
        if not (report["abs_theta"] <= workload.max_abs_theta
                and report["abs_phi"] <= workload.max_abs_phi):
            out["problems"].append(
                f"FE2 against fine: |dT| {report['abs_theta']:.4g} K "
                f"(bound {workload.max_abs_theta}), |dphi| "
                f"{report['abs_phi']:.4g} (bound {workload.max_abs_phi})")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("measure", "check"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.role == "check":
        result = run_check(workload, args.seed)
    else:
        tracer = None
        if args.trace:
            from tracing import Tracer
            os.makedirs(args.out, exist_ok=True)
            tracer = Tracer(args.out)
            missing = tracer.install()
            if missing:
                print(f"not traced (not found): {missing}", file=sys.stderr)
        result = run_cycles(workload, args.seed, args.seconds, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
