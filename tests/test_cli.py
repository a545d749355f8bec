"""End-to-end command line runs, in process through main()."""

import os

import numpy as np
import pytest

from hamfe2.cli import main, run_scenario
from hamfe2.config import ConfigError, load_materials
from hamfe2.constitutive import default_materials
from hamfe2.mesh import load_mesh
from hamfe2.results import read_history_csv

LINEAR_MATS = """\
[solid]
type = linear
k_tt = 0.5
k_ff = 2e-7
c_tt = 2e6
c_ff = 40
"""

BRICK_MATS = """\
[brick]
type = kunzel
w_f = 229.30
w_80 = 141.68
lambda_0 = 0.25
b_tcs = 10
rho_s = 1690
mu = 16.80
A = 0.51
c_s = 840
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def gen_square(tmp_path, name="square.msh", nx=2, ny=2, lx=1.0, ly=1.0,
               phase="solid"):
    cfg = write(tmp_path / f"gen_{name}.ini", f"""\
[mesh]
kind = rectangle
lx = {lx}
ly = {ly}
nx = {nx}
ny = {ny}
phase = {phase}
out = {name}
""")
    assert main(["gen-mesh", "--config", cfg]) == 0
    return str(tmp_path / name)


def fine_scenario(tmp_path, extra="", solver=""):
    write(tmp_path / "mats.ini", LINEAR_MATS)
    gen_square(tmp_path)
    return write(tmp_path / "fine.ini", f"""\
[scenario]
dt_hours = 0.5
t_end_hours = 2
materials = mats.ini
output_dir = out
{extra}
[macro]
mesh = square.msh

[initial]
theta = 20
phi = 0.5

[boundary:theta]
left = 30
right = 20

[boundary:phi]
left = 0.7
right = 0.5
{solver}""")


class TestGenMesh:

    def test_two_by_two_rectangle_has_nine_nodes(self, tmp_path, capsys):
        path = gen_square(tmp_path)
        mesh = load_mesh(path)
        assert mesh.n_nodes == 9
        assert "9 nodes" in capsys.readouterr().out

    def test_masonry_cell_kind(self, tmp_path):
        cfg = write(tmp_path / "g.ini", """\
[mesh]
kind = masonry-cell
brick_w = 0.24
brick_h = 0.10
joint_t = 0.02
out = cell.msh
""")
        assert main(["gen-mesh", "--config", cfg]) == 0
        mesh = load_mesh(str(tmp_path / "cell.msh"))
        assert set(mesh.phase_names) == {"brick", "mortar"}

    def test_missing_keys_all_reported(self, tmp_path, capsys):
        cfg = write(tmp_path / "g.ini", "[mesh]\nkind = rectangle\n")
        assert main(["gen-mesh", "--config", cfg]) == 1
        err = capsys.readouterr().err
        for key in ("mesh.out", "mesh.lx", "mesh.ly", "mesh.nx", "mesh.ny"):
            assert key in err

    def test_out_naming_a_directory_exits_two(self, tmp_path, capsys):
        (tmp_path / "taken").mkdir()
        cfg = write(tmp_path / "g.ini", """\
[mesh]
kind = rectangle
lx = 1
ly = 1
nx = 1
ny = 1
out = taken
""")
        assert main(["gen-mesh", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "gen-mesh failed:" in err
        assert "Traceback" not in err


class TestSolveFine:

    def test_writes_history_and_step_log(self, tmp_path, capsys):
        cfg = fine_scenario(tmp_path)
        assert main(["solve-fine", "--config", cfg]) == 0
        out = tmp_path / "out"
        history = read_history_csv(str(out))
        assert len(history.times) == 5          # initial state plus 4 steps
        assert history.times[-1] == pytest.approx(2 * 3600.0)
        steps = (out / "steps.csv").read_text().splitlines()
        assert len(steps) == 6
        # the material is linear: each step takes one Newton update, and
        # the factors of the first serve all four
        assert steps[0] == "step,t_hours,iterations,factorizations,wall_s"
        assert [row.split(",")[2:4] for row in steps[1:]] == \
            [["0", "0"]] + [["1", "1"]] + [["1", "0"]] * 3
        assert ("4 Newton iterations, 1 factorizations"
                in capsys.readouterr().out)
        # Dirichlet values are reproduced exactly at the boundary nodes
        mesh = load_mesh(str(tmp_path / "square.msh"))
        theta = history.final.theta
        assert np.all(theta[mesh.boundary_nodes("left")] == 30.0)
        assert np.all(theta[mesh.boundary_nodes("right")] == 20.0)

    def test_vtk_format_writes_one_file_per_frame(self, tmp_path):
        cfg = fine_scenario(tmp_path, extra="format = vtk\n")
        assert main(["solve-fine", "--config", cfg]) == 0
        frames = sorted(p.name for p in (tmp_path / "out").glob("*.vtk"))
        assert frames[0] == "frame_0000.vtk" and len(frames) == 5

    def test_solver_abort_exits_two(self, tmp_path, capsys):
        write(tmp_path / "mats.ini", BRICK_MATS)
        gen_square(tmp_path, phase="brick")
        cfg = write(tmp_path / "s.ini", """\
[scenario]
dt_hours = 1.0
t_end_hours = 2
materials = mats.ini
output_dir = out

[macro]
mesh = square.msh

[initial]
theta = 20
phi = 0.2

[boundary:theta]
left = 75

[boundary:phi]
left = 0.98

[solver]
max_iterations = 1
""")
        assert main(["solve-fine", "--config", cfg]) == 2
        assert "did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("section, old, new", [
        ("boundary:theta", "left = 30", "left = nan"),
        ("boundary:theta", "left = 30", "left = inf"),
        ("boundary:phi", "left = 0.7", "left = 1.5")])
    def test_bad_boundary_constant_exits_one(self, tmp_path, capsys,
                                             section, old, new):
        cfg = fine_scenario(tmp_path)
        text = (tmp_path / "fine.ini").read_text()
        assert text.count(old) == 1
        write(tmp_path / "fine.ini", text.replace(old, new))
        assert main(["solve-fine", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "configuration invalid:" in err
        assert f"{section}.left:" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_mesh_header_without_count_exits_one(self, tmp_path, capsys):
        cfg = fine_scenario(tmp_path)
        mesh_file = tmp_path / "square.msh"
        lines = mesh_file.read_text().splitlines()
        mesh_file.write_text("\n".join(["nodes"] + lines[1:]) + "\n")
        assert main(["solve-fine", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "macro.mesh:" in err and str(mesh_file) in err

    def test_non_physical_linear_material_exits_one(self, tmp_path, capsys):
        cfg = fine_scenario(tmp_path)
        write(tmp_path / "mats.ini", LINEAR_MATS.replace("k_tt = 0.5",
                                                         "k_tt = -2.0")
              .replace("c_tt = 2e6", "c_tt = 0.0"))
        assert main(["solve-fine", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "solid:" in err and "k_tt" in err and "c_tt" in err
        assert not (tmp_path / "out" / "theta.csv").exists()

    def test_degenerate_kunzel_isotherm_exits_one(self, tmp_path, capsys):
        # w_80 passes MaterialParams, but the approximation factor b
        # rounds to exactly 1
        cfg = fine_scenario(tmp_path)
        mats = write(tmp_path / "mats.ini",
                     BRICK_MATS.replace("w_80 = 141.68", "w_80 = 1e-300"))
        with pytest.raises(ConfigError) as exc:
            load_materials(mats)
        assert any(p.startswith("brick:") and "not above 1" in p
                   for p in exc.value.problems)
        assert run_scenario(cfg, "solve-fine") == 1
        err = capsys.readouterr().err
        assert "configuration invalid:" in err and "not above 1" in err
        assert not (tmp_path / "out" / "theta.csv").exists()

    def test_mesh_node_outside_every_triangle_exits_one(self, tmp_path,
                                                        capsys):
        # a node no triangle uses is a configuration error, listed with
        # the others, not a traceback from the solver's workspace
        cfg = fine_scenario(tmp_path)
        mesh_file = tmp_path / "square.msh"
        lines = mesh_file.read_text().splitlines()
        n = int(lines[0].split()[1])
        lines[0] = f"nodes {n + 1}"
        lines.insert(n + 1, "2 2")
        mesh_file.write_text("\n".join(lines) + "\n")
        assert run_scenario(cfg, "solve-fine") == 1
        err = capsys.readouterr().err
        assert "configuration invalid:" in err
        assert f"macro.mesh: node {n} belongs to no triangle" in err
        assert not (tmp_path / "out" / "theta.csv").exists()

    def test_mesh_triangle_listed_twice_exits_one(self, tmp_path, capsys):
        # a triangle listed twice would be assembled twice; the file is
        # a configuration error, listed with the others
        cfg = fine_scenario(tmp_path)
        mesh_file = tmp_path / "square.msh"
        lines = mesh_file.read_text().splitlines()
        t = lines.index("triangles 8")
        lines[t] = "triangles 9"
        lines.insert(t + 9, lines[t + 1])
        p = lines.index("phases 8")
        lines[p] = "phases 9"
        lines.insert(p + 1, lines[p + 1])
        mesh_file.write_text("\n".join(lines) + "\n")
        assert run_scenario(cfg, "solve-fine") == 1
        err = capsys.readouterr().err
        assert "configuration invalid:" in err
        assert ("macro.mesh: triangles 0 and 8 both hold the directed edge "
                "0->1") in err
        assert not (tmp_path / "out" / "theta.csv").exists()

    @pytest.mark.parametrize("row", ["1 zero", "0.5"])
    def test_malformed_mesh_row_exits_one(self, tmp_path, capsys, row):
        cfg = fine_scenario(tmp_path)
        mesh_file = tmp_path / "square.msh"
        lines = mesh_file.read_text().splitlines()
        mesh_file.write_text("\n".join(lines[:1] + [row] + lines[2:]) + "\n")
        assert main(["solve-fine", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "macro.mesh:" in err and f"{mesh_file}:2:" in err

    def test_config_errors_list_every_offending_key(self, tmp_path, capsys):
        gen_square(tmp_path)
        cfg = write(tmp_path / "bad.ini", """\
[scenario]
dt_hours = fast
workers = -3
materials = nope.ini

[macro]
mesh = square.msh

[initial]
theta = 24

[boundary:theta]
north = 20
""")
        assert main(["solve-fine", "--config", cfg]) == 1
        err = capsys.readouterr().err
        for frag in ("scenario.dt_hours", "scenario.t_end_hours",
                     "scenario.workers", "scenario.materials", "initial.phi",
                     "boundary:theta.north"):
            assert frag in err

    @pytest.mark.parametrize("solver", [
        "newton_tol = 1\n", "newton_tol = 0\nnewton_floor = 0\n"],
        ids=["tol-one", "zero-target"])
    def test_newton_target_of_all_or_nothing_exits_one(self, tmp_path, capsys,
                                                       solver):
        # newton_tol = 1 would return every step's start iterate with
        # exit 0, and a zero target would retry and exit 2: both are
        # configuration errors
        cfg = fine_scenario(tmp_path, solver="[solver]\n" + solver)
        assert main(["solve-fine", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "configuration invalid:" in err and "solver.newton_tol" in err
        assert not (tmp_path / "out" / "theta.csv").exists()

    def test_removed_retry_switch_is_an_unknown_key(self, tmp_path, capsys):
        # a failed step is always retried once at dt/2; the old switch
        # is reported, not ignored
        cfg = fine_scenario(tmp_path, solver="[solver]\nretry_halving = off\n")
        assert main(["solve-fine", "--config", cfg]) == 1
        assert "solver.retry_halving: unknown key" in capsys.readouterr().err


class TestSolveRve:

    def scenario(self, tmp_path):
        write(tmp_path / "mats.ini", BRICK_MATS)
        gen_square(tmp_path, name="cell.msh", lx=0.1, ly=0.1, phase="brick")
        return write(tmp_path / "rve.ini", """\
[scenario]
dt_hours = 1.0
materials = mats.ini
output_dir = out

[rve]
mesh = cell.msh
theta = 20
phi = 0.5
grad_theta_x = 1.0
steps = 2
""")

    def test_homogeneous_cell_flux_matches_conductivity(self, tmp_path):
        """Unit theta gradient on a uniform brick cell: the averaged heat
        flux must equal -k_tt(theta, phi) from the constitutive law, and
        the moisture flux -k_ft from the vapor coupling."""
        cfg = self.scenario(tmp_path)
        assert main(["solve-rve", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "response.csv").read_text().splitlines()
        assert len(lines) == 3
        coeffs = default_materials()["brick"].coefficients(20.0, 0.5)
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")[1:]]
            assert vals[0] == pytest.approx(-coeffs.k_tt, rel=1e-7)
            assert vals[1] == 0.0
            assert vals[2] == pytest.approx(-coeffs.k_ft, rel=1e-4)

    def test_dt_hours_flag_sets_the_cell_step(self, tmp_path, capsys):
        cfg = self.scenario(tmp_path)
        # the cell step has one key, so no [rve] key can beat the flag
        stale = write(tmp_path / "stale.ini", open(cfg).read().replace(
            "steps = 2", "steps = 2\ndt_hours = 1.0"))
        assert main(["solve-rve", "--config", stale, "--dt-hours", "3"]) == 1
        assert "rve.dt_hours: unknown key" in capsys.readouterr().err
        assert main(["solve-rve", "--config", cfg, "--dt-hours", "3"]) == 0
        lines = (tmp_path / "out" / "response.csv").read_text().splitlines()
        assert [float(line.split(",")[0]) for line in lines[1:]] == [3, 6]


class TestSolveFe2:

    def scenario(self, tmp_path, extra=""):
        write(tmp_path / "mats.ini", LINEAR_MATS)
        gen_square(tmp_path, name="cell.msh", lx=0.1, ly=0.1)
        gen_square(tmp_path, name="macro.msh", lx=1.0, ly=0.5, nx=4, ny=2)
        return write(tmp_path / "fe2.ini", f"""\
[scenario]
dt_hours = 0.5
t_end_hours = 1
materials = mats.ini
output_dir = out
{extra}
[macro]
mesh = macro.msh

[regions]
solid = cell.msh

[initial]
theta = 20
phi = 0.5

[boundary:theta]
left = 30

[boundary:phi]
left = 0.7
""")

    def test_writes_history_and_both_logs(self, tmp_path, capsys):
        cfg = self.scenario(tmp_path)
        assert main(["solve-fe2", "--config", cfg]) == 0
        out = tmp_path / "out"
        history = read_history_csv(str(out))
        assert len(history.times) == 3
        rounds = (out / "rounds.csv").read_text().splitlines()
        assert rounds[0] == "round,worker,points,seconds"
        assert len(rounds) > 1
        steps = (out / "steps.csv").read_text().splitlines()
        assert steps[0] == "step,t_hours,iterations,factorizations,wall_s"
        # the macro step holds no factors: it factors at every iteration
        iters = sum(int(row.split(",")[2]) for row in steps[1:])
        assert iters > 0
        assert (f"{iters} macro Newton iterations, {iters} factorizations"
                in capsys.readouterr().out)

    def test_removed_cprime_option_is_rejected(self, tmp_path, capsys):
        cfg = self.scenario(tmp_path, extra="cprime = off\n")
        assert main(["solve-fe2", "--config", cfg]) == 1
        assert "scenario.cprime: unknown key" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["solve-fe2", "--config", cfg, "--cprime", "off"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cprime" in capsys.readouterr().err

    def test_region_and_material_mismatches_reported(self, tmp_path, capsys):
        cfg = self.scenario(tmp_path)
        text = open(cfg).read().replace("solid = cell.msh",
                                        "render = cell.msh")
        write(tmp_path / "fe2.ini", text)
        assert main(["solve-fe2", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "regions.render" in err      # not a macro region
        assert "regions.solid" in err       # macro region with no cell

    def test_workers_flag_beats_config(self, tmp_path, capsys):
        cfg = self.scenario(tmp_path, extra="workers = 1\n")
        assert main(["solve-fe2", "--config", cfg, "--workers", "2"]) == 0
        assert "2 workers" in capsys.readouterr().out
        assert main(["solve-fe2", "--config", cfg]) == 0
        assert "1 workers" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_crashed_cell_increment_exits_two(self, tmp_path, capsys, caplog,
                                              monkeypatch, workers):
        # a crash is not a refused increment: no dt/2 retry, status 2
        def crash(*args, **kwargs):
            raise RuntimeError("injected crash")

        monkeypatch.setattr("hamfe2.scheduler.solve_rve_increment", crash)
        caplog.set_level("WARNING", logger="hamfe2.solver")
        cfg = self.scenario(tmp_path)
        assert main(["solve-fe2", "--config", cfg, "--workers", workers]) == 2
        assert "worker 0 crashed" in capsys.readouterr().err
        assert not any("retrying" in rec.message for rec in caplog.records)


class TestCompare:

    def test_identical_histories_give_zero_report(self, tmp_path, capsys):
        fine = fine_scenario(tmp_path)
        assert main(["solve-fine", "--config", fine]) == 0
        cfg = write(tmp_path / "cmp.ini", """\
[scenario]
output_dir = cmp_out

[compare]
fine_mesh = square.msh
coarse_mesh = square.msh
fine_results = out
coarse_results = out
nx = 2
ny = 2
""")
        assert main(["compare", "--config", cfg]) == 0
        report = (tmp_path / "cmp_out" / "report.csv").read_text()
        lines = dict(ln.split(",") for ln in report.splitlines()[1:])
        assert float(lines["abs_theta_degC"]) == 0.0
        assert float(lines["abs_phi"]) == 0.0
        assert float(lines["rel_theta_pct"]) == 0.0

    def test_non_finite_result_exits_two(self, tmp_path, capsys):
        fine = fine_scenario(tmp_path)
        assert main(["solve-fine", "--config", fine]) == 0
        theta = tmp_path / "out" / "theta.csv"
        lines = theta.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",nan"
        theta.write_text("\n".join(lines) + "\n")
        cfg = write(tmp_path / "cmp.ini", """\
[compare]
fine_mesh = square.msh
coarse_mesh = square.msh
fine_results = out
coarse_results = out
nx = 2
ny = 2
""")
        assert main(["compare", "--config", cfg]) == 2
        assert "theta.csv:2: non-finite value" in capsys.readouterr().err

    def test_results_of_another_mesh_exit_two(self, tmp_path, capsys):
        fine = fine_scenario(tmp_path)
        assert main(["solve-fine", "--config", fine]) == 0
        gen_square(tmp_path, "fine15.msh", nx=4, ny=2)
        cfg = write(tmp_path / "cmp.ini", """\
[compare]
fine_mesh = fine15.msh
coarse_mesh = square.msh
fine_results = out
coarse_results = out
nx = 2
ny = 2
""")
        assert main(["compare", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "compare failed:" in err and "Traceback" not in err
        assert "compare.fine_results hold 9 nodes" in err
        assert "compare.fine_mesh has 15" in err

    def test_missing_results_directory_is_reported(self, tmp_path, capsys):
        gen_square(tmp_path)
        cfg = write(tmp_path / "cmp.ini", """\
[compare]
fine_mesh = square.msh
coarse_mesh = square.msh
fine_results = nowhere
coarse_results = nowhere2
nx = 2
ny = 2
""")
        assert main(["compare", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "compare.fine_results" in err
        assert "compare.coarse_results" in err

    def test_results_without_phi_table_exit_one(self, tmp_path, capsys):
        fine = fine_scenario(tmp_path)
        assert main(["solve-fine", "--config", fine]) == 0
        (tmp_path / "out" / "phi.csv").unlink()
        cfg = write(tmp_path / "cmp.ini", """\
[compare]
fine_mesh = square.msh
coarse_mesh = square.msh
fine_results = out
coarse_results = out
nx = 2
ny = 2
""")
        assert main(["compare", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "configuration invalid:" in err and "Errno" not in err
        assert "compare.fine_results: no phi.csv under" in err
        assert "compare.coarse_results: no phi.csv under" in err
        assert "theta.csv" not in err


class TestPlumbing:

    def test_no_config_anywhere_fails_cleanly(self, capsys):
        assert main(["gen-mesh"]) == 1
        assert ("no scenario file: pass --config"
                in capsys.readouterr().err)

    def test_environment_names_no_scenario_file(self, tmp_path, capsys,
                                                monkeypatch):
        # the file and the flags are the whole input of a run: a valid
        # scenario named by an environment variable is not read
        cfg = write(tmp_path / "g.ini", """\
[mesh]
kind = rectangle
lx = 1
ly = 1
nx = 1
ny = 1
out = tiny.msh
""")
        monkeypatch.setenv("HAMFE2_CONFIG", cfg)
        assert main(["gen-mesh"]) == 1
        assert "--config" in capsys.readouterr().err
        assert not (tmp_path / "tiny.msh").exists()

    def test_output_dir_and_dt_flags_take_effect(self, tmp_path):
        cfg = fine_scenario(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["solve-fine", "--config", cfg, "--output-dir",
                     str(other), "--dt-hours", "1.0"]) == 0
        steps = (other / "steps.csv").read_text().splitlines()
        assert len(steps) == 4                  # header, t=0, two steps

    def test_run_scenario_rejects_unknown_subcommand(self, tmp_path, capsys):
        assert run_scenario(str(tmp_path / "x.ini"), "frobnicate") == 1
        assert "frobnicate" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        assert main(["solve-fine", "--config",
                     str(tmp_path / "absent.ini")]) == 1
        assert "config file" in capsys.readouterr().err
