"""End-to-end command line runs, in process through main()."""

import os

import numpy as np
import pytest

from hamfe2.cli import env_overrides, main, run_scenario
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

    def test_writes_history_and_step_log(self, tmp_path):
        cfg = fine_scenario(tmp_path)
        assert main(["solve-fine", "--config", cfg]) == 0
        out = tmp_path / "out"
        history = read_history_csv(str(out))
        assert len(history.times) == 5          # initial state plus 4 steps
        assert history.times[-1] == pytest.approx(2 * 3600.0)
        steps = (out / "steps.csv").read_text().splitlines()
        assert len(steps) == 6
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
retry_halving = off
""")
        assert main(["solve-fine", "--config", cfg]) == 2
        assert "did not converge" in capsys.readouterr().err

    def test_mesh_header_without_count_exits_one(self, tmp_path, capsys):
        cfg = fine_scenario(tmp_path)
        mesh_file = tmp_path / "square.msh"
        lines = mesh_file.read_text().splitlines()
        mesh_file.write_text("\n".join(["nodes"] + lines[1:]) + "\n")
        assert main(["solve-fine", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "macro.mesh:" in err and str(mesh_file) in err

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


class TestSolveRve:

    def test_homogeneous_cell_flux_matches_conductivity(self, tmp_path):
        """Unit theta gradient on a uniform brick cell: the averaged heat
        flux must equal -k_tt(theta, phi) from the constitutive law, and
        the moisture flux -k_ft from the vapor coupling."""
        write(tmp_path / "mats.ini", BRICK_MATS)
        gen_square(tmp_path, name="cell.msh", lx=0.1, ly=0.1, phase="brick")
        cfg = write(tmp_path / "rve.ini", """\
[scenario]
materials = mats.ini
output_dir = out

[rve]
mesh = cell.msh
theta = 20
phi = 0.5
grad_theta_x = 1.0
dt_hours = 1.0
steps = 2
""")
        assert main(["solve-rve", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "response.csv").read_text().splitlines()
        assert len(lines) == 3
        coeffs = default_materials()["brick"].coefficients(20.0, 0.5)
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")[1:]]
            assert vals[0] == pytest.approx(-coeffs.k_tt, rel=1e-7)
            assert vals[1] == 0.0
            assert vals[2] == pytest.approx(-coeffs.k_ft, rel=1e-4)


class TestSolveFe2:

    def scenario(self, tmp_path, extra=""):
        write(tmp_path / "mats.ini", LINEAR_MATS)
        gen_square(tmp_path, name="cell.msh", lx=0.1, ly=0.1)
        gen_square(tmp_path, name="macro.msh", lx=1.0, ly=0.5, nx=4, ny=2)
        return write(tmp_path / "fe2.ini", f"""\
[scenario]
dt_hours = 0.5
t_end_hours = 1
cprime = off
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

    def test_writes_history_and_both_logs(self, tmp_path):
        cfg = self.scenario(tmp_path)
        assert main(["solve-fe2", "--config", cfg]) == 0
        out = tmp_path / "out"
        history = read_history_csv(str(out))
        assert len(history.times) == 3
        rounds = (out / "rounds.csv").read_text().splitlines()
        assert rounds[0] == "round,worker,points,seconds"
        assert len(rounds) > 1
        assert (out / "steps.csv").exists()

    def test_region_and_material_mismatches_reported(self, tmp_path, capsys):
        cfg = self.scenario(tmp_path)
        text = open(cfg).read().replace("solid = cell.msh",
                                        "render = cell.msh")
        write(tmp_path / "fe2.ini", text)
        assert main(["solve-fe2", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "regions.render" in err      # not a macro region
        assert "regions.solid" in err       # macro region with no cell

    def test_workers_flag_beats_env_beats_config(self, tmp_path, capsys,
                                                 monkeypatch):
        cfg = self.scenario(tmp_path, extra="workers = 1\n")
        monkeypatch.setenv("HAMFE2_WORKERS", "4")
        assert main(["solve-fe2", "--config", cfg, "--workers", "2"]) == 0
        assert "2 workers" in capsys.readouterr().out
        assert main(["solve-fe2", "--config", cfg]) == 0
        assert "4 workers" in capsys.readouterr().out
        monkeypatch.delenv("HAMFE2_WORKERS")
        assert main(["solve-fe2", "--config", cfg]) == 0
        assert "1 workers" in capsys.readouterr().out


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


class TestPlumbing:

    def test_env_config_supplies_the_scenario_path(self, tmp_path,
                                                   monkeypatch):
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
        assert main(["gen-mesh"]) == 0
        assert load_mesh(str(tmp_path / "tiny.msh")).n_nodes == 4

    def test_no_config_anywhere_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.delenv("HAMFE2_CONFIG", raising=False)
        assert main(["gen-mesh"]) == 1
        assert "HAMFE2_CONFIG" in capsys.readouterr().err

    def test_output_dir_and_dt_flags_take_effect(self, tmp_path):
        cfg = fine_scenario(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["solve-fine", "--config", cfg, "--output-dir",
                     str(other), "--dt-hours", "1.0"]) == 0
        steps = (other / "steps.csv").read_text().splitlines()
        assert len(steps) == 4                  # header, t=0, two steps

    def test_env_overrides_report_only_known_names(self, monkeypatch):
        monkeypatch.setenv("HAMFE2_DT_HOURS", "0.25")
        monkeypatch.setenv("HAMFE2_UNRELATED", "zzz")
        found = env_overrides()
        assert found == {"dt_hours": "0.25"}

    def test_run_scenario_rejects_unknown_subcommand(self, tmp_path, capsys):
        assert run_scenario(str(tmp_path / "x.ini"), "frobnicate") == 1
        assert "frobnicate" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        assert main(["solve-fine", "--config",
                     str(tmp_path / "absent.ini")]) == 1
        assert "config file" in capsys.readouterr().err
