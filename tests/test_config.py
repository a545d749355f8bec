"""Scenario INI parsing, material libraries and boundary schedules."""

import numpy as np
import pytest

from hamfe2.config import (BoundaryRule, BoundarySchedule, ConfigError,
                           SectionReader, boundary_schedule_from,
                           initial_from, load_materials, load_scenario,
                           parse_scenario, scenario_settings,
                           solver_config_from)
from hamfe2.climate import ClimateSeries
from hamfe2.constitutive import KunzelMaterial, LinearMaterial
from hamfe2.mesh import generate_rectangle_mesh

BRICK_INI = """\
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

LINEAR_INI = """\
[steel]
type = linear
k_tt = 50
k_ff = 1e-9
c_tt = 3.5e6
c_ff = 1.0
"""


class TestScenarioRoundTrip:

    TEXT = """\
[scenario]
dt_hours = 0.5
t_end_hours = 4
workers = 2
seed = 3
materials = mats.ini

[macro]
mesh = wall.msh

[boundary:theta]
left = 20.0
right = climate:year.csv:clamp
"""

    def test_save_load_round_trip(self, tmp_path):
        cfg = parse_scenario(self.TEXT, str(tmp_path))
        path = tmp_path / "scenario.ini"
        path.write_text(self.TEXT)
        assert load_scenario(str(path)) == cfg

    def test_comments_and_case_are_handled(self):
        cfg = parse_scenario("[scenario]\n"
                             "dt_hours = 2.0  # coarse stepping\n"
                             "T_end = 4\n")
        assert cfg.section("scenario")["dt_hours"] == "2.0"
        # option names keep their case
        assert cfg.section("scenario")["T_end"] == "4"

    def test_syntax_error_is_a_config_error(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_scenario("not an ini file\n")

    def test_paths_resolve_against_the_config_directory(self, tmp_path):
        sub = tmp_path / "cases"
        sub.mkdir()
        path = sub / "s.ini"
        path.write_text("[macro]\nmesh = grids/wall.msh\n")
        cfg = load_scenario(str(path))
        assert cfg.resolve("grids/wall.msh") == str(sub / "grids" / "wall.msh")


class TestSectionReader:

    def read(self, text, section="s"):
        problems = []
        return SectionReader(parse_scenario(text), section, problems), problems

    def test_collects_every_problem_in_one_pass(self):
        reader, problems = self.read("[s]\na = fast\nb = -3\nc = maybe\n")
        reader.get_float("a")
        reader.get_int("b", minimum=1)
        reader.get_str("c", choices=("yes", "no"))
        reader.get_str("d", required=True)
        assert len(problems) == 4
        assert any("s.a" in p for p in problems)
        assert any("s.b" in p for p in problems)
        assert any("s.c" in p for p in problems)
        assert any("s.d" in p and "missing" in p for p in problems)

    def test_choices_are_enforced(self):
        reader, problems = self.read("[s]\nfmt = hdf5\n")
        assert reader.get_str("fmt", "csv", choices=("csv", "vtk")) == "csv"
        assert problems and "hdf5" in problems[0]

    def test_unknown_keys_are_reported(self):
        reader, problems = self.read("[s]\na = 1\ntypo = 2\n")
        reader.get_int("a")
        reader.reject_unknown()
        assert problems == ["s.typo: unknown key"]


class TestMaterials:

    def test_kunzel_and_linear_sections_load(self, tmp_path):
        path = tmp_path / "mats.ini"
        path.write_text(BRICK_INI + "\n" + LINEAR_INI)
        mats = load_materials(str(path))
        assert isinstance(mats["brick"], KunzelMaterial)
        assert isinstance(mats["steel"], LinearMaterial)
        assert mats["brick"].params.w_f == 229.30
        assert mats["steel"].coefficients(20.0, 0.5).k_tt == 50.0

    def test_missing_keys_are_all_listed(self, tmp_path):
        path = tmp_path / "mats.ini"
        path.write_text("[clay]\ntype = kunzel\nw_f = 100\n")
        with pytest.raises(ConfigError) as err:
            load_materials(str(path))
        text = str(err.value)
        for key in ("w_80", "lambda_0", "b_tcs", "rho_s", "mu", "A", "c_s"):
            assert f"clay.{key}" in text

    def test_bad_number_and_unknown_key_are_reported(self, tmp_path):
        path = tmp_path / "mats.ini"
        path.write_text(LINEAR_INI.replace("k_tt = 50", "k_tt = dense\nzz = 1"))
        with pytest.raises(ConfigError) as err:
            load_materials(str(path))
        assert "steel.k_tt" in str(err.value)
        assert "steel.zz" in str(err.value)

    def test_parameter_validation_errors_surface(self, tmp_path):
        # free saturation below the 80 percent value is unphysical
        path = tmp_path / "mats.ini"
        path.write_text(BRICK_INI.replace("w_f = 229.30", "w_f = 100.0"))
        with pytest.raises(ConfigError, match="brick"):
            load_materials(str(path))

    def test_non_physical_linear_coefficients_are_reported(self, tmp_path):
        path = tmp_path / "mats.ini"
        path.write_text(LINEAR_INI.replace("k_tt = 50", "k_tt = -2.0")
                        .replace("c_tt = 3.5e6", "c_tt = 0.0"))
        with pytest.raises(ConfigError) as err:
            load_materials(str(path))
        assert len(err.value.problems) == 1
        problem = err.value.problems[0]
        assert problem.startswith("steel:")
        assert "k_tt" in problem and "c_tt" in problem

    def test_empty_library_is_an_error(self, tmp_path):
        path = tmp_path / "mats.ini"
        path.write_text("\n")
        with pytest.raises(ConfigError, match="no materials"):
            load_materials(str(path))


class TestBoundarySchedule:

    def test_constant_rules_fill_field_major_dofs(self):
        mesh = generate_rectangle_mesh(1.0, 1.0, 2, 2)
        schedule = BoundarySchedule(
            theta_rules={"left": BoundaryRule("theta", constant=30.0)},
            phi_rules={"left": BoundaryRule("phi", constant=0.7),
                       "right": BoundaryRule("phi", constant=0.4)})
        values = schedule.dirichlet_values(mesh, 0.0)
        n = mesh.n_nodes
        left = mesh.boundary_nodes("left")
        assert all(values[i] == 30.0 for i in left)
        assert all(values[n + i] == 0.7 for i in left)
        assert all(values[n + i] == 0.4
                   for i in mesh.boundary_nodes("right"))
        assert len(values) == 3 * len(left)

    def test_shared_node_takes_the_set_whose_name_sorts_last(self):
        # the corner of bottom and left lies in both sets: "left" sorts
        # after "bottom", so its value wins, in whatever order the rules
        # were given
        mesh = generate_rectangle_mesh(1.0, 1.0, 2, 2)
        bottom = BoundaryRule("theta", constant=10.0)
        left = BoundaryRule("theta", constant=30.0)
        corner = int(np.flatnonzero((mesh.nodes == 0.0).all(axis=1))[0])
        for rules in ({"bottom": bottom, "left": left},
                      {"left": left, "bottom": bottom}):
            values = BoundarySchedule(theta_rules=rules).dirichlet_values(
                mesh, 0.0)
            assert values[corner] == 30.0
            assert all(values[i] == 30.0 for i in mesh.boundary_nodes("left"))
            assert all(values[i] == 10.0
                       for i in mesh.boundary_nodes("bottom") if i != corner)

    def test_climate_rules_sample_in_hours(self):
        series = ClimateSeries([0.0, 2.0], [10.0, 14.0], [0.4, 0.8])
        rule_t = BoundaryRule("theta", series=series)
        rule_f = BoundaryRule("phi", series=series)
        assert rule_t.value_at(3600.0) == pytest.approx(12.0)
        assert rule_f.value_at(3600.0) == pytest.approx(0.6)

    def test_schedule_from_config_with_climate_file(self, tmp_path):
        (tmp_path / "year.csv").write_text(
            "time_h,temp_C,humidity\n0,10,0.5\n1,12,0.6\n")
        cfg = parse_scenario("[boundary:theta]\n"
                             "left = climate:year.csv\n"
                             "right = 21.5\n"
                             "[boundary:phi]\n"
                             "left = climate:year.csv:clamp\n",
                             str(tmp_path))
        problems = []
        schedule = boundary_schedule_from(cfg, problems)
        assert not problems
        assert schedule.rules["theta"]["right"].constant == 21.5
        assert schedule.rules["theta"]["left"].series.policy == "periodic"
        assert schedule.rules["phi"]["left"].series.policy == "clamp"

    def test_synthetic_reference_uses_the_seed(self):
        cfg = parse_scenario("[boundary:theta]\nleft = climate:synthetic\n")
        problems = []
        a = boundary_schedule_from(cfg, problems, seed=1)
        b = boundary_schedule_from(cfg, problems, seed=1)
        c = boundary_schedule_from(cfg, problems, seed=2)
        assert not problems
        ta = a.rules["theta"]["left"].series.temperature
        assert np.array_equal(ta, b.rules["theta"]["left"].series.temperature)
        assert not np.array_equal(
            ta, c.rules["theta"]["left"].series.temperature)

    def test_bad_values_become_problems_not_exceptions(self, tmp_path):
        cfg = parse_scenario("[boundary:theta]\n"
                             "left = warmish\n"
                             "right = climate:missing.csv\n"
                             "top = climate:x.csv:mirror\n",
                             str(tmp_path))
        problems = []
        boundary_schedule_from(cfg, problems)
        assert len(problems) == 3
        assert any("boundary:theta.left" in p for p in problems)
        assert any("boundary:theta.right" in p for p in problems)
        assert any("mirror" in p for p in problems)

    @pytest.mark.parametrize("field_name, raw, message", [
        ("theta", "nan", "must be finite"),
        ("theta", "inf", "must be finite"),
        ("theta", "-inf", "must be finite"),
        ("phi", "nan", "must be finite in [0, 1]"),
        ("phi", "1.5", "must be finite in [0, 1]"),
        ("phi", "-0.5", "must be finite in [0, 1]")])
    def test_bad_constants_become_problems(self, field_name, raw, message):
        cfg = parse_scenario(f"[boundary:{field_name}]\n"
                             f"left = {raw}\n"
                             "right = 0.5\n")
        problems = []
        schedule = boundary_schedule_from(cfg, problems)
        assert problems == [f"boundary:{field_name}.left: {message}"]
        assert set(schedule.rules[field_name]) == {"right"}

    def test_phi_constants_at_the_band_edges_pass(self):
        cfg = parse_scenario("[boundary:phi]\nleft = 0\nright = 1\n")
        problems = []
        schedule = boundary_schedule_from(cfg, problems)
        assert not problems
        assert schedule.rules["phi"]["right"].constant == 1.0

    def test_no_boundary_at_all_is_a_problem(self):
        problems = []
        boundary_schedule_from(parse_scenario("[scenario]\n"), problems)
        assert problems and "boundary" in problems[0]


class TestSettings:

    def test_defaults_and_parsing(self, tmp_path):
        (tmp_path / "m.ini").write_text(LINEAR_INI)
        cfg = parse_scenario("[scenario]\n"
                             "t_end_hours = 24\n"
                             "materials = m.ini\n", str(tmp_path))
        problems = []
        s = scenario_settings(cfg, problems)
        assert not problems
        assert s.dt_hours == 1.0 and s.t_end_hours == 24.0
        assert s.workers == 1 and s.seed == 0
        assert s.format == "csv"
        assert s.materials_path == str(tmp_path / "m.ini")

    def test_every_bad_key_is_reported(self):
        cfg = parse_scenario("[scenario]\n"
                             "dt_hours = -1\n"
                             "workers = none\n"
                             "format = hdf5\n"
                             "surprise = 1\n"
                             "[solver]\n"
                             "max_iterations = many\n")
        problems = []
        scenario_settings(cfg, problems, need_materials=False,
                          need_time=False)
        solver_config_from(cfg, problems)
        joined = "\n".join(problems)
        for key in ("scenario.dt_hours", "scenario.workers", "scenario.format",
                    "scenario.surprise", "solver.max_iterations"):
            assert key in joined
        assert "solver.max_iterations: 'many' is not an integer" in joined

    def test_solver_section_maps_to_solver_config(self):
        cfg = parse_scenario("[solver]\n"
                             "newton_tol = 1e-6\n"
                             "max_iterations = 7\n")
        problems = []
        sc = solver_config_from(cfg, problems)
        assert not problems
        assert sc.newton_tol == 1e-6
        assert sc.max_iterations == 7

    @pytest.mark.parametrize("body, expected", [
        ("newton_tol = 1\n", ["solver.newton_tol: must be < 1"]),
        ("newton_tol = 2.5\n", ["solver.newton_tol: must be < 1"]),
        ("newton_tol = 0\nnewton_floor = 0\n",
         ["solver.newton_tol / solver.newton_floor: at least one must be "
          "positive"]),
        ("newton_tol = 0\n", []), ("newton_floor = 0\n", []),
        ("newton_tol = 0.999\nnewton_floor = 0\n", [])])
    def test_newton_target_must_lie_between_zero_and_the_start(self, body,
                                                               expected):
        # Newton's target is max(newton_tol ||r0||, newton_floor): a
        # tolerance of 1 accepts every start iterate, and a target of 0
        # is never met; one positive part is enough
        problems = []
        solver_config_from(parse_scenario("[solver]\n" + body), problems)
        assert problems == expected

    def test_initial_values_are_validated(self):
        problems = []
        theta, phi = initial_from(
            parse_scenario("[initial]\ntheta = 24\nphi = 1.4\n"), problems)
        assert theta == 24.0
        assert problems and "initial.phi" in problems[0]
