"""Scenario configuration: INI files, material libraries, boundary schedules.

A scenario file is plain INI. Values are single-line strings; paths are
resolved relative to the file's directory. Validation never stops at
the first defect: every offending key is collected and reported in one
ConfigError so a bad file needs only one round trip to fix.

Sections used by the subcommands:

  [scenario]        dt_hours, t_end_hours, workers, seed, output_dir,
                    format, materials
  [macro]           mesh
  [regions]         macro region name -> unit-cell mesh path
  [initial]         theta, phi
  [boundary:theta]  boundary set -> constant or climate:<path>[:<policy>]
  [boundary:phi]    same for relative humidity
  [solver]          newton_tol, newton_floor, max_iterations
  [rve]             mesh, theta, phi, grad_theta_x/y, grad_phi_x/y, steps
  [compare]         fine_mesh, coarse_mesh, fine_results, coarse_results,
                    nx, ny
  [mesh]            kind plus generator parameters, out

The special climate reference ``climate:synthetic`` uses the bundled
annual generator with the scenario seed. A node in two boundary sets of
one field, such as the corner of ``bottom`` and ``left``, takes the
value of the set whose name sorts last (here ``left``), whatever the
order of the keys in the file.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

import numpy as np

from .climate import (ClimateError, ClimateSeries, load_climate_series,
                      sample_climate, synthetic_annual_climate)
from .constitutive import (ConstitutiveError, KunzelMaterial, LinearMaterial,
                           MaterialParams)
from .mesh import Mesh
from .solver import SolverConfig

KUNZEL_KEYS = ("w_f", "w_80", "lambda_0", "b_tcs", "rho_s", "mu", "A", "c_s")
LINEAR_KEYS = ("k_tt", "k_ff", "c_tt", "c_ff")


class ConfigError(ValueError):
    """Carries the full list of section.key problems found in one pass."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


@dataclass
class ScenarioConfig:
    """Raw parsed scenario: ordered sections of string key/value pairs."""

    sections: dict
    base_dir: str = field(default=".", compare=False)

    def section(self, name):
        return dict(self.sections.get(name, {}))

    def resolve(self, path):
        """Interpret a configured path relative to the config file."""
        if os.path.isabs(path):
            return path
        return os.path.normpath(os.path.join(self.base_dir, path))

    def set(self, section, key, value):
        self.sections.setdefault(section, {})[key] = str(value)


def _parser():
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    return cp


def parse_scenario(text, base_dir=".") -> ScenarioConfig:
    cp = _parser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    sections = {name: {k: v for k, v in cp.items(name)}
                for name in cp.sections()}
    return ScenarioConfig(sections, base_dir)


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from exc
    return parse_scenario(text, os.path.dirname(os.path.abspath(path)))


# ------------------------------------------------- typed section access


class SectionReader:
    """Typed access to one section that collects problems instead of
    raising, so a single validation pass reports every offending key."""

    def __init__(self, config: ScenarioConfig, section, problems):
        self.config = config
        self.name = section
        self.data = config.section(section)
        self.problems = problems
        self.seen = set()

    def _raw(self, key, default, required):
        self.seen.add(key)
        if key in self.data:
            return self.data[key]
        if required:
            self.problems.append(f"{self.name}.{key}: missing required key")
        return default

    def get_str(self, key, default=None, required=False, choices=None):
        raw = self._raw(key, None, required)
        if raw is None:
            return default
        if choices and raw not in choices:
            self.problems.append(
                f"{self.name}.{key}: '{raw}' is not one of {'|'.join(choices)}")
            return default
        return raw

    def get_float(self, key, default=None, required=False, minimum=None,
                  maximum=None):
        raw = self._raw(key, None, required)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            self.problems.append(f"{self.name}.{key}: '{raw}' is not a number")
            return default
        if not np.isfinite(value):
            self.problems.append(f"{self.name}.{key}: must be finite")
            return default
        if minimum is not None and value < minimum:
            self.problems.append(f"{self.name}.{key}: must be >= {minimum}")
        if maximum is not None and value > maximum:
            self.problems.append(f"{self.name}.{key}: must be <= {maximum}")
        return value

    def get_int(self, key, default=None, required=False, minimum=None):
        raw = self._raw(key, None, required)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            self.problems.append(
                f"{self.name}.{key}: '{raw}' is not an integer")
            return default
        if minimum is not None and value < minimum:
            self.problems.append(f"{self.name}.{key}: must be >= {minimum}")
        return value

    def get_path(self, key, default=None, required=False, must_exist=False):
        raw = self._raw(key, None, required)
        if raw is None:
            return default
        path = self.config.resolve(raw)
        if must_exist and not os.path.isfile(path):
            self.problems.append(f"{self.name}.{key}: no such file '{path}'")
            return None
        return path

    def reject_unknown(self):
        for key in self.data:
            if key not in self.seen:
                self.problems.append(f"{self.name}.{key}: unknown key")


# ----------------------------------------------------------- materials


def _material_from_section(name, pairs, problems):
    reader = SectionReader(ScenarioConfig({name: pairs}), name, problems)
    kind = reader.get_str("type", required=True, choices=("kunzel", "linear"))
    if kind == "kunzel":
        values = {k: reader.get_float(k, required=True) for k in KUNZEL_KEYS}
        reader.reject_unknown()
        if any(v is None for v in values.values()):
            return None
        try:
            return KunzelMaterial(MaterialParams(name=name, **values))
        except ConstitutiveError as exc:
            problems.append(f"{name}: {exc}")
            return None
    if kind == "linear":
        values = {k: reader.get_float(k, required=True) for k in LINEAR_KEYS}
        values["k_tf"] = reader.get_float("k_tf", default=0.0)
        values["k_ft"] = reader.get_float("k_ft", default=0.0)
        reader.reject_unknown()
        if any(v is None for v in values.values()):
            return None
        try:
            return LinearMaterial(name=name, **values)
        except (ConstitutiveError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
            return None
    return None


def load_materials(path):
    """Material library from an INI file: one section per material.

    ``type = kunzel`` sections take the eight sorption/transport
    parameters; ``type = linear`` sections take constant coefficients.
    """
    cp = _parser()
    try:
        with open(path) as fh:
            cp.read_string(fh.read())
    except OSError as exc:
        raise ConfigError(f"materials file: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"materials syntax: {exc}") from exc
    problems = []
    materials = {}
    for name in cp.sections():
        material = _material_from_section(name, dict(cp.items(name)), problems)
        if material is not None:
            materials[name] = material
    if problems:
        raise ConfigError(problems)
    if not materials:
        raise ConfigError(f"materials file: no materials defined in '{path}'")
    return materials


# --------------------------------------------------- boundary schedules


@dataclass(frozen=True)
class BoundaryRule:
    """Dirichlet values on one boundary set for one field."""

    field: str                       # "theta" | "phi"
    constant: float = None
    series: ClimateSeries = None

    def value_at(self, t_seconds):
        if self.series is None:
            return self.constant
        temp, hum = sample_climate(self.series, t_seconds / 3600.0)
        return temp if self.field == "theta" else hum


class BoundarySchedule:
    """Named boundary sets mapped to constant or climate-driven values.

    dirichlet_values(mesh, t) returns the constrained field-major dofs
    (theta at node i -> dof i, phi -> n + i) for the solver. The sets of
    a field are visited in sorted name order, so a node shared by two
    sets takes the value of the set whose name sorts last: the corner of
    ``bottom`` and ``left`` takes the ``left`` value.
    """

    def __init__(self, theta_rules=None, phi_rules=None):
        self.rules = {"theta": dict(theta_rules or {}),
                      "phi": dict(phi_rules or {})}

    def dirichlet_values(self, mesh: Mesh, t):
        values = {}
        n = mesh.n_nodes
        for field_name, offset in (("theta", 0), ("phi", n)):
            for set_name in sorted(self.rules[field_name]):
                rule = self.rules[field_name][set_name]
                value = float(rule.value_at(t))
                for node in mesh.boundary_nodes(set_name):
                    values[int(node) + offset] = value
        return values


def _parse_boundary_value(field_name, set_name, raw, config, problems, seed):
    """A float constant or ``climate:<path>[:<policy>]``."""
    section = f"boundary:{field_name}"
    if not raw.startswith("climate:"):
        try:
            return BoundaryRule(field_name, constant=float(raw))
        except ValueError:
            problems.append(f"{section}.{set_name}: '{raw}' is neither a "
                            f"number nor a climate reference")
            return None
    parts = raw.split(":")
    policy = "periodic"
    if len(parts) == 3:
        policy = parts[2]
        if policy not in ("periodic", "clamp"):
            problems.append(f"{section}.{set_name}: unknown extension "
                            f"policy '{policy}'")
            return None
    elif len(parts) != 2:
        problems.append(f"{section}.{set_name}: expected "
                        f"climate:<path>[:<policy>], got '{raw}'")
        return None
    if parts[1] == "synthetic":
        return BoundaryRule(field_name,
                            series=synthetic_annual_climate(seed=seed,
                                                            policy=policy))
    path = config.resolve(parts[1])
    try:
        return BoundaryRule(field_name,
                            series=load_climate_series(path, policy=policy))
    except (ClimateError, OSError) as exc:
        problems.append(f"{section}.{set_name}: {exc}")
        return None


def boundary_schedule_from(config: ScenarioConfig, problems,
                           seed=0) -> BoundarySchedule:
    """Build the schedule from [boundary:theta] and [boundary:phi]."""
    rules = {"theta": {}, "phi": {}}
    for field_name in ("theta", "phi"):
        section = f"boundary:{field_name}"
        for set_name, raw in config.section(section).items():
            rule = _parse_boundary_value(field_name, set_name, raw, config,
                                         problems, seed)
            if rule is not None:
                rules[field_name][set_name] = rule
    if not (rules["theta"] or rules["phi"] or problems):
        problems.append("boundary:theta / boundary:phi: at least one "
                        "boundary value is required")
    return BoundarySchedule(rules["theta"], rules["phi"])


def solver_config_from(config: ScenarioConfig, problems) -> SolverConfig:
    reader = SectionReader(config, "solver", problems)
    defaults = SolverConfig()
    cfg = SolverConfig(
        newton_tol=reader.get_float("newton_tol", defaults.newton_tol,
                                    minimum=0.0),
        newton_floor=reader.get_float("newton_floor", defaults.newton_floor,
                                      minimum=0.0),
        max_iterations=reader.get_int("max_iterations",
                                      defaults.max_iterations, minimum=1))
    reader.reject_unknown()
    return cfg


@dataclass
class ScenarioSettings:
    """Global run settings shared by the solve subcommands."""

    dt_hours: float = 1.0
    t_end_hours: float = None
    workers: int = 1
    seed: int = 0
    output_dir: str = "out"
    format: str = "csv"
    materials_path: str = None


def scenario_settings(config: ScenarioConfig, problems, need_materials=True,
                      need_time=True) -> ScenarioSettings:
    reader = SectionReader(config, "scenario", problems)
    s = ScenarioSettings(
        dt_hours=reader.get_float("dt_hours", 1.0, minimum=1e-12),
        t_end_hours=reader.get_float("t_end_hours", required=need_time,
                                     minimum=1e-12),
        workers=reader.get_int("workers", 1, minimum=1),
        seed=reader.get_int("seed", 0, minimum=0),
        output_dir=reader.get_path("output_dir", config.resolve("out")),
        format=reader.get_str("format", "csv", choices=("csv", "vtk")),
        materials_path=reader.get_path("materials",
                                       required=need_materials,
                                       must_exist=need_materials))
    reader.reject_unknown()
    return s


def initial_from(config: ScenarioConfig, problems):
    reader = SectionReader(config, "initial", problems)
    theta = reader.get_float("theta", required=True)
    phi = reader.get_float("phi", required=True, minimum=0.0, maximum=1.0)
    reader.reject_unknown()
    return theta, phi
