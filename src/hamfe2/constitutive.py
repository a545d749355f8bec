"""Hygrothermal material relations for porous building materials.

Simplified Kunzel model: sorption isotherm, vapor and liquid transport,
moisture dependent thermal conductivity and the storage terms of the
coupled heat and moisture balance equations. Relative humidity phi [-]
and temperature theta [deg C] are the state variables; moisture content
w is in kg m^-3.

KunzelMaterial is the model's one entry. Its three methods,
coefficients, storage_derivatives and conduction_derivatives, accept
scalars or numpy arrays of matching shape and broadcast elementwise, so
assembly loops can evaluate whole element batches at once. Each checks
the state once and builds on the shared private kernels, which compute
p_sat and its derivative, h_v, delta, w, dw/dphi, d^2w/dphi^2 and D_w
from checked arrays. A check reads one min() and one max() of its
array: theta must lie in the open window (THETA_MIN, THETA_MAX), phi in
the closed band [-PHI_SLACK, 1 + PHI_SLACK], and NaN and +-inf fail
both.

The kernels are elementwise in the material constants as in the state,
so one evaluation covers every Kunzel phase of a mesh:
KunzelMaterial.over_elements gathers each constant, b included, per
element from a table of the phases, and every element gets the bits its
own phase's scalar constants give it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

# physical constants
R_GAS = 8314.41                  # J kmol^-1 K^-1, universal gas constant
M_WATER = 18.01528               # kg kmol^-1, molar mass of water
R_VAPOR = R_GAS / M_WATER        # J kg^-1 K^-1, gas constant of water vapor
P_ATM = 101325.0                 # Pa, ambient air pressure
C_WATER = 4187.0                 # J kg^-1 K^-1, heat capacity of liquid water
T_ZERO = 273.15                  # K, zero Celsius

# temperature validity window of the transport correlations, deg C
THETA_MIN = -40.0
THETA_MAX = 80.0

# loose admissibility band for relative humidity; transient schemes may
# overshoot [0, 1] by solver-level amounts without invalidating a state
PHI_SLACK = 1e-2

class ConstitutiveError(ValueError):
    """Raised for states or parameters outside the model's domain."""


@dataclass(frozen=True)
class MaterialParams:
    """Measured parameter record of one material phase.

    w_f       free water saturation [kg m^-3]
    w_80      equilibrium water content at phi = 0.8 [kg m^-3]
    lambda_0  dry thermal conductivity [W m^-1 K^-1]
    b_tcs     thermal conductivity supplement [-]
    rho_s     bulk density of the dry material [kg m^-3]
    mu        vapor diffusion resistance factor [-]
    A         water absorption coefficient [kg m^-2 s^-0.5]
    c_s       specific heat capacity of the dry material [J kg^-1 K^-1]
    """

    name: str
    w_f: float
    w_80: float
    lambda_0: float
    b_tcs: float
    rho_s: float
    mu: float
    A: float
    c_s: float

    def __post_init__(self):
        positive = ("w_f", "lambda_0", "rho_s", "mu", "c_s")
        bad = [f for f in positive if getattr(self, f) <= 0.0]
        if self.w_80 <= 0.0 or self.A < 0.0 or self.b_tcs < 0.0:
            bad.append("w_80/A/b_tcs")
        if bad:
            raise ConstitutiveError(f"{self.name}: non-physical parameters {bad}")
        if not self.w_80 < 0.8 * self.w_f:
            raise ConstitutiveError(
                f"{self.name}: w_80 = {self.w_80} must lie below 0.8 w_f = "
                f"{0.8 * self.w_f}; no approximation factor b > 1 exists"
            )


@dataclass(frozen=True)
class CoefficientSet:
    """Coupled transport and storage coefficients at one state.

    The balance equations read

        c_tt dtheta/dt = div(k_tt grad theta) + div(k_tf grad phi)
        c_ff dphi/dt   = div(k_ft grad theta) + div(k_ff grad phi)

    where the cross terms carry the vapor flux delta_p grad(phi p_sat)
    split into its temperature and humidity parts, with the latent heat
    h_v applied in the energy balance.
    """

    k_tt: np.ndarray | float
    k_tf: np.ndarray | float
    k_ft: np.ndarray | float
    k_ff: np.ndarray | float
    c_tt: np.ndarray | float
    c_ff: np.ndarray | float


def _check_theta(theta):
    th = np.asarray(theta, dtype=float)
    # NaN propagates through min and max and fails both comparisons
    if not (th.min(initial=np.inf) > THETA_MIN
            and th.max(initial=-np.inf) < THETA_MAX):
        raise ConstitutiveError(
            f"temperature outside validity window ({THETA_MIN}, {THETA_MAX}) degC"
        )
    return th


def _check_phi(phi):
    ph = np.asarray(phi, dtype=float)
    if not (ph.min(initial=np.inf) >= -PHI_SLACK
            and ph.max(initial=-np.inf) <= 1.0 + PHI_SLACK):
        raise ConstitutiveError(
            "relative humidity outside the admissible band "
            f"[{-PHI_SLACK}, {1.0 + PHI_SLACK}]")
    return ph


# Unchecked kernels of checked arrays: the material methods check the
# state once and share each kernel's result.


def _saturation_branch(th):
    """Fit coefficients (a, theta_0) of the saturation pressure branch:
    over ice below 0 deg C, over water from there on."""
    below = th < 0.0
    return np.where(below, 22.44, 17.08), np.where(below, 272.44, 234.18)


def _saturation(th):
    """(p_sat, d p_sat / d theta) [Pa, Pa K^-1] at theta [deg C]: the fit
    611 exp(a theta / (theta_0 + theta)). Both branches meet at 611 Pa,
    but their slopes do not (50.33 Pa/K below, 44.56 Pa/K above), so the
    vapor transport coefficients have a kink at 0 deg C."""
    a, t0 = _saturation_branch(th)
    p = 611.0 * np.exp(a * th / (t0 + th))
    return p, p * a * t0 / (t0 + th) ** 2


def _latent_heat(th):
    """Latent heat of evaporation h_v [J kg^-1] at theta [deg C]:
    2.5008e6 (273.15 / T)^(0.167 + 3.67e-4 T), T in kelvin."""
    t_abs = th + T_ZERO
    return 2.5008e6 * (T_ZERO / t_abs) ** (0.167 + 3.67e-4 * t_abs)


def _vapor_diffusion(th):
    """Vapor diffusion coefficient in air, delta [kg m^-1 s^-1 Pa^-1]:
    2.306e-5 p_a / (R_v T p) (T / 273.15)^1.81, T in kelvin, p = p_a."""
    t_abs = th + T_ZERO
    return 2.306e-5 * P_ATM / (R_VAPOR * t_abs * P_ATM) * (t_abs / T_ZERO) ** 1.81


def _water_content(params, b, ph):
    """Sorption isotherm w(phi) = w_f (b - 1) phi / (b - phi) [kg m^-3]."""
    return params.w_f * (b - 1.0) * ph / (b - ph)


def _moisture_capacity(params, b, ph):
    return params.w_f * (b - 1.0) * b / (b - ph) ** 2


def _moisture_capacity_derivative(params, b, ph):
    return 2.0 * params.w_f * (b - 1.0) * b / (b - ph) ** 3


def _capillary_transport(params, w):
    """D_w(w) = 3.8 (A / w_f)^2 1000^(w / w_f - 1) [m^2 s^-1]."""
    return 3.8 * (params.A / params.w_f) ** 2 * 1000.0 ** (w / params.w_f - 1.0)


def derive_approximation_factor(w_f, w_80):
    """Approximation factor b of the sorption isotherm.

    Solves w(0.8) = w_80 for the one-parameter isotherm
    w(phi) = w_f (b - 1) phi / (b - phi); the closed form is
    b = 0.8 (w_f - w_80) / (0.8 w_f - w_80), valid for w_80 < 0.8 w_f.
    A w_80 so small against w_f that b rounds to 1 is rejected too.
    """
    if not 0.0 < w_80 < 0.8 * w_f:
        raise ConstitutiveError(
            f"w_80 = {w_80} outside (0, 0.8 w_f) for w_f = {w_f}; b undefined"
        )
    b = 0.8 * (w_f - w_80) / (0.8 * w_f - w_80)
    if not b > 1.0:
        raise ConstitutiveError(
            f"w_80 = {w_80} too small against w_f = {w_f}: b = {b!r} is not above 1")
    return b


_CONSTANTS = tuple(f.name for f in fields(MaterialParams) if f.name != "name")
_NO_PHASE = np.full(len(_CONSTANTS) + 1, np.nan)


class KunzelMaterial:
    """A material phase with its derived approximation factor cached.

    Each evaluation method checks the state once and computes every
    intermediate once; fem evaluates materials only through them.
    """

    def __init__(self, params: MaterialParams):
        self.params = params
        self.b = derive_approximation_factor(params.w_f, params.w_80)
        # the constants and b: this phase's column of over_elements' table
        self._column = np.array([*(getattr(params, f) for f in _CONSTANTS),
                                 self.b])

    @classmethod
    def over_elements(cls, phases, phase_of):
        """One material for elements of several phases, evaluated at once.

        phases[k] is the KunzelMaterial of phase k, None for a phase no
        element of phase_of has; phase_of gives every element's phase.
        Each constant of MaterialParams, and b, becomes the array of its
        elements' values, gathered through phase_of from a table of the
        phases; fem builds one such material per evaluation and keeps
        none.
        """
        table = np.array([_NO_PHASE if m is None else m._column
                          for m in phases]).T
        # one contiguous row per constant; table[:, phase_of] would give
        # rows strided across the constants
        columns = np.take(table, phase_of, axis=1)
        material = cls.__new__(cls)
        material.params = SimpleNamespace(
            name="+".join(m.name for m in phases if m is not None),
            **dict(zip(_CONSTANTS, columns)))
        material.b = columns[-1]
        return material

    @property
    def name(self):
        return self.params.name

    def coefficients(self, theta, phi) -> CoefficientSet:
        """Full coupled CoefficientSet at state (theta [deg C], phi [-]).

        All entries are positive inside the validity window; c_tt is
        bounded below by the dry heat capacity rho_s c_s. The thermal
        conductivity is lambda = lambda_0 (1 + b_tcs w / rho_s), and the
        liquid conduction coefficient D_phi = D_w(w) dw/dphi.
        """
        p, b = self.params, self.b
        th = _check_theta(theta)
        ph = _check_phi(phi)
        w = _water_content(p, b, ph)
        dw = _moisture_capacity(p, b, ph)
        dp = _vapor_diffusion(th) / p.mu
        psat, dpsat = _saturation(th)
        hv = _latent_heat(th)
        return CoefficientSet(
            k_tt=p.lambda_0 * (1.0 + p.b_tcs * w / p.rho_s) + hv * dp * ph * dpsat,
            k_tf=hv * dp * psat,
            k_ft=dp * ph * dpsat,
            k_ff=_capillary_transport(p, w) * dw + dp * psat,
            c_tt=p.rho_s * p.c_s + C_WATER * w,
            c_ff=dw,
        )

    def storage_derivatives(self, theta, phi):
        """(d c_tt / d phi, d c_ff / d phi) for Jacobian assembly.

        Both storage coefficients depend on the state only through the
        water content, so only humidity derivatives arise.
        """
        _check_theta(theta)
        ph = _check_phi(phi)
        dw = _moisture_capacity(self.params, self.b, ph)
        d2w = _moisture_capacity_derivative(self.params, self.b, ph)
        return C_WATER * np.asarray(dw), np.asarray(d2w)

    def conduction_derivatives(self, theta, phi):
        """(d/dtheta, d/dphi) of (k_tt, k_tf, k_ft, k_ff), in closed form.

        With T = theta + 273.15 and w', w'' the first two derivatives of
        the sorption isotherm: delta_p' = 0.81 delta_p / T; p_sat'' =
        p_sat' (a t0 / (t0 + theta)^2 - 2 / (t0 + theta)) on the branch
        of p_sat'; h_v' = h_v (3.67e-4 ln(273.15 / T) - (0.167 +
        3.67e-4 T) / T); lambda' = lambda_0 b_tcs w' / rho_s and
        D_phi' = D_w (ln(1000) w'^2 / w_f + w'').
        """
        p, b = self.params, self.b
        th = _check_theta(theta)
        ph = _check_phi(phi)
        t_abs = th + T_ZERO
        dp = _vapor_diffusion(th) / p.mu
        ddp = 0.81 * dp / t_abs
        a, t0 = _saturation_branch(th)
        psat, dpsat = _saturation(th)
        d2psat = dpsat * (a * t0 / (t0 + th) ** 2 - 2.0 / (t0 + th))
        hv = _latent_heat(th)
        dhv = hv * (3.67e-4 * np.log(T_ZERO / t_abs)
                    - (0.167 + 3.67e-4 * t_abs) / t_abs)
        dw = _moisture_capacity(p, b, ph)
        d_w = _capillary_transport(p, _water_content(p, b, ph))
        # k_ft = delta_p phi p_sat' and k_tt = lambda + h_v k_ft; the
        # vapor part of k_ff is delta_p p_sat and k_tf = h_v times it
        k_ft = dp * ph * dpsat
        dft_t = ph * (ddp * dpsat + dp * d2psat)
        vapor = dp * psat
        dvapor_t = ddp * psat + dp * dpsat
        d_theta = (dhv * k_ft + hv * dft_t, dhv * vapor + hv * dvapor_t,
                   dft_t, dvapor_t)
        d_phi = (p.lambda_0 * p.b_tcs * dw / p.rho_s + hv * dp * dpsat,
                 np.zeros_like(k_ft), dp * dpsat,
                 d_w * (np.log(1000.0) * dw ** 2 / p.w_f
                        + _moisture_capacity_derivative(p, b, ph)))
        return d_theta, d_phi

    def __repr__(self):
        return f"KunzelMaterial({self.params.name}, b={self.b:.6g})"


class LinearMaterial:
    """Constant-coefficient stand-in with the same evaluation interface.

    Used for verification problems with known closed-form behavior; the
    state arguments are accepted and ignored apart from broadcasting.
    The direct coefficients k_tt, k_ff, c_tt and c_ff must be positive,
    and every coefficient finite.
    """

    def __init__(self, name, k_tt, k_ff, c_tt, c_ff, k_tf=0.0, k_ft=0.0):
        direct = {"k_tt": k_tt, "k_ff": k_ff, "c_tt": c_tt, "c_ff": c_ff}
        bad = [k for k, v in direct.items() if not (np.isfinite(v) and v > 0.0)]
        bad += [k for k, v in (("k_tf", k_tf), ("k_ft", k_ft))
                if not np.isfinite(v)]
        if bad:
            raise ConstitutiveError(f"{name}: non-physical coefficients {bad}")
        self.name = name
        self._c = CoefficientSet(k_tt, k_tf, k_ft, k_ff, c_tt, c_ff)

    def coefficients(self, theta, phi) -> CoefficientSet:
        shape = np.broadcast(np.asarray(theta), np.asarray(phi)).shape
        if not shape:
            return self._c
        full = lambda v: np.full(shape, v, dtype=float)
        c = self._c
        return CoefficientSet(full(c.k_tt), full(c.k_tf), full(c.k_ft),
                              full(c.k_ff), full(c.c_tt), full(c.c_ff))

    def storage_derivatives(self, theta, phi):
        shape = np.broadcast(np.asarray(theta), np.asarray(phi)).shape
        zero = np.zeros(shape if shape else ())
        return zero, zero.copy()

    def conduction_derivatives(self, theta, phi):
        shape = np.broadcast(np.asarray(theta), np.asarray(phi)).shape
        zero = np.zeros(shape)
        return (zero,) * 4, (zero,) * 4

    def __repr__(self):
        return f"LinearMaterial({self.name})"


# reference parameter sets for a historic brick masonry
BRICK = MaterialParams("brick", w_f=229.30, w_80=141.68, lambda_0=0.25,
                       b_tcs=10.0, rho_s=1690.0, mu=16.80, A=0.51, c_s=840.0)
MORTAR = MaterialParams("mortar", w_f=160.00, w_80=22.72, lambda_0=0.45,
                        b_tcs=9.0, rho_s=1670.0, mu=9.63, A=0.82, c_s=1000.0)


def default_materials() -> dict[str, KunzelMaterial]:
    """Brick and mortar phases with the bundled reference parameters."""
    return {"brick": KunzelMaterial(BRICK), "mortar": KunzelMaterial(MORTAR)}
