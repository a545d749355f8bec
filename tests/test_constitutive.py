"""Constitutive relations against an independently coded oracle.

The oracle below re-derives every closed-form relation directly from
its printed definition (bisection for the approximation factor instead
of the closed form) so that the package implementation is checked by a
second route, not by itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamfe2 import constitutive as con
from hamfe2.config import KUNZEL_KEYS, ConfigError, load_materials

# ---------------------------------------------------------------- oracle

P_ATM = 101325.0
R_VAPOR = 8314.41 / 18.01528


def oracle_psat(theta):
    if theta < 0.0:
        a, t0 = 22.44, 272.44
    else:
        a, t0 = 17.08, 234.18
    return 611.0 * math.exp(a * theta / (t0 + theta))


def oracle_b_bisect(w_f, w_80):
    def resid(b):
        return w_f * (b - 1.0) * 0.8 / (b - 0.8) - w_80

    lo, hi = 1.0 + 1e-13, 100.0
    assert resid(lo) < 0.0 < resid(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if resid(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def oracle_w(w_f, b, phi):
    return w_f * (b - 1.0) * phi / (b - phi)


def oracle_dw(w_f, b, phi):
    return w_f * (b - 1.0) * b / (b - phi) ** 2


def oracle_delta(theta):
    t = theta + 273.15
    return 2.306e-5 * P_ATM / (R_VAPOR * t * P_ATM) * (t / 273.15) ** 1.81


def oracle_hv(theta):
    t = theta + 273.15
    return 2.5008e6 * (273.15 / t) ** (0.167 + 3.67e-4 * t)


def oracle_dw_cap(w_f, A, w):
    return 3.8 * (A / w_f) ** 2 * 1000.0 ** (w / w_f - 1.0)


PHASES = {"brick": con.BRICK, "mortar": con.MORTAR}
MATERIALS = {name: con.KunzelMaterial(params) for name, params in PHASES.items()}

# frozen reference values, produced by the oracle functions above
FROZEN = {
    "b_brick": 1.67854406130268,
    "b_mortar": 1.04316109422492,
    "psat_20": 2342.62285291523,
    "delta_20": 1.93698170970731e-10,
    "delta_p_brick_20": 1.15296530339721e-11,
    "w_brick_05": 66.0094765929779,
    "lam_brick_w80": 0.459585798816568,
    "hv_20": 2452744.29086859,
}

# ---------------------------------------------------------------- tests


def test_approximation_factor_matches_bisection_oracle():
    for name, params in PHASES.items():
        b_direct = con.derive_approximation_factor(params.w_f, params.w_80)
        b_oracle = oracle_b_bisect(params.w_f, params.w_80)
        assert abs(b_direct - b_oracle) / b_oracle < 1e-10
        assert abs(b_direct - FROZEN[f"b_{name}"]) / b_direct < 1e-12
        # recovering the measured w_80 closes the loop
        w_80 = con._water_content(params, b_direct, 0.8)
        assert abs(w_80 - params.w_80) < 1e-10 * params.w_f


def test_approximation_factor_trivial_case():
    # b = 2 gives w_80 = 0.8 w_f / 1.2 exactly
    w_f = 150.0
    w_80 = 0.8 * w_f / 1.2
    assert abs(con.derive_approximation_factor(w_f, w_80) - 2.0) < 1e-12


def test_approximation_factor_rejects_infeasible():
    with pytest.raises(con.ConstitutiveError):
        con.derive_approximation_factor(100.0, 80.0)  # exactly 0.8 w_f
    with pytest.raises(con.ConstitutiveError):
        con.derive_approximation_factor(100.0, 120.0)
    with pytest.raises(con.ConstitutiveError):
        con.MaterialParams("bad", 100.0, 95.0, 0.2, 9.0, 1700.0, 10.0, 0.5, 900.0)
    # a w_80 this small passes MaterialParams, but b rounds to exactly 1
    assert 0.8 * (229.3 - 1e-300) / (0.8 * 229.3 - 1e-300) == 1.0
    with pytest.raises(con.ConstitutiveError, match="not above 1"):
        con.derive_approximation_factor(229.3, 1e-300)


def test_frozen_spot_values():
    brick = MATERIALS["brick"]
    assert con._saturation(20.0)[0] == pytest.approx(FROZEN["psat_20"], rel=1e-12)
    assert con._vapor_diffusion(20.0) == pytest.approx(FROZEN["delta_20"], rel=1e-12)
    assert con._vapor_diffusion(20.0) / con.BRICK.mu == pytest.approx(
        FROZEN["delta_p_brick_20"], rel=1e-12)
    assert con._water_content(con.BRICK, brick.b, 0.5) == pytest.approx(
        FROZEN["w_brick_05"], rel=1e-12)
    # at phi = 0.8 the water content is w_80, and k_tt is the
    # conductivity plus h_v k_ft
    c = brick.coefficients(20.0, 0.8)
    assert c.k_tt - con._latent_heat(20.0) * c.k_ft == pytest.approx(
        FROZEN["lam_brick_w80"], rel=1e-12)
    assert con._latent_heat(20.0) == pytest.approx(FROZEN["hv_20"], rel=1e-12)
    # both saturation pressure branches meet at the freezing point
    assert con._saturation(0.0)[0] == pytest.approx(611.0, rel=1e-12)
    assert con._saturation(-1e-9)[0] == pytest.approx(611.0, rel=1e-6)


def test_all_formulas_match_oracle_on_sampled_states():
    rng = np.random.default_rng(42)
    for params in PHASES.values():
        b = oracle_b_bisect(params.w_f, params.w_80)
        theta = rng.uniform(-20.0, 40.0, size=200)
        phi = rng.uniform(0.05, 0.98, size=200)
        coeff = con.KunzelMaterial(params).coefficients(theta, phi)
        for th, ph, ktt, ktf, kft, kff, ctt, cff in zip(
                theta, phi, coeff.k_tt, coeff.k_tf, coeff.k_ft, coeff.k_ff,
                coeff.c_tt, coeff.c_ff):
            w = oracle_w(params.w_f, b, ph)
            dp = oracle_delta(th) / params.mu
            ps = oracle_psat(th)
            if th < 0.0:
                a, t0 = 22.44, 272.44
            else:
                a, t0 = 17.08, 234.18
            dps = ps * a * t0 / (t0 + th) ** 2
            hv = oracle_hv(th)
            lam = params.lambda_0 * (1.0 + params.b_tcs * w / params.rho_s)
            dphi = oracle_dw_cap(params.w_f, params.A, w) * oracle_dw(params.w_f, b, ph)
            assert ktt == pytest.approx(lam + hv * dp * ph * dps, rel=1e-10)
            assert ktf == pytest.approx(hv * dp * ps, rel=1e-10)
            assert kft == pytest.approx(dp * ph * dps, rel=1e-10)
            assert kff == pytest.approx(dphi + dp * ps, rel=1e-10)
            assert ctt == pytest.approx(params.rho_s * params.c_s + 4187.0 * w, rel=1e-10)
            assert cff == pytest.approx(oracle_dw(params.w_f, b, ph), rel=1e-10)


def test_vectorized_matches_scalar():
    theta = np.array([-5.0, 0.0, 12.5, 33.0])
    phi = np.array([0.2, 0.5, 0.7, 0.95])
    mortar = MATERIALS["mortar"]
    c_vec = mortar.coefficients(theta, phi)
    for i in range(theta.size):
        c_s = mortar.coefficients(float(theta[i]), float(phi[i]))
        for f in ("k_tt", "k_tf", "k_ft", "k_ff", "c_tt", "c_ff"):
            assert getattr(c_vec, f)[i] == pytest.approx(getattr(c_s, f), rel=1e-14)


def test_validity_window_enforced():
    brick = MATERIALS["brick"]
    with pytest.raises(con.ConstitutiveError):
        brick.coefficients(-45.0, 0.5)
    with pytest.raises(con.ConstitutiveError):
        brick.conduction_derivatives(85.0, 0.5)
    with pytest.raises(con.ConstitutiveError):
        brick.storage_derivatives(20.0, 1.5)
    with pytest.raises(con.ConstitutiveError):
        brick.coefficients(np.array([10.0, 90.0]), np.array([0.5, 0.5]))


def oracle_evaluation(params, b, theta, phi):
    """Every quantity KunzelMaterial evaluates at one scalar state, from
    the oracle functions above and the printed closed forms:
    (coefficients, storage derivatives, d/dtheta, d/dphi)."""
    w = oracle_w(params.w_f, b, phi)
    dw = oracle_dw(params.w_f, b, phi)
    d2w = 2.0 * params.w_f * (b - 1.0) * b / (b - phi) ** 3
    dp = oracle_delta(theta) / params.mu
    psat = oracle_psat(theta)
    a, t0 = (22.44, 272.44) if theta < 0.0 else (17.08, 234.18)
    dpsat = psat * a * t0 / (t0 + theta) ** 2
    hv = oracle_hv(theta)
    lam = params.lambda_0 * (1.0 + params.b_tcs * w / params.rho_s)
    d_w = oracle_dw_cap(params.w_f, params.A, w)
    coeff = (lam + hv * dp * phi * dpsat, hv * dp * psat, dp * phi * dpsat,
             d_w * dw + dp * psat, params.rho_s * params.c_s + 4187.0 * w, dw)
    storage = (4187.0 * dw, d2w)
    t_abs = theta + 273.15
    ddp = 0.81 * dp / t_abs
    d2psat = dpsat * (a * t0 / (t0 + theta) ** 2 - 2.0 / (t0 + theta))
    dhv = hv * (3.67e-4 * math.log(273.15 / t_abs)
                - (0.167 + 3.67e-4 * t_abs) / t_abs)
    dft_t = phi * (ddp * dpsat + dp * d2psat)
    dvapor_t = ddp * psat + dp * dpsat
    d_theta = (dhv * coeff[2] + hv * dft_t, dhv * (dp * psat) + hv * dvapor_t,
               dft_t, dvapor_t)
    d_phi = (params.lambda_0 * params.b_tcs * dw / params.rho_s
             + hv * dp * dpsat, 0.0, dp * dpsat,
             d_w * (math.log(1000.0) * dw ** 2 / params.w_f + d2w))
    return coeff, storage, d_theta, d_phi


# both sides of the freezing point, and the admissible band's edges
EXACT_THETA = (-39.9, -12.5, -1e-9, 0.0, 1e-9, 3.25, 20.0, 79.9)
EXACT_PHI = (-0.01, 0.0, 0.3, 0.5, 0.8, 0.97, 1.0, 1.01)


@pytest.mark.parametrize("name", ["brick", "mortar"])
def test_material_evaluation_matches_oracle_on_exact_grid(name):
    mat = MATERIALS[name]
    grid = np.meshgrid(EXACT_THETA, EXACT_PHI, indexing="ij")
    states = [(th, ph) for th in EXACT_THETA for ph in EXACT_PHI]
    states.append((grid[0].ravel(), grid[1].ravel()))
    for theta, phi in states:
        c = mat.coefficients(theta, phi)
        got = ([getattr(c, f) for f in ("k_tt", "k_tf", "k_ft", "k_ff",
                                        "c_tt", "c_ff")],
               mat.storage_derivatives(theta, phi),
               *mat.conduction_derivatives(theta, phi))
        for i, (th, ph) in enumerate(zip(np.ravel(theta), np.ravel(phi))):
            want = oracle_evaluation(mat.params, mat.b, float(th), float(ph))
            for got_group, want_group in zip(got, want):
                assert len(got_group) == len(want_group)
                for g, w in zip(got_group, want_group):
                    assert np.shape(g) == np.shape(theta)
                    # the package and the oracle share b and differ only
                    # in exp, log, power and the order of operations:
                    # within 1e-13 relative (measured: 2.5 eps at most),
                    # and exactly 0 where the oracle is (phi = 0)
                    assert np.ravel(g)[i] == pytest.approx(
                        w, rel=1e-13, abs=0.0), (th, ph)


EVALUATIONS = ("coefficients", "storage_derivatives", "conduction_derivatives")
THETA_OUT = (-40.0, 80.0, np.nextafter(-40.0, -np.inf),
             np.nextafter(80.0, np.inf), np.nan, np.inf, -np.inf)
PHI_OUT = (np.nextafter(-0.01, -np.inf), np.nextafter(1.01, np.inf),
           np.nan, np.inf, -np.inf)


@pytest.mark.parametrize("method", EVALUATIONS)
def test_one_state_check_keeps_the_window_edges(method):
    evaluate = getattr(con.KunzelMaterial(con.BRICK), method)
    # open in theta, closed in phi
    evaluate(np.nextafter(-40.0, 0.0), -0.01)
    evaluate(np.nextafter(80.0, 0.0), 1.01)
    evaluate(np.array([np.nextafter(-40.0, 0.0), 20.0]), np.array([-0.01, 1.01]))
    for theta in THETA_OUT:
        for args in ((theta, 0.5), (np.array([20.0, theta]), np.array([0.5, 0.5]))):
            with pytest.raises(con.ConstitutiveError):
                evaluate(*args)
    for phi in PHI_OUT:
        for args in ((20.0, phi), (np.array([20.0, 20.0]), np.array([phi, 0.5]))):
            with pytest.raises(con.ConstitutiveError):
                evaluate(*args)


def test_state_errors_name_the_admissible_band():
    with pytest.raises(con.ConstitutiveError, match=r"\[-0\.01, 1\.01\]"):
        con.KunzelMaterial(con.BRICK).coefficients(20.0, 1.02)
    with pytest.raises(con.ConstitutiveError, match=r"\(-40\.0, 80\.0\)"):
        con.KunzelMaterial(con.BRICK).coefficients(80.0, 0.5)


def test_linear_material_constant_everywhere():
    mat = con.LinearMaterial("unit", k_tt=0.5, k_ff=0.2, c_tt=1.0e6, c_ff=40.0,
                             k_tf=0.01, k_ft=0.002)
    c = mat.coefficients(np.array([1.0, 2.0]), np.array([0.3, 0.4]))
    assert np.all(c.k_tt == 0.5) and np.all(c.k_ff == 0.2)
    assert np.all(c.k_tf == 0.01) and np.all(c.k_ft == 0.002)
    assert c.k_tt.shape == (2,)


@pytest.mark.parametrize("key, value", [
    ("k_tt", -2.0), ("k_ff", 0.0), ("c_tt", 0.0), ("c_ff", -1.0),
    ("k_tt", np.inf), ("c_ff", np.nan), ("k_tf", np.nan), ("k_ft", np.inf)])
def test_linear_material_rejects_non_physical_coefficients(key, value):
    coefficients = dict(k_tt=0.5, k_ff=0.2, c_tt=1.0e6, c_ff=40.0)
    coefficients[key] = value
    with pytest.raises(con.ConstitutiveError, match=f"unit: .*{key}"):
        con.LinearMaterial("unit", **coefficients)


def test_saturation_pressure_kinks_at_freezing():
    # continuous at 0 deg C, but the slope jumps between the two branches
    (p_below, dp_below), (p_above, dp_above) = (con._saturation(-1e-9),
                                                con._saturation(1e-9))
    assert p_below == pytest.approx(611.0, rel=1e-9)
    assert p_above == pytest.approx(611.0, rel=1e-9)
    assert dp_below == pytest.approx(50.33, abs=5e-3)
    assert dp_above == pytest.approx(44.56, abs=5e-3)


CONDUCTION = ("k_tt", "k_tf", "k_ft", "k_ff")


@pytest.mark.parametrize("name", ["brick", "mortar"])
def test_conduction_derivatives_match_central_differences(name):
    # both branches of p_sat, kept clear of the kink at 0 deg C
    mat = con.default_materials()[name]
    theta, phi = np.meshgrid([-20.0, -3.0, 3.54, 20.0, 60.0],
                             [0.1, 0.5, 0.9, 0.99])
    theta, phi = theta.ravel(), phi.ravel()
    d_theta, d_phi = mat.conduction_derivatives(theta, phi)
    base = mat.coefficients(theta, phi)
    for dof, analytic, h in ((0, d_theta, 1e-4), (1, d_phi, 1e-6)):
        up = mat.coefficients(theta + h * (dof == 0), phi + h * (dof == 1))
        down = mat.coefficients(theta - h * (dof == 0), phi - h * (dof == 1))
        for k, got in zip(CONDUCTION, analytic):
            fd = (getattr(up, k) - getattr(down, k)) / (2.0 * h)
            # per unit of the state, relative to the coefficient itself:
            # the theta derivative of k_ff is small against its liquid
            # part, so its difference loses digits to k_ff's size
            err = np.abs(got - fd)
            assert np.all(err <= 1e-8 * np.abs(getattr(base, k))
                          + 1e-6 * np.abs(fd)), (name, dof, k)
    assert np.all(d_phi[1] == 0.0)


@pytest.mark.parametrize("name", ["brick", "mortar"])
def test_storage_derivatives_match_central_differences(name):
    # both sides of 0 deg C; the storage terms depend on phi alone
    mat = con.default_materials()[name]
    theta, phi = np.meshgrid([-20.0, -3.0, 3.54, 20.0, 60.0],
                             [0.1, 0.5, 0.9, 0.99])
    theta, phi = theta.ravel(), phi.ravel()
    analytic = mat.storage_derivatives(theta, phi)
    base = mat.coefficients(theta, phi)
    h = 1e-6
    up = mat.coefficients(theta, phi + h)
    down = mat.coefficients(theta, phi - h)
    for k, got in zip(("c_tt", "c_ff"), analytic):
        fd = (getattr(up, k) - getattr(down, k)) / (2.0 * h)
        # per unit of phi, relative to the coefficient itself: c_tt
        # carries the dry rho_s c_s, whose rounding the difference
        # divides by h
        err = np.abs(got - fd)
        assert np.all(err <= 1e-8 * np.abs(getattr(base, k))
                      + 1e-6 * np.abs(fd)), (name, k)


def test_linear_material_has_no_conduction_derivatives():
    mat = con.LinearMaterial("unit", k_tt=0.5, k_ff=0.2, c_tt=1.0e6,
                             c_ff=40.0, k_tf=0.01)
    d_theta, d_phi = mat.conduction_derivatives(np.array([1.0, 2.0]),
                                                np.array([0.3, 0.4]))
    for d in (*d_theta, *d_phi):
        assert d.shape == (2,) and np.all(d == 0.0)


# -------------------------------------------------- property invariants

feasible = st.tuples(
    st.floats(min_value=50.0, max_value=400.0),
    st.floats(min_value=0.01, max_value=0.78),
).map(lambda t: (t[0], t[1] * t[0]))


@settings(max_examples=100, deadline=None)
@given(feasible)
def test_property_b_recovers_w80(pair):
    w_f, w_80 = pair
    b = con.derive_approximation_factor(w_f, w_80)
    assert b > 1.0
    assert oracle_w(w_f, b, 0.8) == pytest.approx(w_80, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-39.0, max_value=79.0))
def test_property_psat_derivative_matches_fd(theta):
    # stay on one branch of the piecewise fit
    h = 1e-5
    if -h * 4 < theta < h * 4:
        theta = 1.0
    fd = (oracle_psat(theta + h) - oracle_psat(theta - h)) / (2.0 * h)
    assert con._saturation(theta)[1] == pytest.approx(fd, rel=1e-6)


@settings(max_examples=100, deadline=None)
@given(feasible, st.floats(min_value=0.01, max_value=0.97))
def test_property_moisture_capacity_matches_fd(pair, phi):
    w_f, w_80 = pair
    params = con.MaterialParams("p", w_f, w_80, 0.3, 8.0, 1500.0, 12.0, 0.5, 900.0)
    b = con.KunzelMaterial(params).b
    h = 1e-6
    fd = (con._water_content(params, b, phi + h)
          - con._water_content(params, b, phi - h)) / (2 * h)
    assert con._moisture_capacity(params, b, phi) == pytest.approx(fd, rel=1e-6)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-20.0, max_value=60.0),
       st.floats(min_value=0.05, max_value=1.0))
def test_property_coefficients_positive_and_bounded(theta, phi):
    for mat in MATERIALS.values():
        c = mat.coefficients(theta, phi)
        assert c.k_tt > 0 and c.k_tf > 0 and c.k_ft > 0 and c.k_ff > 0
        assert c.c_ff > 0
        assert c.c_tt >= mat.params.rho_s * mat.params.c_s


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.95), st.floats(min_value=0.001, max_value=0.04))
def test_property_water_content_monotone(phi, dphi):
    for mat in MATERIALS.values():
        assert (con._water_content(mat.params, mat.b, phi + dphi)
                > con._water_content(mat.params, mat.b, phi))


# ----------------------------------------------------- material file io


def test_material_file_round_trip(tmp_path):
    path = tmp_path / "materials.ini"
    path.write_text("".join(
        f"[{name}]\ntype = kunzel\n" + "".join(
            f"{field} = {getattr(params, field)!r}\n" for field in KUNZEL_KEYS)
        for name, params in PHASES.items()))
    loaded = load_materials(str(path))
    assert set(loaded) == {"brick", "mortar"}
    for name, params in PHASES.items():
        for field in KUNZEL_KEYS:
            assert getattr(loaded[name].params, field) == getattr(params, field)


def test_material_file_reports_all_problems(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[brick]\ntype = kunzel\nw_f = 100\n"
                    "[mortar]\ntype = kunzel\nw_f = abc\n")
    with pytest.raises(ConfigError) as err:
        load_materials(str(path))
    msg = str(err.value)
    assert "brick" in msg and "mortar" in msg and "missing" in msg
