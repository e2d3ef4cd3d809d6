"""Model function tests against frozen high-precision reference values.

Reference numbers were computed once with mpmath at 50 significant digits
and are asserted here to near machine precision; a few are re-derived
in-test so a regression in the frozen constants would also be caught.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echofit import models
from echofit.constants import MU_B_OVER_K_B
from echofit.presets import FIELD_7MK, SD_7MK_009T, SD_7MK_009T_FIXED

mp = pytest.importorskip("mpmath")

RTOL = 1e-13

# Fixed values of the field and sech2 laws at 7 mK, and of the population
# factor and the stimulated echo at the reference lifetimes.
AT_7MK = {"temp_k": 0.007}
LIFETIMES = {"t1_ms": 9.0, "tz_s": 2.0}
ECHO3_FIXED = {**LIFETIMES, **SD_7MK_009T_FIXED}


def test_mu_b_over_k_b_value():
    # CODATA 2018 ratio, K/T
    assert MU_B_OVER_K_B == pytest.approx(0.6717138156258397, rel=1e-15)
    assert abs(MU_B_OVER_K_B - 0.6717) / 0.6717 < 1e-4


# ---------------------------------------------------------------------------
# Mims stretched exponential
# ---------------------------------------------------------------------------

def test_mims_frozen_values():
    p = dict(i0=1.0, tm_us=40.0, x=1.5)
    # exp(-2*(2*10/40)^1.5) = exp(-2^(1/2)/2... ) frozen below
    assert models.mims_intensity(p, 10.0) == pytest.approx(
        0.4930686913952398, rel=RTOL)
    p2 = dict(i0=0.3, tm_us=40.0, x=1.3)
    # at t12 = T_M/2 the exponent is exactly -2 for any x
    assert models.mims_intensity(p2, 20.0) == pytest.approx(
        0.04060058497098381, rel=RTOL)


def test_mims_against_mpmath():
    mp.mp.dps = 50
    p = dict(i0=0.7, tm_us=13.26, x=2.4)
    for t in (0.25, 1.0, 5.0, 12.0):
        want = float(mp.mpf("0.7") * mp.exp(
            -2 * (2 * mp.mpf(t) / mp.mpf("13.26")) ** mp.mpf("2.4")))
        assert models.mims_intensity(p, t) == pytest.approx(want, rel=1e-14)


def test_mims_at_zero_is_i0():
    p = dict(i0=0.42, tm_us=7.0, x=1.1)
    assert models.mims_intensity(p, 0.0) == 0.42


def test_mims_vector_matches_scalar():
    p = dict(i0=1.0, tm_us=40.0, x=1.3)
    t = np.array([0.0, 0.5, 3.0, 40.0])
    vec = models.mims_intensity(p, t)
    assert vec.shape == (4,)
    for i, ti in enumerate(t):
        assert vec[i] == models.mims_intensity(p, float(ti))


@given(
    tm=st.floats(1.0, 500.0),
    x=st.floats(0.31, 3.9),
    i0=st.floats(0.01, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_mims_strictly_decreasing(tm, x, i0):
    p = dict(i0=i0, tm_us=tm, x=x)
    # stay below the +-700 exponent clamp where the tail goes flat
    t_max = min(3.0 * tm, 0.5 * tm * 349.0 ** (1.0 / x))
    t = np.linspace(0.0, t_max, 64)
    y = models.mims_intensity(p, t)
    assert np.all(np.diff(y) < 0)
    assert np.all(y > 0)
    assert np.all(y <= i0)


@given(st.floats(0.31, 3.9), st.floats(2.0, 200.0))
@settings(max_examples=40, deadline=None)
def test_mims_log_is_power_law_in_t12(x, tm):
    # -ln(I/I0) must scale as t12^x: ratio of logs at 2t and t is 2^x
    p = dict(i0=1.0, tm_us=tm, x=x)
    t = 0.2 * tm
    l1 = -np.log(models.mims_intensity(p, t))
    l2 = -np.log(models.mims_intensity(p, 2 * t))
    assert l2 / l1 == pytest.approx(2.0 ** x, rel=1e-10)


def test_gamma_tm_conversion_frozen():
    assert models.gamma_eff_from_tm(40.0) == pytest.approx(
        7.957747154594767, rel=RTOL)
    assert models.gamma_eff_from_tm(13.26) == pytest.approx(
        24.00527045126626, rel=RTOL)


@given(st.floats(0.5, 1e4))
@settings(max_examples=50, deadline=None)
def test_gamma_tm_roundtrip(tm):
    g = models.gamma_eff_from_tm(tm)
    assert models.tm_from_gamma_eff(g) == pytest.approx(tm, rel=1e-14)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_gamma_from_nonpositive_tm_rejected(bad):
    with pytest.raises(ValueError):
        models.gamma_eff_from_tm(bad)


# ---------------------------------------------------------------------------
# Magnetic-field model
# ---------------------------------------------------------------------------

def test_field_zero_field_identity():
    got = models.field_linewidth(FIELD_7MK, 0.0, AT_7MK)
    assert got == pytest.approx(40.02, abs=1e-9)
    # identity holds at any temperature, exponentials are exactly 1 at B=0
    assert models.field_linewidth(FIELD_7MK, 0.0, {"temp_k": 1.3}) == got


def test_field_frozen_value_at_2t():
    assert models.field_linewidth(FIELD_7MK, 2.0, AT_7MK) == pytest.approx(
        19.88092175380591, rel=RTOL)


def test_field_against_mpmath():
    mp.mp.dps = 50
    c = mp.mpf(MU_B_OVER_K_B)
    b, t = mp.mpf("0.35"), mp.mpf("0.007")
    want = float(
        mp.mpf("7.42")
        + mp.mpf("32.60") * mp.exp(-mp.mpf("0.3507") * c * b / t)
        + mp.mpf("17.62") * (1 - mp.exp(-mp.mpf("0.0064") * c * b / t)))
    got = models.field_linewidth(FIELD_7MK, 0.35, AT_7MK)
    assert got == pytest.approx(want, rel=1e-14)


def test_field_asymptote():
    # both exponent arguments exceed 50 for B > ~81.4 T at 7 mK
    for b in (90.0, 200.0, 1e4):
        got = models.field_linewidth(FIELD_7MK, b, AT_7MK)
        assert abs(got - 25.04) < 1e-9


@given(st.floats(0.002, 4.0))
@settings(max_examples=50, deadline=None)
def test_field_zero_identity_any_temperature(temp_k):
    got = models.field_linewidth(FIELD_7MK, 0.0, {"temp_k": temp_k})
    assert got == pytest.approx(
        FIELD_7MK["gamma0_khz"] + FIELD_7MK["alpha1_khz"], abs=1e-12)


def test_field_minimum_matches_analytic():
    p = FIELD_7MK
    c = MU_B_OVER_K_B / 0.007
    b_star = (np.log(p["alpha1_khz"] * p["g1"] / (p["alpha2_khz"] * p["g2"]))
              / ((p["g1"] - p["g2"]) * c))
    assert b_star == pytest.approx(0.13980294336456724, rel=1e-12)
    found_b, found_g, boundary = models.field_linewidth_minimum(p, 2.0, AT_7MK)
    assert boundary is None
    assert abs(found_b - b_star) < 1e-6
    assert found_g == pytest.approx(9.164794567223437, rel=1e-10)


def test_field_minimum_interior_is_stationary():
    b, g, boundary = models.field_linewidth_minimum(FIELD_7MK, 2.0, AT_7MK)
    eps = 1e-5
    g_lo = models.field_linewidth(FIELD_7MK, b - eps, AT_7MK)
    g_hi = models.field_linewidth(FIELD_7MK, b + eps, AT_7MK)
    assert g <= g_lo and g <= g_hi


def test_field_minimum_boundary_flags():
    # pure rise (alpha1 = 0): minimum sits at B = 0
    rise = dict(gamma0_khz=5.0, alpha1_khz=0.0, alpha2_khz=10.0, g1=0.35, g2=0.01)
    b, g, boundary = models.field_linewidth_minimum(rise, 2.0, AT_7MK)
    assert boundary == "low" and b == 0.0 and g == pytest.approx(5.0)
    # pure decay (alpha2 = 0): minimum pinned at B_max
    fall = dict(gamma0_khz=5.0, alpha1_khz=10.0, alpha2_khz=0.0, g1=0.35, g2=0.01)
    b, g, boundary = models.field_linewidth_minimum(fall, 2.0, AT_7MK)
    assert boundary == "high" and b == 2.0


def test_field_minimum_passes_over_a_stationary_maximum():
    # g1 < g2 with alpha1*g1 < alpha2*g2: the one stationary point, at the
    # same closed form, is a maximum, so the minimum is the lower end point
    p = dict(gamma0_khz=5.0, alpha1_khz=10.0, alpha2_khz=4.0, g1=0.01, g2=0.35)
    c = MU_B_OVER_K_B / 0.007
    b_stat = (np.log(p["alpha1_khz"] * p["g1"] / (p["alpha2_khz"] * p["g2"]))
              / ((p["g1"] - p["g2"]) * c))
    assert 0.0 < b_stat < 0.2
    for b_max, b_want, want in ((0.2, 0.0, "low"), (2.0, 2.0, "high")):
        g_want = models.field_linewidth(p, b_want, AT_7MK)
        assert models.field_linewidth(p, b_stat, AT_7MK) > g_want
        assert models.field_linewidth_minimum(p, b_max, AT_7MK) == (b_want, g_want, want)


def test_field_minimum_at_or_beyond_b_max_is_the_high_end():
    c = MU_B_OVER_K_B / 0.007
    p = FIELD_7MK
    b_star = (np.log(p["alpha1_khz"] * p["g1"] / (p["alpha2_khz"] * p["g2"]))
              / ((p["g1"] - p["g2"]) * c))
    for b_max in (0.1, b_star):
        assert models.field_linewidth_minimum(p, b_max, AT_7MK) == \
            (b_max, models.field_linewidth(p, b_max, AT_7MK), "high")


@pytest.mark.parametrize("alpha1, g1, alpha2, g2, b_want, want", [
    (1.0, 0.35, 10.0, 0.1, 0.0, "low"),     # alpha1*g1 < alpha2*g2
    (2.0, 0.5, 4.0, 0.25, 0.0, "low"),      # alpha1*g1 = alpha2*g2: dGamma/dB(0) = 0
    # g1 = g2: Gamma = gamma0 + alpha2 + (alpha1 - alpha2) e^(-g c B) is
    # monotone, and the sign of alpha1 - alpha2 picks the end
    (10.0, 0.2, 4.0, 0.2, 2.0, "high"),
    (4.0, 0.2, 10.0, 0.2, 0.0, "low"),
])
def test_field_minimum_without_an_interior_minimum_is_an_end_point(alpha1, g1, alpha2, g2,
                                                                   b_want, want):
    p = dict(gamma0_khz=5.0, alpha1_khz=alpha1, alpha2_khz=alpha2, g1=g1, g2=g2)
    assert models.field_linewidth_minimum(p, 2.0, AT_7MK) == \
        (b_want, models.field_linewidth(p, b_want, AT_7MK), want)


@given(st.tuples(*[st.floats(0.0, 50.0)] * 3), st.floats(0.0, 2.0), st.floats(0.0, 2.0),
       st.floats(0.005, 1.0), st.floats(0.01, 20.0))
@example((0.0, 1.0, 1.0), 2.225073858507203e-309, 5e-324, 1.0, 1.0)  # B* overflows
@settings(max_examples=200, deadline=None)
def test_field_minimum_is_the_lowest_point_and_stationary(amplitudes, g1, g2, temp_k, b_max):
    p = dict(zip(("gamma0_khz", "alpha1_khz", "alpha2_khz"), amplitudes), g1=g1, g2=g2)
    b, g, boundary = models.field_linewidth_minimum(p, b_max, {"temp_k": temp_k})
    assert g == models.field_linewidth(p, b, {"temp_k": temp_k})
    assert b == {"low": 0.0, "high": b_max}.get(boundary, b)
    # The law's rounding error scales with its terms, not with their sum:
    # 1 - e^(-g2*c*B) keeps no digit of a rise far below the float epsilon.
    dense = models.field_linewidth(p, np.linspace(0.0, b_max, 4001), {"temp_k": temp_k})
    assert g <= dense.min() + 1e-12 * sum(amplitudes)
    if boundary is None:
        assert 0.0 < b < b_max
        c = MU_B_OVER_K_B / temp_k
        falling = p["alpha1_khz"] * p["g1"] * np.exp(-p["g1"] * c * b)
        rising = p["alpha2_khz"] * p["g2"] * np.exp(-p["g2"] * c * b)
        assert abs(falling - rising) <= 1e-9 * falling


# ---------------------------------------------------------------------------
# Temperature law
# ---------------------------------------------------------------------------

def test_temp_frozen_values():
    p = dict(floor_khz=0.0, amp_khz=100.0, exponent_n=1.34)
    assert models.temp_linewidth(p, 0.2) == pytest.approx(
        11.571247800619314, rel=RTOL)
    p2 = dict(floor_khz=0.0, amp_khz=100.0, exponent_n=1.53)
    assert models.temp_linewidth(p2, 0.2) == pytest.approx(
        8.522674328957924, rel=RTOL)


@given(st.floats(0.51, 2.9), st.floats(0.0, 20.0), st.floats(0.1, 200.0))
@settings(max_examples=50, deadline=None)
def test_temp_monotone_increasing(n, floor, amp):
    p = dict(floor_khz=floor, amp_khz=amp, exponent_n=n)
    t = np.linspace(0.006, 4.0, 40)
    y = models.temp_linewidth(p, t)
    assert np.all(np.diff(y) > 0)
    assert y[0] > floor


# ---------------------------------------------------------------------------
# Spectral diffusion linewidth
# ---------------------------------------------------------------------------

def test_sd_frozen_values():
    assert models.sd_linewidth(SD_7MK_009T, 0.0, 50.0, SD_7MK_009T_FIXED) == pytest.approx(
        8.898987306995117, rel=RTOL)
    assert models.sd_linewidth(SD_7MK_009T, 0.0, 5000.0, SD_7MK_009T_FIXED) == pytest.approx(
        51.20986294111024, rel=RTOL)


def test_sd_at_t0_has_no_log_term():
    # at t23 = t0 only the saturating flip-flop term adds to gamma0
    p, t0_us = SD_7MK_009T, SD_7MK_009T_FIXED["t0_us"]
    got = models.sd_linewidth(p, 0.0, t0_us, SD_7MK_009T_FIXED)
    r_t23 = p["r_sd_khz"] * t0_us * 1e-3
    want = p["gamma0_khz"] + 0.5 * p["gamma_sd_khz"] * (1.0 - np.exp(-r_t23))
    assert got == pytest.approx(want, rel=1e-15)


def test_sd_rejects_t23_before_t0():
    with pytest.raises(ValueError):
        models.sd_linewidth(SD_7MK_009T, 0.0, 10.0, SD_7MK_009T_FIXED)


@given(st.floats(0.0, 5.0), st.floats(50.0, 7500.0))
@settings(max_examples=60, deadline=None)
def test_sd_t12_term_is_linear(t12, t23):
    # Gamma(t12, t23) - Gamma(0, t23) = GammaSD/2 * R_SD * t12 for any t23
    d = (models.sd_linewidth(SD_7MK_009T, t12, t23, SD_7MK_009T_FIXED)
         - models.sd_linewidth(SD_7MK_009T, 0.0, t23, SD_7MK_009T_FIXED))
    want = 0.5 * SD_7MK_009T["gamma_sd_khz"] * SD_7MK_009T["r_sd_khz"] * t12 * 1e-3
    assert d == pytest.approx(want, abs=1e-12)


@given(st.floats(50.0, 7400.0))
@settings(max_examples=40, deadline=None)
def test_sd_monotone_in_t23(t23):
    lo = models.sd_linewidth(SD_7MK_009T, 0.2, t23, SD_7MK_009T_FIXED)
    hi = models.sd_linewidth(SD_7MK_009T, 0.2, t23 * 1.01, SD_7MK_009T_FIXED)
    assert hi > lo


# ---------------------------------------------------------------------------
# Three-level population factor and stimulated echo
# ---------------------------------------------------------------------------

def test_population_frozen_value():
    assert models.three_level_population_factor({"beta": 0.5}, 100.0, LIFETIMES) == pytest.approx(
        0.23889351870924031, rel=RTOL)


def test_population_starts_at_one():
    assert models.three_level_population_factor({"beta": 0.7}, 0.0, LIFETIMES) == 1.0


def test_population_continuous_across_equal_lifetimes():
    # the Tz -> T1 limit branch must join the exact formula smoothly
    t1 = 9.0
    t = np.linspace(0.0, 5 * t1, 201)
    limit = models.three_level_population_factor(
        {"beta": 0.5}, t, {"t1_ms": t1, "tz_s": t1 * 1e-3})
    for eps in (1e-7, -1e-7):
        near = models.three_level_population_factor(
            {"beta": 0.5}, t, {"t1_ms": t1, "tz_s": t1 * 1e-3 * (1 + eps)})
        assert np.max(np.abs(near - limit)) < 1e-8


def test_population_beta_zero_is_plain_decay():
    t = np.array([0.0, 1.0, 9.0, 40.0])
    np.testing.assert_allclose(
        models.three_level_population_factor({"beta": 0.0}, t, LIFETIMES), np.exp(-t / 9.0),
        rtol=1e-15)


def test_stimulated_echo_frozen_value():
    p = {"i0": 1.0, "beta": 0.2, **SD_7MK_009T}
    got = models.stimulated_echo_intensity(p, 0.33, 5000.0, ECHO3_FIXED)
    assert got == pytest.approx(0.3071660516779042, rel=RTOL)


def test_stimulated_echo_two_level_reduction():
    # beta = Gamma_SD = Gamma_TLS = 0 collapses to population^2 * exp(-4pi t12 Gamma0)
    p = dict(i0=0.8, beta=0.0, gamma0_khz=7.96, gamma_sd_khz=0.0, r_sd_khz=1.02,
             gamma_tls_khz=0.0)
    rng = np.random.default_rng(3)
    t12 = rng.uniform(0.05, 2.0, 10)
    t23 = rng.uniform(50.0, 7500.0, 10)
    got = models.stimulated_echo_intensity(p, t12, t23, {**LIFETIMES, "t0_us": 50.0})
    pop = np.exp(-t23 * 1e-3 / 9.0)
    want = 0.8 * pop ** 2 * np.exp(-4 * np.pi * t12 * 1e-3 * 7.96)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_stimulated_echo_decreasing_in_t12():
    p = {"i0": 1.0, "beta": 0.2, **SD_7MK_009T}
    t12 = np.array([0.09, 0.33, 1.068, 3.0])
    y = models.stimulated_echo_intensity(p, t12, 300.0, ECHO3_FIXED)
    assert np.all(np.diff(y) < 0)


# ---------------------------------------------------------------------------
# sech^2 diffusion amplitude
# ---------------------------------------------------------------------------

def test_sech2_frozen_value():
    got = models.sech2_sd_amplitude({"gamma_max_khz": 40.0, "g": 0.35}, 0.09, AT_7MK)
    assert got == pytest.approx(7.081020853822189, rel=RTOL)


def test_sech2_peak_at_zero_field():
    assert models.sech2_sd_amplitude({"gamma_max_khz": 37.0, "g": 0.35}, 0.0, AT_7MK) == 37.0


@given(st.floats(0.0, 3.0), st.floats(0.01, 1.0), st.floats(0.006, 4.0))
@settings(max_examples=60, deadline=None)
def test_sech2_bounded_by_peak(b, g, temp_k):
    got = models.sech2_sd_amplitude({"gamma_max_khz": 40.0, "g": g}, b, {"temp_k": temp_k})
    assert 0.0 <= got <= 40.0


def test_sech2_half_maximum_argument():
    # sech^2 drops to half when g*mu_B*B/(2 k_B T) = ln(1 + sqrt(2))
    g, temp_k = 0.35, 0.007
    b_half = 2 * temp_k * np.log(1 + np.sqrt(2)) / (g * MU_B_OVER_K_B)
    got = models.sech2_sd_amplitude({"gamma_max_khz": 1.0, "g": g}, b_half, {"temp_k": temp_k})
    assert got == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# purity: repeated evaluation is bit-identical
# ---------------------------------------------------------------------------

def test_model_calls_are_pure():
    t = np.linspace(0.0, 10.0, 33)
    p = dict(i0=1.0, tm_us=40.0, x=1.3)
    a = models.mims_intensity(p, t)
    b = models.mims_intensity(p, t)
    np.testing.assert_array_equal(a, b)
    bb = np.linspace(0.0, 2.0, 17)
    np.testing.assert_array_equal(
        models.field_linewidth(FIELD_7MK, bb, AT_7MK),
        models.field_linewidth(FIELD_7MK, bb, AT_7MK))


# ---------------------------------------------------------------------------
# every law reads its values by the catalog's rule
# ---------------------------------------------------------------------------

_ECHO3 = {"i0": 1.0, "beta": 0.2, **SD_7MK_009T}


@pytest.mark.parametrize("call, why", [
    (lambda: models.field_linewidth({**FIELD_7MK, "g3": 1.0}, 0.1, AT_7MK),
     "model 'field' has no parameters ['g3']; its parameters are gamma0_khz, alpha1_khz, "
     "alpha2_khz, g1, g2"),
    (lambda: models.field_linewidth(FIELD_7MK, 0.1), "model 'field' needs fixed values for "
                                                     "['temp_k']"),
    (lambda: models.field_linewidth_minimum(FIELD_7MK, 2.0, {"temp_k": 0.0}),
     "fixed value temp_k must be > 0, got 0.0"),
    (lambda: models.field_linewidth({**FIELD_7MK, "g2": -1.0}, 0.1, AT_7MK),
     "g2 must be >= 0"),
    (lambda: models.mims_intensity({"i0": 0.0, "tm_us": 40.0, "x": 1.3}, 1.0), "i0 must be > 0"),
    (lambda: models.mims_intensity({"i0": 1.0, "tm_us": 40.0}, 1.0),
     "model 'mims' needs parameter values for ['x']"),
    (lambda: models.temp_linewidth({"floor_khz": 1.0, "amp_khz": 2.0, "exponent_n": 9.0}, 0.1),
     "exponent_n must lie in [0.5, 3.0]"),
    (lambda: models.sd_linewidth({**SD_7MK_009T, "r_sd_khz": float("nan")}, 0.3, 300.0,
                                 SD_7MK_009T_FIXED),
     "parameter value r_sd_khz must be a finite number, got nan"),
    (lambda: models.sd_linewidth(SD_7MK_009T, 0.3, 300.0, {"t0_us": 0.0}),
     "fixed value t0_us must be > 0, got 0.0"),
    (lambda: models.stimulated_echo_intensity({**_ECHO3, "beta": 3.0}, 0.3, 300.0, ECHO3_FIXED),
     "beta must lie in [0.0, 2.0]"),
    (lambda: models.stimulated_echo_intensity({**_ECHO3, "t1_ms": 9.0}, 0.3, 300.0,
                                              ECHO3_FIXED),
     "model 'echo3' has no parameters ['t1_ms']; its parameters are i0, beta, gamma0_khz, "
     "gamma_sd_khz, r_sd_khz, gamma_tls_khz"),
    (lambda: models.stimulated_echo_intensity(_ECHO3, 0.3, 300.0, LIFETIMES),
     "model 'echo3' needs fixed values for ['t0_us']"),
    (lambda: models.three_level_population_factor({"i0": 1.0, "beta": 0.5}, 1.0, LIFETIMES),
     "model 'population' has no parameters ['i0']; its parameters are beta"),
    (lambda: models.three_level_population_factor({"beta": 0.5}, 1.0, {"t1_ms": 9.0}),
     "model 'population' needs fixed values for ['tz_s']"),
    (lambda: models.sech2_sd_amplitude({"gamma_max_khz": 40.0, "g": -0.35}, 0.1, AT_7MK),
     "g must be >= 0"),
], ids=["field-unknown", "field-no-temp", "minimum-temp-zero", "field-range", "mims-range",
        "mims-missing", "temp-range", "sd-nan", "sd-t0-zero", "echo3-range", "echo3-fixed-name",
        "echo3-no-t0", "population-unknown", "population-no-tz", "sech2-range"])
def test_a_law_reads_its_values_by_the_catalog_rule(call, why):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == why


# ---------------------------------------------------------------------------
# every law refuses an x value outside its model's domain
# ---------------------------------------------------------------------------

_MIMS = {"i0": 1.0, "tm_us": 40.0, "x": 1.3}
_SECH2 = {"gamma_max_khz": 40.0, "g": 0.35}
_TEMP = {"floor_khz": 7.5, "amp_khz": 45.0, "exponent_n": 1.34}


@pytest.mark.parametrize("law", [
    lambda x: models.mims_intensity(_MIMS, x),
    lambda x: models.field_linewidth(FIELD_7MK, x, AT_7MK),
    lambda x: models.temp_linewidth(_TEMP, x),
    lambda x: models.sech2_sd_amplitude(_SECH2, x, AT_7MK),
    lambda x: models.sd_linewidth(SD_7MK_009T, x, 300.0, SD_7MK_009T_FIXED),
    lambda x: models.sd_linewidth(SD_7MK_009T, 0.3, x, SD_7MK_009T_FIXED),
    lambda x: models.stimulated_echo_intensity(_ECHO3, x, 300.0, ECHO3_FIXED),
    lambda x: models.stimulated_echo_intensity(_ECHO3, 0.3, x, ECHO3_FIXED),
    lambda x: models.three_level_population_factor({"beta": 0.5}, x, LIFETIMES),
], ids=["mims", "field", "temp", "sech2", "sd-t12", "sd-t23", "echo3-t12", "echo3-t23",
        "population"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.array([0.5, np.nan, 1.0])],
                         ids=["nan", "inf", "-inf", "one-nan"])
def test_a_law_refuses_a_non_finite_x(law, bad):
    # field_linewidth(params, nan) returned nan, as most laws did
    with pytest.raises(ValueError) as exc:
        law(bad)
    assert str(exc.value) == "x values must be finite"


@pytest.mark.parametrize("call, why", [
    (lambda: models.mims_intensity(_MIMS, [1.0, -0.5]), "x value t12_us must be >= 0, got -0.5"),
    (lambda: models.sd_linewidth(SD_7MK_009T, 0.3, 10.0, SD_7MK_009T_FIXED),
     "x value t23_us must be >= t0_us, got 10.0"),
    (lambda: models.stimulated_echo_intensity(_ECHO3, -0.3, 300.0, ECHO3_FIXED),
     "x value t12_us must be >= 0, got -0.3"),
    (lambda: models.three_level_population_factor({"beta": 0.5}, -1.0, LIFETIMES),
     "x value t23_ms must be >= 0, got -1.0"),
], ids=["mims", "sd", "echo3", "population"])
def test_a_law_names_the_x_value_outside_its_domain(call, why):
    # the field, temp, echo3 and mims cases of synth's test check the laws too
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == why
