"""Synthetic trace/scan generation: determinism, noise statistics,
modulation rules and catalog round trips.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

from echofit import models, synth
from echofit.catalog import CATALOG
from echofit.fitting import fit
from echofit.presets import FIELD_7MK, SD_7MK_009T, TEMP_009T, THREE_LEVEL_7MK_009T
from echofit.synth import (NOISE_KINDS, Modulation, SynthSpec, build_grid, scan_table,
                           synth_scan, synth_trace, trace_sequence)
from echofit.values import FitError

MIMS_TRUTH = {"i0": 1.0, "tm_us": 40.0, "x": 1.3}


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_build_grid_linear_and_log():
    lin = build_grid((0.0, 10.0, 11, "linear"))
    np.testing.assert_allclose(lin, np.linspace(0.0, 10.0, 11))
    log = build_grid((0.25, 30.0, 50, "log"))
    assert log.size == 50
    assert log[0] == pytest.approx(0.25) and log[-1] == pytest.approx(30.0)
    ratios = log[1:] / log[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)


def test_build_grid_explicit_passthrough():
    g = build_grid([0.1, 0.5, 2.0, 7.0])
    np.testing.assert_array_equal(g, [0.1, 0.5, 2.0, 7.0])


@pytest.mark.parametrize("grid, error, why", [
    ((0.25, 30.0, 2.7, "log"), ValueError, "grid count must be an int >= 1, got 2.7"),
    ((0.25, 30.0, True, "log"), ValueError, "grid count must be an int >= 1, got True"),
    ((0.25, 30.0, "5", "log"), ValueError, "grid count must be an int >= 1, got '5'"),
    ((0.0, 1.0, 0, "linear"), ValueError, "grid count must be an int >= 1, got 0"),
    ((0.0, np.nan, 4, "linear"), ValueError, "grid edges must be finite, got 0.0 and nan"),
    ((np.inf, 30.0, 4, "log"), ValueError, "grid edges must be finite, got inf and 30.0"),
    ([0.5, np.nan, 2.0], FitError, "x values must be finite"),
    ([-np.inf, 0.0], FitError, "x values must be finite"),
], ids=["count-float", "count-bool", "count-str", "count-zero", "edge-nan", "edge-inf",
        "points-nan", "points-inf"])
def test_build_grid_refuses_a_count_or_values_it_cannot_build(grid, error, why):
    # 2.7 gave 2 points, True 1 point, "5" 5 points, a NaN edge an all-NaN
    # grid with two RuntimeWarnings; explicit points reached the model
    with pytest.raises(error) as exc:
        build_grid(grid)
    assert str(exc.value) == why


def test_build_grid_accepts_a_numpy_count():
    np.testing.assert_array_equal(build_grid((0.0, 1.0, np.int64(3), "linear")),
                                  [0.0, 0.5, 1.0])


def test_build_grid_rejects_non_increasing():
    with pytest.raises(ValueError):
        build_grid([0.1, 0.5, 0.5, 2.0])
    with pytest.raises(ValueError):
        build_grid((5.0, 1.0, 10, "linear"))
    with pytest.raises(ValueError):
        build_grid((0.0, 10.0, 5, "log"))  # log grid cannot start at 0


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def test_noiseless_trace_is_exact_model():
    spec = SynthSpec("mims", MIMS_TRUTH, (0.25, 30.0, 50, "log"))
    tr = synth_trace(spec)
    # bit-exact against the generation grid in microseconds; the stored
    # millisecond times round-trip with at most 1 ulp of wobble
    grid_us = build_grid((0.25, 30.0, 50, "log"))
    want = models.mims_intensity(MIMS_TRUTH, grid_us)
    np.testing.assert_array_equal(tr.intensity, want)
    np.testing.assert_allclose(tr.time_us, grid_us, rtol=1e-15)
    assert tr.sequence == "2ppe"
    assert tr.n_points == 50


def test_same_seed_is_bit_identical():
    spec = SynthSpec("mims", MIMS_TRUTH, (0.25, 30.0, 50, "log"),
                     ("multiplicative", 0.02), seed=77)
    a = synth_trace(spec)
    b = synth_trace(spec)
    np.testing.assert_array_equal(a.intensity, b.intensity)
    np.testing.assert_array_equal(a.time_ms, b.time_ms)


def test_different_seed_differs():
    mk = lambda s: synth_trace(SynthSpec(
        "mims", MIMS_TRUTH, (0.25, 30.0, 50, "log"),
        ("multiplicative", 0.02), seed=s))
    assert np.any(mk(1).intensity != mk(2).intensity)


def test_multiplicative_noise_statistics():
    spec = SynthSpec("mims", MIMS_TRUTH, (0.25, 30.0, 10000, "log"),
                     ("multiplicative", 0.02), seed=5)
    tr = synth_trace(spec)
    clean = models.mims_intensity(MIMS_TRUTH, tr.time_us)
    rel = tr.intensity / clean - 1.0
    assert abs(np.mean(rel)) < 0.001
    assert 0.018 < np.std(rel) < 0.022


def test_additive_noise_statistics():
    spec = SynthSpec("mims", MIMS_TRUTH, (0.25, 30.0, 10000, "log"),
                     ("additive", 0.005), seed=6)
    tr = synth_trace(spec)
    clean = models.mims_intensity(MIMS_TRUTH, tr.time_us)
    resid = tr.intensity - clean
    assert 0.0045 < np.std(resid) < 0.0055


def test_unknown_noise_kind_rejected():
    with pytest.raises(ValueError):
        synth_trace(SynthSpec("mims", MIMS_TRUTH, (0.25, 30.0, 10, "log"),
                              ("poisson", 0.02)))


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, True, -0.5])
def test_a_noise_sigma_that_is_no_finite_number_is_refused(sigma):
    # NaN gave an all-NaN table, inf an infinite one, and True was drawn as 1.0
    why = f"noise sigma must be a finite number >= 0, got {sigma!r}"
    for kind in NOISE_KINDS:
        with pytest.raises(ValueError) as scan:
            synth_scan("field", FIELD_7MK, _FIELD_GRID, (kind, sigma), fixed=_AT_7MK)
        with pytest.raises(ValueError) as trace:
            synth_trace(SynthSpec("mims", MIMS_TRUTH, (0.25, 30.0, 10, "log"), (kind, sigma)))
        assert str(scan.value) == str(trace.value) == why


def test_trace_metadata_round_trip():
    spec = SynthSpec("mims", MIMS_TRUTH, (0.25, 30.0, 20, "log"),
                     ("multiplicative", 0.02), seed=3,
                     temperature_k=0.007, field_t=0.09)
    tr = synth_trace(spec)
    assert tr.temperature_k == 0.007
    assert tr.field_t == 0.09
    assert "seed=3" in tr.provenance


def test_echo3_trace_requires_t12():
    truth = dict(i0=1.0, beta=0.2, **SD_7MK_009T)
    with pytest.raises(ValueError):
        synth_trace(SynthSpec("echo3", truth, (50.0, 7500.0, 30, "log"),
                              fixed={"t1_ms": 9.0, "tz_s": 2.0,
                                     "t0_us": 50.0}))
    tr = synth_trace(SynthSpec("echo3", truth, (50.0, 7500.0, 30, "log"),
                               fixed={"t1_ms": 9.0, "tz_s": 2.0,
                                      "t0_us": 50.0, "t12_us": 0.33}))
    assert tr.sequence == "3ppe-vs-t23"
    assert tr.t12_us == 0.33


# ---------------------------------------------------------------------------
# super-hyperfine modulation
# ---------------------------------------------------------------------------

def test_modulation_applies_to_2ppe_only():
    mod = Modulation(depth=0.2, freq_mhz=0.5, decay_us=10.0)
    spec = SynthSpec("mims", MIMS_TRUTH, (0.25, 30.0, 200, "linear"),
                     modulation=mod)
    tr = synth_trace(spec)
    clean = models.mims_intensity(MIMS_TRUTH, tr.time_us)
    factor = tr.intensity / clean
    assert factor.min() < 0.95 and factor.max() > 1.05
    want = 1 + 0.2 * np.cos(2 * np.pi * 0.5 * 2 * tr.time_us) * np.exp(
        -2 * tr.time_us / 10.0)
    np.testing.assert_allclose(factor, want, rtol=1e-10)

    truth = dict(i0=1.0, beta=0.2, **SD_7MK_009T)
    with pytest.raises(ValueError):
        synth_trace(SynthSpec("echo3", truth, (50.0, 7500.0, 30, "log"),
                              modulation=mod,
                              fixed={"t1_ms": 9.0, "tz_s": 2.0,
                                     "t0_us": 50.0, "t12_us": 0.33}))


def test_modulation_validation():
    with pytest.raises(ValueError):
        Modulation(depth=1.5, freq_mhz=0.5, decay_us=10.0)
    with pytest.raises(ValueError):
        Modulation(depth=0.2, freq_mhz=-1.0, decay_us=10.0)


@pytest.mark.parametrize("freq, decay, why", [
    (np.nan, 10.0, "modulation frequency must be a finite number > 0, got nan"),
    (np.inf, 10.0, "modulation frequency must be a finite number > 0, got inf"),
    (True, 10.0, "modulation frequency must be a finite number > 0, got True"),
    (0.5, np.nan, "modulation decay must be > 0, got nan"),
    (0.5, -np.inf, "modulation decay must be > 0, got -inf"),
], ids=["freq-nan", "freq-inf", "freq-bool", "decay-nan", "decay-minus-inf"])
def test_modulation_refuses_a_frequency_or_decay_it_cannot_use(freq, decay, why):
    # NaN and inf were accepted, and the trace then failed with
    # "intensities must be finite", which names the wrong input
    with pytest.raises(ValueError) as err:
        Modulation(depth=0.2, freq_mhz=freq, decay_us=decay)
    assert str(err.value) == why


@pytest.mark.parametrize("depth, decay, why", [
    (True, 10.0, "modulation depth must be a number in [0, 1], got True"),
    ("0.5", 10.0, "modulation depth must be a number in [0, 1], got '0.5'"),
    (np.nan, 10.0, "modulation depth must be a number in [0, 1], got nan"),
    (0.2, True, "modulation decay must be > 0, got True"),
    (0.2, "10", "modulation decay must be > 0, got '10'"),
], ids=["depth-bool", "depth-str", "depth-nan", "decay-bool", "decay-str"])
def test_modulation_refuses_a_depth_or_decay_that_is_no_number(depth, decay, why):
    # Modulation(True, 0.5, True) was made, with depth 1 and a 1 us decay;
    # a string raised TypeError from the comparison
    with pytest.raises(ValueError) as err:
        Modulation(depth=depth, freq_mhz=0.5, decay_us=decay)
    assert str(err.value) == why


def test_an_infinite_decay_leaves_the_modulation_undamped():
    t = np.array([0.0, 0.3, 1.0, 7.5])
    factor = Modulation(depth=0.2, freq_mhz=0.5, decay_us=np.inf).factor(t)
    np.testing.assert_array_equal(factor, 1 + 0.2 * np.cos(2 * np.pi * 0.5 * 2 * t))


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def test_field_scan_matches_model_and_orders_rows():
    tbl = synth_scan("field", dict(FIELD_7MK), (0.0, 2.0, 14, "linear"),
                     noise=("none", 0.0), fixed={"temp_k": 0.007})
    assert tbl.condition_axis == "field"
    assert np.all(np.diff(tbl.condition) > 0)
    want = models.field_linewidth(FIELD_7MK, tbl.condition, {"temp_k": 0.007})
    np.testing.assert_array_equal(tbl.value, want)
    np.testing.assert_array_equal(tbl.stderr, np.zeros(14))


def test_field_scan_noise_and_stderr_column():
    tbl = synth_scan("field", dict(FIELD_7MK), (0.0, 2.0, 14, "linear"),
                     noise=("multiplicative", 0.03), seed=9,
                     fixed={"temp_k": 0.007})
    clean = models.field_linewidth(FIELD_7MK, tbl.condition, {"temp_k": 0.007})
    # quoted uncertainty is sigma times the clean curve, not the noisy draw
    np.testing.assert_allclose(tbl.stderr, 0.03 * np.abs(clean), rtol=1e-12)
    assert np.any(tbl.value != clean)


def test_scan_minimum_sits_near_analytic_optimum():
    tbl = synth_scan("field", dict(FIELD_7MK), (0.0, 2.0, 400, "linear"),
                     noise=("none", 0.0), fixed={"temp_k": 0.007})
    b_at_min = tbl.condition[np.argmin(tbl.value)]
    b_star, _, _ = models.field_linewidth_minimum(FIELD_7MK, 2.0, {"temp_k": 0.007})
    assert abs(b_at_min - b_star) < 2.0 / 399 + 1e-12


def test_temp_scan_monotone():
    tbl = synth_scan("temp", {"floor_khz": 7.5, "amp_khz": 45.0,
                              "exponent_n": 1.34},
                     (0.007, 1.0, 30, "log"), noise=("none", 0.0))
    assert tbl.condition_axis == "temperature"
    assert np.all(np.diff(tbl.value) > 0)


# ---------------------------------------------------------------------------
# full-catalog noiseless round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_id,truth,grid,fixed", [
    ("mims", MIMS_TRUTH, (0.25, 30.0, 50, "log"), {}),
    ("echo3",
     dict(i0=1.0, beta=0.2, **SD_7MK_009T),
     (50.0, 7500.0, 60, "log"),
     {"t1_ms": 9.0, "tz_s": 2.0, "t0_us": 50.0, "t12_us": 0.33}),
])
def test_noiseless_trace_round_trip(model_id, truth, grid, fixed):
    tr = synth_trace(SynthSpec(model_id, truth, grid, fixed=fixed))
    if model_id == "mims":
        x = tr.time_us
        fit_fixed = None
    else:
        x = np.column_stack([np.full(tr.n_points, fixed["t12_us"]),
                             tr.time_us])
        fit_fixed = {k: v for k, v in fixed.items() if k != "t12_us"}
    res = fit(model_id, x, tr.intensity, truth, fixed=fit_fixed)
    for k, v in truth.items():
        if v == 0.0:
            assert abs(res.params[k]) < 1e-9
        else:
            assert abs(res.params[k] - v) / abs(v) < 1e-6, k


# ---------------------------------------------------------------------------
# the true values are read by the parameter rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make, why", [
    (lambda: synth_scan("temp", {**TEMP_009T, "zz": 4.0}, (0.007, 0.55, 5, "log")),
     "model 'temp' has no parameters ['zz']; its parameters are floor_khz, amp_khz, exponent_n"),
    (lambda: synth_scan("temp", {**TEMP_009T, "exponent_n": 9.0}, (0.007, 0.55, 5, "log")),
     "exponent_n must lie in [0.5, 3.0]"),
    (lambda: synth_scan("field", {**FIELD_7MK, "g3": 1.0}, (0.0, 2.0, 5, "linear"),
                        fixed={"temp_k": 0.007}),
     "model 'field' has no parameters ['g3']; its parameters are gamma0_khz, alpha1_khz, "
     "alpha2_khz, g1, g2"),
    (lambda: synth_trace(SynthSpec("mims", {**MIMS_TRUTH, "tmm": 2.0}, (0.25, 30.0, 5, "log"))),
     "model 'mims' has no parameters ['tmm']; its parameters are i0, tm_us, x"),
    (lambda: synth_trace(SynthSpec("mims", {**MIMS_TRUTH, "tm_us": -40.0},
                                   (0.25, 30.0, 5, "log"))),
     "tm_us must be > 0"),
], ids=["scan-unknown", "scan-range", "scan-field-unknown", "trace-unknown", "trace-range"])
def test_synth_refuses_a_true_value_the_model_does_not_have(make, why):
    # each used to give a table or trace; the trace recorded tmm=2 in its
    # provenance as a true value
    with pytest.raises(FitError) as exc:
        make()
    assert str(exc.value) == why


# ---------------------------------------------------------------------------
# synth evaluates a model as its law does: same x domain, same texts
# ---------------------------------------------------------------------------

_ECHO3_TRUTH = {**THREE_LEVEL_7MK_009T, **SD_7MK_009T}
_ECHO3_FIXED = {"t1_ms": 9.0, "tz_s": 2.0, "t0_us": 50.0}
_AT_7MK = {"temp_k": 0.007}


def _echo3_trace(grid, t12_us=0.33):
    return synth_trace(SynthSpec("echo3", _ECHO3_TRUTH, grid,
                                 fixed={**_ECHO3_FIXED, "t12_us": t12_us}))


@pytest.mark.parametrize("t12", [True, "0.5", np.nan, None], ids=repr)
def test_a_fixed_t12_that_is_no_finite_number_is_refused(t12):
    # t12_us was read with float(): True made a trace at 1.0 us and "0.5"
    # one at 0.5 us, where every other fixed value is refused
    with pytest.raises(FitError) as exc:
        _echo3_trace((50.0, 7500.0, 5, "log"), t12)
    assert str(exc.value) == f"fixed value t12_us must be a finite number, got {t12!r}"


def test_a_fixed_t12_of_zero_makes_a_trace():
    # t12 lies in [0, inf), so the "> 0" rule of the other fixed values is not its rule
    trace = _echo3_trace((50.0, 7500.0, 5, "log"), 0)
    assert trace.t12_us == 0.0 and type(trace.t12_us) is float
    assert np.isfinite(trace.intensity).all()


@pytest.mark.parametrize("make, law, why", [
    (lambda: synth_scan("field", FIELD_7MK, [-0.5, 0.0, 0.5], fixed=_AT_7MK),
     lambda: models.field_linewidth(FIELD_7MK, -0.5, _AT_7MK),
     "x value b_t must be >= 0, got -0.5"),
    (lambda: _echo3_trace((10.0, 7500.0, 5, "log")),
     lambda: models.stimulated_echo_intensity(_ECHO3_TRUTH, 0.33, 10.0, _ECHO3_FIXED),
     "x value t23_us must be >= t0_us, got 10.0"),
    (lambda: _echo3_trace((0.0, 7500.0, 5, "linear")),
     lambda: models.stimulated_echo_intensity(_ECHO3_TRUTH, 0.33, 0.0, _ECHO3_FIXED),
     "x value t23_us must be >= t0_us, got 0.0"),
    (lambda: synth_scan("temp", TEMP_009T, (0.0, 0.5, 5, "linear")),
     lambda: models.temp_linewidth(TEMP_009T, 0.0),
     "x value temp_k must be > 0, got 0.0"),
    (lambda: synth_trace(SynthSpec("mims", MIMS_TRUTH, (-1.0, 30.0, 5, "linear"))),
     lambda: models.mims_intensity(MIMS_TRUTH, -1.0),
     "x value t12_us must be >= 0, got -1.0"),
    (lambda: synth_scan("field", FIELD_7MK, [0.0, np.nan, 1.0], fixed=_AT_7MK),
     lambda: models.field_linewidth(FIELD_7MK, np.nan, _AT_7MK),
     "x values must be finite"),
    (lambda: synth_trace(SynthSpec("mims", MIMS_TRUTH, [0.5, np.inf])),
     lambda: models.mims_intensity(MIMS_TRUTH, np.inf),
     "x values must be finite"),
], ids=["field-negative", "echo3-t23-below-t0", "echo3-t23-from-0", "temp-from-0",
        "mims-negative", "field-nan", "mims-inf"])
def test_synth_refuses_the_x_values_the_laws_refuse(make, law, why):
    # synth skipped the laws' x checks: the field scan gave 6.6e8 kHz at
    # -0.5 T and a NaN row at NaN, the echo3 trace took t23 < t0, and a
    # grid from 0 reached log(0)
    for call in (make, law):
        with pytest.raises(FitError) as exc:
            call()
        assert str(exc.value) == why


def test_sech2_scan_takes_either_field_sign():
    # sech2 is even in the field, so its domain has no lower edge
    scan = synth_scan("sech2", {"gamma_max_khz": 40.0, "g": 0.35}, [-0.5, 0.0, 0.5],
                      fixed=_AT_7MK)
    assert scan.value[0] == pytest.approx(scan.value[2], rel=1e-15)
    assert scan.value[1] == 40.0


@pytest.mark.parametrize("make", [
    lambda: synth_scan("field", FIELD_7MK, (0.0, 2.0, 5, "linear"), seed=-1, fixed=_AT_7MK),
    # checked before the model id and the values
    lambda: synth_scan("nope", {}, (0.0, 2.0, 5, "linear"), seed=-1),
    lambda: synth_trace(SynthSpec("mims", {}, (0.25, 30.0, 5, "log"), seed=-1)),
], ids=["scan", "scan-first", "trace"])
def test_synth_refuses_a_negative_seed_before_any_work(make):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == "seed must be >= 0, got -1"


# ---------------------------------------------------------------------------
# which data each model makes
# ---------------------------------------------------------------------------

_NO_DATA = {"sd"}   # models that make neither traces nor tables


def _holds(rule, model_id):
    try:
        rule(model_id)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("model_id", sorted(CATALOG))
def test_each_model_falls_under_exactly_one_data_rule(model_id):
    # a new model must make traces, be a law with a table axis, or be
    # listed in _NO_DATA
    rules = [_holds(trace_sequence, model_id), _holds(scan_table, model_id),
             model_id in _NO_DATA]
    assert rules.count(True) == 1, rules


@pytest.mark.parametrize("model_id", ["sd", "field", "temp", "sech2"])
def test_synth_trace_refuses_a_model_that_makes_no_traces(model_id):
    # sd used to give a 3ppe-vs-t23 trace of linewidths in kHz
    spec = SynthSpec(model_id, SD_7MK_009T, (50.0, 7500.0, 4, "log"),
                     fixed={"t0_us": 50.0, "t12_us": 0.33})
    with pytest.raises(ValueError) as exc:
        synth_trace(spec)
    assert str(exc.value) == (f"model {model_id!r} makes no echo traces; "
                              "mims, echo3, echo3-free-t1 do")


def test_echo3_free_t1_makes_a_waiting_time_trace():
    truth = dict(THREE_LEVEL_7MK_009T, t1_ms=9.0, **SD_7MK_009T)
    tr = synth_trace(SynthSpec("echo3-free-t1", truth, (50.0, 7500.0, 30, "log"),
                               fixed={"tz_s": 2.0, "t0_us": 50.0, "t12_us": 0.33}))
    assert (tr.sequence, tr.t12_us) == ("3ppe-vs-t23", 0.33)
    want = models.stimulated_echo_intensity(
        dict(THREE_LEVEL_7MK_009T, **SD_7MK_009T), 0.33, tr.time_us,
        {"t1_ms": 9.0, "tz_s": 2.0, "t0_us": 50.0})
    np.testing.assert_allclose(tr.intensity, want, rtol=1e-12)


@pytest.mark.parametrize("model_id", ["mims", "sd"])
def test_synth_scan_refuses_a_model_that_makes_no_tables(model_id):
    with pytest.raises(ValueError) as exc:
        synth_scan(model_id, {}, (0.0, 2.0, 5, "linear"))
    assert str(exc.value) == f"model {model_id!r} is not a condition-scan model"


def test_each_scan_table_states_its_law_axis_and_quantity():
    for model_id, truth, fixed in (("field", FIELD_7MK, _AT_7MK), ("temp", TEMP_009T, None),
                                   ("sech2", {"gamma_max_khz": 40.0, "g": 0.35}, _AT_7MK)):
        scan = synth_scan(model_id, truth, (0.01, 0.5, 4, "linear"), fixed=fixed)
        assert (scan.condition_axis, scan.quantity_id) == scan_table(model_id)
    assert [scan_table(m) for m in ("field", "temp", "sech2")] == [
        ("field", "gamma_eff"), ("temperature", "gamma_eff"), ("field", "gamma_sd")]


# ---------------------------------------------------------------------------
# each design is synthesized once: the cache changes no byte and no refusal
# ---------------------------------------------------------------------------

_FIELD_GRID = np.concatenate([[0.0], np.geomspace(0.01, 2.0, 13)])
# Digests of the output of the synthesis that evaluated the model on every
# call, before designs were cached.
_DESIGNS = {
    "mims": ("3ce0b2a93704b53e", lambda: synth_trace(SynthSpec(
        "mims", MIMS_TRUTH, (0.25, 30.0, 50, "log"), ("multiplicative", 0.02), seed=7))),
    "mims-modulated": ("0a191c103598e8db", lambda: synth_trace(SynthSpec(
        "mims", MIMS_TRUTH, (0.25, 30.0, 60, "linear"), ("additive", 0.01), seed=8,
        modulation=Modulation(0.2, 0.5, 10.0)))),
    "mims-none": ("670672dcf5da759c", lambda: synth_trace(SynthSpec(
        "mims", MIMS_TRUTH, [0.3, 1.0, 2.5, 9.0]))),
    "echo3": ("15cc13811f10e97b", lambda: synth_trace(SynthSpec(
        "echo3", _ECHO3_TRUTH, (50.0, 7500.0, 40, "log"), ("multiplicative", 0.03),
        seed=11, temperature_k=0.007, field_t=0.09, fixed={**_ECHO3_FIXED, "t12_us": 0.33}))),
    "echo3-free-t1": ("7c2e8e041ff35cd2", lambda: synth_trace(SynthSpec(
        "echo3-free-t1", dict(_ECHO3_TRUTH, t1_ms=9.0), (50.0, 7500.0, 30, "log"),
        ("multiplicative", 0.03), seed=12,
        fixed={"tz_s": 2.0, "t0_us": 50.0, "t12_us": 0.5}))),
    "field": ("c659f705fb35305a", lambda: synth_scan(
        "field", FIELD_7MK, _FIELD_GRID, ("multiplicative", 0.03), seed=13, fixed=_AT_7MK)),
    "temp": ("d04c489f889565eb", lambda: synth_scan(
        "temp", TEMP_009T, (0.007, 0.55, 20, "log"), ("additive", 0.5), seed=14)),
    "sech2": ("3dc4b5a7d6229aec", lambda: synth_scan(
        "sech2", {"gamma_max_khz": 40.0, "g": 0.35}, [-0.5, -0.1, 0.0, 0.5], fixed=_AT_7MK)),
}


def _arrays(out):
    if hasattr(out, "intensity"):
        return (out.time_ms, out.intensity)
    return (out.condition, out.value, out.stderr)


def _digest(out):
    h = hashlib.sha256()
    for a in _arrays(out):
        h.update(a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes())
    if hasattr(out, "intensity"):
        meta = (out.sequence, out.temperature_k, out.field_t, out.t12_us, out.provenance)
    else:
        meta = (out.condition_axis, out.quantity_id, out.flag)
    h.update(repr(meta).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(_DESIGNS))
def test_cold_and_warm_designs_give_the_bytes_of_a_fresh_evaluation(name):
    want, make = _DESIGNS[name]
    synth._CACHE.clear()
    assert [_digest(make()), _digest(make())] == [want, want]


def test_a_design_is_evaluated_once_across_seeds(monkeypatch):
    calls = []
    evaluate = synth.evaluate
    monkeypatch.setattr(synth, "evaluate", lambda *a, **k: calls.append(a) or evaluate(*a, **k))
    synth._CACHE.clear()
    scans = [synth_scan("field", FIELD_7MK, _FIELD_GRID, ("multiplicative", 0.03), seed=s,
                        fixed=_AT_7MK) for s in range(5)]
    traces = [synth_trace(SynthSpec("mims", MIMS_TRUTH, (0.25, 30.0, 50, "log"),
                                    ("multiplicative", 0.02), seed=s)) for s in range(5)]
    assert [a[0] for a in calls] == ["field", "mims"]
    assert len({s.value.tobytes() for s in scans}) == len({t.intensity.tobytes()
                                                          for t in traces}) == 5


def test_an_explicit_grid_is_built_and_checked_once_across_seeds(monkeypatch):
    calls = []
    build = synth.build_grid
    monkeypatch.setattr(synth, "build_grid", lambda g: calls.append(g) or build(g))
    synth._CACHE.clear()
    for s in range(5):
        synth_scan("field", FIELD_7MK, _FIELD_GRID, ("multiplicative", 0.03), seed=s,
                   fixed=_AT_7MK)
        synth_scan("field", FIELD_7MK, list(_FIELD_GRID), ("additive", 0.5), seed=s,
                   fixed={"temp_k": 0.01})
        synth_trace(SynthSpec("mims", MIMS_TRUTH, [0.3, 1.0, 2.5, 9.0], seed=s))
    assert len(calls) == 2


def test_explicit_points_as_a_list_or_an_int_or_float_array_give_the_same_scan():
    synth._CACHE.clear()
    grids = [np.arange(4.0), np.arange(4), [0, 1, 2, 3]]
    scans = [_digest(synth_scan("field", FIELD_7MK, g, ("multiplicative", 0.03), seed=3,
                                fixed=_AT_7MK)) for g in grids]
    assert scans == [scans[0]] * 3
    assert sum(k[0] == "grid" for k in synth._CACHE) == 1
    for g in grids[:2]:
        assert g.flags.writeable
        assert not any(np.shares_memory(a, g) for a in synth._CACHE.values())
    grids[0][0] = -1.0      # the cache keeps a copy, not the caller's points
    assert _digest(synth_scan("field", FIELD_7MK, np.arange(4.0), ("multiplicative", 0.03),
                              seed=3, fixed=_AT_7MK)) == scans[0]


def _sech2(grid):
    return synth_scan("sech2", {"gamma_max_khz": 40.0, "g": 0.35}, grid, fixed=_AT_7MK)


def _echo3(t12, **truth):
    return synth_trace(SynthSpec("echo3", {**_ECHO3_TRUTH, **truth}, (50.0, 7500.0, 5, "log"),
                                 fixed={**_ECHO3_FIXED, "t12_us": t12}))


def test_designs_that_differ_in_one_part_are_kept_apart():
    # -0.0 == 0.0, yet a grid that ends at -0.0 builds a different last point
    makes = [lambda: _sech2((-1.0, 0.0, 3, "linear")), lambda: _sech2((-1.0, -0.0, 3, "linear")),
             lambda: _sech2([-1.0, 0.0]), lambda: _sech2([-1.0, -0.0]),
             lambda: _echo3(0.0), lambda: _echo3(-0.0), lambda: _echo3(0.5),
             lambda: _echo3(0.5, beta=0.3),
             lambda: synth_scan("field", FIELD_7MK, _FIELD_GRID, fixed={"temp_k": 0.01})]
    cold = []
    for make in makes:
        synth._CACHE.clear()
        cold.append(_digest(make()))
    synth._CACHE.clear()
    _DESIGNS["field"][1]()
    assert [_digest(make()) for make in makes] == cold
    assert len(set(cold)) == len(cold)


_WARM_GRID = (0.25, 30.0, 20, "log")


@pytest.mark.parametrize("make, error, why", [
    (lambda: synth_trace(SynthSpec("mims", {**MIMS_TRUTH, "i0": True}, _WARM_GRID)),
     FitError, "true value i0 must be a finite number, got True"),
    (lambda: synth_scan("field", FIELD_7MK, _FIELD_GRID, fixed={"temp_k": True}),
     FitError, "fixed value temp_k must be a finite number, got True"),
    (lambda: synth_trace(SynthSpec("mims", MIMS_TRUTH, _WARM_GRID, seed=-1)),
     ValueError, "seed must be >= 0, got -1"),
    (lambda: synth_trace(SynthSpec("mims", MIMS_TRUTH, (30.0, 0.25, 20, "log"))),
     ValueError, "grid points must be strictly increasing"),
    (lambda: synth_trace(SynthSpec("mims", MIMS_TRUTH, (0.25, 30.0, 20.0, "log"))),
     ValueError, "grid count must be an int >= 1, got 20.0"),
    (lambda: synth_trace(SynthSpec("mims", MIMS_TRUTH, (-1.0, 30.0, 20, "linear"))),
     FitError, "x value t12_us must be >= 0, got -1.0"),
    (lambda: synth_trace(SynthSpec("echo3", _ECHO3_TRUTH, _WARM_GRID,
                                   fixed={**_ECHO3_FIXED, "t12_us": -0.5})),
     FitError, "x value t12_us must be >= 0, got -0.5"),
    (lambda: synth_scan("field", FIELD_7MK, np.append(_FIELD_GRID, np.nan), fixed=_AT_7MK),
     FitError, "x values must be finite"),
    (lambda: synth_scan("field", FIELD_7MK, _FIELD_GRID[::-1], fixed=_AT_7MK),
     ValueError, "grid points must be strictly increasing"),
    (lambda: synth_scan("field", FIELD_7MK, [], fixed=_AT_7MK),
     ValueError, "grid must be a 1-D set of points"),
    # the bytes of the warm grid, in another shape
    (lambda: synth_scan("field", FIELD_7MK, _FIELD_GRID.reshape(2, 7), fixed={"temp_k": 1.0}),
     ValueError, "grid must be a 1-D set of points"),
], ids=["true-bool", "fixed-bool", "seed", "grid-order", "grid-count", "x-domain",
        "t12-domain", "points-finite", "points-order", "points-empty", "points-shape"])
def test_a_warm_cache_refuses_what_a_cold_one_does(make, error, why):
    synth._CACHE.clear()
    synth_trace(SynthSpec("mims", {**MIMS_TRUTH, "i0": 1.0}, _WARM_GRID))
    synth_scan("field", FIELD_7MK, _FIELD_GRID, fixed={"temp_k": 1.0})
    synth_trace(SynthSpec("echo3", _ECHO3_TRUTH, (50.0, 7500.0, 20, "log"),
                          fixed={**_ECHO3_FIXED, "t12_us": 0.5}))
    kept = set(synth._CACHE)
    for _ in range(2):
        with pytest.raises(error) as exc:
            make()
        assert str(exc.value) == why
    # a refused design is not kept (a valid grid may be)
    assert {k[0] for k in set(synth._CACHE) - kept} <= {"grid"}


@pytest.mark.parametrize("name", ["mims-none", "mims-modulated", "echo3", "field", "sech2"])
def test_writing_into_a_returned_array_leaves_the_next_synthesis_unchanged(name):
    want, make = _DESIGNS[name]
    for a in _arrays(make()):
        a[...] = -1.0
    assert _digest(make()) == want


def test_the_cached_arrays_are_read_only_and_no_caller_array_is_kept():
    synth._CACHE.clear()
    grid = _FIELD_GRID.copy()
    synth_scan("field", FIELD_7MK, grid, ("multiplicative", 0.03), fixed=_AT_7MK)
    synth_trace(SynthSpec("mims", MIMS_TRUTH, _WARM_GRID))
    assert grid.flags.writeable
    assert all(not a.flags.writeable and a is not grid for a in synth._CACHE.values())
    built = build_grid(_WARM_GRID)      # still a new, writable array
    assert built.flags.writeable and not any(built is a for a in synth._CACHE.values())


def test_the_cache_never_holds_more_entries_than_its_bound():
    synth._CACHE.clear()
    for n in range(2, synth._CACHE_SIZE + 12):
        scan = synth_scan("temp", TEMP_009T, (0.007, 0.55, n, "log"), ("additive", 0.1),
                          seed=n)
        assert len(synth._CACHE) <= synth._CACHE_SIZE
    again = synth_scan("temp", TEMP_009T, (0.007, 0.55, n, "log"), ("additive", 0.1), seed=n)
    assert _digest(again) == _digest(scan)


def test_threads_sharing_a_small_cache_each_get_their_own_designs(monkeypatch):
    # more threads than cores, a short switch interval and a cache that
    # evicts on nearly every call
    monkeypatch.setattr(synth, "_CACHE_SIZE", 3)
    synth._CACHE.clear()
    names = sorted(_DESIGNS)
    done, errors = [], []

    def work(offset):
        try:
            for k in range(48):
                want, make = _DESIGNS[names[(k + offset) % len(names)]]
                assert _digest(make()) == want
            done.append(offset)
        except Exception as exc:    # reported by the asserts below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and sorted(done) == [0, 1, 2, 3]
    assert len(synth._CACHE) <= 3
