"""Batch fitting over condition scans, report emission and the demo."""

import errno
import filecmp
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from echofit import fitting, models, pipeline
from echofit.fitting import FitConfig, FitError, multi_start_fit
from echofit.guesses import initial_guess
from echofit.pipeline import (
    DEFAULT_2PPE_WINDOW,
    DEMO_FIELD_GRID_T,
    DEMO_MIMS_X,
    DEMO_TEMP_K,
    _close_demo_worker,
    _demo_2ppe_traces,
    _demo_3ppe_half,
    _start_demo_3ppe,
    batch_fit_2ppe,
    batch_fit_3ppe,
    demo_i0_of_field,
    emit_report,
    fit_table,
    run_demo,
    window_mask,
)
from echofit.presets import (
    FIELD_7MK,
    SD_7MK_009T,
    SD_7MK_009T_SIGMA,
    T12_SET_US,
    TEMP_009T,
)
from echofit.synth import SynthSpec, synth_scan, synth_trace
from echofit.trace import EchoTrace, ScanTable, load_table

from conftest import assert_same_fit

MIMS_TRUTH = {"i0": 1.0, "tm_us": 40.0, "x": 1.3}
SD_TRUTH = dict(i0=1.0, beta=0.2, **SD_7MK_009T)


def _mims_trace(field_t, seed, tm_us=40.0):
    return synth_trace(SynthSpec(
        "mims", dict(MIMS_TRUTH, tm_us=tm_us), (0.25, 90.0, 50, "log"),
        ("multiplicative", 0.02), seed=seed,
        temperature_k=0.007, field_t=field_t))


def _3ppe_traces(seed, beta=0.2, noise=0.03, field_t=0.09, t23_min=50.0, n=120,
                 tz_s=2.0):
    truth = dict(SD_TRUTH, beta=beta)
    out = []
    for j, t12 in enumerate(T12_SET_US):
        out.append(synth_trace(SynthSpec(
            "echo3", truth, (t23_min, 7500.0, n, "log"),
            ("multiplicative", noise), seed=seed * 7 + j,
            temperature_k=0.007, field_t=field_t,
            fixed={"t1_ms": 9.0, "tz_s": tz_s, "t0_us": 50.0,
                   "t12_us": t12})))
    return out


# ---------------------------------------------------------------------------
# 2PPE batch
# ---------------------------------------------------------------------------

def test_single_trace_batch_equals_direct_fit():
    tr = _mims_trace(0.09, seed=1)
    cfg = FitConfig(restarts=4)
    tables, fits = batch_fit_2ppe([tr], cfg=cfg, window=DEFAULT_2PPE_WINDOW)

    x, y = tr.time_us, tr.intensity
    mask = np.ones_like(x, dtype=bool)
    mask &= x >= 0.25
    guess = initial_guess("mims", x[mask], y[mask])
    direct = multi_start_fit("mims", x[mask], y[mask], guess.params, cfg=cfg)

    res = fits[0]
    assert_same_fit(res, direct)
    got = tables["gamma_eff"].value[0]
    assert got == models.gamma_eff_from_tm(direct.params["tm_us"])
    # first-order error propagation onto the linewidth
    tm, s_tm = direct.params["tm_us"], direct.stderr["tm_us"]
    assert tables["gamma_eff"].stderr[0] == pytest.approx(
        1e3 * s_tm / (np.pi * tm ** 2), rel=1e-12)


def test_batch_recovers_condition_scan():
    tms = [20.0, 40.0, 80.0]
    traces = [_mims_trace(b, seed=10 + k, tm_us=tm)
              for k, (b, tm) in enumerate(zip([0.0, 0.09, 0.9], tms))]
    tables, fits = batch_fit_2ppe(traces)
    tbl = tables["gamma_eff"]
    assert tbl.condition_axis == "field"
    np.testing.assert_array_equal(tbl.condition, [0.0, 0.09, 0.9])
    want = [models.gamma_eff_from_tm(tm) for tm in tms]
    np.testing.assert_allclose(tbl.value, want, rtol=0.05)
    assert all(f == "" for f in tbl.flag)


def test_corrupted_trace_is_isolated():
    good = [_mims_trace(0.0, seed=2), _mims_trace(0.9, seed=3)]
    # all-negative intensities cannot be fitted in log space
    broken = EchoTrace(sequence="2ppe",
                       time_ms=good[0].time_ms.copy(),
                       intensity=-np.abs(good[0].intensity),
                       temperature_k=0.007, field_t=0.09)
    tables, fits = batch_fit_2ppe([good[0], broken, good[1]])
    tbl = tables["gamma_eff"]
    assert tbl.n_rows == 3
    bad_row = int(np.where(tbl.condition == 0.09)[0][0])
    assert tbl.flag[bad_row].startswith("failed:")
    assert np.isnan(tbl.value[bad_row])
    assert fits[1] is None

    # the surviving rows match a batch that never saw the bad trace
    tables_ref, _ = batch_fit_2ppe(good)
    keep = [i for i in range(3) if i != bad_row]
    np.testing.assert_array_equal(tbl.value[keep], tables_ref["gamma_eff"].value)
    np.testing.assert_array_equal(tbl.stderr[keep], tables_ref["gamma_eff"].stderr)


def test_lockstep_batch_rows_equal_their_lone_fits():
    # 14 demo traces of 50 in-window points, one of 30 (its own lockstep
    # group), one with samples before the window and one that fails: every
    # good row must be bit-identical to fitting its trace alone, and the
    # failure must read as before
    short = synth_trace(SynthSpec(
        "mims", MIMS_TRUTH, (0.25, 90.0, 30, "log"), ("multiplicative", 0.02),
        seed=5, temperature_k=0.007, field_t=2.5))
    early = synth_trace(SynthSpec(
        "mims", MIMS_TRUTH, (0.05, 90.0, 40, "log"), ("multiplicative", 0.02),
        seed=6, temperature_k=0.007, field_t=2.7))
    good = _demo_2ppe_traces(3) + [short, early]
    broken = EchoTrace(sequence="2ppe", time_ms=short.time_ms.copy(),
                       intensity=-short.intensity, temperature_k=0.007,
                       field_t=3.0)
    cfg = FitConfig(restarts=4, seed=3)
    tables, fits = batch_fit_2ppe(good + [broken], cfg=cfg, window=DEFAULT_2PPE_WINDOW)

    for tr, res in zip(good, fits):
        x, y = tr.time_us, tr.intensity
        guess = initial_guess("mims", x[x >= 0.25], y[x >= 0.25])
        alone = multi_start_fit("mims", x[x >= 0.25], y[x >= 0.25], guess.params, cfg=cfg)
        assert res.params == alone.params
        assert res.stderr == alone.stderr
        assert res.sse == alone.sse
        assert res.sse_trace == alone.sse_trace
        assert res.n_iterations == alone.n_iterations
        assert res.n_restarts_agreeing == alone.n_restarts_agreeing
        assert res.flags == alone.flags
        np.testing.assert_array_equal(res.covariance, alone.covariance)
    assert fits[-1] is None
    why = "model 'mims' fits log intensities, which need strictly positive data"
    assert tables["x"].flag[-1] == f"failed: {why}"


def test_batch_checks_each_rows_data_once(monkeypatch):
    # the batch guessed every row through initial_guess and then fitted it,
    # so the 14 demo traces went through the data check 28 times
    calls = []
    check = fitting._problem

    def counted(*args):
        calls.append(args[0].model_id)
        return check(*args)

    monkeypatch.setattr(fitting, "_problem", counted)
    traces = _demo_2ppe_traces(1)
    _, fits = batch_fit_2ppe(traces, cfg=FitConfig(restarts=2, seed=1))
    assert all(res is not None for res in fits)
    assert calls == ["mims"] * len(traces) == ["mims"] * 14


def test_failed_row_message_survives_report_round_trip(tmp_path):
    good = _mims_trace(0.0, seed=2)
    # three points inside the default 0.25 us window: too few for 3 parameters
    short = EchoTrace(sequence="2ppe", time_ms=np.array([0.1, 0.3, 0.5, 0.7]) * 1e-3,
                      intensity=np.array([1.0, 0.9, 0.8, 0.7]),
                      temperature_k=0.007, field_t=0.09)
    tables, fits = batch_fit_2ppe([good, short])
    assert fits[1] is None
    flag = tables["gamma_eff"].flag[1]
    assert "," in flag
    emit_report(tables, fits, tmp_path)
    back = load_table(tmp_path / "gamma_eff_vs_field.txt")
    assert back.flag == tables["gamma_eff"].flag


def test_window_cut_equals_a_fit_of_the_cut_trace():
    # batch_fit_2ppe owns the window: its row is the guess and the fit of
    # the samples inside it, bit for bit, with dof counting those alone
    tr = _mims_trace(0.09, seed=8)
    window = (1.0, 20.0)
    cfg = FitConfig(restarts=3, seed=2)
    _, (res,) = batch_fit_2ppe([tr], cfg=cfg, window=window)
    keep = window_mask(tr.time_us, window)
    assert 0 < np.count_nonzero(keep) < keep.size
    x, y = tr.time_us[keep], tr.intensity[keep]
    assert_same_fit(res, multi_start_fit("mims", x, y,
                                          initial_guess("mims", x, y).params, cfg=cfg))
    assert res.dof == np.count_nonzero(keep) - 3


def test_samples_outside_the_window_do_not_move_the_row():
    tr = _mims_trace(0.09, seed=4)
    window = (0.25, 20.0)
    outside = ~window_mask(tr.time_us, window)
    assert outside.any()
    mangled = EchoTrace(sequence="2ppe", time_ms=tr.time_ms,
                        intensity=np.where(outside, 37.5 * tr.intensity, tr.intensity),
                        temperature_k=tr.temperature_k, field_t=tr.field_t)
    (_, (a,)), (_, (b,)) = (batch_fit_2ppe([t], window=window) for t in (tr, mangled))
    assert_same_fit(a, b)


@pytest.mark.parametrize("window", [
    5,                  # used to fail as a bare TypeError on unpacking
    "0.25:",
    (0.25,),
    (0.25, None, 1.0),
    (np.nan, 1.0),      # used to pass, and mask every point
    (0.25, np.inf),
    (True, None),       # a bool is not an edge
    ("0.25", None),
    (10 ** 400, None),  # an int beyond the float range
])
def test_window_is_none_or_a_pair_of_finite_edges(window, monkeypatch):
    # the window is checked once, before any trace is fitted
    def no_fit(*args, **kwargs):
        raise AssertionError("fitted")
    monkeypatch.setattr(pipeline, "multi_start_batch", no_fit)
    why = ("window must be None or a (lo, hi) pair whose edges are each None "
           f"or a finite number, got {window!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
        batch_fit_2ppe([_mims_trace(0.09, seed=1)], window=window)


def test_window_upper_edge_must_exceed_lower_edge():
    with pytest.raises(ValueError, match="^window upper edge must exceed lower edge$"):
        batch_fit_2ppe([_mims_trace(0.09, seed=1)], window=(2.0, 1.0))


def test_window_accepts_open_and_finite_edges():
    tr = _mims_trace(0.09, seed=1)
    for window in (None, (None, None), (0.25, None), (None, 2), [0.1, 1.0],
                   (np.float64(0.5), np.int64(3))):
        _, (res,) = batch_fit_2ppe([tr], cfg=FitConfig(), window=window)
        assert res.dof == np.count_nonzero(window_mask(tr.time_us, window)) - 3


def test_batch_rejects_mixed_condition_axes():
    a = _mims_trace(0.0, seed=4)
    b = synth_trace(SynthSpec("mims", MIMS_TRUTH, (0.25, 90.0, 50, "log"),
                              ("multiplicative", 0.02), seed=5,
                              temperature_k=0.1, field_t=0.9))
    with pytest.raises(ValueError):
        batch_fit_2ppe([a, b])


def test_batch_rejects_wrong_sequence():
    tr = _3ppe_traces(seed=1)[0]
    with pytest.raises(ValueError, match="^batch_fit_2ppe expects 2ppe traces, "
                                         "got '3ppe-vs-t23'$"):
        batch_fit_2ppe([tr])
    with pytest.raises(ValueError, match="^batch_fit_3ppe expects 3ppe-vs-t23 traces, "
                                         "got '2ppe'$"):
        batch_fit_3ppe([_mims_trace(0.0, seed=1)])


@pytest.mark.parametrize("run", [batch_fit_2ppe, batch_fit_3ppe])
def test_batch_refuses_an_empty_list(run):
    with pytest.raises(ValueError, match="^no traces given$"):
        run(iter(()))


def test_3ppe_batch_names_mixed_axes_before_its_fixed_values():
    # the batch's traces are checked first, then tz_table and free_t1
    traces = _3ppe_traces(seed=412, n=40) + [
        replace(tr, temperature_k=0.1, field_t=0.9) for tr in _3ppe_traces(seed=413, n=40)]
    with pytest.raises(ValueError, match="^traces vary in both field and temperature"):
        batch_fit_3ppe(traces, fixed={"tz_table": "tz.yaml", "free_t1": "no"})


def test_normalize_rescales_i0_to_one():
    tr = _mims_trace(0.09, seed=6)
    scaled = EchoTrace(sequence="2ppe", time_ms=tr.time_ms,
                       intensity=tr.intensity * 1850.0,
                       temperature_k=0.007, field_t=0.09)
    tables, _ = batch_fit_2ppe([scaled], normalize=True)
    assert tables["i0"].value[0] == pytest.approx(1.0, abs=0.1)


# ---------------------------------------------------------------------------
# 3PPE batch
# ---------------------------------------------------------------------------

def test_3ppe_joint_fit_recovers_truth():
    tables, fits = batch_fit_3ppe(
        _3ppe_traces(seed=100, noise=0.01),
        cfg=FitConfig(restarts=2, seed=0),
        fixed={"t1_ms": 9.0, "tz_s": 2.0})
    res = fits[0]
    assert res is not None and res.converged
    # all three traces fitted jointly: dof counts every sample
    assert res.dof == 3 * 120 - 6
    for q, name in [("gamma0", "gamma0_khz"), ("gamma_sd", "gamma_sd_khz"),
                    ("r_sd", "r_sd_khz"), ("gamma_tls", "gamma_tls_khz")]:
        want = SD_TRUTH[name]
        assert abs(res.params[name] - want) <= 3 * SD_7MK_009T_SIGMA[name], q
        assert tables[q].value[0] == res.params[name]
    assert abs(res.params["beta"] - 0.2) < 0.1


def test_3ppe_zero_branching_stays_near_zero():
    tables, fits = batch_fit_3ppe(
        _3ppe_traces(seed=200, beta=0.0, noise=0.01),
        cfg=FitConfig(restarts=2, seed=1),
        fixed={"t1_ms": 9.0, "tz_s": 2.0})
    assert fits[0].params["beta"] < 0.02


def test_3ppe_default_tz_is_flagged_assumed():
    tables, fits = batch_fit_3ppe(
        _3ppe_traces(seed=300, noise=0.01),
        cfg=FitConfig(restarts=1, seed=0),
        fixed={"t1_ms": 9.0})
    assert "tz-assumed" in tables["gamma0"].flag[0]
    assert fits[0].fixed["tz_s"] == 1.0


def test_3ppe_conditions_fit_in_one_batch_equal_their_lone_fits():
    # the first two conditions share one lockstep group (3 x 120 points)
    # with different t0_us and tz_s columns; the third is its own group
    # and the fourth cannot be fitted
    table = [{"temperature_k": 0.007, "field_t": 0.09, "tz_s": 2.0},
             {"temperature_k": 0.007, "field_t": 0.3, "tz_s": 0.5}]
    conditions = [_3ppe_traces(seed=400),
                  _3ppe_traces(seed=401, field_t=0.3, t23_min=80.0, tz_s=0.5),
                  _3ppe_traces(seed=402, field_t=0.6, n=100),
                  _3ppe_traces(seed=403, field_t=0.9, n=2)]
    cfg = FitConfig(restarts=4, seed=7)
    tables, fits = batch_fit_3ppe(sum(conditions, []), cfg=cfg,
                                  fixed={"t1_ms": 9.0, "tz_table": table})
    np.testing.assert_array_equal(tables["beta"].condition, [0.09, 0.3, 0.6, 0.9])

    lone_flags = []
    for traces, tz_s, res in zip(conditions, [2.0, 0.5, 1.0, 1.0], fits):
        x = np.concatenate([np.column_stack([np.full(tr.n_points, tr.t12_us), tr.time_us])
                            for tr in traces])
        y = np.concatenate([tr.intensity for tr in traces])
        fixed = {"tz_s": tz_s, "t0_us": float(x[:, 1].min()), "t1_ms": 9.0}
        try:
            alone = multi_start_fit("echo3", x, y, None, cfg=cfg, fixed=fixed)
        except FitError as exc:
            assert res is None
            lone_flags.append(f"failed: {exc}")
            continue
        assert res.params == alone.params
        assert res.stderr == alone.stderr
        assert res.sse == alone.sse
        assert res.sse_trace == alone.sse_trace
        assert res.n_iterations == alone.n_iterations
        assert res.n_restarts_agreeing == alone.n_restarts_agreeing
        assert res.flags == alone.flags
        assert res.fixed == fixed
        assert res.covariance.tobytes() == alone.covariance.tobytes()
        lone_flags.append(";".join(alone.flags + (("tz-assumed",) if tz_s == 1.0 else ())))
    assert [f is None for f in fits] == [False, False, False, True]
    assert lone_flags[-1] == "failed: need at least 7 points, got 6"
    assert "tz-assumed" in lone_flags[2]
    for q in tables:
        assert tables[q].flag == lone_flags


def test_3ppe_single_t12_condition_lists_guess_degenerate_before_tz_assumed():
    # the engine flags the degenerate guess among the fit's own flags, so it
    # now comes before the row's tz-assumed (it used to come last)
    traces = _3ppe_traces(seed=500, noise=0.01)[1:2]
    cfg = FitConfig(restarts=2, seed=3)
    tables, fits = batch_fit_3ppe(traces, cfg=cfg, fixed={"t1_ms": 9.0})
    tr = traces[0]
    x = np.column_stack([np.full(tr.n_points, tr.t12_us), tr.time_us])
    fixed = {"tz_s": 1.0, "t0_us": float(tr.time_us.min()), "t1_ms": 9.0}
    alone = multi_start_fit("echo3", x, tr.intensity, None, cfg=cfg, fixed=fixed)
    assert_same_fit(fits[0], alone)
    assert alone.flags[-1] == "guess-degenerate"
    flags = tables["gamma0"].flag[0].split(";")
    assert flags == list(alone.flags) + ["tz-assumed"]
    assert flags[-2:] == ["guess-degenerate", "tz-assumed"]


@pytest.mark.parametrize("bad", [{"tz_s": None}, {"tz_s": "long"}, {}])
def test_3ppe_bad_tz_table_entry_fails_only_its_condition(bad):
    # a YAML tz_s left empty is None, which used to raise TypeError out of
    # the whole batch, and a missing one KeyError
    traces = _3ppe_traces(seed=410, n=40) + _3ppe_traces(seed=411, field_t=0.3, n=40)
    good = [{"temperature_k": 0.007, "field_t": 0.09, "tz_s": 2.0},
            {"temperature_k": 0.007, "field_t": 0.3, "tz_s": 0.5}]
    broken = [good[0], dict({"temperature_k": 0.007, "field_t": 0.3}, **bad)]
    cfg = FitConfig(restarts=2, seed=3)
    tables, fits = batch_fit_3ppe(traces, cfg=cfg, fixed={"t1_ms": 9.0, "tz_table": broken})
    tables_ref, fits_ref = batch_fit_3ppe(traces, cfg=cfg,
                                          fixed={"t1_ms": 9.0, "tz_table": good})
    assert fits[1] is None
    for q in tables:
        assert tables[q].flag[1] == ("failed: fixed value tz_s must be a finite number, got "
                                     f"{bad.get('tz_s')!r}")
        assert tables[q].flag[0] == tables_ref[q].flag[0]
        assert tables[q].value[:1].tobytes() == tables_ref[q].value[:1].tobytes()
        assert tables[q].stderr[:1].tobytes() == tables_ref[q].stderr[:1].tobytes()
    assert (fits[0].params, fits[0].stderr, fits[0].sse_trace, fits[0].fixed) == (
        fits_ref[0].params, fits_ref[0].stderr, fits_ref[0].sse_trace, fits_ref[0].fixed)


@pytest.mark.parametrize("fixed", [{"t1_ms": None, "tz_s": 2.0}, {"t1_ms": 9.0, "tz_s": None},
                                   {"t1_ms": 9.0, "tz_s": "2"}, {"t1_ms": "9", "tz_s": 2.0}])
def test_3ppe_non_numeric_fixed_value_fails_every_row(fixed):
    # a string used to be fitted as float(value); the engine's number rule
    # refuses it like any other value that is not a number
    ((name, value),) = [(k, v) for k, v in fixed.items() if not isinstance(v, float)]
    tables, fits = batch_fit_3ppe(_3ppe_traces(seed=412, n=40)
                                  + _3ppe_traces(seed=413, field_t=0.3, n=40), fixed=fixed)
    assert fits == [None, None]
    why = f"failed: fixed value {name} must be a finite number, got {value!r}"
    for q in tables:
        assert tables[q].flag == [why, why]


@pytest.mark.parametrize("entry, why", [
    ({"temperature_k": None, "field_t": 0.3},
     "tz_table value temperature_k must be a finite number, got None"),
    ({"temperature_k": 0.007, "field_t": None},
     "tz_table value field_t must be a finite number, got None"),
    ({"field_t": 0.3}, "model 'echo3' needs tz_table values for ['temperature_k']"),
    ({"temperature_k": 0.5, "field_t": None}, None),
])
def test_3ppe_tz_table_key_that_is_not_a_number_fails_the_conditions_reaching_it(entry, why):
    # the 0.09 T condition matches the first entry and never reaches the
    # second; a key is checked only when the lookup reaches it, so a None
    # field_t behind a temperature that does not match fails nothing
    traces = _3ppe_traces(seed=410, n=40) + _3ppe_traces(seed=411, field_t=0.3, n=40)
    good = [{"temperature_k": 0.007, "field_t": 0.09, "tz_s": 2.0},
            {"temperature_k": 0.007, "field_t": 0.3, "tz_s": 0.5}]
    cfg = FitConfig(restarts=2, seed=3)
    tables, fits = batch_fit_3ppe(traces, cfg=cfg, fixed={
        "t1_ms": 9.0, "tz_table": [good[0], dict(entry, tz_s=0.5), good[1]]})
    tables_ref, fits_ref = batch_fit_3ppe(traces, cfg=cfg,
                                          fixed={"t1_ms": 9.0, "tz_table": good})
    kept = 1 if why else 2
    assert fits[kept:] == [None] * (2 - kept)
    for q in tables:
        assert tables[q].flag == tables_ref[q].flag[:kept] + [f"failed: {why}"] * (2 - kept)
        assert tables[q].value[:kept].tobytes() == tables_ref[q].value[:kept].tobytes()
    for res, ref in zip(fits[:kept], fits_ref):
        assert (res.params, res.stderr, res.sse_trace, res.fixed) == (
            ref.params, ref.stderr, ref.sse_trace, ref.fixed)


@pytest.mark.parametrize("free_t1", ["no", None, 1])
def test_3ppe_free_t1_that_is_not_a_bool_is_refused(free_t1):
    # a YAML free_t1: "no" used to be truthy and fitted echo3-free-t1
    with pytest.raises(ValueError, match=f"^free_t1 must be true or false, got {free_t1!r}$"):
        batch_fit_3ppe(_3ppe_traces(seed=412, n=40),
                       fixed={"t1_ms": 9.0, "tz_s": 2.0, "free_t1": free_t1})


@pytest.mark.parametrize("table", [
    {"temperature_k": 0.007, "field_t": 0.09, "tz_s": 2.0},
    "tz.yaml",
    [[0.007, 0.09, 2.0]],
])
def test_3ppe_tz_table_of_the_wrong_shape_is_named(table):
    # one YAML entry written without its leading "-", a file name, or a
    # list of rows: each used to escape the batch as AttributeError
    with pytest.raises(ValueError, match="^tz_table must be a list of mappings"):
        batch_fit_3ppe(_3ppe_traces(seed=412, n=40), fixed={"t1_ms": 9.0, "tz_table": table})


def test_3ppe_tz_table_lookup():
    table = [{"temperature_k": 0.007, "field_t": 0.09, "tz_s": 2.0}]
    _, fits = batch_fit_3ppe(
        _3ppe_traces(seed=300, noise=0.01),
        cfg=FitConfig(restarts=1, seed=0),
        fixed={"t1_ms": 9.0, "tz_table": table})
    assert fits[0].fixed["tz_s"] == 2.0


@pytest.mark.parametrize("fixed, why", [
    ({"t1_ms": -9.0, "tz_s": 2.0}, "fixed value t1_ms must be > 0, got -9.0"),
    ({"t1_ms": 9.0, "tz_s": -2}, "fixed value tz_s must be > 0, got -2.0"),
    ({"t1_ms": 0.0, "tz_s": 2.0}, "fixed value t1_ms must be > 0, got 0.0"),
    ({"t1_ms": 9.0, "tz_table": [{"temperature_k": 0.007, "field_t": 0.0, "tz_s": 0.5},
                                 {"temperature_k": 0.007, "field_t": 0.3, "tz_s": -1.0}]},
     None),
], ids=["t1-negative", "tz-negative", "t1-zero", "tz-table"])
def test_3ppe_lifetime_not_above_zero_fails_the_rows_using_it(fixed, why):
    # T1 = -9 ms and T_Z = -2 s used to give converged fits with no flag; a
    # tz_table key is not a lifetime, and a field_t of 0 matches its row
    traces = _3ppe_traces(seed=414, n=40, field_t=0.0) + _3ppe_traces(seed=415, n=40,
                                                                      field_t=0.3)
    tables, fits = batch_fit_3ppe(traces, cfg=FitConfig(restarts=1), fixed=fixed)
    if why is None:
        assert fits[0].fixed["tz_s"] == 0.5 and fits[1] is None
        assert tables["beta"].flag[1] == "failed: fixed value tz_s must be > 0, got -1.0"
    else:
        assert fits == [None, None]
        assert tables["beta"].flag == [f"failed: {why}"] * 2


def _field_table(value, stderr=None):
    b = np.array(DEMO_FIELD_GRID_T)
    stderr = np.zeros(b.size) if stderr is None else stderr
    return ScanTable("field", "gamma_eff", b, value, stderr, [""] * b.size)


def test_fit_table_flags_a_degenerate_guess_before_the_dropped_rows():
    # the flat table's guess is degenerate, which only batch rows used to say
    value = np.full(len(DEMO_FIELD_GRID_T), 9.0)
    value[3] = np.nan
    cfg, fixed = FitConfig(restarts=2, seed=1), {"temp_k": 0.007}
    res = fit_table("field", _field_table(value), cfg, fixed)
    keep = np.isfinite(value)
    x, y = np.array(DEMO_FIELD_GRID_T)[keep], value[keep]
    guess = initial_guess("field", x, y, fixed)
    assert guess.degenerate
    alone = multi_start_fit("field", x, y, guess.params, cfg=cfg, fixed=fixed)
    assert res.params == alone.params
    assert res.flags == alone.flags + ("guess-degenerate", "rows-dropped:1")


@pytest.mark.parametrize("model_id, table, law_axis, table_axis", [
    ("temp", synth_scan("field", FIELD_7MK, (0.05, 2.0, 20, "linear"),
                        fixed={"temp_k": 0.007}), "temperature", "field"),
    ("field", synth_scan("temp", TEMP_009T, (0.007, 0.55, 20, "log")), "field",
     "temperature"),
], ids=["temp-on-field", "field-on-temperature"])
def test_fit_table_refuses_a_table_over_the_other_axis(model_id, table, law_axis,
                                                       table_axis):
    # the temperature law used to fit fields in tesla and report converged=True
    with pytest.raises(ValueError) as exc:
        fit_table(model_id, table, FitConfig(), {"temp_k": 0.007})
    assert str(exc.value) == (f"model {model_id!r} fits a table over {law_axis}, "
                              f"got one over {table_axis}")


def test_fit_table_refuses_a_model_that_fits_no_table():
    with pytest.raises(ValueError, match="^model 'mims' is not a condition-scan model$"):
        fit_table("mims", _field_table(np.arange(1.0, 15.0)), FitConfig())


def test_fit_table_refuses_a_temperature_not_above_zero():
    # temp_k = -0.007 used to converge, flagged only unbounded:alpha2_khz
    table = _field_table(models.field_linewidth(FIELD_7MK, np.array(DEMO_FIELD_GRID_T),
                                                {"temp_k": 0.007}))
    with pytest.raises(FitError, match=r"^fixed value temp_k must be > 0, got -0\.007$"):
        fit_table("field", table, FitConfig(), {"temp_k": -0.007})


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def test_emit_report_writes_expected_files(tmp_path):
    traces = [_mims_trace(b, seed=20 + k)
              for k, b in enumerate([0.0, 0.09, 0.9])]
    tables, fits = batch_fit_2ppe(traces)
    dest = tmp_path / "report"
    paths = emit_report(tables, fits, str(dest))
    names = sorted(os.path.basename(p) for p in paths)
    assert names == ["gamma_eff_vs_field.txt", "i0_vs_field.txt",
                     "summary.txt", "x_vs_field.txt"]
    summary = (dest / "summary.txt").read_text()
    assert "fit[0]" in summary and "tm_us" in summary
    for p in paths:
        assert os.path.exists(p)


def test_emit_report_is_deterministic(tmp_path):
    traces = [_mims_trace(b, seed=30 + k)
              for k, b in enumerate([0.0, 0.9])]
    tables, fits = batch_fit_2ppe(traces)
    a, b = tmp_path / "a", tmp_path / "b"
    emit_report(tables, fits, str(a), extra_lines=("check: PASS",))
    emit_report(tables, fits, str(b), extra_lines=("check: PASS",))
    match, mismatch, errors = filecmp.cmpfiles(
        a, b, os.listdir(a), shallow=False)
    assert not mismatch and not errors


def test_emit_report_refuses_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_report({}, [], str(tmp_path / "empty"))
    assert not (tmp_path / "empty").exists()


def test_emit_report_includes_field_minimum(tmp_path):
    from echofit.synth import synth_scan

    tbl = synth_scan("field", dict(FIELD_7MK), (0.0, 2.0, 14, "linear"),
                     noise=("none", 0.0), fixed={"temp_k": 0.007})
    res = multi_start_fit("field", tbl.condition, tbl.value,
                          dict(FIELD_7MK),
                          cfg=FitConfig(restarts=1), fixed={"temp_k": 0.007})
    paths = emit_report({"gamma_eff": tbl}, [res], str(tmp_path / "r"))
    summary = open(paths[-1]).read()
    assert "field minimum" in summary
    assert "0.13980" in summary


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

def test_demo_checks_pass(tmp_path):
    paths, checks = run_demo(str(tmp_path / "demo"), seed=1)
    assert checks and all(ok for _, ok, _ in checks)
    for p in paths:
        assert os.path.exists(p)
    summary = open(os.path.join(str(tmp_path / "demo"), "summary.txt")).read()
    assert "PASS" in summary
    assert "not-converged" not in summary


@pytest.mark.parametrize("seed, text", [
    (-1, "seed must be >= 0, got -1"),
    ("1", "seed must be an int, got '1'"),
    (True, "seed must be an int, got True"),
])
def test_demo_seed_is_checked_before_any_work(tmp_path, seed, text):
    _close_demo_worker()
    with pytest.raises(ValueError) as err:
        run_demo(str(tmp_path / "demo"), seed=seed)
    assert str(err.value) == text
    assert pipeline._DEMO_WORKER is None
    assert not (tmp_path / "demo").exists()


def test_demo_decays_take_their_truths_from_one_call_per_law():
    # Each vector law call over the demo grid equals the scalar calls it
    # replaced bit for bit, and so do the traces made from them.
    at_7mk = {"temp_k": DEMO_TEMP_K}
    grid = np.array(DEMO_FIELD_GRID_T)
    gamma = models.field_linewidth(FIELD_7MK, grid, at_7mk)
    scalar = [models.field_linewidth(FIELD_7MK, b, at_7mk) for b in DEMO_FIELD_GRID_T]
    assert gamma.tobytes() == np.array(scalar).tobytes()
    assert (models.tm_from_gamma_eff(gamma).tobytes()
            == np.array([models.tm_from_gamma_eff(g) for g in scalar]).tobytes())
    assert (demo_i0_of_field(grid).tobytes()
            == np.array([float(demo_i0_of_field(b)) for b in DEMO_FIELD_GRID_T]).tobytes())
    for k, (b, got) in enumerate(zip(DEMO_FIELD_GRID_T, _demo_2ppe_traces(2))):
        tm = models.tm_from_gamma_eff(models.field_linewidth(FIELD_7MK, b, at_7mk))
        want = synth_trace(SynthSpec(
            model_id="mims",
            true_params={"i0": float(demo_i0_of_field(b)), "tm_us": tm, "x": DEMO_MIMS_X},
            grid=(0.25, 3.0 * tm, 50, "log"), noise=("multiplicative", 0.02),
            seed=2000 + k, temperature_k=DEMO_TEMP_K, field_t=b))
        assert got.time_ms.tobytes() == want.time_ms.tobytes()
        assert got.intensity.tobytes() == want.intensity.tobytes()
        assert (got.field_t, got.provenance) == (want.field_t, want.provenance)


# The demo's 3PPE half runs in a forked worker process where the host
# lets this process use two CPUs; elsewhere these cases have no worker.
needs_worker = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
         and len(os.sched_getaffinity(0)) > 1),
    reason="the demo worker needs fork and two usable CPUs")


def _worker_pid():
    """The pid of this process's demo worker, a live child of it."""
    owner, pid, _ = pipeline._DEMO_WORKER
    assert owner == os.getpid() != pid and os.waitpid(pid, os.WNOHANG) == (0, 0)
    return pid


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _same_files(a, b):
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors


def _in_process_demo(destination, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        run_demo(destination, seed=seed)


@needs_worker
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_3ppe_half_in_the_worker_equals_the_in_process_call(seed):
    with _start_demo_3ppe(seed) as collect:
        truth, tables, fits = collect()
    _worker_pid()
    lone_truth, lone_tables, lone_fits = _demo_3ppe_half(seed)
    assert truth == lone_truth
    assert len(fits) == len(lone_fits) == 1
    assert_same_fit(fits[0], lone_fits[0])
    assert sorted(tables) == sorted(lone_tables) == sorted(
        ["gamma0", "gamma_tls", "gamma_sd", "r_sd", "beta"])
    for q, table in tables.items():
        lone = lone_tables[q]
        assert (table.condition_axis, table.quantity_id, table.flag) == (
            lone.condition_axis, lone.quantity_id, lone.flag)
        for column in ("condition", "value", "stderr"):
            assert getattr(table, column).tobytes() == getattr(lone, column).tobytes()


@needs_worker
def test_demos_share_one_worker_that_ends_with_its_process(tmp_path):
    run_demo(str(tmp_path / "one"), seed=1)
    pid = _worker_pid()
    run_demo(str(tmp_path / "two"), seed=2)
    assert _worker_pid() == pid
    _close_demo_worker()
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)

    src = str(Path(pipeline.__file__).resolve().parent.parent)
    code = ("import sys\n"
            "from echofit import pipeline\n"
            "pipeline.run_demo(sys.argv[1], seed=1)\n"
            "print(pipeline._DEMO_WORKER[1])\n")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "three")],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stderr == ""
    child_worker = int(done.stdout)
    with pytest.raises(ProcessLookupError):
        os.kill(child_worker, 0)
    _same_files(tmp_path / "one", tmp_path / "three")


@needs_worker
def test_after_a_demo_the_caller_runs_one_thread(tmp_path):
    run_demo(str(tmp_path / "demo"), seed=1)
    assert threading.active_count() == 1
    _worker_pid()


@needs_worker
def test_an_error_in_the_worker_reaches_the_caller(tmp_path, monkeypatch):
    def no_traces(seed):
        raise FitError(f"no traces for seed {seed}")

    # A fresh worker, forked while the patch is in place, so that it runs it.
    _close_demo_worker()
    monkeypatch.setattr(pipeline, "_demo_3ppe_traces", no_traces)
    try:
        with pytest.raises(FitError) as err:
            run_demo(str(tmp_path / "demo"), seed=4)
        _worker_pid()  # it outlives the error
    finally:
        _close_demo_worker()
    assert type(err.value) is FitError and str(err.value) == "no traces for seed 4"
    assert not (tmp_path / "demo").exists()


def _interrupted(seed):
    raise KeyboardInterrupt


def _exits(seed):
    raise SystemExit(3)


def _unsendable(seed):
    return lambda: seed  # the worker's send of it fails


@needs_worker
@pytest.mark.parametrize("half", [_interrupted, _exits, _unsendable])
def test_the_worker_ends_on_any_error_and_never_returns_into_the_caller(
        tmp_path, monkeypatch, half):
    monkeypatch.setattr(pipeline, "_demo_3ppe_half", half)
    caller = os.getpid()
    try:
        _, worker, conn = pipeline._fork_demo_worker()
    finally:
        if os.getpid() != caller:  # the worker got out into this code: note it, end
            (tmp_path / "escaped").touch()
            os._exit(1)
    with conn:
        conn.send(1)
        with pytest.raises(EOFError):
            conn.recv()
    assert os.waitpid(worker, 0) == (worker, 0)
    assert not (tmp_path / "escaped").exists()


@needs_worker
def test_a_killed_worker_fails_the_pending_half_and_the_next_demo_forks_afresh(
        tmp_path, monkeypatch):
    _close_demo_worker()
    monkeypatch.setattr(pipeline, "_demo_3ppe_traces", lambda seed: time.sleep(60))
    try:
        with _start_demo_3ppe(1) as collect:
            worker = _worker_pid()
            os.kill(worker, signal.SIGKILL)
            with pytest.raises(RuntimeError, match="^the demo's 3PPE worker died$"):
                collect()
    finally:
        monkeypatch.undo()
    _no_child_left()
    paths, checks = run_demo(str(tmp_path / "after"), seed=1)
    assert all(ok for _, ok, _ in checks)
    assert _worker_pid() != worker


@needs_worker
def test_a_worker_killed_between_demos_is_replaced(tmp_path):
    run_demo(str(tmp_path / "one"), seed=1)
    worker = _worker_pid()
    os.kill(worker, signal.SIGKILL)
    os.waitpid(worker, 0)
    run_demo(str(tmp_path / "two"), seed=1)
    assert _worker_pid() != worker
    _same_files(tmp_path / "one", tmp_path / "two")


@needs_worker
def test_closing_the_worker_does_not_wait_for_its_half(monkeypatch):
    _close_demo_worker()
    monkeypatch.setattr(pipeline, "_demo_3ppe_traces", lambda seed: time.sleep(60))
    with _start_demo_3ppe(1):
        worker = _worker_pid()
        start = time.monotonic()
        _close_demo_worker()
        assert time.monotonic() - start < 5
    with pytest.raises(ProcessLookupError):
        os.kill(worker, 0)


@needs_worker
def test_a_demo_that_fails_beside_its_half_leaves_no_reply_for_the_next(
        tmp_path, monkeypatch):
    def fails_once(*args, **kwargs):
        monkeypatch.setattr(pipeline, "batch_fit_2ppe", batch_fit_2ppe)
        raise FitError("the 2ppe half failed")

    run_demo(str(tmp_path / "first"), seed=1)
    monkeypatch.setattr(pipeline, "batch_fit_2ppe", fails_once)
    with pytest.raises(FitError, match="the 2ppe half failed"):
        run_demo(str(tmp_path / "failed"), seed=2)
    run_demo(str(tmp_path / "next"), seed=3)
    _worker_pid()
    _in_process_demo(str(tmp_path / "lone"), 3)
    _same_files(tmp_path / "next", tmp_path / "lone")


@needs_worker
def test_demos_in_three_threads_each_get_their_own_half(tmp_path):
    run_demo(str(tmp_path / "first"), seed=1)  # forks before any thread starts
    errors = []

    def demo(seed):
        try:
            run_demo(str(tmp_path / f"thread{seed}"), seed=seed)
        except BaseException as err:
            errors.append(err)
            raise

    seeds = (6, 7, 8)
    threads = [threading.Thread(target=demo, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(thread.is_alive() for thread in threads)
    for seed in seeds:
        _in_process_demo(str(tmp_path / f"lone{seed}"), seed)
        _same_files(tmp_path / f"thread{seed}", tmp_path / f"lone{seed}")


def test_on_one_cpu_the_demo_runs_in_process(tmp_path, monkeypatch):
    run_demo(str(tmp_path / "usual"), seed=5)
    _close_demo_worker()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    run_demo(str(tmp_path / "one-cpu"), seed=5)
    assert pipeline._DEMO_WORKER is None
    _no_child_left()
    _same_files(tmp_path / "usual", tmp_path / "one-cpu")


def _demo_in_a_daemon(destination):
    assert multiprocessing.current_process().daemon
    run_demo(destination, seed=5)


def test_in_a_daemonic_process_the_demo_writes_the_same_reports(tmp_path):
    run_demo(str(tmp_path / "usual"), seed=5)
    _close_demo_worker()
    daemon = multiprocessing.get_context("fork").Process(
        target=_demo_in_a_daemon, args=(str(tmp_path / "daemon"),), daemon=True)
    daemon.start()
    daemon.join(120)
    assert daemon.exitcode == 0
    _same_files(tmp_path / "usual", tmp_path / "daemon")


def _demo_in_a_forked_process(destination, parent_worker):
    run_demo(destination, seed=5)
    owner, worker, _ = pipeline._DEMO_WORKER
    assert owner == os.getpid() and worker != parent_worker
    _close_demo_worker()


@needs_worker
def test_a_process_forked_after_a_demo_forks_its_own_worker(tmp_path):
    run_demo(str(tmp_path / "usual"), seed=5)
    worker = _worker_pid()
    child = multiprocessing.get_context("fork").Process(
        target=_demo_in_a_forked_process, args=(str(tmp_path / "forked"), worker))
    child.start()
    child.join(120)
    assert child.exitcode == 0
    run_demo(str(tmp_path / "after"), seed=5)
    assert _worker_pid() == worker
    _same_files(tmp_path / "usual", tmp_path / "forked")
    _same_files(tmp_path / "usual", tmp_path / "after")


@needs_worker
def test_a_failed_fork_runs_the_demo_in_process(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    run_demo(str(tmp_path / "usual"), seed=5)
    _close_demo_worker()
    monkeypatch.setattr(os, "fork", no_fork)
    run_demo(str(tmp_path / "no-fork"), seed=5)
    assert pipeline._DEMO_WORKER is None
    _no_child_left()
    _same_files(tmp_path / "usual", tmp_path / "no-fork")
