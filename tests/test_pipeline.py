"""Batch fitting over condition scans, report emission and the demo."""

import filecmp
import os

import numpy as np
import pytest

from echofit import models
from echofit.fitting import FitConfig, FitError, multi_start_fit
from echofit.guesses import initial_guess
from echofit.pipeline import (
    DEFAULT_2PPE_WINDOW,
    _demo_2ppe_traces,
    batch_fit_2ppe,
    batch_fit_3ppe,
    emit_report,
    run_demo,
)
from echofit.presets import (
    FIELD_7MK,
    SD_7MK_009T,
    SD_7MK_009T_SIGMA,
    T12_SET_US,
)
from echofit.synth import SynthSpec, synth_trace
from echofit.trace import EchoTrace, load_table

MIMS_TRUTH = {"i0": 1.0, "tm_us": 40.0, "x": 1.3}
SD_TRUTH = dict(
    i0=1.0, beta=0.2,
    **{k: v for k, v in SD_7MK_009T.to_dict().items() if k != "t0_us"})


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
    cfg = FitConfig(window=DEFAULT_2PPE_WINDOW, restarts=4)
    tables, fits = batch_fit_2ppe([tr], cfg=cfg)

    x, y = tr.time_us, tr.intensity
    mask = np.ones_like(x, dtype=bool)
    mask &= x >= 0.25
    guess = initial_guess("mims", x[mask], y[mask])
    direct = multi_start_fit("mims", x, y, guess.params, cfg=cfg)

    res = fits[0]
    assert res.params == direct.params
    assert res.stderr == direct.stderr
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
    cfg = FitConfig(window=DEFAULT_2PPE_WINDOW, restarts=4, seed=3)
    tables, fits = batch_fit_2ppe(good + [broken], cfg=cfg)

    for tr, res in zip(good, fits):
        x, y = tr.time_us, tr.intensity
        guess = initial_guess("mims", x[x >= 0.25], y[x >= 0.25])
        alone = multi_start_fit("mims", x, y, guess.params, cfg=cfg)
        assert res.params == alone.params
        assert res.stderr == alone.stderr
        assert res.sse == alone.sse
        assert res.sse_trace == alone.sse_trace
        assert res.n_iterations == alone.n_iterations
        assert res.n_restarts_agreeing == alone.n_restarts_agreeing
        assert res.flags == alone.flags
        np.testing.assert_array_equal(res.covariance, alone.covariance)
    assert fits[-1] is None
    why = ("log-intensity residuals need strictly positive data; "
           "use residual_space='linear'")
    assert tables["x"].flag[-1] == f"failed: {why}"


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


def test_batch_rejects_mixed_condition_axes():
    a = _mims_trace(0.0, seed=4)
    b = synth_trace(SynthSpec("mims", MIMS_TRUTH, (0.25, 90.0, 50, "log"),
                              ("multiplicative", 0.02), seed=5,
                              temperature_k=0.1, field_t=0.9))
    with pytest.raises(ValueError):
        batch_fit_2ppe([a, b])


def test_batch_rejects_wrong_sequence():
    tr = _3ppe_traces(seed=1)[0]
    with pytest.raises(ValueError, match="2ppe"):
        batch_fit_2ppe([tr])
    with pytest.raises(ValueError, match="3ppe"):
        batch_fit_3ppe([_mims_trace(0.0, seed=1)])


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
        guess = initial_guess("echo3", x, y, fixed)
        try:
            alone = multi_start_fit("echo3", x, y, guess.params, cfg=cfg, fixed=fixed)
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
        lone_flags.append(";".join(alone.flags + (("tz-assumed",) if tz_s == 1.0 else ())
                                   + (("guess-degenerate",) if guess.degenerate else ())))
    assert [f is None for f in fits] == [False, False, False, True]
    assert "need at least 7 points inside the window, got 6" in lone_flags[-1]
    assert "tz-assumed" in lone_flags[2]
    for q in tables:
        assert tables[q].flag == lone_flags


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

    tbl = synth_scan("field", FIELD_7MK.to_dict(), (0.0, 2.0, 14, "linear"),
                     noise=("none", 0.0), fixed={"temp_k": 0.007})
    res = multi_start_fit("field", tbl.condition, tbl.value,
                          FIELD_7MK.to_dict(),
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
