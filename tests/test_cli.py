"""Command-line interface: exit codes, printed configuration, file
outputs and end-to-end synth/fit round trips.
"""

import filecmp
import os

import numpy as np
import pytest

from echofit import models
from echofit.cli import main
from echofit.fitting import FitConfig, multi_start_fit
from echofit.guesses import initial_guess
from echofit.pipeline import fit_table
from echofit.presets import FIELD_7MK, PRESETS, SD_7MK_009T, TEMP_009T
from echofit.synth import synth_scan
from echofit.trace import ScanTable, load_table, load_trace, write_table


def test_eval_field_preset_zero_field(capsys):
    rc = main(["eval", "field", "--preset", "field-7mK", "--B", "0",
               "--T", "0.007"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "40.02" in out


def test_every_run_prints_resolved_config(capsys):
    main(["eval", "field", "--preset", "field-7mK", "--B", "0.5"])
    out = capsys.readouterr().out
    assert "# config" in out
    # the resolved values appear, not just the flag names
    assert "B = 0.5" in out


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "field", "--wavelength", "1536"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_bad_parameter_value_fails_with_message(capsys):
    rc = main(["eval", "field", "--params", "gamma0_khz=-3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err


def test_synth_then_fit_round_trip(tmp_path, capsys):
    trace_path = tmp_path / "decay.txt"
    rc = main(["synth", "--model", "mims",
               "--params", "i0=1,tm_us=40,x=1.3",
               "--grid", "0.25:30:50:log",
               "--noise", "mult:0.02", "--seed", "5",
               "--out", str(trace_path)])
    assert rc == 0
    tr = load_trace(trace_path)
    assert tr.n_points == 50

    out_dir = tmp_path / "fitted"
    rc = main(["fit-2ppe", str(trace_path), "--window", "0.25:",
               "--restarts", "2", "--out", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    tbl = load_table(out_dir / "gamma_eff_vs_field.txt")
    tm_fit = 1e3 / (np.pi * tbl.value[0])
    assert abs(tm_fit - 40.0) / 40.0 < 0.02


def test_fit_2ppe_nan_window_edge_is_refused(tmp_path, capsys):
    # a NaN edge used to mask every point, and the row failed as
    # "initial_guess needs at least 3 points"
    trace_path = tmp_path / "decay.txt"
    assert main(["synth", "--model", "mims", "--params", "i0=1,tm_us=40,x=1.3",
                 "--grid", "0.25:30:50:log", "--out", str(trace_path)]) == 0
    capsys.readouterr()
    rc = main(["fit-2ppe", str(trace_path), "--window", "nan:"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("error: window must be None or a (lo, hi) pair whose edges are "
                   "each None or a finite number, got (nan, None)\n")


@pytest.mark.parametrize("argv, why", [
    (["eval", "field", "--params", "gamma0_khz=abc"],
     "--params needs KEY=NUMBER pairs, got 'gamma0_khz=abc'"),
    (["synth", "--grid", "0.25:30:50.5:log"],
     "--grid needs LO:HI:COUNT:SPACING with an integer COUNT, got '0.25:30:50.5:log'"),
    (["synth", "--grid", "0.25:30:50:log", "--modulation", "0.1:2"],
     "--modulation needs DEPTH:FREQ_MHZ:DECAY_US, three numbers, got '0.1:2'"),
    (["fit-2ppe", "TRACE", "--window", "abc:"],
     "--window needs LO:HI in microseconds, each edge empty or a number, got 'abc:'"),
], ids=["params", "grid", "modulation", "window"])
def test_unparsable_flag_text_is_named(tmp_path, capsys, argv, why):
    # each used to print Python's own text (could not convert string to
    # float, invalid literal for int(), not enough values to unpack), which
    # named neither the flag nor its text
    trace = _synth(tmp_path, "t.txt", "--model", "mims", "--params", "i0=1,tm_us=40,x=1.3",
                   "--grid", "0.25:30:20:log")
    argv = [trace if a == "TRACE" else a for a in argv]
    if argv[0] == "synth":
        argv += ["--out", str(tmp_path / "out.txt")]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {why}\n"


def test_synth_same_seed_same_file(tmp_path):
    args = ["synth", "--model", "mims", "--params", "i0=1,tm_us=40,x=1.3",
            "--grid", "0.25:30:20:log", "--noise", "mult:0.05", "--seed", "9"]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_check_grad_all_exits_zero(capsys):
    rc = main(["check-grad", "--all", "--draws", "20", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK" in out or "ok" in out


def test_scan_field_reports_minimum(tmp_path, capsys):
    rc = main(["scan-field", "--preset", "field-7mK", "--T", "0.007",
               "--b-max", "2.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "minimum" in out
    assert "0.1398" in out


def test_demo_runs_and_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "one", tmp_path / "two"
    assert main(["demo", "--seed", "3", "--out", str(a)]) == 0
    assert main(["demo", "--seed", "3", "--out", str(b)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    common = sorted(os.listdir(a))
    assert common == sorted(os.listdir(b))
    match, mismatch, errors = filecmp.cmpfiles(a, b, common, shallow=False)
    assert not mismatch and not errors


def test_demo_negative_seed_is_named_before_any_output(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_outdir_env_var_is_default(tmp_path, monkeypatch, capsys):
    dest = tmp_path / "from-env"
    monkeypatch.setenv("ECHOFIT_OUTDIR", str(dest))
    # the parser reads the environment when the subcommand is built
    rc = main(["demo", "--seed", "2"])
    capsys.readouterr()
    assert rc == 0
    assert dest.is_dir()
    assert (dest / "summary.txt").exists()


def test_fit_3ppe_with_config_yaml(tmp_path, capsys):
    trace_paths = []
    for j, t12 in enumerate(("0.09", "0.33", "1.068")):
        p = tmp_path / f"t12_{j}.txt"
        rc = main(["synth", "--model", "echo3",
                   "--preset", "3ppe-7mK-0.09T",
                   "--grid", "50:7500:80:log",
                   "--noise", "mult:0.02", "--seed", str(40 + j),
                   "--t12-us", t12,
                   "--temperature-K", "0.007", "--field-T", "0.09",
                   "--out", str(p)])
        assert rc == 0
        trace_paths.append(str(p))

    cfg = tmp_path / "fit.yaml"
    cfg.write_text("t1_ms: 9.0\ntz_s: 2.0\nrestarts: 2\nseed: 1\n")
    out_dir = tmp_path / "joint"
    rc = main(["fit-3ppe", *trace_paths, "--config", str(cfg),
               "--out", str(out_dir)])
    capsys.readouterr()
    assert rc == 0
    tbl = load_table(out_dir / "gamma0_vs_field.txt")
    assert abs(tbl.value[0] - 7.96) < 3 * 0.48


@pytest.mark.parametrize("config, why", [
    ('free_t1: "no"\n', "free_t1 must be true or false, got 'no'"),
    ("free_t1:\n", "free_t1 must be true or false, got None"),
    ("free_t1: 1\n", "free_t1 must be true or false, got 1"),
    ("restarts: 2.5\n", "restarts must be an int, got 2.5"),
    ('max_iterations: "20"\n', "max_iterations must be an int, got '20'"),
    ("seed:\n", "seed must be an int, got None"),
    ("restart: 1\nmax_iteration: 2\ntol_grad: 0.5\nseed: 3\n",
     "unknown --config keys ['restart', 'max_iteration', 'tol_grad']; known: t1_ms, tz_s, "
     "tz_table, free_t1, restarts, seed, max_iterations"),
    ("- restarts: 1\n- seed: 2\n", "--config needs a mapping of keys to values, got a list"),
])
def test_fit_3ppe_config_value_of_the_wrong_type_is_named(tmp_path, capsys, config, why):
    # free_t1: "no" used to fit with T1 free; the others used to fail as
    # bare TypeErrors, or (an empty seed) to fit from a fresh seed each run;
    # unknown keys, typos and the stop tolerance alike, used to be printed
    # as in effect and then ignored
    trace = _synth(tmp_path, "t12.txt", "--model", "echo3", "--preset", "3ppe-7mK-0.09T",
                   "--grid", "50:7500:40:log", "--t12-us", "0.33")
    cfg = tmp_path / "fit.yaml"
    cfg.write_text(config)
    capsys.readouterr()
    assert main(["fit-3ppe", trace, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {why}\n"


def test_fit_2ppe_negative_seed_is_named(tmp_path, capsys):
    trace = _synth(tmp_path, "t.txt", "--model", "mims", "--params", "i0=1,tm_us=40,x=1.3",
                   "--grid", "0.25:30:50:log")
    capsys.readouterr()
    assert main(["fit-2ppe", trace, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0 with restarts > 1, got -1\n"


def _synth(tmp_path, name, *args):
    path = tmp_path / name
    assert main(["synth", *args, "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("command", ["fit-2ppe", "fit-3ppe"])
def test_fit_batch_with_a_too_short_trace_fails_its_row_and_exits_1(tmp_path, capsys,
                                                                    command):
    # the last row has too few points to fit: it prints "fit FAILED", keeps
    # its place in the report as a failed: row, and the run exits 1
    if command == "fit-2ppe":
        base = ["--model", "mims", "--params", "i0=1,tm_us=40,x=1.3", "--noise", "mult:0.02"]
        traces = [_synth(tmp_path, "good.txt", *base, "--grid", "0.25:30:50:log"),
                  _synth(tmp_path, "short.txt", *base, "--grid", "0.25:30:3:log",
                         "--field-T", "0.09")]
        table, why = "gamma_eff_vs_field.txt", "need at least 4 points, got 3"
    else:
        base = ["--model", "echo3", "--preset", "3ppe-7mK-0.09T", "--noise", "mult:0.02"]
        traces = [_synth(tmp_path, f"t12_{j}.txt", *base, "--grid", "50:7500:80:log",
                         "--t12-us", t12, "--seed", str(40 + j), "--field-T", "0.09")
                  for j, t12 in enumerate(("0.09", "0.33", "1.068"))]
        traces.append(_synth(tmp_path, "short.txt", *base, "--grid", "50:7500:5:log",
                             "--t12-us", "0.33", "--field-T", "0.3"))
        table, why = "gamma0_vs_field.txt", "need at least 7 points, got 5"
    capsys.readouterr()
    out_dir = tmp_path / "report"
    rc = main([command, *traces, "--restarts", "2", "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.count("fit FAILED") == 1
    assert f"wrote {len(os.listdir(out_dir))} files to {out_dir}" in out
    tbl = load_table(out_dir / table)
    assert tbl.flag[1] == f"failed: {why}"
    assert np.isnan(tbl.value[1]) and np.isfinite(tbl.value[0])
    assert "fit[1]: FAILED" in (out_dir / "summary.txt").read_text().splitlines()


def _fit_lines(res):
    """The parameter lines the CLI prints for ``res``."""
    return [f"  {name} = {res.params[name]:.6g} +- {res.stderr[name]:.6g}"
            for name in res.param_names]


def _field_scan_traces(tmp_path, short=None):
    """Seven synthesized 2ppe traces over a field scan; the one at index
    ``short`` has 3 points, too few to fit."""
    return [_synth(tmp_path, f"b{k}.txt", "--model", "mims", "--params",
                   f"i0=1,tm_us={tm},x=1.3",
                   "--grid", "0.25:200:3:log" if k == short else "0.25:200:50:log",
                   "--noise", "mult:0.02", "--seed", str(k), "--field-T", str(b))
            for k, (b, tm) in enumerate(zip((0.0, 0.02, 0.06, 0.14, 0.35, 0.9, 2.0),
                                            (8.0, 14.0, 30.0, 40.0, 30.0, 20.0, 16.0)))]


def test_scan_field_table_fits_a_fit_2ppe_report_weighted_by_its_stderr(tmp_path, capsys):
    traces = _field_scan_traces(tmp_path)
    out_dir = tmp_path / "report"
    assert main(["fit-2ppe", *traces, "--out", str(out_dir)]) == 0
    path = out_dir / "gamma_eff_vs_field.txt"
    capsys.readouterr()
    rc = main(["scan-field", "--table", str(path), "--restarts", "3", "--seed", "2",
               "--T", "0.007"])
    out = capsys.readouterr().out
    assert rc == 0
    table = load_table(path)
    assert np.all(table.stderr > 0)
    fixed = {"temp_k": 0.007}
    guess = initial_guess("field", table.condition, table.value, fixed)
    res = multi_start_fit("field", table.condition, table.value, guess.params,
                          sigma=table.stderr, cfg=FitConfig(restarts=3, seed=2),
                          fixed=fixed)
    for line in _fit_lines(res):
        assert line in out.splitlines()
    assert "minimum: B* = " in out


def test_scan_field_table_leaves_out_a_failed_row(tmp_path, capsys):
    # the 2 T trace has 3 points, so its report row is failed: and NaN;
    # the table fit used to refuse the whole table over it
    traces = _field_scan_traces(tmp_path, short=6)
    out_dir = tmp_path / "report"
    assert main(["fit-2ppe", *traces, "--out", str(out_dir)]) == 1
    path = out_dir / "gamma_eff_vs_field.txt"
    table = load_table(path)
    assert table.flag[6] == "failed: need at least 4 points, got 3"
    capsys.readouterr()
    rc = main(["scan-field", "--table", str(path), "--restarts", "3", "--seed", "2",
               "--T", "0.007"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    good = ScanTable(table.condition_axis, table.quantity_id, table.condition[:6],
                     table.value[:6], table.stderr[:6], table.flag[:6])
    res = fit_table("field", good, FitConfig(restarts=3, seed=2), {"temp_k": 0.007})
    assert "rows-dropped" not in ";".join(res.flags)
    start = out.index(f"model field: converged={res.converged} iterations={res.n_iterations} "
                      f"sse={res.sse:.6g} dof={res.dof}")
    end = start + 1 + len(res.param_names)
    assert out[start + 1:end] == _fit_lines(res)
    assert out[end] == f"  flags: {';'.join(res.flags + ('rows-dropped:1',))}"


def test_scan_temp_table_refuses_a_field_table(tmp_path, capsys):
    # it used to fit the temperature law to fields in tesla and exit 0
    # with converged=True and no flag
    path = tmp_path / "gamma_eff_vs_field.txt"
    write_table(synth_scan("field", FIELD_7MK, (0.05, 2.0, 20, "linear"),
                           fixed={"temp_k": 0.007}), path)
    capsys.readouterr()
    rc = main(["scan-temp", "--table", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "converged" not in captured.out
    assert captured.err == ("error: model 'temp' fits a table over temperature, "
                            "got one over field\n")


def test_scan_temp_table_fits_a_scan_temp_table_unweighted(tmp_path, capsys):
    # a noiseless scan table has zero stderr, so the fit is unweighted
    path = tmp_path / "temp.txt"
    assert main(["scan-temp", "--points", "12", "--out", str(path)]) == 0
    capsys.readouterr()
    rc = main(["scan-temp", "--table", str(path), "--restarts", "2", "--seed", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    table = load_table(path)
    assert np.all(table.stderr == 0)
    guess = initial_guess("temp", table.condition, table.value)
    res = multi_start_fit("temp", table.condition, table.value, guess.params,
                          cfg=FitConfig(restarts=2, seed=4))
    for line in _fit_lines(res):
        assert line in out.splitlines()


@pytest.mark.parametrize("argv, flag", [
    (["eval", "mims", "--params", "i0=1,tm_us=40,x=1.3"], "--t12-us"),
    (["eval", "sd", "--preset", "3ppe-7mK-0.09T"], "--t23-us"),
    (["eval", "echo3", "--preset", "3ppe-7mK-0.09T", "--t23-us", "100"], "--t12-us"),
    (["eval", "echo3", "--preset", "3ppe-7mK-0.09T", "--t12-us", "0.3"], "--t23-us"),
])
def test_eval_without_a_delay_names_the_missing_flag(argv, flag, capsys):
    # it used to print nan and exit 0
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 1
    assert "nan" not in out
    assert f"error: eval {argv[1]} needs {flag}" in err


def test_eval_sd_defaults_t12_to_zero(capsys):
    rc = main(["eval", "sd", "--preset", "3ppe-7mK-0.09T", "--t23-us", "300"])
    with_zero = capsys.readouterr().out.splitlines()[-1]
    main(["eval", "sd", "--preset", "3ppe-7mK-0.09T", "--t23-us", "300", "--t12-us", "0"])
    assert rc == 0
    assert with_zero == capsys.readouterr().out.splitlines()[-1]
    assert with_zero.startswith("gamma_eff_khz = ") and "nan" not in with_zero


_3PPE = ["--preset", "3ppe-7mK-0.09T"]
_ECHO3 = PRESETS["3ppe-7mK-0.09T"]


@pytest.mark.parametrize("argv, law", [
    (["eval", "temp", "--params", "floor_khz=7.5,amp_khz=45,exponent_n=1.34", "--T", "0.1"],
     lambda: models.temp_linewidth(TEMP_009T, 0.1)),
    (["eval", "sech2", "--params", "gamma_max_khz=37.77,g=0.05", "--B", "0.2", "--T", "0.01"],
     lambda: models.sech2_sd_amplitude({"gamma_max_khz": 37.77, "g": 0.05}, 0.2,
                                       {"temp_k": 0.01})),
    (["eval", "echo3", *_3PPE, "--t12-us", "0.33", "--t23-us", "900"],
     lambda: models.stimulated_echo_intensity(_ECHO3["params"], 0.33, 900.0, _ECHO3["fixed"])),
    (["eval", "echo3", *_3PPE, "--params", "i0=2", "--t12-us", "0.33", "--t23-us", "900",
      "--t1-ms", "4", "--tz-s", "0.5", "--t0-us", "100"],
     lambda: models.stimulated_echo_intensity(
         {**_ECHO3["params"], "i0": 2.0}, 0.33, 900.0,
         {"t1_ms": 4.0, "tz_s": 0.5, "t0_us": 100.0})),
    (["eval", "sd", *_3PPE, "--t12-us", "0.33", "--t23-us", "900", "--t0-us", "100"],
     lambda: models.sd_linewidth(SD_7MK_009T, 0.33, 900.0, {"t0_us": 100.0})),
], ids=["temp", "sech2", "echo3", "echo3-flags", "sd-t0"])
def test_eval_prints_the_public_law(argv, law, capsys):
    # eval sd ignored --t0-us, and no test ran the temp, sech2 or echo3 value
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(f" = {law():.6g}")


@pytest.mark.parametrize("argv, why", [
    (["eval", "sech2", "--params", "g=0.05"],
     "model 'sech2' needs parameter values for ['gamma_max_khz']"),
    (["eval", "echo3", "--params", "beta=0.2", "--t12-us", "0.33", "--t23-us", "900"],
     "model 'echo3' needs parameter values for "
     "['i0', 'gamma0_khz', 'gamma_sd_khz', 'r_sd_khz', 'gamma_tls_khz']"),
    (["eval", "sech2", "--params", "gamma_max_khz=inf,g=0.05"],
     "parameter value gamma_max_khz must be a finite number, got inf"),
    # the range rule of echo3's beta
    (["eval", "echo3", *_3PPE, "--params", "beta=3", "--t12-us", "0.33", "--t23-us", "900"],
     "beta must lie in [0.0, 2.0]"),
    # field, temp, mims and sd printed Python's own text, such as
    # "FieldModelParams.__init__() missing 4 required positional arguments"
    (["eval", "field", "--params", "gamma0_khz=1"],
     "model 'field' needs parameter values for ['alpha1_khz', 'alpha2_khz', 'g1', 'g2']"),
    (["eval", "temp", "--params", "floor_khz=7.5,amp_khz=45"],
     "model 'temp' needs parameter values for ['exponent_n']"),
    (["eval", "mims", "--params", "i0=1,x=1.3", "--t12-us", "1"],
     "model 'mims' needs parameter values for ['tm_us']"),
    (["eval", "mims", "--params", "i0=1,tm_us=nan,x=1.3", "--t12-us", "1"],
     "parameter value tm_us must be a finite number, got nan"),
    (["eval", "sd", "--params", "gamma0_khz=8,gamma_sd_khz=38,r_sd_khz=1,gamma_tls_khz=12",
      "--t23-us", "300"],
     "model 'sd' needs fixed values for ['t0_us']"),
    (["eval", "sd", *_3PPE, "--t23-us", "300", "--t0-us", "0"],
     "fixed value t0_us must be > 0, got 0.0"),
    # the range rule of each parameter
    (["eval", "mims", "--params", "i0=1,tm_us=40,x=9", "--t12-us", "1"],
     "x must lie in [0.3, 4.0]"),
    (["eval", "field", "--preset", "field-7mK", "--params", "g2=-1"], "g2 must be >= 0"),
], ids=["sech2-missing", "echo3-missing", "sech2-inf", "echo3-param-error", "field-missing",
        "temp-missing", "mims-missing", "mims-nan", "sd-no-t0", "sd-t0-zero", "mims-range",
        "field-range"])
def test_eval_names_a_missing_or_bad_parameter(argv, why, capsys):
    # sech2 and echo3 printed the bare KeyError text ('gamma_max_khz',
    # 'beta'), and echo3 took i0 = 1 when it was not given
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {why}\n"


@pytest.mark.parametrize("argv, why", [
    (["mims", "--params", "i0=1,tm_us=40,x=1.3,tmm=3", "--t12-us", "1"],
     "model 'mims' has no parameters ['tmm']; its parameters are i0, tm_us, x"),
    (["field", "--preset", "field-7mK", "--params", "g3=1"],
     "model 'field' has no parameters ['g3']; its parameters are gamma0_khz, alpha1_khz, "
     "alpha2_khz, g1, g2; --T sets temp_k"),
    (["temp", "--params", "floor_khz=7.5,amp_khz=45,exponent_n=1.34,n=2"],
     "model 'temp' has no parameters ['n']; its parameters are floor_khz, amp_khz, "
     "exponent_n"),
    (["sech2", "--params", "gamma_max_khz=37.77,g=0.05,gg=9"],
     "model 'sech2' has no parameters ['gg']; its parameters are gamma_max_khz, g; "
     "--T sets temp_k"),
    (["sd", *_3PPE, "--params", "t0_us=100", "--t23-us", "300"],
     "model 'sd' has no parameters ['t0_us']; its parameters are gamma0_khz, gamma_sd_khz, "
     "r_sd_khz, gamma_tls_khz; --t0-us sets t0_us"),
    (["echo3", *_3PPE, "--params", "tz_s=3", "--t12-us", "0.3", "--t23-us", "300"],
     "model 'echo3' has no parameters ['tz_s']; its parameters are i0, beta, gamma0_khz, "
     "gamma_sd_khz, r_sd_khz, gamma_tls_khz; --t1-ms sets t1_ms; --tz-s sets tz_s; "
     "--t0-us sets t0_us"),
], ids=["mims", "field", "temp", "sech2", "sd", "echo3"])
def test_eval_refuses_a_name_that_is_not_a_parameter(argv, why, capsys):
    # mims printed "unexpected keyword argument", and sech2 and echo3
    # ignored the name and exited 0
    assert main(["eval", *argv]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {why}\n"
    assert all(line.startswith("# config") for line in out.splitlines())


def test_eval_echo3_takes_no_fixed_value_it_is_not_given(capsys):
    # it used to take T1 = 9 ms, T_Z = 1 s and t0 = 50 us without a word
    params = "i0=1,beta=0.2,gamma0_khz=8,gamma_sd_khz=38,r_sd_khz=1,gamma_tls_khz=12"
    argv = ["eval", "echo3", "--params", params, "--t12-us", "0.3", "--t23-us", "300"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: model 'echo3' needs fixed values for ['t1_ms', 'tz_s', 't0_us']\n")
    assert main(argv + ["--t1-ms", "9", "--t0-us", "50"]) == 1
    assert capsys.readouterr().err == "error: model 'echo3' needs fixed values for ['tz_s']\n"
    assert main(argv + ["--t1-ms", "9", "--tz-s", "1", "--t0-us", "50"]) == 0
    law = models.stimulated_echo_intensity(
        dict(i0=1.0, beta=0.2, gamma0_khz=8.0, gamma_sd_khz=38.0, r_sd_khz=1.0,
             gamma_tls_khz=12.0), 0.3, 300.0, {"t1_ms": 9.0, "tz_s": 1.0, "t0_us": 50.0})
    assert capsys.readouterr().out.splitlines()[-1] == f"intensity = {law:.6g}"


def test_eval_echo3_flag_wins_over_the_preset_value_by_value(capsys):
    assert main(["eval", "echo3", *_3PPE, "--t12-us", "0.33", "--t23-us", "900",
                 "--tz-s", "0.5"]) == 0
    law = models.stimulated_echo_intensity(_ECHO3["params"], 0.33, 900.0,
                                           {**_ECHO3["fixed"], "tz_s": 0.5})
    assert capsys.readouterr().out.splitlines()[-1] == f"intensity = {law:.6g}"


@pytest.mark.parametrize("argv, why", [
    (["--grid", "0.25:30:5:log"], "model 'mims' needs true values for ['i0', 'tm_us', 'x']"),
    # the true values are read before the fixed values, as a law reads them
    (["--model", "echo3", "--grid", "50:7500:5:log", "--t12-us", "0.33"],
     "model 'echo3' needs true values for ['i0', 'beta', 'gamma0_khz', 'gamma_sd_khz', "
     "'r_sd_khz', 'gamma_tls_khz']"),
    (["--params", "i0=1,tm_us=40,x=nan", "--grid", "0.25:30:5:log"],
     "true value x must be a finite number, got nan"),
    (["--params", "i0=1,tm_us=40,x=1.3,tmm=2", "--grid", "0.25:30:5:log"],
     "model 'mims' has no parameters ['tmm']; its parameters are i0, tm_us, x"),
    (["--params", "i0=1,tm_us=40,x=9", "--grid", "0.25:30:5:log"],
     "x must lie in [0.3, 4.0]"),
    (["--model", "echo3", *_3PPE, "--params", "tz_s=3", "--grid", "50:7500:5:log",
      "--t12-us", "0.33"],
     "model 'echo3' has no parameters ['tz_s']; its parameters are i0, beta, gamma0_khz, "
     "gamma_sd_khz, r_sd_khz, gamma_tls_khz"),
], ids=["mims", "echo3", "nan", "mims-name", "mims-range", "echo3-name"])
def test_synth_names_the_values_it_needs(tmp_path, argv, why, capsys):
    # each used to print the bare KeyError text, error: 'i0' or 't1_ms';
    # a name that is not a parameter was written to the trace's truth
    # values, and x = 9 was synthesized, both with exit 0
    assert main(["synth", *argv, "--out", str(tmp_path / "t.txt")]) == 1
    assert capsys.readouterr().err == f"error: {why}\n"
    assert not (tmp_path / "t.txt").exists()


def test_synth_negative_seed_is_named_before_any_output(tmp_path, capsys):
    # NumPy's own text, "expected non-negative integer", named no flag
    out = tmp_path / "t.txt"
    assert main(["synth", "--params", "i0=1,tm_us=40,x=1.3", "--grid", "0.25:30:5:log",
                 "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_fit_3ppe_with_a_negative_t1_fails_every_row(tmp_path, capsys):
    # T1 = -9 ms used to print converged=True with no flag and exit 0
    traces = [_synth(tmp_path, f"t12_{j}.txt", "--model", "echo3", *_3PPE, "--grid",
                     "50:7500:40:log", "--t12-us", t12, "--field-T", "0.09")
              for j, t12 in enumerate(("0.09", "0.33"))]
    capsys.readouterr()
    out_dir = tmp_path / "report"
    assert main(["fit-3ppe", *traces, "--t1-ms", "-9", "--tz-s", "2",
                 "--out", str(out_dir)]) == 1
    assert "fit FAILED" in capsys.readouterr().out
    assert load_table(out_dir / "beta_vs_field.txt").flag == [
        "failed: fixed value t1_ms must be > 0, got -9.0"]


@pytest.mark.parametrize("argv, why", [
    (["scan-field", "--params", "g3=1"],
     "model 'field' has no parameters ['g3']; its parameters are gamma0_khz, alpha1_khz, "
     "alpha2_khz, g1, g2; --T sets temp_k"),
    (["scan-field", "--params", "g2=-1"], "g2 must be >= 0"),
    (["scan-temp", "--params", "floor_khz=1,amp_khz=2,exponent_n=1.3,zz=4"],
     "model 'temp' has no parameters ['zz']; its parameters are floor_khz, amp_khz, "
     "exponent_n"),
    (["scan-temp", "--params", "floor_khz=1,amp_khz=2,exponent_n=9"],
     "exponent_n must lie in [0.5, 3.0]"),
], ids=["scan-field-name", "scan-field-range", "scan-temp-name", "scan-temp-range"])
def test_scans_read_their_parameters_as_eval_does(argv, why, capsys):
    # scan-field printed "FieldModelParams.__init__() got an unexpected
    # keyword argument 'g3'"; scan-temp ignored zz, took exponent_n = 9 and
    # printed a scan
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {why}\n"
    assert all(line.startswith("# config") for line in out.splitlines())

